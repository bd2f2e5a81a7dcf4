"""Crash safety of every artifact writer: a command killed while it writes a
file leaves the old file or none under the final name, never a partial one,
and a rerun into the same directory gives an uninterrupted run's tree.

Each kill runs the command in a child interpreter whose ``open`` ends the
process (``os._exit(70)``) right after the first write into the k-th file
it opens for writing, one k per file the command writes.  The hidden
``.<name>.<pid>.tmp`` siblings that ``granule_io.publish`` writes through
are not files under a final name, and are ignored.
"""

import errno
import os
import stat
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from dustpipe import cli, granule_io
from dustpipe.granule_io import (DatasetManifest, Granule, LabelMap, ManifestEntry, publish,
                                 read_labels, write_granule, write_labels)
from dustpipe.inference import DetectionMap, write_map, write_pgm
from dustpipe.model3d import ModelConfig, init_params, save_checkpoint
from dustpipe.patch_index import PatchIndex, write_index

from conftest import src_env

KILLED = 70

# the child: the k-th file opened for writing is written to once, flushed,
# and the process ends there; then the command runs through cli.main
CHILD = f"""
import builtins, os, sys

k, seen, real_open = int(sys.argv[1]), 0, builtins.open


class Killer:
    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data)
        self.f.flush()
        os._exit({KILLED})

    def writelines(self, parts):
        for part in parts:
            self.write(part)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self.f, name)


def killing_open(file, mode="r", *args, **kwargs):
    global seen
    f = real_open(file, mode, *args, **kwargs)
    if any(c in mode for c in "wxa+"):
        seen += 1
        if seen == k:
            return Killer(f)
    return f


builtins.open = killing_open
from dustpipe import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def final_files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, except publish siblings."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and not (p.name.startswith(".") and p.name.endswith(".tmp"))}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A raw two-granule set, its preprocessed copy and a checkpoint for it."""
    root = tmp_path_factory.mktemp("inputs")
    assert cli.main(["synth", "--out", str(root / "raw"), "--seed", "3", "--count", "2",
                     "--height", "12", "--width", "12", "--channels", "4"]) == 0
    assert cli.main(["preprocess", "--manifest", str(root / "raw" / "manifest.json"),
                     "--out", str(root / "proc")]) == 0
    config = ModelConfig(filters=(2, 2, 2), in_depth=4)
    save_checkpoint(root / "m.dck", init_params(0, config))
    return root


# each command, with {inp} the inputs and {out} the directory its files go to
COMMANDS = {
    "synth": ["synth", "--out", "{out}", "--seed", "1", "--count", "2",
              "--height", "12", "--width", "12", "--channels", "4"],
    "preprocess": ["preprocess", "--manifest", "{inp}/raw/manifest.json", "--out", "{out}"],
    "index build": ["index", "build", "--manifest", "{inp}/proc/manifest.json",
                    "--out", "{out}/centers.dix"],
    "infer": ["infer", "--ckpt", "{inp}/m.dck", "--granule", "{inp}/proc/granule_0000.dgr",
              "--out", "{out}/scene.dmp", "--pgm", "{out}/scene.pgm"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_killed_command_leaves_no_partial_file(inputs, tmp_path, capsys, command):
    def argv(out: Path) -> list[str]:
        return [a.format(inp=inputs, out=out) for a in COMMANDS[command]]

    reference = tmp_path / "reference"
    reference.mkdir()
    assert cli.main(argv(reference)) == 0
    want = final_files(reference)
    assert want
    for k in range(1, len(want) + 1):  # one k per file the command writes
        out = tmp_path / f"killed{k}"
        out.mkdir()
        child = subprocess.run([sys.executable, "-c", CHILD, str(k), *argv(out)],
                               env=src_env(), capture_output=True, text=True)
        assert child.returncode == KILLED, (k, child.stderr)
        for name, data in final_files(out).items():
            assert want.get(name) == data, f"{command}, killed in file {k}: partial {name}"
        assert cli.main(argv(out)) == 0  # the rerun
        assert final_files(out) == want, f"{command}, rerun after a kill in file {k}"
    capsys.readouterr()


@dataclass
class Report:
    value: float = 0.5


WRITERS = {
    "granule": lambda p: write_granule(Granule(np.ones((2, 3, 3), np.float32)), p),
    "labels": lambda p: write_labels(LabelMap(np.ones((3, 3), np.float32)), p),
    "index": lambda p: write_index(PatchIndex(np.zeros((1, 3), np.int64), 3), p),
    "map": lambda p: write_map(DetectionMap(np.ones((3, 3), np.float32)), p),
    "pgm": lambda p: write_pgm(DetectionMap(np.ones((3, 3), np.float32)), p),
    "checkpoint": lambda p: save_checkpoint(p, init_params(1, ModelConfig((2, 2, 2), 3, 3))),
    "manifest": lambda p: DatasetManifest([ManifestEntry(p.parent / "g.dgr",
                                                         p.parent / "l.dlb")]).save(p),
    "report": lambda p: cli._report(Report(), str(p)),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"old bytes")

    def refuse(src, dst):
        raise OSError(errno.EIO, "replace refused", src, dst)

    monkeypatch.setattr(granule_io.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused") as e:
        WRITERS[writer](path)
    assert path.read_bytes() == b"old bytes"
    assert sorted(tmp_path.iterdir()) == [path]  # no sibling left
    assert e.value.filename == str(path) and e.value.filename2 is None


def test_symlinked_target_is_followed_and_the_link_kept(tmp_path):
    real = tmp_path / "real.dlb"
    real.write_bytes(b"old")
    link = tmp_path / "link.dlb"
    link.symlink_to(real)
    labels = LabelMap(np.full((2, 2), 0.5, np.float32))
    write_labels(labels, link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    np.testing.assert_array_equal(read_labels(real).values, labels.values)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.dlb", "real.dlb"]


def test_fifo_target_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        publish(fifo, b"through ", np.frombuffer(b"the pipe", np.uint8))
        assert os.read(reader, 64) == b"through the pipe"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(tmp_path.iterdir()) == [fifo]


def test_missing_directory_is_named_by_the_target(tmp_path):
    out = tmp_path / "nodir" / "x.json"
    with pytest.raises(FileNotFoundError) as e:
        publish(out, b"{}")
    assert str(e.value) == f"[Errno {errno.ENOENT}] No such file or directory: '{out}'"
