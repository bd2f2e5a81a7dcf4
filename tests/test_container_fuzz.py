"""Exhaustive, deterministic corruption sweep over every container reader.

For each container a tiny valid file is written, then every truncation and
every single-bit flip of its header (of the whole file, for checkpoints)
is fed to the readers.  A reader may succeed or raise a ``DustpipeError``;
any other exception is a defect.
"""

import traceback

import numpy as np
import pytest

from dustpipe.errors import DustpipeError
from dustpipe.granule_io import (
    Granule,
    LabelMap,
    read_granule,
    read_labels,
    write_granule,
    write_labels,
)
from dustpipe.inference import DetectionMap, read_map, write_map
from dustpipe.model3d import (
    ModelConfig,
    init_params,
    load_checkpoint,
    read_checkpoint_tensors,
    save_checkpoint,
)
from dustpipe.patch_index import PatchIndex, read_index, write_index

GRID = np.arange(6, dtype=np.float32).reshape(2, 3) / 8


def _granule(path):
    write_granule(Granule(np.stack([GRID, GRID + 1])), path)


def _labels(path):
    write_labels(LabelMap(GRID), path)


def _index(path):
    write_index(PatchIndex(np.array([[0, 1, 1], [1, 2, 3]], dtype=np.int64), 3), path)


def _map(path):
    write_map(DetectionMap(GRID), path)


def _checkpoint(path):
    save_checkpoint(path, init_params(0, ModelConfig(filters=(1, 1, 1), in_depth=3,
                                                     patch_size=3)),
                    extra={"opt.step": np.float32(2)})


# container -> (writer, header bytes to flip (None: whole file), readers)
CONTAINERS = {
    "granule": (_granule, 16, [read_granule, lambda p: read_granule(p, use_mmap=True)]),
    "labels": (_labels, 12, [read_labels]),
    "index": (_index, 16, [read_index]),
    "map": (_map, 12, [read_map]),
    "checkpoint": (_checkpoint, None, [read_checkpoint_tensors, load_checkpoint]),
}


def _variants(raw: bytes, flip_bytes: int):
    for n in range(len(raw)):
        yield f"truncated to {n} bytes", raw[:n]
    for bit in range(8 * flip_bytes):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)


@pytest.mark.parametrize("container", sorted(CONTAINERS))
def test_only_dustpipe_errors_escape(tmp_path, container):
    write, flip_bytes, readers = CONTAINERS[container]
    good = tmp_path / "good"
    write(good)
    raw = good.read_bytes()
    for read in readers:
        read(good)
    path = tmp_path / "variant"
    escaped = []
    for what, data in _variants(raw, flip_bytes or len(raw)):
        path.write_bytes(data)
        for i, read in enumerate(readers):
            try:
                read(path)
            except DustpipeError:
                pass
            except Exception as e:  # any other type is the defect under test
                escaped.append(f"reader {i}, {what}: {traceback.format_exception_only(e)[-1]}")
    assert not escaped, f"{len(escaped)} non-Dustpipe errors, first: {escaped[:5]}"
