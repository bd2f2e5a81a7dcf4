"""Command-line surface: subcommand wiring, exit codes, determinism."""

import hashlib
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dustpipe import bench, cli
from dustpipe.cli import main
from dustpipe.granule_io import (DatasetManifest, Granule, SyntheticConfig, read_granule,
                                 write_granule)
from dustpipe.inference import infer_scene, read_map, write_map
from dustpipe.model3d import (
    ModelConfig,
    init_params,
    load_checkpoint,
    read_checkpoint_tensors,
    save_checkpoint,
    write_checkpoint_tensors,
)
from dustpipe.patch_index import build_index, read_index
from dustpipe.preprocess import PreprocessConfig, preprocess_pipeline
from dustpipe.training import LossConfig, TrainConfig

from conftest import src_env, tree_digest


def run(*args) -> int:
    return main([str(a) for a in args])


def synth(out, seed=7, count=2, height=14, width=14, channels=6, **flags):
    args = ["synth", "--out", out, "--seed", seed, "--count", count,
            "--height", height, "--width", width, "--channels", channels]
    for k, v in flags.items():
        args += [f"--{k.replace('_', '-')}", v]
    assert run(*args) == 0
    return Path(out) / "manifest.json"


def required_flags(command, root):
    """``command`` and the flags it requires; every input named does not exist."""
    missing = root / "missing"
    return [*command.split(), *{
        "synth": ["--out", root / "raw", "--count", 1, "--height", 14, "--width", 14],
        "preprocess": ["--manifest", missing, "--out", root / "proc"],
        "train": ["--manifest-train", missing, "--manifest-val", missing, "--out", root / "run"],
        "eval": ["--ckpt", missing, "--manifest-test", missing, "--report", root / "r.json"],
        "infer": ["--ckpt", missing, "--granule", missing, "--out", root / "scene.dmp",
                  "--preprocess"],
        "index build": ["--manifest", missing, "--out", root / "centers.dix"],
        "bench memory": ["--small", missing, "--large", missing, "--report", root / "r.json"],
        "bench sampling": ["--manifest", missing, "--report", root / "r.json"],
    }[command]]


class TestFlagTable:
    @pytest.mark.parametrize("command, classes", [
        ("synth", {SyntheticConfig, ModelConfig}), ("preprocess", {PreprocessConfig}),
        ("train", {TrainConfig, LossConfig, ModelConfig}), ("eval", {LossConfig}),
        ("infer", {PreprocessConfig}), ("index build", {ModelConfig}),
        ("bench memory", {ModelConfig}), ("bench sampling", {ModelConfig}),
    ])
    def test_required_flags_alone_build_default_configs(self, tmp_path, capsys, monkeypatch,
                                                         command, classes):
        built = []
        real_config = cli._config

        def spy(cls, args):
            built.append(real_config(cls, args))
            return built[-1]

        monkeypatch.setattr(cli, "_config", spy)
        run(*required_flags(command, tmp_path))  # stops at the missing inputs, if any
        capsys.readouterr()
        assert {type(cfg) for cfg in built} == classes
        for cfg in built:
            assert cfg == type(cfg)()

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--nan-fraction", "2"), ("train", "--alpha", "-1"),
        ("train", "--patch-size", "4"), ("train", "--patch-size", "0"),
        ("eval", "--alpha", "nan"), ("preprocess", "--window", "0"),
        ("infer", "--seed", "-1"), ("synth", "--patch-size", "4"),
        ("index build", "--patch-size", "4"), ("bench memory", "--patch-size", "4"),
        ("bench sampling", "--patch-size", "4"),
    ])
    def test_bad_value_refused_first_naming_its_flag(self, tmp_path, capsys,
                                                      command, flag, value):
        # the inputs do not exist, so the value must be refused before any is read
        assert run(*required_flags(command, tmp_path), f"{flag}={value}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}") and captured.err.count("\n") == 1
        assert value in captured.err
        assert list(tmp_path.iterdir()) == []


def test_package_imports_numpy_without_scipy():
    # in a fresh interpreter, so no module the test run imported is counted
    probe = ("import sys, dustpipe, dustpipe.cli, dustpipe.bench; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=src_env(), check=True)
    assert proc.stdout.strip() == "[]"


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--wat", "1") == 2
        capsys.readouterr()

    def test_missing_required_args(self, capsys):
        assert run("index", "build") == 2
        capsys.readouterr()

    def test_runtime_failure_is_one_line_diagnostic(self, tmp_path, capsys):
        code = run("model", "describe", tmp_path / "missing.dck")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestSynth:
    def test_same_seed_identical_trees(self, tmp_path, capsys):
        synth(tmp_path / "a")
        synth(tmp_path / "b")
        capsys.readouterr()
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


    def test_plume_range_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "raw"
        assert run("synth", "--out", out, "--count", 1, "--height", 14, "--width", 14,
                   "--min-plumes", 3, "--max-plumes", 1) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --min-plumes") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["nan", "-0.5", "inf"])
    def test_amplitude_out_of_range_rejected_before_writing(self, tmp_path, capsys, amplitude):
        out = tmp_path / "raw"
        assert run("synth", "--out", out, "--count", 1, "--height", 14, "--width", 14,
                   "--min-plumes", 2, f"--amplitude={amplitude}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --amplitude") and captured.err.count("\n") == 1
        assert not out.exists()


class TestPreprocess:
    def test_outputs_are_finite_unit_interval(self, tmp_path, capsys):
        manifest = synth(tmp_path / "raw", nan_fraction=0.1)
        assert run("preprocess", "--manifest", manifest,
                   "--out", tmp_path / "proc", "--seed", 3) == 0
        capsys.readouterr()
        processed = DatasetManifest.load(tmp_path / "proc" / "manifest.json")
        assert len(processed) == 2
        for e in processed:
            data = read_granule(e.granule).data
            assert np.isfinite(data).all()
            assert data.min() >= 0.0 and data.max() <= 1.0

    def assert_refused_untouched(self, manifest, out, root, capsys):
        before = tree_digest(root)
        assert run("preprocess", "--manifest", manifest, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert tree_digest(root) == before

    def test_shared_file_names_refused_before_writing(self, tmp_path, capsys):
        # a/granule_0000.dgr and b/granule_0000.dgr would land on one file
        a = DatasetManifest.load(synth(tmp_path / "a", seed=1))
        b = DatasetManifest.load(synth(tmp_path / "b", seed=2))
        merged = tmp_path / "merged.json"
        DatasetManifest(a.entries + b.entries).save(merged)
        self.assert_refused_untouched(merged, tmp_path / "proc", tmp_path, capsys)
        assert not (tmp_path / "proc").exists()

    def test_out_dir_holding_the_inputs_refused(self, tmp_path, capsys):
        manifest = synth(tmp_path / "raw")
        self.assert_refused_untouched(manifest, tmp_path / "raw", tmp_path, capsys)

    def test_negative_seed_is_one_line_diagnostic_naming_the_flag(self, tmp_path, capsys):
        manifest = synth(tmp_path / "raw")
        capsys.readouterr()
        assert run("preprocess", "--manifest", manifest,
                   "--out", tmp_path / "proc", "--seed", -1) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --seed") and captured.err.count("\n") == 1
        assert not (tmp_path / "proc").exists()


class TestIndexBuild:
    def test_written_index_matches_library(self, tmp_path, capsys):
        manifest_path = synth(tmp_path / "raw")
        out = tmp_path / "centers.dix"
        assert run("index", "build", "--manifest", manifest_path,
                   "--patch-size", 5, "--out", out) == 0
        capsys.readouterr()
        manifest = DatasetManifest.load(manifest_path)
        expected = build_index(manifest, 5)
        got = read_index(out)
        assert got.patch_size == 5
        assert np.array_equal(got.triplets, expected.triplets)

    def test_malformed_manifest_is_one_line_diagnostic(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text('{"entries": [{"granule": "g.dgr"}]}')
        code = run("index", "build", "--manifest", manifest_path,
                   "--out", tmp_path / "centers.dix")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestModelDescribe:
    def test_census_output(self, tmp_path, capsys):
        ckpt = tmp_path / "m.dck"
        save_checkpoint(ckpt, init_params(0))
        assert run("model", "describe", ckpt) == 0
        out = capsys.readouterr().out
        assert "3 conv + 3 batch-norm + 1 fully-connected" in out


    def test_corrupt_checkpoint_is_one_line_diagnostic(self, tmp_path, capsys):
        ckpt = tmp_path / "m.dck"
        save_checkpoint(ckpt, init_params(0))
        raw = bytearray(ckpt.read_bytes())
        # the first record's single u32 dim (meta.filters) declares 2**31 values
        (name_len,) = struct.unpack("<H", raw[8:10])
        raw[11 + name_len:15 + name_len] = struct.pack("<I", 2**31)
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run("model", "describe", ckpt) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestInferAndEval:
    def _checkpoint(self, tmp_path, channels=6, patch_size=5):
        cfg = ModelConfig(filters=(3, 4, 5), in_depth=channels, patch_size=patch_size)
        ckpt = tmp_path / "m.dck"
        save_checkpoint(ckpt, init_params(1, cfg))
        return ckpt

    def test_infer_writes_map_and_pgm(self, tmp_path, capsys):
        manifest = synth(tmp_path / "raw", count=1)
        ckpt = self._checkpoint(tmp_path)
        entry = DatasetManifest.load(manifest).entries[0]
        out_map = tmp_path / "scene.dmp"
        out_pgm = tmp_path / "scene.pgm"
        assert run("infer", "--ckpt", ckpt, "--granule", entry.granule,
                   "--out", out_map, "--pgm", out_pgm, "--preprocess",
                   "--seed", 5) == 0
        capsys.readouterr()
        dmap = read_map(out_map)
        assert np.isfinite(dmap.values[2:-2, 2:-2]).all()
        assert out_pgm.read_text().split()[0] == "P2"

    @pytest.mark.parametrize("preprocess", [False, True], ids=["preprocessed", "raw"])
    def test_infer_maps_granule_and_matches_library(self, tmp_path, capsys, monkeypatch,
                                                    preprocess):
        entry = DatasetManifest.load(synth(tmp_path / "raw", count=1)).entries[0]
        ckpt = self._checkpoint(tmp_path)
        granule = preprocess_pipeline(read_granule(entry.granule), PreprocessConfig(rng_seed=5))
        if preprocess:
            source, flags = entry.granule, ["--preprocess", "--seed", 5]
        else:
            source, flags = tmp_path / "pre.dgr", []
            write_granule(granule, source)
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
        reads = []

        def spy(path, **kwargs):
            reads.append(kwargs)
            return read_granule(path, **kwargs)

        monkeypatch.setattr(cli, "read_granule", spy)
        out_map = tmp_path / "scene.dmp"
        assert run("infer", "--ckpt", ckpt, "--granule", source, "--out", out_map,
                   *flags) == 0
        capsys.readouterr()
        assert reads == [{"use_mmap": True}]
        want = tmp_path / "want.dmp"
        write_map(infer_scene(load_checkpoint(ckpt)[0], granule), want)
        assert out_map.read_bytes() == want.read_bytes()
        assert hashlib.sha256(source.read_bytes()).hexdigest() == digest

    def test_infer_rejects_even_patch_checkpoint(self, tmp_path, capsys):
        entry = DatasetManifest.load(synth(tmp_path / "raw", count=1)).entries[0]
        ckpt = self._checkpoint(tmp_path)
        tensors = read_checkpoint_tensors(ckpt)
        tensors["meta.patch_size"] = np.float32(4)  # no tensor's shape depends on it
        write_checkpoint_tensors(ckpt, tensors)
        capsys.readouterr()
        out_map = tmp_path / "scene.dmp"
        assert run("infer", "--ckpt", ckpt, "--granule", entry.granule, "--out", out_map,
                   "--preprocess") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out_map.exists()

    def test_infer_rejects_zero_filter_checkpoint(self, tmp_path, capsys):
        entry = DatasetManifest.load(synth(tmp_path / "raw", count=1)).entries[0]
        ckpt = self._checkpoint(tmp_path)
        tensors = read_checkpoint_tensors(ckpt)
        # block two has no channels; every tensor is shaped to match
        tensors["meta.filters"] = np.array([3, 0, 5], dtype=np.float32)
        for key in tensors:
            if key.startswith(("conv2.", "bn2.")):
                tensors[key] = tensors[key][:0]
        tensors["conv3.weight"] = tensors["conv3.weight"][:, :0]
        write_checkpoint_tensors(ckpt, tensors)
        capsys.readouterr()
        out_map = tmp_path / "scene.dmp"
        assert run("infer", "--ckpt", ckpt, "--granule", entry.granule, "--out", out_map,
                   "--preprocess") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out_map.exists()

    def test_infer_rejects_raw_granule_without_flag(self, tmp_path, capsys):
        manifest = synth(tmp_path / "raw", count=1, nan_fraction=0.2)
        ckpt = self._checkpoint(tmp_path)
        entry = DatasetManifest.load(manifest).entries[0]
        code = run("infer", "--ckpt", ckpt, "--granule", entry.granule,
                   "--out", tmp_path / "scene.dmp")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_writes_report(self, tmp_path, capsys):
        manifest = synth(tmp_path / "raw", nan_fraction=0)
        ckpt = self._checkpoint(tmp_path)
        report_path = tmp_path / "report.json"
        assert run("eval", "--ckpt", ckpt, "--manifest-test", manifest,
                   "--report", report_path) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert set(payload) == {"n", "mse", "wmse", "mae", "r2", "accuracy",
                                "mean_label"}
        assert payload["n"] == 2 * 10 * 10  # (14-4)^2 centers per granule


class TestTrainCli:
    def test_mini_training_run(self, tmp_path, capsys):
        train_manifest = synth(tmp_path / "train", seed=1, count=2, nan_fraction=0)
        val_manifest = synth(tmp_path / "val", seed=2, count=1, nan_fraction=0)
        run_dir = tmp_path / "run"
        code = run("train", "--manifest-train", train_manifest,
                   "--manifest-val", val_manifest, "--out", run_dir,
                   "--filters", "3,4,5", "--patch-size", "5",
                   "--passes", 1, "--partitions", 2, "--sub-epochs", 1,
                   "--batch", 128, "--seed", 0)
        assert code == 0
        capsys.readouterr()
        assert (run_dir / "final.dck").exists()
        assert (run_dir / "best.dck").exists()
        assert (run_dir / "log.csv").read_text().count("\n") == 3  # header + 2 rows

    @pytest.mark.parametrize("filters", ["0,4,4", "-1,4,4", "4,4"])
    def test_non_positive_filter_count_is_one_line_diagnostic(self, tmp_path, capsys, filters):
        train_manifest = synth(tmp_path / "train", seed=1, count=1, nan_fraction=0)
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert run("train", "--manifest-train", train_manifest,
                   "--manifest-val", train_manifest, "--out", run_dir,
                   f"--filters={filters}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --filters") and captured.err.count("\n") == 1
        assert not run_dir.exists()

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--filters", "4,4,"),
                                             ("--seed", "-5")])
    def test_bad_value_is_one_line_diagnostic_naming_the_flag(self, tmp_path, capsys,
                                                               flag, value):
        train_manifest = synth(tmp_path / "train", seed=1, count=1, nan_fraction=0)
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert run("train", "--manifest-train", train_manifest,
                   "--manifest-val", train_manifest, "--out", run_dir,
                   f"{flag}={value}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}") and captured.err.count("\n") == 1
        assert value in captured.err
        assert not run_dir.exists()

    def test_patch_larger_than_granules_refused_before_writing(self, tmp_path, capsys):
        manifest = synth(tmp_path / "raw", count=1, height=12, width=12, nan_fraction=0)
        capsys.readouterr()
        assert run("train", "--manifest-train", manifest, "--manifest-val", manifest,
                   "--out", tmp_path / "run", "--patch-size", 13) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: training index is empty\n"
        assert not (tmp_path / "run").exists()

    def test_channel_mismatch_refused_before_writing(self, tmp_path, capsys):
        train_manifest = synth(tmp_path / "train", count=1, channels=6, nan_fraction=0)
        val_manifest = synth(tmp_path / "val", count=1, channels=8, nan_fraction=0)
        capsys.readouterr()
        assert run("train", "--manifest-train", train_manifest, "--manifest-val", val_manifest,
                   "--out", tmp_path / "run", "--filters", "2,2,2") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: validation granules have 8 channels, "
                                       "the model expects 6")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad, value", [("train", np.nan), ("val", np.nan),
                                            ("train", np.inf), ("val", -np.inf)])
    def test_non_finite_granule_refused_before_writing(self, tmp_path, capsys, bad, value):
        manifests = {name: synth(tmp_path / name, seed=seed, count=2, height=12, width=12,
                                 nan_fraction=0)
                     for name, seed in (("train", 1), ("val", 2))}
        target = DatasetManifest.load(manifests[bad]).entries[1].granule
        data = read_granule(target).data
        data[2, 5, 7] = value
        write_granule(Granule(data), target)
        capsys.readouterr()
        assert run("train", "--manifest-train", manifests["train"],
                   "--manifest-val", manifests["val"], "--out", tmp_path / "run",
                   "--filters", "2,2,2") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {target}: non-finite values"), captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_divergence_is_one_stderr_line(self, tmp_path, capsys):
        # in a fresh interpreter, so numpy's warnings reach stderr as a user sees them
        manifest = synth(tmp_path / "raw", count=2, height=12, width=12, nan_fraction=0)
        capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "dustpipe.cli", "train", "--manifest-train", str(manifest),
             "--manifest-val", str(manifest), "--out", str(tmp_path / "run"),
             "--filters", "2,2,2", "--passes", "1", "--partitions", "1",
             "--sub-epochs", "1", "--lr", "1e38"],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: non-finite"), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "run" / "best.dck").exists()


class TestBenchCli:
    def test_sampling_report_json(self, tmp_path, capsys):
        manifest = synth(tmp_path / "raw", count=2, height=24, width=24,
                         label_density=0.3)
        report_path = tmp_path / "bench.json"
        assert run("bench", "sampling", "--manifest", manifest, "--batch", 64,
                   "--seconds", 1, "--report", report_path) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert payload["speedup_ratio"] > 0
        assert payload["multisets_equal"] is True

    @pytest.mark.parametrize("value", ["nan", "0", "inf"])
    def test_sampling_seconds_error_names_the_flag(self, tmp_path, capsys, value):
        manifest = synth(tmp_path / "raw", count=1, height=12, width=12)
        capsys.readouterr()
        assert run("bench", "sampling", "--manifest", manifest, "--seconds", value,
                   "--report", tmp_path / "r.json") == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: --seconds: duration_seconds must be finite and "
                                f"positive, got {float(value)}\n")
        assert captured.out == ""
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["sampling", "memory"])
    def test_batch_error_names_the_flag(self, tmp_path, capsys, monkeypatch, command):
        manifest = synth(tmp_path / "raw", count=1, height=12, width=12)

        def refuse(*args):
            raise AssertionError("a probe interpreter started")

        monkeypatch.setattr(bench, "run_fresh", refuse)
        inputs = {"sampling": ["--manifest", manifest],
                  "memory": ["--small", manifest, "--large", manifest]}[command]
        capsys.readouterr()
        assert run("bench", command, *inputs, "--batch", 0, "--report", tmp_path / "r.json") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --batch: batch_size must be >= 1, got 0\n"
        assert captured.out == ""
        assert not (tmp_path / "r.json").exists()
