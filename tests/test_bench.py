"""Benchmark harness: footprint arithmetic, read-only guarantees, and the
sampling comparison at smoke scale.  Scale-dependent assertions live in the
acceptance suite."""

import math
import subprocess
from dataclasses import asdict

import pytest

from dustpipe import bench
from dustpipe.bench import (
    SamplingBenchReport,
    bench_memory,
    bench_sampling,
    dataset_checksums,
)
from dustpipe.errors import DustpipeError, EmptyDatasetError
from dustpipe.granule_io import (
    DatasetManifest,
    SyntheticConfig,
    generate_synthetic_dataset,
)
from dustpipe.patch_index import GranuleStore, batch_footprint_bytes


@pytest.fixture
def small_dataset(tmp_path):
    cfg = SyntheticConfig(min_plumes=1, max_plumes=2, nan_fraction=0.0,
                          label_density=0.3)
    generate_synthetic_dataset(tmp_path, seed=4, count=3, height=64, width=64,
                               channels=38, config=cfg)
    return tmp_path / "manifest.json"


class TestFootprintArithmetic:
    def test_documented_batch_footprint(self):
        assert batch_footprint_bytes(256, 38, 5) == 256 * 950 * 4 + 256 * 4 == 973_824

    def test_payload_bytes_of_three_64x64_granules(self, small_dataset):
        store = GranuleStore(DatasetManifest.load(small_dataset))
        assert store.payload_bytes == 3 * 64 * 64 * 38 * 4 == 1_867_776
        store.close()


class TestSamplingBench:
    def test_indexed_beats_naive_with_identical_multisets(self, small_dataset):
        report = bench_sampling(small_dataset, batch_size=128, seed=3,
                                duration_seconds=1.5)
        assert isinstance(report, SamplingBenchReport)
        assert report.speedup_ratio > 1.0
        assert report.multisets_equal
        assert report.files_unchanged
        assert report.indexed_epochs >= 1 and report.naive_epochs >= 1
        payload = asdict(report)
        assert set(payload) == set(SamplingBenchReport.__dataclass_fields__)

    def test_empty_dataset_rejected(self, tmp_path):
        cfg = SyntheticConfig(label_density=0.0, nan_fraction=0.0)
        generate_synthetic_dataset(tmp_path, seed=1, count=1, height=16,
                                   width=16, channels=4, config=cfg)
        with pytest.raises(EmptyDatasetError):
            bench_sampling(tmp_path / "manifest.json", batch_size=8,
                           duration_seconds=1.0)

    def test_nonpositive_duration_rejected(self, small_dataset):
        # NaN and inf would never meet the time budget, so the call would hang
        for seconds in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                bench_sampling(small_dataset, batch_size=8, duration_seconds=seconds)


class TestMemoryBench:
    def test_probe_finds_the_package_without_pythonpath(self, tmp_path, monkeypatch):
        # the probe runs in fresh interpreters, which see only the environment
        cfg = SyntheticConfig(nan_fraction=0.0, label_density=0.3)
        for name, count in (("small", 1), ("large", 4)):
            generate_synthetic_dataset(tmp_path / name, seed=5, count=count, height=16,
                                       width=16, channels=4, config=cfg)
        monkeypatch.delenv("PYTHONPATH", raising=False)
        report = bench_memory(tmp_path / "small" / "manifest.json",
                              tmp_path / "large" / "manifest.json", batch_size=8)
        assert report.files_unchanged
        assert report.partial or report.mmap_peak_small_bytes > 0

    def test_probe_error_quotes_the_last_stderr_line(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(DustpipeError) as err:
            bench._run_probe(missing, "mmap", 8, 5, 0)
        # the line itself, not a list literal holding it
        message = str(err.value)
        assert message.startswith("memory probe (mmap) failed: FileNotFoundError: ")
        assert message.endswith(f"'{missing}'") and "\n" not in message

    def test_probe_error_says_when_stderr_is_empty(self, monkeypatch):
        monkeypatch.setattr(bench, "run_fresh",
                            lambda *args: subprocess.CompletedProcess(args, 3, "", ""))
        with pytest.raises(DustpipeError,
                           match=r"^memory probe \(full\) failed: exit status 3 and an empty "
                                 r"stderr$"):
            bench._run_probe("m.json", "full", 8, 5, 0)


class TestChecksums:
    def test_detects_modification(self, small_dataset):
        manifest = DatasetManifest.load(small_dataset)
        before = dataset_checksums(manifest)
        target = manifest.entries[0].granule
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        after = dataset_checksums(manifest)
        assert before != after
        changed = [k for k in before if before[k] != after[k]]
        assert changed == [str(target)]
