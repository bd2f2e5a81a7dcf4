"""Benchmarks for the two performance claims behind the indexed mmap
data path: resident memory decoupled from dataset size, and higher
sampling throughput than per-batch mask scanning.

Peak resident memory is a process-lifetime high-water mark, so every
measurement runs in a fresh interpreter that reports its own ``ru_maxrss``.
The streaming path advises the kernel to drop a file's mapped pages as
soon as a batch gather leaves it, which is what keeps a long epoch's
footprint near the batch size instead of the dataset size.  Benchmarks
never modify dataset files; checksums are verified before and after.

``run_fresh`` starts every such interpreter, behind a thin relay, and the
memory benchmark's probe (``_probe``) is a function that it calls there.
The test suite's peak-RSS bounds use the same runner.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DustpipeError, EmptyDatasetError
from .granule_io import DatasetManifest, require_seed
from .patch_index import (
    GranuleStore,
    batch_footprint_bytes,
    naive_sample_batches,
    require_batch_size,
    sample_batches,
)

try:
    import resource  # presence gates RSS accounting

    _HAVE_RUSAGE = True
except ImportError:  # non-Unix platform
    _HAVE_RUSAGE = False

# allowance over one batch footprint for the mmap path's peak-RSS growth
DEFAULT_SLACK_BYTES = 64 * 1024 * 1024


def dataset_checksums(manifest: DatasetManifest) -> dict[str, str]:
    # imported here: hashlib maps OpenSSL (about 3.6 MB resident), and
    # every CLI command imports this module for its flag table
    import hashlib

    out = {}
    for p in (Path(path) for e in manifest for path in (e.granule, e.labels)):
        digest = hashlib.sha256()
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        out[str(p)] = digest.hexdigest()
    return out


def available_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return None


# ---------------------------------------------------------------------------
# Memory decoupling
# ---------------------------------------------------------------------------


# ru_maxrss of a new process starts at the forking parent's resident size,
# so a child started straight from a large caller would report the caller's
# footprint.  A thin stdlib-only relay process, whose own child inherits its
# output, isolates it.
_RELAY = "import subprocess, sys; sys.exit(subprocess.call([sys.executable] + sys.argv[1:]))"


def _src_env() -> dict[str, str]:
    """This process's environment with the ``src`` directory that holds
    this package first on PYTHONPATH, so a child interpreter imports this
    copy whether or not it is installed."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter behind the thin relay,
    with this package's ``src`` first on PYTHONPATH, and return the
    finished process with its output captured as text.  The child's
    ``ru_maxrss`` starts from the small relay, not from the caller."""
    return subprocess.run([sys.executable, "-c", _RELAY, *args], capture_output=True,
                          text=True, env=_src_env())


def _probe(manifest_path: str, mode: str, batch_size: int, patch_size: int,
           seed: int) -> None:
    """Stream one epoch over a manifest (``mode`` "mmap" or "full") and print
    this process's peak RSS and what it read as JSON: the call that
    ``_run_probe`` runs in a fresh interpreter."""
    manifest = DatasetManifest.load(manifest_path)
    store = GranuleStore(manifest, use_mmap=(mode == "mmap"),
                         release_after_gather=(mode == "mmap"))
    index = store.index(patch_size)
    touched = 0.0
    batches = 0
    samples = 0
    for batch in sample_batches(index, store, batch_size, seed, partitions=1):
        touched += float(batch.inputs.ravel()[0])
        batches += 1
        samples += len(batch.targets)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "peak_bytes": int(peak_kib) * 1024,
        "payload_bytes": store.payload_bytes,
        "batches": batches,
        "samples": samples,
        "touched": touched,
    }))


def _run_probe(manifest_path: str | Path, mode: str, batch_size: int,
               patch_size: int, seed: int) -> dict:
    """Stream one epoch in a fresh interpreter and collect its peak RSS."""
    call = f"_probe({str(manifest_path)!r}, {mode!r}, {batch_size}, {patch_size}, {seed})"
    proc = run_fresh("-c", "from dustpipe.bench import _probe; " + call)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        reason = lines[-1] if lines else f"exit status {proc.returncode} and an empty stderr"
        raise DustpipeError(f"memory probe ({mode}) failed: {reason}")
    return json.loads(proc.stdout)


@dataclass
class MemoryBenchReport:
    batch_size: int
    patch_size: int
    channels: int
    r_batch_bytes: int
    slack_bytes: int
    small_payload_bytes: int
    large_payload_bytes: int
    available_memory_bytes: int | None
    mmap_peak_small_bytes: int
    mmap_peak_large_bytes: int
    full_peak_small_bytes: int
    full_peak_large_bytes: int
    mmap_growth_bytes: int
    full_growth_bytes: int
    r_overhead_estimate_bytes: int
    mmap_decoupled: bool
    full_load_scales: bool
    files_unchanged: bool
    partial: bool = False
    notes: list[str] = field(default_factory=list)


def bench_memory(manifest_small: str | Path, manifest_large: str | Path,
                 batch_size: int = 256, patch_size: int = 5,
                 seed: int = 0) -> MemoryBenchReport:
    """Peak-RSS comparison of mmap streaming vs full loading.

    Streams one epoch over each manifest via the mmap path and the full-load
    path, each in a fresh subprocess.  The mmap path's peak should grow by
    less than one batch footprint plus ``DEFAULT_SLACK_BYTES`` when the
    dataset quadruples; the full-load path's peak should grow by at least
    the added payload.  A ``batch_size`` below 1 or a negative ``seed`` is
    refused before any checksum is taken or any probe starts.
    """
    require_batch_size(batch_size)
    require_seed(seed)
    small = DatasetManifest.load(manifest_small)
    large = DatasetManifest.load(manifest_large)
    before = dataset_checksums(small) | dataset_checksums(large)

    with closing(GranuleStore(small)) as store_small, closing(GranuleStore(large)) as store_large:
        channels, small_payload = store_small.channels, store_small.payload_bytes
        large_payload = store_large.payload_bytes
    if large_payload < 4 * small_payload:
        raise ValueError(
            f"large manifest ({large_payload} B) must be >= 4x the small one "
            f"({small_payload} B)"
        )

    r_batch = batch_footprint_bytes(batch_size, channels, patch_size)
    peak = {}
    for mode in ("mmap", "full"):
        for size, path in (("small", manifest_small), ("large", manifest_large)):
            # without resident-memory accounting every measured field reads 0
            peak[mode, size] = (_run_probe(path, mode, batch_size, patch_size, seed)["peak_bytes"]
                                if _HAVE_RUSAGE else 0)
    mmap_growth = peak["mmap", "large"] - peak["mmap", "small"]
    full_growth = peak["full", "large"] - peak["full", "small"]

    return MemoryBenchReport(
        batch_size=batch_size,
        patch_size=patch_size,
        channels=channels,
        r_batch_bytes=r_batch,
        slack_bytes=DEFAULT_SLACK_BYTES,
        small_payload_bytes=small_payload,
        large_payload_bytes=large_payload,
        available_memory_bytes=available_memory_bytes(),
        mmap_peak_small_bytes=peak["mmap", "small"],
        mmap_peak_large_bytes=peak["mmap", "large"],
        full_peak_small_bytes=peak["full", "small"],
        full_peak_large_bytes=peak["full", "large"],
        mmap_growth_bytes=mmap_growth,
        full_growth_bytes=full_growth,
        r_overhead_estimate_bytes=peak["mmap", "small"] - r_batch if _HAVE_RUSAGE else 0,
        mmap_decoupled=_HAVE_RUSAGE and mmap_growth < r_batch + DEFAULT_SLACK_BYTES,
        full_load_scales=_HAVE_RUSAGE and full_growth >= large_payload - small_payload,
        files_unchanged=dataset_checksums(small) | dataset_checksums(large) == before,
        partial=not _HAVE_RUSAGE,
        notes=[] if _HAVE_RUSAGE else ["resident-memory accounting unavailable on this "
                                       "platform; assertions skipped"],
    )


# ---------------------------------------------------------------------------
# Sampling throughput
# ---------------------------------------------------------------------------


@dataclass
class SamplingBenchReport:
    batch_size: int
    seed: int
    requested_seconds: float
    n_triplets: int
    indexed_batches_per_sec: float
    naive_batches_per_sec: float
    indexed_seconds_per_epoch: float
    naive_seconds_per_epoch: float
    speedup_ratio: float
    indexed_epochs: int
    naive_epochs: int
    multisets_equal: bool
    files_unchanged: bool


def _time_epochs(make_iter, min_seconds: float):
    """Run whole epochs (at least one) until the time budget is spent."""
    batches = 0
    epochs = 0
    first_epoch_triplets = None
    t0 = time.perf_counter()
    while True:
        collected = [] if first_epoch_triplets is None else None
        for batch in make_iter():
            batches += 1
            if collected is not None:
                collected.append(batch.triplets)
        epochs += 1
        if collected is not None:
            first_epoch_triplets = (np.vstack(collected) if collected
                                    else np.empty((0, 3), dtype=np.int64))
        if time.perf_counter() - t0 >= min_seconds:
            break
    elapsed = time.perf_counter() - t0
    return batches / elapsed, elapsed / epochs, epochs, first_epoch_triplets


def _sorted_rows(triplets: np.ndarray) -> np.ndarray:
    order = np.lexsort((triplets[:, 2], triplets[:, 1], triplets[:, 0]))
    return triplets[order]


def bench_sampling(manifest: str | Path | DatasetManifest, batch_size: int = 256,
                   seed: int = 0, duration_seconds: float = 10.0,
                   patch_size: int = 5) -> SamplingBenchReport:
    """Throughput of precomputed-index sampling vs per-batch mask scanning.

    Both paths stream identical data from the same store; whole epochs are
    repeated until each side has consumed half the time budget (at least one
    epoch each, so the per-epoch triplet multisets can be compared).  A bad
    ``duration_seconds``, ``batch_size`` or ``seed`` is refused before
    anything is read.
    """
    if not (math.isfinite(duration_seconds) and duration_seconds > 0):
        # NaN passes a plain <= 0 check, and the epoch loop would never stop
        raise ValueError(f"duration_seconds must be finite and positive, got {duration_seconds}")
    require_batch_size(batch_size)
    require_seed(seed)
    if not isinstance(manifest, DatasetManifest):
        manifest = DatasetManifest.load(manifest)
    before = dataset_checksums(manifest)
    with closing(GranuleStore(manifest)) as store:
        index = store.index(patch_size)
        if len(index) == 0:
            raise EmptyDatasetError("no valid patch centers in this manifest")
        half = duration_seconds / 2.0
        indexed_rate, indexed_epoch_s, indexed_epochs, indexed_triplets = _time_epochs(
            lambda: sample_batches(index, store, batch_size, seed, partitions=1), half)
        naive_rate, naive_epoch_s, naive_epochs, naive_triplets = _time_epochs(
            lambda: naive_sample_batches(store, patch_size, batch_size, seed), half)

    multisets_equal = bool(np.array_equal(_sorted_rows(indexed_triplets),
                                          _sorted_rows(naive_triplets)))
    return SamplingBenchReport(
        batch_size=batch_size,
        seed=seed,
        requested_seconds=duration_seconds,
        n_triplets=len(index),
        indexed_batches_per_sec=indexed_rate,
        naive_batches_per_sec=naive_rate,
        indexed_seconds_per_epoch=indexed_epoch_s,
        naive_seconds_per_epoch=naive_epoch_s,
        speedup_ratio=indexed_rate / naive_rate if naive_rate > 0 else float("inf"),
        indexed_epochs=indexed_epochs,
        naive_epochs=naive_epochs,
        multisets_equal=multisets_equal,
        files_unchanged=dataset_checksums(manifest) == before,
    )

