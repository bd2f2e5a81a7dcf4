"""Per-band min-max normalization and deterministic local NaN imputation.

The pipeline normalizes first (so imputation draws live in [0, 1]) and then
fills every NaN from the pre-imputation band: a uniform draw between the
finite min and max within ``impute_window`` rows in the same column and band.
Those window extrema come from a sparse table: log2 of the window's height
passes of ``np.minimum`` / ``np.maximum`` over row-shifted views that are
contiguous within each band.  The two steps run as two passes, each with
its own output, and neither makes a masked copy nor indexes with a 3-D
boolean mask.  Normalization is one ``normalize_planes`` call over a copy of
the whole granule: its band extrema are NaN-skipping ``np.fmin`` /
``np.fmax`` reductions, and its temporaries are per-band vectors.
Imputation alone works over slabs of consecutive bands on its output copy:
it lists each slab's holes once as flat indices, gathers with ``take`` and
writes with ``np.put``.  The draws are those of one generator per granule
read in band order: each slab with a hole seeds its own generator and
advances it past the draws of the bands before it, so the bytes depend
neither on the slab size nor on which worker ran a slab.  A granule of more
than one slab is imputed on one worker thread per usable core (the CPU
affinity mask, at most ``_MAX_WORKERS``); worker k takes slabs k, k+n, ...
and copies each from the input into the output before filling it there.  A
granule of one slab runs inline, with no pool.
"""

from __future__ import annotations

import logging
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .granule_io import (DatasetManifest, Granule, ManifestEntry, normalize_planes,
                         read_granule, write_granule)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PreprocessConfig:
    impute_window: int = 5  # scan distance above/below, in rows
    rng_seed: int = 0

    def __post_init__(self):
        if self.impute_window < 1:
            raise ValueError(f"impute_window must be >= 1, got {self.impute_window}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


SLAB_BYTES = 1 << 20
# A worker's scratch arrays take about 4.3x its slab, so four of them stay
# within half a granule of 38 one-band slabs; more cores go unused.
_MAX_WORKERS = 4


def _usable_cores() -> int:
    """CPUs this process may run on: its CPU affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_plan(data: np.ndarray) -> tuple[range, int, int]:
    """(first band of each slab, bands per slab, workers) for ``data``.

    Each slab is at most SLAB_BYTES or one band: a small granule is one slab,
    as a call per band costs ~1 ms per 38x30x30 granule, and a large one's
    temporaries stay small.  One slab runs inline; more run on one worker per
    usable core, at most one per slab and at most ``_MAX_WORKERS``."""
    size = max(1, SLAB_BYTES * len(data) // max(1, data.nbytes))
    firsts = range(0, len(data), size)
    workers = 1 if len(firsts) < 2 else min(_usable_cores(), len(firsts), _MAX_WORKERS)
    return firsts, size, workers


def _on_workers(work, workers: int) -> None:
    """``work(k)`` for each k in ``range(workers)``: inline for one worker,
    else on one thread each.  The first worker exception, in worker order,
    reaches the caller once every worker has stopped.  numpy releases the GIL
    in ``_impute_slab``'s large array calls, so the threads overlap."""
    if workers == 1:
        work(0)
        return
    from concurrent.futures import ThreadPoolExecutor  # only multi-slab calls import it
    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(work, k) for k in range(workers)]:
            future.result()


def normalize_bands(granule: Granule) -> Granule:
    """Scale each band to [0, 1] by its own finite min/max
    (``granule_io.normalize_planes``, one call over a copy of the granule).

    NaN passes through.  A constant band maps to all zeros.  A band with no
    finite value at all (only NaN and +-inf) is left as it is (logged once,
    in band order; imputation fills its holes with zero downstream).  It
    starts no thread: the pass is bound by memory traffic, and a second
    worker made it slower.
    """
    out = np.empty(granule.data.shape, granule.data.dtype)
    np.copyto(out, granule.data)
    empty = np.flatnonzero(normalize_planes(out)).tolist()
    if empty:
        log.warning("bands with no finite values left as they are: %s", empty)
    return Granule(out)


def _column_window(op, pad, slab: np.ndarray, pos: np.ndarray, w: int,
                   a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``op`` (``np.minimum`` or ``np.maximum``) over rows y-w..y+w of column
    x of band c, for each hole (c, y, x) of the slab, with holes and rows off
    the image reading ``pad``.  ``a`` and ``b`` are scratch buffers with 2w
    more rows per band than the slab, and ``pos`` is each hole's flat index
    at row y of its band in them.

    A sparse table (Bender & Farach-Colton 2000): after k passes, row i of the
    padded buffer holds ``op`` over rows i..i+2^k-1, and two overlapping
    blocks of the largest such span cover the 2w+1 rows, so the last ``op``
    reads just the two blocks of each hole.  Each pass is one ufunc call over
    row-shifted views that are contiguous within a band, so the work is about
    log2(2w+1) sweeps of the slab.  Min and max are exact, so the result
    equals a direct window scan.
    """
    h, width = slab.shape[1:]
    span = 2 * w + 1
    a[:, :w] = pad
    a[:, w + h:] = pad
    np.copyto(a[:, w:w + h], slab)
    np.put(a, pos + w * width, pad)
    rows, s = h + 2 * w, 1  # rows of a that hold a full block of s
    while 2 * s <= span:
        op(a[:, :rows - s], a[:, s:rows], out=b[:, :rows - s])
        a, b = b, a
        rows -= s
        s *= 2
    return op(a.take(pos), a.take(pos + (span - s) * width))


def _scratch(data: np.ndarray, size: int, w: int, workers: int) -> list[tuple]:
    """Each worker's scratch arrays for slabs of up to ``size`` bands of
    ``data``: the hole mask, the float64 draws and two window buffers with 2w
    more rows per band.  The calling thread allocates them, since an array
    allocated in a worker thread grows that thread's own malloc arena."""
    bands, h, width = data.shape
    shape = (min(size, bands), h, width)
    padded = (shape[0], h + 2 * w, width)
    return [(np.empty(shape, bool), np.empty(shape), np.empty(padded, data.dtype),
             np.empty(padded, data.dtype)) for _ in range(workers)]


def _impute_slab(slab: np.ndarray, first: int, space: tuple, w: int, key: tuple) -> None:
    """Fill the holes of ``slab``, bands ``first``... of the granule, in
    place, with a worker's ``_scratch`` arrays; ``key`` seeds the generator."""
    holes, draws, a, b = (x[:len(slab)] for x in space)
    np.isfinite(slab, out=holes)
    np.logical_not(holes, out=holes)
    at = np.flatnonzero(holes)  # C order: band by band, row by row
    if not at.size:
        return
    rng = np.random.default_rng(key)
    # random() takes one 64-bit step per double, so this is where one stream
    # drawn over the whole granule in band order reaches this slab
    rng.bit_generator.advance(first * slab[0].size)
    rng.random(out=draws)
    h, width = slab.shape[1:]
    pos = at + at // (h * width) * 2 * w * width
    lo = _column_window(np.minimum, np.inf, slab, pos, w, a, b)
    hi = _column_window(np.maximum, -np.inf, slab, pos, w, a, b)
    with np.errstate(invalid="ignore"):  # per thread, so set in the step
        # inf arithmetic at no-neighbor positions is replaced below
        fill = (lo.astype(np.float64) + draws.take(at) * (hi - lo).astype(np.float64))
        fill = fill.astype(np.float32)
    orphan = ~np.isfinite(lo)
    if orphan.any():
        band = at[orphan] // slab[0].size
        # only the bands that hold an orphan, each reduced over its own
        # H x W block as a whole-slab mean reduces it; an all-NaN band's
        # mean stays zero
        picked = np.unique(band)
        picked = picked[~holes[picked].all(axis=(1, 2))]
        band_mean = np.zeros(len(slab), dtype=np.float32)
        band_mean[picked] = np.nanmean(np.where(holes[picked], np.nan, slab[picked]),
                                       axis=(1, 2))
        fill[orphan] = band_mean[band]
    np.put(slab, at, fill)


def impute_granule(granule: Granule, cfg: PreprocessConfig,
                   folder_index: int = 0) -> Granule:
    """Replace every NaN with a uniform draw from its column window.

    For a NaN at (c, y, x) the draw is uniform over [m, M], the finite min/max
    of rows y-w..y+w (clamped to the image) in column x of band c, taken from
    the pre-imputation band so fills never cascade.  Windows with no finite
    neighbor fall back to the band mean; a band with no finite value at all
    becomes zero.  The draw for a position is a pure function of
    (rng_seed, folder_index, granule shape, c, y, x), whatever the slab size
    and the number of workers.  That number follows the CPU affinity mask (at
    most ``_MAX_WORKERS``) and is not settable.

    m and M come from ``_column_window``: log-doubling passes of
    ``np.minimum`` / ``np.maximum`` over row-shifted, band-contiguous views
    of the padded slab, in place of a sliding filter that walks each column
    at the row stride.  The holes are listed once per slab as C-order flat
    indices, band by band; m, M and the draws are gathered at them with
    ``take`` and the fill is written with ``np.put``, which index any layout
    in C order.  The band-mean fallback masks and reduces only the bands
    that hold an orphan hole, not the whole slab.

    This is the module's one slab loop.  The output, then each worker's
    ``_scratch`` arrays, are allocated once per call in the calling thread;
    worker k copies slabs k, k+n, ... of the input into the output and fills
    each there (``_slab_plan``, ``_on_workers``).
    """
    data = granule.data
    w = max(0, min(cfg.impute_window, data.shape[1] - 1))  # taller spans the column
    key = (int(cfg.rng_seed), int(folder_index))
    out = np.empty(data.shape, data.dtype)
    firsts, size, workers = _slab_plan(data)
    spaces = _scratch(data, size, w, workers)

    def work(k):
        for first in firsts[k::workers]:
            slab = out[first:first + size]
            np.copyto(slab, data[first:first + size])
            _impute_slab(slab, first, spaces[k], w, key)

    _on_workers(work, workers)
    return Granule(out)


def preprocess_pipeline(granule: Granule, cfg: PreprocessConfig,
                        folder_index: int = 0) -> Granule:
    """normalize_bands then impute_granule; output is finite and in [0, 1]."""
    return impute_granule(normalize_bands(granule), cfg, folder_index)


def preprocess_dataset(manifest: DatasetManifest, out_dir: str | Path,
                       cfg: PreprocessConfig) -> DatasetManifest:
    """Preprocess every granule of a manifest into ``out_dir``.

    Each granule keeps its file name and is keyed by its folder index for
    imputation; label files are copied verbatim.  Writes and returns the
    new ``manifest.json``.  Before writing anything, raises ``FormatError``
    if two outputs share a path or an output is an input of the manifest.
    """
    out_dir = Path(out_dir)
    out = DatasetManifest([ManifestEntry(granule=out_dir / Path(e.granule).name,
                                         labels=out_dir / Path(e.labels).name)
                           for e in manifest])
    taken = {Path(p).resolve() for e in manifest for p in (e.granule, e.labels)}
    for path in (p for e in out for p in (e.granule, e.labels)):
        if path.resolve() in taken:
            raise FormatError(f"{path}: output would overwrite an input or another output")
        taken.add(path.resolve())
    out_dir.mkdir(parents=True, exist_ok=True)
    for f, (entry, target) in enumerate(zip(manifest, out)):
        processed = preprocess_pipeline(read_granule(entry.granule), cfg, folder_index=f)
        write_granule(processed, target.granule)
        shutil.copyfile(entry.labels, target.labels)
    out.save(out_dir / "manifest.json")
    return out
