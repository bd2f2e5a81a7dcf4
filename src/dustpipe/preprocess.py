"""Per-band min-max normalization and deterministic local NaN imputation.

The pipeline normalizes first (so imputation draws live in [0, 1]) and then
fills every NaN from the pre-imputation band: a uniform draw between the
finite min and max within ``impute_window`` rows in the same column and band.
Those window extrema come from a sparse table: log2 of the window's height
passes of ``np.minimum`` / ``np.maximum`` over row-shifted views that are
contiguous within each band.  Both steps run over slabs of consecutive bands
on the output copy, and neither makes a masked copy of a slab nor indexes
with a 3-D boolean mask: band extrema are NaN-skipping ``np.fmin`` /
``np.fmax`` reductions, and imputation lists each slab's holes once as flat
indices, gathers with ``take`` and writes with ``np.put``.  Draws come from
one generator per granule in band order, as one (C, H, W) draw.
"""

from __future__ import annotations

import logging
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


def _slabs(data: np.ndarray):
    """(first band, view) pairs covering the bands in order, each at most
    SLAB_BYTES or one band: a small granule is one slab, as a call per band
    costs ~1 ms per 38x30x30 granule, and a large one's temporaries stay small."""
    step = max(1, SLAB_BYTES * len(data) // max(1, data.nbytes))
    return ((c, data[c:c + step]) for c in range(0, len(data), step))


def normalize_bands(granule: Granule) -> Granule:
    """Scale each band to [0, 1] by its own finite min/max
    (``granule_io.normalize_planes``, one slab of bands at a time).

    NaN passes through.  A constant band maps to all zeros.  A band with no
    finite value at all (only NaN and +-inf) is left as it is (logged;
    imputation fills its holes with zero downstream).
    """
    out = granule.data.copy()
    empty = []
    for first, slab in _slabs(out):
        empty += (first + np.flatnonzero(normalize_planes(slab))).tolist()
    if empty:
        log.warning("bands with no finite values left as they are: %s", empty)
    return Granule(out)


def _column_window(op, pad, slab: np.ndarray, at: np.ndarray, w: int) -> np.ndarray:
    """``op`` (``np.minimum`` or ``np.maximum``) over rows y-w..y+w of every
    column of every band, with the holes at flat indices ``at`` of the slab
    and rows off the image reading ``pad``.

    A sparse table (Bender & Farach-Colton 2000): after k passes, row i of the
    padded buffer holds ``op`` over rows i..i+2^k-1, and two overlapping
    blocks of the largest such span cover the 2w+1 rows.  Each pass is one
    ufunc call over row-shifted views that are contiguous within a band, so
    the work is about log2(2w+1) sweeps of the slab.  Min and max are exact,
    so the result equals a direct window scan.  The padded buffer has 2w more
    rows per band than the slab, so hole (c, y, x) sits at flat index
    ``at + (c * 2w + w) * W`` of it and the pad goes in with one flat put.
    """
    bands, h, width = slab.shape
    w = min(w, h - 1)  # a taller window already spans the whole column
    span = 2 * w + 1
    a = np.empty((bands, h + 2 * w, width), dtype=slab.dtype)
    a[:, :w] = pad
    a[:, w + h:] = pad
    np.copyto(a[:, w:w + h], slab)
    np.put(a, at + (at // (h * width) * 2 * w + w) * width, pad)
    b = np.empty_like(a)
    rows, s = h + 2 * w, 1  # rows of a that hold a full block of s
    while 2 * s <= span:
        op(a[:, :rows - s], a[:, s:rows], out=b[:, :rows - s])
        a, b = b, a
        rows -= s
        s *= 2
    return op(a[:, :h], a[:, span - s:span - s + h])


def impute_granule(granule: Granule, cfg: PreprocessConfig,
                   folder_index: int = 0) -> Granule:
    """Replace every NaN with a uniform draw from its column window.

    For a NaN at (c, y, x) the draw is uniform over [m, M], the finite min/max
    of rows y-w..y+w (clamped to the image) in column x of band c, taken from
    the pre-imputation band so fills never cascade.  Windows with no finite
    neighbor fall back to the band mean; a band with no finite value at all
    becomes zero.  The draw for a position is a pure function of
    (rng_seed, folder_index, granule shape, c, y, x).

    m and M come from ``_column_window``: log-doubling passes of
    ``np.minimum`` / ``np.maximum`` over row-shifted, band-contiguous views
    of the padded slab, in place of a sliding filter that walks each column
    at the row stride.  The holes are listed once per slab as C-order flat
    indices, band by band; m, M and the draws are gathered at them with
    ``take`` and the fill is written with ``np.put``, which index any layout
    in C order.  The band-mean fallback masks and reduces only the bands
    that hold an orphan hole, not the whole slab.
    """
    data = granule.data.copy()
    rng = np.random.default_rng((int(cfg.rng_seed), int(folder_index)))
    for _, slab in _slabs(data):
        holes = ~np.isfinite(slab)
        at = np.flatnonzero(holes)  # C order: band by band, row by row
        if not at.size:
            # as if drawn (one 64-bit step per double), to keep later bands' draws
            rng.bit_generator.advance(slab.size)
            continue
        draws = rng.random(slab.shape)
        lo = _column_window(np.minimum, np.inf, slab, at, cfg.impute_window).take(at)
        hi = _column_window(np.maximum, -np.inf, slab, at, cfg.impute_window).take(at)
        with np.errstate(invalid="ignore"):
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
    return Granule(data)


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
