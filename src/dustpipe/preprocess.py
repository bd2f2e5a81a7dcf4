"""Per-band min-max normalization and deterministic local NaN imputation.

The pipeline normalizes first (so imputation draws live in [0, 1]) and then
fills every NaN from the pre-imputation snapshot: a uniform draw between the
finite min and max found within ``impute_window`` rows above and below in the
same column of the same band.  Draws are keyed by position, not by traversal
order, so the result is byte-identical regardless of scheduling.
"""

from __future__ import annotations

import logging
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .granule_io import DatasetManifest, Granule, ManifestEntry, read_granule, write_granule

log = logging.getLogger(__name__)

FALLBACK_BAND_MEAN = "band-mean"
FALLBACK_ZERO = "zero"


@dataclass(frozen=True)
class PreprocessConfig:
    impute_window: int = 5  # scan distance above/below, in rows
    rng_seed: int = 0
    fallback: str = FALLBACK_BAND_MEAN

    def __post_init__(self):
        if self.impute_window < 1:
            raise ValueError("impute_window must be >= 1")
        if self.fallback not in (FALLBACK_BAND_MEAN, FALLBACK_ZERO):
            raise ValueError(f"unknown fallback policy {self.fallback!r}")


def normalize_bands(granule: Granule) -> Granule:
    """Scale each band to [0, 1] by its own finite min/max.

    NaN passes through.  A constant band maps to all zeros.  A band with no
    finite value at all is left all-NaN (logged; imputation fallback will
    resolve it downstream).
    """
    data = granule.data
    finite = np.isfinite(data)
    per_band_any = finite.any(axis=(1, 2))

    lo = np.full(data.shape[0], np.nan, dtype=np.float32)
    hi = np.full(data.shape[0], np.nan, dtype=np.float32)
    masked_lo = np.where(finite, data, np.float32(np.inf))
    masked_hi = np.where(finite, data, np.float32(-np.inf))
    lo[per_band_any] = masked_lo.min(axis=(1, 2))[per_band_any]
    hi[per_band_any] = masked_hi.max(axis=(1, 2))[per_band_any]

    out = data.copy()
    span = hi - lo
    for c in np.nonzero(per_band_any)[0]:
        if span[c] > 0:
            out[c] = (data[c] - lo[c]) / span[c]
        else:
            band = out[c]
            band[finite[c]] = 0.0
    if not per_band_any.all():
        log.warning("bands with no finite values left all-NaN: %s",
                    np.nonzero(~per_band_any)[0].tolist())
    return Granule(out)


def impute_granule(granule: Granule, cfg: PreprocessConfig,
                   folder_index: int = 0) -> Granule:
    """Replace every NaN with a positional uniform draw from its column window.

    For a NaN at (c, y, x) the draw is uniform over [m, M], the finite min/max
    of rows y-w..y+w (clamped to the image) in column x of band c, taken from
    the pre-imputation snapshot so fills never cascade.  Windows with no
    finite neighbor fall back to the band mean (or zero, per config); a band
    with no finite value at all becomes zero.  The draw for a position is a
    pure function of (rng_seed, folder_index, granule shape, c, y, x).
    """
    data = granule.data.copy()
    nan_mask = ~np.isfinite(data)
    if not nan_mask.any():
        return Granule(data)

    size = 2 * cfg.impute_window + 1
    lo = minimum_filter1d(np.where(nan_mask, np.float32(np.inf), data),
                          size=size, axis=1, mode="constant", cval=np.inf)
    hi = maximum_filter1d(np.where(nan_mask, np.float32(-np.inf), data),
                          size=size, axis=1, mode="constant", cval=-np.inf)

    draws = np.random.default_rng((int(cfg.rng_seed), int(folder_index))) \
        .random(data.shape)
    no_neighbor = ~np.isfinite(lo)

    with np.errstate(invalid="ignore"):
        # inf arithmetic at no-neighbor positions is discarded below
        fill = (lo.astype(np.float64) + draws * (hi - lo).astype(np.float64))
        fill = fill.astype(np.float32)
    data[nan_mask] = fill[nan_mask]

    orphan = nan_mask & no_neighbor
    if orphan.any():
        if cfg.fallback == FALLBACK_BAND_MEAN:
            snapshot = np.where(nan_mask, np.nan, granule.data)
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN bands
                band_mean = np.nanmean(snapshot, axis=(1, 2))
            band_mean = np.nan_to_num(band_mean, nan=0.0).astype(np.float32)
        else:
            band_mean = np.zeros(data.shape[0], dtype=np.float32)
        fallback_volume = np.broadcast_to(band_mean[:, None, None], data.shape)
        data[orphan] = fallback_volume[orphan]

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
    new ``manifest.json``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for f, entry in enumerate(manifest):
        processed = preprocess_pipeline(read_granule(entry.granule), cfg, folder_index=f)
        gpath = out_dir / Path(entry.granule).name
        lpath = out_dir / Path(entry.labels).name
        write_granule(processed, gpath)
        shutil.copyfile(entry.labels, lpath)
        entries.append(ManifestEntry(granule=gpath, labels=lpath))
    out = DatasetManifest(entries)
    out.save(out_dir / "manifest.json")
    return out
