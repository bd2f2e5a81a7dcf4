"""Full-scene sliding inference producing per-pixel dust-probability maps.

Every interior pixel (at least half a patch away from each edge) gets the
eval-mode network output for the patch centered on it; the border band where
no full patch fits is a NaN sentinel rather than fabricated padding.  Pixels
go through ``predict``, whose output for a patch does not depend on how
patches are grouped into batches, so maps are bitwise identical for any
batch size.

Patches come from ``patch_index.patch_windows``, the strided view the
training gather also uses, one chunk of flat interior positions at a time.
No full-scene array is built besides the output map, so ``dustpipe infer``
reads the granule through a memory map.

Map container layout (little-endian): the label map's 2-D grid under its
own magic,

    b"DMP1" | u32 H | u32 W | H*W f32 row-major (NaN sentinel preserved)

An 8-bit ASCII PGM rendering (NaN -> 0, else round(v * 255)) is available
for eyeballing results without image libraries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyDatasetError, ShapeMismatchError
from .granule_io import Granule, LabelMap, normalize_label_values, read_grid, write_grid
from .model3d import ModelParams, predict
from .patch_index import patch_windows
from .training import MetricsReport, compute_metrics

MAP_MAGIC = b"DMP1"


@dataclass
class DetectionMap:
    """Dust probability per pixel; NaN marks the half-patch border band."""

    values: np.ndarray  # (H, W) float32


def infer_scene(params: ModelParams, granule: Granule,
                batch_size: int = 256) -> DetectionMap:
    """Slide the model over every interior pixel of a preprocessed granule.

    The granule must be finite in [0, 1] with the channel count the
    checkpoint was trained on; patches are the checkpoint's patch size.
    Patches are gathered in chunks of ``batch_size`` pixels; the result
    does not depend on it.
    """
    cfg = params.config
    p = cfg.patch_size
    data = granule.data
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if data.shape[0] != cfg.in_depth:
        raise ShapeMismatchError(
            f"granule has {data.shape[0]} channels, checkpoint expects {cfg.in_depth}"
        )
    # the one full-granule scan comes after the cheap checks; NaN fails
    # both comparisons
    if not (data.min() >= 0.0 and data.max() <= 1.0):
        raise ValueError("granule values not finite in [0, 1]; run preprocessing first")

    h = p // 2
    out = np.full(data.shape[1:], np.nan, dtype=np.float32)
    if min(out.shape) < p:
        return DetectionMap(out)

    windows = patch_windows(data, p)
    interior = out[h:out.shape[0] - h, h:out.shape[1] - h]
    for start in range(0, interior.size, batch_size):
        stop = min(start + batch_size, interior.size)
        ys, xs = np.divmod(np.arange(start, stop), interior.shape[1])
        interior[ys, xs] = predict(params, windows[ys, xs])
    return DetectionMap(out)


def write_map(dmap: DetectionMap, path: str | Path) -> None:
    if np.ndim(dmap.values) != 2:
        raise ShapeMismatchError(f"detection map must be 2-D, got {np.shape(dmap.values)}")
    write_grid(path, MAP_MAGIC, dmap.values)


def read_map(path: str | Path) -> DetectionMap:
    return DetectionMap(read_grid(path, MAP_MAGIC))


def write_pgm(dmap: DetectionMap, path: str | Path) -> None:
    """ASCII PGM rendering: NaN -> 0, finite v -> round(v * 255)."""
    values = dmap.values
    grey = np.where(np.isfinite(values), np.rint(values * 255.0), 0.0)
    grey = grey.astype(np.int64)
    lines = [f"P2\n{values.shape[1]} {values.shape[0]}\n255\n"]
    for row in grey:
        lines.append(" ".join(str(v) for v in row) + "\n")
    with open(path, "w", encoding="ascii") as f:
        f.writelines(lines)


@dataclass
class ScoreReport:
    """Detection-map quality overall and split by label-edge proximity.

    Boundary pixels are those whose label-gradient magnitude exceeds the
    threshold (plume edges); the rest are core.  Pixels with an undefined
    gradient (NaN neighbors) count as core.  A band's report is None when
    the band is empty.
    """

    overall: MetricsReport
    boundary: MetricsReport | None
    core: MetricsReport | None
    gradient_threshold: float


def score_map(dmap: DetectionMap, labels: LabelMap, alpha: float = 1.0,
              gradient_threshold: float = 0.05) -> ScoreReport:
    """Metrics over pixels where both the map and the labels are finite."""
    if dmap.values.shape != labels.values.shape:
        raise ShapeMismatchError(
            f"map {dmap.values.shape} vs labels {labels.values.shape}"
        )
    truth = normalize_label_values(labels.values)
    valid = np.isfinite(dmap.values) & np.isfinite(truth)
    if not valid.any():
        raise EmptyDatasetError("no overlapping finite pixels between map and labels")

    overall = compute_metrics(dmap.values[valid], truth[valid], alpha)
    gy, gx = np.gradient(truth.astype(np.float64))
    with np.errstate(invalid="ignore"):
        edge = np.hypot(gy, gx) > gradient_threshold
    boundary_mask = valid & edge
    core_mask = valid & ~edge
    boundary = (compute_metrics(dmap.values[boundary_mask], truth[boundary_mask], alpha)
                if boundary_mask.any() else None)
    core = (compute_metrics(dmap.values[core_mask], truth[core_mask], alpha)
            if core_mask.any() else None)
    return ScoreReport(overall=overall, boundary=boundary, core=core,
                       gradient_threshold=gradient_threshold)
