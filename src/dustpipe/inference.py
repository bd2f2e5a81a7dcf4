"""Full-scene sliding inference producing per-pixel dust-probability maps.

Every interior pixel (at least half a patch away from each edge) gets the
eval-mode network output for the patch centered on it; the border band where
no full patch fits is a NaN sentinel rather than fabricated padding.

The map is ``model3d.predict_scene`` over the whole granule, the predictor
that evaluation and validation run too (see ``training._predict_index``).
It covers the interior in 2-D tiles of at most ``model3d.EVAL_TILE``
pixels, each read as one slab of the granule, its pixels plus a halo of
P - 1 rows and cols, computes block one once per slab position and class
instead of once per patch, then runs blocks two and three as one GEMM per
conv over the tile.  A pixel's value is bitwise the same as a lone
``predict`` call on its patch, so maps do not depend on the tiling or the
batch size, wherever the BLAS gives a GEMM row the same bits at every tile
size (see ``model3d.predict``; the test suite checks it for the
architectures it covers).  Nothing the size of the granule is built, only
(H, W) maps, so ``dustpipe infer`` reads the granule through a memory map.

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
from .granule_io import Granule, LabelMap, normalize_label_values, publish, read_grid, write_grid
from .model3d import EVAL_TILE, ModelParams, admit_granule, predict_scene
from .patch_index import require_batch_size
from .training import MetricsReport, compute_metrics

MAP_MAGIC = b"DMP1"
# score_map counts a pixel as boundary (a plume edge) where the label
# gradient magnitude exceeds this, in normalized label units per pixel
EDGE_GRADIENT_THRESHOLD = 0.05


@dataclass
class DetectionMap:
    """Dust probability per pixel; NaN marks the half-patch border band."""

    values: np.ndarray  # (H, W) float32


def infer_scene(params: ModelParams, granule: Granule,
                batch_size: int = EVAL_TILE) -> DetectionMap:
    """Slide the model over every interior pixel of a preprocessed granule.

    ``batch_size`` is checked first, then the granule passes
    ``model3d.admit_granule`` under the name ``granule``: the channel count
    the checkpoint was trained on, then every value finite in [0, 1], once,
    before any tile runs.  Patches are the checkpoint's patch size.  Tiles
    hold at most ``batch_size`` pixels (see ``model3d.tile_shape``); the
    result does not depend on it on a BLAS that gives a GEMM row the same
    bits at every tile size (see ``model3d.predict``).
    """
    require_batch_size(batch_size)
    admit_granule("granule", granule.data, params.config)
    return DetectionMap(predict_scene(params, granule.data, batch_size=batch_size)
                        .astype(np.float32, copy=False))


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
    publish(path, "".join(lines).encode("ascii"))


@dataclass
class ScoreReport:
    """Detection-map quality overall and split by label-edge proximity.

    Boundary pixels are those whose label-gradient magnitude exceeds
    ``EDGE_GRADIENT_THRESHOLD`` (plume edges); the rest are core.  Pixels
    with an undefined gradient (NaN neighbors) count as core.  A band's
    report is None when the band is empty.
    """

    overall: MetricsReport
    boundary: MetricsReport | None
    core: MetricsReport | None


def score_map(dmap: DetectionMap, labels: LabelMap) -> ScoreReport:
    """Metrics over pixels where both the map and the labels are finite,
    weighted as ``compute_metrics`` weights them by default."""
    if dmap.values.shape != labels.values.shape:
        raise ShapeMismatchError(
            f"map {dmap.values.shape} vs labels {labels.values.shape}"
        )
    truth = normalize_label_values(labels.values)
    valid = np.isfinite(dmap.values) & np.isfinite(truth)
    if not valid.any():
        raise EmptyDatasetError("no overlapping finite pixels between map and labels")

    overall = compute_metrics(dmap.values[valid], truth[valid])
    # numpy has no gradient along an axis of length 1: it counts as flat
    t64 = truth.astype(np.float64)
    gy, gx = (np.gradient(t64, axis=a) if t64.shape[a] > 1 else np.zeros_like(t64)
              for a in (0, 1))
    with np.errstate(invalid="ignore"):
        edge = np.hypot(gy, gx) > EDGE_GRADIENT_THRESHOLD
    boundary_mask = valid & edge
    core_mask = valid & ~edge
    boundary = (compute_metrics(dmap.values[boundary_mask], truth[boundary_mask])
                if boundary_mask.any() else None)
    core = (compute_metrics(dmap.values[core_mask], truth[core_mask])
            if core_mask.any() else None)
    return ScoreReport(overall=overall, boundary=boundary, core=core)
