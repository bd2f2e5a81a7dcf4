"""Patch-center index construction, its validity guarantees, and a
memory-mapped patch store with precomputed-index batch sampling.

A triplet (f, y, x) names a patch center: folder index f in manifest order,
then row and column.  A center is valid when its label is finite and the
full P x P window fits inside the image (both coordinates at least
h = P // 2 away from every edge).  The index holds exactly the valid
centers, sorted by (f, y, x), with no duplicates.

The window rule lives in one function: ``patch_windows(data, P)`` is a
read-only strided view of a (C, H, W) volume whose element [y - h, x - h]
is the patch centered on (y, x).  Training gathers index it; valid centers
come from the interior slice [h:H-h, h:W-h], the pixels scene inference
maps.

Index container layout (little-endian, framed by ``granule_io``):

    b"DIX1" | u32 P | u64 count | count * (u32 f, u32 y, u32 x)

P must be odd.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    EmptyDatasetError,
    FormatError,
    IndexMismatchError,
    ShapeMismatchError,
)
from .granule_io import (
    DatasetManifest,
    check_size,
    normalize_label_values,
    open_granule_mmap,
    read_granule,
    read_header,
    read_labels,
    write_container,
)

INDEX_MAGIC = b"DIX1"


@dataclass
class PatchIndex:
    """Sorted, deduplicated (f, y, x) patch centers for one manifest."""

    triplets: np.ndarray  # (N, 3) int64
    patch_size: int

    @property
    def half(self) -> int:
        return self.patch_size // 2

    def __len__(self) -> int:
        return len(self.triplets)


@dataclass
class PatchBatch:
    inputs: np.ndarray    # (B, C, P, P) float32 in [0, 1]
    targets: np.ndarray   # (B,) float32 in [0, 1]
    triplets: np.ndarray  # (B, 3) int64


def require_odd(patch_size: int) -> None:  # the one patch-size rule
    if patch_size < 1 or patch_size % 2 == 0:
        raise ValueError(
            f"patch_size must be odd and >= 1 (center pixel undefined otherwise), got {patch_size}"
        )


def require_batch_size(batch_size: int) -> None:  # the one batch-size rule
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def patch_windows(data: np.ndarray, patch_size: int) -> np.ndarray:
    """Read-only (H-P+1, W-P+1, C, P, P) view of a (C, H, W) volume's full
    windows; element [y - h, x - h] is the patch centered on (y, x)."""
    require_odd(patch_size)
    c, height, width = data.shape
    sc, sy, sx = data.strides
    return as_strided(data, shape=(height - patch_size + 1, width - patch_size + 1,
                                   c, patch_size, patch_size),
                      strides=(sy, sx, sc, sy, sx), writeable=False)


def _window_inside(y: int, x: int, h: int, height: int, width: int) -> bool:
    """Whether the window of half-width ``h`` centered on (y, x) lies inside
    a height x width grid; false for any negative center."""
    return h <= y < height - h and h <= x < width - h


def valid_centers(label_values: np.ndarray, patch_size: int) -> np.ndarray:
    """(y, x) pairs where the label is finite and the window is in-bounds.

    Returned in row-major order, which is sorted by (y, x).
    """
    require_odd(patch_size)
    h = patch_size // 2
    height, width = label_values.shape
    return np.argwhere(np.isfinite(label_values[h:height - h, h:width - h])) + h


def _triplets(label_maps: Iterable[np.ndarray], patch_size: int) -> np.ndarray:
    """(f, y, x) of every valid center of every map, sorted by (f, y, x)."""
    require_odd(patch_size)
    rows = [np.insert(valid_centers(labels, patch_size), 0, f, axis=1)
            for f, labels in enumerate(label_maps)]
    return np.concatenate(rows) if rows else np.empty((0, 3), dtype=np.int64)


def build_index(manifest: DatasetManifest, patch_size: int) -> PatchIndex:
    """Collect every valid center of every folder, in manifest order."""
    labels = (read_labels(entry.labels).values for entry in manifest)
    return PatchIndex(_triplets(labels, patch_size), patch_size)


def validate_index(index: PatchIndex, manifest: DatasetManifest,
                   check_complete: bool = True) -> list[str]:
    """Check every triplet's guarantees; return human-readable violations.

    Per triplet: the label is finite and the window is in-bounds.  With
    ``check_complete`` the index must also contain every valid center
    exactly once, in sorted order.
    """
    problems = []
    h = index.half
    label_maps = [read_labels(e.labels).values for e in manifest]
    n_folders = len(label_maps)
    for i, (f, y, x) in enumerate(index.triplets):
        if not 0 <= f < n_folders:
            problems.append(f"triplet {i}: folder {f} outside [0, {n_folders})")
            continue
        hh, ww = label_maps[f].shape
        if not _window_inside(y, x, h, hh, ww):
            problems.append(
                f"triplet {i}: window around (y={y}, x={x}) leaves {hh}x{ww} bounds"
            )
            continue
        if not np.isfinite(label_maps[f][y, x]):
            problems.append(f"triplet {i}: label at (f={f}, y={y}, x={x}) is not finite")
    if check_complete:
        expected = _triplets(label_maps, index.patch_size)
        if expected.shape != index.triplets.shape or not np.array_equal(expected, index.triplets):
            problems.append(
                f"index does not equal the full sorted center set "
                f"({len(index.triplets)} triplets vs {len(expected)} expected)"
            )
    return problems


def write_index(index: PatchIndex, path: str | Path) -> None:
    require_odd(index.patch_size)
    t = np.ascontiguousarray(index.triplets, dtype=np.int64)
    if len(t) and (t.min() < 0 or t.max() > 2**32 - 1):
        raise FormatError("triplet fields do not fit in u32")
    write_container(path, INDEX_MAGIC, "<IQ", (index.patch_size, len(t)), t.astype("<u4"))


def read_index(path: str | Path) -> PatchIndex:
    with open(path, "rb") as f:
        patch_size, count = read_header(f, path, INDEX_MAGIC, "<IQ")
        try:
            require_odd(patch_size)
        except ValueError as e:
            raise FormatError(f"{path}: {e}") from None
        check_size(f, path, 12 * count)
        data = np.fromfile(f, dtype="<u4", count=3 * count)
    return PatchIndex(data.astype(np.int64).reshape(-1, 3), patch_size)


# ---------------------------------------------------------------------------
# Patch store
# ---------------------------------------------------------------------------


class GranuleStore:
    """Read-only access to a manifest's granules and normalized labels.

    With ``use_mmap`` the granule payloads are memory-mapped so only touched
    file regions page in.  Shuffled sampling touches pages all over every
    file, so consumers that must hold a hard residency ceiling can pass
    ``release_after_gather`` to drop each file's pages as soon as a batch
    gather leaves it; the footprint of a streaming epoch then stays bounded
    by its batch.  Label maps are always fully loaded (they are small) and
    min-max normalized per file.  A manifest with no entries raises
    ``EmptyDatasetError``.
    """

    def __init__(self, manifest: DatasetManifest, use_mmap: bool = True,
                 release_after_gather: bool = False):
        if len(manifest) == 0:
            raise EmptyDatasetError("manifest has no entries")
        self.release_after_gather = release_after_gather and use_mmap
        self._granules: list[np.ndarray] = []
        self._mmaps: list[mmap.mmap] = []
        self._labels: list[np.ndarray] = []
        for entry in manifest:
            if use_mmap:
                arr, handle = open_granule_mmap(entry.granule)
                self._mmaps.append(handle)
            else:
                arr = read_granule(entry.granule).data
            if self._granules and arr.shape[0] != self.channels:
                raise ShapeMismatchError(
                    f"{entry.granule}: {arr.shape[0]} channels, but the first granule "
                    f"of the manifest has {self.channels}"
                )
            labels = read_labels(entry.labels).values
            if labels.shape != arr.shape[1:]:
                raise FormatError(
                    f"{entry.labels}: label map {labels.shape} does not match "
                    f"granule {arr.shape[1:]} of {entry.granule}"
                )
            self._granules.append(arr)
            self._labels.append(normalize_label_values(labels))

    def __len__(self) -> int:
        return len(self._granules)

    @property
    def channels(self) -> int:
        return self._granules[0].shape[0]

    def granule(self, f: int) -> np.ndarray:
        return self._granules[f]

    def labels(self, f: int) -> np.ndarray:
        return self._labels[f]

    @property
    def payload_bytes(self) -> int:
        return sum(arr.nbytes for arr in self._granules)

    def close(self) -> None:
        self._granules.clear()
        self._labels.clear()
        for handle in self._mmaps:
            try:
                handle.close()
            except BufferError:
                # a caller still holds a view; the map dies with the last view
                pass
        self._mmaps.clear()

    # -- extraction ---------------------------------------------------------

    def extract_batch(self, triplets: np.ndarray, patch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized gather of many windows; preserves triplet order."""
        triplets = np.asarray(triplets)
        b = len(triplets)
        h = patch_size // 2
        inputs = np.empty((b, self.channels, patch_size, patch_size), dtype=np.float32)
        targets = np.empty(b, dtype=np.float32)
        for f in np.unique(triplets[:, 0]):
            rows = np.nonzero(triplets[:, 0] == f)[0]
            ys = triplets[rows, 1]
            xs = triplets[rows, 2]
            # bounds first: a negative window index would wrap around
            self._check_bounds(int(f), int(ys.min()), int(xs.min()), h)
            self._check_bounds(int(f), int(ys.max()), int(xs.max()), h)
            inputs[rows] = patch_windows(self._granules[int(f)], patch_size)[ys - h, xs - h]
            targets[rows] = self._labels[int(f)][ys, xs]
            if self.release_after_gather:
                self._mmaps[int(f)].madvise(mmap.MADV_DONTNEED)
        return inputs, targets

    def _check_bounds(self, f: int, y: int, x: int, h: int) -> None:
        if not 0 <= f < len(self._granules):
            raise IndexMismatchError(f"folder {f} outside manifest of {len(self._granules)}")
        _, hh, ww = self._granules[f].shape
        if not _window_inside(y, x, h, hh, ww):
            raise IndexMismatchError(
                f"center (y={y}, x={x}) with half-window {h} leaves {hh}x{ww} granule"
            )


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------


def shuffle_partitions(index: PatchIndex, seed: int, partitions: int) -> list[np.ndarray]:
    """Seeded shuffle of triplet positions, split into near-equal partitions.

    Partition sizes differ by at most one (the leading partitions take the
    remainder).  Deterministic for a fixed (seed, partitions).
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    order = np.random.default_rng(seed).permutation(len(index))
    return np.array_split(order, partitions)


def iter_batches(index: PatchIndex, store: GranuleStore, positions: np.ndarray,
                 batch_size: int) -> Iterator[PatchBatch]:
    """Consecutive batches over the given positions; final short batch kept."""
    require_batch_size(batch_size)
    for start in range(0, len(positions), batch_size):
        chunk = positions[start:start + batch_size]
        triplets = index.triplets[chunk]
        inputs, targets = store.extract_batch(triplets, index.patch_size)
        yield PatchBatch(inputs, targets, triplets)


def sample_batches(index: PatchIndex, store: GranuleStore, batch_size: int,
                   seed: int, partitions: int = 5) -> Iterator[PatchBatch]:
    """One epoch of shuffled, partitioned batches over the precomputed index.

    Every triplet is visited exactly once per epoch.  Deterministic for a
    fixed (seed, batch_size, partitions).
    """
    if len(index) < 1:
        raise EmptyDatasetError("patch index is empty")
    for part in shuffle_partitions(index, seed, partitions):
        yield from iter_batches(index, store, part, batch_size)


def naive_sample_batches(store: GranuleStore, patch_size: int, batch_size: int,
                         seed: int) -> Iterator[PatchBatch]:
    """Baseline sampler that re-derives valid centers for every batch.

    Produces the same epoch-wide triplet multiset as ``sample_batches`` with
    the same seed over the same store, but pays a full label-mask scan per
    batch instead of consulting a precomputed index.  Exists as the
    benchmark baseline only.
    """
    require_batch_size(batch_size)
    start = 0
    while True:
        # deliberate per-batch mask search over every label map
        triplets = _triplets(map(store.labels, range(len(store))), patch_size)
        if start >= len(triplets):
            return
        order = np.random.default_rng(seed).permutation(len(triplets))
        chunk = triplets[order[start:start + batch_size]]
        inputs, targets = store.extract_batch(chunk, patch_size)
        yield PatchBatch(inputs, targets, chunk)
        start += batch_size


def batch_footprint_bytes(batch_size: int, channels: int, patch_size: int) -> int:
    """Bytes a resident batch occupies: inputs plus one f32 target per sample."""
    return batch_size * channels * patch_size * patch_size * 4 + batch_size * 4
