"""Binary container framing, the granule and label containers, and a
synthetic dataset generator.

Every binary container of the pipeline is a 4-byte magic, a fixed
little-endian header and a payload, written by ``write_container``.  Readers
check the magic and the header with ``read_header`` (wrong magic:
``BadMagicError``; short header: ``TruncatedFileError``), then compare the
size the header declares with the file size in ``check_size`` before they
allocate anything (mismatch: ``TruncatedFileError``).  Variable-length
records are taken from one read of the rest of the file by ``Records``,
which checks each against the bytes left.  Contents that break a format's
rules raise ``FormatError``.

Layouts defined here (all little-endian):

    granule  b"DGR1" | u32 H | u32 W | u32 C | C*H*W f32, band-major
             (C planes, each H x W row-major; payload starts at byte 16)
    labels   b"DLB1" | u32 H | u32 W | H*W f32, row-major
             (payload starts at byte 12)

Labels use the 2-D grid layout of ``write_grid``/``read_grid``, which
detection maps share under their own magic.  NaN payloads round-trip
bit-exactly.  A dataset manifest is a UTF-8 JSON file
``{"entries": [{"granule": ..., "labels": ...}]}`` whose entry order
defines the folder index ``f``.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadMagicError, FormatError, TruncatedFileError

GRANULE_MAGIC = b"DGR1"
LABELS_MAGIC = b"DLB1"
GRANULE_HEADER_BYTES = 16

# planted plumes: peak intensity is uniform in [PLUME_PEAK_LOW, PLUME_PEAK_HIGH];
# a profile exponent below 1 flattens plume cores and sharpens their edges;
# every DUST_CHANNEL_STRIDE-th channel, from channel 0, reacts to dust
PLUME_PEAK_LOW = 0.7
PLUME_PEAK_HIGH = 1.0
PLUME_PROFILE_EXPONENT = 0.5
DUST_CHANNEL_STRIDE = 3


@dataclass
class Granule:
    """An H x W x C radiance volume stored band-major as a (C, H, W) array.

    Values are float32; NaN encodes missing samples.  Raw granules carry
    arbitrary radiance units; preprocessed granules are finite in [0, 1].
    """

    data: np.ndarray  # (C, H, W) float32

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def validate(self) -> None:
        _check_array(self.data, "granule data", "(C, H, W)", "granule")


@dataclass
class LabelMap:
    """Per-pixel dust intensity in [0, 1]; NaN marks unlabeled pixels."""

    values: np.ndarray  # (H, W) float32

    def validate(self) -> None:
        _check_array(self.values, "label map", "(H, W)", "label")


def _check_array(values: np.ndarray, name: str, layout: str, noun: str) -> None:
    """Require a float32 array of ``layout`` with every dim >= 1; ``name``
    and ``noun`` ("granule data", "granule") begin the error messages."""
    if values.ndim != layout.count(",") + 1:
        raise FormatError(f"{name} must be {layout}, got shape {values.shape}")
    if values.dtype != np.float32:
        raise FormatError(f"{name} must be float32, got {values.dtype}")
    if min(values.shape) < 1:
        raise FormatError(f"{noun} dims must all be >= 1, got {values.shape}")


@dataclass
class ManifestEntry:
    granule: Path
    labels: Path


@dataclass
class DatasetManifest:
    """Ordered granule/label pairs; list position is the folder index f."""

    entries: list[ManifestEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        path = Path(path)
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
        if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
            raise FormatError(f"{path}: manifest must be an object with an 'entries' list")
        base = path.parent
        entries = []
        for i, e in enumerate(raw["entries"]):
            if not (isinstance(e, dict) and isinstance(e.get("granule"), str)
                    and isinstance(e.get("labels"), str)):
                raise FormatError(
                    f"{path}: entry {i} must be an object with 'granule' and 'labels' paths"
                )
            g = Path(e["granule"])
            l = Path(e["labels"])
            # relative paths resolve against the manifest's directory
            entries.append(ManifestEntry(
                granule=g if g.is_absolute() else base / g,
                labels=l if l.is_absolute() else base / l,
            ))
        if not entries:
            raise FormatError(f"{path}: manifest has no entries")
        return cls(entries)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        base = path.parent.resolve()
        recs = []
        for e in self.entries:
            recs.append({
                "granule": _portable_path(e.granule, base),
                "labels": _portable_path(e.labels, base),
            })
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"entries": recs}, f, indent=2)
            f.write("\n")


def _portable_path(p: Path, base: Path) -> str:
    p = Path(p).resolve()
    try:
        return os.path.relpath(p, base)
    except ValueError:
        return str(p)


# ---------------------------------------------------------------------------
# Container framing, shared by every binary format of the pipeline
# ---------------------------------------------------------------------------


def write_container(path: str | Path, magic: bytes, fmt: str, fields: tuple,
                    *payload) -> None:
    """Write ``magic``, the ``struct``-packed header ``fields``, then each
    payload part (bytes or a C-contiguous array, written from its own buffer)."""
    try:
        header = struct.pack(fmt, *fields)
    except struct.error as e:
        raise FormatError(f"{path}: header fields {fields} do not fit {fmt!r}: {e}") from None
    with open(path, "wb") as f:
        f.write(magic)
        f.write(header)
        for part in payload:
            f.write(part)


def read_header(f, path: str | Path, magic: bytes, fmt: str) -> tuple:
    """Check ``magic`` and unpack the header that follows it."""
    size = len(magic) + struct.calcsize(fmt)
    head = f.read(size)
    if head[:len(magic)] != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, found {head[:len(magic)]!r}")
    if len(head) != size:
        raise TruncatedFileError(f"{path}: header truncated ({len(head)} bytes)")
    return struct.unpack(fmt, head[len(magic):])


def check_size(f, path: str | Path, payload_bytes: int) -> None:
    """Require exactly ``payload_bytes`` after the current position.

    Called before a payload is allocated, so a corrupt header cannot ask for
    more memory than the file holds.
    """
    expected = f.tell() + payload_bytes
    actual = os.fstat(f.fileno()).st_size
    if actual != expected:
        raise TruncatedFileError(f"{path}: contents declare {expected} bytes, file has {actual}")


class Records:
    """The rest of an open container, read with one call (the file's size
    bounds the allocation) and handed out a record at a time."""

    def __init__(self, f, path: str | Path):
        self.path = path
        self.start = f.tell()
        self.buf = memoryview(f.read())
        self.pos = 0

    def take(self, n: int) -> memoryview:
        """The next ``n`` bytes, checked against the bytes left first."""
        left = len(self.buf) - self.pos
        if n > left:
            raise TruncatedFileError(
                f"{self.path}: record at byte {self.start + self.pos} needs {n} bytes, {left} left")
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def check_end(self) -> None:
        """Require that every byte of the file was taken."""
        if self.pos != len(self.buf):
            raise TruncatedFileError(f"{self.path}: contents declare {self.start + self.pos} "
                                     f"bytes, file has {self.start + len(self.buf)}")


def write_grid(path: str | Path, magic: bytes, values: np.ndarray) -> None:
    """An H x W float32 grid: ``magic`` | u32 H | u32 W | H*W f32 row-major."""
    values = np.ascontiguousarray(values, dtype="<f4")
    write_container(path, magic, "<II", values.shape, values)


def read_grid(path: str | Path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as f:
        h, w = read_header(f, path, magic, "<II")
        check_size(f, path, 4 * h * w)
        return np.fromfile(f, dtype="<f4", count=h * w).reshape(h, w).view(np.float32)


def write_granule(granule: Granule, path: str | Path) -> None:
    """Write a granule container; round-trips bit-exactly through read_granule."""
    granule.validate()
    c, h, w = granule.data.shape
    write_container(path, GRANULE_MAGIC, "<III", (h, w, c),
                    np.ascontiguousarray(granule.data, dtype="<f4"))


def _granule_header(f, path) -> tuple[int, int, int]:
    h, w, c = read_header(f, path, GRANULE_MAGIC, "<III")
    check_size(f, path, 4 * h * w * c)
    return h, w, c


def read_granule(path: str | Path, use_mmap: bool = False) -> Granule:
    """Read a granule container, either fully loaded or memory-mapped.

    Both access modes expose element-wise identical values; the mapped mode
    pages in file regions lazily and returns a read-only array.
    """
    if use_mmap:
        g = Granule(open_granule_mmap(path)[0])
    else:
        with open(path, "rb") as f:
            h, w, c = _granule_header(f, path)
            data = np.fromfile(f, dtype="<f4", count=h * w * c)
        g = Granule(data.reshape(c, h, w).view(np.float32))
    g.validate()
    return g


def open_granule_mmap(path: str | Path) -> tuple[np.ndarray, mmap.mmap]:
    """Memory-map a granule payload; returns the (C, H, W) view and the map.

    The caller may hold the mmap handle to release resident pages
    (``handle.madvise(mmap.MADV_DONTNEED)``) without invalidating the view.
    """
    with open(path, "rb") as f:
        h, w, c = _granule_header(f, path)
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    arr = np.frombuffer(mm, dtype="<f4", count=h * w * c, offset=GRANULE_HEADER_BYTES)
    return arr.reshape(c, h, w).view(np.float32), mm


def write_labels(labels: LabelMap, path: str | Path) -> None:
    labels.validate()
    write_grid(path, LABELS_MAGIC, labels.values)


def read_labels(path: str | Path) -> LabelMap:
    """Read a label container verbatim (no normalization; NaN preserved)."""
    lm = LabelMap(read_grid(path, LABELS_MAGIC))
    lm.validate()
    return lm


def normalize_planes(planes: np.ndarray) -> np.ndarray:
    """Scale each plane ``planes[k]`` of a (K, ...) float32 array in place
    into [0, 1] by its own finite min and max; NaN and +-inf pass through,
    and a constant plane's finite values become 0.  Returns the (K,) mask of
    planes with no finite value (left as they were).  Bands and label maps
    share this one rule (``normalize_bands``, ``normalize_label_values``).

    The extrema are ``np.fmin`` / ``np.fmax`` reductions, which skip NaN
    without a masked copy.  A plane whose NaN-skipping min or max is
    non-finite (it holds +-inf, or nothing finite), or whose min is zero,
    takes a masked reduction instead, one plane at a time: that drops +-inf,
    and it picks between -0.0 and +0.0 as the masked min always has, which
    decides the sign of a zero output.  (A zero max needs no such care:
    ``hi - lo`` is the same for either zero.)  A plane whose finite range
    exceeds float32's (``hi - lo`` overflows) is scaled in float64 and cast
    back, so its finite values still land in [0, 1]; every other plane is
    scaled in float32."""
    axes = tuple(range(1, planes.ndim))
    per_plane = (-1,) + (1,) * len(axes)
    lo = np.fmin.reduce(planes, axis=axes)
    hi = np.fmax.reduce(planes, axis=axes)
    for k in np.flatnonzero(~np.isfinite(lo) | ~np.isfinite(hi) | (lo == 0)):
        finite = np.isfinite(planes[k])
        lo[k] = np.where(finite, planes[k], np.float32(np.inf)).min()
        hi[k] = np.where(finite, planes[k], np.float32(-np.inf)).max()
    with np.errstate(over="ignore"):
        span = hi - lo
    scaled = span > 0  # neither constant nor without finite values
    wide = np.isfinite(lo) & np.isinf(span)  # a finite range beyond float32's
    planes -= np.where(scaled & ~wide, lo, 0).reshape(per_plane)
    planes /= np.where(scaled & ~wide, span, 1).reshape(per_plane)
    for k in np.flatnonzero(wide):
        lo64 = np.float64(lo[k])
        planes[k] = (planes[k].astype(np.float64) - lo64) / (np.float64(hi[k]) - lo64)
    for k in np.flatnonzero(~scaled):
        planes[k][np.isfinite(planes[k])] = 0.0
    return lo == np.inf


def normalize_label_values(values: np.ndarray) -> np.ndarray:
    """Min-max normalize finite label values per file into [0, 1].

    NaN passes through.  A constant map collapses to all zeros, as a
    constant band does (both run ``normalize_planes``).  Maps that already
    span [0, 1] are returned unchanged by construction of the affine map.
    """
    out = np.array(values, dtype=np.float32)
    normalize_planes(out[None])
    return out


# ---------------------------------------------------------------------------
# Synthetic dataset generation
# ---------------------------------------------------------------------------


def require_seed(seed: int, name: str = "seed") -> None:  # the one seed rule
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")


@dataclass(frozen=True)
class SyntheticConfig:
    """Plume count, intensity, noise and missing-data settings of a
    synthetic dataset.

    Each granule gets between ``min_plumes`` and ``max_plumes`` plumes.
    ``amplitude`` is the radiance shift applied to the dust-reactive
    channels at label intensity 1; separability against ``noise_sigma`` is
    what makes a fixture learnable.  ``nan_fraction`` plants per-entry NaN
    holes across the whole volume; ``label_density`` keeps only that
    fraction of label pixels finite (1.0 = fully labeled).  Plume shape and
    the reactive channels are the fixed ``PLUME_*`` and
    ``DUST_CHANNEL_STRIDE`` constants.  A negative plume count, a
    ``min_plumes`` above ``max_plumes``, a fraction outside [0, 1] or a
    negative or non-finite ``amplitude`` or ``noise_sigma`` raises
    ``ValueError`` whose message starts with the field at fault.
    """

    min_plumes: int = 0
    max_plumes: int = 3
    amplitude: float = 0.5
    noise_sigma: float = 0.02
    nan_fraction: float = 0.05
    label_density: float = 1.0

    def __post_init__(self):
        for name in ("min_plumes", "max_plumes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.min_plumes > self.max_plumes:
            raise ValueError(f"min_plumes must be <= max_plumes, got {self.min_plumes} "
                             f"and {self.max_plumes}")
        for name in ("amplitude", "noise_sigma"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("nan_fraction", "label_density"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


def generate_synthetic_dataset(
    out_dir: str | Path,
    seed: int,
    count: int,
    height: int,
    width: int,
    channels: int = 38,
    config: SyntheticConfig | None = None,
    patch_size: int = 5,
) -> DatasetManifest:
    """Emit ``count`` granule/label pairs with planted elliptical plumes.

    Each granule is a per-channel background (base level + gentle gradient +
    Gaussian noise) where the affected channels are shifted by
    ``amplitude * intensity``; the label map equals the normalized intensity
    field in [0, 1] (zero when the amplitude is zero).  Deterministic for a
    fixed argument tuple.  Writes ``manifest.json`` into ``out_dir``.  A
    negative ``seed``, a ``count`` or ``channels`` below 1, or a ``height``
    or ``width`` below ``patch_size`` raises ``ValueError``, whose message
    starts with the parameter's name, before ``out_dir`` is created; so
    does a ``MemoryError`` from the first granule's allocation, since
    ``out_dir`` is created only once a granule is in memory.
    """
    cfg = config or SyntheticConfig()
    require_seed(seed)
    for name, value in (("count", count), ("channels", channels)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    for name, value in (("height", height), ("width", width)):
        if value < patch_size:
            raise ValueError(f"{name} must be >= the patch size {patch_size}, got {value}")
    out_dir = Path(out_dir)

    entries = []
    for i in range(count):
        rng = np.random.default_rng((int(seed), int(i)))
        data, labels = _synthesize_granule(rng, height, width, channels, cfg)
        out_dir.mkdir(parents=True, exist_ok=True)  # once a granule is in memory
        gpath = out_dir / f"granule_{i:04d}.dgr"
        lpath = out_dir / f"labels_{i:04d}.dlb"
        write_granule(Granule(data), gpath)
        write_labels(LabelMap(labels), lpath)
        entries.append(ManifestEntry(granule=gpath, labels=lpath))

    manifest = DatasetManifest(entries)
    manifest.save(out_dir / "manifest.json")
    return manifest


def _synthesize_granule(rng, height, width, channels, cfg: SyntheticConfig):
    yy, xx = np.meshgrid(np.arange(height, dtype=np.float64),
                         np.arange(width, dtype=np.float64), indexing="ij")

    base = rng.uniform(0.2, 0.8, size=channels)
    grad_y = rng.uniform(-0.1, 0.1, size=channels) / max(height, 1)
    grad_x = rng.uniform(-0.1, 0.1, size=channels) / max(width, 1)
    data = (
        base[:, None, None]
        + grad_y[:, None, None] * yy[None]
        + grad_x[:, None, None] * xx[None]
        + rng.normal(0.0, cfg.noise_sigma, size=(channels, height, width))
    )

    intensity = np.zeros((height, width), dtype=np.float64)
    n_plumes = int(rng.integers(cfg.min_plumes, cfg.max_plumes + 1))
    for _ in range(n_plumes):
        cy = rng.uniform(0.15 * height, 0.85 * height)
        cx = rng.uniform(0.15 * width, 0.85 * width)
        ay = rng.uniform(0.12 * height, 0.35 * height)
        ax = rng.uniform(0.12 * width, 0.35 * width)
        theta = rng.uniform(0.0, np.pi)
        peak = rng.uniform(PLUME_PEAK_LOW, PLUME_PEAK_HIGH)
        u = (yy - cy) * np.cos(theta) + (xx - cx) * np.sin(theta)
        v = -(yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta)
        r2 = (u / ay) ** 2 + (v / ax) ** 2
        bump = peak * np.clip(1.0 - r2, 0.0, None) ** PLUME_PROFILE_EXPONENT
        intensity = np.maximum(intensity, bump)

    if cfg.amplitude > 0.0:
        data[::DUST_CHANNEL_STRIDE] += cfg.amplitude * intensity[None]
        labels = np.clip(intensity, 0.0, 1.0)
    else:
        labels = np.zeros_like(intensity)

    labels = labels.astype(np.float32)
    if cfg.label_density < 1.0:
        drop = rng.random((height, width)) >= cfg.label_density
        labels[drop] = np.nan

    data = data.astype(np.float32)
    if cfg.nan_fraction > 0.0:
        holes = rng.random((channels, height, width)) < cfg.nan_fraction
        data[holes] = np.nan

    return data, labels
