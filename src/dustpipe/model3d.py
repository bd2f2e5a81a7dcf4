"""From-scratch 3D convolutional network with analytic forward and backward.

Architecture: three conv blocks (3x3x3 kernels, same padding, stride 1),
each block ordered conv -> ReLU -> batch norm; 2x2x2 floor-mode max pooling
after blocks one and two; global average pooling; a single fully connected
output unit with sigmoid.  The spectral axis of a C x P x P patch is treated
as convolution depth, so the input tensor is (B, 1, C, P, P) and one kernel
mixes adjacent bands and pixels jointly.

Inside ``forward`` and ``backward`` activations are channels-last,
(B, D, H, W, C).  Every conv is one spectral 1-D convolution: the block's
whole H x W window is folded into the feature axis, so the 3x3x3 kernel
becomes a single (3*H*W*Cin, H*W*Cout) matrix (zeros where a tap would fall
outside the window) applied to three depth-shifted copies of the input, and
its product is already channels-last.  Batch norm and global pooling reduce
over every axis but the last; max pooling reduces strided views.  Stage
shapes (``ForwardTrace.shapes``, ``shape_ledger``) are still reported per
sample as (C, D, H, W), and checkpoints keep the (Cout, Cin, 3, 3, 3)
kernel layout.

Everything is plain numpy so the same code runs in float32 for training and
float64 for finite-difference verification.  Checkpoint container layout
(little-endian, framed by ``granule_io``; every record is checked against the
bytes left before it is read):

    b"DCK1" | u32 tensor count | per tensor:
        u16 name length | ASCII name | u8 rank | rank * u32 dims | f32 payload
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import expit

from .errors import FormatError, ShapeMismatchError
from .granule_io import check_size, read_exact, read_header, write_container

CHECKPOINT_MAGIC = b"DCK1"
# architecture fields stored as ``meta.<field>`` tensors; all but filters are scalars
_META = ("filters", "in_depth", "patch_size", "bn_eps", "bn_momentum")
KERNEL = 3
POOL = 2
# patches per eval forward in ``predict``: throughput is flat from 8 to 32
# and falls beyond, while peak memory grows with the tile
EVAL_TILE = 8


@dataclass(frozen=True)
class ModelConfig:
    filters: tuple[int, int, int] = (32, 64, 128)
    in_depth: int = 38   # spectral channels, used as convolution depth
    patch_size: int = 5
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    @property
    def dtype(self):
        return self.tensors["fc.weight"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


@dataclass
class ForwardTrace:
    """Per-layer caches from one train-mode forward pass, consumed by
    backward; an eval-mode trace holds stage shapes only."""

    caches: dict = field(default_factory=dict)
    shapes: list = field(default_factory=list)  # (stage, per-sample shape)


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Tensor-name to shape template for one architecture."""
    shapes: dict[str, tuple] = {}
    in_ch = 1
    for i, out_ch in enumerate(config.filters, start=1):
        shapes[f"conv{i}.weight"] = (out_ch, in_ch, KERNEL, KERNEL, KERNEL)
        shapes[f"conv{i}.bias"] = (out_ch,)
        for stat in ("gamma", "beta", "running_mean", "running_var"):
            shapes[f"bn{i}.{stat}"] = (out_ch,)
        in_ch = out_ch
    shapes["fc.weight"] = (1, config.filters[-1])
    shapes["fc.bias"] = (1,)
    return shapes


def trainable_names(config: ModelConfig) -> list[str]:
    return [n for n in param_shapes(config) if not n.endswith(("running_mean", "running_var"))]


def init_params(seed: int, config: ModelConfig | None = None,
                dtype=np.float32) -> ModelParams:
    """Fan-in scaled uniform kernels, zero biases, identity batch norm."""
    config = config or ModelConfig()
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".weight") and name.startswith("conv"):
            fan_in = shape[1] * KERNEL ** 3
            bound = np.sqrt(1.0 / fan_in)
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        elif name == "fc.weight":
            bound = np.sqrt(1.0 / shape[1])
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        elif name.endswith(".gamma") or name.endswith(".running_var"):
            tensors[name] = np.ones(shape, dtype=dtype)
        else:
            tensors[name] = np.zeros(shape, dtype=dtype)
    return ModelParams(config, tensors)


# ---------------------------------------------------------------------------
# Layer primitives (activations are channels-last: (B, D, H, W, C))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _fold_taps(h: int, w: int):
    """Where the 3x3 spatial taps land when an h x w window is folded into
    the feature axis.

    Returns read-only arrays (pin, pout, tap), one entry per pair of window
    positions that some tap connects: the flat (row-major) input position,
    the flat output position, and the tap ``kh * 3 + kw`` that joins them.
    Taps that would read outside the window read same-padding zeros, so
    they have no entry.
    """
    hi, wi, ho, wo = np.meshgrid(np.arange(h), np.arange(w), np.arange(h), np.arange(w),
                                 indexing="ij")
    kh = hi - ho + 1
    kw = wi - wo + 1
    inside = (kh >= 0) & (kh < KERNEL) & (kw >= 0) & (kw < KERNEL)
    tables = ((hi * w + wi)[inside], (ho * w + wo)[inside], (kh * KERNEL + kw)[inside])
    for arr in tables:
        arr.setflags(write=False)
    return tables


def conv3d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   per_sample: bool = False):
    """Same-padded 3x3x3 convolution of a (B, D, H, W, Cin) batch, computed
    as one spectral 1-D convolution.

    The whole H x W window is folded into the feature axis: the kernel
    becomes one matrix ``wf`` of shape (3*H*W*Cin, H*W*Cout) holding each
    tap where it joins an input position to an output position, and zeros
    where a tap would fall outside the window.  The columns are then only
    three depth-shifted copies of the depth-padded input, in depth, row,
    col, channel order, and the product is already channels-last.  With
    ``per_sample`` the product is a stacked matmul, one BLAS call per
    sample with the same (M, K, N) for any batch size, so each sample's
    output is independent of the batch it travels in; otherwise one GEMM
    covers the whole batch (faster at training batch sizes, but the BLAS
    may block the reduction differently as the batch grows).
    """
    b, d, h, w, cin = x.shape
    cout = weight.shape[0]
    hw = h * w
    pin, pout, tap = _fold_taps(h, w)
    taps = weight.transpose(3, 4, 2, 1, 0).reshape(KERNEL * KERNEL, KERNEL, cin, cout)
    wf = np.zeros((KERNEL, hw, cin, hw, cout), dtype=weight.dtype)
    wf[:, pin, :, pout, :] = taps[tap]
    wf = wf.reshape(KERNEL * hw * cin, hw * cout)
    xp = np.zeros((b, d + 2, hw * cin), dtype=x.dtype)
    xp[:, 1:-1] = x.reshape(b, d, hw * cin)
    # row (b, z) of the columns is the contiguous run xp[b, z:z + 3]
    sb, sd, sk = xp.strides
    cols = as_strided(xp, shape=(b, d, KERNEL * hw * cin), strides=(sb, sd, sk),
                      writeable=False).reshape(b * d, -1)
    out = cols.reshape(b, d, -1) @ wf if per_sample else cols @ wf
    out += np.tile(bias, hw)
    return out.reshape(b, d, h, w, cout), (cols, wf)


def conv3d_backward(dy: np.ndarray, cache, need_dx: bool = True):
    """Kernel and bias gradients from the cached columns; the input
    gradient (skipped for the bottom layer) is ``dy @ wf.T`` with its three
    depth shifts summed back into place."""
    cols, wf = cache
    b, d, h, w, cout = dy.shape
    hw = h * w
    cin = wf.shape[0] // (KERNEL * hw)
    dmat = dy.reshape(b * d, hw * cout)
    dwf = (cols.T @ dmat).reshape(KERNEL, hw, cin, hw, cout)
    pin, pout, tap = _fold_taps(h, w)
    dtaps = np.zeros((KERNEL * KERNEL, KERNEL, cin, cout), dtype=dy.dtype)
    np.add.at(dtaps, tap, dwf[:, pin, :, pout, :])
    dw = np.ascontiguousarray(
        dtaps.reshape(KERNEL, KERNEL, KERNEL, cin, cout).transpose(4, 3, 2, 0, 1))
    db = dmat.sum(axis=0).reshape(hw, cout).sum(axis=0)
    if not need_dx:
        return None, dw, db
    # column block k of row z read input depth z + k - 1 (padding excluded)
    dcols = (dmat @ wf.T).reshape(b, d, KERNEL, hw * cin)
    dx = dcols[:, :, 1].copy()
    dx[:, 1:] += dcols[:, :-1, 2]
    dx[:, :-1] += dcols[:, 1:, 0]
    return dx.reshape(b, d, h, w, cin), dw, db


def _pool_views(x: np.ndarray, wins: tuple):
    """Strided views of ``x``, one per offset inside the pooling window in
    depth, row, col order; view k holds the k-th element of every window."""
    ext = [n // k * k for n, k in zip(x.shape[1:4], wins)]
    trimmed = x[:, :ext[0], :ext[1], :ext[2]]
    for a in range(wins[0]):
        for bb in range(wins[1]):
            for cc in range(wins[2]):
                yield trimmed[:, a::wins[0], bb::wins[1], cc::wins[2]]


def maxpool3d_forward(x: np.ndarray):
    """2x2x2, stride 2, floor mode over (D, H, W); an axis shorter than the
    window is kept as-is (window clamps to the available extent)."""
    wins = tuple(min(POOL, n) for n in x.shape[1:4])
    y = None
    for view in _pool_views(x, wins):
        y = view.copy() if y is None else np.maximum(y, view, out=y)
    return y, (x, y, wins)


def maxpool3d_backward(dy: np.ndarray, cache):
    """Each window's gradient goes to its first maximum in depth, row, col
    order (the first-argmax tie rule)."""
    x, y, wins = cache
    dx = np.zeros(x.shape, dtype=dy.dtype)
    open_ = np.ones(y.shape, dtype=bool)  # windows not yet routed
    hit = np.empty(y.shape, dtype=bool)
    for xv, dxv in zip(_pool_views(x, wins), _pool_views(dx, wins)):
        np.equal(xv, y, out=hit)
        hit &= open_
        open_ ^= hit
        # each element of the pooled extent lies in exactly one view, so
        # writing every element of each view fills it once
        np.multiply(dy, hit, out=dxv)
    return dx


def _rows(a: np.ndarray) -> np.ndarray:
    """The (B*D, H*W*C) view of a channels-last activation.  Elementwise
    work on it runs inner loops H*W times longer than on the (N, C) view;
    per-channel vectors are tiled H*W times to match a row."""
    b, d, h, w, c = a.shape
    return a.reshape(b * d, h * w * c)


def _channel_sum(a2: np.ndarray, c: int, b2: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sum of row view ``a2`` (or of ``a2 * b2``): rows first,
    then the H*W positions.  A two-level sum, more accurate than one
    axis-0 pass over (N, C)."""
    s = a2.sum(axis=0) if b2 is None else np.einsum("ij,ij->j", a2, b2)
    return s.reshape(-1, c).sum(axis=0)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, *,
                      train: bool, eps: float, momentum: float,
                      update_running: bool):
    """Batch norm over the last (channel) axis of a channels-last batch,
    computed on its row view.

    Train mode normalizes with batch statistics and returns a fresh output
    plus the cache backward needs.  Eval mode normalizes ``x`` in place with
    the running estimates and returns it with no cache.
    """
    c = x.shape[-1]
    hw = x.shape[2] * x.shape[3]
    x2 = _rows(x)
    if not train:
        x2 -= np.tile(running_mean, hw)
        x2 *= np.tile(1.0 / np.sqrt(running_var + eps), hw)
        x2 *= np.tile(gamma, hw)
        x2 += np.tile(beta, hw)
        return x2.reshape(x.shape), None
    m = x.size // c
    mean = _channel_sum(x2, c) / m
    xhat = x2 - np.tile(mean, hw)
    var = _channel_sum(xhat, c, xhat) / m
    if update_running:
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= np.tile(inv, hw)
    y = np.tile(gamma, hw) * xhat
    y += np.tile(beta, hw)
    return y.reshape(x.shape), (xhat, inv)


def batchnorm_backward(dy, gamma, cache):
    """Gradients through train-mode batch norm (batch statistics)."""
    xhat, inv = cache
    c = dy.shape[-1]
    hw = dy.shape[2] * dy.shape[3]
    dy2 = _rows(dy)
    dgamma = _channel_sum(dy2, c, xhat)
    dbeta = _channel_sum(dy2, c)
    # dx = gamma * inv * (dy - dbeta / m - xhat * dgamma / m)
    m = dy.size // c
    dx = xhat * np.tile(-dgamma / m, hw)
    dx += dy2
    dx -= np.tile(dbeta / m, hw)
    dx *= np.tile(gamma * inv, hw)
    return dx.reshape(dy.shape), dgamma, dbeta


def global_avgpool_forward(x: np.ndarray):
    return x.mean(axis=(1, 2, 3)), (x.shape,)


def global_avgpool_backward(dy: np.ndarray, cache):
    (x_shape,) = cache
    _, d, h, w, _ = x_shape
    return np.broadcast_to(dy[:, None, None, None, :] / (d * h * w), x_shape).astype(dy.dtype)


def _sample_shape(a: np.ndarray) -> tuple:
    """Per-sample (C, D, H, W) shape of a channels-last activation."""
    _, d, h, w, c = a.shape
    return (c, d, h, w)


# ---------------------------------------------------------------------------
# Full network
# ---------------------------------------------------------------------------


def forward(params: ModelParams, x: np.ndarray, mode: str = "train",
            update_running_stats: bool | None = None):
    """Run the network on a (B, 1, C, P, P) batch.

    Returns per-sample probabilities in (0, 1) plus a trace.  Train mode
    normalizes with batch statistics (and by default updates the running
    estimates in place), and its trace holds what backward needs.  Eval
    mode uses the running estimates, keeps no caches, is a pure function of
    (params, x) and is batch-invariant: each sample's output is bitwise the
    same whatever else is in the batch.
    """
    cfg = params.config
    x = np.asarray(x)
    if x.ndim != 5 or x.shape[1] != 1 or x.shape[2:] != (cfg.in_depth, cfg.patch_size, cfg.patch_size):
        raise ShapeMismatchError(
            f"expected input (B, 1, {cfg.in_depth}, {cfg.patch_size}, {cfg.patch_size}), got {x.shape}"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in network input")
    if x.dtype != params.dtype:
        x = x.astype(params.dtype)

    train = mode == "train"
    if update_running_stats is None:
        update_running_stats = train
    t = params.tensors
    trace = ForwardTrace()
    trace.shapes.append(("input", x.shape[1:]))

    # the single input channel moves last: (B, 1, D, P, P) -> (B, D, P, P, 1)
    a = x.reshape(x.shape[0], *x.shape[2:], 1)
    n_blocks = len(cfg.filters)
    for i in range(1, n_blocks + 1):
        y, conv_cache = conv3d_forward(a, t[f"conv{i}.weight"], t[f"conv{i}.bias"],
                                       per_sample=not train)
        np.maximum(y, 0, out=y)
        bn, bn_cache = batchnorm_forward(
            y, t[f"bn{i}.gamma"], t[f"bn{i}.beta"],
            t[f"bn{i}.running_mean"], t[f"bn{i}.running_var"],
            train=train, eps=cfg.bn_eps, momentum=cfg.bn_momentum,
            update_running=update_running_stats,
        )
        if train:
            trace.caches[f"conv{i}"] = conv_cache
            trace.caches[f"relu{i}"] = y > 0
            trace.caches[f"bn{i}"] = bn_cache
        trace.shapes.append((f"block{i}", _sample_shape(bn)))
        a = bn
        if i < n_blocks:
            a, pool_cache = maxpool3d_forward(a)
            if train:
                trace.caches[f"pool{i}"] = pool_cache
            trace.shapes.append((f"pool{i}", _sample_shape(a)))

    pooled, avg_cache = global_avgpool_forward(a)
    trace.shapes.append(("avgpool", (pooled.shape[1], 1, 1, 1)))

    # elementwise product and row sum rather than a matrix-vector product,
    # whose summation order the BLAS may change with the batch size
    z = (pooled * t["fc.weight"][0]).sum(axis=1) + t["fc.bias"][0]
    preds = expit(z)
    if train:
        trace.caches["avgpool"] = avg_cache
        trace.caches["fc"] = pooled
        trace.caches["sigmoid"] = preds
    trace.shapes.append(("output", ()))
    return preds, trace


def backward(params: ModelParams, trace: ForwardTrace,
             dpreds: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every trainable tensor.

    ``dpreds`` is the loss gradient at the sigmoid output, one value per
    sample.  Pure function of (params, trace, dpreds).
    """
    cfg = params.config
    t = params.tensors
    if "sigmoid" not in trace.caches:
        raise ValueError("backward needs a train-mode trace; eval mode keeps no caches")
    if dpreds.shape != trace.caches["sigmoid"].shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {dpreds.shape} does not match "
            f"predictions {trace.caches['sigmoid'].shape}"
        )
    grads: dict[str, np.ndarray] = {}

    s = trace.caches["sigmoid"]
    dz = (dpreds * s * (1.0 - s))[:, None]
    pooled = trace.caches["fc"]
    grads["fc.weight"] = dz.T @ pooled
    grads["fc.bias"] = dz.sum(axis=0)
    dpooled = dz @ t["fc.weight"]

    da = global_avgpool_backward(dpooled, trace.caches["avgpool"])
    n_blocks = len(cfg.filters)
    for i in range(n_blocks, 0, -1):
        if i < n_blocks:
            da = maxpool3d_backward(da, trace.caches[f"pool{i}"])
        da, dgamma, dbeta = batchnorm_backward(da, t[f"bn{i}.gamma"], trace.caches[f"bn{i}"])
        grads[f"bn{i}.gamma"] = dgamma
        grads[f"bn{i}.beta"] = dbeta
        np.multiply(da, trace.caches[f"relu{i}"], out=da)
        da, dw, db = conv3d_backward(da, trace.caches[f"conv{i}"], need_dx=(i > 1))
        grads[f"conv{i}.weight"] = dw
        grads[f"conv{i}.bias"] = db
    return grads


def predict(params: ModelParams, patches: np.ndarray) -> np.ndarray:
    """Eval-mode probabilities for (B, C, P, P) patches.

    Patches go through the network in tiles of ``EVAL_TILE``.  Eval-mode
    ``forward`` is batch-invariant by construction (per-sample conv GEMMs,
    a fixed-order head reduction, everything else elementwise or reduced
    per sample), so outputs are bitwise identical for any batch split,
    including lone single-patch calls.
    """
    patches = np.asarray(patches)
    out = np.empty(len(patches), dtype=params.dtype)
    for start in range(0, len(patches), EVAL_TILE):
        p, _ = forward(params, patches[start:start + EVAL_TILE, None], mode="eval")
        out[start:start + EVAL_TILE] = p
    return out


def shape_ledger(config: ModelConfig) -> list[tuple[str, tuple]]:
    """Stage-by-stage per-sample activation shapes for an architecture."""
    params = init_params(0, config)
    x = np.zeros((2, 1, config.in_depth, config.patch_size, config.patch_size),
                 dtype=np.float32)
    _, trace = forward(params, x, mode="train", update_running_stats=False)
    return trace.shapes


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    records = []
    for name, arr in tensors.items():
        enc = name.encode("ascii")
        arr = np.asarray(arr, dtype="<f4")
        records.append(struct.pack(f"<H{len(enc)}sB{arr.ndim}I",
                                   len(enc), enc, arr.ndim, *arr.shape))
        records.append(np.ascontiguousarray(arr))
    write_container(path, CHECKPOINT_MAGIC, "<I", (len(tensors),), *records)


def read_checkpoint_tensors(path: str | Path) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        (count,) = read_header(f, path, CHECKPOINT_MAGIC, "<I")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read_exact(f, path, 2))
            name_raw = read_exact(f, path, name_len)
            try:
                name = name_raw.decode("ascii")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: tensor name {name_raw!r} is not ASCII") from None
            rank = read_exact(f, path, 1)[0]
            dims = struct.unpack(f"<{rank}I", read_exact(f, path, 4 * rank))
            payload = np.frombuffer(read_exact(f, path, 4 * math.prod(dims)), dtype="<f4")
            try:
                tensors[name] = payload.reshape(dims).copy()
            except ValueError as e:  # rank above 64, or a size numpy cannot index
                raise FormatError(f"{path}: tensor {name!r} shape {dims}: {e}") from None
        check_size(f, path, 0)
    return tensors


def save_checkpoint(path: str | Path, params: ModelParams,
                    extra: dict[str, np.ndarray] | None = None) -> None:
    """Serialize model tensors (+ architecture metadata, + optional extras
    such as optimizer moments under their own names)."""
    cfg = params.config
    tensors: dict[str, np.ndarray] = {
        "meta.filters": np.asarray(cfg.filters, dtype=np.float32),
        "meta.in_depth": np.float32(cfg.in_depth),
        "meta.patch_size": np.float32(cfg.patch_size),
        "meta.bn_eps": np.float32(cfg.bn_eps),
        "meta.bn_momentum": np.float32(cfg.bn_momentum),
    }
    tensors.update(params.tensors)
    if extra:
        tensors.update(extra)
    write_checkpoint_tensors(path, tensors)


def load_checkpoint(path: str | Path,
                    expected_config: ModelConfig | None = None
                    ) -> tuple[ModelParams, dict[str, np.ndarray]]:
    """Rebuild params (validated against the architecture) plus extras."""
    tensors = read_checkpoint_tensors(path)
    try:
        meta = {k: tensors.pop(f"meta.{k}").ravel().tolist() for k in _META}
    except KeyError as e:
        raise FormatError(f"{path}: missing architecture metadata {e}") from e
    counts = meta["filters"] + meta["in_depth"] + meta["patch_size"]
    if (not meta["filters"] or any(len(meta[k]) != 1 for k in _META[1:])
            or not all(v.is_integer() for v in counts)
            or not (meta["patch_size"][0] >= 1 and meta["patch_size"][0] % 2 == 1)
            or not all(math.isfinite(v) for v in meta["bn_eps"] + meta["bn_momentum"])):
        raise FormatError(f"{path}: architecture metadata {meta} must be finite, "
                          "with integer filters and in_depth and an odd patch_size >= 1")
    config = ModelConfig(
        filters=tuple(int(v) for v in meta["filters"]),  # type: ignore[arg-type]
        in_depth=int(meta["in_depth"][0]),
        patch_size=int(meta["patch_size"][0]),
        bn_eps=meta["bn_eps"][0],
        bn_momentum=meta["bn_momentum"][0],
    )
    # bn_eps and bn_momentum are stored as float32, so compare at that precision
    if expected_config is not None and (
        expected_config.filters != config.filters
        or expected_config.in_depth != config.in_depth
        or expected_config.patch_size != config.patch_size
        or np.float32(expected_config.bn_eps) != np.float32(config.bn_eps)
        or np.float32(expected_config.bn_momentum) != np.float32(config.bn_momentum)
    ):
        raise ShapeMismatchError(
            f"{path}: checkpoint architecture {config} does not match expected {expected_config}"
        )
    shapes = param_shapes(config)
    model_tensors = {}
    for name, shape in shapes.items():
        if name not in tensors:
            raise ShapeMismatchError(f"{path}: missing tensor {name!r}")
        arr = tensors.pop(name)
        if arr.shape != shape:
            raise ShapeMismatchError(
                f"{path}: tensor {name!r} has shape {arr.shape}, architecture needs {shape}"
            )
        model_tensors[name] = arr
    return ModelParams(config, model_tensors), tensors


def describe_checkpoint(path: str | Path) -> str:
    """Human-readable tensor census of a checkpoint."""
    tensors = read_checkpoint_tensors(path)
    lines = []
    for name in sorted(tensors):
        arr = tensors[name]
        lines.append(f"{name:28s} {str(arr.shape):>18s} {arr.size:>8d}")
    conv = sum(1 for n in tensors if n.startswith("conv") and n.endswith(".weight"))
    bn = sum(1 for n in tensors if n.startswith("bn") and n.endswith(".gamma"))
    fc = sum(1 for n in tensors if n.startswith("fc") and n.endswith(".weight"))
    lines.append(f"groups: {conv} conv + {bn} batch-norm + {fc} fully-connected")
    total = sum(t.size for n, t in tensors.items() if not n.startswith(("meta.", "opt.")))
    lines.append(f"parameters: {total}")
    return "\n".join(lines)
