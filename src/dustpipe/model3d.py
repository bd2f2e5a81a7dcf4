"""From-scratch 3D convolutional network with analytic forward and backward.

Architecture: three conv blocks (3x3x3 kernels, same padding, stride 1),
each block ordered conv -> ReLU -> batch norm; 2x2x2 floor-mode max pooling
after blocks one and two; global average pooling; a single fully connected
output unit with sigmoid.  The spectral axis of a C x P x P patch is treated
as convolution depth, so the input tensor is (B, 1, C, P, P) and one kernel
mixes adjacent bands and pixels jointly.

Inside ``forward`` and ``backward`` activations are channels-last,
(B, D, H, W, C).  Every train-mode conv, and every eval conv after block
one, is one spectral 1-D convolution: the block's whole H x W window is
folded into the feature axis, so the 3x3x3 kernel becomes a single
(3*H*W*Cin, H*W*Cout) matrix (zeros where a tap would fall outside the
window) applied to three depth-shifted copies of the input, and its
product is already channels-last.  Batch norm and global pooling reduce
over every axis but the last; max pooling reduces strided views.  One
rule, ``_pool_window``, gives every pooling window and pooled extent, in
training, in the eval plan and in the stage-shape ledger
(``shape_ledger``, still reported per sample as (C, D, H, W) and worked
out from that arithmetic, not from a forward pass).  Checkpoints keep the
(Cout, Cin, 3, 3, 3) kernel layout.

The train step works in place where nothing else reads a buffer.  Batch
norm centres the ReLU output in place (so the ReLU mask is taken before
it) and takes its variance, and the block's backward writes the input
gradient into that centred buffer.  Blocks one and two never scale the
full-size activation: their channels with a negative ``gamma`` are negated
in place (exact), max pooling takes the max of the centred values and
caches each window's first-max offset, one byte per pooled value, and
``inv``, the sign, ``gamma`` and ``beta`` are applied to pooled values
only.  Each of these steps rounds monotonically, so the pooled values, and
every prediction, are bitwise those of pooling the full-size batch-norm
output.  Their backward is one fused step: ``dgamma`` and ``dbeta`` reduce
over the pooled gradient and pooled ``xhat``, and the input gradient takes
two full-size passes over the centred buffer plus each window's gradient
added at its first maximum.  ``backward`` pops each cache from the trace
as it uses it, so block one's buffers are freed as soon as they are
consumed, and a trace is consumed by one ``backward``.

Evaluation has one path, an eval plan (``eval_plan``) built once per
``predict`` or ``predict_scene`` call and run by ``predict_slabs`` over
tiles of at most ``EVAL_TILE`` patches; ``forward`` is the training pass
only.  A tile is a batch of input slabs, each holding th x tw patches: a
stand-alone patch is a slab with th = tw = 1, a scene tile (one of the
``tile_shape`` tiles that ``predict_scene`` walks for scene inference,
evaluation and validation) one slab of th x tw pixels plus a halo of
P - 1.  Floor-mode max pooling never reads the trailing row and column of
an odd extent, so block one keeps (P - 1) x (P - 1) positions per patch,
and the same-padding taps a kept position drops depend only on whether it
is its patch's first (or last) row and col.  So block one has one
(27, Cout) kernel per class of position, and each class runs over the
rectangle of slab positions that some patch of the tile keeps in that
class: a scene position is computed once per class, not once per patch
that shares it.  Every block-one GEMM
is a (D, 27) @ (27, Cout) product for one position, issued as a stacked
matmul, so a position's values do not depend on the tile.  Block one
pools its conv products before bias, ReLU and batch norm (they commute
exactly with max once the channels with a negative scale are negated),
depth first, then each patch's 2 x 2 windows.
Blocks two and three fold their kernel for the positions pooling reads
and run one GEMM per conv over the tile, then ReLU and batch norm from the
running estimates as a tiled per-channel scale ``gamma / sqrt(var + BN_EPS)``
and shift ``beta - mean * scale``, in place, then pooling.  That these
GEMMs give a patch's rows the same bits wherever they sit in a tile is
not structural: it depends on the BLAS summing a row the same way for
every row count.  The test suite checks it on the host that runs it, at
every position of every tile size used, for the architectures it covers.
Training computes every position, because its batch statistics include
them all.

Everything is plain numpy, the output sigmoid included, so the same code
runs in float32 for training and float64 for finite-difference
verification.  Checkpoint container layout (little-endian, framed by
``granule_io``; every record is checked against the bytes left before it
is read):

    b"DCK1" | u32 tensor count | per tensor:
        u16 name length | ASCII name | u8 rank | rank * u32 dims | f32 payload
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import FormatError, ShapeMismatchError
from .granule_io import Records, read_header, write_container
from .patch_index import patch_windows, require_odd

CHECKPOINT_MAGIC = b"DCK1"
KERNEL = 3
POOL = 2
# patches per eval tile, in ``predict`` and ``predict_scene``: blocks two
# and three run one GEMM per conv per tile
EVAL_TILE = 32
# batch norm's variance floor and running-estimate momentum; checkpoints
# store both (as float32) and are refused when they hold other values
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass(frozen=True)
class ModelConfig:
    filters: tuple[int, int, int] = (32, 64, 128)
    in_depth: int = 38   # spectral channels, used as convolution depth
    patch_size: int = 5

    def __post_init__(self):
        require_odd(self.patch_size)
        if len(self.filters) != 3 or any(f < 1 for f in self.filters):
            raise ValueError(f"filters must be three counts >= 1, got {self.filters}")
        if self.in_depth < 1:
            raise ValueError(f"in_depth must be >= 1, got {self.in_depth}")


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
    """Per-layer caches from one ``forward`` pass.

    Per block: the conv's columns and the ReLU mask.  Block three's batch
    norm keeps its normalized ``xhat`` and ``inv``.  Blocks one and two keep
    batch norm's centred activation (each channel with a negative ``gamma``
    negated), ``inv``, the channel signs and the pooled ``xhat`` times the
    sign, and pooling's first-max offsets (one uint8 per pooled value; no
    full-size batch-norm output exists) with the block's shape.
    ``backward`` consumes the caches (it pops each one as it uses it, and
    the cached activation buffer becomes its input gradient), so a trace
    can be back-propagated once only.  Stage shapes come from
    ``shape_ledger``, not from a trace."""

    caches: dict = field(default_factory=dict)


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
        if name.endswith(".weight"):  # fan-in: Cin * 27 for a conv, C for fc
            bound = np.sqrt(1.0 / math.prod(shape[1:]))
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
def _fold_taps(h: int, w: int, oh: int, ow: int):
    """Where the 3x3 spatial taps land when an h x w window is folded into
    the feature axis, for the output positions in its top-left oh x ow
    corner.

    Returns read-only arrays (pin, pout, tap), one entry per pair of
    positions that some tap connects: the flat (row-major) input position
    in the h x w window, the flat output position in the oh x ow corner,
    and the tap ``kh * 3 + kw`` that joins them.  Taps that would read
    outside the window read same-padding zeros, so they have no entry.
    """
    hi, wi, ho, wo = np.meshgrid(np.arange(h), np.arange(w), np.arange(oh), np.arange(ow),
                                 indexing="ij")
    kh = hi - ho + 1
    kw = wi - wo + 1
    inside = (kh >= 0) & (kh < KERNEL) & (kw >= 0) & (kw < KERNEL)
    tables = ((hi * w + wi)[inside], (ho * ow + wo)[inside], (kh * KERNEL + kw)[inside])
    for arr in tables:
        arr.setflags(write=False)
    return tables


class ConvFold(NamedTuple):
    """A conv folded for one h x w window (see ``fold_conv``)."""

    wf: np.ndarray            # (3*h*w*Cin, rows*cols*Cout)
    bias: np.ndarray          # the conv bias tiled rows*cols times
    extent: tuple[int, int]   # (rows, cols) of output positions kept


def fold_conv(weight: np.ndarray, bias: np.ndarray, h: int, w: int,
              extent: tuple[int, int] | None = None) -> ConvFold:
    """Fold a (Cout, Cin, 3, 3, 3) kernel for an h x w window.

    ``wf`` holds each tap where it joins an input position to an output
    position, and zeros where a tap would fall outside the window.  Only
    the output positions in the top-left ``extent`` = (rows, cols) corner
    get columns (default: the whole window), so an eval block whose
    trailing row and column pooling never reads does not compute them.
    """
    rows, cols = extent or (h, w)
    cout, cin = weight.shape[:2]
    pin, pout, tap = _fold_taps(h, w, rows, cols)
    taps = weight.transpose(3, 4, 2, 1, 0).reshape(KERNEL * KERNEL, KERNEL, cin, cout)
    wf = np.zeros((KERNEL, h * w, cin, rows * cols, cout), dtype=weight.dtype)
    wf[:, pin, :, pout, :] = taps[tap]
    return ConvFold(wf.reshape(KERNEL * h * w * cin, rows * cols * cout),
                    np.tile(bias, rows * cols), (rows, cols))


def conv3d_forward(x: np.ndarray, fold: ConvFold):
    """Same-padded 3x3x3 convolution of a (B, D, H, W, Cin) batch, computed
    as one spectral 1-D convolution against ``fold`` (``fold_conv`` of the
    kernel for this H x W window).

    The columns are only three depth-shifted copies of the depth-padded
    input, in depth, row, col, channel order, and the product is already
    channels-last: (B, D, rows, cols, Cout) over the fold's kept extent.
    One GEMM covers the whole batch.
    """
    b, d, h, w, cin = x.shape
    xp = np.zeros((b, d + 2, h * w * cin), dtype=x.dtype)
    xp[:, 1:-1] = x.reshape(b, d, -1)
    # row (b, z) of the columns is the contiguous run xp[b, z:z + 3]; the
    # reshape copies the overlapping view into a BLAS-eligible matrix
    sb, sd, sk = xp.strides
    cols = as_strided(xp, shape=(b, d, KERNEL * h * w * cin), strides=(sb, sd, sk),
                      writeable=False).reshape(b * d, -1)
    out = cols @ fold.wf
    out += fold.bias
    return out.reshape(b, d, *fold.extent, -1), (cols, fold.wf)


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
    pin, pout, tap = _fold_taps(h, w, h, w)
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


def _pool_window(n: int) -> tuple[int, int]:
    """(window, pooled extent) of floor-mode max pooling along an axis of
    extent ``n``: a window and stride of ``POOL``, clamped to a shorter
    axis, so an axis of 1 is kept as it is."""
    win = min(POOL, n)
    return win, n // win


def _pool_views(x: np.ndarray):
    """Strided views of ``x``, one per offset inside its 2x2x2, stride 2,
    floor-mode pooling window over (D, H, W) (``_pool_window`` per axis),
    in depth, row, col order; view k holds the k-th element of every
    window."""
    wins, outs = zip(*map(_pool_window, x.shape[1:4]))
    trimmed = x[:, :outs[0] * wins[0], :outs[1] * wins[1], :outs[2] * wins[2]]
    for a, bb, cc in itertools.product(*map(range, wins)):
        yield trimmed[:, a::wins[0], bb::wins[1], cc::wins[2]]


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


def batchnorm_forward(x, running_mean, running_var, *, update_running: bool):
    """Train-mode batch norm's statistics over the last (channel) axis of a
    channels-last batch, computed on its row view.

    Centres ``x`` in place with the batch mean and takes the batch variance
    (and with ``update_running`` moves the running estimates toward them by
    ``BN_MOMENTUM``), so a caller that needs the input afterwards must copy
    it first.  Returns the centred ``x`` and the per-channel
    ``inv = 1 / sqrt(var + BN_EPS)``.  Scaling by ``inv`` and the affine
    are left to the caller: ``forward`` scales block three's whole
    activation into ``xhat`` and applies ``gamma * xhat + beta`` to it, and
    ``maxpool3d_forward`` applies both to pooled values only after blocks
    one and two.  Eval mode applies the running estimates as the eval
    plan's per-channel scale and shift instead.
    """
    c = x.shape[-1]
    hw = x.shape[2] * x.shape[3]
    x2 = _rows(x)
    m = x.size // c
    mean = _channel_sum(x2, c) / m
    x2 -= np.tile(mean, hw)
    var = _channel_sum(x2, c, x2) / m
    if update_running:
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    return x, 1.0 / np.sqrt(var + BN_EPS)


def batchnorm_backward(dy, gamma, cache):
    """Gradients through block three's train-mode batch norm (batch
    statistics), from the gradient at the affine's output and the cached
    ``(xhat, inv)``.  The input gradient is written into the cached
    ``xhat`` buffer, so a cache serves one backward only."""
    xhat, inv = cache
    c = dy.shape[-1]
    hw = dy.shape[2] * dy.shape[3]
    dy2 = _rows(dy)
    dx = _rows(xhat)
    dgamma = _channel_sum(dy2, c, dx)
    dbeta = _channel_sum(dy2, c)
    # dx = gamma * inv * (dy - dbeta / m - xhat * dgamma / m)
    m = dy.size // c
    dx *= np.tile(-dgamma / m, hw)
    dx += dy2
    dx -= np.tile(dbeta / m, hw)
    dx *= np.tile(gamma * inv, hw)
    return dx.reshape(dy.shape), dgamma, dbeta


# the first-max offset of a window whose max is NaN: it matches no view, so
# the window's gradient goes nowhere
_NAN_WINDOW = 255


def maxpool3d_forward(c: np.ndarray, inv: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Batch norm's scale and affine and max pooling over ``_pool_views``,
    for blocks one and two: the pooled ``gamma * c * inv + beta`` of the
    centred activation ``c`` that ``batchnorm_forward`` returns (with its
    ``inv``), computed on pooled values only.

    The channels with a negative ``gamma`` are negated in ``c``, in place
    (exact), so that the affine is non-decreasing in every channel.  The
    running max then takes the views in order, with each window's first
    maximum, and ``inv``, the sign, ``gamma`` and ``beta`` are applied to
    the pooled values.  Each of these steps rounds to nearest and never
    decreases, so it commutes with max: the output is bitwise the pooled
    full-size affine.  Returns the output, pooling's cache (the offset k
    of each window's first maximum in view order as one uint8,
    ``_NAN_WINDOW`` where the max is NaN, and the shape of ``c``) and batch
    norm's cache (``c``, now signed, ``inv``, the per-channel sign, and
    ``xhat`` times the sign at each window's first maximum).
    """
    sign = np.where(gamma < 0, -1, 1).astype(c.dtype)
    if (gamma < 0).any():
        c2 = _rows(c)
        c2 *= np.tile(sign, c.shape[2] * c.shape[3])
    views = _pool_views(c)
    y = next(views).copy()
    t = np.empty_like(y)
    hit = np.empty(y.shape, dtype=bool)
    first = np.zeros(y.shape, dtype=np.uint8)
    for k, view in enumerate(views, start=1):
        # one contiguous copy of the strided view serves both reads
        np.copyto(t, view)
        # only a strictly greater value moves a window's max, so ties keep
        # the first; k grows with the view, so the max of k * hit records it
        np.greater(t, y, out=hit)
        np.maximum(y, t, out=y)
        moved = hit.view(np.uint8)
        moved *= k
        np.maximum(first, moved, out=first)
    first[np.isnan(y)] = _NAN_WINDOW
    phw = y.shape[2] * y.shape[3]
    xhat = _rows(y)
    xhat *= np.tile(inv, phw)
    out = xhat * np.tile(sign * gamma, phw)
    out += np.tile(beta, phw)
    return out.reshape(y.shape), (first, c.shape), (c, inv, sign, y)


def maxpool3d_backward(dy: np.ndarray, gamma: np.ndarray, pool_cache, bn_cache):
    """Gradients through a pooled block's max pooling and batch norm (see
    ``maxpool3d_forward``), from the gradient ``dy`` at the pooled output.

    ``dgamma`` and ``dbeta`` reduce over ``dy`` and the cached pooled
    ``xhat``: only each window's first maximum receives a gradient.  With
    G = ``gamma * inv``, the input gradient ``G * scatter(dy) - G * dbeta /
    m - G * inv * dgamma / m * c`` is written into the cached centred
    buffer ``c``: two full-size passes, then each window's ``G * dy`` added
    at its first maximum (none for a NaN window).  A cache serves one
    backward only.
    """
    first, shape = pool_cache
    c, inv, sign, xhat = bn_cache
    ch = shape[-1]
    m = c.size // ch
    dy2 = _rows(dy)
    dbeta = _channel_sum(dy2, ch)
    # the pooled values are sign * xhat and the buffer is sign * c, so the
    # sign of dgamma cancels in the buffer's coefficient
    signed_dgamma = _channel_sum(dy2, ch, _rows(xhat))
    g = gamma * inv
    hw = shape[2] * shape[3]
    dx = _rows(c)
    dx *= np.tile(-(g * inv) * signed_dgamma / m, hw)
    dx -= np.tile(g * dbeta / m, hw)
    gdy = (dy2 * np.tile(g, dy.shape[2] * dy.shape[3])).reshape(dy.shape)
    hit = np.empty(first.shape, dtype=bool)
    t = np.empty_like(gdy)
    # each element of the pooled extent lies in exactly one view
    for k, view in enumerate(_pool_views(c)):
        np.equal(first, k, out=hit)
        np.multiply(gdy, hit, out=t)
        view += t
    return c, signed_dgamma * sign, dbeta


def global_avgpool_forward(x: np.ndarray):
    return x.mean(axis=(1, 2, 3)), (x.shape,)


def global_avgpool_backward(dy: np.ndarray, cache):
    (x_shape,) = cache
    _, d, h, w, _ = x_shape
    return np.broadcast_to(dy[:, None, None, None, :] / (d * h * w), x_shape).astype(dy.dtype)


# ---------------------------------------------------------------------------
# Full network
# ---------------------------------------------------------------------------


def _checked_shape(params: ModelParams, x, channel_axis: bool = True) -> np.ndarray:
    """``x`` as an array, required to be a (B, 1, C, P, P) batch, or
    (B, C, P, P) without ``channel_axis``."""
    cfg = params.config
    x = np.asarray(x)
    sample = (1,) * channel_axis + (cfg.in_depth, cfg.patch_size, cfg.patch_size)
    if x.ndim != len(sample) + 1 or x.shape[1:] != sample:
        raise ShapeMismatchError(
            f"expected input (B, {', '.join(map(str, sample))}), got {x.shape}")
    return x


def finite_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Check network input ``x`` finite and return it in the params' dtype;
    ``ValueError`` otherwise."""
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in network input")
    return x if x.dtype == params.dtype else x.astype(params.dtype)


def admit_granule(name: str | Path, data: np.ndarray, config: ModelConfig) -> None:
    """The one rule for a (C, H, W) granule that enters a ``config`` model:
    ``ShapeMismatchError`` unless C is ``in_depth``, then ``FormatError``
    (also a ``ValueError``) unless every value is finite in [0, 1], the
    range ``dustpipe preprocess`` emits.  ``name`` leads both messages.
    ``training`` admits every granule of a manifest through it and
    ``inference.infer_scene`` its one granule.  ``forward`` and ``predict``
    take patches, not granules, and check only that they are finite
    (``finite_input``), so the finite-difference checks can feed them any
    values.  One ``min`` and one ``max``, no granule-sized mask: NaN fails
    both comparisons."""
    if data.shape[0] != config.in_depth:
        raise ShapeMismatchError(
            f"{name}: {data.shape[0]} channels, the model expects {config.in_depth}")
    if data.size and not (data.min() >= 0.0 and data.max() <= 1.0):
        raise FormatError(f"{name}: values not finite in [0, 1]; the model takes "
                          "preprocessed granules (dustpipe preprocess)")


def _head(pooled: np.ndarray, t: dict) -> np.ndarray:
    # elementwise product and row sum rather than a matrix-vector product,
    # whose summation order the BLAS may change with the batch size
    z = (pooled * t["fc.weight"][0]).sum(axis=1) + t["fc.bias"][0]
    # a very negative logit overflows exp to inf, and its probability to exactly 0
    with np.errstate(over="ignore"):
        return 1 / (1 + np.exp(-z))


class _BlockOne(NamedTuple):
    """Block one's eval constants (see ``eval_plan`` and ``_block_one``)."""

    runs: tuple           # a patch's kept rows (= cols) as runs (first, last) of one class
    kernels: np.ndarray   # (runs ** 2, 27, Cout): per (row run, col run), row-major, that
                          # class's kernel, each channel times its sign
    windows: tuple        # per pooled position, row-major: its window's elements as
                          # (class, row, col), counted from the class's first row and col
    epilogue: np.ndarray  # per channel its sign, conv bias, scale and shift, each
                          # tiled over the out x out pooled positions
    out: int              # pooled rows (= cols) per patch


class _EvalBlock(NamedTuple):
    fold: ConvFold
    scale: np.ndarray   # gamma / sqrt(running_var + BN_EPS), tiled over kept positions
    shift: np.ndarray   # beta - running_mean * scale, tiled likewise
    pooled: bool        # max pooling follows


class EvalPlan(NamedTuple):
    """Eval constants built once per ``predict`` call or scene (``eval_plan``)."""

    one: _BlockOne
    rest: list[_EvalBlock]   # blocks two and three
    tensors: dict            # the params' tensors, for the head


def _eval_bn(params: ModelParams, i: int):
    """Block ``i``'s eval batch norm as a per-channel scale and shift."""
    t = params.tensors
    scale = t[f"bn{i}.gamma"] / np.sqrt(t[f"bn{i}.running_var"] + BN_EPS)
    return scale, t[f"bn{i}.beta"] - t[f"bn{i}.running_mean"] * scale


@lru_cache(maxsize=None)
def _block_one_layout(size: int):
    """Block one's kept positions for a ``size`` patch: the runs of rows
    that share a class, a (runs ** 2, 27, 1) mask of the taps each class
    keeps, the pooling windows (see ``_BlockOne``) and the pooled extent."""
    win, out = _pool_window(size)
    keep = out * win
    # a row's class: is it the first row (it drops the kh = 0 taps), is it
    # the last (it drops the kh = 2 taps); an odd patch keeps no last row
    # but at P = 1, so its rows fall into at most two runs
    runs = ((0, 0), (1, keep - 1)) if keep > 1 else ((0, 0),)
    k = np.arange(KERNEL)
    taps = [(k >= (first == 0)) & (k < KERNEL - (last == size - 1)) for first, last in runs]
    mask = np.stack([np.broadcast_to(kh[:, None] & kw, (KERNEL,) * 3).ravel()
                     for kh in taps for kw in taps])[:, :, None]
    run_of = [i for i, (first, last) in enumerate(runs) for _ in range(first, last + 1)]
    windows = tuple(
        tuple((run_of[r] * len(runs) + run_of[c], r - runs[run_of[r]][0], c - runs[run_of[c]][0])
              for r in range(win * i, win * i + win) for c in range(win * j, win * j + win))
        for i in range(out) for j in range(out))
    mask.setflags(write=False)
    return runs, mask, windows, out


def eval_plan(params: ModelParams) -> EvalPlan:
    """Each block's eval constants, built once per ``predict`` call or scene.

    Block one keeps only the positions that floor-mode pooling reads (eval
    batch norm is elementwise), 4 x 4 of 5 x 5 at P = 5.  The same-padding
    taps a kept position drops depend only on whether it is its patch's
    first or last row and col, so its rows (and cols) fall into runs of
    one class, and block one gets one (27, Cout) kernel per pair of runs:
    four at P >= 3, and the centre taps only at P = 1.  Blocks two and
    three fold their kernel for the positions pooling reads.  Depth is not
    trimmed.
    """
    t = params.tensors
    runs, mask, windows, size = _block_one_layout(params.config.patch_size)
    scale, shift = _eval_bn(params, 1)
    sign = np.where(scale < 0, -1, 1).astype(scale.dtype)
    taps = t["conv1.weight"][:, 0].reshape(-1, KERNEL ** 3).T * sign
    kernels = np.where(mask, taps, 0)
    one = _BlockOne(runs, kernels, windows,
                    np.tile(np.stack([sign, t["conv1.bias"], scale, shift]), size * size),
                    size)
    rest = []
    for i in (2, 3):
        pooled = i == 2
        win, out = _pool_window(size)
        keep = out * win if pooled else size
        scale, shift = _eval_bn(params, i)
        fold = fold_conv(t[f"conv{i}.weight"], t[f"conv{i}.bias"], size, size, (keep, keep))
        rest.append(_EvalBlock(fold, np.tile(scale, keep * keep), np.tile(shift, keep * keep),
                               pooled))
        if pooled:
            size = out
    return EvalPlan(one, rest, t)


def _depth_max(y: np.ndarray, dd: int) -> np.ndarray:
    """Max over depth pairs of (..., D, C) values: dd of them, or the values
    themselves where depth is not pooled (dd = D)."""
    return y if dd == y.shape[-2] else np.maximum(y[..., 0:2 * dd:2, :], y[..., 1:2 * dd:2, :])


def _window_max(views: list, out: np.ndarray) -> np.ndarray:
    """Elementwise max of one pooling window's views into ``out``, taken in
    the order given: (0, 0), (0, 1), (1, 0), (1, 1) for block one's 2 x 2
    windows, ``_pool_views`` order for block two's."""
    np.copyto(out, views[0])
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def _block_one(one: _BlockOne, slabs: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Block one for the th x tw patches of each (D, th + P - 1, tw + P - 1)
    slab of a (B, D, ., .) batch; a stand-alone patch is a slab with
    th = tw = 1.  Returns the (B * th * tw, D', k, k, Cout) input of block
    two, patches in row-major order within each slab.

    Each class's kernel runs over the rectangle of slab positions that
    some patch of the tile keeps in that class, so a position shared by
    neighbouring patches is computed once per class, not once per patch.
    Every GEMM is a (D, 27) @ (27, Cout) product for one position and one
    class, issued as a stacked matmul, and row d is always depth d: a
    position's values are bitwise the same whichever slab, tile or batch
    computes them.

    Pooling runs on the conv products, before bias, ReLU, scale and shift:
    adding, ReLU and scaling by s >= 0 are non-decreasing under rounding,
    so they commute exactly with max.  A channel whose scale is negative
    has its kernel negated (exact), so its max is the conv's minimum, and
    its sign is restored before the bias.  So the epilogue runs on pooled
    values only.
    """
    b, d, h, w = slabs.shape
    runs = one.runs
    nr, nc = runs[-1][1] + th, runs[-1][1] + tw   # positions on the slab's grid
    # spatial-major copy with a zero border in depth, rows and cols
    xp = np.zeros((b, h + 2, w + 2, d + 2), dtype=slabs.dtype)
    xp[:, 1:-1, 1:-1, 1:-1] = slabs.transpose(0, 2, 3, 1)
    # n9[..., z, kh * 3 + kw] is the 3 x 3 neighbourhood at padded depth z,
    # so the 27 columns of row (position, depth d) are the contiguous run
    # n9[..., d:d + 3, :] in (kd, kh, kw) order
    n9 = np.empty((b, nr, nc, d + 2, KERNEL * KERNEL), dtype=slabs.dtype)
    for kh in range(KERNEL):
        for kw in range(KERNEL):
            n9[..., kh * KERNEL + kw] = xp[:, kh:kh + nr, kw:kw + nc]
    cols = as_strided(n9, shape=(b, nr, nc, d, KERNEL ** 3), strides=n9.strides,
                      writeable=False).copy()

    dd = _pool_window(d)[1]
    k = one.out
    cout = one.kernels.shape[-1]
    a = np.empty((b, th, tw, dd, k, k, cout), dtype=slabs.dtype)
    arrays = [_depth_max(np.matmul(cols[:, rf:rl + th, cf:cl + tw], kernel), dd)
              for kernel, ((rf, rl), (cf, cl)) in zip(one.kernels,
                                                      itertools.product(runs, repeat=2))]
    for (i, j), window in zip(itertools.product(range(k), repeat=2), one.windows):
        _window_max([arrays[q][:, r:r + th, c:c + tw] for q, r, c in window], a[..., i, j, :])
    a = a.reshape(b * th * tw, dd, k, k, -1)
    sign, bias, scale, shift = one.epilogue
    a2 = _rows(a)
    a2 *= sign
    a2 += bias
    np.maximum(a2, 0, out=a2)
    a2 *= scale
    a2 += shift
    return a


def _run_blocks(plan: EvalPlan, a: np.ndarray) -> np.ndarray:
    """Blocks two and three and the head, for one tile of block-one outputs:
    per block one GEMM over the tile, then ReLU, scale and shift in place
    on its product, then, after block two, the value max of its
    ``_pool_views`` (``_window_max``; eval routes no gradient, so it keeps
    no first-max offsets).  A conv over a single (B * D = 1) row runs it
    beside a zero row and keeps the first: numpy sends a one-row product
    to the BLAS's matrix-vector kernel, which may sum in another order
    than the GEMM that every other tile size takes."""
    for block in plan.rest:
        lone = a.shape[0] * a.shape[1] == 1
        y, _ = conv3d_forward(np.concatenate([a, np.zeros_like(a)]) if lone else a, block.fold)
        y = y[:1] if lone else y
        y2 = _rows(y)
        np.maximum(y2, 0, out=y2)
        y2 *= block.scale
        y2 += block.shift
        a = y
        if block.pooled:
            views = list(_pool_views(y))
            a = _window_max(views, np.empty(views[0].shape, dtype=y.dtype))
    pooled, _ = global_avgpool_forward(a)
    return _head(pooled, plan.tensors)


def predict_slabs(plan: EvalPlan, slabs: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Eval-mode probabilities for one tile: the th x tw patches centred in
    each (D, th + P - 1, tw + P - 1) slab of a (B, D, ., .) batch, in the
    plan's dtype; row-major within each slab.  A tile holds at most
    ``EVAL_TILE`` patches, the sizes at which the test suite checks that
    the GEMMs of blocks two and three give each row the same bits wherever
    it sits.
    """
    if len(slabs) * th * tw > EVAL_TILE:
        raise ValueError(f"a tile holds at most {EVAL_TILE} patches, got {len(slabs) * th * tw}")
    return _run_blocks(plan, _block_one(plan.one, slabs, th, tw))


def tile_shape(rows: int, cols: int, batch_size: int) -> tuple[int, int]:
    """(height, width) of the tiles that cover a rows x cols interior: at
    most ``min(batch_size, EVAL_TILE)`` pixels, about twice as wide as high
    (4 x 8 for 32), clipped to the interior.  At P >= 3 block one computes
    (2 * height + P - 3) * (2 * width + P - 3) class positions per tile, so
    the squarer the tile, the fewer per pixel."""
    n = min(batch_size, EVAL_TILE)
    width = min(cols, n // max(1, math.isqrt(n // 2)))
    return min(rows, n // width), width


def predict_scene(params: ModelParams, data: np.ndarray, want: np.ndarray | None = None,
                  batch_size: int = EVAL_TILE) -> np.ndarray:
    """Eval-mode probabilities for the patch centred on each pixel of a
    (C, H, W) volume, as an (H, W) map in the params' dtype: NaN on the
    border band where no full patch fits and, given an (H, W) boolean
    ``want``, at every centre where it is False.

    One eval plan is built per call.  The interior is walked row-major in
    tiles of ``tile_shape(..., batch_size)``, the last row and column of
    tiles clipped to it.  A tile whose centres are all wanted runs as one
    slab, the volume's rows y to y + ty + P - 2 and cols x to x + tx + P - 2:
    exactly the pixels its patches read, so block one is computed once per
    shared position.  Every other wanted centre is gathered from
    ``patch_windows``, ``EVAL_TILE`` at a time, and run as one-pixel slabs.
    Either way a centre gets the bits of a lone ``predict`` call on its
    patch (see ``predict``).  The volume is cast to the params' dtype (no
    copy for a float32 volume and checkpoint) and not checked: it must be
    finite, as its callers check whole granules to be (``infer_scene`` and
    ``training._admit``).
    """
    p = params.config.patch_size
    h = p // 2
    out = np.full(data.shape[1:], np.nan, dtype=params.dtype)
    rows, cols = out.shape[0] - p + 1, out.shape[1] - p + 1
    if rows < 1 or cols < 1:
        return out
    interior = out[h:h + rows, h:h + cols]
    data = data.astype(params.dtype, copy=False)
    rest = (np.ones((rows, cols), dtype=bool) if want is None
            else np.array(want[h:h + rows, h:h + cols], dtype=bool))
    plan = eval_plan(params)
    th, tw = tile_shape(rows, cols, batch_size)
    for y in range(0, rows, th):
        for x in range(0, cols, tw):
            tile = rest[y:y + th, x:x + tw]
            if tile.all():
                ty, tx = tile.shape
                slab = data[None, :, y:y + ty + p - 1, x:x + tx + p - 1]
                interior[y:y + ty, x:x + tx] = predict_slabs(plan, slab, ty, tx).reshape(ty, tx)
                tile[...] = False
    ys, xs = np.nonzero(rest)
    windows = patch_windows(data, p)
    for start in range(0, len(ys), EVAL_TILE):
        y, x = ys[start:start + EVAL_TILE], xs[start:start + EVAL_TILE]
        interior[y, x] = predict_slabs(plan, windows[y, x], 1, 1)
    return out


def forward(params: ModelParams, x: np.ndarray, mode: str = "train",
            update_running_stats: bool = True):
    """The training pass on a (B, 1, C, P, P) batch.

    Returns per-sample probabilities in (0, 1) plus a trace holding what
    ``backward`` needs.  Batch norm normalizes with batch statistics (and
    with ``update_running_stats`` updates the running estimates in place).
    ``mode`` must be ``"train"``: evaluation runs ``predict``.
    """
    if mode != "train":
        raise ValueError(f"forward runs the training pass only (mode 'train'), got {mode!r}; "
                         "evaluate with predict")
    x = finite_input(params, _checked_shape(params, x))
    # the single input channel moves last: (B, 1, D, P, P) -> (B, D, P, P, 1)
    a = x.reshape(x.shape[0], *x.shape[2:], 1)
    t = params.tensors

    trace = ForwardTrace()
    for i in (1, 2, 3):
        fold = fold_conv(t[f"conv{i}.weight"], t[f"conv{i}.bias"], *a.shape[2:4])
        y, trace.caches[f"conv{i}"] = conv3d_forward(a, fold)
        np.maximum(y, 0, out=y)
        # the mask must be taken first: batch norm centres y in place
        trace.caches[f"relu{i}"] = y > 0
        c, inv = batchnorm_forward(y, t[f"bn{i}.running_mean"], t[f"bn{i}.running_var"],
                                   update_running=update_running_stats)
        gamma, beta = t[f"bn{i}.gamma"], t[f"bn{i}.beta"]
        if i < 3:
            a, trace.caches[f"pool{i}"], trace.caches[f"bn{i}"] = maxpool3d_forward(
                c, inv, gamma, beta)
        else:
            c *= inv   # c becomes xhat
            trace.caches[f"bn{i}"] = (c, inv)
            a = c * gamma
            a += beta

    pooled, trace.caches["avgpool"] = global_avgpool_forward(a)
    preds = _head(pooled, t)
    trace.caches["fc"] = pooled
    trace.caches["sigmoid"] = preds
    return preds, trace


def backward(params: ModelParams, trace: ForwardTrace,
             dpreds: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every trainable tensor.

    ``dpreds`` is the loss gradient at the sigmoid output, one value per
    sample.  It consumes ``trace``: each cache is popped as it is used, so
    a layer's buffers are freed as soon as its gradient is taken, and batch
    norm writes its input gradient into its cached buffer.  A second call
    on the same trace raises ``ValueError``.  ``params`` is not modified.
    """
    t = params.tensors
    caches = trace.caches
    if "sigmoid" not in caches:
        raise ValueError("backward needs a trace from forward that no earlier backward "
                         "consumed; run forward again")
    if dpreds.shape != caches["sigmoid"].shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {dpreds.shape} does not match "
            f"predictions {caches['sigmoid'].shape}"
        )
    grads: dict[str, np.ndarray] = {}

    s = caches.pop("sigmoid")
    dz = (dpreds * s * (1.0 - s))[:, None]
    pooled = caches.pop("fc")
    grads["fc.weight"] = dz.T @ pooled
    grads["fc.bias"] = dz.sum(axis=0)
    dpooled = dz @ t["fc.weight"]

    da = global_avgpool_backward(dpooled, caches.pop("avgpool"))
    for i in (3, 2, 1):
        gamma = t[f"bn{i}.gamma"]
        if i < 3:
            da, dgamma, dbeta = maxpool3d_backward(da, gamma, caches.pop(f"pool{i}"),
                                                   caches.pop(f"bn{i}"))
        else:
            da, dgamma, dbeta = batchnorm_backward(da, gamma, caches.pop(f"bn{i}"))
        grads[f"bn{i}.gamma"] = dgamma
        grads[f"bn{i}.beta"] = dbeta
        np.multiply(da, caches.pop(f"relu{i}"), out=da)
        da, dw, db = conv3d_backward(da, caches.pop(f"conv{i}"), need_dx=(i > 1))
        grads[f"conv{i}.weight"] = dw
        grads[f"conv{i}.bias"] = db
    return grads


def predict(params: ModelParams, patches: np.ndarray) -> np.ndarray:
    """Eval-mode probabilities for (B, C, P, P) patches, each checked
    finite (``ValueError`` otherwise).

    One eval plan (``eval_plan``) is built per call, and patches go
    through it in tiles of ``EVAL_TILE``, each patch as a one-pixel slab
    of ``predict_slabs``, the function that ``predict_scene`` runs on
    tiles of a volume.  Block one's values do not depend on the batch
    split, by construction: it runs one GEMM shape per position.
    Blocks two and three run one GEMM per conv over a tile, so a patch's
    probability is bitwise the same for any batch split, lone single-patch
    calls included, only if the BLAS gives each row the same bits wherever
    it sits in a tile.
    The test suite checks this on the host that runs it, at every tile
    size used, for the architectures it covers; another BLAS or
    architecture may differ in the last bits.
    """
    patches = _checked_shape(params, patches, channel_axis=False)
    plan = eval_plan(params)
    out = np.empty(len(patches), dtype=params.dtype)
    for start in range(0, len(patches), EVAL_TILE):
        tile = finite_input(params, patches[start:start + EVAL_TILE])
        out[start:start + EVAL_TILE] = predict_slabs(plan, tile, 1, 1)
    return out


def shape_ledger(config: ModelConfig) -> list[tuple[str, tuple]]:
    """Stage-by-stage per-sample (C, D, H, W) activation shapes of the
    training pass for an architecture: each same-padded conv keeps the
    extent, and each max pool takes every axis to its ``_pool_window``
    pooled extent."""
    dims = (config.in_depth, config.patch_size, config.patch_size)
    ledger = [("input", (1, *dims))]
    for i, c in enumerate(config.filters, start=1):
        ledger.append((f"block{i}", (c, *dims)))
        if i < 3:
            dims = tuple(_pool_window(n)[1] for n in dims)
            ledger.append((f"pool{i}", (c, *dims)))
    return ledger + [("avgpool", (config.filters[-1], 1, 1, 1)), ("output", ())]


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
        records = Records(f, path)
    for _ in range(count):
        (name_len,) = struct.unpack("<H", records.take(2))
        name_raw = bytes(records.take(name_len))
        try:
            name = name_raw.decode("ascii")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name {name_raw!r} is not ASCII") from None
        rank = records.take(1)[0]
        dims = struct.unpack(f"<{rank}I", records.take(4 * rank))
        payload = np.frombuffer(records.take(4 * math.prod(dims)), dtype="<f4")
        try:
            tensors[name] = payload.reshape(dims).copy()
        except ValueError as e:  # rank above 64, or a size numpy cannot index
            raise FormatError(f"{path}: tensor {name!r} shape {dims}: {e}") from None
    records.check_end()
    return tensors


def _meta(config: ModelConfig) -> dict[str, np.ndarray]:
    """The architecture metadata a checkpoint of ``config`` stores, as the
    float32 ``meta.*`` tensors in file order: ``filters`` (rank 1), then
    ``in_depth``, ``patch_size``, ``BN_EPS`` and ``BN_MOMENTUM`` (rank 0)."""
    return {
        "meta.filters": np.asarray(config.filters, dtype=np.float32),
        "meta.in_depth": np.float32(config.in_depth),
        "meta.patch_size": np.float32(config.patch_size),
        "meta.bn_eps": np.float32(BN_EPS),
        "meta.bn_momentum": np.float32(BN_MOMENTUM),
    }


def save_checkpoint(path: str | Path, params: ModelParams,
                    extra: dict[str, np.ndarray] | None = None) -> None:
    """Serialize ``_meta(params.config)``, then the model tensors, then the
    optional extras (such as optimizer moments) under their own names."""
    write_checkpoint_tensors(path, {**_meta(params.config), **params.tensors, **(extra or {})})


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict[str, np.ndarray]]:
    """Rebuild params (validated against the architecture) plus extras.

    The ``meta.*`` tensors must be what ``save_checkpoint`` writes for the
    ``ModelConfig`` they name, in shape and values; otherwise
    ``FormatError``, naming the first one that differs and both shapes."""
    tensors = read_checkpoint_tensors(path)
    try:
        meta = {k: tensors.pop(k) for k in _meta(ModelConfig())}
    except KeyError as e:
        raise FormatError(f"{path}: missing architecture metadata {e}") from e
    try:
        config = ModelConfig(tuple(map(int, meta["meta.filters"].flat)),  # type: ignore[arg-type]
                             int(meta["meta.in_depth"].flat[0]),
                             int(meta["meta.patch_size"].flat[0]))
    except (ValueError, OverflowError, IndexError) as e:
        raise FormatError(f"{path}: architecture metadata: {e}") from None
    for name, want in _meta(config).items():
        if meta[name].shape != want.shape or not np.array_equal(meta[name], want):
            got, want = (f"[{', '.join(map(str, a.ravel()))}] of shape {a.shape}"
                         for a in (meta[name], want))
            raise FormatError(f"{path}: architecture metadata {name} is {got}, but a "
                              f"checkpoint of {config} stores {want}")
    model_tensors = {}
    for name, shape in param_shapes(config).items():
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
