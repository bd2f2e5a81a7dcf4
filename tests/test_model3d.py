"""Network layers and assembly: shape contracts, analytic gradients against
finite differences, pooling/batch-norm properties, and checkpoints."""

import ast
import re
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dustpipe
from dustpipe import model3d
from dustpipe.bench import run_fresh
from dustpipe.errors import (
    BadMagicError,
    FormatError,
    ShapeMismatchError,
    TruncatedFileError,
)
from dustpipe.model3d import (
    ForwardTrace,
    ModelConfig,
    ModelParams,
    backward,
    batchnorm_forward,
    conv3d_backward,
    conv3d_forward,
    describe_checkpoint,
    fold_conv,
    forward,
    global_avgpool_backward,
    global_avgpool_forward,
    init_params,
    load_checkpoint,
    maxpool3d_backward,
    maxpool3d_forward,
    predict,
    read_checkpoint_tensors,
    save_checkpoint,
    shape_ledger,
    trainable_names,
    write_checkpoint_tensors,
)
from dustpipe.training import LossConfig, wmse_loss

TINY = ModelConfig(filters=(2, 3, 4), in_depth=6, patch_size=3)
SMALL_MODEL = ModelConfig(filters=(3, 4, 5), in_depth=6, patch_size=5)


def expected_shapes(config: ModelConfig):
    """Independent stage-shape calculator from conv/pool arithmetic."""
    def pool(dims):
        return tuple(d // 2 if d >= 2 else d for d in dims)

    dims = (config.in_depth, config.patch_size, config.patch_size)
    stages = [("input", (1, *dims))]
    for i, f in enumerate(config.filters, start=1):
        stages.append((f"block{i}", (f, *dims)))  # same padding keeps dims
        if i < len(config.filters):
            dims = pool(dims)
            stages.append((f"pool{i}", (config.filters[i - 1], *dims)))
    stages.append(("avgpool", (config.filters[-1], 1, 1, 1)))
    stages.append(("output", ()))
    return stages


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(3)
        b = init_params(3)
        c = init_params(4)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])
        assert not np.array_equal(a.tensors["conv1.weight"], c.tensors["conv1.weight"])

    def test_block1_kernel_census(self):
        params = init_params(0)
        assert params.tensors["conv1.weight"].size == 32 * 1 * 27 == 864

    def test_kernels_within_fan_in_bound(self):
        params = init_params(5)
        for i, in_ch in enumerate([1, 32, 64], start=1):
            bound = np.sqrt(1.0 / (in_ch * 27))
            w = params.tensors[f"conv{i}.weight"]
            assert np.abs(w).max() <= bound
        assert np.abs(params.tensors["fc.weight"]).max() <= np.sqrt(1.0 / 128)

    def test_identity_batchnorm_and_zero_biases(self):
        params = init_params(1)
        for i in (1, 2, 3):
            assert (params.tensors[f"bn{i}.gamma"] == 1).all()
            assert (params.tensors[f"bn{i}.beta"] == 0).all()
            assert (params.tensors[f"bn{i}.running_mean"] == 0).all()
            assert (params.tensors[f"bn{i}.running_var"] == 1).all()
            assert (params.tensors[f"conv{i}.bias"] == 0).all()
        assert (params.tensors["fc.bias"] == 0).all()


class TestConfig:
    @pytest.mark.parametrize("fields", [
        dict(filters=()), dict(filters=(0, 4, 4)), dict(filters=(-1, 4, 4)),
        dict(filters=(3, 4, 0)), dict(in_depth=0), dict(in_depth=-2),
        dict(filters=(4, 4)), dict(filters=(2, 3, 4, 5)),
    ], ids=["no-filters", "zero-filter", "negative-filter", "zero-last-filter",
            "zero-depth", "negative-depth", "two-filters", "four-filters"])
    def test_empty_or_non_positive_counts_rejected(self, fields):
        with pytest.raises(ValueError):
            ModelConfig(**fields)

    @pytest.mark.parametrize("patch_size", [4, 0, -1, -3])
    def test_even_or_non_positive_patch_size_rejected(self, patch_size):
        with pytest.raises(ValueError, match="^patch_size "):
            ModelConfig(patch_size=patch_size)


class TestForward:
    def test_outputs_strictly_inside_unit_interval(self):
        params = init_params(7)
        x = np.random.default_rng(0).uniform(0, 1, (9, 1, 38, 5, 5)).astype(np.float32)
        preds, _ = forward(params, x, mode="train")
        assert preds.shape == (9,)
        assert (preds > 0).all() and (preds < 1).all()

    def test_zero_input_zero_head_gives_half(self):
        params = init_params(2)
        params.tensors["fc.weight"][:] = 0
        params.tensors["fc.bias"][:] = 0
        x = np.zeros((3, 1, 38, 5, 5), dtype=np.float32)
        preds, _ = forward(params, x, mode="train", update_running_stats=False)
        assert np.array_equal(preds, np.full(3, 0.5, dtype=np.float32))
        assert np.array_equal(predict(params, x[:, 0]), np.full(3, 0.5, dtype=np.float32))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype, logit", [(np.float32, 100.0), (np.float64, 1000.0)])
    def test_sigmoid_exact_at_zero_and_saturated_logits(self, dtype, logit):
        params = init_params(4, TINY, dtype=dtype)
        params.tensors["fc.weight"][:] = 0
        x = np.random.default_rng(4).uniform(0, 1, (3, 1, 6, 3, 3)).astype(dtype)
        for bias, expected in ((-logit, 0.0), (0.0, 0.5), (logit, 1.0)):
            params.tensors["fc.bias"][:] = bias
            want = np.full(3, expected, dtype=dtype)
            assert np.array_equal(predict(params, x[:, 0]), want)
            preds, _ = forward(params, x, mode="train", update_running_stats=False)
            assert preds.dtype == dtype and np.array_equal(preds, want)
            lone_zero = predict(params, np.zeros((1, 6, 3, 3), dtype=dtype))
            assert lone_zero.dtype == dtype and lone_zero.tolist() == [expected]

    def test_shape_ledger_matches_independent_calculator(self):
        assert shape_ledger(ModelConfig()) == expected_shapes(ModelConfig())
        assert shape_ledger(TINY) == expected_shapes(TINY)

    def test_default_ledger_documented_values(self):
        got = dict(shape_ledger(ModelConfig()))
        assert got["input"] == (1, 38, 5, 5)
        assert got["block1"] == (32, 38, 5, 5)
        assert got["pool1"] == (32, 19, 2, 2)
        assert got["block2"] == (64, 19, 2, 2)
        assert got["pool2"] == (64, 9, 1, 1)
        assert got["block3"] == (128, 9, 1, 1)
        assert got["avgpool"] == (128, 1, 1, 1)
        assert got["output"] == ()

    @pytest.mark.parametrize("patch_size", [1, 3, 5, 7])
    @pytest.mark.parametrize("in_depth", [1, 2, 3, 38])
    def test_ledger_matches_the_training_pass(self, patch_size, in_depth):
        # the ledger is arithmetic; the shapes a forward trace holds tie it
        # to the pass that training runs
        config = ModelConfig(filters=(2, 3, 4), in_depth=in_depth, patch_size=patch_size)
        x = np.random.default_rng(0).uniform(0, 1, (2, 1, in_depth, patch_size, patch_size))
        _, trace = forward(init_params(0, config), x.astype(np.float32))

        def per_sample(shape):  # channels-last (B, D, H, W, C) -> (C, D, H, W)
            return (shape[-1], *shape[1:4])

        caches = trace.caches
        traced = [("input", (1, in_depth, patch_size, patch_size))]
        for i in (1, 2):
            first, block = caches[f"pool{i}"]
            traced += [(f"block{i}", per_sample(block)), (f"pool{i}", per_sample(first.shape))]
        (block3,) = caches["avgpool"]
        traced += [("block3", per_sample(block3)), ("avgpool", (block3[-1], 1, 1, 1)),
                   ("output", ())]
        assert shape_ledger(config) == traced

    def test_shape_and_finiteness_validation(self):
        params = init_params(0)
        with pytest.raises(ShapeMismatchError):
            forward(params, np.zeros((2, 1, 10, 5, 5), dtype=np.float32))
        bad = np.zeros((2, 1, 38, 5, 5), dtype=np.float32)
        bad[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            forward(params, bad)

    def test_eval_mode_is_pure(self):
        params = init_params(11)
        x = np.random.default_rng(1).uniform(0, 1, (4, 1, 38, 5, 5)).astype(np.float32)
        before = {k: v.copy() for k, v in params.tensors.items()}
        p1 = predict(params, x[:, 0])
        p2 = predict(params, x[:, 0])
        assert np.array_equal(p1, p2)
        for k in before:
            assert np.array_equal(before[k], params.tensors[k])

    def test_train_mode_updates_running_stats(self):
        params = init_params(11)
        x = np.random.default_rng(1).uniform(0, 1, (4, 1, 38, 5, 5)).astype(np.float32)
        before = params.tensors["bn1.running_mean"].copy()
        forward(params, x, mode="train")
        assert not np.array_equal(before, params.tensors["bn1.running_mean"])


def conv_oracle(x, weight, bias):
    """Direct same-padded 3x3x3 correlation of a channels-last batch."""
    b, d, h, w, cin = x.shape
    out = np.zeros((b, d, h, w, weight.shape[0])) + bias
    for z in range(d):
        for r in range(h):
            for c in range(w):
                for kd in range(3):
                    for kh in range(3):
                        for kw in range(3):
                            zz, rr, cc = z + kd - 1, r + kh - 1, c + kw - 1
                            if 0 <= zz < d and 0 <= rr < h and 0 <= cc < w:
                                out[:, z, r, c] += x[:, zz, rr, cc] @ weight[:, :, kd, kh, kw].T
    return out


class TestLayerProperties:
    def test_batchnorm_train_stats_near_unit(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 5, size=(6, 7, 3, 3, 4)).astype(np.float64)
        rm = np.zeros(4)
        rv = np.ones(4)
        centred, inv = batchnorm_forward(x, rm, rv, update_running=False)
        assert np.shares_memory(centred, x)
        y = centred * inv
        mean = y.mean(axis=(0, 1, 2, 3))
        var = y.var(axis=(0, 1, 2, 3))
        assert np.abs(mean).max() < 1e-4
        assert np.abs(var - 1.0).max() < 1e-4

    def test_maxpool_matches_naive_oracle(self):
        # the pooled full-size affine, bitwise: negating a channel, scaling
        # by inv > 0 and |gamma| and adding beta never decrease under
        # rounding, so they commute with max
        rng = np.random.default_rng(5)
        for shape in [(2, 6, 5, 4, 3), (1, 5, 2, 2, 2), (2, 3, 1, 1, 1), (1, 1, 1, 1, 1),
                      (3, 4, 3, 3, 4)]:
            c = rng.normal(size=shape).astype(np.float32)
            inv = rng.uniform(0.5, 2, shape[-1]).astype(np.float32)
            gamma = rng.choice([-1.5, -0.5, 0.0, 0.7], shape[-1]).astype(np.float32)
            beta = rng.uniform(-1, 1, shape[-1]).astype(np.float32)
            xhat = c * inv
            affine = xhat * gamma + beta
            y, _, _ = maxpool3d_forward(c.copy(), inv, gamma, beta)
            wins = tuple(min(2, n) for n in shape[1:4])
            b, d, h, w, ch = shape
            od, oh, ow = y.shape[1:4]
            assert (od, oh, ow) == tuple(n // k for n, k in zip(shape[1:4], wins))
            for bi in range(b):
                for ci in range(ch):
                    for zi in range(od):
                        for yi in range(oh):
                            for xi in range(ow):
                                window = affine[bi,
                                                zi * wins[0]:(zi + 1) * wins[0],
                                                yi * wins[1]:(yi + 1) * wins[1],
                                                xi * wins[2]:(xi + 1) * wins[2], ci]
                                assert y[bi, zi, yi, xi, ci] == window.max()

    def test_maxpool_backward_routes_to_first_maximum(self):
        rng = np.random.default_rng(6)
        # few distinct values, so most windows hold tied maxima
        c = rng.integers(0, 3, size=(2, 5, 4, 5, 4)).astype(np.float64)
        c[0, :2, :2, :2, 0] = 1.0  # one window that is all ties
        gamma = np.array([0.7, -1.5, -0.5, 0.0])
        inv = rng.uniform(0.5, 2, 4)
        beta = rng.uniform(-1, 1, 4)
        want_y, want_cache = reference_pooled_forward(c, inv, gamma, beta)
        y, pool_cache, bn_cache = maxpool3d_forward(c.copy(), inv, gamma, beta)
        assert y.tobytes() == want_y.tobytes()
        # the offset of each window's first maximum of sign * c, in depth,
        # row, col order; gamma = 0 counts as positive
        first, shape = pool_cache
        assert shape == c.shape
        signed = c * np.where(gamma < 0, -1.0, 1.0)
        for bi, zi, yi, xi, ci in np.ndindex(*y.shape):
            window = signed[bi, 2 * zi:2 * zi + 2, 2 * yi:2 * yi + 2, 2 * xi:2 * xi + 2, ci]
            assert first[bi, zi, yi, xi, ci] == np.argmax(window)
        assert first[0, 0, 0, 0, 0] == 0
        dy = rng.uniform(1, 2, size=y.shape)
        got = maxpool3d_backward(dy, gamma, pool_cache, bn_cache)
        want = reference_pooled_backward(dy, gamma, inv, want_cache)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_nan_window_routes_nowhere(self, dtype):
        # a window holding a NaN has a NaN max, which equals none of its
        # elements: it passes no gradient, and every other window routes
        # to its first maximum, ties and +-inf included
        rng = np.random.default_rng(7)
        c = rng.integers(0, 3, size=(3, 5, 4, 5, 4)).astype(dtype)
        c[0, 0, 0, 0, 0] = np.nan
        c[1, 3, 2, 1, 2] = np.nan
        c[2, :2, :2, :2, 1] = np.nan
        c[2, 2, 0, 0, 3] = np.inf
        c[2, 3, 1, 1, 3] = np.inf
        c[1, 0, 0, 2, 0] = -np.inf
        gamma = np.array([0.7, -1.5, -0.5, 1.0], dtype=dtype)
        inv = rng.uniform(0.5, 2, 4).astype(dtype)
        beta = rng.uniform(-1, 1, 4).astype(dtype)
        y, pool_cache, bn_cache = maxpool3d_forward(c.copy(), inv, gamma, beta)
        want_y, _ = reference_maxpool_forward((c * inv) * gamma + beta)
        assert np.array_equal(y, want_y, equal_nan=True)
        nan = np.isnan(y)
        assert nan[0, 0, 0, 0, 0] and nan[1, 1, 1, 0, 2] and nan[2, 0, 0, 0, 1]
        assert nan.sum() == 3
        assert (pool_cache[0][nan] == model3d._NAN_WINDOW).all()
        # batch norm's reductions carry a channel's NaN and inf into all of
        # its gradient; with them zeroed in both caches, the routing shows
        _, want_cache = reference_pooled_forward(c, inv, gamma, beta)
        for arr in (*bn_cache[::3], *want_cache[:2]):
            np.nan_to_num(arr, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        hits = want_cache[3]
        assert not any(hit[nan].any() for hit in hits)
        assert sum(int(hit.sum()) for hit in hits) == (~nan).sum()
        dy = rng.uniform(-2, 2, size=y.shape).astype(dtype)
        got = maxpool3d_backward(dy, gamma, pool_cache, bn_cache)
        want = reference_pooled_backward(dy, gamma, inv, want_cache)
        assert np.isfinite(got[0]).all()
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_maxpool_cache_holds_no_input_sized_array(self):
        # pooling keeps a byte per window; batch norm keeps the input buffer
        # itself, which its backward turns into the input gradient
        c = np.random.default_rng(8).normal(size=(4, 6, 5, 5, 3))
        y, pool_cache, bn_cache = maxpool3d_forward(c, np.ones(3), np.ones(3), np.zeros(3))
        arrays = [part for part in pool_cache if isinstance(part, np.ndarray)]
        assert arrays
        for arr in arrays:
            assert arr.size <= y.size and arr.nbytes < c.nbytes
            assert not np.shares_memory(arr, c)
        assert bn_cache[0] is c
        for arr in bn_cache[1:]:
            assert arr.size <= y.size and not np.shares_memory(arr, c)

    def test_identity_kernel_reproduces_input(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(2, 6, 5, 4, 1)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1, 1] = 1.0
        y, _ = conv3d_forward(x, fold_conv(w, np.zeros(1, dtype=np.float32), 5, 4))
        assert np.array_equal(y, x)

    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7])
    def test_conv_matches_direct_correlation(self, size, cin):
        rng = np.random.default_rng(size * 10 + cin)
        x = rng.uniform(-1, 1, size=(2, 4, size, size, cin))
        w = rng.uniform(-1, 1, size=(2, cin, 3, 3, 3))
        bias = rng.uniform(-1, 1, size=2)
        want = conv_oracle(x, w, bias)
        y, _ = conv3d_forward(x, fold_conv(w, bias, size, size))
        assert np.allclose(y, want, rtol=1e-12, atol=1e-12)


class TestBackward:
    def _setup(self, batch=4, seed=0, dtype=np.float64, config=TINY):
        params = init_params(42, config, dtype=dtype)
        rng = np.random.default_rng(seed)
        p = config.patch_size
        x = rng.uniform(0, 1, size=(batch, 1, config.in_depth, p, p)).astype(dtype)
        y = rng.uniform(0, 1, size=batch).astype(dtype)
        return params, x, y

    @staticmethod
    def _fd_check(params, x, y, sample=None):
        """Central differences against ``backward``; ``sample`` caps the
        entries checked per tensor (None checks every entry).  Returns the
        number of entries checked."""
        cfg = LossConfig(alpha=1.0)

        def loss_of():
            preds, _ = forward(params, x, mode="train", update_running_stats=False)
            return wmse_loss(preds, y, cfg)[0]

        preds, trace = forward(params, x, mode="train", update_running_stats=False)
        _, dpreds = wmse_loss(preds, y, cfg)
        grads = backward(params, trace, dpreds)
        rng = np.random.default_rng(1)
        # central-difference truncation error grows as step**2; at 1e-4 it
        # reaches 1e-3 relative at patch 7, at 1e-5 it stays near 1e-5
        step = 1e-5
        checked = 0
        for name, g in grads.items():
            flat = params.tensors[name].ravel()
            picks = (range(flat.size) if sample is None
                     else rng.choice(flat.size, size=min(sample, flat.size), replace=False))
            for i in picks:
                orig = flat[i]
                flat[i] = orig + step
                up = loss_of()
                flat[i] = orig - step
                down = loss_of()
                flat[i] = orig
                fd = (up - down) / (2 * step)
                an = g.ravel()[i]
                assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) < 1e-4, f"{name}[{i}]"
                checked += 1
        return checked

    def test_zero_upstream_gradient_zeroes_everything(self):
        params, x, _ = self._setup()
        preds, trace = forward(params, x, mode="train", update_running_stats=False)
        grads = backward(params, trace, np.zeros_like(preds))
        for name, g in grads.items():
            assert (g == 0).all(), name

    @pytest.mark.parametrize("patch_size", [1, 3, 5, 7])
    def test_spot_finite_difference_check(self, patch_size):
        # block extents: patch 1 -> 1/1/1, 3 -> 3/1/1, 5 -> 5/2/1, 7 -> 7/3/1
        params, x, y = self._setup(config=replace(TINY, patch_size=patch_size))
        assert self._fd_check(params, x, y, sample=4) > 0

    def test_full_finite_difference_sweep_patch5(self):
        # every parameter of a reduced model whose second block is 2x2
        config = replace(TINY, patch_size=5)
        params, x, y = self._setup(config=config)
        assert self._fd_check(params, x, y) == sum(
            params.tensors[n].size for n in trainable_names(config))

    def test_duplicated_sample_doubles_gradient(self):
        # a duplicated batch has the same batch statistics as the original;
        # four distinct samples keep every batch-norm gradient live (with one
        # or two rows per channel, xhat is fixed and the input gradient is 0)
        params, x, y = self._setup(batch=4)
        single, trace1 = forward(params, x, mode="train", update_running_stats=False)
        _, d1 = wmse_loss(single, y, LossConfig(0.0))
        g1 = backward(params, trace1, d1)
        for name, g in g1.items():
            assert np.abs(g).max() > 1e-8, name

        x2 = np.concatenate([x, x])
        y2 = np.concatenate([y, y])
        double, trace2 = forward(params, x2, mode="train", update_running_stats=False)
        # same total (unaveraged) objective: feed per-sample gradients that
        # match the single-sample case
        _, d_each = wmse_loss(single, y, LossConfig(0.0))
        g2 = backward(params, trace2, np.concatenate([d_each, d_each]))
        for name in g1:
            assert np.allclose(2 * g1[name], g2[name], rtol=1e-6, atol=1e-12), name

    def test_backward_requires_caches(self):
        params, x, y = self._setup()
        with pytest.raises(ValueError, match="predict"):
            forward(params, x, mode="eval")
        with pytest.raises(ValueError):
            backward(params, ForwardTrace(), np.zeros(len(x)))

    def test_upstream_shape_mismatch_rejected(self):
        params, x, _ = self._setup()
        _, trace = forward(params, x, mode="train", update_running_stats=False)
        with pytest.raises(ShapeMismatchError):
            backward(params, trace, np.zeros(7))

    def test_trace_is_single_use(self):
        params, x, y = self._setup()
        preds, trace = forward(params, x, mode="train", update_running_stats=False)
        _, dpreds = wmse_loss(preds, y, LossConfig(1.0))
        backward(params, trace, dpreds)
        assert trace.caches == {}
        with pytest.raises(ValueError, match="consumed"):
            backward(params, trace, dpreds)


def reference_centre(x):
    """Batch statistics of ``x`` and ``x`` minus the batch mean, in a fresh
    array: (centred, mean, var)."""
    c = x.shape[-1]
    hw = x.shape[2] * x.shape[3]
    x2 = model3d._rows(x)
    m = x.size // c
    mean = model3d._channel_sum(x2, c) / m
    centred = x2 - np.tile(mean, hw)
    var = model3d._channel_sum(centred, c, centred) / m
    return centred.reshape(x.shape), mean, var


def reference_batchnorm_forward(x, gamma, beta, running_mean, running_var, *,
                                eps, momentum, update_running):
    """Train-mode batch norm into fresh arrays, leaving ``x`` as it was."""
    c = x.shape[-1]
    hw = x.shape[2] * x.shape[3]
    m = x.size // c
    centred, mean, var = reference_centre(x)
    if update_running:
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    inv = 1.0 / np.sqrt(var + eps)
    xhat = model3d._rows(centred)
    xhat *= np.tile(inv, hw)
    y = np.tile(gamma, hw) * xhat
    y += np.tile(beta, hw)
    return y.reshape(x.shape), (xhat, inv)


def reference_batchnorm_backward(dy, gamma, cache):
    """Batch-norm gradients into a fresh input gradient."""
    xhat, inv = cache
    c = dy.shape[-1]
    hw = dy.shape[2] * dy.shape[3]
    dy2 = model3d._rows(dy)
    dgamma = model3d._channel_sum(dy2, c, xhat)
    dbeta = model3d._channel_sum(dy2, c)
    m = dy.size // c
    dx = xhat * np.tile(-dgamma / m, hw)
    dx += dy2
    dx -= np.tile(dbeta / m, hw)
    dx *= np.tile(gamma * inv, hw)
    return dx.reshape(dy.shape), dgamma, dbeta


def reference_pool_views(x):
    """One strided view per offset of the 2x2x2 floor-mode window, in
    depth, row, col order (a window clamps to an axis shorter than 2)."""
    wins = [min(2, n) for n in x.shape[1:4]]
    d, h, w = (n // k * k for n, k in zip(x.shape[1:4], wins))
    return [x[:, a:d:wins[0], r:h:wins[1], c:w:wins[2]]
            for a in range(wins[0]) for r in range(wins[1]) for c in range(wins[2])]


def reference_maxpool_forward(x):
    """Value max over the window views of the materialized batch-norm
    output ``x``, which the cache keeps for the backward scan."""
    y = None
    for view in reference_pool_views(x):
        y = view.copy() if y is None else np.maximum(y, view, out=y)
    return y, (x, y)


def reference_maxpool_backward(dy, cache):
    """Equality scan: each window's gradient goes to the first view whose
    element equals the window's max (none where the max is NaN)."""
    x, y = cache
    dx = np.zeros(x.shape, dtype=dy.dtype)
    open_ = np.ones(y.shape, dtype=bool)  # windows not yet routed
    for xv, dxv in zip(reference_pool_views(x), reference_pool_views(dx)):
        hit = (xv == y) & open_
        open_ ^= hit
        np.multiply(dy, hit, out=dxv)
    return dx


def reference_pooled_forward(c, inv, gamma, beta):
    """A pooled block's batch norm and pooling in the fused operation
    order, into fresh arrays: each channel of the centred ``c`` whose
    ``gamma`` is negative negated, the value max of the test-local window
    views, then ``inv``, the sign, ``gamma`` and ``beta`` on the pooled
    values.  The cache holds the signed centred values, the pooled signed
    ``xhat``, the sign and, per view, where a window routes its gradient:
    to the first view whose element equals the window's max (none where
    the max is NaN)."""
    sign = np.where(gamma < 0, -1, 1).astype(c.dtype)
    signed = c * sign
    views = reference_pool_views(signed)
    top = views[0].copy()
    for view in views[1:]:
        np.maximum(top, view, out=top)
    open_ = np.ones(top.shape, dtype=bool)  # windows not yet routed
    hits = []
    for view in views:
        hits.append((view == top) & open_)
        open_ ^= hits[-1]
    xhat = top * inv
    y = xhat * (sign * gamma)
    y += beta
    return y, (signed, xhat, sign, hits)


def reference_pooled_backward(dy, gamma, inv, cache):
    """Gradients through ``reference_pooled_forward`` into a fresh input
    gradient: the batch-norm terms over the whole block, then each window's
    ``gamma * inv * dy`` added where it routes."""
    signed, xhat, sign, hits = cache
    c = dy.shape[-1]
    m = signed.size // c
    dy2 = model3d._rows(dy)
    dbeta = model3d._channel_sum(dy2, c)
    signed_dgamma = model3d._channel_sum(dy2, c, model3d._rows(xhat))
    g = gamma * inv
    dx = signed * (-(g * inv) * signed_dgamma / m)
    dx -= g * dbeta / m
    gdy = dy * g
    for hit, dxv in zip(hits, reference_pool_views(dx)):
        dxv += gdy * hit
    return dx, signed_dgamma * sign, dbeta


def reference_train_step(params, x, targets):
    """Train-mode forward and backward composed from the primitives with
    out-of-place batch norm, taking each ReLU mask after batch norm (which
    leaves the ReLU output intact), and pooling the materialized batch-norm
    output with the test-local pool above.  Returns predictions, gradients
    and the batch-norm outputs of the pooled blocks, and updates the running
    estimates in ``params``."""
    cfg = params.config
    t = params.tensors
    n_blocks = len(cfg.filters)
    a = x.reshape(x.shape[0], *x.shape[2:], 1)
    blocks = []
    pooled_inputs = []
    for i in range(1, n_blocks + 1):
        fold = fold_conv(t[f"conv{i}.weight"], t[f"conv{i}.bias"], *a.shape[2:4])
        y, conv_cache = conv3d_forward(a, fold)
        np.maximum(y, 0, out=y)
        a, bn_cache = reference_batchnorm_forward(
            y, t[f"bn{i}.gamma"], t[f"bn{i}.beta"],
            t[f"bn{i}.running_mean"], t[f"bn{i}.running_var"],
            eps=model3d.BN_EPS, momentum=model3d.BN_MOMENTUM, update_running=True)
        pool_cache = None
        if i < n_blocks:
            pooled_inputs.append(a)
            a, pool_cache = reference_maxpool_forward(a)
        blocks.append((conv_cache, y > 0, bn_cache, pool_cache))
    pooled, avg_cache = global_avgpool_forward(a)
    preds = model3d._head(pooled, t)

    _, dpreds = wmse_loss(preds, targets, LossConfig(1.0))
    dz = (dpreds * preds * (1.0 - preds))[:, None]
    grads = {"fc.weight": dz.T @ pooled, "fc.bias": dz.sum(axis=0)}
    da = global_avgpool_backward(dz @ t["fc.weight"], avg_cache)
    for i in range(n_blocks, 0, -1):
        conv_cache, mask, bn_cache, pool_cache = blocks[i - 1]
        if i < n_blocks:
            da = reference_maxpool_backward(da, pool_cache)
        da, grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = reference_batchnorm_backward(
            da, t[f"bn{i}.gamma"], bn_cache)
        da = da * mask
        da, grads[f"conv{i}.weight"], grads[f"conv{i}.bias"] = conv3d_backward(
            da, conv_cache, need_dx=(i > 1))
    return preds, grads, pooled_inputs


def reference_fused_step(params, x, targets):
    """The train step of ``forward`` and ``backward`` in their operation
    order, composed from the primitives with out-of-place batch norm and
    the test-local pooled blocks above, which share no pooling code with
    ``model3d``.  Returns predictions, gradients and the signed centred
    values of the pooled blocks; the running estimates are left alone."""
    cfg = params.config
    t = params.tensors
    a = x.reshape(x.shape[0], *x.shape[2:], 1)
    blocks = []
    for i in (1, 2, 3):
        fold = fold_conv(t[f"conv{i}.weight"], t[f"conv{i}.bias"], *a.shape[2:4])
        y, conv_cache = conv3d_forward(a, fold)
        np.maximum(y, 0, out=y)
        centred, _, var = reference_centre(y)
        inv = 1.0 / np.sqrt(var + model3d.BN_EPS)
        gamma, beta = t[f"bn{i}.gamma"], t[f"bn{i}.beta"]
        if i < 3:
            a, bn_cache = reference_pooled_forward(centred, inv, gamma, beta)
        else:
            xhat = centred * inv
            a = xhat * gamma + beta
            bn_cache = (model3d._rows(xhat), inv)
        blocks.append((conv_cache, y > 0, bn_cache, inv))
    pooled, avg_cache = global_avgpool_forward(a)
    preds = model3d._head(pooled, t)

    _, dpreds = wmse_loss(preds, targets, LossConfig(1.0))
    dz = (dpreds * preds * (1.0 - preds))[:, None]
    grads = {"fc.weight": dz.T @ pooled, "fc.bias": dz.sum(axis=0)}
    da = global_avgpool_backward(dz @ t["fc.weight"], avg_cache)
    for i in (3, 2, 1):
        conv_cache, mask, bn_cache, inv = blocks[i - 1]
        gamma = t[f"bn{i}.gamma"]
        if i < 3:
            da, dgamma, dbeta = reference_pooled_backward(da, gamma, inv, bn_cache)
        else:
            da, dgamma, dbeta = reference_batchnorm_backward(da, gamma, bn_cache)
        grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = dgamma, dbeta
        da = da * mask
        da, grads[f"conv{i}.weight"], grads[f"conv{i}.bias"] = conv3d_backward(
            da, conv_cache, need_dx=(i > 1))
    return preds, grads, [block[2][0] for block in blocks[:2]]


def tied_windows(x) -> int:
    """Pooling windows of ``x`` whose maximum is held by more than one element."""
    views = reference_pool_views(x)
    top = np.max(views, axis=0)
    return int(np.count_nonzero(sum(view == top for view in views) > 1))


class TestInPlaceStep:
    """The in-place train step matches out-of-place oracles bitwise.  Its
    predictions and running estimates are those of batch norm followed by
    pooling of the materialized batch-norm output (``reference_train_step``):
    pooling the centred values and applying the affine to pooled values
    only does not change them.  Its gradients are those of the same
    operations in the fused order (``reference_fused_step``).  Both oracles
    pool by value and scan for equality, and share no pooling code with
    ``model3d``, which routes by cached first-max offsets."""

    @staticmethod
    def _check_step(params, x, targets):
        oracle = params.copy()
        want_preds, old_grads, pooled_inputs = reference_train_step(oracle, x, targets)
        fused_preds, want_grads, signed = reference_fused_step(params.copy(), x, targets)
        preds, trace = forward(params, x, mode="train")
        for i, bn_out in enumerate(pooled_inputs, start=1):
            for part in trace.caches[f"pool{i}"]:
                if isinstance(part, np.ndarray):
                    assert part.nbytes < bn_out.nbytes, f"pool{i}"
        _, dpreds = wmse_loss(preds, targets, LossConfig(1.0))
        grads = backward(params, trace, dpreds)

        dtype = params.dtype
        assert preds.tobytes() == want_preds.tobytes() == fused_preds.tobytes()
        assert grads.keys() == want_grads.keys() == old_grads.keys()
        for name, g in grads.items():
            assert g.dtype == dtype and g.tobytes() == want_grads[name].tobytes(), name
        for name, arr in params.tensors.items():
            assert arr.tobytes() == oracle.tensors[name].tobytes(), name
        return pooled_inputs, signed, grads, old_grads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("patch_size", [1, 3, 5, 7])
    @pytest.mark.parametrize("base", [TINY, SMALL_MODEL, ModelConfig()],
                             ids=["tiny", "small", "default"])
    def test_matches_out_of_place_oracle_bitwise(self, base, patch_size, dtype):
        config = replace(base, patch_size=patch_size)
        params = eval_params(patch_size, config, dtype)
        rng = np.random.default_rng(patch_size)
        x = rng.uniform(0, 1, (6, 1, config.in_depth, patch_size, patch_size)).astype(dtype)
        targets = rng.uniform(0, 1, 6).astype(dtype)
        _, _, grads, old_grads = self._check_step(params, x, targets)
        # the fused order rounds and sums in another order than batch norm
        # followed by pooling of its output; with every gamma positive, both
        # route each window to the same element.  Some gradients are sums
        # that cancel to near 0, so the bound is relative to the largest
        # gradient of the step
        scale = max(np.abs(g).max() for g in old_grads.values())
        for name, g in grads.items():
            err = np.abs(g - old_grads[name]).max()
            assert err <= 100 * np.finfo(dtype).eps * scale, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("patch_size", [3, 5, 7])
    @pytest.mark.parametrize("base", [TINY, SMALL_MODEL, ModelConfig()],
                             ids=["tiny", "small", "default"])
    def test_tied_dead_relu_maxima_match_oracle_bitwise(self, base, patch_size, dtype):
        # a negative gamma turns the dead-ReLU value, each channel's
        # smallest, into its window max, and every third band zeroed
        # kills more units, so many windows hold that max more than once;
        # a zero gamma ties every window of the batch-norm output
        config = replace(base, patch_size=patch_size)
        params = eval_params(patch_size, config, dtype)
        rng = np.random.default_rng(100 + patch_size)
        for i in (1, 2, 3):
            n = config.filters[i - 1]
            params.tensors[f"bn{i}.gamma"][...] = rng.permutation(
                np.resize([-1.5, 0.0, -0.5, 0.7], n))
            params.tensors[f"bn{i}.beta"][...] = rng.uniform(-1, 1, n)
        x = rng.uniform(0, 1, (6, 1, config.in_depth, patch_size, patch_size)).astype(dtype)
        x[:, :, ::3] = 0
        targets = rng.uniform(0, 1, 6).astype(dtype)
        pooled_inputs, signed, _, _ = self._check_step(params, x, targets)
        assert all(tied_windows(bn_out) > 0 for bn_out in pooled_inputs)
        gammas = [params.tensors[f"bn{i}.gamma"] for i in (1, 2)]
        assert all((gamma == 0).any() and (gamma < 0).any() for gamma in gammas)
        # the fused step routes by the signed centred values, where the
        # dead-ReLU ties of block one stay exact
        assert tied_windows(signed[0][..., gammas[0] != 0]) > 0


class TestPredictPaths:
    @pytest.mark.parametrize("shape", [(38, 5, 5), (40, 1, 38, 5, 5), (3, 38, 5, 4)],
                             ids=["no-batch-axis", "extra-axis", "wrong-patch"])
    def test_shape_error_names_the_shape_passed(self, shape):
        params = init_params(0)
        with pytest.raises(ShapeMismatchError, match=re.escape(f"got {shape}")):
            predict(params, np.zeros(shape, dtype=np.float32))

    def test_per_sample_equals_single_batch_forward(self):
        params = init_params(21)
        rng = np.random.default_rng(2)
        patches = rng.uniform(0, 1, size=(6, 38, 5, 5)).astype(np.float32)
        via_predict = predict(params, patches)
        for i in range(6):
            one = predict(params, patches[i:i + 1])
            assert via_predict[i] == one[0]


def eval_params(seed: int, config: ModelConfig, dtype) -> ModelParams:
    """Random kernels plus non-identity batch-norm affine and statistics."""
    params = init_params(seed, config, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, arr in params.tensors.items():
        if name.startswith("bn"):
            arr += rng.uniform(0.0, 0.5, arr.shape).astype(dtype)
    return params


def signed_params(seed: int, config: ModelConfig, dtype) -> ModelParams:
    """Random kernels, with batch-norm gamma, beta and running mean and the
    conv biases of both signs in every block (half of each tensor's
    channels negative, in an order drawn per tensor), and running
    variances in [0.5, 1.5]."""
    params = init_params(seed, config, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, arr in params.tensors.items():
        if name.endswith(("gamma", "beta", "running_mean")) or (
                name.startswith("conv") and name.endswith("bias")):
            signs = rng.permutation(np.where(np.arange(arr.size) % 2 == 0, -1.0, 1.0))
            arr[...] = (signs * rng.uniform(0.2, 1.0, arr.size)).astype(dtype)
        elif name.endswith("running_var"):
            arr[...] = rng.uniform(0.5, 1.5, arr.size).astype(dtype)
    return params


class TestBatchInvariance:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("patch_size", [1, 3, 5, 7])
    @pytest.mark.parametrize("base", [TINY, SMALL_MODEL, ModelConfig()],
                             ids=["tiny", "small", "default"])
    def test_predict_equals_lone_calls_bitwise(self, base, patch_size, dtype):
        config = replace(base, patch_size=patch_size)
        params = eval_params(patch_size, config, dtype)
        rng = np.random.default_rng(patch_size)
        n = 37
        patches = rng.uniform(0, 1, (n, config.in_depth, patch_size, patch_size)).astype(dtype)
        lone = np.concatenate([predict(params, patches[i:i + 1]) for i in range(n)]).tobytes()

        assert predict(params, patches).tobytes() == lone
        splits = [np.arange(size, n, size) for size in (2, 3, 7, 8, 9, 64)]
        splits += [np.sort(rng.choice(np.arange(1, n), rng.integers(1, 8), replace=False))
                   for _ in range(6)]
        for cuts in splits:
            parts = np.split(patches, cuts)
            got = np.concatenate([predict(params, part) for part in parts])
            assert got.tobytes() == lone, f"split at {cuts.tolist()}"

    @pytest.mark.parametrize("in_depth", range(1, 9))
    def test_default_filters_lone_equals_batched_at_shallow_depth(self, in_depth):
        # below in_depth 8 a lone patch reaches a conv of block two or three
        # as a single row (batch times depth is 1)
        params = signed_params(in_depth, ModelConfig(in_depth=in_depth), np.float32)
        patches = np.random.default_rng(in_depth).uniform(
            0, 1, (40, in_depth, 5, 5)).astype(np.float32)
        lone = np.concatenate([predict(params, patches[i:i + 1]) for i in range(40)])
        assert predict(params, patches).tobytes() == lone.tobytes()


def full_extent_eval(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Eval forward composed from the primitives over every output
    position: per-sample conv, ReLU, batch norm from the running
    estimates, floor-mode max pooling, global average pooling, head."""
    t = params.tensors
    cfg = params.config
    a = x.reshape(x.shape[0], *x.shape[2:], 1)
    for i in range(1, len(cfg.filters) + 1):
        fold = fold_conv(t[f"conv{i}.weight"], t[f"conv{i}.bias"], *a.shape[2:4])
        y, _ = conv3d_forward(a, fold)
        y = np.maximum(y, 0)
        xhat = (y - t[f"bn{i}.running_mean"]) / np.sqrt(t[f"bn{i}.running_var"] + model3d.BN_EPS)
        gamma, beta = t[f"bn{i}.gamma"], t[f"bn{i}.beta"]
        a = xhat * gamma + beta
        if i < len(cfg.filters):
            a = reference_maxpool_forward(a)[0]
    z = a.mean(axis=(1, 2, 3)) @ t["fc.weight"][0] + t["fc.bias"][0]
    return 1.0 / (1.0 + np.exp(-z))


class TestEvalPlan:
    # per block, the output rows (= cols) kept: those floor-mode pooling reads
    KEPT = {1: (1, 1, 1), 3: (2, 1, 1), 5: (4, 2, 1), 7: (6, 2, 1)}

    @pytest.mark.parametrize("patch_size", [1, 3, 5, 7])
    @pytest.mark.parametrize("base", [TINY, SMALL_MODEL, ModelConfig()],
                             ids=["tiny", "small", "default"])
    def test_matches_full_extent_oracle(self, base, patch_size):
        config = replace(base, patch_size=patch_size)
        params = eval_params(patch_size, config, np.float64)
        x = np.random.default_rng(patch_size).uniform(
            0, 1, (11, 1, config.in_depth, patch_size, patch_size))
        want = full_extent_eval(params, x)
        assert np.abs(predict(params, x[:, 0]) - want).max() <= 1e-12

    @pytest.mark.parametrize("patch_size", [1, 3, 5, 7])
    @pytest.mark.parametrize("base", [TINY, SMALL_MODEL, ModelConfig()],
                             ids=["tiny", "small", "default"])
    def test_matches_full_extent_oracle_with_signed_batch_norm(self, base, patch_size):
        # block one pools before its epilogue, negating the kernel of each
        # channel whose batch-norm scale is negative
        config = replace(base, patch_size=patch_size)
        params = signed_params(patch_size, config, np.float64)
        t = params.tensors
        for i in range(1, 4):
            scale = t[f"bn{i}.gamma"] / np.sqrt(t[f"bn{i}.running_var"] + model3d.BN_EPS)
            assert (scale < 0).any() and (scale > 0).any()
        x = np.random.default_rng(patch_size).uniform(
            0, 1, (11, 1, config.in_depth, patch_size, patch_size))
        want = full_extent_eval(params, x)
        assert np.abs(predict(params, x[:, 0]) - want).max() <= 1e-12

    @pytest.mark.parametrize("patch_size", [1, 3, 5, 7])
    def test_blocks_keep_only_what_pooling_reads(self, patch_size):
        params = init_params(0, replace(ModelConfig(), patch_size=patch_size))
        plan = model3d.eval_plan(params)
        # block one's kept rows (= cols), in runs of one class each, then
        # the folded extents of blocks two and three
        kept = [r for first, last in plan.one.runs for r in range(first, last + 1)]
        assert kept == list(range(len(kept)))
        extents = [(len(kept), len(kept))] + [block.fold.extent for block in plan.rest]
        assert extents == [(k, k) for k in self.KEPT[patch_size]]


class TestEvalRowsIndependentOfTilePosition:
    """Blocks two and three run one GEMM per conv over a tile of up to
    ``EVAL_TILE`` patches, so a patch's rows sit at a different place of
    the GEMM in every tile it travels in, and block one's stacked
    (D, 27) @ (27, Cout) products run over the same tiles.  A probe patch
    at every position of every tile size from 1 to ``EVAL_TILE``, among
    random companions, must get the bits of a lone call in block one's
    output, in every conv's output and in its probability.  Scene tiles
    are no larger (see ``test_inference.TestTileBoundaries``).  Some BLAS
    builds block a GEMM by its row count, so this is checked, not assumed."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("base, patch_size", [
        (TINY, 1), (TINY, 3), (SMALL_MODEL, 5), (SMALL_MODEL, 7), (ModelConfig(), 5)],
        ids=["tiny-1", "tiny-3", "small-5", "small-7", "default-5"])
    def test_probe_at_every_tile_position(self, monkeypatch, base, patch_size, dtype):
        outputs = []

        def record(fn):
            def recorded(*args):
                result = fn(*args)
                outputs.append(result[0] if isinstance(result, tuple) else result)
                return result
            return recorded

        monkeypatch.setattr(model3d, "_block_one", record(model3d._block_one))
        monkeypatch.setattr(model3d, "conv3d_forward", record(model3d.conv3d_forward))
        config = replace(base, patch_size=patch_size)
        params = signed_params(4, config, dtype)

        def rows(batch, i):
            outputs.clear()
            probs = predict(params, batch)
            assert len(outputs) == len(config.filters)
            return [out[i].tobytes() for out in outputs] + [probs[i:i + 1].tobytes()]

        rng = np.random.default_rng(patch_size)
        shape = (config.in_depth, patch_size, patch_size)
        probe = rng.uniform(0, 1, (1, *shape)).astype(dtype)
        want = rows(probe, 0)
        companions = rng.uniform(0, 1, (model3d.EVAL_TILE, *shape)).astype(dtype)
        for n in range(2, model3d.EVAL_TILE + 1):
            for i in range(n):
                tile = companions[:n].copy()
                tile[i] = probe[0]
                assert rows(tile, i) == want, (n, i)

    def test_larger_tile_is_refused(self):
        plan = model3d.eval_plan(init_params(0, SMALL_MODEL))
        slabs = np.zeros((1, 6, 8, 8), dtype=np.float32)   # 4 x 4 patches
        assert model3d.predict_slabs(plan, slabs, 4, 4).shape == (16,)
        with pytest.raises(ValueError, match="at most"):
            model3d.predict_slabs(plan, np.zeros((3, 6, 8, 8), dtype=np.float32), 4, 4)


class TestCheckpoints:
    def test_roundtrip_bitwise(self, tmp_path):
        params = init_params(9, TINY)
        extra = {"opt.step": np.float32(3),
                 "opt.m.fc.weight": np.ones((1, 4), dtype=np.float32)}
        path = tmp_path / "m.dck"
        save_checkpoint(path, params, extra=extra)
        loaded, extras = load_checkpoint(path)
        assert loaded.config.filters == TINY.filters
        assert loaded.config.in_depth == TINY.in_depth
        assert loaded.config.patch_size == TINY.patch_size
        assert np.isclose(read_checkpoint_tensors(path)["meta.bn_eps"], model3d.BN_EPS, rtol=1e-6)
        for k, v in params.tensors.items():
            assert np.array_equal(v, loaded.tensors[k]), k
        assert extras["opt.step"] == 3
        assert np.array_equal(extras["opt.m.fc.weight"], extra["opt.m.fc.weight"])

    def test_census_lists_parameter_groups(self, tmp_path):
        path = tmp_path / "m.dck"
        save_checkpoint(path, init_params(0))
        text = describe_checkpoint(path)
        assert "3 conv + 3 batch-norm + 1 fully-connected" in text
        n_params = sum(init_params(0).tensors[k].size for k in init_params(0).tensors)
        assert f"parameters: {n_params}" in text

    def test_two_block_checkpoint_is_format_error(self, tmp_path):
        # a two-block network's tensors, shaped to match its metadata
        path = tmp_path / "m.dck"
        save_checkpoint(path, init_params(0, TINY))
        tensors = read_checkpoint_tensors(path)
        for name in [n for n in tensors if n.startswith(("conv3.", "bn3."))]:
            del tensors[name]
        tensors["meta.filters"] = np.array(TINY.filters[:2], dtype=np.float32)
        tensors["fc.weight"] = np.ones((1, TINY.filters[1]), dtype=np.float32)
        write_checkpoint_tensors(path, tensors)
        with pytest.raises(FormatError, match="architecture metadata"):
            load_checkpoint(path)

    def test_corrupt_tensor_name(self, tmp_path):
        good = tmp_path / "ok.dck"
        save_checkpoint(good, init_params(0, TINY))
        raw = bytearray(good.read_bytes())
        # first record: u16 name length at offset 8, the name from offset 10
        (name_len,) = struct.unpack("<H", raw[8:10])
        path = tmp_path / "m.dck"
        path.write_bytes(bytes(raw[:10 + name_len - 1]))
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)
        raw[10] = 0xC3
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "m.dck"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)
        good = tmp_path / "ok.dck"
        save_checkpoint(good, init_params(0, TINY))
        path.write_bytes(good.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    def test_oversized_declared_shape_is_truncation(self, tmp_path):
        good = tmp_path / "ok.dck"
        save_checkpoint(good, init_params(0, TINY))
        raw = bytearray(good.read_bytes())
        # first record is meta.filters, rank 1: its one u32 dim follows the rank byte
        (name_len,) = struct.unpack("<H", raw[8:10])
        raw[11 + name_len:15 + name_len] = struct.pack("<I", 2**31)
        path = tmp_path / "m.dck"
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncatedFileError):
            read_checkpoint_tensors(path)

    @pytest.mark.parametrize("dims", [(1,) * 65, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)],
                             ids=["rank-65", "unindexable"])
    def test_shape_numpy_cannot_hold_is_format_error(self, tmp_path, dims):
        payload = b"\x00" * (4 * int(np.prod(dims)))
        path = tmp_path / "m.dck"
        path.write_bytes(b"DCK1" + struct.pack("<IH", 1, 1) + b"x"
                         + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + payload)
        with pytest.raises(FormatError):
            read_checkpoint_tensors(path)

    @pytest.mark.parametrize("name, value", [
        ("meta.in_depth", np.float32(np.inf)),
        ("meta.patch_size", np.float32(np.nan)),
        ("meta.patch_size", np.float32(3.5)),
        ("meta.patch_size", np.float32(4)),
        ("meta.patch_size", np.float32(0)),
        ("meta.filters", np.array([2, 3, np.inf], dtype=np.float32)),
        ("meta.filters", np.zeros(0, dtype=np.float32)),
        ("meta.in_depth", np.array([6, 6], dtype=np.float32)),
        ("meta.bn_eps", np.float32(np.inf)),
        ("meta.bn_momentum", np.float32(np.nan)),
        ("meta.bn_eps", np.float32(-1)),
        ("meta.bn_eps", np.float32(0)),
        ("meta.bn_momentum", np.float32(-0.5)),
        ("meta.bn_momentum", np.float32(2)),
        ("meta.bn_eps", np.float32(1e-3)),
        ("meta.bn_momentum", np.float32(0.2)),
    ], ids=["inf-depth", "nan-patch", "fractional-patch", "even-patch", "zero-patch",
            "inf-filter", "no-filters", "two-depths", "inf-eps", "nan-momentum",
            "negative-eps", "zero-eps", "negative-momentum", "momentum-above-one",
            "other-eps", "other-momentum"])
    def test_bad_metadata_is_format_error(self, tmp_path, name, value):
        path = tmp_path / "m.dck"
        save_checkpoint(path, init_params(0, TINY))
        tensors = read_checkpoint_tensors(path)
        tensors[name] = value
        write_checkpoint_tensors(path, tensors)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [
        ("meta.bn_eps", np.float32(1e-3)),
        ("meta.bn_momentum", np.float32(0.2)),
        ("meta.patch_size", np.float32(3.5)),
        ("meta.in_depth", np.array([6, 6], dtype=np.float32)),
    ], ids=["other-eps", "other-momentum", "fractional-patch", "two-depths"])
    def test_metadata_save_would_not_write_names_its_tensor(self, tmp_path, name, value):
        # each decodes to a valid config, whose own metadata differs in this one tensor
        path = tmp_path / "m.dck"
        save_checkpoint(path, init_params(0, TINY))
        tensors = read_checkpoint_tensors(path)
        tensors[name] = value
        write_checkpoint_tensors(path, tensors)
        with pytest.raises(FormatError, match=f"architecture metadata {re.escape(name)} is "):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, shape", [
        ("meta.filters", (1, 3)), ("meta.bn_eps", (1, 1)),
    ], ids=["filters-rank-2", "eps-rank-2"])
    def test_metadata_of_another_rank_names_its_tensor_and_both_shapes(self, tmp_path,
                                                                       name, shape):
        # the same values, so only the stored rank differs from what save writes
        path = tmp_path / "m.dck"
        save_checkpoint(path, init_params(0, TINY))
        tensors = read_checkpoint_tensors(path)
        want = tensors[name].shape
        tensors[name] = tensors[name].reshape(shape)
        write_checkpoint_tensors(path, tensors)
        with pytest.raises(FormatError, match=f"architecture metadata {re.escape(name)} is ") as e:
            load_checkpoint(path)
        assert f"of shape {shape}" in str(e.value) and f"of shape {want}" in str(e.value)

    @pytest.mark.parametrize("name,value", [
        ("meta.filters", np.array([2, 0, 4], dtype=np.float32)),
        ("meta.filters", np.array([2, -3, 4], dtype=np.float32)),
        ("meta.in_depth", np.float32(0)),
    ], ids=["zero-filter", "negative-filter", "zero-depth"])
    def test_non_positive_counts_are_format_error(self, tmp_path, name, value):
        path = tmp_path / "m.dck"
        save_checkpoint(path, init_params(0, TINY))
        tensors = read_checkpoint_tensors(path)
        tensors[name] = value
        if value.size == 3 and value[1] == 0:
            # tensors shaped for zero block-two channels, so only the
            # metadata check can refuse the file
            for key in tensors:
                if key.startswith(("conv2.", "bn2.")):
                    tensors[key] = tensors[key][:0]
            tensors["conv3.weight"] = tensors["conv3.weight"][:, :0]
        write_checkpoint_tensors(path, tensors)
        with pytest.raises(FormatError, match="architecture metadata"):
            load_checkpoint(path)

    def test_eval_after_roundtrip_identical(self, tmp_path):
        params = init_params(31, TINY)
        x = np.random.default_rng(4).uniform(0, 1, (5, 1, 6, 3, 3)).astype(np.float32)
        want = predict(params, x[:, 0])
        path = tmp_path / "m.dck"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        got = predict(loaded, x[:, 0])
        assert np.array_equal(want, got)


# One default-model train step at B = 128 after a 2-sample warm-up step;
# prints the ru_maxrss growth over the step and the block-1 activation's
# size, in bytes (Linux reports KiB).
STEP_PROBE = """
import resource
import numpy as np
from dustpipe.model3d import ModelConfig, backward, forward, init_params
cfg = ModelConfig()
params = init_params(0, cfg)
rng = np.random.default_rng(0)
def batch(b):
    return rng.uniform(0, 1, (b, 1, cfg.in_depth, cfg.patch_size, cfg.patch_size)).astype(np.float32)
preds, trace = forward(params, batch(2))
backward(params, trace, preds - 0.5)
x = batch(128)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
preds, trace = forward(params, x)
backward(params, trace, preds - 0.5)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024, 128 * cfg.in_depth * cfg.patch_size ** 2 * cfg.filters[0] * 4)
"""



def test_train_step_working_set_is_bounded():
    pytest.importorskip("resource")
    if sys.platform != "linux":
        pytest.skip("ru_maxrss is read in KiB, as Linux reports it")
    proc = run_fresh("-c", STEP_PROBE)
    assert proc.returncode == 0, proc.stderr
    growth, nbytes = (int(v) for v in proc.stdout.split())
    # the step holds one float array of the block-1 activation's size: the
    # centred activation, which block one's backward turns into its input
    # gradient in place (pooling keeps a byte per window and adds its
    # gradient into that buffer, not into a zero array of its own); the
    # rest is the ReLU masks, the conv columns and block two's arrays.
    # Anything below one activation means the high-water mark was set
    # before the probe ran
    assert nbytes <= growth <= 3.0 * nbytes, f"peak grew by {growth / nbytes:.2f}x block 1"


def test_tile_decisions_stay_behind_predict_scene():
    # evaluation, validation and scene inference reach tiles only through
    # model3d.predict_scene, so the tile walk and plan lifetime live in one place
    internal = {"predict_slabs", "eval_plan", "tile_shape", "scene_tiles"}
    for module in ("training", "inference"):
        tree = ast.parse((Path(dustpipe.__file__).parent / f"{module}.py").read_text())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & internal, module
