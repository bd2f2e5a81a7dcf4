"""Normalization and imputation: worked examples, the fallback ladder, and
randomized contract properties."""

import hashlib
import itertools
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from dustpipe import preprocess
from dustpipe.bench import run_fresh
from dustpipe.granule_io import Granule, read_granule, write_granule
from dustpipe.preprocess import (
    PreprocessConfig,
    impute_granule,
    normalize_bands,
    preprocess_pipeline,
)

from conftest import src_env


def band_granule(*bands):
    """Each band given as a 2-D list; stacked into a (C, H, W) granule."""
    return Granule(np.stack([np.asarray(b, dtype=np.float32) for b in bands]))


class TestNormalizeBands:
    def test_linear_rescale(self):
        g = band_granule([[5.0, 10.0, 15.0]])
        out = normalize_bands(g).data
        assert np.array_equal(out[0], [[0.0, 0.5, 1.0]])

    def test_constant_band_maps_to_zero(self):
        g = band_granule([[7.0, 7.0, 7.0]])
        assert np.array_equal(normalize_bands(g).data[0], [[0.0, 0.0, 0.0]])

    def test_nan_passes_through(self):
        g = band_granule([[1.0, np.nan, 3.0]])
        out = normalize_bands(g).data[0, 0]
        assert out[0] == 0.0 and out[2] == 1.0 and np.isnan(out[1])

    def test_all_nan_band_left_alone(self):
        g = band_granule([[np.nan, np.nan]], [[1.0, 2.0]])
        out = normalize_bands(g).data
        assert np.isnan(out[0]).all()
        assert np.array_equal(out[1], [[0.0, 1.0]])

    def test_band_without_finite_values_logged_and_left_as_it_is(self, caplog):
        g = band_granule([[1.0, 2.0]], [[np.inf, np.nan]], [[np.nan, np.inf]])
        with caplog.at_level("WARNING", logger="dustpipe.preprocess"):
            out = normalize_bands(g).data
        assert out[1:].tobytes() == g.data[1:].tobytes()
        assert np.array_equal(out[0], [[0.0, 1.0]])
        assert [r.getMessage() for r in caplog.records] == [
            "bands with no finite values left as they are: [1, 2]"]

    def test_bands_normalized_independently(self):
        g = band_granule([[0.0, 10.0]], [[100.0, 300.0]])
        out = normalize_bands(g).data
        assert np.array_equal(out[0], [[0.0, 1.0]])
        assert np.array_equal(out[1], [[0.0, 1.0]])


def column_granule(column):
    """One band, one column, many rows."""
    col = np.asarray(column, dtype=np.float32)[:, None]
    return Granule(col[None])


class TestImputeGranule:
    def test_fill_within_neighbor_range(self):
        g = column_granule([0.2, np.nan, 0.6])
        out = impute_granule(g, PreprocessConfig(rng_seed=1)).data[0, :, 0]
        assert 0.2 <= out[1] <= 0.6
        assert out[0] == np.float32(0.2) and out[2] == np.float32(0.6)

    def test_equal_neighbors_fill_exactly(self):
        g = column_granule([0.4, np.nan, 0.4])
        out = impute_granule(g, PreprocessConfig(rng_seed=3)).data[0, :, 0]
        assert out[1] == np.float32(0.4)

    def test_band_mean_fallback_for_isolated_column(self):
        # an 11-row all-NaN column is out of reach of the +-5 row window;
        # every hole must become the band mean of the finite snapshot
        rng = np.random.default_rng(0)
        band = rng.uniform(0, 1, size=(11, 6)).astype(np.float32)
        band[:, 2] = np.nan
        expected_mean = np.float32(np.nanmean(band))
        out = impute_granule(Granule(band[None]),
                             PreprocessConfig(rng_seed=5)).data[0]
        assert np.array_equal(out[:, 2], np.full(11, expected_mean))

    def test_all_nan_band_becomes_zero(self):
        g = band_granule([[np.nan, np.nan], [np.nan, np.nan]])
        out = impute_granule(g, PreprocessConfig(rng_seed=2)).data
        assert (out == 0.0).all()

    def test_window_parameter_controls_reach(self):
        # center hole is 4 rows from its finite column neighbors: reachable
        # with window 5, fallback territory with window 3
        band = np.full((9, 2), 0.9, dtype=np.float32)
        band[:, 0] = np.nan
        band[0, 0] = band[8, 0] = 0.4
        g = Granule(band[None])
        out5 = impute_granule(g, PreprocessConfig(impute_window=5, rng_seed=0)).data[0]
        assert out5[4, 0] == np.float32(0.4)
        out3 = impute_granule(g, PreprocessConfig(impute_window=3, rng_seed=0)).data[0]
        assert out3[4, 0] == np.float32(np.nanmean(band))

    def test_snapshot_semantics_no_cascade(self):
        # the second hole must not see the first hole's fill as a neighbor
        g = column_granule([0.0, np.nan, np.nan, 1.0])
        cfg = PreprocessConfig(impute_window=1, rng_seed=11)
        out = impute_granule(g, cfg).data[0, :, 0]
        # row 1's window (rows 0..2) has only 0.0 finite; row 2's only 1.0
        assert out[1] == np.float32(0.0)
        assert out[2] == np.float32(1.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PreprocessConfig(impute_window=0)

    def test_window_taller_than_the_image_pads_nothing(self):
        # rows beyond a column add nothing to a window that already spans it
        g = oracle_case((3, 11, 6), 0.3, 5, False, "C")
        tracemalloc.start()
        got = impute_granule(g, PreprocessConfig(impute_window=10**6, rng_seed=1)).data
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        want = impute_granule(g, PreprocessConfig(impute_window=10, rng_seed=1)).data
        assert got.tobytes() == want.tobytes()
        assert peak < 1 << 20

    def test_negative_seed_rejected_naming_the_field(self):
        with pytest.raises(ValueError, match="^rng_seed "):
            PreprocessConfig(rng_seed=-1)


class TestPipeline:
    def test_nan_free_equals_normalize_alone(self):
        rng = np.random.default_rng(4)
        g = Granule(rng.uniform(5, 9, size=(3, 6, 7)).astype(np.float32))
        a = preprocess_pipeline(g, PreprocessConfig(rng_seed=0)).data
        b = normalize_bands(g).data
        assert a.tobytes() == b.tobytes()

    def test_raw_band_with_hole(self):
        g = column_granule([10.0, np.nan, 30.0])
        out = preprocess_pipeline(g, PreprocessConfig(rng_seed=6)).data[0, :, 0]
        assert out[0] == 0.0 and out[2] == 1.0 and 0.0 <= out[1] <= 1.0

    def test_idempotent_on_processed_granules(self):
        rng = np.random.default_rng(8)
        g = Granule(rng.uniform(2, 4, size=(4, 8, 9)).astype(np.float32))
        once = preprocess_pipeline(g, PreprocessConfig(rng_seed=1))
        twice = preprocess_pipeline(once, PreprocessConfig(rng_seed=1))
        assert once.data.tobytes() == twice.data.tobytes()


class TestInputLayouts:
    """Imputation gathers and writes by flat index; a flat write through a
    ``reshape(-1)`` copy of a non-contiguous array would be lost without an
    error, so every input layout must give the C-contiguous case's bytes and
    leave its input unchanged."""

    def test_every_layout_gives_the_contiguous_bytes(self, tmp_path):
        rng = np.random.default_rng(12)
        data = rng.uniform(-3, 40, size=(5, 13, 11)).astype(np.float32)
        data[rng.random(data.shape) < 0.3] = np.nan
        data[1, :, 4] = np.nan  # an orphan column
        path = tmp_path / "g.dgr"
        write_granule(Granule(data), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()

        cfg = PreprocessConfig(impute_window=2, rng_seed=3)
        want = preprocess_pipeline(Granule(data), cfg, folder_index=4).data.tobytes()
        want_imputed = impute_granule(Granule(data), cfg, folder_index=4).data.tobytes()
        wide = np.full((5, 26, 33), 7.5, dtype=np.float32)
        wide[:, ::2, ::3] = data
        mapped = read_granule(path, use_mmap=True).data
        layouts = {"memory-mapped": mapped, "fortran": np.asfortranarray(data),
                   "strided": wide[:, ::2, ::3]}
        assert not mapped.flags.writeable
        assert not layouts["fortran"].flags.c_contiguous
        assert not layouts["strided"].flags.c_contiguous
        for name, source in layouts.items():
            before = source.tobytes()
            got = preprocess_pipeline(Granule(source), cfg, folder_index=4).data
            assert got.tobytes() == want, name
            got = impute_granule(Granule(source), cfg, folder_index=4).data
            assert got.tobytes() == want_imputed, name
            assert source.tobytes() == before, name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRandomizedProperties:
    def _random_granule(self, rng):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(3, 20))
        w = int(rng.integers(3, 20))
        data = rng.uniform(-10, 10, size=(c, h, w)).astype(np.float32)
        holes = rng.random((c, h, w)) < rng.uniform(0.0, 0.4)
        data[holes] = np.nan
        return Granule(data)

    def test_output_finite_unit_interval_and_bounded_fills(self):
        rng = np.random.default_rng(42)
        cfg = PreprocessConfig(rng_seed=17)
        for _ in range(25):
            g = self._random_granule(rng)
            normalized = normalize_bands(g)
            out = impute_granule(normalized, cfg)
            assert np.isfinite(out.data).all()
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0
            # independent per-position window recheck
            snap = normalized.data
            holes = np.argwhere(~np.isfinite(snap))
            idx = rng.permutation(len(holes))[:40]
            for c, y, x in holes[idx]:
                lo_row = max(0, y - cfg.impute_window)
                hi_row = min(snap.shape[1], y + cfg.impute_window + 1)
                neigh = snap[c, lo_row:hi_row, x]
                neigh = neigh[np.isfinite(neigh)]
                if len(neigh):
                    v = out.data[c, y, x]
                    assert neigh.min() <= v <= neigh.max()

    def test_determinism_across_runs(self):
        rng = np.random.default_rng(9)
        g = self._random_granule(rng)
        cfg = PreprocessConfig(rng_seed=23)
        a = preprocess_pipeline(g, cfg, folder_index=2).data.tobytes()
        b = preprocess_pipeline(g, cfg, folder_index=2).data.tobytes()
        assert a == b
        c = preprocess_pipeline(g, PreprocessConfig(rng_seed=24), folder_index=2).data.tobytes()
        assert a != c

    def test_normalization_preserves_order(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = self._random_granule(rng)
            out = normalize_bands(g).data
            for c in range(g.channels):
                src = g.data[c].ravel()
                dst = out[c].ravel()
                finite = np.isfinite(src)
                order = np.argsort(src[finite], kind="stable")
                sorted_dst = dst[finite][order]
                assert (np.diff(sorted_dst) >= 0).all()


# ---------------------------------------------------------------------------
# Whole-volume reference: the earlier formulation of both steps, kept as the
# oracle for the slab-by-slab implementation.  Same bytes are required.
# ---------------------------------------------------------------------------


def reference_normalize_bands(data):
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
    return out


def reference_impute_granule(source, cfg, folder_index):
    data = source.copy()
    nan_mask = ~np.isfinite(data)
    if not nan_mask.any():
        return data
    size = 2 * cfg.impute_window + 1
    lo = minimum_filter1d(np.where(nan_mask, np.float32(np.inf), data),
                          size=size, axis=1, mode="constant", cval=np.inf)
    hi = maximum_filter1d(np.where(nan_mask, np.float32(-np.inf), data),
                          size=size, axis=1, mode="constant", cval=-np.inf)
    draws = np.random.default_rng((cfg.rng_seed, folder_index)).random(data.shape)
    with np.errstate(invalid="ignore"):
        fill = (lo.astype(np.float64) + draws * (hi - lo).astype(np.float64))
        fill = fill.astype(np.float32)
    data[nan_mask] = fill[nan_mask]
    orphan = nan_mask & ~np.isfinite(lo)
    if orphan.any():
        snapshot = np.where(nan_mask, np.nan, source)
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            band_mean = np.nanmean(snapshot, axis=(1, 2))
        band_mean = np.nan_to_num(band_mean, nan=0.0).astype(np.float32)
        data[orphan] = np.broadcast_to(band_mean[:, None, None], data.shape)[orphan]
    return data


def oracle_case(shape, frac, seed, special, order):
    """Random radiances with NaN holes; ``special`` adds an orphan column,
    an all-NaN band, a constant band, +-inf values and, in C order, signed
    zeros.  (Which zero the reference's min picks among -0.0 and 0.0
    depends on its input's memory layout; the slab form always reads
    the C-ordered output copy, so in Fortran order only the sign of a zero
    could differ.)"""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    data = rng.uniform(-5, 20, size=shape).astype(np.float32)
    data[rng.random(shape) < frac] = np.nan
    if special:
        data[0, :, w // 2] = np.nan
        data[1] = np.nan
        data[2] = np.float32(3.25)
        data[2, 0, 0] = np.nan
        data[c - 1, h // 2, 0] = np.inf
        data[c - 1, 0, w - 1] = -np.inf
        if order == "C":
            data[2:, 1::3, ::2] = np.float32(-0.0)
            data[2:, 2::3, ::2] = np.float32(0.0)
    return Granule(np.asfortranarray(data) if order == "F" else data)


class TestWholeVolumeOracle:
    # the default slab holds each grid granule whole; 1 byte gives one band
    # per slab, 2000 bytes a few bands of the smaller shapes
    @pytest.mark.parametrize("slab_bytes", [preprocess.SLAB_BYTES, 1, 2000])
    @pytest.mark.parametrize("frac", [0.0, 0.05, 0.3, 0.9])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 7, 1), (3, 11, 6), (6, 14, 14),
                                       (5, 40, 33), (38, 64, 48)])
    def test_bitwise_equal_to_reference(self, shape, frac, slab_bytes, monkeypatch):
        monkeypatch.setattr(preprocess, "SLAB_BYTES", slab_bytes)
        for special, order, window in itertools.product((False, True), ("C", "F"),
                                                        (1, 2, 5, 20)):
            if special and shape[0] < 3:
                continue
            seed = 97 * shape[0] + shape[1] + int(frac * 100)
            g = oracle_case(shape, frac, seed, special, order)
            cfg = PreprocessConfig(impute_window=window, rng_seed=seed % 7)
            case = f"special={special} order={order} window={window}"

            normalized = normalize_bands(g).data
            expected = reference_normalize_bands(g.data)
            assert normalized.tobytes() == expected.tobytes(), case
            for source in (g.data, expected):
                got = impute_granule(Granule(source), cfg, folder_index=2).data
                want = reference_impute_granule(source, cfg, 2)
                assert got.tobytes() == want.tobytes(), case
            got = preprocess_pipeline(g, cfg, folder_index=1).data
            want = reference_impute_granule(expected, cfg, 1)
            assert got.tobytes() == want.tobytes(), case

    # the default slab holds each grid granule whole, which runs inline
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("slab_bytes", [1, 2000])
    @pytest.mark.parametrize("frac", [0.0, 0.05, 0.9])
    @pytest.mark.parametrize("shape", [(1, 7, 1), (3, 11, 6), (6, 14, 14), (5, 40, 33)])
    def test_bitwise_equal_at_every_worker_count(self, shape, frac, slab_bytes, workers,
                                                 monkeypatch):
        """The grid above with the usable cores forced, so that the
        multi-worker cases run on any host."""
        ran = record_workers(monkeypatch, workers)
        self.test_bitwise_equal_to_reference(shape, frac, slab_bytes, monkeypatch)
        slabs = len(preprocess._slab_plan(np.empty(shape, np.float32))[0])
        assert ran == {1 if slabs == 1 else min(workers, slabs)}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_hole_free_middle_slabs(self, workers, monkeypatch):
        """A slab with no hole draws nothing, so the next slab's generator
        must still start at its own first band."""
        ran = record_workers(monkeypatch, workers)
        monkeypatch.setattr(preprocess, "SLAB_BYTES", 1)
        rng = np.random.default_rng(31)
        data = rng.uniform(0, 1, size=(9, 12, 10)).astype(np.float32)
        for c in (0, 1, 7, 8):
            data[c][rng.random((12, 10)) < 0.2] = np.nan
        assert np.isfinite(data[2:7]).all()
        cfg = PreprocessConfig(impute_window=2, rng_seed=5)
        got = impute_granule(Granule(data), cfg, folder_index=3).data
        assert got.tobytes() == reference_impute_granule(data, cfg, 3).tobytes()
        assert ran == {workers}

    def test_fewer_slabs_than_workers(self, monkeypatch):
        ran = record_workers(monkeypatch, 4)
        monkeypatch.setattr(preprocess, "SLAB_BYTES", 1)
        g = oracle_case((2, 30, 17), 0.3, 8, False, "C")
        cfg = PreprocessConfig(impute_window=3, rng_seed=2)
        normalized = normalize_bands(g).data
        assert normalized.tobytes() == reference_normalize_bands(g.data).tobytes()
        got = impute_granule(Granule(normalized), cfg, folder_index=6).data
        assert got.tobytes() == reference_impute_granule(normalized, cfg, 6).tobytes()
        assert ran == {2}


def record_workers(monkeypatch, cores):
    """Force ``cores`` usable cores; returns the set of worker counts that
    imputation's slab loop then runs on."""
    ran = set()
    run = preprocess._on_workers

    def recording(work, workers):
        ran.add(workers)
        return run(work, workers)

    monkeypatch.setattr(preprocess, "_usable_cores", lambda: cores)
    monkeypatch.setattr(preprocess, "_on_workers", recording)
    return ran


class TestWorkers:
    """Imputation's slab loop on more than one worker: errors and input
    layouts behave as on one.  Normalization starts no worker and logs from
    the caller."""

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        ran = record_workers(monkeypatch, 3)
        monkeypatch.setattr(preprocess, "SLAB_BYTES", 1)
        error = ArithmeticError("slab of band 4")
        impute = preprocess._impute_slab

        def failing(slab, first, *args):
            if first == 4:
                raise error
            return impute(slab, first, *args)

        monkeypatch.setattr(preprocess, "_impute_slab", failing)
        data = np.ones((6, 3, 5), np.float32)
        with pytest.raises(ArithmeticError) as raised:
            impute_granule(Granule(data), PreprocessConfig())
        assert raised.value is error
        assert ran == {3}

    def test_empty_bands_logged_once_in_order_from_the_caller(self, monkeypatch, caplog):
        record_workers(monkeypatch, 3)
        monkeypatch.setattr(preprocess, "SLAB_BYTES", 1)
        data = np.ones((8, 4, 4), dtype=np.float32)
        data[[1, 2, 6, 7]] = np.nan
        data[5] = np.inf
        with caplog.at_level("WARNING", logger="dustpipe.preprocess"):
            normalize_bands(Granule(data))
        assert [r.getMessage() for r in caplog.records] == [
            "bands with no finite values left as they are: [1, 2, 5, 6, 7]"]
        assert caplog.records[0].thread == threading.get_ident()

    def test_input_layouts_on_workers(self, tmp_path, monkeypatch):
        """``TestInputLayouts`` with one band per slab on two workers; the
        worker grid above ties the contiguous case to the inline bytes."""
        ran = record_workers(monkeypatch, 2)
        monkeypatch.setattr(preprocess, "SLAB_BYTES", 1)
        TestInputLayouts().test_every_layout_gives_the_contiguous_bytes(tmp_path)
        assert ran == {2}

    def test_one_slab_imports_no_pool(self, tmp_path):
        """``dustpipe.cli`` and a one-slab granule leave ``concurrent.futures``
        unloaded; the first multi-slab call loads it."""
        probe = (
            "import sys\n"
            "import numpy as np\n"
            "import dustpipe.cli\n"
            "from dustpipe import preprocess\n"
            "from dustpipe.granule_io import Granule\n"
            "loaded = lambda: 'concurrent.futures' in sys.modules\n"
            "assert not loaded(), 'import'\n"
            "g = Granule(np.full((38, 36, 36), np.nan, np.float32))\n"
            "preprocess.preprocess_pipeline(g, preprocess.PreprocessConfig())\n"
            "assert not loaded(), 'one slab'\n"
            "preprocess._usable_cores = lambda: 2\n"
            "preprocess.SLAB_BYTES = 1\n"
            "preprocess.preprocess_pipeline(g, preprocess.PreprocessConfig())\n"
            "assert loaded(), 'two slabs'\n"
        )
        subprocess.run([sys.executable, "-c", probe], env=src_env(), check=True)


# Reads the granule, then runs the pipeline; prints the ru_maxrss growth over
# the pipeline and the granule's payload size, in bytes (Linux reports KiB).
MEMORY_PROBE = """
import resource, sys
from dustpipe.granule_io import read_granule
from dustpipe.preprocess import PreprocessConfig, preprocess_pipeline
granule = read_granule(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
preprocess_pipeline(granule, PreprocessConfig())
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024, granule.data.nbytes)
"""


def pipeline_growth(tmp_path, prelude: str = "") -> tuple[int, int]:
    """``MEMORY_PROBE``'s two numbers for a 38 x 512 x 512 granule with 5%
    NaN, from a fresh interpreter that runs ``prelude`` first."""
    pytest.importorskip("resource")
    if sys.platform != "linux":
        pytest.skip("ru_maxrss is read in KiB, as Linux reports it")
    shape = (38, 512, 512)
    rng = np.random.default_rng(0)
    data = rng.uniform(0, 300, size=shape).astype(np.float32)
    data[rng.random(shape) < 0.05] = np.nan
    path = tmp_path / "g.dgr"
    write_granule(Granule(data), path)
    del data

    proc = run_fresh("-c", prelude + MEMORY_PROBE, str(path))
    assert proc.returncode == 0, proc.stderr
    growth, nbytes = (int(v) for v in proc.stdout.split())
    return growth, nbytes


def test_pipeline_working_set_is_bounded(tmp_path):
    growth, nbytes = pipeline_growth(tmp_path)
    # the pipeline holds two output copies; anything below one copy means
    # the high-water mark was already set before the probe ran
    assert nbytes <= growth <= 3 * nbytes, f"peak grew by {growth / nbytes:.2f}x the granule"


def test_worker_scratch_within_half_the_granule():
    """At the worker cap, on a granule of one band per slab, the scratch
    arrays of all workers together take at most half the granule."""
    data = np.empty((38, 512, 512), np.float32)  # never touched
    firsts, size, _ = preprocess._slab_plan(data)
    assert size == 1
    spaces = preprocess._scratch(data, size, PreprocessConfig().impute_window,
                                 preprocess._MAX_WORKERS)
    assert sum(a.nbytes for space in spaces for a in space) <= 0.5 * data.nbytes


def test_pipeline_working_set_is_bounded_on_four_workers(tmp_path):
    """``test_pipeline_working_set_is_bounded`` with four usable cores forced."""
    forced = ("from dustpipe import preprocess\n"
              "preprocess._usable_cores = lambda: 4\n"
              "assert preprocess._slab_plan(preprocess.np.empty((38, 512, 512)))[2] == 4\n")
    growth, nbytes = pipeline_growth(tmp_path, forced)
    assert nbytes <= growth <= 3 * nbytes, f"peak grew by {growth / nbytes:.2f}x the granule"
