"""Scene inference: geometry, bitwise batch invariance, map containers,
PGM export, and boundary-vs-core scoring."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from dustpipe.errors import (
    BadMagicError,
    EmptyDatasetError,
    ShapeMismatchError,
    TruncatedFileError,
)
from dustpipe.granule_io import (
    Granule,
    LabelMap,
    SyntheticConfig,
    generate_synthetic_dataset,
    normalize_label_values,
    read_granule,
    read_labels,
)
from dustpipe.inference import (
    DetectionMap,
    infer_scene,
    read_map,
    score_map,
    write_map,
    write_pgm,
)
from dustpipe.model3d import ModelConfig, init_params, load_checkpoint, predict, tile_shape
from dustpipe.preprocess import PreprocessConfig, preprocess_pipeline
from test_model3d import signed_params

SMALL_MODEL = ModelConfig(filters=(3, 4, 5), in_depth=6, patch_size=5)


def processed_granule(tmp_path, seed=3, height=12, width=12, channels=6):
    m = generate_synthetic_dataset(
        tmp_path, seed=seed, count=1, height=height, width=width,
        channels=channels, config=SyntheticConfig(min_plumes=1, max_plumes=2))
    g = preprocess_pipeline(read_granule(m.entries[0].granule),
                            PreprocessConfig(rng_seed=4))
    return g, read_labels(m.entries[0].labels)


class TestInferScene:
    def test_minimal_scene_has_one_output_pixel(self, tmp_path):
        g, _ = processed_granule(tmp_path / "d", height=5, width=5)
        dmap = infer_scene(init_params(0, SMALL_MODEL), g)
        finite = np.argwhere(np.isfinite(dmap.values))
        assert finite.tolist() == [[2, 2]]

    def test_constant_granule_constant_interior(self):
        g = Granule(np.full((6, 9, 9), 0.3, dtype=np.float32))
        dmap = infer_scene(init_params(1, SMALL_MODEL), g)
        interior = dmap.values[2:-2, 2:-2]
        assert np.isfinite(interior).all()
        assert len(np.unique(interior)) == 1

    def test_border_band_is_exactly_half_patch(self, tmp_path):
        g, _ = processed_granule(tmp_path / "d", height=11, width=13)
        dmap = infer_scene(init_params(2, SMALL_MODEL), g)
        v = dmap.values
        assert np.isnan(v[:2, :]).all() and np.isnan(v[-2:, :]).all()
        assert np.isnan(v[:, :2]).all() and np.isnan(v[:, -2:]).all()
        assert np.isfinite(v[2:-2, 2:-2]).all()

    def test_matches_per_pixel_oracle(self, tmp_path):
        g, _ = processed_granule(tmp_path / "d")
        params = init_params(3, SMALL_MODEL)
        dmap = infer_scene(params, g, batch_size=16)
        for y in range(2, 10):
            for x in range(2, 10):
                patch = g.data[:, y - 2:y + 3, x - 2:x + 3][None]
                assert dmap.values[y, x] == predict(params, patch)[0]

    def test_bitwise_invariant_to_batch_size(self, tmp_path):
        g, _ = processed_granule(tmp_path / "d")
        params = init_params(4, SMALL_MODEL)
        reference = infer_scene(params, g, batch_size=1).values
        for bs in (7, 64):
            got = infer_scene(params, g, batch_size=bs).values
            assert np.array_equal(reference, got, equal_nan=True)

    @pytest.mark.parametrize("in_depth", range(1, 9))
    def test_default_filters_map_invariant_to_batch_size_at_shallow_depth(self, in_depth):
        # below in_depth 8 a 1 x 1 tile reaches a conv of block two or three
        # as a single row (batch times depth is 1)
        params = signed_params(in_depth, ModelConfig(in_depth=in_depth), np.float32)
        g = Granule(np.random.default_rng(in_depth).uniform(
            0, 1, (in_depth, 16, 16)).astype(np.float32))
        maps = [infer_scene(params, g, batch_size=bs).values.tobytes() for bs in (1, 7, 64)]
        assert maps[0] == maps[1] == maps[2]

    def test_precondition_validation(self, tmp_path):
        g, _ = processed_granule(tmp_path / "d")
        params = init_params(5, SMALL_MODEL)
        wrong_c = Granule(np.zeros((4, 12, 12), dtype=np.float32))
        with pytest.raises(ShapeMismatchError):
            infer_scene(params, wrong_c)
        holey = Granule(g.data.copy())
        holey.data[0, 5, 5] = np.nan
        with pytest.raises(ValueError):
            infer_scene(params, holey)
        for value in (1.5, np.inf, -np.inf, -0.5):
            bad = Granule(g.data.copy())
            bad.data[0, 5, 5] = value
            with pytest.raises(ValueError):
                infer_scene(params, bad)

    def test_batch_size_checked_before_granule_scan(self, tmp_path):
        # a bad batch size is reported before the full-granule value scan,
        # which would otherwise fail first on this NaN
        g, _ = processed_granule(tmp_path / "d")
        holey = Granule(g.data.copy())
        holey.data[0, 5, 5] = np.nan
        with pytest.raises(ValueError, match="batch_size"):
            infer_scene(init_params(5, SMALL_MODEL), holey, batch_size=0)

    def test_scene_smaller_than_patch_is_all_sentinel(self):
        g = Granule(np.full((6, 4, 9), 0.5, dtype=np.float32))
        dmap = infer_scene(init_params(6, SMALL_MODEL), g)
        assert np.isnan(dmap.values).all()

    @pytest.mark.parametrize("where, value", [((5, -1, 6), np.nan), ((0, 7, 0), 1.5)],
                             ids=["nan-last-row", "above-one-first-col"])
    def test_value_check_reaches_the_border_band(self, tmp_path, where, value):
        # infer_scene checks every granule value, the border band's too,
        # before any tile runs
        g, _ = processed_granule(tmp_path / "d")
        bad = Granule(g.data.copy())
        bad.data[where] = value
        with pytest.raises(ValueError, match="not finite in"):
            infer_scene(init_params(5, SMALL_MODEL), bad)

    def test_value_check_scans_scene_smaller_than_patch(self):
        g = Granule(np.full((6, 4, 9), 0.5, dtype=np.float32))
        g.data[3, 2, 8] = np.nan
        with pytest.raises(ValueError, match="not finite in"):
            infer_scene(init_params(6, SMALL_MODEL), g)


class TestTileBoundaries:
    """A tile computes block one once per slab position and class and runs
    blocks two and three as one GEMM over its patches.  Every interior
    pixel must still equal a lone ``predict`` call on its patch, bitwise,
    on a scene two or more tiles across both ways whose last tile is
    ragged in both, with batch-norm scales and conv biases of both signs."""

    @pytest.mark.parametrize("config, dtype", [
        (replace(SMALL_MODEL, patch_size=1), np.float32),
        (replace(SMALL_MODEL, patch_size=3), np.float32),
        (SMALL_MODEL, np.float32),
        (SMALL_MODEL, np.float64),
        (replace(SMALL_MODEL, patch_size=7), np.float32),
        (ModelConfig(), np.float32),
    ], ids=["small-1", "small-3", "small-5", "small-5-f64", "small-7", "default-5"])
    def test_scene_equals_lone_predict_bitwise(self, config, dtype):
        p, h = config.patch_size, config.patch_size // 2
        th, tw = tile_shape(1 << 20, 1 << 20, 256)
        rows, cols = 2 * th + 3, 2 * tw + 3
        assert th >= 2 and tw >= 2 and rows % th and cols % tw
        params = signed_params(p, config, dtype)
        data = np.random.default_rng(p).uniform(
            0, 1, (config.in_depth, rows + p - 1, cols + p - 1)).astype(np.float32)
        dmap = infer_scene(params, Granule(data))
        lone = np.array([[predict(params, data[:, y - h:y + h + 1, x - h:x + h + 1][None])[0]
                          for x in range(h, h + cols)] for y in range(h, h + rows)],
                        dtype=np.float32)
        assert dmap.values[h:h + rows, h:h + cols].tobytes() == lone.tobytes()


class TestMapContainer:
    def test_roundtrip_with_sentinel(self, tmp_path):
        values = np.random.default_rng(0).uniform(0, 1, (5, 7)).astype(np.float32)
        values[0, :] = np.nan
        path = tmp_path / "m.dmp"
        write_map(DetectionMap(values), path)
        back = read_map(path)
        assert back.values.tobytes() == values.tobytes()

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "m.dmp"
        path.write_bytes(b"HUH?" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(BadMagicError):
            read_map(path)
        path.write_bytes(b"DMP1" + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(TruncatedFileError):
            read_map(path)

    def test_pgm_rendering(self, tmp_path):
        values = np.array([[1.0, 0.0, np.nan],
                           [0.5, 0.25, 0.75],
                           [np.nan, 1.0, 0.0]], dtype=np.float32)
        path = tmp_path / "m.pgm"
        write_pgm(DetectionMap(values), path)
        tokens = path.read_text().split()
        assert tokens[:4] == ["P2", "3", "3", "255"]
        grey = [int(t) for t in tokens[4:]]
        assert grey == [255, 0, 0, 128, 64, 191, 0, 255, 0]


class TestScoreMap:
    def test_perfect_map_scores_perfectly(self, tmp_path):
        # scoring happens in the normalized label space (training targets)
        _, labels = processed_granule(tmp_path / "d", height=14, width=14)
        playback = DetectionMap(normalize_label_values(labels.values))
        report = score_map(playback, labels)
        assert report.overall.mse == 0.0
        assert report.overall.accuracy == 1.0

    def test_disjoint_finiteness_is_an_error(self):
        dmap = DetectionMap(np.full((4, 4), np.nan, dtype=np.float32))
        labels = LabelMap(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(EmptyDatasetError):
            score_map(dmap, labels)

    def test_dimension_mismatch_rejected(self):
        dmap = DetectionMap(np.zeros((4, 4), dtype=np.float32))
        labels = LabelMap(np.zeros((5, 4), dtype=np.float32))
        with pytest.raises(ShapeMismatchError):
            score_map(dmap, labels)

    def test_band_split_covers_valid_pixels(self, tmp_path):
        _, labels = processed_granule(tmp_path / "d", height=16, width=16)
        rng = np.random.default_rng(1)
        noisy = np.clip(labels.values + rng.normal(0, 0.05, labels.values.shape), 0, 1)
        report = score_map(DetectionMap(noisy.astype(np.float32)), labels)
        n_bands = (report.boundary.n if report.boundary else 0) + \
                  (report.core.n if report.core else 0)
        assert n_bands == report.overall.n

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (1, 1)])
    def test_one_row_or_column_map_is_scored(self, shape):
        # a length-1 axis has no label gradient: only the other axis splits
        values = np.linspace(0, 1, math.prod(shape), dtype=np.float32).reshape(shape)
        labels = LabelMap(np.where(values > 0.5, 1.0, 0.0).astype(np.float32))
        report = score_map(DetectionMap(values), labels)
        assert report.overall.n == values.size
        n_bands = sum(band.n for band in (report.boundary, report.core) if band is not None)
        assert n_bands == values.size
        if values.size > 1:
            assert report.boundary is not None

    def test_trained_model_struggles_most_at_plume_edges(self, desk_run):
        params, _ = load_checkpoint(desk_run["result"].best_checkpoint)
        entry = desk_run["test"].entries[0]
        granule = read_granule(entry.granule)
        labels = read_labels(entry.labels)
        dmap = infer_scene(params, granule)
        report = score_map(dmap, labels)
        assert report.boundary is not None and report.core is not None
        assert report.boundary.accuracy <= report.core.accuracy
