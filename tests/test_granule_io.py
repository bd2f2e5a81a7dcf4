"""Container formats: exact byte layouts, round trips, distinct error
reporting, and the synthetic generator's contracts."""

import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from dustpipe.errors import BadMagicError, FormatError, TruncatedFileError
from dustpipe.granule_io import (
    DatasetManifest,
    Granule,
    LabelMap,
    SyntheticConfig,
    generate_synthetic_dataset,
    normalize_label_values,
    normalize_planes,
    open_granule_mmap,
    read_granule,
    read_labels,
    write_granule,
    write_labels,
)

from conftest import tree_digest


def make_granule(data):
    return Granule(np.asarray(data, dtype=np.float32))


class TestGranuleContainer:
    def test_single_value_file_layout(self, tmp_path):
        path = tmp_path / "g.dgr"
        write_granule(make_granule([[[0.5]]]), path)
        raw = path.read_bytes()
        assert len(raw) == 20  # 4 magic + 12 header + 4 data
        assert raw[:4] == b"DGR1"
        assert struct.unpack("<III", raw[4:16]) == (1, 1, 1)
        assert struct.unpack("<f", raw[16:]) == (0.5,)

    def test_payload_size_formula(self, tmp_path):
        # formula checked against a real file, then applied at archive scale
        data = np.zeros((3, 4, 5), dtype=np.float32)
        path = tmp_path / "g.dgr"
        write_granule(Granule(data), path)
        assert path.stat().st_size == 16 + 4 * 3 * 4 * 5
        assert 2030 * 1354 * 38 * 4 == 417_790_240  # full-size granule payload

    def test_roundtrip_bit_exact_with_nan_payloads(self, tmp_path):
        data = np.random.default_rng(0).uniform(-5, 5, size=(3, 4, 5)).astype(np.float32)
        # plant a non-default quiet-NaN bit pattern
        data.view(np.uint32)[0, 0, 0] = 0x7FC00001
        data[1, 2, 3] = np.nan
        path = tmp_path / "g.dgr"
        write_granule(Granule(data), path)
        back = read_granule(path)
        assert back.data.shape == (3, 4, 5)
        assert back.data.tobytes() == data.tobytes()

    def test_bad_magic_reported_distinctly(self, tmp_path):
        path = tmp_path / "bad.dgr"
        path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(BadMagicError):
            read_granule(path)

    def test_truncated_payload_reported_distinctly(self, tmp_path):
        path = tmp_path / "short.dgr"
        # header claims 2x2x1 (4 floats) but only 3 are present
        path.write_bytes(b"DGR1" + struct.pack("<III", 2, 2, 1) + b"\x00" * 12)
        with pytest.raises(TruncatedFileError):
            read_granule(path)

    def test_oversize_payload_is_an_error(self, tmp_path):
        path = tmp_path / "long.dgr"
        path.write_bytes(b"DGR1" + struct.pack("<III", 1, 1, 1) + b"\x00" * 8)
        with pytest.raises(TruncatedFileError):
            read_granule(path)

    def test_mmap_matches_full_load(self, tmp_path):
        data = np.random.default_rng(1).uniform(0, 1, size=(4, 6, 7)).astype(np.float32)
        data[2, 3, 4] = np.nan
        path = tmp_path / "g.dgr"
        write_granule(Granule(data), path)
        full = read_granule(path)
        mapped = read_granule(path, use_mmap=True)
        assert full.data.tobytes() == mapped.data.tobytes()
        arr, handle = open_granule_mmap(path)
        assert arr.tobytes() == full.data.tobytes()
        del arr
        handle.close()

    def test_invalid_dims_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_granule(Granule(np.zeros((0, 2, 2), dtype=np.float32)),
                          tmp_path / "g.dgr")
        path = tmp_path / "zero.dgr"
        path.write_bytes(b"DGR1" + struct.pack("<III", 0, 1, 1))
        with pytest.raises(FormatError):
            read_granule(path)


    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_zero_height_header_rejected_on_both_paths(self, tmp_path, use_mmap):
        path = tmp_path / "zero.dgr"
        path.write_bytes(b"DGR1" + struct.pack("<III", 0, 2, 3))
        with pytest.raises(FormatError):
            read_granule(path, use_mmap=use_mmap)


class TestLabelContainer:
    def test_roundtrip_with_center_nan(self, tmp_path):
        vals = np.arange(9, dtype=np.float32).reshape(3, 3) / 10.0
        vals[1, 1] = np.nan
        path = tmp_path / "l.dlb"
        write_labels(LabelMap(vals), path)
        back = read_labels(path)
        assert back.values.tobytes() == vals.tobytes()
        assert np.isnan(back.values[1, 1])

    def test_known_values_roundtrip(self, tmp_path):
        vals = np.array([[0.0, 0.25], [0.5, 1.0]], dtype=np.float32)
        path = tmp_path / "l.dlb"
        write_labels(LabelMap(vals), path)
        assert np.array_equal(read_labels(path).values, vals)
        assert path.stat().st_size == 12 + 4 * 4

    def test_header_payload_mismatch(self, tmp_path):
        path = tmp_path / "l.dlb"
        path.write_bytes(b"DLB1" + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(TruncatedFileError):
            read_labels(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "l.dlb"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(BadMagicError):
            read_labels(path)


class TestLabelNormalization:
    def test_spanning_map_unchanged(self):
        vals = np.array([[0.0, 0.25], [0.5, 1.0]], dtype=np.float32)
        assert np.array_equal(normalize_label_values(vals), vals)

    def test_out_of_range_rescaled(self):
        vals = np.array([[2.0, 4.0], [6.0, np.nan]], dtype=np.float32)
        out = normalize_label_values(vals)
        assert np.allclose(out[np.isfinite(out)], [0.0, 0.5, 1.0])
        assert np.isnan(out[1, 1])

    def test_constant_map_collapses_to_zero(self):
        vals = np.full((2, 2), 7.0, dtype=np.float32)
        assert np.array_equal(normalize_label_values(vals), np.zeros((2, 2), np.float32))

    def test_all_nan_passthrough(self):
        vals = np.full((2, 2), np.nan, dtype=np.float32)
        assert np.isnan(normalize_label_values(vals)).all()


def masked_normalize(planes):
    """The masked formulation of ``normalize_planes``: per-plane min and max
    of a copy with non-finite values replaced by +-inf.  Returns the
    normalized copy and the mask of planes with no finite value."""
    axes = tuple(range(1, planes.ndim))
    per_plane = (-1,) + (1,) * len(axes)
    finite = np.isfinite(planes)
    lo = np.where(finite, planes, np.float32(np.inf)).min(axis=axes)
    span = np.where(finite, planes, np.float32(-np.inf)).max(axis=axes) - lo
    scaled = span > 0
    out = planes.copy()
    out -= np.where(scaled, lo, 0).reshape(per_plane)
    out /= np.where(scaled, span, 1).reshape(per_plane)
    out[finite & ~scaled.reshape(per_plane)] = 0.0
    return out, lo == np.inf


def _plane(seed, low=-5.0, high=20.0, dtype=np.float32):
    return np.random.default_rng(seed).uniform(low, high, size=(6, 7)).astype(dtype)


def _with(plane, flat_values):
    """``plane`` with its first values (in C order) replaced."""
    plane = plane.copy()
    plane.reshape(-1)[:len(flat_values)] = flat_values
    return plane


def _zero_layouts(low, high):
    """Planes whose extreme is zero, held as 2-8 values of -0.0 and +0.0 at
    seeded positions.  Which zero a reduction returns depends on where the
    zeros fall in its vector lanes, so they are scattered over the plane."""
    planes = []
    for seed in range(12):
        rng = np.random.default_rng(60 + seed)
        plane = _plane(40 + seed, low, high)
        k = int(rng.integers(2, 9))
        at = rng.choice(plane.size, k, replace=False)
        plane.reshape(-1)[at] = np.where(rng.random(k) < 0.5, np.float32(-0.0),
                                         np.float32(0.0))
        planes.append(plane)
    return planes


nan, inf = np.nan, np.inf
PLANE_CASES = {
    "finite": [_plane(1)],
    "one_neg_inf": [_with(_plane(2), [3.0, -inf, nan])],
    "one_pos_inf": [_with(_plane(3), [nan, inf])],
    "both_infs": [_with(_plane(4), [inf, 1.5, nan, -inf])],
    "only_infs_and_nan": [np.array([[inf, nan], [-inf, inf]], np.float32),
                          np.array([[nan, inf], [nan, nan]], np.float32),
                          np.array([[-inf, nan], [nan, -inf]], np.float32)],
    "all_nan": [np.full((3, 4), nan, np.float32)],
    "constant_with_nan": [_with(np.full((4, 5), 3.25, np.float32), [nan, 3.25, nan])],
    "zero_min": _zero_layouts(0.5, 20.0),
    "zero_max": _zero_layouts(-20.0, -0.5),
    "float64": [_with(_plane(5, dtype=np.float64), [nan, -inf, 7.0, inf]),
                _plane(6, dtype=np.float64)],
}


class TestNormalizePlanes:
    """``normalize_planes`` takes NaN-skipping extrema and falls back to the
    masked ones for planes that hold +-inf, nothing finite or a zero min;
    its bytes must equal the masked formulation's in every case."""

    @pytest.mark.parametrize("case", sorted(PLANE_CASES))
    def test_equals_masked_reduction(self, case):
        for plane in PLANE_CASES[case]:
            neighbour = _plane(99, dtype=plane.dtype)[:plane.shape[0], :plane.shape[1]]
            for stack in (plane[None], np.stack([plane, neighbour]),
                          np.stack([neighbour, plane])):
                want, want_empty = masked_normalize(stack)
                got = stack.copy()
                empty = normalize_planes(got)
                assert got.dtype == stack.dtype
                assert got.tobytes() == want.tobytes(), case
                assert np.array_equal(empty, want_empty), case

    # label maps are float32
    @pytest.mark.parametrize("case", sorted(set(PLANE_CASES) - {"float64"}))
    def test_label_maps_equal_masked_reduction(self, case):
        for values in PLANE_CASES[case]:
            want, _ = masked_normalize(values[None])
            assert normalize_label_values(values).tobytes() == want[0].tobytes(), case


class TestRangeBeyondFloat32:
    """A plane whose finite range exceeds float32's (``hi - lo`` overflows)."""

    def test_label_map_lands_in_unit_interval_without_warning(self):
        values = np.array([[-3e38, 0.0, 3e38, nan]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize_label_values(values)
        assert out.dtype == np.float32
        assert np.array_equal(out[0, :3], [0.0, 0.5, 1.0])
        assert np.isnan(out[0, 3])

    def test_only_the_wide_plane_leaves_float32(self):
        wide = np.array([[-3.4e38, 3.4e38, 1e38], [inf, nan, -inf]], np.float32)
        neighbour = _plane(7)[:2, :3]
        got = np.stack([wide, neighbour])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = normalize_planes(got)
        want, _ = masked_normalize(neighbour[None])
        assert got[1].tobytes() == want[0].tobytes()
        lo, hi = np.float64(wide[0, 0]), np.float64(wide[0, 1])  # its finite extrema
        expect = (wide.astype(np.float64) - lo) / (hi - lo)
        assert np.array_equal(got[0], expect.astype(np.float32), equal_nan=True)
        assert not empty.any()


class TestManifest:
    def test_order_defines_folder_index(self, tmp_path):
        m = generate_synthetic_dataset(tmp_path, seed=0, count=3, height=8,
                                       width=8, channels=4)
        loaded = DatasetManifest.load(tmp_path / "manifest.json")
        assert len(loaded) == 3
        for a, b in zip(m, loaded):
            assert Path(a.granule).resolve() == Path(b.granule).resolve()
            assert Path(a.labels).resolve() == Path(b.labels).resolve()

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        generate_synthetic_dataset(tmp_path / "d", seed=0, count=1, height=8,
                                   width=8, channels=4)
        loaded = DatasetManifest.load(tmp_path / "d" / "manifest.json")
        assert read_granule(loaded.entries[0].granule).channels == 4

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"entries": []}')
        with pytest.raises(FormatError):
            DatasetManifest.load(path)

    @pytest.mark.parametrize("entries", [
        '[{"granule": "g.dgr"}]',
        '[{"labels": "l.dlb"}]',
        '["g.dgr"]',
        '[{"granule": 3, "labels": "l.dlb"}]',
        '{"granule": "g.dgr", "labels": "l.dlb"}',
    ])
    def test_malformed_entries_rejected(self, tmp_path, entries):
        path = tmp_path / "m.json"
        path.write_text('{"entries": %s}' % entries)
        with pytest.raises(FormatError):
            DatasetManifest.load(path)


class TestSyntheticGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        generate_synthetic_dataset(tmp_path / "a", seed=7, count=3, height=12,
                                   width=10, channels=6)
        generate_synthetic_dataset(tmp_path / "b", seed=7, count=3, height=12,
                                   width=10, channels=6)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
        generate_synthetic_dataset(tmp_path / "c", seed=8, count=3, height=12,
                                   width=10, channels=6)
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")

    def test_zero_amplitude_means_zero_labels(self, tmp_path):
        cfg = SyntheticConfig(min_plumes=2, max_plumes=3, amplitude=0.0,
                              nan_fraction=0.0)
        m = generate_synthetic_dataset(tmp_path, seed=1, count=2, height=10,
                                       width=10, channels=4, config=cfg)
        for e in m:
            assert (read_labels(e.labels).values == 0.0).all()

    def test_nan_fraction_within_binomial_tolerance(self, tmp_path):
        h, w, c, frac = 32, 32, 12, 0.05
        cfg = SyntheticConfig(nan_fraction=frac)
        m = generate_synthetic_dataset(tmp_path, seed=5, count=3, height=h,
                                       width=w, channels=c, config=cfg)
        n = h * w * c
        sigma = np.sqrt(n * frac * (1 - frac))
        for e in m:
            holes = int(np.isnan(read_granule(e.granule).data).sum())
            assert abs(holes - n * frac) <= 3 * sigma

    def test_label_density_thins_labels(self, tmp_path):
        cfg = SyntheticConfig(label_density=0.25, nan_fraction=0.0)
        m = generate_synthetic_dataset(tmp_path, seed=2, count=1, height=40,
                                       width=40, channels=4, config=cfg)
        vals = read_labels(m.entries[0].labels).values
        frac = np.isfinite(vals).mean()
        assert 0.15 < frac < 0.35

    def test_degenerate_geometry_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(tmp_path, seed=0, count=1, height=3,
                                       width=10, channels=4, patch_size=5)
        with pytest.raises(ValueError):
            generate_synthetic_dataset(tmp_path, seed=0, count=0, height=10,
                                       width=10, channels=4)

    @pytest.mark.parametrize("fields, field", [
        (dict(min_plumes=3, max_plumes=1), "min_plumes"),
        (dict(min_plumes=-1, max_plumes=-1), "min_plumes"),
        (dict(max_plumes=-1), "max_plumes"),
        (dict(min_plumes=-1, max_plumes=2), "min_plumes"),
        (dict(nan_fraction=-0.1), "nan_fraction"),
        (dict(nan_fraction=1.5), "nan_fraction"),
        (dict(label_density=float("nan")), "label_density"),
        (dict(label_density=2.0), "label_density"),
        (dict(noise_sigma=-0.01), "noise_sigma"),
        (dict(noise_sigma=float("inf")), "noise_sigma"),
        (dict(amplitude=float("nan")), "amplitude"),
        (dict(amplitude=-0.5), "amplitude"),
        (dict(amplitude=float("inf")), "amplitude"),
    ], ids=["min-above-max", "negative-plumes", "negative-max-plumes", "negative-min-plumes",
            "negative-nan-fraction", "nan-fraction-above-one", "nan-density", "density-above-one",
            "negative-noise", "infinite-noise", "nan-amplitude", "negative-amplitude",
            "infinite-amplitude"])
    def test_out_of_range_config_rejected(self, fields, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            SyntheticConfig(**fields)

    def test_labels_lie_in_unit_interval(self, tmp_path):
        m = generate_synthetic_dataset(tmp_path, seed=3, count=2, height=16,
                                       width=16, channels=4)
        for e in m:
            vals = read_labels(e.labels).values
            finite = vals[np.isfinite(vals)]
            assert (finite >= 0.0).all() and (finite <= 1.0).all()
