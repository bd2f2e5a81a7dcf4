"""Patch-center index: construction vs a brute-force oracle, the container
format, store extraction, and the two samplers."""

import struct
import warnings
from contextlib import closing

import numpy as np
import pytest

from dustpipe.errors import (
    BadMagicError,
    EmptyDatasetError,
    FormatError,
    IndexMismatchError,
    ShapeMismatchError,
    TruncatedFileError,
)
from dustpipe.granule_io import (
    DatasetManifest,
    SyntheticConfig,
    generate_synthetic_dataset,
    read_granule,
)
from dustpipe.patch_index import (
    GranuleStore,
    PatchIndex,
    batch_footprint_bytes,
    build_index,
    iter_batches,
    naive_sample_batches,
    patch_windows,
    read_index,
    sample_batches,
    shuffle_partitions,
    valid_centers,
    validate_index,
    write_index,
)

from conftest import write_manifest


def brute_force_centers(labels: np.ndarray, patch_size: int) -> list[tuple[int, int]]:
    """Independent double-loop oracle for the two validity conditions."""
    h = patch_size // 2
    height, width = labels.shape
    out = []
    for y in range(height):
        for x in range(width):
            if not np.isfinite(labels[y, x]):
                continue
            if h <= y < height - h and h <= x < width - h:
                out.append((y, x))
    return out


def write_dataset(tmp_path, label_arrays, channels=3):
    """Write granule/label pairs for in-memory label maps, the granules
    uniform in [0, 1)."""
    rng = np.random.default_rng(0)
    granules = [rng.uniform(0, 1, size=(channels, *labels.shape)) for labels in label_arrays]
    return write_manifest(tmp_path, granules, label_arrays)


class TestBuildIndex:
    def test_seven_by_seven_all_finite(self, tmp_path):
        labels = np.zeros((7, 7), dtype=np.float32)
        manifest = write_dataset(tmp_path, [labels])
        index = build_index(manifest, 5)
        expected = [[0, y, x] for y in range(2, 5) for x in range(2, 5)]
        assert len(index) == 9
        assert index.triplets.tolist() == expected

    def test_nan_center_excluded(self, tmp_path):
        labels = np.zeros((7, 7), dtype=np.float32)
        labels[3, 3] = np.nan
        manifest = write_dataset(tmp_path, [labels])
        index = build_index(manifest, 5)
        assert len(index) == 8
        assert [0, 3, 3] not in index.triplets.tolist()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(120):
            h = int(rng.integers(5, 41))
            w = int(rng.integers(5, 41))
            p = int(rng.choice([1, 3, 5, 7]))
            labels = rng.uniform(0, 1, size=(h, w)).astype(np.float32)
            labels[rng.random((h, w)) < rng.uniform(0, 0.6)] = np.nan
            got = valid_centers(labels, p).tolist()
            assert got == [list(t) for t in brute_force_centers(labels, p)]
        # every map up to 6x6, most of them smaller than the window
        for h in range(1, 7):
            for w in range(1, 7):
                for p in (1, 3, 5, 7):
                    labels = rng.uniform(0, 1, size=(h, w)).astype(np.float32)
                    labels[rng.random((h, w)) < 0.3] = np.nan
                    got = valid_centers(labels, p)
                    assert got.shape[1] == 2
                    assert got.tolist() == [list(t) for t in brute_force_centers(labels, p)]

    def test_even_patch_size_rejected(self, tmp_path):
        labels = np.zeros((7, 7), dtype=np.float32)
        manifest = write_dataset(tmp_path, [labels])
        with pytest.raises(ValueError):
            build_index(manifest, 4)
        with pytest.raises(ValueError):
            build_index(manifest, 0)

    def test_undersized_map_yields_empty_folder(self, tmp_path):
        manifest = write_dataset(tmp_path, [np.zeros((3, 3), dtype=np.float32),
                                            np.zeros((5, 5), dtype=np.float32)])
        index = build_index(manifest, 5)
        assert index.triplets.tolist() == [[1, 2, 2]]

    def test_folder_order_and_sorting(self, tmp_path):
        a = np.zeros((5, 6), dtype=np.float32)
        b = np.zeros((6, 5), dtype=np.float32)
        manifest = write_dataset(tmp_path, [a, b])
        t = build_index(manifest, 5).triplets
        assert (np.diff(t[:, 0]) >= 0).all()
        keys = t[:, 0] * 10**6 + t[:, 1] * 10**3 + t[:, 2]
        assert (np.diff(keys) > 0).all()  # sorted, no duplicates


def _label_case(name):
    rng = np.random.default_rng(3)
    labels = rng.uniform(0, 1, size=(9, 11)).astype(np.float32)
    holes = rng.random(labels.shape) < 0.3
    labels[holes] = np.nan
    if name == "range-beyond-float32":  # its span overflows in float32
        labels = np.where(holes, np.nan, rng.uniform(-3e38, 3e38, labels.shape)).astype(np.float32)
    elif name == "infs":
        labels.reshape(-1)[[4, 30, 61]] = [np.inf, -np.inf, np.inf]
    elif name == "constant":
        labels[~holes] = 4.0
    elif name == "all-nan":
        labels[:] = np.nan
    return labels


class TestStoreIndex:
    @pytest.mark.parametrize("case", ["fractions", "range-beyond-float32", "infs",
                                      "constant", "all-nan"])
    @pytest.mark.parametrize("patch_size", [1, 3, 5])
    def test_equals_build_index(self, tmp_path, case, patch_size):
        plain = np.random.default_rng(4).uniform(0, 1, size=(7, 8)).astype(np.float32)
        manifest = write_dataset(tmp_path, [_label_case(case), plain])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # normalizing the labels warns of nothing
            with closing(GranuleStore(manifest)) as store:
                got = store.index(patch_size)
        want = build_index(manifest, patch_size)
        assert got.patch_size == want.patch_size == patch_size
        assert np.array_equal(got.triplets, want.triplets)


class TestValidator:
    def test_clean_index_passes(self, tmp_path):
        labels = np.zeros((9, 9), dtype=np.float32)
        labels[4, 4] = np.nan
        manifest = write_dataset(tmp_path, [labels])
        index = build_index(manifest, 3)
        assert validate_index(index, manifest) == []

    def test_mutations_detected(self, tmp_path):
        labels = np.zeros((9, 9), dtype=np.float32)
        labels[4, 4] = np.nan
        manifest = write_dataset(tmp_path, [labels])
        index = build_index(manifest, 3)

        bad = PatchIndex(index.triplets.copy(), 3)
        bad.triplets[0] = (0, 0, 0)  # border violation
        assert any("bounds" in p for p in validate_index(bad, manifest))

        bad = PatchIndex(index.triplets.copy(), 3)
        bad.triplets[0] = (0, 4, 4)  # NaN label
        assert any("not finite" in p for p in validate_index(bad, manifest))

        bad = PatchIndex(index.triplets.copy(), 3)
        bad.triplets[0, 0] = 5  # folder out of range
        assert any("folder" in p for p in validate_index(bad, manifest))

        bad = PatchIndex(index.triplets[:-1].copy(), 3)  # incomplete
        assert any("full sorted center set" in p for p in validate_index(bad, manifest))


class TestIndexContainer:
    def test_empty_index_is_16_bytes(self, tmp_path):
        path = tmp_path / "i.dix"
        write_index(PatchIndex(np.empty((0, 3), dtype=np.int64), 5), path)
        assert path.stat().st_size == 16

    def test_nine_triplets_are_124_bytes(self, tmp_path):
        t = np.array([[0, y, x] for y in range(2, 5) for x in range(2, 5)],
                     dtype=np.int64)
        path = tmp_path / "i.dix"
        write_index(PatchIndex(t, 5), path)
        assert path.stat().st_size == 16 + 9 * 12

    def test_roundtrip(self, tmp_path):
        t = np.array([[0, 2, 2], [1, 3, 4], [2, 10, 20]], dtype=np.int64)
        path = tmp_path / "i.dix"
        write_index(PatchIndex(t, 7), path)
        back = read_index(path)
        assert back.patch_size == 7
        assert np.array_equal(back.triplets, t)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "i.dix"
        path.write_bytes(b"WHAT" + struct.pack("<IQ", 5, 0))
        with pytest.raises(BadMagicError):
            read_index(path)
        path.write_bytes(b"DIX1" + struct.pack("<IQ", 5, 2) + b"\x00" * 12)
        with pytest.raises(TruncatedFileError):
            read_index(path)


    @pytest.mark.parametrize("patch_size", [0, 4])
    def test_even_or_zero_patch_size_rejected(self, tmp_path, patch_size):
        path = tmp_path / "i.dix"
        path.write_bytes(b"DIX1" + struct.pack("<IQ", patch_size, 1) + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_index(path)

    @pytest.mark.parametrize("patch_size", [0, 4])
    def test_writer_rejects_even_or_zero_patch_size(self, tmp_path, patch_size):
        path = tmp_path / "i.dix"
        t = np.array([[0, 2, 2]], dtype=np.int64)
        with pytest.raises(ValueError):
            write_index(PatchIndex(t, patch_size), path)
        assert not path.exists()


class TestPatchWindows:
    @pytest.mark.parametrize("use_mmap", [False, True], ids=["in-memory", "mmap"])
    @pytest.mark.parametrize("patch_size", [1, 3, 5, 7])
    def test_every_window_is_the_centered_slice(self, tmp_path, patch_size, use_mmap):
        manifest = write_dataset(tmp_path, [np.zeros((9, 11), dtype=np.float32)])
        data = read_granule(manifest.entries[0].granule, use_mmap=use_mmap).data
        h = patch_size // 2
        windows = patch_windows(data, patch_size)
        assert windows.shape == (10 - patch_size, 12 - patch_size, 3, patch_size, patch_size)
        assert not windows.flags.writeable
        for y in range(h, 9 - h):
            for x in range(h, 11 - h):
                assert np.array_equal(windows[y - h, x - h],
                                      data[:, y - h:y + h + 1, x - h:x + h + 1])


class TestExtraction:
    def test_patch_size_one_is_single_pixel(self, tmp_path):
        labels = np.zeros((4, 4), dtype=np.float32)
        manifest = write_dataset(tmp_path, [labels], channels=5)
        store = GranuleStore(manifest)
        patches, labels_out = store.extract_batch(np.array([[0, 1, 2]]), 1)
        assert patches.shape == (1, 5, 1, 1)
        assert np.array_equal(patches[0, :, 0, 0], store.granule(0)[:, 1, 2])
        assert labels_out[0] == store.labels(0)[1, 2]

    def test_constant_granule_constant_patch(self, tmp_path):
        g = np.full((2, 6, 6), 0.7, dtype=np.float32)
        labels = np.zeros((6, 6), dtype=np.float32)
        store = GranuleStore(write_manifest(tmp_path, [g], [labels]))
        patches, _ = store.extract_batch(np.array([[0, 2, 3]]), 5)
        assert (patches == np.float32(0.7)).all()

    def test_matches_full_load_slicing_oracle(self, tmp_path):
        rng = np.random.default_rng(77)
        labels = rng.uniform(0, 1, size=(12, 14)).astype(np.float32)
        manifest = write_dataset(tmp_path, [labels], channels=4)
        index = build_index(manifest, 5)
        mm_store = GranuleStore(manifest, use_mmap=True)
        full_store = GranuleStore(manifest, use_mmap=False)
        full = full_store.granule(0)
        for t in index.triplets[rng.permutation(len(index))[:25]]:
            f, y, x = t
            patches, _ = mm_store.extract_batch(t[None], 5)
            oracle = full[:, y - 2:y + 3, x - 2:x + 3]
            assert np.array_equal(patches[0], oracle)
        # batched extraction equals one-row extraction, mmap equals full
        sel = index.triplets[rng.permutation(len(index))[:40]]
        got_m, lab_m = mm_store.extract_batch(sel, 5)
        got_f, lab_f = full_store.extract_batch(sel, 5)
        assert np.array_equal(got_m, got_f)
        assert np.array_equal(lab_m, lab_f)
        for i, t in enumerate(sel):
            f, y, x = t
            p, l = full_store.extract_batch(t[None], 5)
            assert np.array_equal(got_m[i], p[0])
            assert np.array_equal(got_m[i], full[:, y - 2:y + 3, x - 2:x + 3])
            assert lab_m[i] == full_store.labels(int(f))[y, x]
            assert lab_m[i] == l[0]

    @pytest.mark.parametrize("patch_size", [0, 2, 4])
    def test_even_or_zero_patch_size_rejected(self, tmp_path, patch_size):
        manifest = write_dataset(tmp_path, [np.zeros((9, 9), dtype=np.float32)])
        with pytest.raises(ValueError):
            GranuleStore(manifest).extract_batch(np.array([[0, 4, 4]]), patch_size)

    def test_out_of_bounds_triplet_rejected(self, tmp_path):
        labels = np.zeros((6, 6), dtype=np.float32)
        manifest = write_dataset(tmp_path, [labels])
        store = GranuleStore(manifest)
        with pytest.raises(IndexMismatchError):
            store.extract_batch(np.array([[0, 0, 3]]), 5)
        with pytest.raises(IndexMismatchError):
            store.extract_batch(np.array([[3, 3, 3]]), 5)

    def test_mispaired_label_dimensions_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [np.zeros((2, 6, 6))], [np.zeros((6, 7))])
        with pytest.raises(FormatError):
            GranuleStore(manifest)

    def test_channel_count_mismatch_rejected(self, tmp_path):
        labels = np.zeros((6, 6), dtype=np.float32)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        four = write_dataset(tmp_path / "a", [labels], channels=4)
        one = write_dataset(tmp_path / "b", [labels], channels=1)
        with pytest.raises(ShapeMismatchError):
            GranuleStore(DatasetManifest(four.entries + one.entries))


class TestSampling:
    def _index_store(self, tmp_path, n_rows=8, n_cols=8, channels=2):
        labels = np.zeros((n_rows, n_cols), dtype=np.float32)
        manifest = write_dataset(tmp_path, [labels], channels=channels)
        return build_index(manifest, 3), GranuleStore(manifest)

    def test_partition_sizes(self):
        index = PatchIndex(np.zeros((10, 3), dtype=np.int64), 5)
        sizes = [len(p) for p in shuffle_partitions(index, 0, 5)]
        assert sizes == [2, 2, 2, 2, 2]
        index = PatchIndex(np.zeros((11, 3), dtype=np.int64), 5)
        sizes = [len(p) for p in shuffle_partitions(index, 0, 5)]
        assert sorted(sizes, reverse=True) == [3, 2, 2, 2, 2]

    def test_deterministic_batches(self, tmp_path):
        index, store = self._index_store(tmp_path)
        a = [b.triplets.tolist() for b in sample_batches(index, store, 4, seed=9)]
        b = [b.triplets.tolist() for b in sample_batches(index, store, 4, seed=9)]
        assert a == b
        c = [b.triplets.tolist() for b in sample_batches(index, store, 4, seed=10)]
        assert a != c

    def test_epoch_visits_each_triplet_once(self, tmp_path):
        index, store = self._index_store(tmp_path)
        seen = np.vstack([b.triplets for b in sample_batches(index, store, 5, seed=3)])
        assert len(seen) == len(index)
        assert sorted(map(tuple, seen.tolist())) == sorted(map(tuple, index.triplets.tolist()))

    def test_batch_contents_in_unit_interval(self, tmp_path):
        index, store = self._index_store(tmp_path)
        for batch in sample_batches(index, store, 7, seed=1):
            assert batch.inputs.dtype == np.float32
            assert np.isfinite(batch.targets).all()

    def test_empty_index_raises(self, tmp_path):
        _, store = self._index_store(tmp_path)
        empty = PatchIndex(np.empty((0, 3), dtype=np.int64), 3)
        with pytest.raises(EmptyDatasetError):
            next(sample_batches(empty, store, 4, seed=0))

    def test_naive_same_multiset_per_epoch(self, tmp_path):
        manifest = generate_synthetic_dataset(
            tmp_path, seed=2, count=2, height=10, width=10, channels=3,
            config=SyntheticConfig(label_density=0.7, nan_fraction=0.0))
        index = build_index(manifest, 3)
        store = GranuleStore(manifest)
        fast = np.vstack([b.triplets for b in sample_batches(index, store, 8, seed=5, partitions=1)])
        slow = np.vstack([b.triplets for b in naive_sample_batches(store, 3, 8, seed=5)])
        assert sorted(map(tuple, fast.tolist())) == sorted(map(tuple, slow.tolist()))

    def test_naive_empty_dataset_is_empty_stream(self, tmp_path):
        labels = np.full((8, 8), np.nan, dtype=np.float32)
        manifest = write_dataset(tmp_path, [labels])
        store = GranuleStore(manifest)
        assert list(naive_sample_batches(store, 3, 4, seed=0)) == []

    def test_iter_batches_keeps_final_short_batch(self, tmp_path):
        index, store = self._index_store(tmp_path)
        order = np.arange(len(index))
        batches = list(iter_batches(index, store, order, 25))
        assert [len(b.targets) for b in batches] == [25, len(index) - 25]


class TestBatchFootprint:
    def test_documented_constants(self):
        assert batch_footprint_bytes(256, 38, 5) == 973_824
        assert batch_footprint_bytes(1024, 38, 5) == 3_891_200 + 1024 * 4
