"""The three closed-loop workloads: one process, one caller that waits for
each call into dustpipe's public API to return.

Every workload builds its inputs from the seed during set-up, hands the
program only the generated files, times its passes, and checks the
program's outputs.  Calls go through the module attributes
(``gio.read_granule``) so a traced run sees them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from pathlib import Path

import numpy as np

from dustpipe import bench
from dustpipe import granule_io as gio
from dustpipe import inference as inf
from dustpipe import model3d
from dustpipe import patch_index as pix
from dustpipe import preprocess as pre
from dustpipe import training as tr
from dustpipe.errors import DustpipeError

# The desk fixture of the test suite: strongly separable plumes (channel
# shift 40x the noise sigma), 5% NaN holes, fully labelled.
DESK_SYNTH = gio.SyntheticConfig(min_plumes=1, max_plumes=3, amplitude=0.8,
                                 noise_sigma=0.02, nan_fraction=0.05)
CHANNELS = 38
PATCH = 5


class Outcome:
    """Operations attempted, and the output checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def preprocess_manifest(manifest, out_dir: Path, seed: int):
    """read -> normalize + impute -> write every granule; labels copied."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = pre.PreprocessConfig(rng_seed=seed)
    entries = []
    for f, entry in enumerate(manifest):
        granule = pre.preprocess_pipeline(gio.read_granule(entry.granule), cfg, folder_index=f)
        gpath = out_dir / Path(entry.granule).name
        lpath = out_dir / Path(entry.labels).name
        gio.write_granule(granule, gpath)
        shutil.copyfile(entry.labels, lpath)
        entries.append(gio.ManifestEntry(granule=gpath, labels=lpath))
    out = gio.DatasetManifest(entries)
    out.save(out_dir / "manifest.json")
    return out


def _in_unit_range(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all() and arr.min() >= 0.0 and arr.max() <= 1.0)


class Workload:
    """Set-up, one timed pass, and end-of-run checks of one workload.

    ``primary`` and ``secondary`` name the two throughputs a pass reports,
    with their units, as the end-to-end metrics ``primary_per_s`` and
    ``secondary_per_s``.  A pass returns each as a list of rates, one per
    repeated unit of identical work (a sub-epoch, an ``evaluate`` call, a
    pass); the run reports the median over all passes.
    """

    name = ""
    primary = ("", "")
    secondary = ("", "")
    setup_repeats = 5

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed bookkeeping on the set-up inputs, before the first pass."""

    def run_pass(self, k: int, out: Outcome) -> dict:
        """Timed calls; returns lists of primary and secondary rates, the
        wall time, and a fingerprint that repeats exactly for a fixed seed."""
        raise NotImplementedError

    def finish(self, out: Outcome) -> dict:
        """End-of-run checks; may return extra per-layer values."""
        return {}


class TrainDesk(Workload):
    """``train`` at B=128 for one pass x 5 partitions x 1 sub-epoch, then
    ``evaluate`` of ``best.dck`` on the test manifest.

    ``evaluate`` also runs on the seeded initial checkpoint before training:
    its cost does not depend on the weights, and rates taken at both ends
    of the pass span more of the host's slow and fast stretches.
    """

    name = "train-desk"
    primary = ("train_samples_per_s", "samples/s")
    secondary = ("eval_samples_per_s", "samples/s")
    setup_repeats = 9
    EVALS = 2  # at each end of the pass

    def setup(self) -> None:
        root = _fresh(self.work / "inputs")
        base = 10 * self.seed
        raw = {
            "train": gio.generate_synthetic_dataset(root / "train", base + 1, 7, 30, 30,
                                                    CHANNELS, DESK_SYNTH, PATCH),
            "val": gio.generate_synthetic_dataset(root / "val", base + 2, 2, 24, 24,
                                                  CHANNELS, DESK_SYNTH, PATCH),
            "test": gio.generate_synthetic_dataset(root / "test", base + 3, 2, 30, 30,
                                                   CHANNELS, DESK_SYNTH, PATCH),
        }
        self.manifests = {k: preprocess_manifest(m, root / f"p{k}", self.seed)
                          for k, m in raw.items()}
        self.init_checkpoint = root / "init.dck"
        model3d.save_checkpoint(self.init_checkpoint, model3d.init_params(
            self.seed, model3d.ModelConfig(in_depth=CHANNELS)))

    def _evaluate(self, checkpoint: Path, rates: list, out: Outcome) -> tr.MetricsReport:
        """``EVALS`` evaluations of one checkpoint; they must agree exactly."""
        wmses = set()
        for _ in range(self.EVALS):
            t0 = time.perf_counter()
            report = tr.evaluate(checkpoint, self.manifests["test"], alpha=1.0)
            rates.append(report.n / (time.perf_counter() - t0))
            wmses.add(report.wmse)
        out.check(len(wmses) == 1, f"evaluate of {checkpoint.name} gave different results")
        out.attempted += self.EVALS * math.ceil(report.n / 1024)
        return report

    def run_pass(self, k: int, out: Outcome) -> dict:
        run_dir = _fresh(self.work / "run")
        starts = []  # (perf_counter, samples so far) at each sub-epoch's first step
        state = {"key": None, "steps": 0, "samples": 0}

        def hook(pass_num, partition, sub_epoch, batch):
            if (pass_num, partition, sub_epoch) != state["key"]:
                state["key"] = (pass_num, partition, sub_epoch)
                starts.append((time.perf_counter(), state["samples"]))
            state["steps"] += 1
            state["samples"] += len(batch.targets)

        cfg = tr.TrainConfig(batch_size=128, seed=self.seed, passes=1, partitions=5,
                             sub_epochs=1)
        eval_rates = []
        t0 = time.perf_counter()
        self._evaluate(self.init_checkpoint, eval_rates, out)
        result = tr.train(self.manifests["train"], self.manifests["val"], run_dir,
                          train_cfg=cfg, loss_cfg=tr.LossConfig(alpha=1.0), batch_hook=hook)
        t_end = time.perf_counter()
        # each sub-epoch runs until the next one starts, so its validation
        # (and, for the last, the checkpoint writes) counts against it
        bounds = starts + [(t_end, state["samples"])]
        train_rates = [(n1 - n0) / (b - a) for (a, n0), (b, n1) in zip(bounds, bounds[1:])]

        report = self._evaluate(result.best_checkpoint, eval_rates, out)
        wall = time.perf_counter() - t0

        out.attempted += state["steps"]
        losses = [v for r in result.rows for v in (r.train_wmse, r.val_wmse)]
        out.check(losses and all(math.isfinite(v) for v in losses), "non-finite training loss")
        out.check(math.isfinite(report.wmse), "non-finite test weighted MSE")
        for ckpt in (result.final_checkpoint, result.best_checkpoint):
            try:
                model3d.load_checkpoint(ckpt)
            except (DustpipeError, OSError) as e:
                out.check(False, f"{ckpt.name} does not load back: {e}")
        return {
            "primary": train_rates,
            "secondary": eval_rates,
            "wall": wall,
            "fingerprint": (report.wmse, _sha(result.final_checkpoint)),
            "test_wmse": report.wmse,
        }


class SceneInfer(Workload):
    """``infer_scene`` with default batch size and workers on one 36x36
    preprocessed granule (4 chunks), then ``write_map``, ``write_pgm`` and
    ``score_map``; then lone ``predict`` calls on seeded pixels."""

    name = "scene-infer"
    primary = ("scene_px_per_s", "px/s")
    secondary = ("predict_px_per_s", "px/s")
    setup_repeats = 15  # a set-up takes ~15 ms, so take many
    SIZE = 36
    ORACLE_PIXELS = 256  # per pass
    CHUNK = 256  # infer_scene's default batch size, for counting chunks

    def setup(self) -> None:
        root = _fresh(self.work / "inputs")
        raw = gio.generate_synthetic_dataset(root / "raw", 10 * self.seed + 4, 1, self.SIZE,
                                             self.SIZE, CHANNELS, DESK_SYNTH, PATCH)
        prep = preprocess_manifest(raw, root / "prep", self.seed)
        self.granule = gio.read_granule(prep.entries[0].granule)
        self.labels = gio.read_labels(prep.entries[0].labels)
        params = model3d.init_params(self.seed, model3d.ModelConfig(in_depth=CHANNELS))
        model3d.save_checkpoint(root / "init.dck", params)
        self.params, _ = model3d.load_checkpoint(root / "init.dck")

    def run_pass(self, k: int, out: Outcome) -> dict:
        out_dir = _fresh(self.work / "maps")
        t0 = time.perf_counter()
        dmap = inf.infer_scene(self.params, self.granule)
        t_infer = time.perf_counter() - t0
        inf.write_map(dmap, out_dir / "scene.dmp")
        inf.write_pgm(dmap, out_dir / "scene.pgm")
        score = inf.score_map(dmap, self.labels)
        wall = time.perf_counter() - t0

        h = PATCH // 2
        values = dmap.values
        interior = values[h:values.shape[0] - h, h:values.shape[1] - h]
        border = np.ones(values.shape, dtype=bool)
        border[h:values.shape[0] - h, h:values.shape[1] - h] = False
        out.attempted += math.ceil(interior.size / self.CHUNK)
        out.check(np.isnan(values[border]).all(), "border band is not all NaN")
        out.check(_in_unit_range(interior), "interior not finite in [0, 1]")
        out.check(inf.read_map(out_dir / "scene.dmp").values.tobytes() == values.tobytes(),
                  "written map does not read back bit-exactly")
        out.check(math.isfinite(score.overall.wmse), "non-finite score")
        return {"primary": [interior.size / t_infer],
                "secondary": self._lone_predicts(values, k, out),
                "wall": wall,
                "fingerprint": hashlib.sha256(values.tobytes()).hexdigest()}

    def _lone_predicts(self, values: np.ndarray, k: int, out: Outcome) -> list[float]:
        """Lone ``predict`` calls on seeded pixels must equal the map bitwise;
        returns their rate in pixels per second."""
        h = PATCH // 2
        rng = np.random.default_rng((self.seed, k))
        ys = rng.integers(h, self.SIZE - h, self.ORACLE_PIXELS)
        xs = rng.integers(h, self.SIZE - h, self.ORACLE_PIXELS)
        data = self.granule.data
        seconds = 0.0
        mismatched = 0
        for y, x in zip(ys, xs):
            patch = np.ascontiguousarray(data[:, y - h:y + h + 1, x - h:x + h + 1])[None]
            t0 = time.perf_counter()
            value = model3d.predict(self.params, patch)
            seconds += time.perf_counter() - t0
            if value.astype(np.float32).tobytes() != values[y, x:x + 1].tobytes():
                mismatched += 1
        out.attempted += self.ORACLE_PIXELS
        out.check(mismatched == 0,
                  f"{mismatched} of {self.ORACLE_PIXELS} pixels differ from a lone predict call")
        return [self.ORACLE_PIXELS / seconds]


class DataPrep(Workload):
    """read -> preprocess -> write of 8 raw 256x256x38 granules (~80 MB),
    ``build_index``, then one full epoch of ``sample_batches`` (B=256,
    5 partitions) on the default mmap ``GranuleStore``.  No model runs."""

    name = "data-prep"
    primary = ("prep_mb_per_s", "MB/s")
    secondary = ("sample_per_s", "patches/s")
    RAW = gio.SyntheticConfig(nan_fraction=0.05, label_density=0.3)

    def setup(self) -> None:
        root = _fresh(self.work / "inputs")
        self.raw = gio.generate_synthetic_dataset(root / "raw", 10 * self.seed + 5, 8, 256, 256,
                                                  CHANNELS, self.RAW, PATCH)
        # small enough that the naive sampler's epoch stays short
        self.small = gio.generate_synthetic_dataset(root / "small", 10 * self.seed + 6, 4, 64,
                                                    64, CHANNELS, self.RAW, PATCH)
        self.raw_bytes = sum(Path(e.granule).stat().st_size - gio.GRANULE_HEADER_BYTES
                             for e in self.raw)

    def after_setup(self) -> None:
        self.checksums = bench.dataset_checksums(self.raw)

    def run_pass(self, k: int, out: Outcome) -> dict:
        t0 = time.perf_counter()
        prep = preprocess_manifest(self.raw, _fresh(self.work / "prep"), self.seed)
        t_prep = time.perf_counter() - t0
        index = pix.build_index(prep, PATCH)
        store = pix.GranuleStore(prep)
        seen = []
        n = 0
        t1 = time.perf_counter()
        for batch in pix.sample_batches(index, store, 256, seed=self.seed + k, partitions=5):
            n += len(batch.targets)
            seen.append(batch.triplets)
        t_sample = time.perf_counter() - t1
        wall = time.perf_counter() - t0
        store.close()
        out.attempted += len(seen)

        out.attempted += len(self.raw)
        for e in prep:
            out.check(_in_unit_range(gio.read_granule(e.granule, use_mmap=True).data),
                      f"{Path(e.granule).name}: preprocessed values not finite in [0, 1]")
        visited = np.vstack(seen)
        visited = visited[np.lexsort((visited[:, 2], visited[:, 1], visited[:, 0]))]
        out.check(np.array_equal(visited, index.triplets),
                  "an epoch did not visit every index triplet exactly once")
        self.prep = prep
        return {"primary": [self.raw_bytes / 1e6 / t_prep], "secondary": [n / t_sample],
                "wall": wall,
                "fingerprint": tuple(_sha(e.granule) for e in prep)}

    def finish(self, out: Outcome) -> dict:
        cfg = pre.PreprocessConfig(rng_seed=self.seed)
        again = pre.preprocess_pipeline(gio.read_granule(self.raw.entries[0].granule), cfg, 0)
        out.check(again.data.tobytes() == gio.read_granule(self.prep.entries[0].granule)
                  .data.tobytes(), "preprocessing a granule again changed its bytes")
        out.check(bench.dataset_checksums(self.raw) == self.checksums,
                  "raw input files changed")
        report = bench.bench_sampling(self.small, batch_size=256, seed=self.seed,
                                      duration_seconds=1.0, patch_size=PATCH)
        out.attempted += 1
        out.check(report.multisets_equal,
                  "naive and indexed samplers visit different per-epoch multisets")
        out.check(report.files_unchanged, "sampling benchmark changed its input files")
        naive_ms = 1e3 / report.naive_batches_per_sec
        indexed_ms = 1e3 / report.indexed_batches_per_sec
        return {"layers": {
            "patch_index.naive_batch_ms": naive_ms,
            "patch_index.indexed_batch_ms": indexed_ms,
            "patch_index.sampling_speedup": naive_ms / indexed_ms,
            "patch_index.sampling_triplets": float(report.n_triplets),
        }}


WORKLOADS = {w.name: w for w in (TrainDesk, SceneInfer, DataPrep)}
