"""Loss, metrics, optimizer, scheduler, and the training loop's visiting
and logging contracts."""

import csv
import math
import re
import warnings
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest

import dustpipe.training as training_mod
from dustpipe import model3d, patch_index
from dustpipe.cli import main
from dustpipe.errors import (
    EmptyDatasetError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from dustpipe.granule_io import (
    DatasetManifest,
    SyntheticConfig,
    generate_synthetic_dataset,
)
from dustpipe.model3d import ModelConfig, init_params, predict, save_checkpoint
from dustpipe.patch_index import GranuleStore, PatchIndex, build_index
from dustpipe.preprocess import preprocess_dataset
from dustpipe.training import (
    ADAM_EPS,
    IMPROVEMENT_THRESHOLD,
    MIN_LR,
    PLATEAU_FACTOR,
    LossConfig,
    PlateauScheduler,
    TrainConfig,
    adam_init,
    adam_step,
    compute_metrics,
    evaluate,
    train,
    wmse_loss,
)
from conftest import PREPROCESS_CFG, write_manifest
from test_model3d import signed_params

TINY_MODEL = ModelConfig(filters=(3, 4, 5), in_depth=6, patch_size=3)


def oracle_metrics(preds, targets, alpha=1.0):
    """Straight-line reimplementation of each statistic, python loops only."""
    n = len(preds)
    se = [(t - p) ** 2 for p, t in zip(preds, targets)]
    mse = sum(se) / n
    mae = sum(abs(t - p) for p, t in zip(preds, targets)) / n
    weights = [1.0 + alpha * t for t in targets]
    wmse = sum(w * s for w, s in zip(weights, se)) / sum(weights)
    ybar = sum(targets) / n
    ss_tot = sum((t - ybar) ** 2 for t in targets)
    ss_res = sum(se)
    r2 = (1.0 - ss_res / ss_tot) if ss_tot > 0 else (1.0 if ss_res == 0 else None)
    acc = sum(1 for p, t in zip(preds, targets) if (p >= 0.5) == (t >= 0.5)) / n
    return mse, wmse, mae, r2, acc, ybar


class TestWmseLoss:
    def test_alpha_zero_reduces_to_plain_mse(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(0, 1, 64)
        targets = rng.uniform(0, 1, 64)
        loss, _ = wmse_loss(preds, targets, LossConfig(alpha=0.0))
        assert loss == compute_metrics(preds, targets).mse

    def test_worked_example(self):
        loss, _ = wmse_loss(np.array([0.0, 0.5]), np.array([0.0, 1.0]),
                            LossConfig(alpha=1.0))
        assert abs(loss - 1.0 / 6.0) < 1e-15

    def test_gradient_formula(self):
        preds = np.array([0.2, 0.7, 0.9])
        targets = np.array([0.0, 1.0, 0.5])
        alpha = 2.0
        _, grad = wmse_loss(preds, targets, LossConfig(alpha=alpha))
        w = 1.0 + alpha * targets
        expected = -2.0 * w * (targets - preds) / w.sum()
        assert np.allclose(grad, expected, rtol=0, atol=1e-16)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        preds = rng.uniform(0.05, 0.95, 32)
        targets = rng.uniform(0, 1, 32)
        cfg = LossConfig(alpha=1.5)
        _, grad = wmse_loss(preds, targets, cfg)
        h = 1e-6
        for i in rng.choice(32, size=10, replace=False):
            up = preds.copy()
            down = preds.copy()
            up[i] += h
            down[i] -= h
            fd = (wmse_loss(up, targets, cfg)[0] - wmse_loss(down, targets, cfg)[0]) / (2 * h)
            assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i])) < 1e-6

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(EmptyDatasetError):
            wmse_loss(np.array([]), np.array([]))
        with pytest.raises(ShapeMismatchError):
            wmse_loss(np.zeros(3), np.zeros(4))

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.5)
        with pytest.raises(ValueError):
            LossConfig(alpha=math.nan)


class TestComputeMetrics:
    def test_perfect_prediction(self):
        y = np.array([0.1, 0.5, 0.9, 0.3])
        rep = compute_metrics(y, y)
        assert rep.mse == 0 and rep.mae == 0 and rep.r2 == 1.0 and rep.accuracy == 1.0

    def test_worked_example(self):
        rep = compute_metrics(np.array([0.2, 0.4, 0.6, 0.9]),
                              np.array([0.0, 0.0, 1.0, 1.0]))
        assert abs(rep.mse - 0.0925) < 1e-12
        assert abs(rep.r2 - 0.63) < 1e-12
        assert rep.accuracy == 1.0

    def test_constant_mean_prediction_scores_zero_r2(self):
        targets = np.array([0.0, 0.2, 0.4, 1.0])
        preds = np.full_like(targets, targets.mean())
        assert compute_metrics(preds, targets).r2 == 0.0

    def test_r2_undefined_marker(self):
        targets = np.full(4, 0.5)
        assert compute_metrics(np.full(4, 0.2), targets).r2 is None
        assert compute_metrics(targets, targets).r2 == 1.0

    def test_threshold_tie_counts_positive(self):
        rep = compute_metrics(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        assert rep.accuracy == 0.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        preds = rng.uniform(0, 1, 50)
        targets = rng.uniform(0, 1, 50)
        perm = rng.permutation(50)
        a = compute_metrics(preds, targets)
        b = compute_metrics(preds[perm], targets[perm])
        for field in ("mse", "wmse", "mae", "r2", "accuracy", "mean_label"):
            assert abs(getattr(a, field) - getattr(b, field)) < 1e-12

    def test_agrees_with_direct_formula_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            preds = rng.uniform(0, 1, n)
            targets = rng.uniform(0, 1, n)
            alpha = float(rng.uniform(0, 3))
            rep = compute_metrics(preds, targets, alpha=alpha)
            mse, wmse, mae, r2, acc, ybar = oracle_metrics(preds.tolist(),
                                                           targets.tolist(), alpha)
            assert abs(rep.mse - mse) < 1e-12
            assert abs(rep.wmse - wmse) < 1e-12
            assert abs(rep.mae - mae) < 1e-12
            if r2 is None:
                assert rep.r2 is None
            else:
                assert abs(rep.r2 - r2) < 1e-12
            assert rep.accuracy == acc
            assert abs(rep.mean_label - ybar) < 1e-12


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("weight_decay", math.nan),
        ("plateau_patience", 0), ("plateau_patience", -3), ("seed", -5),
    ])
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            TrainConfig(**{field: value})


class TestAdam:
    def _params(self):
        return init_params(0, TINY_MODEL)

    def test_zero_gradient_with_decay_shrinks_by_hand_computed_step(self):
        params = self._params()
        cfg = TrainConfig(weight_decay=1e-2)
        state = adam_init(params)
        theta0 = params.tensors["fc.weight"].copy()
        grads = {k: np.zeros_like(v) for k, v in state.m.items()}
        adam_step(params, grads, state, lr=1e-3, cfg=cfg)
        # classic L2: g = wd * theta; first step has full bias correction
        g = cfg.weight_decay * theta0
        expected = theta0 - 1e-3 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(params.tensors["fc.weight"], expected, rtol=1e-6, atol=1e-12)

    def test_first_step_is_signed_learning_rate(self):
        params = self._params()
        cfg = TrainConfig(weight_decay=0.0)
        state = adam_init(params)
        theta0 = params.tensors["conv1.weight"].copy()
        g = np.random.default_rng(2).normal(size=theta0.shape).astype(np.float32)
        grads = {k: np.zeros_like(v) for k, v in state.m.items()}
        grads["conv1.weight"] = g
        adam_step(params, grads, state, lr=1e-3, cfg=cfg)
        delta = params.tensors["conv1.weight"] - theta0
        expected = -1e-3 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(delta, expected, rtol=1e-5, atol=1e-10)

    def test_deterministic(self):
        cfg = TrainConfig()
        g = {k: np.full_like(v, 0.01) for k, v in adam_init(self._params()).m.items()}
        results = []
        for _ in range(2):
            params = self._params()
            state = adam_init(params)
            adam_step(params, g, state, lr=1e-3, cfg=cfg)
            adam_step(params, g, state, lr=1e-3, cfg=cfg)
            results.append({k: v.copy() for k, v in params.tensors.items()})
        for k in results[0]:
            assert np.array_equal(results[0][k], results[1][k])

    def test_zero_learning_rate_changes_nothing(self):
        params = self._params()
        state = adam_init(params)
        before = {k: v.copy() for k, v in params.tensors.items()}
        g = {k: np.full_like(v, 0.5) for k, v in state.m.items()}
        adam_step(params, g, state, lr=0.0, cfg=TrainConfig())
        for k in before:
            assert np.array_equal(before[k], params.tensors[k])

    def test_shape_mismatch_rejected(self):
        params = self._params()
        state = adam_init(params)
        g = {k: np.zeros_like(v) for k, v in state.m.items()}
        g["fc.weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ShapeMismatchError):
            adam_step(params, g, state, lr=1e-3, cfg=TrainConfig())


def lr_after(losses, cfg: TrainConfig) -> float:
    """Learning rate after stepping a fresh scheduler through ``losses``."""
    sched = PlateauScheduler(cfg)
    for loss in losses:
        sched.step(loss)
    return sched.lr


def reference_plateau_lr(losses, cfg: TrainConfig) -> float:
    """Independent walk of the plateau rule over a whole loss history."""
    lr = cfg.learning_rate
    best = None
    stalled = 0
    for loss in losses:
        if best is None or loss < best - IMPROVEMENT_THRESHOLD:
            best = loss
            stalled = 0
        else:
            stalled += 1
            if stalled >= cfg.plateau_patience:
                lr = max(lr * PLATEAU_FACTOR, MIN_LR)
                stalled = 0
    return lr


class TestPlateauSchedule:
    def test_improving_history_keeps_rate(self):
        cfg = TrainConfig(plateau_patience=2)
        assert lr_after([1.0, 0.9, 0.8], cfg) == cfg.learning_rate

    def test_flat_history_halves_after_third_entry(self):
        cfg = TrainConfig(plateau_patience=2)
        assert lr_after([1.0, 1.0], cfg) == cfg.learning_rate
        assert lr_after([1.0, 1.0, 1.0], cfg) == cfg.learning_rate * 0.5

    def test_counter_resets_on_improvement(self):
        cfg = TrainConfig(plateau_patience=2)
        assert lr_after([1.0, 1.0, 0.5, 0.5], cfg) == cfg.learning_rate
        assert lr_after([1.0, 1.0, 0.5, 0.5, 0.5], cfg) == cfg.learning_rate * 0.5

    def test_never_below_floor(self):
        cfg = TrainConfig(plateau_patience=1)
        assert lr_after([1.0] + [1.0] * 50, cfg) == MIN_LR

    def test_tiny_improvements_do_not_reset(self):
        cfg = TrainConfig(plateau_patience=2)
        # improvements below the threshold count as stalls
        assert lr_after([1.0, 1.0 - 1e-12, 1.0 - 2e-12], cfg) == \
            cfg.learning_rate * PLATEAU_FACTOR

    def test_stateful_wrapper_matches_pure_walk(self):
        cfg = TrainConfig(plateau_patience=2)
        rng = np.random.default_rng(7)
        losses = rng.uniform(0.1, 1.0, 30).tolist()
        sched = PlateauScheduler(cfg)
        for i, loss in enumerate(losses, start=1):
            got = sched.step(loss)
            assert got == reference_plateau_lr(losses[:i], cfg)


def tiny_training_dataset(tmp_path, count=2, height=10, width=10, channels=6,
                          seed=5):
    """A synthetic dataset written under ``tmp_path / "raw"`` and the
    manifest of its preprocessed copy under ``tmp_path / "proc"``, the
    granules the model takes."""
    cfg = SyntheticConfig(min_plumes=1, max_plumes=2, amplitude=0.6,
                          nan_fraction=0.0)
    raw = generate_synthetic_dataset(tmp_path / "raw", seed=seed, count=count,
                                     height=height, width=width,
                                     channels=channels, config=cfg)
    return preprocess_dataset(raw, tmp_path / "proc", PREPROCESS_CFG)


class TestTrainLoop:
    def test_visits_logging_and_checkpoints(self, tmp_path):
        m_train = tiny_training_dataset(tmp_path / "t", seed=5)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=6)
        cfg = TrainConfig(passes=2, partitions=3, sub_epochs=2, batch_size=16,
                          seed=1)
        visits: dict[tuple, int] = {}

        def hook(pass_num, part, sub, batch):
            for t in batch.triplets:
                visits[tuple(t)] = visits.get(tuple(t), 0) + 1

        result = train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
                       train_cfg=cfg, loss_cfg=LossConfig(1.0), batch_hook=hook)

        n_centers = 2 * 8 * 8  # two folders of (10-2)^2 valid centers
        assert len(visits) == n_centers
        assert set(visits.values()) == {cfg.passes * cfg.sub_epochs}

        assert len(result.rows) == cfg.passes * cfg.partitions * cfg.sub_epochs
        assert result.final_checkpoint.exists()
        assert result.best_checkpoint.exists()
        with open(result.log_path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["pass", "partition", "sub_epoch", "train_wmse",
                           "val_wmse", "lr"]
        assert len(rows) == 1 + len(result.rows)
        assert result.best_val_wmse <= min(r.val_wmse for r in result.rows) + 1e-12

    def test_log_keeps_finished_rows_when_run_dies(self, tmp_path):
        m_train = tiny_training_dataset(tmp_path / "t", count=1, seed=5)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=6)
        cfg = TrainConfig(passes=1, partitions=1, sub_epochs=3, batch_size=16,
                          seed=0)

        def hook(pass_num, part, sub, batch):
            if sub == 2:
                raise RuntimeError("killed in sub-epoch 2")

        with pytest.raises(RuntimeError, match="sub-epoch 2"):
            train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
                  train_cfg=cfg, batch_hook=hook)
        with open(tmp_path / "run" / "log.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["pass", "partition", "sub_epoch", "train_wmse",
                           "val_wmse", "lr"]
        assert len(rows) == 2
        assert rows[1][:3] == ["1", "1", "1"]

    def test_single_step_when_batch_covers_partition(self, tmp_path):
        m_train = tiny_training_dataset(tmp_path / "t", count=1, seed=7)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=8)
        cfg = TrainConfig(passes=1, partitions=1, sub_epochs=1,
                          batch_size=10_000, seed=0)
        steps = []
        train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
              train_cfg=cfg, batch_hook=lambda *a: steps.append(1))
        assert len(steps) == 1

    def test_two_runs_write_identical_files(self, tmp_path):
        m_train = tiny_training_dataset(tmp_path / "t", seed=5)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=6)
        cfg = TrainConfig(passes=2, partitions=2, sub_epochs=2, batch_size=16,
                          seed=4)
        for run in ("a", "b"):
            train(m_train, m_val, tmp_path / run, model_config=TINY_MODEL,
                  train_cfg=cfg, loss_cfg=LossConfig(1.0))
        for name in ("final.dck", "best.dck", "log.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_divergence_aborts_with_diagnostic(self, tmp_path, monkeypatch):
        m_train = tiny_training_dataset(tmp_path / "t", count=1, seed=9)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=10)

        real_forward = training_mod.forward

        def nan_forward(params, x, mode="train", **kwargs):
            preds, trace = real_forward(params, x, mode=mode, **kwargs)
            if mode == "train":
                preds = np.full_like(preds, np.nan)
            return preds, trace

        monkeypatch.setattr(training_mod, "forward", nan_forward)
        with pytest.raises(TrainingDivergedError):
            train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
                  train_cfg=TrainConfig(passes=1, partitions=1, sub_epochs=1,
                                        batch_size=32, seed=0))

    def test_non_finite_validation_loss_aborts_before_checkpoints(self, tmp_path, monkeypatch):
        m_train = tiny_training_dataset(tmp_path / "t", count=1, seed=9)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=10)
        # validation runs every granule through predict_scene
        monkeypatch.setattr(training_mod, "predict_scene",
                            lambda params, data, want: np.full(data.shape[1:], np.nan))
        closed = []
        real_close = training_mod.GranuleStore.close
        monkeypatch.setattr(training_mod.GranuleStore, "close",
                            lambda store: (closed.append(store), real_close(store)))
        with pytest.raises(TrainingDivergedError,
                           match="validation loss at pass 1, partition 1, sub-epoch 1"):
            train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
                  train_cfg=TrainConfig(passes=1, partitions=1, sub_epochs=1,
                                        batch_size=32, seed=0))
        assert not (tmp_path / "run" / "best.dck").exists()
        assert not (tmp_path / "run" / "final.dck").exists()
        assert len(closed) == 2

    def test_overflowing_optimizer_state_aborts_before_checkpoints(self, tmp_path):
        # weight decay 1e30 squares past float32 in Adam's second moments,
        # which freezes the parameters while every loss stays finite
        m_train = tiny_training_dataset(tmp_path / "t", count=1, seed=9)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match="^non-finite optimizer state at "
                               "pass 1, partition 1, sub-epoch 1$"):
                train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
                      train_cfg=TrainConfig(weight_decay=1e30, passes=1, partitions=1,
                                            sub_epochs=2, batch_size=32, seed=0))
        assert not (tmp_path / "run" / "best.dck").exists()
        assert not (tmp_path / "run" / "final.dck").exists()
        assert (tmp_path / "run" / "log.csv").read_text().count("\n") == 1  # the header

    def test_partitions_above_centre_count_refused_before_writing(self, tmp_path):
        m_train = tiny_training_dataset(tmp_path / "t", count=1, seed=5)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=6)
        n_centers = 8 * 8  # one folder of (10-2)^2 valid centers
        message = (f"partitions must be <= the {n_centers} centres of the training index, "
                   f"got {n_centers + 1}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
                  train_cfg=TrainConfig(passes=1, partitions=n_centers + 1, sub_epochs=1,
                                        batch_size=16, seed=0))
        assert not (tmp_path / "run").exists()

    def test_plan_is_lazy_in_the_sub_epoch_count(self, tmp_path):
        # a plan that held every sub-epoch would fail to allocate before any step
        m_train = tiny_training_dataset(tmp_path / "t", count=1, seed=5)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=6)

        class FirstStep(Exception):
            pass

        def hook(pass_num, part, sub, batch):
            raise FirstStep

        with pytest.raises(FirstStep):
            train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
                  train_cfg=TrainConfig(passes=1, partitions=1, sub_epochs=10**12,
                                        batch_size=16, seed=0), batch_hook=hook)

    def test_empty_training_index_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [np.zeros((6, 10, 10))],
                                  [np.full((10, 10), np.nan)])
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=11)
        with pytest.raises(EmptyDatasetError):
            train(manifest, m_val, tmp_path / "run", model_config=TINY_MODEL,
                  train_cfg=TrainConfig(passes=1, partitions=1, sub_epochs=1,
                                        batch_size=8, seed=0))

    # the manifest refused first and the channel count of its granule
    @pytest.mark.parametrize("val_channels, in_depth, refused, channels", [
        (8, 6, "validation", 8), (6, 8, "training", 6),
    ], ids=["validation-channels", "config-in-depth"])
    def test_channel_mismatch_refused_before_writing(self, tmp_path, val_channels, in_depth,
                                                     refused, channels):
        m_train = tiny_training_dataset(tmp_path / "t", count=1, seed=5)
        m_val = tiny_training_dataset(tmp_path / "v", count=1, channels=val_channels, seed=6)
        granule = {"training": m_train, "validation": m_val}[refused].entries[0].granule
        message = f"{granule}: {channels} channels, the model expects {in_depth}"
        with pytest.raises(ShapeMismatchError, match=re.escape(message)):
            train(m_train, m_val, tmp_path / "run",
                  model_config=ModelConfig(filters=(3, 4, 5), in_depth=in_depth, patch_size=3),
                  train_cfg=TrainConfig(passes=1, partitions=1, sub_epochs=1,
                                        batch_size=8, seed=0))
        assert not (tmp_path / "run").exists()

    def test_empty_training_manifest_refused_before_writing(self, tmp_path):
        m_val = tiny_training_dataset(tmp_path / "v", count=1, seed=11)
        with pytest.raises(EmptyDatasetError, match="manifest has no entries"):
            train(DatasetManifest([]), m_val, tmp_path / "run")
        assert not (tmp_path / "run").exists()


class TestLabelReads:
    def test_each_label_file_read_once_per_command(self, tmp_path, monkeypatch):
        m_train = tiny_training_dataset(tmp_path / "t", count=2, seed=5)
        m_val = tiny_training_dataset(tmp_path / "v", count=2, seed=6)
        reads = []
        real_read = patch_index.read_labels

        def counted(path):
            reads.append(str(path))
            return real_read(path)

        monkeypatch.setattr(patch_index, "read_labels", counted)
        train(m_train, m_val, tmp_path / "run", model_config=TINY_MODEL,
              train_cfg=TrainConfig(passes=1, partitions=1, sub_epochs=1, batch_size=64,
                                    seed=0))
        assert sorted(reads) == sorted(str(e.labels) for e in [*m_train, *m_val])
        reads.clear()
        evaluate(tmp_path / "run" / "best.dck", m_val)
        assert sorted(reads) == sorted(str(e.labels) for e in m_val)


class TestEvaluate:
    def test_constant_half_model_on_zero_labels_scores_zero(self, tmp_path):
        cfg = SyntheticConfig(min_plumes=0, max_plumes=0, amplitude=0.0,
                              nan_fraction=0.0)
        manifest = generate_synthetic_dataset(tmp_path, seed=3, count=1,
                                              height=9, width=9, channels=6,
                                              config=cfg)
        params = init_params(0, TINY_MODEL)
        params.tensors["fc.weight"][:] = 0
        params.tensors["fc.bias"][:] = 0
        ckpt = tmp_path / "half.dck"
        save_checkpoint(ckpt, params)
        rep = evaluate(ckpt, manifest)
        # 0.5 >= 0.5 counts positive, every target is negative
        assert rep.accuracy == 0.0
        assert rep.mean_label == 0.0

    def test_untrained_model_near_chance_on_balanced_labels(self, tmp_path):
        rng = np.random.default_rng(12)
        labels = np.zeros((12, 12), dtype=np.float32)
        labels[:6] = 1.0  # exactly half positive
        granules = [rng.uniform(0, 1, size=(6, 12, 12)) for _ in range(2)]
        manifest = write_manifest(tmp_path, granules, [labels, labels])
        ckpt = tmp_path / "untrained.dck"
        save_checkpoint(ckpt, init_params(100, TINY_MODEL))
        rep = evaluate(ckpt, manifest)
        assert 0.4 <= rep.accuracy <= 0.6

    def test_channel_mismatch_refused_before_predicting(self, tmp_path, monkeypatch):
        manifest = tiny_training_dataset(tmp_path / "d", count=1, channels=8, seed=5)
        ckpt = tmp_path / "six.dck"
        save_checkpoint(ckpt, init_params(0, TINY_MODEL))

        def refuse(*args):
            raise AssertionError("predicted before the channel check")

        monkeypatch.setattr(training_mod, "predict_scene", refuse)
        message = f"{manifest.entries[0].granule}: 8 channels, the model expects 6"
        with pytest.raises(ShapeMismatchError, match=re.escape(message)):
            evaluate(ckpt, manifest)


# interior (rows, cols) and the share of labels that are NaN, per granule:
# tiles of 4 x 8 leave ragged tiles on both axes of every multi-tile interior
EVAL_CASES = {
    "fully-labelled": [(13, 21, 0.0)],
    "few-nan-labels": [(13, 21, 0.03)],
    "sparse-2pct": [(40, 40, 0.98)],
    "narrow-and-ragged": [(3, 5, 0.0), (6, 30, 0.0)],
}


class TestPredictIndexTiles:
    """``_predict_index`` runs fully indexed scene tiles as scene slabs of
    ``predict_slabs`` and gathers the rest as one-pixel slabs.  Either way a
    triplet must get the bits of gathered ``predict``, in triplet order."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("patch_size", [1, 3, 5])
    @pytest.mark.parametrize("case", list(EVAL_CASES))
    def test_equals_gathered_predict_bitwise(self, tmp_path, monkeypatch, case, patch_size,
                                             dtype):
        rng = np.random.default_rng(patch_size)
        granules, labels = [], []
        for rows, cols, nan_share in EVAL_CASES[case]:
            shape = (rows + patch_size - 1, cols + patch_size - 1)
            granules.append(rng.uniform(0, 1, (TINY_MODEL.in_depth, *shape)))
            lab = rng.uniform(0, 1, shape)
            lab[rng.uniform(0, 1, shape) < nan_share] = np.nan
            labels.append(lab)
        manifest = write_manifest(tmp_path, granules, labels)
        index = build_index(manifest, patch_size)
        index = PatchIndex(index.triplets[rng.permutation(len(index))], patch_size)
        params = signed_params(patch_size, replace(TINY_MODEL, patch_size=patch_size), dtype)
        one_pixel = []
        real_slabs = model3d.predict_slabs

        def count_one_pixel_slabs(plan, slabs, th, tw):
            if th == tw == 1:
                one_pixel.append(len(slabs))
            return real_slabs(plan, slabs, th, tw)

        monkeypatch.setattr(model3d, "predict_slabs", count_one_pixel_slabs)
        with closing(GranuleStore(manifest)) as store:
            preds, targets = training_mod._predict_index(params, index, store)
            inputs, want_targets = store.extract_batch(index.triplets, patch_size)
        # gathered centres run as one-pixel slabs, and so does the oracle below
        gathered = list(one_pixel)
        want = predict(params, inputs)
        assert preds.dtype == want.dtype
        assert preds.tobytes() == want.tobytes()
        assert targets.tobytes() == want_targets.tobytes()
        # each path is taken where the case says
        if case == "few-nan-labels":
            assert 0 < sum(gathered) < len(index)
        elif case == "sparse-2pct":
            assert sum(gathered) == len(index)
        else:
            assert gathered == []


class TestPredictIndexNonFinite:
    """A NaN granule value that no indexed centre's patch reads does not
    reach the predictions: a slab runs only for a fully indexed tile, whose
    patches read all of it.  Interior 8 x 11 at P = 3: tiles rows 0-3 and
    4-7, cols 0-7 and 8-10."""

    SHAPE = (10, 13)

    def _manifest(self, tmp_path, nan_pixel, nan_label=None):
        g = np.random.default_rng(0).uniform(0, 1, (TINY_MODEL.in_depth, *self.SHAPE))
        g[3, nan_pixel[0], nan_pixel[1]] = np.nan
        lab = np.random.default_rng(1).uniform(0, 1, self.SHAPE)
        if nan_label is not None:
            lab[nan_label] = np.nan
        return write_manifest(tmp_path, [g], [lab])

    def test_value_read_by_unindexed_patches_only_is_ignored(self, tmp_path):
        # pixel (0, 0) is read only by the patch of centre (1, 1), unindexed
        manifest = self._manifest(tmp_path, (0, 0), (1, 1))
        params = init_params(0, TINY_MODEL)
        with closing(GranuleStore(manifest)) as store:
            index = build_index(manifest, 3)
            preds, _ = training_mod._predict_index(params, index, store)
            inputs, _ = store.extract_batch(index.triplets, 3)
        assert len(preds) == 8 * 11 - 1
        assert preds.tobytes() == predict(params, inputs).tobytes()


# the faults a manifest can have, in the order they are reported
ADMISSION_FAULTS = ("channels", "non-finite", "empty-index")


class TestAdmission:
    """``train`` (its training and its validation manifest) and ``evaluate``
    admit a manifest through one check: each granule's channel count and
    values finite in [0, 1], then empty index, each a one-line CLI error,
    before anything is written or predicted."""

    def _messages(self, role, manifest):
        first, second = (e.granule for e in manifest)
        return {"channels": f"{first}: 8 channels, the model expects 6",
                "non-finite": f"{second}: values not finite in [0, 1]",
                "empty-index": f"{role} index is empty"}

    # the CLI sizes the model from the training manifest, so that manifest's
    # channel count cannot mismatch there (the library check is covered by
    # TestTrainLoop.test_channel_mismatch_refused_before_writing)
    @pytest.mark.parametrize("role, first", [
        (role, first) for role in ("training", "validation", "evaluation")
        for first in ADMISSION_FAULTS if (role, first) != ("training", "channels")])
    def test_faults_refused_in_order(self, tmp_path, capsys, role, first):
        rng = np.random.default_rng(3)
        good = tiny_training_dataset(tmp_path / "good", count=1, seed=4)
        good.save(tmp_path / "good.json")
        faults = ADMISSION_FAULTS[ADMISSION_FAULTS.index(first):]
        channels = 8 if "channels" in faults else TINY_MODEL.in_depth
        granules = [rng.uniform(0, 1, (channels, 9, 9)) for _ in range(2)]
        if "non-finite" in faults:
            granules[1][2, 4, 4] = np.nan
        label = np.full((9, 9), np.nan) if "empty-index" in faults else rng.uniform(0, 1, (9, 9))
        bad = write_manifest(tmp_path, granules, [label, label])
        bad.save(tmp_path / "bad.json")
        out = tmp_path / "out"
        ckpt = tmp_path / "m.dck"
        save_checkpoint(ckpt, init_params(0, TINY_MODEL))
        capsys.readouterr()
        if role == "evaluation":
            argv = ["eval", "--ckpt", ckpt, "--manifest-test", tmp_path / "bad.json",
                    "--report", out]
        else:
            train_name, val_name = {"training": ("bad", "good"),
                                    "validation": ("good", "bad")}[role]
            argv = ["train", "--manifest-train", tmp_path / f"{train_name}.json",
                    "--manifest-val", tmp_path / f"{val_name}.json",
                    "--out", out, "--filters", "3,4,5", "--patch-size", 3,
                    "--passes", 1, "--partitions", 1, "--sub-epochs", 1]
        assert main([str(a) for a in argv]) == 1
        captured = capsys.readouterr()
        message = self._messages(role, bad)[first]
        assert captured.err.startswith(f"error: {message}"), captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()
