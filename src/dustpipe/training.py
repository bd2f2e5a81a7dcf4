"""Weighted-MSE objective, evaluation metrics, Adam with plateau-driven
learning-rate decay, and the pass/partition/sub-epoch training loop.

The loss is sum(w_i * (y_i - p_i)^2) / sum(w_i) with per-sample weights
w_i = 1 + alpha * y_i, so high-intensity targets cost more to miss.  One
training run makes ``passes`` full passes over the data; each pass shuffles
the patch index into ``partitions`` near-equal partitions and iterates each
partition for ``sub_epochs`` sub-epochs; validation loss is measured after
every sub-epoch and drives the plateau scheduler.

Adam's betas and epsilon, and the plateau schedule's factor, floor and
improvement threshold, are the fixed module constants below;
``TrainConfig`` holds the values a run or the CLI sets.
"""

from __future__ import annotations

import csv
import math
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyDatasetError, ShapeMismatchError, TrainingDivergedError
from .granule_io import DatasetManifest, require_seed
from .model3d import (
    ModelConfig,
    ModelParams,
    admit_granule,
    backward,
    forward,
    init_params,
    load_checkpoint,
    predict_scene,
    save_checkpoint,
    trainable_names,
)
from .patch_index import (
    GranuleStore,
    PatchIndex,
    iter_batches,
    shuffle_partitions,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PLATEAU_FACTOR = 0.5
MIN_LR = 1e-7
IMPROVEMENT_THRESHOLD = 1e-8  # a smaller drop in validation loss is a stall


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 1.0  # weight slope in w = 1 + alpha * y

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-6
    plateau_patience: int = 2       # sub-epochs without improvement
    passes: int = 3
    partitions: int = 5
    sub_epochs: int = 3
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.plateau_patience < 1:
            raise ValueError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        require_seed(self.seed)
        for name in ("batch_size", "passes", "partitions", "sub_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class MetricsReport:
    """Summary statistics over one evaluation set.

    ``r2`` is None when the targets have zero variance and the residuals do
    not vanish (the statistic is undefined there; None rather than NaN so
    serialized reports stay comparable).
    """

    n: int
    mse: float
    wmse: float
    mae: float
    r2: float | None
    accuracy: float
    mean_label: float


def wmse_loss(preds: np.ndarray, targets: np.ndarray,
              cfg: LossConfig | None = None):
    """Weighted MSE and its exact gradient with respect to ``preds``.

    loss = sum(w * (y - p)^2) / sum(w),  w = 1 + alpha * y
    dloss/dp_i = -2 * w_i * (y_i - p_i) / sum(w)
    """
    cfg = cfg or LossConfig()
    preds = np.asarray(preds)
    targets = np.asarray(targets, dtype=preds.dtype)
    if preds.shape != targets.shape:
        raise ShapeMismatchError(f"preds {preds.shape} vs targets {targets.shape}")
    if preds.size == 0:
        raise EmptyDatasetError("wmse_loss needs at least one sample")
    w = 1.0 + cfg.alpha * targets
    sw = w.sum()
    resid = targets - preds
    loss = float((w * resid * resid).sum() / sw)
    dpreds = (-2.0 * w * resid / sw).astype(preds.dtype)
    return loss, dpreds


def compute_metrics(preds: np.ndarray, targets: np.ndarray,
                    alpha: float = 1.0) -> MetricsReport:
    """MSE, weighted MSE, MAE, R^2 and threshold accuracy in float64.

    Accuracy binarizes both sides at 0.5; a prediction of exactly 0.5
    counts as positive.
    """
    preds = np.asarray(preds, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if preds.shape != targets.shape:
        raise ShapeMismatchError(f"preds {preds.shape} vs targets {targets.shape}")
    n = preds.size
    if n == 0:
        raise EmptyDatasetError("compute_metrics needs at least one sample")
    resid = targets - preds
    sq = resid * resid
    mse = float(sq.mean())
    mae = float(np.abs(resid).mean())
    wmse, _ = wmse_loss(preds, targets, LossConfig(alpha))
    mean_label = float(targets.mean())
    ss_res = float(sq.sum())
    ss_tot = float(((targets - mean_label) ** 2).sum())
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res == 0.0 else None
    accuracy = float(((preds >= 0.5) == (targets >= 0.5)).mean())
    return MetricsReport(n=n, mse=mse, wmse=wmse, mae=mae, r2=r2,
                         accuracy=accuracy, mean_label=mean_label)


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adam_init(params: ModelParams) -> AdamState:
    names = trainable_names(params.config)
    return AdamState(
        step=0,
        m={k: np.zeros_like(params.tensors[k]) for k in names},
        v={k: np.zeros_like(params.tensors[k]) for k in names},
    )


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place.

    Weight decay enters as a classic L2 term added to the gradient before
    the moment updates (not as a decoupled shrink).
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        theta = params.tensors[name]
        if g.shape != theta.shape:
            raise ShapeMismatchError(f"gradient {name} {g.shape} vs param {theta.shape}")
        if cfg.weight_decay:
            g = g + cfg.weight_decay * theta
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        theta -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


class PlateauScheduler:
    """Plateau-driven learning rate; one ``step`` per sub-epoch.

    The rate is multiplied by ``PLATEAU_FACTOR`` whenever the loss has not
    improved (by more than ``IMPROVEMENT_THRESHOLD``) for
    ``plateau_patience`` consecutive steps; the stall counter resets on
    improvement and after each reduction; the rate never drops below
    ``MIN_LR``.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.lr = cfg.learning_rate
        self._best: float | None = None
        self._stalled = 0

    def step(self, loss: float) -> float:
        if self._best is None or loss < self._best - IMPROVEMENT_THRESHOLD:
            self._best = loss
            self._stalled = 0
        else:
            self._stalled += 1
            if self._stalled >= self.cfg.plateau_patience:
                self.lr = max(self.lr * PLATEAU_FACTOR, MIN_LR)
                self._stalled = 0
        return self.lr


def adam_state_to_tensors(state: AdamState) -> dict[str, np.ndarray]:
    out = {"opt.step": np.float32(state.step)}
    for k, arr in state.m.items():
        out[f"opt.m.{k}"] = arr
    for k, arr in state.v.items():
        out[f"opt.v.{k}"] = arr
    return out


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class LogRow:
    pass_num: int
    partition: int
    sub_epoch: int
    train_wmse: float
    val_wmse: float
    lr: float


@dataclass
class TrainResult:
    final_checkpoint: Path
    best_checkpoint: Path
    log_path: Path
    rows: list[LogRow] = field(default_factory=list)
    best_val_wmse: float = math.inf


def _predict_index(params: ModelParams, index: PatchIndex,
                   store: GranuleStore) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode predictions and targets for every triplet of ``index``, in order.

    Each granule runs through ``model3d.predict_scene`` with its indexed
    centres wanted, so a centre gets the bits of a lone ``predict`` call.
    The granules must have passed ``_admit``, and the triplets must lie in
    their interiors, as every ``build_index`` triplet does.
    """
    triplets = index.triplets
    preds = np.empty(len(triplets), dtype=params.dtype)
    targets = np.empty(len(triplets), dtype=np.float32)
    for f in range(len(store)):
        at = np.flatnonzero(triplets[:, 0] == f)
        data = store.granule(f)
        ys, xs = triplets[at, 1], triplets[at, 2]
        want = np.zeros(data.shape[1:], dtype=bool)
        want[ys, xs] = True
        preds[at] = predict_scene(params, data, want)[ys, xs]
        targets[at] = store.labels(f)[ys, xs]
    return preds, targets


def _eval_wmse(params: ModelParams, index: PatchIndex, store: GranuleStore,
               loss_cfg: LossConfig) -> float:
    loss, _ = wmse_loss(*_predict_index(params, index, store), loss_cfg)
    return loss


def _admit(role: str, manifest: DatasetManifest, store: GranuleStore,
           config: ModelConfig) -> PatchIndex:
    """The patch index of ``manifest`` (opened as ``store``), once each of
    its granules, in order, has passed ``model3d.admit_granule`` under its
    path (channel count, then values finite in [0, 1]); then
    ``EmptyDatasetError`` if nothing is indexed.  ``role`` names the
    manifest in that message."""
    for f, entry in enumerate(manifest):
        admit_granule(entry.granule, store.granule(f), config)
    index = store.index(config.patch_size)
    if len(index) == 0:
        raise EmptyDatasetError(f"{role} index is empty")
    return index


def train(manifest_train: DatasetManifest, manifest_val: DatasetManifest,
          out_dir: str | Path,
          model_config: ModelConfig | None = None,
          train_cfg: TrainConfig | None = None,
          loss_cfg: LossConfig | None = None,
          batch_hook=None) -> TrainResult:
    """Run the full pass/partition/sub-epoch loop and emit checkpoints.

    Writes ``final.dck`` (last state plus optimizer moments), ``best.dck``
    (lowest validation weighted MSE) and ``log.csv`` into ``out_dir``.
    ``log.csv`` gets its header at the start and one flushed row per
    sub-epoch, so a run that dies keeps the rows it finished.  A non-finite
    training or validation loss, or an Adam moment that is not finite at
    the end of a sub-epoch (checked after the validation loss, before its
    row is logged), raises ``TrainingDivergedError``, naming the pass,
    partition and sub-epoch, and no checkpoint is written.
    ``batch_hook(pass_num, partition, sub_epoch, batch)`` is called before
    every optimization step, for instrumentation.  The training manifest
    and then the validation manifest pass ``_admit`` (each granule's
    channel count and values finite in [0, 1], as ``dustpipe preprocess``
    emits them, then a non-empty index), and a ``partitions`` above the
    training index's centre count raises ``ValueError``, all before
    ``out_dir`` is created.
    """
    train_cfg = train_cfg or TrainConfig()
    loss_cfg = loss_cfg or LossConfig()
    out_dir = Path(out_dir)

    with (closing(GranuleStore(manifest_train)) as store_train,
          closing(GranuleStore(manifest_val)) as store_val):
        if model_config is None:
            model_config = ModelConfig(in_depth=store_train.channels)
        index_train = _admit("training", manifest_train, store_train, model_config)
        index_val = _admit("validation", manifest_val, store_val, model_config)
        if train_cfg.partitions > len(index_train):  # an empty partition trains nothing
            raise ValueError(f"partitions must be <= the {len(index_train)} centres of the "
                             f"training index, got {train_cfg.partitions}")
        out_dir.mkdir(parents=True, exist_ok=True)

        params = init_params(train_cfg.seed, model_config)
        state = adam_init(params)
        sched = PlateauScheduler(train_cfg)
        result = TrainResult(
            final_checkpoint=out_dir / "final.dck",
            best_checkpoint=out_dir / "best.dck",
            log_path=out_dir / "log.csv",
        )

        with open(result.log_path, "w", newline="") as log_file:
            log = csv.writer(log_file)
            log.writerow(["pass", "partition", "sub_epoch", "train_wmse", "val_wmse", "lr"])
            log_file.flush()
            for pass_num in range(1, train_cfg.passes + 1):
                parts = shuffle_partitions(index_train, train_cfg.seed + pass_num,
                                           train_cfg.partitions)
                # a generator, so no sub-epoch count is ever held as a sequence
                plan = ((part_idx, part, sub_epoch) for part_idx, part in enumerate(parts, start=1)
                        for sub_epoch in range(1, train_cfg.sub_epochs + 1))
                for part_idx, part, sub_epoch in plan:
                    at = f"pass {pass_num}, partition {part_idx}, sub-epoch {sub_epoch}"
                    seen_preds = []
                    seen_targets = []
                    for batch in iter_batches(index_train, store_train, part,
                                              train_cfg.batch_size):
                        if batch_hook is not None:
                            batch_hook(pass_num, part_idx, sub_epoch, batch)
                        # a diverging model overflows; the loss check below names it
                        with np.errstate(over="ignore", invalid="ignore"):
                            preds, trace = forward(params, batch.inputs[:, None], mode="train")
                        loss, dpreds = wmse_loss(preds, batch.targets, loss_cfg)
                        if not math.isfinite(loss):
                            raise TrainingDivergedError(f"non-finite training loss at {at}")
                        grads = backward(params, trace, dpreds)
                        # an overflowing moment is named by the state check below
                        with np.errstate(over="ignore", invalid="ignore"):
                            adam_step(params, grads, state, sched.lr, train_cfg)
                        seen_preds.append(preds)
                        seen_targets.append(batch.targets)
                    train_wmse, _ = wmse_loss(np.concatenate(seen_preds),
                                              np.concatenate(seen_targets), loss_cfg)
                    with np.errstate(over="ignore", invalid="ignore"):
                        val_wmse = _eval_wmse(params, index_val, store_val, loss_cfg)
                    if not math.isfinite(val_wmse):
                        raise TrainingDivergedError(f"non-finite validation loss at {at}")
                    moments = (*state.m.values(), *state.v.values())
                    if not all(np.isfinite(a).all() for a in moments):
                        raise TrainingDivergedError(f"non-finite optimizer state at {at}")
                    lr = sched.step(val_wmse)
                    row = LogRow(pass_num, part_idx, sub_epoch, train_wmse, val_wmse, lr)
                    result.rows.append(row)
                    log.writerow([row.pass_num, row.partition, row.sub_epoch,
                                  f"{row.train_wmse:.8g}", f"{row.val_wmse:.8g}",
                                  f"{row.lr:.8g}"])
                    log_file.flush()
                    if val_wmse < result.best_val_wmse:
                        result.best_val_wmse = val_wmse
                        best_params = params.copy()

    save_checkpoint(result.final_checkpoint, params,
                    extra=adam_state_to_tensors(state))
    save_checkpoint(result.best_checkpoint, best_params)
    return result


def evaluate(checkpoint: str | Path, manifest: DatasetManifest,
             alpha: float = 1.0) -> MetricsReport:
    """Eval-mode metrics over every valid patch center of a manifest.

    Each granule's indexed centres run through ``model3d.predict_scene``
    (see ``_predict_index``); the report does not depend on which of its
    paths a centre takes.  The manifest passes ``_admit`` (each granule's
    channel count and values finite in [0, 1], then a non-empty index), as
    ``train``'s do, before anything is predicted.
    """
    LossConfig(alpha)  # a bad alpha is refused before anything is read
    params, _ = load_checkpoint(checkpoint)
    with closing(GranuleStore(manifest)) as store:
        index = _admit("evaluation", manifest, store, params.config)
        preds, targets = _predict_index(params, index, store)
    return compute_metrics(preds, targets, alpha)
