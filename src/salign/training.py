"""Adam training loop over the gradient-regularized cost.

Batches are padded together and run through one graph; the per-example
score gradients needed by the hinge terms come from a single create_graph
backward pass, which is exact because examples in a batch are independent.
Everything is deterministic given the run seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import ops
from .engine import grad
from .evaluation import classification_metrics, predict_batch
from .loss import SaliencyConfig, hinge_penalty, padded_mask, task_loss
from .model import ModelConfig, ModelParams, encode_batch


class NumericalError(RuntimeError):
    """Raised when a cost or gradient stops being finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    dropout: float = 0.5
    epochs: int = 20
    seed: int = 0
    patience: int = 5
    saliency: SaliencyConfig = field(default_factory=SaliencyConfig)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, epochs and patience must be positive")


@dataclass
class EpochRecord:
    epoch: int
    mean_task_loss: float
    mean_penalty: float
    dev_precision: float
    dev_recall: float
    dev_f1: float
    dev_accuracy: float
    seconds: float


@dataclass
class TrainLog:
    records: list = field(default_factory=list)
    best_epoch: int = 0

    def to_jsonl(self, path):
        """One record per epoch. Wall-clock stays in memory only so that
        reruns of the same seed produce byte-identical files."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                row = asdict(rec)
                row.pop("seconds")
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"best_epoch": self.best_epoch}) + "\n")


class AdamState:
    def __init__(self, params: ModelParams):
        self.m = {name: np.zeros_like(t.values) for name, t in params.tensors().items()}
        self.v = {name: np.zeros_like(t.values) for name, t in params.tensors().items()}
        self.step = 0


def adam_step(params: ModelParams, grads, state: AdamState, cfg: TrainConfig):
    """Standard bias-corrected Adam update, applied in place."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - cfg.beta1**t
    correct2 = 1.0 - cfg.beta2**t
    for name, tensor in params.tensors().items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for tensor {name!r}")
        state.m[name] = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        state.v[name] = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * (g * g)
        m_hat = state.m[name] / correct1
        v_hat = state.v[name] / correct2
        tensor.values -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return params, state


def _batch_cost(examples, params, config, cfg, masks):
    """Mean cost of one batch; returns (cost tensor, task value, penalty value).

    Builds loss.total_cost's graph op for op, but takes the level gradients
    through this module's grad, which the benchmark's tracer times."""
    n = len(examples)
    trace = encode_batch(examples, params, config, dropout_masks=masks)
    labels = np.array([ex.label for ex in examples], dtype=np.float64)
    mean_loss = ops.scale(ops.sum_axes(task_loss(trace.logit, labels)), 1.0 / n)
    if not cfg.saliency.enabled:
        return mean_loss, mean_loss.item(), 0.0
    levels = cfg.saliency.levels
    targets = [trace.level_tensor(level) for level in levels]
    root = ops.sum_axes(trace.logit)
    level_grads = grad(root, targets, create_graph=True)
    mask = np.stack([padded_mask(ex, config.max_len) for ex in examples])
    penalty = None
    for level in levels:
        level_tensor = trace.level_tensor(level)
        g = level_grads[level_tensor]
        G = ops.sum_axes(g, (-1,)) if g.ndim == 3 else g
        term = hinge_penalty(G, mask)
        penalty = term if penalty is None else ops.add(penalty, term)
    penalty = ops.scale(penalty, cfg.saliency.strength / n)
    return ops.add(mean_loss, penalty), mean_loss.item(), penalty.item()


def train(config: ModelConfig, train_set, dev_set, cfg: TrainConfig, params=None):
    """Optimize on train_set, early-stopping on dev F1.

    Returns (params restored to the best dev-F1 epoch, TrainLog). The run is
    a pure function of (config, data, cfg, initial params).
    """
    if not train_set.examples:
        raise ValueError("training set is empty")
    if not dev_set.examples:
        raise ValueError("a dev split is required for early stopping")
    if params is None:
        params = ModelParams(config, seed=cfg.seed)
    state = AdamState(params)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    best_f1 = -1.0
    best_values = params.clone_values()
    stale = 0
    dev_labels = [ex.label for ex in dev_set.examples]
    n = len(train_set.examples)
    feature = config.feature_size

    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        task_sum = 0.0
        penalty_sum = 0.0
        batches = 0
        for lo in range(0, n, cfg.batch_size):
            rows = order[lo : lo + cfg.batch_size]
            examples = [train_set.examples[i] for i in rows]
            masks = None
            if cfg.dropout > 0:
                keep = rng.random((len(examples), feature)) >= cfg.dropout
                masks = keep.astype(np.float64) / (1.0 - cfg.dropout)
            cost, task_value, penalty_value = _batch_cost(examples, params, config, cfg, masks)
            if not np.isfinite(cost.values).all():
                raise NumericalError(f"non-finite cost at epoch {epoch}, batch {batches}")
            named = params.tensors()
            grads = grad(cost, list(named.values()))
            adam_step(params, {name: grads[t].values for name, t in named.items()}, state, cfg)
            if not params.all_finite():
                raise NumericalError(f"non-finite parameter after epoch {epoch}, batch {batches}")
            task_sum += task_value
            penalty_sum += penalty_value
            batches += 1

        _, dev_pred = predict_batch(params, config, dev_set.examples)
        metrics = classification_metrics(dev_pred.tolist(), dev_labels)
        log.records.append(
            EpochRecord(
                epoch=epoch,
                mean_task_loss=task_sum / batches,
                mean_penalty=penalty_sum / batches,
                dev_precision=metrics.precision,
                dev_recall=metrics.recall,
                dev_f1=metrics.f1,
                dev_accuracy=metrics.accuracy,
                seconds=time.perf_counter() - started,
            )
        )
        if metrics.f1 > best_f1:
            best_f1 = metrics.f1
            best_values = params.clone_values()
            log.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    params.set_values(best_values)
    return params, log
