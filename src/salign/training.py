"""Adam training loop over the gradient-regularized cost.

Batches are padded together and run through one graph; the per-example
score gradients needed by the hinge terms come from a single create_graph
backward pass, which is exact because examples in a batch are independent.
Everything is deterministic given the run seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import ops
from .engine import grad
from .evaluation import classification_metrics, predict_batch
from .loss import SaliencyConfig, alignment_penalty, mean_task_loss
from .model import ModelConfig, ModelParams, encode_batch


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class NumericalError(RuntimeError):
    """Raised when a cost or gradient stops being finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    dropout: float = 0.5
    epochs: int = 20
    seed: int = 0
    patience: int = 5
    saliency: SaliencyConfig = field(default_factory=SaliencyConfig)

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
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


@dataclass
class TrainLog:
    records: list = field(default_factory=list)
    best_epoch: int = 0

    def to_jsonl(self, path):
        """One record per epoch; no wall-clock, so that reruns of the same
        seed produce byte-identical files."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(asdict(rec)) + "\n")
            fh.write(json.dumps({"best_epoch": self.best_epoch}) + "\n")


class AdamState:
    def __init__(self, params: ModelParams):
        self.m = {name: np.zeros_like(t.values) for name, t in params.tensors().items()}
        self.v = {name: np.zeros_like(t.values) for name, t in params.tensors().items()}
        self.step = 0


def adam_step(params: ModelParams, grads, state: AdamState, cfg: TrainConfig):
    """Standard bias-corrected Adam update, applied in place. A non-finite
    gradient raises NumericalError before any parameter or state changes."""
    named = params.tensors()
    for name in named:
        if not np.isfinite(grads[name]).all():
            raise NumericalError(f"non-finite gradient for tensor {name!r}")
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    for name, tensor in named.items():
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / correct1
        v_hat = state.v[name] / correct2
        tensor.values -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def _batch_cost(examples, params, config, cfg, masks):
    """Mean cost of one batch; returns (cost tensor, task value, penalty value).

    Builds loss.total_cost's graph from the same pieces, but takes the level
    gradients through this module's grad, which the benchmark's tracer times
    under the name salign.training.grad."""
    trace = encode_batch(examples, params, config, dropout_masks=masks)
    mean_loss = mean_task_loss(trace, examples)
    if not cfg.saliency.enabled:
        return mean_loss, mean_loss.item(), 0.0
    targets = [trace.level_tensor(level) for level in cfg.saliency.levels]
    level_grads = grad(ops.sum_axes(trace.logit), targets, create_graph=True)
    penalty = alignment_penalty([level_grads[t] for t in targets], examples, cfg.saliency.strength)
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
            del cost, grads  # free this step's graph before the next batch's forward
            if not params.all_finite():
                raise NumericalError(f"non-finite parameter after epoch {epoch}, batch {batches}")
            task_sum += task_value
            penalty_sum += penalty_value
            batches += 1

        dev_pred = predict_batch(params, config, dev_set.examples)
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
