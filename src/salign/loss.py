"""Task loss plus gradient-alignment penalties.

The classifier is regularized so that tokens marked as evidence carry a
positive summed gradient of the pre-sigmoid score. Each enabled level
(word embeddings, intermediate representation, decision representation)
contributes a hinge term max(0, -Z_i * G_i) per position, all sharing one
penalty weight. Because the per-token gradients are built with
create_graph, the resulting cost is differentiable with respect to the
parameters and can be fed to a standard optimizer.

Every level's gradient is (B, n): the trace's level helpers take the word
level at the conv outputs and contract the embedding axis before the
transposed conv. A level whose hinge is inactive on the whole batch is left
out of the cost, so the parameter backward never walks its graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ops
from .engine import Tensor, grad
from .model import LEVELS, ForwardTrace


@dataclass
class SaliencyConfig:
    """strength is the shared penalty weight; levels selects which
    representations are regularized, each at most once."""

    strength: float = 0.0
    levels: tuple = LEVELS

    def __post_init__(self):
        if not 0 <= self.strength < np.inf:
            raise ValueError(
                f"penalty strength must be finite and nonnegative, got {self.strength}"
            )
        self.levels = tuple(self.levels)
        for level in self.levels:
            if level not in LEVELS:
                raise ValueError(f"unknown level {level!r}")
            if self.levels.count(level) > 1:
                raise ValueError(f"level {level!r} given more than once")
        if self.strength > 0 and not self.levels:
            raise ValueError("saliency training enabled but no levels selected")

    @property
    def enabled(self):
        return self.strength > 0 and bool(self.levels)


def task_loss(logit, y):
    """Binary cross-entropy on sigmoid(logit), in stable softplus form.

    softplus(-logit) for the positive class, softplus(logit) for the
    negative one; y may be a scalar or an array matching logit's shape.
    """
    sign = 1.0 - 2.0 * np.asarray(y, dtype=np.float64)
    return ops.softplus(ops.mul(logit, Tensor(sign)))


def hinge_penalty(G, Z):
    """sum_i max(0, -Z_i * G_i); only marked tokens with negative gradients
    are penalized, and a gradient of exactly zero costs nothing."""
    Z = np.asarray(Z, dtype=np.float64)
    if G.shape != Z.shape:
        raise ValueError(f"hinge_penalty: gradient shape {G.shape} vs mask {Z.shape}")
    return ops.sum_axes(ops.relu(ops.mul(G, Tensor(-Z))))


def padded_mask(example, n_max):
    """Rationale mask aligned with the padded/truncated token tensor;
    padding positions carry zero and never attract penalties."""
    mask = list(example.rationale)[:n_max]
    return np.array(mask + [0] * (n_max - len(mask)), dtype=np.float64)


def mean_task_loss(trace: ForwardTrace, examples):
    """Mean task loss of a batch; trace is encode_batch(examples, ...)."""
    labels = np.array([ex.label for ex in examples], dtype=np.float64)
    return ops.scale(ops.sum_axes(task_loss(trace.logit, labels)), 1.0 / len(examples))


def alignment_penalty(level_grads, examples, strength):
    """strength / n times the summed hinge terms of a batch's level gradients.

    level_grads are the (B, n) create-graph gradients of the summed logit,
    one per level. A level whose hinge sum is exactly zero is left out: its
    relu is inactive everywhere, so its graph would send only exact zeros to
    the parameters. With no level left the penalty is an exact zero.
    """
    mask = np.stack([padded_mask(ex, level_grads[0].shape[1]) for ex in examples])
    terms = [t for t in (hinge_penalty(g, mask) for g in level_grads) if t.item() != 0.0]
    if not terms:
        return Tensor(0.0)
    return ops.scale(functools.reduce(ops.add, terms), strength / len(examples))


def total_cost(trace: ForwardTrace, examples, cfg: SaliencyConfig):
    """Mean over a batch of task loss plus one hinge term per enabled level.

    trace is encode_batch(examples, ...). The level gradients of the summed
    logit are taken with create_graph, so the returned scalar is optimizable
    with respect to the parameters. With an all-zero mask or a zero strength
    the result equals the mean task loss exactly.
    """
    mean_loss = mean_task_loss(trace, examples)
    if not cfg.enabled:
        return mean_loss
    grads = grad(ops.sum_axes(trace.logit), trace.level_targets(cfg.levels), create_graph=True)
    penalty = alignment_penalty(trace.level_values(cfg.levels, grads), examples, cfg.strength)
    return ops.add(mean_loss, penalty)
