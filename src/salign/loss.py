"""Task loss plus gradient-alignment penalties.

The classifier is regularized so that tokens marked as evidence carry a
positive summed gradient of the pre-sigmoid score. Each enabled level
(word embeddings, intermediate representation, decision representation)
contributes a hinge term max(0, -Z_i * G_i) per position, all sharing one
penalty weight. Because the per-token gradients are built with
create_graph, the resulting cost is differentiable with respect to the
parameters and can be fed to a standard optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .engine import Tensor, grad
from .model import LEVELS, ForwardTrace


@dataclass
class SaliencyConfig:
    """strength is the shared penalty weight; levels selects which
    representations are regularized."""

    strength: float = 0.0
    levels: tuple = LEVELS

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError("penalty strength must be nonnegative")
        self.levels = tuple(self.levels)
        for level in self.levels:
            if level not in LEVELS:
                raise ValueError(f"unknown level {level!r}")
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
    return ops.sum_axes(ops.relu(ops.neg(ops.mul(G, Tensor(Z)))))


def padded_mask(example, n_max):
    """Rationale mask aligned with the padded/truncated token tensor;
    padding positions carry zero and never attract penalties."""
    mask = list(example.rationale)[:n_max]
    return np.array(mask + [0] * (n_max - len(mask)), dtype=np.float64)


def total_cost(trace: ForwardTrace, examples, cfg: SaliencyConfig):
    """Mean over a batch of task loss plus one hinge term per enabled level.

    trace is encode_batch(examples, ...). The level gradients of the summed
    logit are taken with create_graph, so the returned scalar is optimizable
    with respect to the parameters. With an all-zero mask or a zero strength
    the result equals the mean task loss exactly.
    """
    n = len(examples)
    labels = np.array([ex.label for ex in examples], dtype=np.float64)
    mean_loss = ops.scale(ops.sum_axes(task_loss(trace.logit, labels)), 1.0 / n)
    if not cfg.enabled:
        return mean_loss
    targets = [trace.level_tensor(level) for level in cfg.levels]
    level_grads = grad(ops.sum_axes(trace.logit), targets, create_graph=True)
    mask = np.stack([padded_mask(ex, trace.dim_max.shape[-1]) for ex in examples])
    penalty = None
    for target in targets:
        g = level_grads[target]
        term = hinge_penalty(ops.sum_axes(g, (-1,)) if g.ndim == 3 else g, mask)
        penalty = term if penalty is None else ops.add(penalty, term)
    return ops.add(mean_loss, ops.scale(penalty, cfg.strength / n))
