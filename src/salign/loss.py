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


def token_saliency(level_tensor, logit, create_graph=False):
    """Per-token gradient sums of the score with respect to one level.

    For an (n, d) level the d gradients of each row are summed; the
    decision level is already one value per position. A level tensor
    outside the logit's graph yields zeros.
    """
    g = grad(logit, [level_tensor], create_graph=create_graph)[level_tensor]
    return ops.sum_axes(g, (-1,)) if level_tensor.ndim == 2 else g


def hinge_penalty(G, Z, weight):
    """weight * sum_i max(0, -Z_i * G_i); only marked tokens with negative
    gradients are penalized, and a gradient of exactly zero costs nothing."""
    Z = np.asarray(Z, dtype=np.float64)
    if G.shape != Z.shape:
        raise ValueError(f"hinge_penalty: gradient shape {G.shape} vs mask {Z.shape}")
    return ops.scale(ops.sum_axes(ops.relu(ops.neg(ops.mul(G, Tensor(Z))))), weight)


def padded_mask(example, n_max):
    """Rationale mask aligned with the padded/truncated token tensor;
    padding positions carry zero and never attract penalties."""
    mask = list(example.rationale)[:n_max]
    return np.array(mask + [0] * (n_max - len(mask)), dtype=np.float64)


def total_cost(trace: ForwardTrace, example, cfg: SaliencyConfig):
    """Task loss plus one hinge term per enabled level (single example).

    Level gradients are taken with create_graph, so the returned scalar is
    optimizable with respect to the parameters. With an all-zero mask or a
    zero strength the result equals the task loss exactly.
    """
    loss = task_loss(trace.logit, example.label)
    if not cfg.enabled:
        return loss
    targets = [trace.level_tensor(level) for level in cfg.levels]
    grads = grad(trace.logit, targets, create_graph=True)
    mask = padded_mask(example, trace.dim_max.shape[-1])
    cost = loss
    for level in cfg.levels:
        level_tensor = trace.level_tensor(level)
        g = grads[level_tensor]
        G = ops.sum_axes(g, (-1,)) if level_tensor.ndim == 2 else g
        cost = ops.add(cost, hinge_penalty(G, mask, cfg.strength))
    return cost
