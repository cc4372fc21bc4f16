"""Finite-difference oracles for analytic gradients.

A differentiable model is locally linear, so central differences of the
scalar output approximate the analytic gradient to O(eps^2); these checks
compare the two over every coordinate. relu, maximum and max-pooling are
linear only between kinks, so a coordinate whose step to x + eps or x - eps
changes any of their routings (the Graph's routes: a relu, max or hinge
choice) is skipped instead of compared, and the skipped coordinates are
counted and returned beside the errors.
"""

from __future__ import annotations

import numpy as np

from .engine import Graph, grad
from .model import ModelConfig, ModelParams, encode_batch


def finite_diff_check(f, x, eps=1e-4):
    """(max relative error, skipped coordinates) of f's analytic gradient
    against central differences.

    f maps a Tensor to a scalar Tensor and must be deterministic. The error
    at each coordinate is |analytic - cd| / max(1, |cd|).
    """
    return finite_diff_check_many(lambda: f(x), {"x": x}, eps)


def _routed(f):
    """f()'s value and the routing its relu, maximum and max-pool ops took."""
    with Graph() as graph:
        y = f()
    return y, graph.routes


def _same_routes(a, b):
    """Whether two passes routed alike; comparing bytes costs a tenth of
    np.array_equal on arrays this small, and a check compares two per step."""
    return len(a) == len(b) and all(
        p.shape == q.shape and p.tobytes() == q.tobytes() for p, q in zip(a, b)
    )


def finite_diff_check_many(f, tensors, eps=1e-4):
    """Check the gradient of f() with respect to several named leaf tensors.

    f takes no arguments and rebuilds its graph from the tensors' current
    values on every call. Returns (max error, skipped), where skipped counts
    the coordinates left out because a step changed routing.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    y, routes = _routed(f)
    if y.shape not in ((), (1,)):
        raise ValueError("finite_diff_check_many: f must return a scalar")
    leaves = list(dict(tensors).values())
    grads = grad(y, leaves)

    worst, skipped = 0.0, 0
    for t in leaves:
        analytic = grads[t].values.reshape(-1)
        flat = t.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, up_routes = _routed(f)
            flat[i] = orig - eps
            down, down_routes = _routed(f)
            flat[i] = orig
            if not (_same_routes(routes, up_routes) and _same_routes(routes, down_routes)):
                skipped += 1
                continue
            cd = (up.item() - down.item()) / (2.0 * eps)
            err = abs(analytic[i] - cd) / max(1.0, abs(cd))
            if not np.isfinite(err):  # a NaN would compare below any error
                err = np.inf
            worst = max(worst, err)
    return worst, skipped


def select_smooth_positives(examples, count):
    """The first `count` positive examples with a marked token: a gradient
    check's inputs. No input is drawn away from kinks; the check skips the
    coordinates whose routing a step changes."""
    if count < 1:
        raise ValueError("examples must be positive")
    chosen = [ex for ex in examples if ex.label == 1 and ex.marked_count >= 1][:count]
    if len(chosen) < count:
        raise ValueError(f"found only {len(chosen)} marked positives of {count} requested")
    return chosen


def model_cost_gradcheck(embed_dim=8, max_len=6, examples=5, eps=1e-4, seed=0, strength=0.5):
    """Check the full multi-level training cost against central differences.

    Builds a small seeded model, takes the first marked positive examples of
    a seeded corpus, and compares the analytic parameter gradient of the cost
    (task loss plus hinge penalties, built through create_graph) with
    central finite differences. Returns (max error, per-example errors,
    per-example skipped coordinates).
    """
    from .data import SynthConfig, gen_synthetic
    from .loss import SaliencyConfig, total_cost

    config = ModelConfig(vocab_size=12, embed_dim=embed_dim, max_len=max_len)
    params = ModelParams(config, seed=seed)
    saliency_cfg = SaliencyConfig(strength=strength)
    corpus = gen_synthetic(
        SynthConfig(
            count=200,
            vocab_size=config.vocab_size,
            trigger_count=2,
            min_len=max(1, max_len // 2),
            max_len=max_len,
            seed=seed + 1,
        )
    )
    errors, skipped = [], []
    for ex in select_smooth_positives(corpus.examples, examples):

        def cost():
            return total_cost(encode_batch([ex], params, config), [ex], saliency_cfg)

        err, skips = finite_diff_check_many(cost, params.tensors(), eps=eps)
        errors.append(err)
        skipped.append(skips)
    return max(errors), errors, skipped
