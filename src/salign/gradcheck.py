"""Finite-difference oracles for analytic gradients.

A differentiable model is locally linear, so central differences of the
scalar output approximate the analytic gradient to O(eps^2); these checks
compare the two over every coordinate.
"""

from __future__ import annotations

import numpy as np

from .engine import Graph, grad
from .evaluation import trace_scores
from .model import ModelConfig, ModelParams, encode_batch

# smallest distance to a routing kink at which an input counts as smooth
MIN_MARGIN = 1e-3


def finite_diff_check(f, x, eps=1e-4):
    """Max relative error between analytic gradient of f and central differences.

    f maps a Tensor to a scalar Tensor and must be deterministic. The error
    at each coordinate is |analytic - cd| / max(1, |cd|).
    """
    return finite_diff_check_many(lambda: f(x), {"x": x}, eps)[0]


def finite_diff_check_many(f, tensors, eps=1e-4):
    """Check the gradient of f() with respect to several leaf tensors.

    f takes no arguments and rebuilds its graph from the tensors' current
    values on every call. Returns (max error, {name: error}).
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    y = f()
    if y.shape not in ((), (1,)):
        raise ValueError("finite_diff_check_many: f must return a scalar")
    named = dict(tensors)
    grads = grad(y, list(named.values()))

    per_tensor = {}
    for name, t in named.items():
        analytic = grads[t].values.reshape(-1)
        flat = t.values.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f().item()
            flat[i] = orig - eps
            down = f().item()
            flat[i] = orig
            cd = (up - down) / (2.0 * eps)
            err = abs(analytic[i] - cd) / max(1.0, abs(cd))
            if not np.isfinite(err):  # a NaN would compare below any error
                err = np.inf
            worst = max(worst, err)
        per_tensor[name] = worst
    return max(per_tensor.values()), per_tensor


def resample_until_smooth(draw, margin_of, min_margin=MIN_MARGIN, tries=100):
    """Redraw random inputs until they sit away from routing kinks.

    draw(attempt) produces a candidate, margin_of(candidate) its distance to
    the nearest relu/max tie point.
    """
    for attempt in range(tries):
        candidate = draw(attempt)
        if margin_of(candidate) > min_margin:
            return candidate
    raise RuntimeError("could not find a kink-free sample")


def relu_margin(values):
    """Distance of any preactivation to the relu kink."""
    return float(np.min(np.abs(values)))


def pool_margin(values, axis):
    """Smallest gap between the top two entries of each pooled group."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape[axis] < 2:
        return np.inf
    ordered = np.sort(v, axis=axis)
    top = np.take(ordered, -1, axis=axis)
    second = np.take(ordered, -2, axis=axis)
    return float(np.min(top - second))


def _pool_margin_unique(values, axis):
    """Top-2 gap per pooled group, ignoring bit-identical duplicates.

    Duplicated padding rows are the same computation and move together under
    any parameter perturbation, so an exact tie between them is not a kink.
    """
    v = np.asarray(values, dtype=np.float64)
    moved = np.moveaxis(v, axis, -1)
    worst = np.inf
    for group in moved.reshape(-1, moved.shape[-1]):
        distinct = np.unique(group)
        if distinct.size >= 2:
            worst = min(worst, float(distinct[-1] - distinct[-2]))
    return worst


def model_kink_margin(params, config, example, saliency_cfg=None):
    """Distance of one example's forward (and hinge inputs) to the nearest
    relu / elementwise-max / max-pool / hinge kink under the current
    parameters. Used to resample gradient-check inputs per the smoothness
    rule. The forward margins are read off the nodes of one encode_batch
    pass; the hinge inputs are the marked tokens' per-level gradients, all
    levels from one backward pass over that same forward."""
    with Graph() as graph:
        trace = encode_batch([example], params, config)
    margins = []
    for node in graph.nodes:
        if node.op == "relu":
            margins.append(relu_margin(node.parents[0].values))
        elif node.op == "maximum":
            a, b = (p.values for p in node.parents)
            both_live = (a > 0) & (b > 0)
            if both_live.any():
                margins.append(float(np.min(np.abs(a[both_live] - b[both_live]))))
    pooled = [(trace.intermediate, 0), (trace.intermediate, 1)]
    if trace.query_vec is not None:
        pooled.append((trace.query_vec.parents[0], 0))  # a batch of one pads no query row
    margins += [_pool_margin_unique(t.values[0], axis) for t, axis in pooled]
    margin = min(margins)
    marked = np.array(example.rationale[: config.max_len]) > 0
    if saliency_cfg is not None and saliency_cfg.enabled and marked.any():
        (scores,) = trace_scores(trace, [example], saliency_cfg.levels, config.max_len)
        margin = min([margin] + [float(np.min(np.abs(g[marked]))) for g in scores.values()])
    return margin


def select_smooth_positives(params, config, examples, saliency_cfg, count):
    """First `count` positive examples whose forward sits clear of kinks."""
    if count < 1:
        raise ValueError("examples must be positive")
    chosen = []
    scanned = 0
    for ex in examples:
        if ex.label != 1 or ex.marked_count < 1:
            continue
        scanned += 1
        if model_kink_margin(params, config, ex, saliency_cfg) > MIN_MARGIN:
            chosen.append(ex)
            if len(chosen) == count:
                return chosen
    raise ValueError(
        f"found only {len(chosen)} kink-free positives of {count} requested "
        f"among {scanned} marked positive candidates"
    )


def model_cost_gradcheck(embed_dim=8, max_len=6, examples=5, eps=1e-4, seed=0, strength=0.5):
    """Check the full multi-level training cost against central differences.

    Builds a small seeded model, draws random positive examples clear of
    routing kinks, and compares the analytic parameter gradient of the cost
    (task loss plus hinge penalties, built through create_graph) with
    central finite differences. Returns (max error, per-example errors).
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
    chosen = select_smooth_positives(params, config, corpus.examples, saliency_cfg, examples)
    errors = []
    for ex in chosen:

        def cost():
            return total_cost(encode_batch([ex], params, config), [ex], saliency_cfg)

        err, _ = finite_diff_check_many(cost, params.tensors(), eps=eps)
        errors.append(err)
    return max(errors), errors
