"""Randomized property suite, runnable standalone:

    pytest tests/test_properties.py

Covers micro-aggregation recounts for alignment accuracy, max-pool
gradient mass conservation, hinge nonnegativity and homogeneity in its
weight, and generator determinism, with over a thousand randomized trials
in well under a minute.
"""

import numpy as np
import pytest

from salign import Tensor, grad, ops
from salign.data import SynthConfig, gen_synthetic
from salign.evaluation import saliency_accuracy
from salign.loss import hinge_penalty

TRIALS_SACC = 400
TRIALS_POOL = 300
TRIALS_HINGE = 300
TRIALS_DATA = 30


def test_saliency_accuracy_micro_aggregation_recount():
    rng = np.random.default_rng(100)
    for _ in range(TRIALS_SACC):
        examples = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 12))
            G = rng.normal(size=n)
            G[rng.random(n) < 0.1] = 0.0  # exercise the strict-positivity rule
            Z = (rng.random(n) < 0.4).astype(int)
            examples.append((G, Z))
        # micro aggregate = formula over the concatenation
        hits = sum(int(((z > 0) & (g > 0)).sum()) for g, z in examples)
        marked = sum(int(z.sum()) for _, z in examples)
        per_example = [saliency_accuracy(g, z) for g, z in examples]
        if marked == 0:
            assert all(v is None for v in per_example)
            continue
        micro = 100.0 * hits / marked
        weighted = sum(
            v * z.sum() for v, (_, z) in zip(per_example, examples) if v is not None
        )
        assert micro == pytest.approx(weighted / marked)


def test_maxpool_backward_conserves_gradient_mass():
    rng = np.random.default_rng(200)
    for _ in range(TRIALS_POOL):
        shape = tuple(rng.integers(1, 6, size=int(rng.integers(2, 4))))
        axis = int(rng.integers(0, len(shape)))
        x = Tensor(rng.normal(size=shape))
        upstream = rng.normal(size=tuple(s for i, s in enumerate(shape) if i != axis))
        pooled = ops.maxpool_axis(x, axis)
        y = ops.sum_axes(ops.mul(pooled, Tensor(upstream)))
        g = grad(y, [x])[x].values
        np.testing.assert_allclose(g.sum(axis=axis), upstream, atol=1e-12)
        # exactly one routed slot per pooled group
        routed = (g != 0).sum(axis=axis)
        assert np.all(routed <= 1)


def test_hinge_penalty_nonnegative_and_homogeneous():
    rng = np.random.default_rng(300)
    for _ in range(TRIALS_HINGE):
        n = int(rng.integers(1, 14))
        G = Tensor(rng.normal(size=n) * 10.0 ** float(rng.integers(-2, 3)))
        Z = (rng.random(n) < 0.5).astype(int)
        lam = float(rng.uniform(0, 4))
        scale_factor = float(rng.uniform(0, 5))
        base = lam * hinge_penalty(G, Z).item()
        assert base >= 0.0
        # positively homogeneous in the gradients
        scaled = lam * hinge_penalty(Tensor(G.values * scale_factor), Z).item()
        assert scaled == pytest.approx(scale_factor * base, rel=1e-12, abs=1e-300)
        # zero iff no marked token has a strictly negative gradient
        has_violation = bool(np.any((Z > 0) & (G.values < 0)))
        if lam > 0:
            assert (base > 0) == has_violation


def test_generator_determinism_across_configs():
    rng = np.random.default_rng(400)
    for _ in range(TRIALS_DATA):
        seed = int(rng.integers(0, 10_000))
        mode = "qa" if rng.random() < 0.5 else "event"
        cfg = SynthConfig(
            count=int(rng.integers(5, 30)),
            vocab_size=int(rng.integers(30, 80)),
            trigger_count=int(rng.integers(1, 6)),
            bias_rate=float(rng.choice([0.0, 0.5])),
            min_len=3,
            max_len=int(rng.integers(5, 10)),
            seed=seed,
            mode=mode,
        )
        a = gen_synthetic(cfg)
        b = gen_synthetic(cfg)
        assert [e.tokens for e in a.examples] == [e.tokens for e in b.examples]
        assert [e.query for e in a.examples] == [e.query for e in b.examples]
        assert [e.label for e in a.examples] == [e.label for e in b.examples]
        assert [e.rationale for e in a.examples] == [e.rationale for e in b.examples]


def test_trial_budget():
    assert TRIALS_SACC + TRIALS_POOL + TRIALS_HINGE + TRIALS_DATA >= 1000
