"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run it alone with:

    pytest tests/test_acceptance.py -v -s

Criterion 1 checks the published summary numbers (F1 from precision and
recall; the relative TPR drop from the TPR before and after removing the
evidence tokens) against the formulas in ``salign.evaluation``. Every
published number is rounded to one decimal, so each input stands for any
value within TOL = 0.05 of it and the published result is itself off by up
to TOL. For each row the check takes the range the formula spans over the
rounding box of the inputs and asserts that the published value lies
within TOL of that range. Both formulas are monotone in each input, so
the range runs between two corners of the box. The check is also shown to
reject a known-wrong formula, so it can still fail.
"""

import math
import time

import numpy as np
import pytest

from salign.data import SynthConfig, gen_synthetic
from salign.evaluation import (
    classification_metrics,
    delta_tpr,
    evaluate_model,
    mcnemar_one_sided,
    verify_tpr_drop,
)
from salign.gradcheck import model_cost_gradcheck
from salign.loss import SaliencyConfig, task_loss, total_cost
from salign.model import ModelConfig, ModelParams, encode_batch
from salign.training import TrainConfig, train

import test_properties

TOL = 0.05

# dataset, regularized?, precision, recall, published F1
F1_ROWS = [
    ("ACE no", 66.0, 77.5, 71.3),
    ("ACE yes", 70.1, 76.1, 73.0),
    ("ERE no", 85.0, 86.6, 85.8),
    ("ERE yes", 85.8, 87.3, 86.6),
    ("CBT-NE no", 55.6, 76.3, 64.3),
    ("CBT-NE yes", 57.2, 74.5, 64.7),
    ("CBT-CN no", 47.4, 39.0, 42.8),
    ("CBT-CN yes", 48.3, 38.9, 43.1),
]

# dataset, regularized?, TPR before, TPR after, published relative drop
DELTA_ROWS = [
    ("ACE no", 77.5, 52.2, 32.6),
    ("ACE yes", 76.1, 45.0, 40.9),
    ("ERE no", 86.6, 73.2, 15.4),
    ("ERE yes", 87.3, 70.6, 19.1),
    ("CBT-NE no", 76.3, 30.2, 60.4),
    ("CBT-NE yes", 74.5, 28.5, 61.8),
    ("CBT-CN no", 39.0, 16.6, 57.4),
    ("CBT-CN yes", 38.9, 15.4, 60.4),
]


def counts_for(precision_pct, recall_pct):
    """Smallest integer (tp, fp, fn) realizing the rounded percentages."""
    p = round(precision_pct * 10)  # per-mille
    r = round(recall_pct * 10)
    tp = p * r
    predicted = r * 1000
    actual = p * 1000
    g = math.gcd(math.gcd(tp, predicted), actual)
    tp, predicted, actual = tp // g, predicted // g, actual // g
    return tp, predicted - tp, actual - tp


def harmonic_mean(precision, recall):
    return 2.0 * precision * recall / (precision + recall)


def arithmetic_mean(precision, recall):
    return (precision + recall) / 2.0


def absolute_drop(before, after):
    return before - after


def f1_range(f1, precision, recall):
    """Range of f1 over the rounding box of (precision, recall); f1 rises in both."""
    return f1(precision - TOL, recall - TOL), f1(precision + TOL, recall + TOL)


def drop_range(drop, before, after):
    """Range of drop over the rounding box; drop rises with before, falls with after."""
    return drop(before - TOL, after + TOL), drop(before + TOL, after - TOL)


def rounding_check(rows, value_range, formula):
    """Per row (name, value, low, high, published, ok), where value is the
    formula at the rounded inputs and ok means published is within TOL of
    [low, high]."""
    table = []
    for name, x, y, published in rows:
        low, high = value_range(formula, x, y)
        ok = low - TOL <= published <= high + TOL
        table.append((name, formula(x, y), low, high, published, ok))
    return table


def report_rounding_check(label, table):
    for name, value, low, high, published, ok in table:
        flag = "ok" if ok else "OUTSIDE"
        print(f"  {label} {name}: computed {value:.4f} range [{low:.4f}, {high:.4f}] "
              f"published {published} {flag}")
    return [row for row in table if not row[-1]]


def test_criterion_1_f1_formula_reproduction():
    for name, precision, recall, _ in F1_ROWS:
        tp, fp, fn = counts_for(precision, recall)
        predictions = [1] * (tp + fp) + [0] * fn
        labels = [1] * tp + [0] * fp + [1] * fn
        report = classification_metrics(predictions, labels)
        assert report.precision == pytest.approx(precision, abs=1e-9)
        assert report.recall == pytest.approx(recall, abs=1e-9)
        assert report.f1 == pytest.approx(harmonic_mean(precision, recall), abs=1e-9), name
    bad = report_rounding_check("F1", rounding_check(F1_ROWS, f1_range, harmonic_mean))
    print(f"CRITERION 1a (F1 rows within ±{TOL} of their rounding range): "
          f"{'PASS' if not bad else 'FAIL'}")
    assert not bad, f"rows outside their rounding range: {bad}"
    wrong = rounding_check(F1_ROWS, f1_range, arithmetic_mean)
    assert not all(row[-1] for row in wrong), "check accepts the arithmetic mean as F1"


def test_criterion_1_delta_tpr_formula_reproduction():
    bad = report_rounding_check("dTPR", rounding_check(DELTA_ROWS, drop_range, delta_tpr))
    print(f"CRITERION 1b (dTPR rows within ±{TOL} of their rounding range): "
          f"{'PASS' if not bad else 'FAIL'}")
    assert not bad, f"rows outside their rounding range: {bad}"
    wrong = rounding_check(DELTA_ROWS, drop_range, absolute_drop)
    assert not all(row[-1] for row in wrong), "check accepts the absolute drop as dTPR"


def test_criterion_2_gradient_check_suite():
    started = time.perf_counter()
    worst, errors, skipped = model_cost_gradcheck(
        embed_dim=8, max_len=6, examples=5, eps=1e-4, seed=0, strength=0.5
    )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and sum(skipped) == 0 and elapsed < 120
    print(
        f"CRITERION 2 (three-level cost gradient vs finite differences): "
        f"{'PASS' if ok else 'FAIL'} (max err {worst:.3e} over {len(errors)} examples, "
        f"{sum(skipped)} coordinates skipped, {elapsed:.1f}s)"
    )
    assert worst < 1e-4
    assert skipped == [0] * 5
    assert elapsed < 120


def test_criterion_3_identity_invariant():
    config = ModelConfig(vocab_size=60, embed_dim=8, max_len=10)
    params = ModelParams(config, seed=0)
    ds = gen_synthetic(SynthConfig(count=60, vocab_size=60, trigger_count=4,
                                   min_len=4, max_len=10, seed=1))
    worst = 0.0
    for ex in ds.examples:
        trace = encode_batch([ex], params, config)
        loss = task_loss(trace.logit, ex.label).item()
        if ex.marked_count == 0:
            worst = max(worst, abs(total_cost(trace, [ex], SaliencyConfig(strength=0.5)).item() - loss))
        worst = max(worst, abs(total_cost(trace, [ex], SaliencyConfig(strength=0.0)).item() - loss))
    assert worst < 1e-15

    train_set, dev_set = ds.subset(0, 40), ds.subset(40, 60)
    checkpoints = []
    for saliency in (SaliencyConfig(strength=0.0), SaliencyConfig()):
        cfg = TrainConfig(epochs=3, seed=2, learning_rate=1e-3, saliency=saliency)
        run_params, _ = train(config, train_set, dev_set, cfg)
        checkpoints.append(
            b"".join(t.values.tobytes() for t in run_params.tensors().values())
        )
    identical = checkpoints[0] == checkpoints[1]
    print(
        f"CRITERION 3 (zero-mask / zero-strength identity, bit-identical runs): "
        f"{'PASS' if worst < 1e-15 and identical else 'FAIL'} (max dev {worst:.2e})"
    )
    assert identical


def _end_to_end_seed(seed):
    ds = gen_synthetic(SynthConfig(
        count=3000, vocab_size=200, trigger_count=8, min_len=6, max_len=12, seed=seed,
        context_size=30, context_rate_pos=0.55, context_rate_neg=0.15,
    ))
    train_set, dev_set, test_set = ds.subset(0, 2000), ds.subset(2000, 2500), ds.subset(2500, 3000)
    config = ModelConfig(vocab_size=200, embed_dim=32, max_len=12)
    results = {}
    for tag, strength in (("baseline", 0.0), ("saliency", 0.5)):
        cfg = TrainConfig(epochs=30, seed=seed, learning_rate=1e-3,
                          saliency=SaliencyConfig(strength=strength))
        params, _ = train(config, train_set, dev_set, cfg)
        report = evaluate_model(params, config, test_set, levels=("word",))
        positives = [ex for ex in test_set.examples if ex.label == 1 and ex.marked_count >= 1]
        verification = verify_tpr_drop(params, config, positives)
        results[tag] = {
            "accuracy": report.accuracy,
            "word_s_acc": report.s_acc["word"],
            "delta_tpr": verification.delta_pct,
        }
    return results


def test_criterion_4_synthetic_end_to_end():
    started = time.perf_counter()
    verdicts = []
    for seed in (0, 1, 2):
        r = _end_to_end_seed(seed)
        a = r["baseline"]["accuracy"] >= 95.0 and r["saliency"]["accuracy"] >= 95.0
        b = (
            r["saliency"]["word_s_acc"] >= 90.0
            and r["saliency"]["word_s_acc"] - r["baseline"]["word_s_acc"] >= 10.0
        )
        c = r["saliency"]["delta_tpr"] > r["baseline"]["delta_tpr"]
        verdicts.append(a and b and c)
        print(
            f"  seed {seed}: acc {r['baseline']['accuracy']:.1f}/{r['saliency']['accuracy']:.1f} "
            f"word s_acc {r['baseline']['word_s_acc']:.1f}/{r['saliency']['word_s_acc']:.1f} "
            f"dTPR {r['baseline']['delta_tpr']:.1f}/{r['saliency']['delta_tpr']:.1f} "
            f"-> a={a} b={b} c={c}"
        )
    elapsed = time.perf_counter() - started
    ok = sum(verdicts) >= 2 and elapsed < 300
    print(
        f"CRITERION 4 (end-to-end, {sum(verdicts)}/3 seeds, {elapsed:.0f}s): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert sum(verdicts) >= 2
    assert elapsed < 300


def test_criterion_5_bias_resistance():
    margins = []
    for seed in (0, 1, 2):
        base_kw = dict(vocab_size=240, trigger_count=16, min_len=8, max_len=16,
                       positive_fraction=0.4)
        biased = gen_synthetic(SynthConfig(count=2500, bias_rate=0.9, seed=seed, **base_kw))
        clean = gen_synthetic(SynthConfig(count=500, bias_rate=0.0, seed=seed + 1000, **base_kw))
        train_set, dev_set = biased.subset(0, 2000), biased.subset(2000, 2500)
        config = ModelConfig(vocab_size=240, embed_dim=32, max_len=16)
        accuracy = {}
        for tag, strength in (("baseline", 0.0), ("saliency", 5.0)):
            cfg = TrainConfig(epochs=10, seed=seed, learning_rate=3e-4, dropout=0.0,
                              patience=10, saliency=SaliencyConfig(strength=strength))
            params, _ = train(config, train_set, dev_set, cfg)
            accuracy[tag] = evaluate_model(params, config, clean, levels=()).accuracy
        margin = accuracy["saliency"] - accuracy["baseline"]
        margins.append(margin)
        print(
            f"  seed {seed}: clean-test accuracy baseline {accuracy['baseline']:.1f} "
            f"saliency {accuracy['saliency']:.1f} margin {margin:+.1f}"
        )
    winners = sum(m >= 2.0 for m in margins)
    print(f"CRITERION 5 (bias resistance, {winners}/3 seeds with ≥2pt margin): "
          f"{'PASS' if winners >= 2 else 'FAIL'}")
    assert winners >= 2


def test_criterion_6_mcnemar_oracle():
    assert mcnemar_one_sided(0, 5) == 0.03125
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 201))
        c = int(rng.integers(0, n + 1))
        b = n - c
        oracle = sum(math.comb(n, k) * (0.5**n) for k in range(c, n + 1))
        worst = max(worst, abs(mcnemar_one_sided(b, c) - oracle))
    ok = worst < 1e-12
    print(f"CRITERION 6 (exact McNemar vs brute-force oracle): "
          f"{'PASS' if ok else 'FAIL'} (max dev {worst:.2e})")
    assert worst < 1e-12


def test_criterion_7_property_suite():
    started = time.perf_counter()
    test_properties.test_saliency_accuracy_micro_aggregation_recount()
    test_properties.test_maxpool_backward_conserves_gradient_mass()
    test_properties.test_hinge_penalty_nonnegative_and_homogeneous()
    test_properties.test_generator_determinism_across_configs()
    trials = (
        test_properties.TRIALS_SACC
        + test_properties.TRIALS_POOL
        + test_properties.TRIALS_HINGE
        + test_properties.TRIALS_DATA
    )
    elapsed = time.perf_counter() - started
    ok = trials >= 1000 and elapsed < 60
    print(f"CRITERION 7 (property suite, {trials} trials in {elapsed:.1f}s): "
          f"{'PASS' if ok else 'FAIL'}")
    assert trials >= 1000
    assert elapsed < 60
