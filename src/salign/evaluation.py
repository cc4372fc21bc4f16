"""Measurement protocol: classification metrics, gradient-alignment
accuracy per level, exact one-sided McNemar significance, top-k salient
tokens, and the evidence-removal verification check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .engine import grad, no_grad, set_grad_enabled
from .model import LEVELS, encode_batch

# examples per batched pass: a forward alone, or a forward and its backward
PREDICT_CHUNK = 256
SALIENCY_CHUNK = 128


@dataclass
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    f1_undefined: bool = False
    s_acc: dict = field(default_factory=dict)


def classification_metrics(predictions, labels) -> MetricsReport:
    """Standard binary counts and percentage metrics.

    When precision + recall is zero the F1 is reported as 0 with the
    f1_undefined flag raised.
    """
    if len(predictions) != len(labels) or not labels:
        raise ValueError("predictions and labels must be equal-length and nonempty")
    tp = fp = tn = fn = 0
    for p, y in zip(predictions, labels):
        if y == 1:
            tp, fn = tp + (p == 1), fn + (p == 0)
        else:
            fp, tn = fp + (p == 1), tn + (p == 0)
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    undefined = precision + recall == 0
    f1 = 0.0 if undefined else 2.0 * precision * recall / (precision + recall)
    accuracy = 100.0 * (tp + tn) / len(labels)
    return MetricsReport(
        tp=int(tp),
        fp=int(fp),
        tn=int(tn),
        fn=int(fn),
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        f1_undefined=bool(undefined),
    )


def saliency_accuracy(G, Z):
    """Percentage of marked positions whose gradient is strictly positive.

    Returns None (skip signal) when the mask marks nothing; a marked
    gradient of exactly zero counts as a failure.
    """
    G = np.asarray(G, dtype=np.float64)
    Z = np.asarray(Z)
    if G.shape != Z.shape:
        raise ValueError("gradient and mask must have equal length")
    marked = int(Z.sum())
    if marked == 0:
        return None
    hits = int(((Z > 0) & (G > 0)).sum())
    return 100.0 * hits / marked


def _threshold(logits):
    """(probabilities, hard labels) for a list of logit chunks; the one
    threshold rule behind predict_batch and saliency_scores."""
    with no_grad():
        probs = ops.sigmoid(np.concatenate(logits)).values if logits else np.zeros(0)
    return probs, (probs >= 0.5).astype(np.int64)


def predict_batch(params, config, examples):
    """(probabilities, hard labels) for a list of examples, dropout off."""
    logits = []
    with no_grad():
        for lo in range(0, len(examples), PREDICT_CHUNK):
            trace = encode_batch(examples[lo : lo + PREDICT_CHUNK], params, config)
            logits.append(np.atleast_1d(trace.logit.values))
    return _threshold(logits)


def trace_scores(trace, examples, levels, max_len):
    """Per-token score gradients of a batched trace's examples from one
    backward pass: one dict per example mapping level -> array over its true
    (unpadded, possibly truncated) token positions."""
    targets = [trace.level_tensor(level) for level in levels]
    grads = grad(ops.sum_axes(trace.logit), targets)
    sums = [grads[t].values.sum(axis=-1) if t.ndim == 3 else grads[t].values for t in targets]
    return [
        {level: g[row, : min(len(ex.tokens), max_len)].copy() for level, g in zip(levels, sums)}
        for row, ex in enumerate(examples)
    ]


def saliency_scores(params, config, examples, levels=LEVELS):
    """Per-token score gradients and hard labels from one batched forward
    and backward pass per chunk, dropout off.

    Returns (scores, labels): trace_scores' dict per example, and the labels
    predict_batch would give, thresholded from the same logits.
    """
    out, logits = [], []
    levels = tuple(levels)
    for lo in range(0, len(examples), SALIENCY_CHUNK):
        part = examples[lo : lo + SALIENCY_CHUNK]
        with set_grad_enabled(bool(levels)):
            trace = encode_batch(part, params, config)
        logits.append(np.atleast_1d(trace.logit.values))
        out += trace_scores(trace, part, levels, config.max_len)
    return out, _threshold(logits)[1]


def evaluate_model(params, config, dataset, levels=LEVELS) -> MetricsReport:
    """Classification metrics plus per-level alignment accuracy, from one
    forward pass per chunk.

    Alignment accuracy is micro-aggregated: saliency_accuracy over the
    dataset's concatenated (truncated) masks and scores, so examples with an
    all-zero mask contribute nothing; a level is None when nothing is marked.
    """
    examples = dataset.examples
    scored, predicted = saliency_scores(params, config, examples, levels)
    report = classification_metrics(predicted.tolist(), [ex.label for ex in examples])
    mask = np.concatenate([ex.rationale[: config.max_len] for ex in examples])
    report.s_acc = {
        level: saliency_accuracy(np.concatenate([g[level] for g in scored]), mask)
        for level in levels
    }
    return report


def mcnemar_one_sided(b, c):
    """Exact one-sided McNemar p-value from discordant counts.

    b counts items only model A got right, c items only model B got right;
    the p-value is the upper binomial(b+c, 1/2) tail at c, testing whether
    B beats A. Computed with exact integer arithmetic.
    """
    b, c = int(b), int(c)
    if b < 0 or c < 0 or b + c < 1:
        raise ValueError("need nonnegative counts with b + c >= 1")
    n = b + c
    tail = sum(math.comb(n, k) for k in range(c, n + 1))
    return tail / (1 << n)


@dataclass
class VerificationReport:
    tpr_before: float
    tpr_after: float
    delta_pct: float | None
    undefined: bool = False


def delta_tpr(tpr_before, tpr_after):
    """Relative drop 100 * (tpr0 - tpr1) / tpr0, in percent of tpr0."""
    if tpr_before <= 0:
        raise ValueError("delta undefined for tpr0 == 0")
    return 100.0 * (tpr_before - tpr_after) / tpr_before


def verify_tpr_drop(params, config, positives) -> VerificationReport:
    """True-positive rate before and after deleting every marked token.

    positives must be labelled 1 with at least one marked token each. When
    the before-rate is zero the relative drop is undefined and flagged.
    """
    from .data import remove_marked

    if not positives:
        raise ValueError("need at least one positive example")
    for ex in positives:
        if ex.label != 1 or ex.marked_count < 1:
            raise ValueError("verification needs marked positive examples")
    _, before = predict_batch(params, config, positives)
    stripped = [remove_marked(ex) for ex in positives]
    _, after = predict_batch(params, config, stripped)
    tpr0 = 100.0 * float(np.mean(before == 1))
    tpr1 = 100.0 * float(np.mean(after == 1))
    if tpr0 == 0.0:
        return VerificationReport(tpr_before=0.0, tpr_after=tpr1, delta_pct=None, undefined=True)
    return VerificationReport(
        tpr_before=tpr0, tpr_after=tpr1, delta_pct=delta_tpr(tpr0, tpr1), undefined=False
    )


@dataclass
class SaliencyReport:
    """Word-level (and optionally deeper) gradients for one example."""

    tokens: list
    grads: dict


def saliency_report(params, config, examples, vocab):
    """Per-token gradients of each example at every level, dropout off, from
    one batched pass per chunk. Returns (a SaliencyReport per example, labels)."""
    scored, labels = saliency_scores(params, config, examples)
    reports = []
    for ex, per_level in zip(examples, scored):
        tokens = [vocab.token_for(t) for t in ex.tokens[: config.max_len]]
        reports.append(SaliencyReport(tokens, per_level))
    return reports, labels


def top_k_salient(report: SaliencyReport, k=6):
    """(index, token, weight) for the k most salient word-level tokens.

    Ranked by descending |G| with ties broken toward lower indices; weights
    are |G| normalized by the selection's maximum, so they lie in (0, 1].
    Tokens with exactly zero gradient are never selected.
    """
    if k < 1:
        raise ValueError("k must be positive")
    word = report.grads.get("word")
    if word is None:
        raise ValueError("word-level gradients required")
    order = sorted(range(len(word)), key=lambda i: (-abs(word[i]), i))
    picked = [i for i in order if abs(word[i]) > 0][:k]
    if not picked:
        return []
    peak = max(abs(word[i]) for i in picked)
    return [(i, report.tokens[i], abs(word[i]) / peak) for i in picked]


def _fmt(value):
    return "nan" if value is None else f"{value:.1f}"


def serialize_metrics(report: MetricsReport) -> str:
    """Single-record key = value text; percentages carry one decimal."""
    lines = [
        f"tp = {report.tp}",
        f"fp = {report.fp}",
        f"tn = {report.tn}",
        f"fn = {report.fn}",
        f"precision = {_fmt(report.precision)}",
        f"recall = {_fmt(report.recall)}",
        f"f1 = {_fmt(report.f1)}",
        f"accuracy = {_fmt(report.accuracy)}",
        f"f1_undefined = {int(report.f1_undefined)}",
    ]
    for level in LEVELS:
        if level in report.s_acc:
            lines.append(f"s_acc_{level} = {_fmt(report.s_acc[level])}")
    return "\n".join(lines) + "\n"


def serialize_verification(report: VerificationReport) -> str:
    return (
        f"tpr_before = {_fmt(report.tpr_before)}\n"
        f"tpr_after = {_fmt(report.tpr_after)}\n"
        f"delta_tpr = {_fmt(report.delta_pct)}\n"
        f"delta_undefined = {int(report.undefined)}\n"
    )
