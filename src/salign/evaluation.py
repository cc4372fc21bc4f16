"""Measurement protocol: classification metrics, gradient-alignment
accuracy per level, exact one-sided McNemar significance, top-k salient
tokens, and the evidence-removal verification check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .data import remove_marked
from .engine import grad, no_grad, set_grad_enabled
from .loss import padded_mask
from .model import LEVELS, encode_batch

# examples per batched pass, a forward alone or a forward and its backward;
# a chunk's graph is the largest allocation eval, verify, compare and
# saliency make, and one chunk's graph at most is alive. Past the chunks,
# eval keeps two counts per level and saliency each example's scores.
SALIENCY_CHUNK = 64


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
    return _percent(*_alignment_counts(G, Z))


def _alignment_counts(G, Z):
    """(marked positions whose gradient is strictly positive, marked positions)."""
    G = np.asarray(G, dtype=np.float64)
    Z = np.asarray(Z)
    if G.shape != Z.shape:
        raise ValueError("gradient and mask must have equal length")
    return int(((Z > 0) & (G > 0)).sum()), int(Z.sum())


def _percent(hits, marked):
    return None if marked == 0 else 100.0 * hits / marked


def predict_batch(params, config, examples):
    """Hard labels for a list of examples, dropout off: saliency_scores'
    forward-only pass."""
    return saliency_scores(params, config, examples, levels=())[1]


def _level_sums(trace, levels):
    """Per level, a batched trace's (B, n) score gradient from one backward
    pass, as the trace's level helpers define it."""
    if not levels:
        return []
    grads = grad(ops.sum_axes(trace.logit), trace.level_targets(levels))
    with no_grad():
        return [g.values for g in trace.level_values(levels, grads)]


def _per_example(sums, examples, levels, max_len):
    """One dict per example mapping level -> its row of sums over the
    example's true (unpadded, possibly truncated) token positions."""
    return [
        {level: g[row, : min(len(ex.tokens), max_len)].copy() for level, g in zip(levels, sums)}
        for row, ex in enumerate(examples)
    ]


def _scored_chunks(params, config, examples, levels):
    """One batched forward, and with levels its backward, per SALIENCY_CHUNK
    examples, dropout off; with no levels, the forward builds no graph.

    Yields (examples, logits, _level_sums) per chunk. Each chunk's graph is
    freed before the chunk is yielded, so one graph at most is alive.
    """
    for lo in range(0, len(examples), SALIENCY_CHUNK):
        part = examples[lo : lo + SALIENCY_CHUNK]
        with set_grad_enabled(bool(levels)):
            trace = encode_batch(part, params, config)
        logits, sums = np.atleast_1d(trace.logit.values), _level_sums(trace, levels)
        del trace
        yield part, logits, sums


def _labels(logits):
    """sigmoid(logit) >= 0.5 over every chunk's logits, in order."""
    with no_grad():
        probs = ops.sigmoid(np.concatenate(logits)).values if logits else np.zeros(0)
    return (probs >= 0.5).astype(np.int64)


def saliency_scores(params, config, examples, levels=LEVELS):
    """Per-token score gradients and hard labels from one batched forward
    and backward pass per chunk, dropout off; with no levels, each chunk's
    forward runs alone and builds no graph.

    Returns (scores, labels): _per_example's dict per example, and the labels
    sigmoid(logit) >= 0.5.
    """
    out, logits = [], []
    levels = tuple(levels)
    for part, chunk_logits, sums in _scored_chunks(params, config, examples, levels):
        logits.append(chunk_logits)
        out += _per_example(sums, part, levels, config.max_len)
    return out, _labels(logits)


def evaluate_model(params, config, dataset, levels=LEVELS) -> MetricsReport:
    """Classification metrics plus per-level alignment accuracy, from one
    forward pass per chunk.

    Alignment accuracy is micro-aggregated: saliency_accuracy over the
    dataset's concatenated (truncated) masks and scores, so examples with an
    all-zero mask contribute nothing; a level is None when nothing is marked.
    Each chunk's scores are reduced to hit and marked counts as soon as it is
    scored. The logit is affine in the decision level, whose gradient at
    position i is out_weight[embed_dim + i] for any input: decision s_acc
    reads the head alone.
    """
    examples = dataset.examples
    levels = tuple(levels)
    counts = {level: np.zeros(2, dtype=np.int64) for level in levels}  # hits, marked
    logits = []
    for part, chunk_logits, sums in _scored_chunks(params, config, examples, levels):
        logits.append(chunk_logits)
        mask = np.stack([padded_mask(ex, config.max_len) for ex in part])
        for level, g in zip(levels, sums):
            counts[level] += _alignment_counts(g, mask)
    report = classification_metrics(_labels(logits).tolist(), [ex.label for ex in examples])
    report.s_acc = {level: _percent(*counts[level].tolist()) for level in levels}
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
    if not positives:
        raise ValueError("need at least one positive example")
    for ex in positives:
        if ex.label != 1 or ex.marked_count < 1:
            raise ValueError("verification needs marked positive examples")
    before = predict_batch(params, config, positives)
    after = predict_batch(params, config, [remove_marked(ex) for ex in positives])
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
