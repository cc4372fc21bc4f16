import gc
import math
import tracemalloc

import numpy as np
import pytest

from salign import ops
from salign.data import Example, SynthConfig, gen_synthetic
from salign.engine import no_grad
from salign.evaluation import (
    SALIENCY_CHUNK,
    SaliencyReport,
    classification_metrics,
    delta_tpr,
    evaluate_model,
    mcnemar_one_sided,
    predict_batch,
    saliency_accuracy,
    saliency_report,
    saliency_scores,
    serialize_metrics,
    serialize_verification,
    top_k_salient,
    verify_tpr_drop,
)
from salign.model import LEVELS, ModelConfig, ModelParams, encode_batch
from salign.training import TrainConfig, train
from salign.loss import SaliencyConfig


def binomial_tail_oracle(b, c):
    """Brute-force float summation, independent of the integer-exact path."""
    n = b + c
    return sum(math.comb(n, k) * (0.5**n) for k in range(c, n + 1))


class TestClassificationMetrics:
    def test_published_precision_recall_f1_row(self):
        # a (P, R) pair whose F1 should land on 71.3 within rounding
        f1 = 2 * 66.0 * 77.5 / (66.0 + 77.5)
        assert abs(f1 - 71.3) <= 0.05

    def test_counts_and_percentages(self):
        report = classification_metrics([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (report.tp, report.fp, report.tn, report.fn) == (2, 1, 1, 1)
        assert report.precision == pytest.approx(100 * 2 / 3)
        assert report.recall == pytest.approx(100 * 2 / 3)
        assert report.accuracy == pytest.approx(60.0)
        assert not report.f1_undefined

    def test_all_correct(self):
        report = classification_metrics([1, 0, 1], [1, 0, 1])
        assert report.precision == report.recall == report.f1 == report.accuracy == 100.0

    def test_all_negative_predictions_flagged(self):
        report = classification_metrics([0, 0, 0], [1, 0, 1])
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.f1_undefined

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, size=50).tolist()
        labels = rng.integers(0, 2, size=50).tolist()
        base = classification_metrics(preds, labels)
        order = rng.permutation(50)
        again = classification_metrics([preds[i] for i in order], [labels[i] for i in order])
        assert (base.tp, base.fp, base.tn, base.fn) == (again.tp, again.fp, again.tn, again.fn)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics([], [])


class TestSaliencyAccuracy:
    def test_direct_evaluation(self):
        got = saliency_accuracy([0.2, -0.5, -0.1, 0.3], [1, 0, 1, 1])
        assert got == pytest.approx(100 * 2 / 3)

    def test_all_positive(self):
        assert saliency_accuracy([0.1, 0.2], [1, 1]) == 100.0

    def test_exact_zero_counts_as_failure(self):
        assert saliency_accuracy([0.0], [1]) == 0.0

    def test_skip_signal_for_unmarked(self):
        assert saliency_accuracy([1.0, 2.0], [0, 0]) is None

    def test_micro_aggregation_matches_recount(self):
        # the dataset-level number equals the formula over concatenated marks
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8)
        params = ModelParams(config, seed=0)
        ds = gen_synthetic(SynthConfig(count=60, vocab_size=40, trigger_count=3,
                                       min_len=4, max_len=8, seed=2))
        agg = evaluate_model(params, config, ds, levels=("word",)).s_acc
        scored, _ = saliency_scores(params, config, ds.examples, ("word",))
        hits = marked = 0
        for ex, grads in zip(ds.examples, scored):
            for z, g in zip(ex.rationale, grads["word"]):
                marked += z
                hits += int(z == 1 and g > 0)
        assert agg["word"] == pytest.approx(100 * hits / marked)

    @pytest.mark.parametrize("mode,positive_fraction", [("event", 0.5), ("qa", 0.5),
                                                        ("event", 0.0)])
    def test_truncated_micro_aggregation_equals_per_token_recount(self, mode,
                                                                 positive_fraction):
        # sentences of up to 10 tokens under max_len 6: marks past the cut do not count
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=6, mode=mode)
        params = ModelParams(config, seed=1)
        ds = gen_synthetic(SynthConfig(count=80, vocab_size=40, trigger_count=3, min_len=4,
                                       max_len=10, seed=4, mode=mode,
                                       positive_fraction=positive_fraction))
        assert any(len(ex.tokens) > config.max_len for ex in ds.examples)
        s_acc = evaluate_model(params, config, ds).s_acc
        scored, _ = saliency_scores(params, config, ds.examples)
        for level in LEVELS:
            hits = marked = 0
            for ex, grads in zip(ds.examples, scored):
                assert len(grads[level]) == min(len(ex.tokens), config.max_len)
                for i, g in enumerate(grads[level]):
                    marked += ex.rationale[i]
                    hits += int(ex.rationale[i] == 1 and g > 0)
            if positive_fraction == 0.0:
                assert marked == 0 and s_acc[level] is None
            else:
                assert marked < sum(ex.marked_count for ex in ds.examples)
                assert s_acc[level] == 100.0 * hits / marked


class TestMcNemar:
    def test_balanced_single_pair(self):
        assert mcnemar_one_sided(1, 1) == pytest.approx(0.75, abs=1e-15)

    def test_clean_sweep_is_closed_form(self):
        assert mcnemar_one_sided(0, 5) == 0.03125

    def test_tail_from_zero_is_one(self):
        assert mcnemar_one_sided(5, 0) == 1.0

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            mcnemar_one_sided(0, 0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            c = int(rng.integers(0, n + 1))
            b = n - c
            assert mcnemar_one_sided(b, c) == pytest.approx(
                binomial_tail_oracle(b, c), abs=1e-12
            )

    def test_large_counts_stay_exact(self):
        p = mcnemar_one_sided(5000, 5000)
        assert 0.5 < p < 0.51


class TestDeltaTpr:
    def test_published_rows_reproduce(self):
        assert abs(delta_tpr(76.1, 45.0) - 40.9) <= 0.05
        assert abs(delta_tpr(77.5, 52.2) - 32.6) <= 0.05

    def test_no_drop_gives_zero(self):
        assert delta_tpr(80.0, 80.0) == 0.0

    def test_zero_before_rejected(self):
        with pytest.raises(ValueError):
            delta_tpr(0.0, 0.0)


_TRAINED = {}


class TestVerifyTprDrop:
    def make_trained(self):
        if "model" not in _TRAINED:
            ds = gen_synthetic(SynthConfig(count=300, vocab_size=60, trigger_count=4,
                                           min_len=4, max_len=8, seed=5))
            config = ModelConfig(vocab_size=60, embed_dim=8, max_len=8)
            cfg = TrainConfig(epochs=15, seed=0, learning_rate=2e-3,
                              saliency=SaliencyConfig(strength=0.5))
            params, _ = train(config, ds.subset(0, 220), ds.subset(220, 300), cfg)
            _TRAINED["model"] = (params, config, ds)
        return _TRAINED["model"]

    def test_removal_reduces_tpr(self):
        params, config, ds = self.make_trained()
        positives = [ex for ex in ds.examples if ex.label == 1 and ex.marked_count >= 1]
        report = verify_tpr_drop(params, config, positives)
        assert report.tpr_before > report.tpr_after
        assert report.delta_pct == pytest.approx(
            100 * (report.tpr_before - report.tpr_after) / report.tpr_before
        )
        assert report.delta_pct <= 100.0
        assert not report.undefined

    def test_rejects_unmarked_positives(self):
        params, config, _ = self.make_trained()
        bad = Example(tokens=[4, 5], query=None, label=1, rationale=[0, 0])
        with pytest.raises(ValueError):
            verify_tpr_drop(params, config, [bad])

    def test_serialization_one_decimal(self):
        from salign.evaluation import VerificationReport

        text = serialize_verification(
            VerificationReport(tpr_before=77.54, tpr_after=52.21, delta_pct=32.67)
        )
        assert "tpr_before = 77.5" in text
        assert "delta_tpr = 32.7" in text


class TestTopK:
    def make_report(self, word, tokens=None):
        tokens = tokens or [f"t{i}" for i in range(len(word))]
        return SaliencyReport(tokens=tokens, grads={"word": np.array(word, dtype=float)})

    def test_short_sentence_returns_fewer(self):
        picked = top_k_salient(self.make_report([1.0, -2.0, 0.5]), k=6)
        assert len(picked) == 3

    def test_tie_breaks_toward_lower_index(self):
        picked = top_k_salient(self.make_report([5.0, 5.0, 1.0]), k=2)
        assert [i for i, _, _ in picked] == [0, 1]

    def test_uniform_magnitudes_weight_one(self):
        picked = top_k_salient(self.make_report([2.0, -2.0, 2.0]), k=3)
        assert all(w == 1.0 for _, _, w in picked)

    def test_zero_gradients_excluded(self):
        assert top_k_salient(self.make_report([0.0, 0.0]), k=3) == []

    def test_weights_in_unit_interval(self):
        picked = top_k_salient(self.make_report([4.0, -1.0, 0.25]), k=3)
        weights = [w for _, _, w in picked]
        assert weights[0] == 1.0 and all(0 < w <= 1 for w in weights)


class TestReports:
    def test_saliency_report_levels_and_topk(self):
        ds = gen_synthetic(SynthConfig(count=10, vocab_size=40, trigger_count=3,
                                       min_len=4, max_len=8, seed=8))
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8)
        params = ModelParams(config, seed=1)
        ex = ds.examples[0]
        (rep,), _ = saliency_report(params, config, [ex], ds.vocab)
        assert set(rep.grads) == {"word", "intermediate", "decision"}
        assert all(len(g) == len(ex.tokens) for g in rep.grads.values())
        assert len(rep.tokens) == len(ex.tokens)
        assert len(top_k_salient(rep)) <= 6

    def test_metrics_serialization_format(self):
        report = classification_metrics([1, 0], [1, 1])
        report.s_acc = {"word": 66.666}
        text = serialize_metrics(report)
        assert "precision = 100.0" in text
        assert "recall = 50.0" in text
        assert "s_acc_word = 66.7" in text

    def test_evaluate_model_combines_metrics_and_alignment(self):
        ds = gen_synthetic(SynthConfig(count=40, vocab_size=40, trigger_count=3,
                                       min_len=4, max_len=8, seed=9))
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8)
        params = ModelParams(config, seed=2)
        report = evaluate_model(params, config, ds)
        assert 0 <= report.accuracy <= 100
        assert set(report.s_acc) == {"word", "intermediate", "decision"}

    def test_predict_batch_thresholds_at_half(self):
        ds = gen_synthetic(SynthConfig(count=12, vocab_size=40, trigger_count=3, seed=10))
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=12)
        params = ModelParams(config, seed=3)
        probs = 1.0 / (1.0 + np.exp(-logits(params, config, ds.examples)))
        np.testing.assert_array_equal(predict_batch(params, config, ds.examples),
                                      (probs >= 0.5).astype(int))


def logits(params, config, examples):
    """The model's logits from one graph-free forward."""
    with no_grad():
        return encode_batch(examples, params, config).logit.values


def chunk_passes(count, chunk, graph):
    """The passes spy's record of one pass per chunk over count examples."""
    return [(min(chunk, count - lo), graph) for lo in range(0, count, chunk)]


def traced_peak(fn):
    """Peak bytes tracemalloc sees allocated while fn() runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def corpus(mode, count, seed=5):
    """Sentences up to 10 tokens, so a max_len of 8 truncates some."""
    return gen_synthetic(SynthConfig(count=count, vocab_size=40, trigger_count=3, min_len=4,
                                     max_len=10, seed=seed, mode=mode))


class TestOnePassPerJob:
    @staticmethod
    def model(mode, examples):
        """A seeded model whose bias is set so about half its labels are 1."""
        config = ModelConfig(vocab_size=40, embed_dim=6, max_len=8, mode=mode)
        params = ModelParams(config, seed=3)
        params.out_bias.values[...] -= np.median(logits(params, config, examples))
        return params, config

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_evaluate_model_labels_equal_predict_batch(self, mode):
        ds = corpus(mode, 300)
        params, config = self.model(mode, ds.examples)
        labels = predict_batch(params, config, ds.examples)
        assert 0 < labels.sum() < len(labels)
        np.testing.assert_array_equal(saliency_scores(params, config, ds.examples)[1], labels)
        report = evaluate_model(params, config, ds)
        expected = classification_metrics(labels.tolist(), ds.labels())
        got = (report.tp, report.fp, report.tn, report.fn)
        assert got == (expected.tp, expected.fp, expected.tn, expected.fn)

    @pytest.mark.parametrize("logit", [0.0, -1e-17])
    def test_labels_share_predict_batch_threshold(self, logit):
        # sigmoid(-1e-17) rounds to 0.5: a sign rule on the logit would say 0
        ds = corpus("event", 20)
        params, config = self.model("event", ds.examples)
        params.out_weight.values[...] = 0.0
        params.out_bias.values[...] = logit
        assert ops.sigmoid(np.array(logit)).item() == 0.5
        labels = predict_batch(params, config, ds.examples)
        assert labels.all()
        for levels in (LEVELS, ()):
            np.testing.assert_array_equal(saliency_scores(params, config, ds.examples, levels)[1],
                                          labels)
        report = evaluate_model(params, config, ds)
        assert report.tp + report.fp == 20

    def test_eval_runs_one_forward_pass_per_chunk(self, passes):
        ds = corpus("qa", 300)
        params, config = self.model("qa", ds.examples)
        passes["forward"].clear()
        report = evaluate_model(params, config, ds)
        scored = chunk_passes(300, SALIENCY_CHUNK, True)
        assert passes["forward"] == scored
        assert passes["backward"] == len(scored)
        assert set(report.s_acc) == set(LEVELS)

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_saliency_report_equals_per_example_loop(self, mode):
        ds = corpus(mode, 150)
        params, config = self.model(mode, ds.examples)
        reports, labels = saliency_report(params, config, ds.examples, ds.vocab)
        assert len(reports) == len(ds.examples)
        np.testing.assert_array_equal(labels, predict_batch(params, config, ds.examples))
        truncated = 0
        for ex, rep in zip(ds.examples, reports):
            (alone,), _ = saliency_scores(params, config, [ex])
            assert list(rep.grads) == list(alone) == list(LEVELS)
            for level in LEVELS:
                assert rep.grads[level].tobytes() == alone[level].tobytes()
            assert rep.tokens == [ds.vocab.token_for(t) for t in ex.tokens[: config.max_len]]
            word = np.abs(alone["word"])
            ranked = sorted(range(len(word)), key=lambda i: (-word[i], i))
            picked = [i for i, _, _ in top_k_salient(rep, 4)]
            assert picked == [i for i in ranked if word[i] > 0][:4]
            truncated += len(ex.tokens) > config.max_len
        assert truncated > 0

    def test_saliency_report_runs_one_pass_per_chunk(self, passes):
        ds = corpus("event", 300)
        params, config = self.model("event", ds.examples)
        passes["forward"].clear()
        reports, labels = saliency_report(params, config, ds.examples, ds.vocab)
        scored = chunk_passes(300, SALIENCY_CHUNK, True)
        assert passes["forward"] == scored
        assert passes["backward"] == len(scored)
        assert len(reports) == len(labels) == 300


class TestSaliencyPeakMemory:
    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_four_chunks_peak_like_one(self, mode):
        # Each chunk's trace is freed before the next chunk's forward, so
        # the peak holds one chunk's trace however many chunks there are.
        # Keeping the previous chunk's trace alive reads 1.5-1.7 here for
        # saliency_scores' graphs and 1.2 for predict_batch's forwards.
        config = ModelConfig(vocab_size=40, embed_dim=16, max_len=12, mode=mode)
        params = ModelParams(config, seed=3)
        examples = corpus(mode, 4 * SALIENCY_CHUNK).examples
        for job in (saliency_scores, predict_batch):
            one = traced_peak(lambda: job(params, config, examples[:SALIENCY_CHUNK]))
            four = traced_peak(lambda: job(params, config, examples))
            assert four <= 1.15 * one, job.__name__
