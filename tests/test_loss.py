import math

import numpy as np
import pytest

from salign import Tensor, grad
from salign.data import Example, SynthConfig, gen_synthetic
from salign.evaluation import saliency_scores
from salign.gradcheck import (
    finite_diff_check_many,
    model_cost_gradcheck,
    model_kink_margin,
    select_smooth_positives,
)
from salign.loss import SaliencyConfig, hinge_penalty, padded_mask, task_loss, total_cost
from salign.model import ModelConfig, ModelParams, encode_batch


def example(tokens, label=1, marked=()):
    z = [1 if i in marked else 0 for i in range(len(tokens))]
    if label == 0:
        z = [0] * len(tokens)
    return Example(tokens=list(tokens), query=None, label=label, rationale=z)


class TestTaskLoss:
    def test_logit_zero(self):
        assert task_loss(Tensor(0.0), 1).item() == pytest.approx(math.log(2.0), abs=1e-12)
        assert task_loss(Tensor(0.0), 0).item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        want = math.log1p(math.exp(-3.0))  # softplus(-3)
        assert task_loss(Tensor(3.0), 1).item() == pytest.approx(want, abs=1e-9)
        assert want == pytest.approx(0.04859, abs=1e-5)

    def test_stable_at_extremes(self):
        assert np.isfinite(task_loss(Tensor(500.0), 0).item())
        assert np.isfinite(task_loss(Tensor(-500.0), 1).item())
        assert task_loss(Tensor(500.0), 1).item() == pytest.approx(0.0, abs=1e-12)

    def test_vector_form(self):
        logits = Tensor([2.0, -2.0])
        losses = task_loss(logits, np.array([1, 0]))
        want = math.log1p(math.exp(-2.0))
        np.testing.assert_allclose(losses.values, [want, want], rtol=1e-12)


class TestTokenSaliency:
    """Per-token gradient sums as saliency_scores gives them."""

    def setup_method(self):
        self.config = ModelConfig(vocab_size=20, embed_dim=4, max_len=5)
        self.params = ModelParams(self.config, seed=0)

    def test_decision_level_passes_through(self):
        # the logit is affine in dim_max, so its gradient is the head's weights
        ex = example([4, 9, 12, 7], marked=(1,))
        (scores,), _ = saliency_scores(self.params, self.config, [ex], ("decision",))
        d = self.config.embed_dim
        np.testing.assert_array_equal(scores["decision"], self.params.out_weight.values[d : d + 4])

    def test_matches_uniform_perturbation_differences(self):
        # G_i approximates d(logit)/d(eps) when all of row i moves by eps
        ex = example([4, 9, 12, 7], marked=(1,))
        (scores,), _ = saliency_scores(self.params, self.config, [ex], ("word",))
        G = scores["word"]
        eps = 1e-5
        for i in range(3):
            bumped_params = ModelParams(self.config, seed=0)
            trace_for_ids = [4, 9, 12, 7, 0]
            up = down = None
            for sign in (+1, -1):
                bumped_params.embedding.values[...] = self.params.embedding.values
                row = trace_for_ids[i]
                bumped_params.embedding.values[row] += sign * eps
                val = encode_batch([ex], bumped_params, self.config).logit.item()
                up, down = (val, down) if sign > 0 else (up, val)
            fd = (up - down) / (2 * eps)
            assert abs(G[i] - fd) / max(1.0, abs(fd)) < 1e-5


class TestHingePenalty:
    def test_all_zero_mask_costs_nothing(self):
        G = Tensor([-5.0, -1.0, 3.0])
        assert 0.7 * hinge_penalty(G, [0, 0, 0]).item() == 0.0

    def test_unmarked_tokens_ignored(self):
        got = 0.5 * hinge_penalty(Tensor([-2.0, -5.0]), [1, 0]).item()
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_nonnegative_gradients_unpenalized_and_zero_boundary(self):
        got = 2.0 * hinge_penalty(Tensor([0.3, 0.0]), [1, 1]).item()
        assert got == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hinge_penalty(Tensor([1.0, 2.0]), [1])

    def test_gradient_flows_to_negative_marked_entries_only(self):
        G = Tensor([-2.0, -1.0, 0.5])
        pen = 0.5 * hinge_penalty(G, [1, 0, 1])
        g = grad(pen, [G])[G]
        np.testing.assert_allclose(g.values, [-0.5, 0.0, 0.0])


class TestSaliencyConfig:
    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            SaliencyConfig(strength=-0.1)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            SaliencyConfig(strength=0.5, levels=("word", "attention"))

    @pytest.mark.parametrize("levels", [("word", "word"), ("word", "decision", "word")])
    def test_repeated_level_rejected(self, levels):
        # a repeated level would count its hinge twice, training at a multiple of lambda
        with pytest.raises(ValueError, match="level 'word' given more than once"):
            SaliencyConfig(strength=0.5, levels=levels)

    def test_enabled_requires_levels(self):
        with pytest.raises(ValueError):
            SaliencyConfig(strength=0.5, levels=())
        assert not SaliencyConfig(strength=0.0).enabled
        assert SaliencyConfig(strength=0.5).enabled


class TestTotalCost:
    def setup_method(self):
        self.config = ModelConfig(vocab_size=20, embed_dim=4, max_len=6)
        self.params = ModelParams(self.config, seed=0)

    def test_negative_example_cost_is_task_loss_bitwise(self):
        ex = example([4, 8, 15], label=0)
        trace = encode_batch([ex], self.params, self.config)
        cost = total_cost(trace, [ex], SaliencyConfig(strength=0.5))
        loss = task_loss(trace.logit, 0)
        assert cost.item() == loss.item()

    def test_zero_strength_given_any_mask(self):
        ex = example([4, 8, 15], marked=(0, 2))
        trace = encode_batch([ex], self.params, self.config)
        cost = total_cost(trace, [ex], SaliencyConfig(strength=0.0))
        assert cost.item() == task_loss(trace.logit, 1).item()

    def test_all_zero_mask_identity_within_1e15(self):
        ex = Example(tokens=[4, 8, 15], query=None, label=1, rationale=[0, 0, 0])
        trace = encode_batch([ex], self.params, self.config)
        cost = total_cost(trace, [ex], SaliencyConfig(strength=0.9))
        assert abs(cost.item() - task_loss(trace.logit, 1).item()) < 1e-15

    def test_full_cost_gradient_matches_finite_differences(self):
        worst, _ = model_cost_gradcheck(embed_dim=8, max_len=6, examples=5, eps=1e-4, seed=0)
        assert worst < 1e-4

    def test_single_level_cost_matches_manual_formula(self):
        # strength * sum_i max(0, -Z_i * sum_j dlogit/dW_ij) added to the loss
        ex = example([4, 8, 15, 9], marked=(1, 3))
        trace = encode_batch([ex], self.params, self.config)
        cfg = SaliencyConfig(strength=0.7, levels=("word",))
        cost = total_cost(trace, [ex], cfg).item()
        (scores,), _ = saliency_scores(self.params, self.config, [ex], ("word",))
        G = scores["word"]
        mask = padded_mask(ex, len(ex.tokens))
        manual = task_loss(trace.logit, 1).item() + 0.7 * np.sum(
            np.maximum(0.0, -mask * G)
        )
        assert cost == pytest.approx(manual, rel=1e-12)

    def test_monotone_in_marked_gradient(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            G = rng.normal(size=6)
            Z = (rng.random(6) < 0.5).astype(int)
            if not Z.any():
                Z[0] = 1
            base = 0.5 * hinge_penalty(Tensor(G), Z).item()
            i = int(np.flatnonzero(Z)[0])
            G2 = G.copy()
            G2[i] -= abs(rng.normal())
            worse = 0.5 * hinge_penalty(Tensor(G2), Z).item()
            assert worse >= base


class TestKinkMargin:
    @staticmethod
    def make(mode, synth_max_len):
        config = ModelConfig(vocab_size=12, embed_dim=8, max_len=6, mode=mode)
        corpus = gen_synthetic(SynthConfig(count=200, vocab_size=12, trigger_count=2, min_len=3,
                                           max_len=synth_max_len, seed=1, mode=mode))
        return ModelParams(config, seed=0), config, corpus.examples

    @staticmethod
    def reference(params, config, ex, cfg):
        """Forward kink margin, then one grad per level on the batch-of-one
        trace, summed over each row's dimensions."""
        margin = model_kink_margin(params, config, ex)
        trace = encode_batch([ex], params, config)
        mask = padded_mask(ex, config.max_len)
        for level in cfg.levels:
            target = trace.level_tensor(level)
            g = grad(trace.logit, [target])[target].values[0]
            marked = (g.sum(axis=-1) if g.ndim == 2 else g)[mask > 0]
            if marked.size:
                margin = min(margin, float(np.min(np.abs(marked))))
        return margin

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_equals_per_level_token_saliency_reference(self, mode):
        params, config, examples = self.make(mode, synth_max_len=8)
        params.out_weight.values *= 0.01  # shrinks the gradients, not the forward margins
        cfg = SaliencyConfig(strength=0.5)
        binding = 0
        for ex in examples:
            if ex.label == 1:
                want = self.reference(params, config, ex, cfg)
                assert model_kink_margin(params, config, ex, cfg) == want
                binding += want < model_kink_margin(params, config, ex)
        assert binding > 0  # the hinge inputs set some examples' margin

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_selection_runs_one_backward_per_candidate(self, mode, passes):
        params, config, examples = self.make(mode, synth_max_len=6)
        candidates = [ex for ex in examples if ex.label == 1 and ex.marked_count >= 1]
        chosen = select_smooth_positives(params, config, examples, SaliencyConfig(0.5), 3)
        scanned = next(i for i, ex in enumerate(candidates) if ex is chosen[-1]) + 1
        # per candidate: one forward, read for the routing margins and then
        # differentiated for the hinge inputs
        assert passes["forward"] == [(1, True)] * scanned
        assert passes["backward"] == scanned
