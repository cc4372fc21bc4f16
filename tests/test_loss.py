import functools
import math

import numpy as np
import pytest

from salign import Graph, Tensor, grad, no_grad, ops
from salign.data import Example, SynthConfig, gen_synthetic
from salign.evaluation import evaluate_model, saliency_scores
from salign.gradcheck import (
    finite_diff_check_many,
    model_cost_gradcheck,
    select_smooth_positives,
)
from salign.loss import (
    SaliencyConfig,
    hinge_penalty,
    mean_task_loss,
    padded_mask,
    task_loss,
    total_cost,
)
from salign.model import WINDOWS, ModelConfig, ModelParams, encode_batch


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

    @pytest.mark.parametrize("mode", ["event", "qa"])
    @pytest.mark.parametrize("count", [1, 70])
    def test_decision_level_passes_through(self, mode, count):
        # the logit is affine in dim_max, so its gradient is the head's
        # weights whatever the input: decision-level s_acc reads the head alone.
        # Seed 12 gives marked tokens and truncated sentences at either count.
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8, mode=mode)
        params = ModelParams(config, seed=0)
        dataset = gen_synthetic(SynthConfig(count=count, vocab_size=40, trigger_count=3,
                                            min_len=4, max_len=10, seed=12, mode=mode))
        scored, _ = saliency_scores(params, config, dataset.examples, ("decision",))
        d, w = config.embed_dim, params.out_weight.values
        hits = marked = 0
        for ex, scores in zip(dataset.examples, scored):
            n = min(len(ex.tokens), config.max_len)
            assert scores["decision"].tobytes() == w[d : d + n].tobytes()
            mask = np.asarray(ex.rationale[:n]) > 0
            hits += int((mask & (w[d : d + n] > 0)).sum())
            marked += int(mask.sum())
        assert marked > 0
        assert evaluate_model(params, config, dataset).s_acc["decision"] == 100.0 * hits / marked

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

    @pytest.mark.parametrize("strength", [math.nan, math.inf])
    def test_non_finite_strength_rejected(self, strength):
        # nan < 0 and nan > 0 are both false: a NaN strength would train as 0
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SaliencyConfig(strength=strength)

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
        worst, _, skipped = model_cost_gradcheck(embed_dim=8, max_len=6, examples=5, eps=1e-4,
                                                 seed=0)
        assert worst < 1e-4
        assert skipped == [0] * 5

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


def dropout_batch(mode, seed=1):
    """A 24-example batch at d 8, n 9, its model and dropout masks."""
    ds = gen_synthetic(SynthConfig(count=24, vocab_size=40, trigger_count=3, min_len=4,
                                   max_len=11, seed=seed, mode=mode))
    config = ModelConfig(vocab_size=40, embed_dim=8, max_len=9, mode=mode)
    keep = np.random.default_rng(seed).random((24, config.feature_size)) >= 0.5
    return ds.examples, ModelParams(config, seed=0), config, keep * 2.0


class TestWordContraction:
    """The word level's (B, n) gradient from the conv outputs, against the
    sum over d of the gradient at embedded."""

    @pytest.mark.parametrize("create_graph", [False, True])
    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_equals_summed_embedding_gradient(self, mode, create_graph):
        examples, params, config, masks = dropout_batch(mode)
        trace = encode_batch(examples, params, config, dropout_masks=masks)
        root = ops.sum_axes(trace.logit)
        want = grad(root, [trace.embedded])[trace.embedded].values.sum(axis=-1)
        grads = grad(root, trace.level_targets(("word",)), create_graph=create_graph)
        (got,) = trace.level_values(("word",), grads)
        assert got.shape == want.shape == (24, 9)
        # measured: 3.3e-16 in event, 2.1e-16 in qa
        assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_create_graph_gradient_runs_only_width_one_convs(self, mode):
        """The create-graph word gradient builds one d_out = 1 conv per
        window and no full-width one: a sum, a flip and a conv per window,
        then an add and a reshape."""
        examples, params, config, masks = dropout_batch(mode)
        trace = encode_batch(examples, params, config, dropout_masks=masks)
        with Graph() as first:
            grads = grad(ops.sum_axes(trace.logit), trace.level_targets(("word",)),
                         create_graph=True)
        with Graph() as contraction:
            trace.level_values(("word",), grads)
        convs = [t for t in first.nodes + contraction.nodes if t.op == "conv1d_same"]
        assert len(convs) == len(WINDOWS)
        assert all(t.shape[-1] == 1 for t in convs)
        assert len(contraction.nodes) == 3 * len(WINDOWS) + 2

    def test_forward_without_graph_holds_no_conv_output(self):
        examples, params, config, _ = dropout_batch("event")
        with no_grad():
            trace = encode_batch(examples, params, config)
        assert trace.relus == ()
        with pytest.raises(ValueError, match="gradients on"):
            trace.level_targets(("word",))


class TestInactiveLevelSkip:
    """A level whose hinge is inactive on the whole batch is left out of the
    cost; what it would have added is exact zeros."""

    @staticmethod
    def full_cost(trace, examples, cfg):
        """total_cost with every enabled level's hinge added, active or not."""
        grads = grad(ops.sum_axes(trace.logit), trace.level_targets(cfg.levels), create_graph=True)
        mask = np.stack([padded_mask(ex, trace.dim_max.shape[1]) for ex in examples])
        terms = [hinge_penalty(g, mask) for g in trace.level_values(cfg.levels, grads)]
        penalty = ops.scale(functools.reduce(ops.add, terms), cfg.strength / len(examples))
        return ops.add(mean_task_loss(trace, examples), penalty), [t.item() for t in terms]

    @staticmethod
    def param_backward(cost, params):
        with Graph() as graph:
            grads = grad(cost, list(params.tensors().values()))
        return [grads[t].values.tobytes() for t in params.tensors().values()], graph.nodes

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_skipped_cost_equals_full_cost_bytewise(self, mode):
        """A positive head makes the intermediate and decision gradients
        nonnegative, so only the word hinge is active."""
        examples, params, config, masks = dropout_batch(mode)
        params.out_weight.values[...] = np.abs(params.out_weight.values)
        cfg = SaliencyConfig(strength=0.5)
        full, terms = self.full_cost(encode_batch(examples, params, config, masks), examples, cfg)
        assert terms[0] > 0.0 and terms[1:] == [0.0, 0.0]
        skipped = total_cost(encode_batch(examples, params, config, masks), examples, cfg)
        assert skipped.values.tobytes() == full.values.tobytes()
        skipped_grads, skipped_nodes = self.param_backward(skipped, params)
        full_grads, full_nodes = self.param_backward(full, params)
        assert skipped_grads == full_grads
        # the inactive levels add no node to the parameter backward
        word = total_cost(encode_batch(examples, params, config, masks), examples,
                          SaliencyConfig(strength=0.5, levels=("word",)))
        _, word_nodes = self.param_backward(word, params)
        assert [t.op for t in skipped_nodes] == [t.op for t in word_nodes]
        assert len(skipped_nodes) < len(full_nodes)

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_all_inactive_batch_costs_the_task_loss(self, mode):
        """Positive kernels and head make every level's gradient nonnegative:
        the cost, and every parameter gradient, are the task loss's."""
        examples, params, config, masks = dropout_batch(mode)
        for t in [params.out_weight] + [k for k, _ in params.kernels.values()]:
            t.values[...] = np.abs(t.values)
        trace = encode_batch(examples, params, config, masks)
        cost = total_cost(trace, examples, SaliencyConfig(strength=0.5))
        loss = mean_task_loss(trace, examples)
        assert sum(ex.marked_count for ex in examples) > 0
        assert cost.values.tobytes() == loss.values.tobytes()
        assert self.param_backward(cost, params)[0] == self.param_backward(loss, params)[0]


class TestSelectSmoothPositives:
    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_returns_the_first_marked_positives_without_a_pass(self, mode, passes):
        corpus = gen_synthetic(SynthConfig(count=200, vocab_size=12, trigger_count=2, min_len=3,
                                           max_len=6, seed=1, mode=mode))
        candidates = [ex for ex in corpus.examples if ex.label == 1 and ex.marked_count >= 1]
        chosen = select_smooth_positives(corpus.examples, 3)
        assert [id(ex) for ex in chosen] == [id(ex) for ex in candidates[:3]]
        assert passes == {"forward": [], "backward": 0}

    def test_skips_negatives_and_unmarked_positives(self):
        examples = [example([4, 5], label=0), example([4, 5]), example([6, 7], marked=(1,)),
                    example([8], marked=(0,))]
        assert select_smooth_positives(examples, 2) == examples[2:]
        with pytest.raises(ValueError, match="^found only 2 marked positives of 3 requested$"):
            select_smooth_positives(examples, 3)
