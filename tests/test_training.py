import functools
import gc
import tracemalloc

import numpy as np
import pytest

from salign import Tensor, grad, ops
from salign.data import Example, SynthConfig, gen_synthetic
from salign.gradcheck import _routed, _same_routes, finite_diff_check_many, select_smooth_positives
from salign.loss import SaliencyConfig, task_loss, total_cost
from salign.model import LEVELS, ModelConfig, ModelParams, encode_batch
from salign.training import AdamState, NumericalError, TrainConfig, _batch_cost, adam_step, train


def tiny_sets(seed=0, count=60, vocab=40):
    ds = gen_synthetic(SynthConfig(count=count, vocab_size=vocab, trigger_count=3,
                                   min_len=4, max_len=8, seed=seed))
    half = count // 2
    return ds.subset(0, half), ds.subset(half, count)


class TestAdamStep:
    def make(self):
        config = ModelConfig(vocab_size=8, embed_dim=2, max_len=3)
        params = ModelParams(config, seed=0)
        return params, AdamState(params), TrainConfig(learning_rate=0.1, epochs=1)

    def test_zero_gradient_leaves_params(self):
        params, state, cfg = self.make()
        before = params.clone_values()
        grads = {name: np.zeros_like(t.values) for name, t in params.tensors().items()}
        adam_step(params, grads, state, cfg)

        assert state.step == 1
        for name, t in params.tensors().items():
            np.testing.assert_array_equal(t.values, before[name])

    def test_first_step_moves_by_learning_rate_times_sign(self):
        params, state, cfg = self.make()
        before = params.clone_values()
        grads = {name: np.full_like(t.values, 0.37) for name, t in params.tensors().items()}
        grads["out_bias"] = np.array([-0.9])
        adam_step(params, grads, state, cfg)
        for name, t in params.tensors().items():
            sign = np.sign(grads[name])
            np.testing.assert_allclose(t.values, before[name] - cfg.learning_rate * sign, atol=1e-7)

    def test_nan_gradient_names_tensor(self):
        params, state, cfg = self.make()
        grads = {name: np.zeros_like(t.values) for name, t in params.tensors().items()}
        grads["conv3_kernel"][0, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="conv3_kernel"):
            adam_step(params, grads, state, cfg)

    def test_nan_in_last_gradient_changes_nothing(self):
        # every gradient is checked before any tensor or moment is stepped
        params, state, cfg = self.make()
        grads = {name: np.full_like(t.values, 0.37) for name, t in params.tensors().items()}
        adam_step(params, grads, state, cfg)
        before = params.clone_values()
        m, v = ({name: a.copy() for name, a in moments.items()} for moments in (state.m, state.v))
        last = list(params.tensors())[-1]
        grads[last] = np.full_like(grads[last], np.nan)
        with pytest.raises(NumericalError, match=last):
            adam_step(params, grads, state, cfg)
        assert state.step == 1
        for name, t in params.tensors().items():
            assert t.values.tobytes() == before[name].tobytes(), name
            assert state.m[name].tobytes() == m[name].tobytes(), name
            assert state.v[name].tobytes() == v[name].tobytes(), name

    def test_scalar_quadratic_converges(self):
        # 100 steps of rate 0.1 on (x - 3)^2 from 0 land near the minimum
        class ScalarParams:
            def __init__(self):
                self.x = Tensor(np.array([0.0]))

            def tensors(self):
                return {"x": self.x}

        params = ScalarParams()
        state = AdamState(params)
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        for _ in range(100):
            g = 2.0 * (params.x.values - 3.0)
            adam_step(params, {"x": g}, state, cfg)
        assert abs(params.x.values[0] - 3.0) < 0.1


class TestBatchCost:
    @staticmethod
    def make(mode, strength):
        ds = gen_synthetic(SynthConfig(count=10, vocab_size=40, trigger_count=3,
                                       min_len=4, max_len=8, seed=5, mode=mode))
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=7, mode=mode)
        cfg = TrainConfig(dropout=0.0, saliency=SaliencyConfig(strength=strength, levels=LEVELS))
        return ds.examples, ModelParams(config, seed=3), config, cfg

    @pytest.mark.parametrize("strength", [0.0, 0.5])
    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_bit_identical_to_total_cost(self, mode, strength):
        """Training's cost and loss.total_cost build the same graph: equal
        values and parameter gradients, bit for bit."""
        examples, params, config, cfg = self.make(mode, strength)
        named = params.tensors()
        train_cost, _, _ = _batch_cost(examples, params, config, cfg, None)
        cost = total_cost(encode_batch(examples, params, config), examples, cfg.saliency)
        assert train_cost.values.tobytes() == cost.values.tobytes()
        train_grads = grad(train_cost, list(named.values()))
        grads = grad(cost, list(named.values()))
        for name, t in named.items():
            assert train_grads[t].values.tobytes() == grads[t].values.tobytes(), name

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_equals_mean_single_example_cost(self, mode):
        """The batched cost training optimizes is the mean of the
        batch-of-one cost the gradient check verifies."""
        examples, params, config, cfg = self.make(mode, 0.5)
        named = params.tensors()

        batched, _, penalty = _batch_cost(examples, params, config, cfg, None)
        batched_grads = grad(batched, list(named.values()))
        singles = [total_cost(encode_batch([ex], params, config), [ex], cfg.saliency)
                   for ex in examples]
        mean = ops.scale(functools.reduce(ops.add, singles), 1.0 / len(examples))
        mean_grads = grad(mean, list(named.values()))

        assert penalty > 0.0
        np.testing.assert_allclose(batched.item(), mean.item(), rtol=1e-12, atol=0)
        for name, t in named.items():
            np.testing.assert_allclose(batched_grads[t].values, mean_grads[t].values,
                                       rtol=1e-12, atol=0, err_msg=name)

    def test_qa_padded_batch_passes_second_order_gradcheck(self):
        """Every parameter gradient of the qa batch cost, through the padded
        query tower and the double backward, against central differences."""
        config = ModelConfig(vocab_size=12, embed_dim=8, max_len=6, mode="qa")
        params = ModelParams(config, seed=0)
        cfg = TrainConfig(dropout=0.0, saliency=SaliencyConfig(strength=0.5, levels=LEVELS))
        corpus = gen_synthetic(SynthConfig(count=200, vocab_size=12, trigger_count=2, min_len=3,
                                           max_len=6, seed=1, mode="qa"))
        by_length = {}
        for ex in corpus.examples:
            by_length.setdefault(len(ex.query), []).append(ex)
        batch = [select_smooth_positives(by_length[m], 1)[0] for m in sorted(by_length)]
        assert [len(ex.query) for ex in batch] == [3, 4, 5, 6, 7]  # 7 exceeds max_len

        def cost():
            return _batch_cost(batch, params, config, cfg, None)[0]

        worst, skipped = finite_diff_check_many(cost, params.tensors(), eps=1e-4)
        assert worst < 1e-4
        assert skipped == 0


class TestDirectionalCheck:
    """The full training cost at training size (vocabulary 200, d 32, n 12,
    a 32-example batch with dropout masks, lambda 0.5 on every level): its
    parameter gradient's inner product with random +-1 directions v against
    the central difference of the cost along v.

    A direction whose step changes any relu, max or hinge choice is skipped.
    A fresh model's pad row is zero, which ties every fully padded window
    with the zero-padded one at the sentence's end, so every direction (each
    moves the pad row) crosses a kink there; a trained pad row is not zero,
    and this test draws it like any other row.

    Thresholds, fixed before the first run: at EPS 1e-7 rounding leaves about
    1e-9 of error, so BOUND is 1e-7; at least MIN_COMPARED of the DIRECTIONS
    must be compared, so the check cannot pass by skipping everything."""

    EPS, DIRECTIONS, BOUND, MIN_COMPARED = 1e-7, 20, 1e-7, 10

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_directional_derivatives_match_central_differences(self, mode):
        rng = np.random.default_rng(0)
        examples = gen_synthetic(SynthConfig(count=32, vocab_size=200, trigger_count=8,
                                             min_len=6, max_len=12, seed=1, mode=mode)).examples
        config = ModelConfig(vocab_size=200, embed_dim=32, max_len=12, mode=mode)
        params = ModelParams(config, seed=0)
        params.embedding.values[0] = rng.normal(0.0, 0.1, config.embed_dim)
        cfg = TrainConfig(dropout=0.5, saliency=SaliencyConfig(strength=0.5, levels=LEVELS))
        masks = (rng.random((32, config.feature_size)) >= 0.5) * 2.0

        def cost():
            return _batch_cost(examples, params, config, cfg, masks)[0]

        named = params.tensors()
        base, routes = _routed(cost)
        grads = grad(base, list(named.values()))
        start = {name: t.values.copy() for name, t in named.items()}
        errors = []
        for _ in range(self.DIRECTIONS):
            v = {name: rng.choice([-1.0, 1.0], t.shape) for name, t in named.items()}
            analytic = sum(float(np.sum(grads[t].values * v[name])) for name, t in named.items())
            ends = []
            for sign in (1.0, -1.0):
                for name, t in named.items():
                    t.values[...] = start[name] + sign * self.EPS * v[name]
                ends.append(_routed(cost))
            if all(_same_routes(routes, moved) for _, moved in ends):
                cd = (ends[0][0].item() - ends[1][0].item()) / (2.0 * self.EPS)
                errors.append(abs(analytic - cd) / max(1.0, abs(cd)))
        for name, t in named.items():
            t.values[...] = start[name]
        assert len(errors) >= self.MIN_COMPARED
        assert max(errors) < self.BOUND


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            TrainConfig(learning_rate=lr)


class TestTrainLoop:
    def test_requires_dev_split(self):
        train_set, _ = tiny_sets()
        empty = train_set.subset(0, 0)
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8)
        with pytest.raises(ValueError):
            train(config, train_set, empty, TrainConfig(epochs=1))
        with pytest.raises(ValueError):
            train(config, empty, train_set, TrainConfig(epochs=1))

    def test_zero_strength_run_is_bit_identical_to_baseline(self):
        train_set, dev_set = tiny_sets(seed=3)
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8)
        runs = []
        for saliency in (SaliencyConfig(strength=0.0), SaliencyConfig()):
            cfg = TrainConfig(epochs=3, seed=5, learning_rate=1e-3, saliency=saliency)
            params, log = train(config, train_set, dev_set, cfg)
            runs.append((params.clone_values(), [r.dev_f1 for r in log.records]))
        for name in runs[0][0]:
            assert runs[0][0][name].tobytes() == runs[1][0][name].tobytes()
        assert runs[0][1] == runs[1][1]

    def test_identical_runs_reproduce_log_and_checkpoint(self, tmp_path):
        train_set, dev_set = tiny_sets(seed=4)
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8)
        cfg = TrainConfig(epochs=3, seed=9, learning_rate=1e-3,
                          saliency=SaliencyConfig(strength=0.5))
        blobs = []
        for run in range(2):
            params, log = train(config, train_set, dev_set, cfg)
            path = tmp_path / f"ck{run}.bin"
            params.save(path, config, train_set.vocab)
            logpath = tmp_path / f"log{run}.jsonl"
            log.to_jsonl(logpath)
            blobs.append((path.read_bytes(), logpath.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_mean_penalty_zero_on_all_negative_batches(self):
        rng = np.random.default_rng(0)
        examples = [
            Example(tokens=rng.integers(4, 40, size=6).tolist(), query=None, label=0,
                    rationale=[0] * 6)
            for _ in range(30)
        ]
        from salign.data import Dataset, Vocabulary

        negs = Dataset(Vocabulary.synthetic(40), examples, "event")
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8)
        cfg = TrainConfig(epochs=2, seed=0, learning_rate=1e-3,
                          saliency=SaliencyConfig(strength=0.5))
        _, log = train(config, negs, negs, cfg)
        assert all(rec.mean_penalty == 0.0 for rec in log.records)

    def test_overfits_separable_pair(self):
        pos = Example(tokens=[4, 5], query=None, label=1, rationale=[1, 0])
        neg = Example(tokens=[6, 7], query=None, label=0, rationale=[0, 0])
        from salign.data import Dataset, Vocabulary

        pair = Dataset(Vocabulary.synthetic(10), [pos, neg], "event")
        config = ModelConfig(vocab_size=10, embed_dim=4, max_len=4)
        cfg = TrainConfig(epochs=200, seed=0, learning_rate=1e-2, dropout=0.0,
                          batch_size=2, patience=200)
        params, _ = train(config, pair, pair, cfg)
        from salign.evaluation import predict_batch

        predicted = predict_batch(params, config, pair.examples)
        assert predicted.tolist() == [1, 0]

    def test_full_batch_descent_is_monotone_without_dropout(self):
        # plain gradient descent on the mean task loss, tiny rate
        train_set, _ = tiny_sets(seed=6, count=20)
        config = ModelConfig(vocab_size=40, embed_dim=4, max_len=8)
        params = ModelParams(config, seed=0)
        labels = np.array([ex.label for ex in train_set.examples], dtype=np.float64)

        def mean_loss():
            trace = encode_batch(train_set.examples, params, config)
            return ops.scale(ops.sum_axes(task_loss(trace.logit, labels)), 1 / len(labels))

        previous = np.inf
        for _ in range(15):
            cost = mean_loss()
            assert cost.item() <= previous + 1e-12
            previous = cost.item()
            named = params.tensors()
            grads = grad(cost, list(named.values()))
            for name, t in named.items():
                t.values -= 0.01 * grads[t].values

    def test_qa_mode_trains_end_to_end(self):
        ds = gen_synthetic(SynthConfig(count=700, vocab_size=80, trigger_count=4,
                                       min_len=4, max_len=10, seed=0, mode="qa"))
        train_set, dev_set, test_set = ds.subset(0, 500), ds.subset(500, 600), ds.subset(600, 700)
        config = ModelConfig(vocab_size=80, embed_dim=16, max_len=10, mode="qa")
        cfg = TrainConfig(epochs=50, seed=1, learning_rate=3e-3, patience=50,
                          saliency=SaliencyConfig(strength=0.5))
        params, _ = train(config, train_set, dev_set, cfg)
        from salign.evaluation import evaluate_model

        report = evaluate_model(params, config, test_set, levels=("word",))
        assert report.accuracy >= 85.0
        assert report.s_acc["word"] >= 90.0

    def test_training_lifts_accuracy_and_alignment(self):
        ds = gen_synthetic(SynthConfig(count=400, vocab_size=60, trigger_count=4,
                                       min_len=4, max_len=8, seed=12))
        train_set, dev_set = ds.subset(0, 300), ds.subset(300, 400)
        config = ModelConfig(vocab_size=60, embed_dim=8, max_len=8)
        cfg = TrainConfig(epochs=20, seed=2, learning_rate=2e-3,
                          saliency=SaliencyConfig(strength=0.5))
        params, log = train(config, train_set, dev_set, cfg)
        from salign.evaluation import evaluate_model

        report = evaluate_model(params, config, dev_set, levels=("word",))
        assert report.accuracy >= 90.0
        assert report.s_acc["word"] >= 90.0


class TestTrainPeakMemory:
    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_eight_batches_peak_like_one(self, mode):
        # Each step's cost graph and gradients are freed before the next
        # batch's forward, so an epoch's peak holds one step's graph however
        # many batches it runs. Keeping the previous step's graph alive
        # reads 1.5-1.6 here.
        ds = gen_synthetic(SynthConfig(count=8 * 32 + 16, vocab_size=40, trigger_count=3,
                                       min_len=4, max_len=12, seed=6, mode=mode))
        dev_set = ds.subset(8 * 32, 8 * 32 + 16)
        config = ModelConfig(vocab_size=40, embed_dim=16, max_len=12, mode=mode)
        cfg = TrainConfig(epochs=1, batch_size=32, seed=1, learning_rate=1e-3,
                          saliency=SaliencyConfig(strength=0.5))
        peaks = []
        for batches in (1, 8):
            train_set = ds.subset(0, 32 * batches)
            gc.collect()
            tracemalloc.start()
            try:
                train(config, train_set, dev_set, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.15 * peaks[0]
