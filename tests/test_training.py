import functools

import numpy as np
import pytest

from salign import Tensor, grad, ops
from salign.data import Example, SynthConfig, gen_synthetic
from salign.gradcheck import finite_diff_check_many, select_smooth_positives
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
        saliency = SaliencyConfig(strength=0.5, levels=LEVELS)
        cfg = TrainConfig(dropout=0.0, saliency=saliency)
        corpus = gen_synthetic(SynthConfig(count=200, vocab_size=12, trigger_count=2, min_len=3,
                                           max_len=6, seed=1, mode="qa"))
        by_length = {}
        for ex in corpus.examples:
            by_length.setdefault(len(ex.query), []).append(ex)
        batch = [select_smooth_positives(params, config, by_length[m], saliency, 1)[0]
                 for m in sorted(by_length)]
        assert [len(ex.query) for ex in batch] == [3, 4, 5, 6, 7]  # 7 exceeds max_len

        def cost():
            return _batch_cost(batch, params, config, cfg, None)[0]

        worst, _ = finite_diff_check_many(cost, params.tensors(), eps=1e-4)
        assert worst < 1e-4


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
            params.save(path)
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

        _, predicted = predict_batch(params, config, pair.examples)
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
