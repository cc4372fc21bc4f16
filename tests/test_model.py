import gc
import tracemalloc

import numpy as np
import pytest

from salign import Graph, Tensor, grad, ops
from salign.data import Example, SynthConfig, gen_synthetic
from salign.evaluation import predict_batch
from salign.model import (
    LEVELS,
    ModelConfig,
    ModelParams,
    _classify,
    _conv_stack,
    _query_reprs,
    encode_batch,
    load_checkpoint,
    pad_ids,
)


def example(tokens, label=1, query=None, marked=()):
    z = [1 if i in marked else 0 for i in range(len(tokens))]
    if label == 0:
        z = [0] * len(tokens)
    return Example(tokens=list(tokens), query=query, label=label, rationale=z)


def encode_loop_oracle(ex, params, config):
    """Straight-line recomputation of the whole forward pass with loops."""
    emb = params.embedding.values
    d, n = config.embed_dim, config.max_len
    ids = list(ex.tokens)[:n] + [0] * max(0, n - len(ex.tokens))
    x = np.array([emb[t] for t in ids])

    def conv_relu(xmat, kernel, bias):
        length = xmat.shape[0]
        w = kernel.shape[0]
        half = w // 2
        out = np.zeros((length, d))
        for i in range(length):
            for o in range(d):
                acc = bias[o]
                for t in range(w):
                    j = i + t - half
                    if 0 <= j < length:
                        for c in range(d):
                            acc += xmat[j, c] * kernel[t, c, o]
                out[i, o] = max(acc, 0.0)
        return out

    def tower(xmat):
        outs = [
            conv_relu(xmat, params.kernels[w][0].values, params.kernels[w][1].values)
            for w in sorted(params.kernels)
        ]
        combined = outs[0]
        for other in outs[1:]:
            combined = np.maximum(combined, other)
        return combined

    inter = tower(x)
    if config.mode == "qa":
        q_inter = tower(np.array([emb[t] for t in ex.query]))
        q_vec = q_inter.max(axis=0)
        inter = inter * q_vec
    seq = inter.max(axis=0)
    dim = inter.max(axis=1)
    feats = np.concatenate([seq, dim])
    return float(feats @ params.out_weight.values + params.out_bias.values[0])


class TestEmbed:
    def setup_method(self):
        self.config = ModelConfig(vocab_size=10, embed_dim=4, max_len=4)
        self.params = ModelParams(self.config, seed=0)

    def embed(self, tokens):
        return encode_batch([example(tokens)], self.params, self.config).embedded.values[0]

    def test_empty_sequence_is_all_pad(self):
        rows = self.embed([])
        pad = self.params.embedding.values[0]
        np.testing.assert_array_equal(rows, np.tile(pad, (4, 1)))

    def test_lookup_and_padding(self):
        rows = self.embed([5, 7])
        table = self.params.embedding.values
        np.testing.assert_array_equal(rows[0], table[5])
        np.testing.assert_array_equal(rows[1], table[7])
        np.testing.assert_array_equal(rows[2], table[0])
        np.testing.assert_array_equal(rows[3], table[0])

    def test_truncation(self):
        rows = self.embed([1, 2, 3, 4, 5, 6, 7])
        assert rows.shape == (4, 4)
        np.testing.assert_array_equal(rows[3], self.params.embedding.values[4])

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError):
            self.embed([11])
        with pytest.raises(ValueError):
            encode_batch([example([4]), example([11])], self.params, self.config)


class TestEncode:
    def test_shapes(self):
        config = ModelConfig(vocab_size=20, embed_dim=8, max_len=10)
        params = ModelParams(config, seed=0)
        trace = encode_batch([example([4, 5, 6])], params, config)
        assert trace.embedded.shape == (1, 10, 8)
        assert trace.intermediate.shape == (1, 10, 8)
        assert trace.seq_max.shape == (1, 8)
        assert trace.dim_max.shape == (1, 10)
        assert trace.logit.shape == (1,)

    def test_zero_network_gives_classifier_bias(self):
        config = ModelConfig(vocab_size=20, embed_dim=4, max_len=6)
        params = ModelParams(config, seed=0)
        for w in params.kernels:
            params.kernels[w][0].values[...] = 0.0
            params.kernels[w][1].values[...] = 0.0
        params.out_bias.values[...] = 0.25
        trace = encode_batch([example([4, 5])], params, config)
        assert np.all(trace.intermediate.values == 0.0)
        assert trace.logit.item() == pytest.approx(0.25)

    @pytest.mark.parametrize("mode,seed", [("event", 0), ("qa", 3)])
    def test_matches_loop_oracle(self, mode, seed):
        config = ModelConfig(vocab_size=9, embed_dim=2, max_len=3, mode=mode)
        params = ModelParams(config, seed=seed)
        ex = example([4, 5, 6], query=[2, 7, 8] if mode == "qa" else None)
        got = encode_batch([ex], params, config).logit.item()
        want = encode_loop_oracle(ex, params, config)
        assert got == pytest.approx(want, abs=1e-12)

    def test_mode_query_mismatch(self):
        config = ModelConfig(vocab_size=9, embed_dim=2, max_len=3)
        params = ModelParams(config, seed=0)
        with pytest.raises(ValueError):
            encode_batch([example([4], query=[5])], params, config)
        qa = ModelConfig(vocab_size=9, embed_dim=2, max_len=3, mode="qa")
        with pytest.raises(ValueError):
            encode_batch([example([4])], params, qa)

    def test_trace_members_feed_logit(self):
        config = ModelConfig(vocab_size=15, embed_dim=4, max_len=5)
        params = ModelParams(config, seed=1)
        trace = encode_batch([example([4, 5, 6, 7])], params, config)
        for level in LEVELS:
            g = grad(trace.logit, [trace.level_tensor(level)])
            assert np.any(g[trace.level_tensor(level)].values != 0.0)

    def test_pool_invariants(self):
        config = ModelConfig(vocab_size=30, embed_dim=6, max_len=8)
        params = ModelParams(config, seed=2)
        trace = encode_batch([example([5, 9, 12, 20])], params, config)
        inter = trace.intermediate.values
        np.testing.assert_allclose(trace.seq_max.values, inter.max(axis=1))
        np.testing.assert_allclose(trace.dim_max.values, inter.max(axis=2))

    def test_all_ones_query_reduces_to_event_trace(self):
        rng = np.random.default_rng(5)
        event_cfg = ModelConfig(vocab_size=15, embed_dim=4, max_len=5)
        qa_cfg = ModelConfig(vocab_size=15, embed_dim=4, max_len=5, mode="qa")
        params = ModelParams(event_cfg, seed=3)
        tokens = [4, 6, 8]
        ev_trace = encode_batch([example(tokens)], params, event_cfg)
        ones = Tensor(np.ones((1, 4)))
        qa_trace = _classify(ev_trace.embedded, params, qa_cfg, ones, None)
        np.testing.assert_array_equal(qa_trace.intermediate.values, ev_trace.intermediate.values)
        np.testing.assert_array_equal(qa_trace.dim_max.values, ev_trace.dim_max.values)
        assert qa_trace.logit.item() == ev_trace.logit.item()

    def test_logit_deterministic(self):
        config = ModelConfig(vocab_size=30, embed_dim=6, max_len=8)
        params = ModelParams(config, seed=2)
        ex = example([5, 9, 12])
        one = encode_batch([ex], params, config).logit.values
        two = encode_batch([ex], params, config).logit.values
        assert one.tobytes() == two.tobytes()

    def test_dimension_permutation_leaves_dim_max_invariant(self):
        # jointly permuting the embedding axis everywhere permutes I's
        # columns, so the per-position max over dimensions cannot change
        config = ModelConfig(vocab_size=12, embed_dim=5, max_len=4)
        params = ModelParams(config, seed=4)
        ex = example([4, 7, 9])
        perm = np.random.default_rng(0).permutation(5)
        shuffled = ModelParams(config, seed=4)
        shuffled.embedding.values[...] = params.embedding.values[:, perm]
        for w in params.kernels:
            k = params.kernels[w][0].values
            shuffled.kernels[w][0].values[...] = k[:, perm][:, :, perm]
            shuffled.kernels[w][1].values[...] = params.kernels[w][1].values[perm]
        shuffled.out_weight.values[:5] = params.out_weight.values[perm]
        base = encode_batch([ex], params, config)
        moved = encode_batch([ex], shuffled, config)
        np.testing.assert_allclose(moved.dim_max.values, base.dim_max.values, atol=1e-12)
        assert moved.logit.item() == pytest.approx(base.logit.item(), abs=1e-12)

    def test_conv_output_max_commutes(self):
        a = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        b = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        np.testing.assert_array_equal(
            ops.maximum(a, b).values, ops.maximum(b, a).values
        )


class TestBatchedEncode:
    def test_matches_single(self):
        config = ModelConfig(vocab_size=25, embed_dim=6, max_len=9)
        params = ModelParams(config, seed=6)
        rng = np.random.default_rng(0)
        examples = [
            example(rng.integers(3, 25, size=rng.integers(2, 9)).tolist())
            for _ in range(7)
        ]
        batch = encode_batch(examples, params, config)
        assert batch.logit.shape == (7,)
        for i, ex in enumerate(examples):
            single = encode_batch([ex], params, config)
            assert batch.logit.values[i] == pytest.approx(single.logit.item(), abs=1e-12)

    def test_qa_matches_single(self):
        config = ModelConfig(vocab_size=25, embed_dim=6, max_len=9, mode="qa")
        params = ModelParams(config, seed=6)
        rng = np.random.default_rng(1)
        examples = [
            example(
                rng.integers(3, 25, size=5).tolist(),
                query=rng.integers(3, 25, size=rng.integers(3, 7)).tolist(),
            )
            for _ in range(4)
        ]
        batch = encode_batch(examples, params, config)
        for i, ex in enumerate(examples):
            single = encode_batch([ex], params, config)
            assert batch.logit.values[i] == pytest.approx(single.logit.item(), abs=1e-12)

    def test_empty_batch_rejected(self):
        config = ModelConfig(vocab_size=25, embed_dim=6, max_len=9)
        with pytest.raises(ValueError):
            encode_batch([], ModelParams(config, seed=0), config)


class TestForwardMemory:
    def test_nodes_own_no_window_copies(self):
        """Each conv is one node that keeps only its output: a 64-example
        event forward holds no shifted copy of its input, and the arrays
        its nodes own add up to at most 8 of shape (B, n, d). The conv
        composed from shift_rows and concat_last kept about 24."""
        ds = gen_synthetic(SynthConfig(count=64, vocab_size=100, trigger_count=5, min_len=6,
                                       max_len=14, seed=1))
        config = ModelConfig(vocab_size=len(ds.vocab), embed_dim=16, max_len=12)
        params = ModelParams(config, seed=0)
        with Graph() as graph:
            encode_batch(ds.examples, params, config)
        assert "shift_rows" not in {t.op for t in graph.nodes}
        owned = sum(t.values.nbytes for t in graph.nodes if t.values.base is None)
        assert owned <= 8 * np.zeros((64, 12, 16)).nbytes

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_level_gradient_owns_no_window_copies(self, mode):
        """The create-graph gradient of the summed logit at every level, as
        training builds it: each conv's input gradient is one conv with the
        flipped kernel, so it holds no shift_rows node, and the arrays its
        nodes own add up to at most 12 of shape (B, n, d) (10.3 in event,
        11.3 in qa). Summing the w shifted taps one by one kept about 30."""
        ds = gen_synthetic(SynthConfig(count=64, vocab_size=100, trigger_count=5, min_len=6,
                                       max_len=14, seed=1, mode=mode))
        config = ModelConfig(vocab_size=len(ds.vocab), embed_dim=16, max_len=12, mode=mode)
        params = ModelParams(config, seed=0)
        trace = encode_batch(ds.examples, params, config)
        targets = [trace.level_tensor(level) for level in LEVELS]
        with Graph() as graph:
            grad(ops.sum_axes(trace.logit), targets, create_graph=True)
        assert "shift_rows" not in {t.op for t in graph.nodes}
        owned = sum(t.values.nbytes for t in graph.nodes if t.values.base is None)
        assert owned <= 12 * np.zeros((64, 12, 16)).nbytes


    @pytest.mark.parametrize("mode, bound", [("event", 8), ("qa", 16)])
    def test_forward_graph_holds_one_byte_routing(self, mode, bound):
        """What a 64-example forward under grad holds while its graph is
        alive, counted in arrays of shape (B, n, d): relu and maximum keep
        their routing as booleans and the conv its output alone, 7.05 in
        event and 14.2 in qa. Float64 routing masks held 10.7 and 20.0."""
        ds = gen_synthetic(SynthConfig(count=64, vocab_size=100, trigger_count=5, min_len=6,
                                       max_len=14, seed=1, mode=mode))
        config = ModelConfig(vocab_size=len(ds.vocab), embed_dim=16, max_len=12, mode=mode)
        params = ModelParams(config, seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            trace = encode_batch(ds.examples, params, config)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert trace.logit.shape == (64,)
        assert held <= bound * np.zeros((64, 12, 16)).nbytes


class TestBatchedQueryTower:
    """The batched query tower against a per-example loop over exact lengths."""

    @staticmethod
    def alone(query, params):
        """One query through the conv stack at its exact length, no padding."""
        q_emb = ops.gather_rows(params.embedding, np.asarray(query, dtype=np.int64))
        return ops.maxpool_axis(_conv_stack(q_emb, params), axis=-2)

    def setup_method(self):
        # max_len 4, so the length-7 query is longer than any sentence
        self.config = ModelConfig(vocab_size=20, embed_dim=5, max_len=4, mode="qa")
        self.params = ModelParams(self.config, seed=7)
        # a large bias makes every padded position's conv output relu(bias)
        # plus the pad row's contribution, above most real positions
        for w in self.params.kernels:
            self.params.kernels[w][1].values[...] = 3.0
        self.params.embedding.values[0] = 2.0  # a trained pad row is not zero
        rng = np.random.default_rng(3)
        lengths = [1, 7, 3, 1, 5, 2]
        self.examples = [
            example(rng.integers(3, 20, size=rng.integers(1, 5)).tolist(), label=i % 2,
                    query=rng.integers(3, 20, size=m).tolist(), marked=(0,))
            for i, m in enumerate(lengths)
        ]

    def test_rows_equal_each_query_alone(self):
        queries = [ex.query for ex in self.examples]
        batched = _query_reprs(queries, self.params, self.config).values
        reference = np.stack([self.alone(q, self.params).values for q in queries])
        np.testing.assert_array_equal(batched, reference)
        # the set-up is sensitive: pooling over the padded positions, or
        # leaving the pad row in, would change the short queries' rows
        width = max(len(q) for q in queries)
        ids = np.stack([pad_ids(q, width) for q in queries])
        stack = _conv_stack(ops.gather_rows(self.params.embedding, ids), self.params)
        assert not np.allclose(ops.maxpool_axis(stack, axis=-2).values, reference)
        rows = np.arange(width) < np.array([len(q) for q in queries])[:, None]
        valid = np.broadcast_to(rows[..., None], stack.shape)
        assert not np.allclose(ops.maxpool_axis(stack, axis=-2, valid=valid).values, reference)

    def test_logits_and_level_gradients_match_per_example_path(self):
        batch = encode_batch(self.examples, self.params, self.config)
        targets = [batch.level_tensor(level) for level in LEVELS]
        batch_grads = grad(ops.sum_axes(batch.logit), targets)
        d, n = self.config.embed_dim, self.config.max_len
        for i, ex in enumerate(self.examples):
            embedded = ops.gather_rows(self.params.embedding, pad_ids(ex.tokens, n)[None])
            query_vec = ops.reshape(self.alone(ex.query, self.params), (1, d))
            single = _classify(embedded, self.params, self.config, query_vec, None)
            np.testing.assert_allclose(batch.logit.values[i], single.logit.item(),
                                       rtol=1e-12, atol=1e-12)
            single_targets = [single.level_tensor(level) for level in LEVELS]
            single_grads = grad(single.logit, single_targets)
            for level, b, s in zip(LEVELS, targets, single_targets):
                np.testing.assert_allclose(batch_grads[b].values[i], single_grads[s].values[0],
                                           rtol=1e-12, atol=1e-12, err_msg=level)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="at least one token"):
            encode_batch([example([4], query=[5]), example([5], query=[])], self.params,
                         self.config)
        with pytest.raises(ValueError, match="outside vocabulary"):
            encode_batch([example([4], query=[3, 25])], self.params, self.config)

    def test_forward_node_count_does_not_grow_with_batch(self):
        config = ModelConfig(vocab_size=25, embed_dim=4, max_len=6, mode="qa")
        params = ModelParams(config, seed=0)
        rng = np.random.default_rng(2)
        examples = [
            example(rng.integers(3, 25, size=5).tolist(),
                    query=rng.integers(3, 25, size=rng.integers(1, 8)).tolist())
            for _ in range(32)
        ]
        counts = []
        for batch in (examples[:1], examples):
            with Graph() as graph:
                encode_batch(batch, params, config)
            counts.append(len(graph.nodes))
        assert counts[0] == counts[1]


class TestPredict:
    @staticmethod
    def predict_at(logit):
        """predict_batch's label on a model whose logit is the constant `logit`."""
        config = ModelConfig(vocab_size=10, embed_dim=4, max_len=5)
        params = ModelParams(config, seed=0)
        params.out_weight.values[...] = 0.0
        params.out_bias.values[...] = logit
        return int(predict_batch(params, config, [example([3, 4, 5])])[0])

    def test_boundary_at_zero(self):
        assert self.predict_at(0.0) == 1

    def test_saturating_positive(self):
        assert self.predict_at(20.0) == 1

    def test_negative(self):
        assert self.predict_at(-20.0) == 0

    def test_far_negative_logit_does_not_overflow(self):
        with np.errstate(over="raise"):
            assert self.predict_at(-800.0) == 0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        config = ModelConfig(vocab_size=18, embed_dim=5, max_len=7)
        params = ModelParams(config, seed=9)
        path = tmp_path / "model.bin"
        params.save(path)
        loaded, loaded_config = ModelParams.load(path)
        assert loaded_config.vocab_size == 18
        assert loaded_config.embed_dim == 5
        assert loaded_config.max_len == 7
        assert list(loaded.tensors()) == [
            "embedding", "conv3_kernel", "conv3_bias", "conv5_kernel", "conv5_bias",
            "out_weight", "out_bias",
        ]
        for (na, ta), (nb, tb) in zip(params.tensors().items(), loaded.tensors().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.values, tb.values)

    def test_load_draws_no_random_values(self, tmp_path, monkeypatch):
        config = ModelConfig(vocab_size=18, embed_dim=5, max_len=7)
        path = tmp_path / "model.bin"
        ModelParams(config, seed=9).save(path)

        def no_draws(*args):
            raise AssertionError("load drew random values")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded, _ = ModelParams.load(path)
        assert loaded.embedding.shape == (18, 5)

    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_seeded_init_draws_the_same_values(self, mode):
        """ModelParams(config, seed) draws its tensors in checkpoint order:
        normal rows of deviation 0.1 with a zero pad row, then per window a
        He-scaled kernel and a 0.1 bias, then the head's weights; the head's
        bias starts at zero. Seeded models and trained runs depend on it."""
        config = ModelConfig(vocab_size=23, embed_dim=6, max_len=9, mode=mode)
        rng = np.random.default_rng(5)
        embedding = rng.normal(0.0, 0.1, size=(23, 6))
        embedding[0] = 0.0
        want = {"embedding": embedding}
        for w in (3, 5):
            want[f"conv{w}_kernel"] = rng.normal(0.0, np.sqrt(2.0 / (w * 6)), size=(w, 6, 6))
            want[f"conv{w}_bias"] = rng.normal(0.0, 0.1, size=6)
        want["out_weight"] = rng.normal(0.0, np.sqrt(1.0 / 15), size=(15,))
        want["out_bias"] = np.zeros(1)
        got = ModelParams(config, seed=5).tensors()
        assert list(got) == list(want)
        for name, t in got.items():
            assert t.values.tobytes() == want[name].tobytes(), name

    def test_header_is_plain_text(self, tmp_path):
        config = ModelConfig(vocab_size=6, embed_dim=2, max_len=3)
        params = ModelParams(config, seed=0)
        path = tmp_path / "model.bin"
        params.save(path)
        raw = path.read_bytes()
        header = raw[: raw.index(b"\n\n")].decode("ascii")
        assert header.splitlines()[0] == "embedding 6 2"
        arrays = load_checkpoint(path)
        assert arrays["embedding"].shape == (6, 2)

    def test_trailing_bytes_rejected(self, tmp_path):
        config = ModelConfig(vocab_size=6, embed_dim=2, max_len=3)
        params = ModelParams(config, seed=0)
        path = tmp_path / "model.bin"
        params.save(path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, mode="span")

    def test_pad_ids(self):
        np.testing.assert_array_equal(pad_ids([5, 6], 4), [5, 6, 0, 0])
        np.testing.assert_array_equal(pad_ids([5, 6, 7, 8, 9], 4), [5, 6, 7, 8])
