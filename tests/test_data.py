import json

import numpy as np
import pytest

from salign.data import (
    BIAS_ID,
    BLANK_ID,
    Example,
    SynthConfig,
    Vocabulary,
    gen_synthetic,
    lexicon_ids,
    load_embeddings,
    load_jsonl,
    remove_marked,
    save_jsonl,
)


class TestExample:
    def test_mask_length_must_match(self):
        with pytest.raises(ValueError):
            Example(tokens=[1, 2], query=None, label=1, rationale=[1])

    def test_negative_examples_carry_zero_mask(self):
        with pytest.raises(ValueError):
            Example(tokens=[1, 2], query=None, label=0, rationale=[0, 1])

    def test_label_values(self):
        with pytest.raises(ValueError):
            Example(tokens=[1], query=None, label=2, rationale=[0])


class TestVocabulary:
    def test_reserved_prefix_enforced(self):
        with pytest.raises(ValueError):
            Vocabulary(["<pad>", "x"])

    def test_unknown_fallback(self):
        v = Vocabulary.synthetic(6)
        assert v.id_for("nope") == 1
        assert v.id_for("w4") == 4

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocabulary.synthetic(8)
        v.save(tmp_path / "vocab.txt")
        again = Vocabulary.load(tmp_path / "vocab.txt")
        assert again.tokens == v.tokens


class TestGenSynthetic:
    def test_all_positive_run_has_one_or_two_marks(self):
        cfg = SynthConfig(count=10, vocab_size=40, trigger_count=3, positive_fraction=1.0, seed=0)
        ds = gen_synthetic(cfg)
        assert len(ds.examples) == 10
        for ex in ds.examples:
            assert ex.label == 1
            assert ex.marked_count in (1, 2)

    def test_negatives_have_zero_mask(self):
        cfg = SynthConfig(count=200, vocab_size=40, trigger_count=3, seed=1)
        for ex in gen_synthetic(cfg).examples:
            if ex.label == 0:
                assert ex.marked_count == 0

    def test_same_seed_identical_different_seed_not(self):
        cfg = SynthConfig(count=50, vocab_size=40, trigger_count=3, seed=7)
        a = gen_synthetic(cfg)
        b = gen_synthetic(cfg)
        assert [e.tokens for e in a.examples] == [e.tokens for e in b.examples]
        assert [e.query for e in a.examples] == [e.query for e in b.examples]
        c = gen_synthetic(SynthConfig(count=50, vocab_size=40, trigger_count=3, seed=8))
        assert [e.tokens for e in a.examples] != [e.tokens for e in c.examples]

    def test_trigger_membership_equals_label(self):
        cfg = SynthConfig(count=500, vocab_size=60, trigger_count=5, bias_rate=0.5, seed=3)
        _, triggers, _, _ = lexicon_ids(cfg)
        trigger_set = set(triggers)
        for ex in gen_synthetic(cfg).examples:
            has_trigger = any(t in trigger_set for t in ex.tokens)
            assert has_trigger == (ex.label == 1)
            # marks sit exactly on trigger tokens
            for tok, z in zip(ex.tokens, ex.rationale):
                assert (z == 1) == (tok in trigger_set)

    def test_bias_token_lands_in_positives_only_and_unmarked(self):
        cfg = SynthConfig(count=400, vocab_size=60, trigger_count=5, bias_rate=1.0, seed=4)
        ds = gen_synthetic(cfg)
        saw_bias = 0
        for ex in ds.examples:
            spots = [i for i, t in enumerate(ex.tokens) if t == BIAS_ID]
            if ex.label == 0:
                assert not spots
            else:
                saw_bias += bool(spots)
                for i in spots:
                    assert ex.rationale[i] == 0
        positives = sum(ex.label for ex in ds.examples)
        assert saw_bias >= 0.9 * positives  # rate 1.0 bar length-1 corner cases

    def test_label_balance_within_binomial_3_sigma(self):
        frac, count = 0.4, 2000
        cfg = SynthConfig(count=count, vocab_size=60, trigger_count=5, positive_fraction=frac, seed=5)
        positives = sum(ex.label for ex in gen_synthetic(cfg).examples)
        sigma = np.sqrt(count * frac * (1 - frac))
        assert abs(positives - count * frac) <= 3 * sigma

    def test_lengths_respect_range(self):
        cfg = SynthConfig(count=100, vocab_size=40, trigger_count=3, min_len=4, max_len=9, seed=6)
        for ex in gen_synthetic(cfg).examples:
            assert 4 <= len(ex.tokens) <= 9

    def test_context_tokens_skew_toward_positives(self):
        cfg = SynthConfig(
            count=2000, vocab_size=100, trigger_count=4, seed=9,
            context_size=20, context_rate_pos=0.5, context_rate_neg=0.1,
        )
        _, _, context, _ = lexicon_ids(cfg)
        ctx = set(context)
        rates = {0: [], 1: []}
        for ex in gen_synthetic(cfg).examples:
            rates[ex.label].append(np.mean([t in ctx for t in ex.tokens]))
        assert np.mean(rates[1]) > np.mean(rates[0]) + 0.2

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(count=5, vocab_size=10, trigger_count=10)
        with pytest.raises(ValueError):
            SynthConfig(count=5, vocab_size=40, trigger_count=3, min_len=0)
        with pytest.raises(ValueError):
            SynthConfig(count=5, vocab_size=40, trigger_count=3, bias_rate=1.5)

    def test_qa_mode_contract(self):
        cfg = SynthConfig(count=300, vocab_size=60, trigger_count=5, seed=10, mode="qa")
        _, answers, _, _ = lexicon_ids(cfg)
        answer_set = set(answers)
        ds = gen_synthetic(cfg)
        assert ds.mode == "qa"
        for ex in ds.examples:
            assert ex.query is not None
            assert 3 <= len(ex.query) <= 7
            assert BLANK_ID in ex.query
            present = [t for t in ex.query if t in answer_set]
            assert len(present) >= 1
            answer = present[0]
            occurrences = [i for i, t in enumerate(ex.tokens) if t == answer]
            if ex.label == 1:
                assert occurrences
                assert all(ex.rationale[i] == 1 for i in occurrences)
            else:
                assert not occurrences


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        cfg = SynthConfig(count=40, vocab_size=40, trigger_count=3, seed=11, mode="qa")
        ds = gen_synthetic(cfg)
        path = tmp_path / "data.jsonl"
        save_jsonl(ds, path)
        again = load_jsonl(path, ds.vocab)
        assert [e.tokens for e in again.examples] == [e.tokens for e in ds.examples]
        assert [e.query for e in again.examples] == [e.query for e in ds.examples]
        assert [e.rationale for e in again.examples] == [e.rationale for e in ds.examples]

    def test_simple_records(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text(
            '{"tokens":["a","b"],"label":1,"rationale":[1]}\n'
            '{"tokens":["a"],"label":0,"rationale":[]}\n'
        )
        ds = load_jsonl(path)
        assert ds.examples[0].rationale == [0, 1]
        assert ds.examples[1].rationale == [0]
        assert ds.mode == "event"

    def test_out_of_range_rationale_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens":["a","b"],"label":1,"rationale":[5]}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl(path)

    @pytest.mark.parametrize("marked,shown", [
        ([True], "True"), ([True, False, True], "True"), ([0, False], "False"),
        ([1.0], "1.0"), (["0"], "'0'"),
    ])
    def test_non_integer_rationale_index_rejected(self, tmp_path, marked, shown):
        # a boolean is an int in Python; [true, false, true] must not mark tokens 1 and 0
        good = {"tokens": ["a", "b", "c"], "label": 1, "rationale": [0]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, rationale=marked)) + "\n")
        with pytest.raises(ValueError, match=f"line 2: rationale index {shown} is not a token position"):
            load_jsonl(path)

    @pytest.mark.parametrize("marked", [5, None, "ab", {"0": 1}])
    def test_rationale_must_be_a_list(self, tmp_path, marked):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"tokens": ["a", "b"], "label": 1, "rationale": marked}) + "\n")
        with pytest.raises(ValueError, match="line 1: rationale must be a list of token indices"):
            load_jsonl(path)

    @pytest.mark.parametrize("label", [True, False, 0.0, 1.0, "1", None, 2])
    def test_label_must_be_integer_0_or_1(self, tmp_path, label):
        good = {"tokens": ["a", "b"], "label": 0, "rationale": []}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, label=label)) + "\n")
        with pytest.raises(ValueError, match="line 2: label must be the integer 0 or 1"):
            load_jsonl(path)

    def test_negative_with_rationale_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens":["a"],"label":1,"rationale":[0]}\n'
                        '{"tokens":["a","b"],"label":0,"rationale":[1]}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens":["a"],"label":1,"rationale":[]}\n{oops\n')
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    @pytest.mark.parametrize("field,value", [
        ("tokens", "abc"), ("tokens", ["a", 5]), ("tokens", None),
        ("query", "abc"), ("query", ["q", ["r"]]), ("query", {}),
    ])
    def test_non_list_of_strings_rejected(self, tmp_path, field, value):
        good = {"tokens": ["a", "b"], "query": ["q"], "label": 0, "rationale": []}
        bad = dict(good, **{field: value})
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=f"line 2: {field} must be a list of strings"):
            load_jsonl(path)

    def test_fixed_vocab_maps_unknowns(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"tokens":["w4","mystery"],"label":1,"rationale":[0]}\n')
        ds = load_jsonl(path, Vocabulary.synthetic(8))
        assert ds.examples[0].tokens == [4, 1]


class TestLoadEmbeddings:
    def test_empty_file_all_defaults(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("")
        vocab = Vocabulary.synthetic(5)
        d, table, coverage = load_embeddings(path, vocab, dim=3)
        assert (d, coverage) == (3, 0)
        assert table.shape == (5, 3)

    def test_full_coverage_with_zeros(self, tmp_path):
        vocab = Vocabulary.synthetic(5)
        path = tmp_path / "vecs.txt"
        path.write_text("".join(f"{t} 0 0\n" for t in vocab.tokens))
        d, table, coverage = load_embeddings(path, vocab)
        assert (d, coverage) == (2, 5)
        np.testing.assert_array_equal(table, np.zeros((5, 2)))

    def test_partial_coverage_counts(self, tmp_path):
        vocab = Vocabulary(["<pad>", "<unk>", "<blank>", "aa", "bb", "cc"])
        path = tmp_path / "vecs.txt"
        path.write_text("aa 1 2\ncc 3 4\nzz 5 6\n")
        d, table, coverage = load_embeddings(path, vocab)
        assert coverage == 2
        np.testing.assert_array_equal(table[3], [1, 2])
        np.testing.assert_array_equal(table[5], [3, 4])

    def test_inconsistent_dimension_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("aa 1 2\nbb 1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings(path, Vocabulary.synthetic(5))


class TestRemoveMarked:
    def test_deletion_closes_ranks(self):
        ex = Example(tokens=[10, 11, 12], query=None, label=1, rationale=[0, 1, 0])
        out = remove_marked(ex)
        assert out.tokens == [10, 12]
        assert out.rationale == [0, 0]

    def test_all_marked_leaves_empty_sentence(self):
        ex = Example(tokens=[10, 11], query=None, label=1, rationale=[1, 1])
        out = remove_marked(ex)
        assert out.tokens == []
        assert out.rationale == []

    def test_edges_marked(self):
        ex = Example(tokens=[10, 11, 12], query=None, label=1, rationale=[1, 0, 1])
        assert remove_marked(ex).tokens == [11]

    def test_query_untouched(self):
        ex = Example(tokens=[10, 11], query=[2, 9], label=1, rationale=[1, 0])
        assert remove_marked(ex).query == [2, 9]

    def test_negative_rejected(self):
        ex = Example(tokens=[10], query=None, label=0, rationale=[0])
        with pytest.raises(ValueError):
            remove_marked(ex)

    def test_order_of_survivors_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            tokens = rng.integers(5, 50, size=n).tolist()
            z = (rng.random(n) < 0.4).astype(int).tolist()
            if not any(z):
                z[0] = 1
            ex = Example(tokens=tokens, query=None, label=1, rationale=z)
            out = remove_marked(ex)
            survivors = [t for t, flag in zip(tokens, z) if not flag]
            assert out.tokens == survivors
