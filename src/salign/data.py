"""Annotated datasets: synthetic generation, JSONL interchange, embeddings.

The synthetic corpus simulates two binary tasks with token-level evidence
masks. In event mode a sentence is positive exactly when it contains one of
the trigger tokens; in qa mode a sentence is positive exactly when it
contains the answer token named by its query. A designated bias token can
be planted into positives (never marked in the evidence mask) to create a
measurable spurious correlation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PAD_ID = 0
UNK_ID = 1
BLANK_ID = 2
BIAS_ID = 3
_FIRST_LEXICON_ID = 4

RESERVED_TOKENS = ("<pad>", "<unk>", "<blank>")

MODES = ("event", "qa")


@dataclass
class Example:
    """One annotated sentence: token ids, optional query ids, binary label,
    and a 0/1 evidence mask over the tokens."""

    tokens: list
    query: list | None
    label: int
    rationale: list

    def __post_init__(self):
        if len(self.rationale) != len(self.tokens):
            raise ValueError("rationale mask must match token count")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        if any(z not in (0, 1) for z in self.rationale):
            raise ValueError("rationale entries must be 0 or 1")
        if self.label == 0 and any(self.rationale):
            raise ValueError("negative examples carry an all-zero rationale")

    @property
    def marked_count(self):
        return int(sum(self.rationale))


class Vocabulary:
    """Dense token <-> id map with reserved pad/unknown/blank entries."""

    def __init__(self, tokens=None):
        self.tokens = list(tokens) if tokens is not None else list(RESERVED_TOKENS)
        if self.tokens[: len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
            raise ValueError(f"vocabulary must start with {RESERVED_TOKENS}")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")

    @classmethod
    def synthetic(cls, size):
        if size <= len(RESERVED_TOKENS):
            raise ValueError("synthetic vocabulary too small")
        return cls(list(RESERVED_TOKENS) + [f"w{i}" for i in range(len(RESERVED_TOKENS), size)])

    def __len__(self):
        return len(self.tokens)

    def add(self, token):
        if token not in self.index:
            self.index[token] = len(self.tokens)
            self.tokens.append(token)
        return self.index[token]

    def id_for(self, token):
        return self.index.get(token, UNK_ID)

    def token_for(self, idx):
        return self.tokens[idx]

    def save(self, path):
        for t in self.tokens:
            if "\n" in t:
                raise ValueError("vocabulary tokens must not contain newlines")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().splitlines()
        try:
            return cls(tokens)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class Dataset:
    vocab: Vocabulary
    examples: list
    mode: str = "event"

    def subset(self, lo, hi):
        return Dataset(self.vocab, self.examples[lo:hi], self.mode)

    def positives(self):
        return [ex for ex in self.examples if ex.label == 1]

    def labels(self):
        return [ex.label for ex in self.examples]


@dataclass
class SynthConfig:
    """Corpus knobs. The context lexicon (off by default) is a pool of
    unmarked tokens drawn more often in positives than negatives; it gives
    sentences soft, imperfect evidence besides the decisive triggers, the
    way real corpora carry correlated but unannotated words."""

    count: int
    vocab_size: int = 200
    trigger_count: int = 8
    bias_rate: float = 0.0
    min_len: int = 6
    max_len: int = 12
    positive_fraction: float = 0.5
    seed: int = 0
    mode: str = "event"
    context_size: int = 0
    context_rate_pos: float = 0.0
    context_rate_neg: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode must be event or qa")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.trigger_count < 1:
            raise ValueError("need at least one trigger token")
        if _FIRST_LEXICON_ID + self.trigger_count + self.context_size >= self.vocab_size:
            raise ValueError("vocabulary too small for lexicons plus fillers")
        if not 0 <= self.bias_rate <= 1:
            raise ValueError("bias_rate must lie in [0, 1]")
        if not 0 < self.min_len <= self.max_len:
            raise ValueError("need 0 < min_len <= max_len")
        if not 0 <= self.positive_fraction <= 1:
            raise ValueError("positive_fraction must lie in [0, 1]")
        if self.context_size < 0:
            raise ValueError("context_size must be nonnegative")
        for rate in (self.context_rate_pos, self.context_rate_neg):
            if not 0 <= rate <= 1:
                raise ValueError("context rates must lie in [0, 1]")


def lexicon_ids(cfg: SynthConfig):
    """Fixed id layout: bias token, trigger/answer lexicon, context pool,
    plain fillers. Deterministic in (vocab_size, trigger_count,
    context_size), so corpora generated from compatible configs share
    lexicons."""
    first_context = _FIRST_LEXICON_ID + cfg.trigger_count
    triggers = list(range(_FIRST_LEXICON_ID, first_context))
    context = list(range(first_context, first_context + cfg.context_size))
    fillers = list(range(first_context + cfg.context_size, cfg.vocab_size))
    return BIAS_ID, triggers, context, fillers


def _base_tokens(rng, cfg, length, label, context, fillers):
    """Unmarked sentence material: context tokens at the label's rate,
    plain fillers otherwise."""
    rate = cfg.context_rate_pos if label == 1 else cfg.context_rate_neg
    out = []
    for _ in range(length):
        if context and rng.random() < rate:
            out.append(int(rng.choice(context)))
        else:
            out.append(int(rng.choice(fillers)))
    return out


def gen_synthetic(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic corpus for a SynthConfig (seeded)."""
    rng = np.random.default_rng(cfg.seed)
    bias_id, triggers, context, fillers = lexicon_ids(cfg)
    vocab = Vocabulary.synthetic(cfg.vocab_size)
    examples = []
    for _ in range(cfg.count):
        label = 1 if rng.random() < cfg.positive_fraction else 0
        length = int(rng.integers(cfg.min_len, cfg.max_len + 1))
        if cfg.mode == "event":
            tokens = _base_tokens(rng, cfg, length, label, context, fillers)
            rationale = [0] * length
            query = None
            planted = triggers
        else:
            answer = int(rng.choice(triggers))
            m = int(rng.integers(3, 8))
            query = [BLANK_ID, answer] + rng.choice(fillers, size=m - 2).tolist()
            query = [int(t) for t in query]
            rng.shuffle(query)
            other_answers = [a for a in triggers if a != answer]
            tokens = _base_tokens(rng, cfg, length, label, context, fillers)
            for i in range(length):
                if other_answers and rng.random() < 0.1:
                    tokens[i] = int(rng.choice(other_answers))
            rationale = [0] * length
            planted = [answer]
        if label == 1:
            k = min(int(rng.integers(1, 3)), length)
            spots = rng.choice(length, size=k, replace=False)
            for s in spots:
                tokens[s] = int(rng.choice(planted))
                rationale[s] = 1
            if cfg.bias_rate > 0 and rng.random() < cfg.bias_rate:
                free = [i for i in range(length) if rationale[i] == 0]
                if free:
                    tokens[int(rng.choice(free))] = bias_id
        examples.append(Example(tokens=tokens, query=query, label=label, rationale=rationale))
    return Dataset(vocab=vocab, examples=examples, mode=cfg.mode)


def save_jsonl(dataset: Dataset, path):
    """Newline-delimited records: tokens, optional query, label, rationale
    index list. Token ids are written as their vocabulary strings."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            record = {"tokens": [dataset.vocab.token_for(t) for t in ex.tokens]}
            if ex.query is not None:
                record["query"] = [dataset.vocab.token_for(t) for t in ex.query]
            record["label"] = ex.label
            record["rationale"] = [i for i, z in enumerate(ex.rationale) if z]
            fh.write(json.dumps(record) + "\n")


def _is_string_list(value):
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def load_jsonl(path, vocab: Vocabulary | None = None) -> Dataset:
    """Parse a JSONL dataset; with no vocabulary, build one in first-seen
    order. Malformed records fail with their line number."""
    build = vocab is None
    if build:
        vocab = Vocabulary()
    examples = []
    has_query = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {lineno}: invalid JSON ({exc})") from None
            try:
                tokens = record["tokens"]
                label = record["label"]
                marked = record.get("rationale", [])
                query = record.get("query")
            except (KeyError, TypeError):
                raise ValueError(f"{path} line {lineno}: missing required field") from None
            if not _is_string_list(tokens):
                raise ValueError(f"{path} line {lineno}: tokens must be a list of strings")
            if query is not None and not _is_string_list(query):
                raise ValueError(f"{path} line {lineno}: query must be a list of strings")
            if type(label) is not int or label not in (0, 1):
                raise ValueError(f"{path} line {lineno}: label must be the integer 0 or 1")
            if label == 0 and marked:
                raise ValueError(
                    f"{path} line {lineno}: negative example with nonempty rationale"
                )
            if not isinstance(marked, list):
                raise ValueError(f"{path} line {lineno}: rationale must be a list of token indices")
            rationale = [0] * len(tokens)
            for idx in marked:
                if type(idx) is not int or not 0 <= idx < len(tokens):
                    raise ValueError(
                        f"{path} line {lineno}: rationale index {idx!r} is not a token position"
                    )
                rationale[idx] = 1
            to_id = vocab.add if build else vocab.id_for
            token_ids = [to_id(t) for t in tokens]
            query_ids = [to_id(t) for t in query] if query is not None else None
            if query_ids is not None:
                has_query = True
            examples.append(
                Example(tokens=token_ids, query=query_ids, label=label, rationale=rationale)
            )
    return Dataset(vocab=vocab, examples=examples, mode="qa" if has_query else "event")


def load_embeddings(path, vocab: Vocabulary, dim=None, seed=0):
    """Initialise an embedding table from a whitespace-separated text file.

    Each line holds a token followed by its vector. Covered vocabulary rows
    take the file's values, the rest keep the model's default scheme.
    Returns (dim, table, coverage count). A line with the wrong number of
    values, a non-numeric or a non-finite value fails with its line number.
    """
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            token, vals = parts[0], parts[1:]
            if dim is None:
                dim = len(vals)
            if len(vals) != dim:
                raise ValueError(f"{path} line {lineno}: expected {dim} values, got {len(vals)}")
            try:
                rows[token] = np.array([float(v) for v in vals])
            except ValueError:
                raise ValueError(f"{path} line {lineno}: non-numeric value") from None
            if not np.isfinite(rows[token]).all():
                raise ValueError(f"{path} line {lineno}: non-finite value")
    if dim is None:
        raise ValueError("empty embeddings file and no dim given")
    from .model import default_embedding_table

    table = default_embedding_table(len(vocab), dim, np.random.default_rng(seed))
    coverage = 0
    for i, token in enumerate(vocab.tokens):
        if token in rows:
            table[i] = rows[token]
            coverage += 1
    return dim, table, coverage


def remove_marked(example: Example) -> Example:
    """Delete every token the rationale marks in a positive example.

    Deletion closes ranks and zeroes the mask at the new length. The query
    is left untouched.
    """
    if example.label != 1:
        raise ValueError("remove_marked applies to positive examples only")
    if example.marked_count < 1:
        raise ValueError("remove_marked needs at least one marked token")
    tokens = [t for t, z in zip(example.tokens, example.rationale) if not z]
    return Example(tokens=tokens, query=example.query, label=1, rationale=[0] * len(tokens))
