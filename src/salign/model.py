"""Sentence and sentence+query CNN classifiers.

Both architectures share one stack: embed, run two same-padded convolutions
(windows 3 and 5) with relu, combine them with an elementwise max into the
intermediate representation, then max-pool it along positions and along
embedding dimensions and classify the concatenation with a single affine
layer. The query variant additionally encodes the query with the same
(shared) convolution stack, max-pools it into a single vector, and scales
every row of the intermediate representation by that vector.

All of a batch's queries go through the query tower in one pass: they are
right-padded to the longest, the padded rows are zeroed before the
convolutions and skipped by the pooling, so each query vector equals that
query encoded alone at its exact length. A single example is a batch of one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import ops
from .engine import Tensor

PAD_ID = 0
UNK_ID = 1
BLANK_ID = 2

LEVELS = ("word", "intermediate", "decision")

MODES = ("event", "qa")


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int = 32
    max_len: int = 40
    window_sizes: tuple = (3, 5)
    mode: str = "event"

    def __post_init__(self):
        if self.vocab_size <= BLANK_ID:
            raise ValueError("vocab_size must exceed the reserved ids")
        if self.embed_dim < 1 or self.max_len < 1:
            raise ValueError("embed_dim and max_len must be positive")
        self.window_sizes = tuple(int(w) for w in self.window_sizes)
        if not self.window_sizes:
            raise ValueError("need at least one window size")
        for w in self.window_sizes:
            if w < 1 or w % 2 == 0:
                raise ValueError(f"window sizes must be odd, got {w}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    @property
    def feature_size(self):
        return self.embed_dim + self.max_len


def default_embedding_table(vocab_size, dim, rng):
    """Default embedding init: small gaussian rows drawn from rng, zero pad row."""
    table = rng.normal(0.0, 0.1, size=(vocab_size, dim))
    table[PAD_ID] = 0.0
    return table


class ModelParams:
    """All trainable tensors, keyed by stable names for checkpoints."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        d = config.embed_dim
        self.embedding = Tensor(default_embedding_table(config.vocab_size, d, rng))
        self.kernels = {}
        for w in config.window_sizes:
            k = rng.normal(0.0, np.sqrt(2.0 / (w * d)), size=(w, d, d))
            # nonzero bias init keeps padded positions off the relu/max kinks
            self.kernels[w] = (Tensor(k), Tensor(rng.normal(0.0, 0.1, size=d)))
        p = config.feature_size
        self.out_weight = Tensor(rng.normal(0.0, np.sqrt(1.0 / p), size=(p,)))
        self.out_bias = Tensor(np.zeros(1))

    def tensors(self):
        """Name -> Tensor, in checkpoint order."""
        out = {"embedding": self.embedding}
        for w in sorted(self.kernels):
            kernel, bias = self.kernels[w]
            out[f"conv{w}_kernel"] = kernel
            out[f"conv{w}_bias"] = bias
        out["out_weight"] = self.out_weight
        out["out_bias"] = self.out_bias
        return out

    def all_finite(self):
        return all(np.isfinite(t.values).all() for t in self.tensors().values())

    def clone_values(self):
        return {name: t.values.copy() for name, t in self.tensors().items()}

    def set_values(self, values):
        for name, t in self.tensors().items():
            t.values[...] = values[name]

    def save(self, path):
        save_checkpoint(self.tensors(), path)

    @classmethod
    def load(cls, path, mode="event"):
        """Rebuild params and a matching config from a checkpoint file.

        The embedding, out_weight and conv kernel shapes fix the config; the
        file must then hold exactly that model's tensors at their shapes.
        Anything else is a ValueError naming the file and the tensor.
        """
        arrays = load_checkpoint(path)
        for name, ndim in (("embedding", 2), ("out_weight", 1)):
            if name not in arrays or arrays[name].ndim != ndim:
                raise ValueError(f"checkpoint {path}: tensor {name} missing or not {ndim}-D")
        vocab_size, d = arrays["embedding"].shape
        windows = sorted(
            int(m.group(1)) for name in arrays if (m := re.match(r"conv(\d+)_kernel$", name))
        )
        try:
            config = ModelConfig(
                vocab_size=vocab_size,
                embed_dim=d,
                max_len=arrays["out_weight"].shape[0] - d,
                window_sizes=tuple(windows),
                mode=mode,
            )
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: its tensor shapes fit no model: {exc}") from None
        params = cls(config, seed=0)
        got = {name: a.shape for name, a in arrays.items()}
        want = {name: t.shape for name, t in params.tensors().items()}
        for name in [*want, *got]:
            if got.get(name) != want.get(name):
                raise ValueError(
                    f"checkpoint {path}: tensor {name} is {got.get(name, 'missing')} in the file "
                    f"but {want.get(name, 'absent')} in the model"
                )
        params.set_values(arrays)
        return params, config


def save_checkpoint(tensors, path):
    """Plain-text header (name and shape per line), blank line, then the
    tensors' float64 little-endian data in header order."""
    lines = []
    for name, t in tensors.items():
        dims = " ".join(str(s) for s in t.values.shape)
        lines.append(f"{name} {dims}".rstrip())
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(b"\n")
        for t in tensors.values():
            fh.write(np.ascontiguousarray(t.values, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Name -> float64 array. A malformed header line, a repeated name, a
    data section shorter or longer than the header's tensors, or a
    non-finite value is a ValueError naming the file and the tensor."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head, blank, blob = raw.partition(b"\n\n")
    if not blank:
        raise ValueError(f"checkpoint {path}: no blank line after the header")
    arrays = {}
    offset = 0
    name = "(none)"
    for line in head.decode("ascii", "replace").splitlines():
        name, *dims = line.split() or ["(blank)"]
        if name in arrays or not all(s.isdigit() for s in dims):
            raise ValueError(f"checkpoint {path}: bad header line for tensor {name}")
        shape = tuple(int(s) for s in dims)
        count = int(np.prod(shape))
        if offset + 8 * count > len(blob):
            raise ValueError(f"checkpoint {path}: data section ends inside tensor {name}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[name] = arr.reshape(shape).astype(np.float64)
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"checkpoint {path}: tensor {name} holds a non-finite value")
        offset += 8 * count
    if offset != len(blob):
        extra = len(blob) - offset
        raise ValueError(f"checkpoint {path}: {extra} bytes of data after the last tensor {name}")
    return arrays


@dataclass
class ForwardTrace:
    """Graph-connected intermediates of one forward pass.

    embedded:     (n, d) or (B, n, d) token embeddings
    intermediate: same shape, after the dual convolutions and their max
    seq_max:      (d,) / (B, d) max over positions
    dim_max:      (n,) / (B, n) max over embedding dimensions
    query_vec:    (d,) / (B, d) pooled query representation, qa mode only
    logit:        scalar / (B,) pre-sigmoid score
    """

    embedded: Tensor
    intermediate: Tensor
    seq_max: Tensor
    dim_max: Tensor
    query_vec: Tensor | None
    logit: Tensor

    def level_tensor(self, level):
        if level == "word":
            return self.embedded
        if level == "intermediate":
            return self.intermediate
        if level == "decision":
            return self.dim_max
        raise ValueError(f"unknown level {level!r}, expected one of {LEVELS}")


def pad_ids(tokens, n_max):
    """Truncate to n_max and right-pad with the pad id."""
    ids = list(tokens)[:n_max]
    return np.array(ids + [PAD_ID] * (n_max - len(ids)), dtype=np.int64)


def _check_ids(ids, config):
    for t in ids:
        if not 0 <= t < config.vocab_size:
            raise ValueError(f"token id {t} outside vocabulary of {config.vocab_size}")


def _check_query(query, config):
    """qa mode requires a query, event mode forbids one."""
    if config.mode == "qa" and query is None:
        raise ValueError("qa mode requires a query")
    if config.mode == "event" and query is not None:
        raise ValueError("event mode forbids a query")


def embed(tokens, params: ModelParams, config: ModelConfig):
    """Embedding rows for one padded sentence, shape (max_len, embed_dim)."""
    _check_ids(tokens, config)
    return ops.gather_rows(params.embedding, pad_ids(tokens, config.max_len))


def _conv_stack(x, params):
    """relu(conv) per window, combined with an elementwise max."""
    outs = []
    for w in sorted(params.kernels):
        kernel, bias = params.kernels[w]
        outs.append(ops.relu(ops.conv1d_same(x, kernel, bias)))
    combined = outs[0]
    for other in outs[1:]:
        combined = ops.maximum(combined, other)
    return combined


def _query_reprs(queries, params, config):
    """Encode a batch of queries into (B, d) vectors in one conv-stack pass.

    The padded rows are zeroed, as the trained pad row is not zero: that is
    the zero padding the same-padded convolution sees past a query's end.
    """
    for q in queries:
        if len(q) < 1:
            raise ValueError("query must contain at least one token")
        _check_ids(q, config)
    lengths = np.array([len(q) for q in queries])
    ids = np.stack([pad_ids(q, int(lengths.max())) for q in queries])
    rows = np.arange(ids.shape[1]) < lengths[:, None]
    valid = np.broadcast_to(rows[..., None], ids.shape + (config.embed_dim,))
    q_emb = ops.mul(ops.gather_rows(params.embedding, ids), Tensor(valid.astype(np.float64)))
    return ops.maxpool_axis(_conv_stack(q_emb, params), axis=-2, valid=valid)


def _classify(embedded, params, config, query_vec, dropout_mask):
    """Shared forward; embedded is (n, d) or (B, n, d), query_vec (d,) or
    (B, d) in qa mode and None in event mode."""
    intermediate = _conv_stack(embedded, params)
    if query_vec is not None:
        intermediate = ops.mul(intermediate, ops.expand_axes(query_vec, intermediate.shape, (-2,)))
    seq_max = ops.maxpool_axis(intermediate, axis=-2)
    dim_max = ops.maxpool_axis(intermediate, axis=-1)
    features = ops.concat_last(seq_max, dim_max)
    if dropout_mask is not None:
        features = ops.mul(features, Tensor(dropout_mask))
    lead = features.shape[:-1]
    flat = ops.reshape(features, (int(np.prod(lead)) if lead else 1, config.feature_size))
    scores = ops.matmul2d(flat, ops.reshape(params.out_weight, (config.feature_size, 1)))
    logit = ops.reshape(ops.add(scores, params.out_bias), lead)
    return ForwardTrace(embedded, intermediate, seq_max, dim_max, query_vec, logit)


def encode(example, params, config, dropout_mask=None, query_repr_override=None):
    """Forward one example into a ForwardTrace (all members feed the logit).

    qa mode requires a query, event mode forbids one. query_repr_override
    is a testing seam substituting the pooled query vector.
    """
    query = getattr(example, "query", None)
    if query is not None or query_repr_override is None:  # an override stands in for a qa query
        _check_query(query, config)
    embedded = embed(example.tokens, params, config)
    query_vec = None
    if config.mode == "qa":
        query_vec = query_repr_override
        if query_vec is None:
            query_vec = ops.reshape(_query_reprs([query], params, config), (config.embed_dim,))
    return _classify(embedded, params, config, query_vec, dropout_mask)


def encode_batch(examples, params, config, dropout_masks=None):
    """Forward a batch at once; trace members gain a leading batch axis.

    Examples are independent, so per-example gradients of the batched trace
    equal the single-example ones.
    """
    if not examples:
        raise ValueError("encode_batch needs at least one example")
    for ex in examples:
        _check_query(ex.query, config)
        _check_ids(ex.tokens, config)
    ids = np.stack([pad_ids(ex.tokens, config.max_len) for ex in examples])
    embedded = ops.gather_rows(params.embedding, ids)
    query_vec = None
    if config.mode == "qa":
        query_vec = _query_reprs([ex.query for ex in examples], params, config)
    return _classify(embedded, params, config, query_vec, dropout_masks)

