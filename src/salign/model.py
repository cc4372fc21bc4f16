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

from dataclasses import dataclass

import numpy as np

from . import ops
from .data import BLANK_ID, MODES, PAD_ID
from .engine import Tensor

LEVELS = ("word", "intermediate", "decision")
# the two convolution widths, in checkpoint and forward order
WINDOWS = (3, 5)


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int = 32
    max_len: int = 40
    mode: str = "event"

    def __post_init__(self):
        if self.vocab_size <= BLANK_ID:
            raise ValueError("vocab_size must exceed the reserved ids")
        if self.embed_dim < 1 or self.max_len < 1:
            raise ValueError("embed_dim and max_len must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    @property
    def feature_size(self):
        return self.embed_dim + self.max_len


def _initial_draws(config):
    """Name -> (shape, standard deviation of its gaussian draw), in checkpoint
    and draw order; a deviation of 0 means the tensor starts at zero."""
    d, p = config.embed_dim, config.feature_size
    draws = {"embedding": ((config.vocab_size, d), 0.1)}
    for w in WINDOWS:
        draws[f"conv{w}_kernel"] = ((w, d, d), np.sqrt(2.0 / (w * d)))
        # nonzero bias init keeps padded positions off the relu/max kinks
        draws[f"conv{w}_bias"] = ((d,), 0.1)
    draws["out_weight"] = ((p,), np.sqrt(1.0 / p))
    draws["out_bias"] = ((1,), 0.0)
    return draws


class ModelParams:
    """All trainable tensors, keyed by stable names for checkpoints."""

    def __init__(self, config: ModelConfig, seed=0):
        rng = np.random.default_rng(seed)
        values = {
            name: rng.normal(0.0, std, size=shape) if std else np.zeros(shape)
            for name, (shape, std) in _initial_draws(config).items()
        }
        # small gaussian rows, zero pad row; --embeddings overwrites covered rows
        values["embedding"][PAD_ID] = 0.0
        self._hold(values)

    def _hold(self, values):
        """Wrap each named array, without copying, as this model's tensor."""
        self.embedding = Tensor(values["embedding"])
        self.kernels = {
            w: (Tensor(values[f"conv{w}_kernel"]), Tensor(values[f"conv{w}_bias"]))
            for w in WINDOWS
        }
        self.out_weight = Tensor(values["out_weight"])
        self.out_bias = Tensor(values["out_bias"])

    def tensors(self):
        """Name -> Tensor, in checkpoint order."""
        out = {"embedding": self.embedding}
        for w in WINDOWS:
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

        The embedding and out_weight shapes fix the config; the file must
        then hold exactly that model's tensors at their shapes.
        Anything else is a ValueError naming the file and the tensor.
        The model holds the file's arrays and draws no random values.
        """
        arrays = load_checkpoint(path)
        for name, ndim in (("embedding", 2), ("out_weight", 1)):
            if name not in arrays or arrays[name].ndim != ndim:
                raise ValueError(f"checkpoint {path}: tensor {name} missing or not {ndim}-D")
        vocab_size, d = arrays["embedding"].shape
        try:
            config = ModelConfig(
                vocab_size=vocab_size,
                embed_dim=d,
                max_len=arrays["out_weight"].shape[0] - d,
                mode=mode,
            )
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: its tensor shapes fit no model: {exc}") from None
        got = {name: a.shape for name, a in arrays.items()}
        want = {name: shape for name, (shape, _) in _initial_draws(config).items()}
        for name in [*want, *got]:
            if got.get(name) != want.get(name):
                raise ValueError(
                    f"checkpoint {path}: tensor {name} is {got.get(name, 'missing')} in the file "
                    f"but {want.get(name, 'absent')} in the model"
                )
        params = cls.__new__(cls)
        params._hold(arrays)
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
    """Graph-connected intermediates of one batched forward pass.

    embedded:     (B, n, d) token embeddings
    intermediate: (B, n, d), after the dual convolutions and their max
    seq_max:      (B, d) max over positions
    dim_max:      (B, n) max over embedding dimensions
    query_vec:    (B, d) pooled query representation, qa mode only
    logit:        (B,) pre-sigmoid score
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


def _conv_stack(x, params):
    """relu(conv) per window, combined with an elementwise max."""
    narrow, wide = (ops.relu(ops.conv1d_same(x, *params.kernels[w])) for w in WINDOWS)
    return ops.maximum(narrow, wide)


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
    """Shared forward; embedded is (B, n, d), query_vec (B, d) in qa mode
    and None in event mode, dropout_mask None or (B, feature_size)."""
    intermediate = _conv_stack(embedded, params)
    if query_vec is not None:
        intermediate = ops.mul(intermediate, ops.expand_axes(query_vec, intermediate.shape, (-2,)))
    seq_max = ops.maxpool_axis(intermediate, axis=-2)
    dim_max = ops.maxpool_axis(intermediate, axis=-1)
    features = ops.concat_last(seq_max, dim_max)
    if dropout_mask is not None:
        features = ops.mul(features, Tensor(dropout_mask))
    scores = ops.matmul2d(features, ops.reshape(params.out_weight, (config.feature_size, 1)))
    logit = ops.reshape(ops.add(scores, params.out_bias), features.shape[:1])
    return ForwardTrace(embedded, intermediate, seq_max, dim_max, query_vec, logit)


def encode_batch(examples, params, config, dropout_masks=None):
    """Forward a batch into one ForwardTrace; a single example is a batch of
    one. qa mode requires a query per example, event mode forbids one.

    Examples are independent, so the gradient of the summed logit gives each
    example its own per-token gradients.
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

