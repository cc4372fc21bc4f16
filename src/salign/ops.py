"""Differentiable tensor primitives.

Each op computes its forward value once with numpy, attaches a
vector-Jacobian-product closure written in terms of ops from this module,
which keeps the op set closed under differentiation, and appends its output
to the active :class:`~salign.engine.Graph`, if any. Nonsmooth ops (relu,
maximum, max-pooling) freeze their routing pattern at forward time, so
their second derivative is zero almost everywhere.

Broadcasting is restricted to scalar-with-tensor; structured shape changes
go through explicit ops (repeat/sum over a named axis, concat/slice/pad).
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Tensor


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(op, values, parents, vjp):
    out = Tensor(values, op=op)
    if engine.grad_enabled():
        out.parents = tuple(parents)
        out.vjp = vjp
    g = engine.active_graph()
    if g is not None:
        g.nodes.append(out)
    return out


def _scalar_ok(a, b):
    return a.shape == b.shape or a.ndim == 0 or b.ndim == 0


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if not _scalar_ok(a, b):
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g, needs):
        da = db = None
        if needs[0]:
            da = sum_all(g) if a.ndim == 0 and g.ndim > 0 else g
        if needs[1]:
            db = sum_all(g) if b.ndim == 0 and g.ndim > 0 else g
        return da, db

    return _node("add", a.values + b.values, (a, b), vjp)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if not _scalar_ok(a, b):
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g, needs):
        da = db = None
        if needs[0]:
            da = mul(g, b)
            if a.ndim == 0 and da.ndim > 0:
                da = sum_all(da)
        if needs[1]:
            db = mul(g, a)
            if b.ndim == 0 and db.ndim > 0:
                db = sum_all(db)
        return da, db

    return _node("mul", a.values * b.values, (a, b), vjp)


def scale(a, c):
    """Multiply by a plain float constant (not differentiated through)."""
    a = _as_tensor(a)
    c = float(c)
    return _node("scale", a.values * c, (a,), lambda g, needs: (scale(g, c),))


def neg(a):
    return scale(a, -1.0)


def sub(a, b):
    return add(_as_tensor(a), neg(_as_tensor(b)))


def relu(a):
    a = _as_tensor(a)
    mask = Tensor((a.values > 0).astype(np.float64))

    def vjp(g, needs):
        return (mul(g, mask),)

    return _node("relu", np.maximum(a.values, 0.0), (a,), vjp)


def maximum(a, b):
    """Elementwise max of two same-shape tensors; ties route to the first."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"maximum: shape mismatch {a.shape} vs {b.shape}")
    take_a = Tensor((a.values >= b.values).astype(np.float64))
    take_b = Tensor(1.0 - take_a.values)

    def vjp(g, needs):
        da = mul(g, take_a) if needs[0] else None
        db = mul(g, take_b) if needs[1] else None
        return da, db

    return _node("maximum", np.maximum(a.values, b.values), (a, b), vjp)


def _sigmoid_values(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(a):
    a = _as_tensor(a)
    out = _node("sigmoid", _sigmoid_values(a.values), (a,), None)

    def vjp(g, needs):
        one_minus = add(neg(out), 1.0)
        return (mul(g, mul(out, one_minus)),)

    if out.parents:
        out.vjp = vjp
    return out


def softplus(a):
    """log(1 + exp(a)), computed in overflow-safe form."""
    a = _as_tensor(a)
    values = np.maximum(a.values, 0.0) + np.log1p(np.exp(-np.abs(a.values)))

    def vjp(g, needs):
        return (mul(g, sigmoid(a)),)

    return _node("softplus", values, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions and their broadcast inverses


def sum_all(a):
    a = _as_tensor(a)
    shape = a.shape

    def vjp(g, needs):
        return (broadcast_from_scalar(g, shape),)

    return _node("sum_all", np.sum(a.values), (a,), vjp)


def broadcast_from_scalar(a, shape):
    a = _as_tensor(a)
    if a.ndim != 0:
        raise ValueError("broadcast_from_scalar expects a scalar")
    shape = tuple(shape)

    def vjp(g, needs):
        return (sum_all(g),)

    return _node("broadcast_from_scalar", np.full(shape, float(a.values)), (a,), vjp)


def sum_last(a):
    """Sum over the last axis."""
    a = _as_tensor(a)
    if a.ndim < 1:
        raise ValueError("sum_last needs ndim >= 1")
    k = a.shape[-1]

    def vjp(g, needs):
        return (repeat_last(g, k),)

    return _node("sum_last", a.values.sum(axis=-1), (a,), vjp)


def repeat_last(a, k):
    """Append a trailing axis of length k holding copies."""
    a = _as_tensor(a)
    k = int(k)

    def vjp(g, needs):
        return (sum_last(g),)

    return _node("repeat_last", np.repeat(a.values[..., None], k, axis=-1), (a,), vjp)


def sum_rows(a):
    """Sum over the row axis (axis -2)."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ValueError("sum_rows needs ndim >= 2")
    n = a.shape[-2]

    def vjp(g, needs):
        return (repeat_rows(g, n),)

    return _node("sum_rows", a.values.sum(axis=-2), (a,), vjp)


def repeat_rows(a, n):
    """Insert a row axis (at -2) of length n holding copies."""
    a = _as_tensor(a)
    n = int(n)

    def vjp(g, needs):
        return (sum_rows(g),)

    return _node("repeat_rows", np.repeat(a.values[..., None, :], n, axis=-2), (a,), vjp)


def sum_except_last(a):
    """Reduce all leading axes, leaving shape (a.shape[-1],)."""
    a = _as_tensor(a)
    if a.ndim < 1:
        raise ValueError("sum_except_last needs ndim >= 1")
    shape = a.shape
    axes = tuple(range(a.ndim - 1))

    def vjp(g, needs):
        return (broadcast_except_last(g, shape),)

    return _node("sum_except_last", a.values.sum(axis=axes), (a,), vjp)


def broadcast_except_last(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)
    if a.shape != shape[-1:]:
        raise ValueError(f"broadcast_except_last: {a.shape} -> {shape}")

    def vjp(g, needs):
        return (sum_except_last(g),)

    return _node("broadcast_except_last", np.broadcast_to(a.values, shape).copy(), (a,), vjp)


def add_vec_last(x, v):
    """Add a vector along the last axis of x."""
    x, v = _as_tensor(x), _as_tensor(v)
    if v.ndim != 1 or x.shape[-1:] != v.shape:
        raise ValueError(f"add_vec_last: {x.shape} + {v.shape}")

    def vjp(g, needs):
        dx = g if needs[0] else None
        dv = sum_except_last(g) if needs[1] else None
        return dx, dv

    return _node("add_vec_last", x.values + v.values, (x, v), vjp)


def mul_rows(x, v):
    """Multiply every row of x (axis -2) by v; v.shape == x.shape without -2."""
    x, v = _as_tensor(x), _as_tensor(v)
    if x.ndim < 2 or v.shape != x.shape[:-2] + x.shape[-1:]:
        raise ValueError(f"mul_rows: {x.shape} rows * {v.shape}")

    def vjp(g, needs):
        dx = mul_rows(g, v) if needs[0] else None
        dv = sum_rows(mul(g, x)) if needs[1] else None
        return dx, dv

    return _node("mul_rows", x.values * v.values[..., None, :], (x, v), vjp)


# ---------------------------------------------------------------------------
# shape surgery


def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)
    old = a.shape

    def vjp(g, needs):
        return (reshape(g, old),)

    return _node("reshape", a.values.reshape(shape).copy(), (a,), vjp)


def transpose2d(a):
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError("transpose2d needs a matrix")

    def vjp(g, needs):
        return (transpose2d(g),)

    return _node("transpose2d", a.values.T.copy(), (a,), vjp)


def concat_last(*parts):
    """Concatenate along the last axis; other axes must agree."""
    parts = tuple(_as_tensor(p) for p in parts)
    if not parts:
        raise ValueError("concat_last needs at least one operand")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ValueError("concat_last: leading shapes differ")
    sizes = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g, needs):
        return tuple(
            slice_last(g, offsets[i], offsets[i + 1]) if needs[i] else None
            for i in range(len(parts))
        )

    return _node("concat_last", np.concatenate([p.values for p in parts], axis=-1), parts, vjp)


def slice_last(a, lo, hi):
    a = _as_tensor(a)
    lo, hi = int(lo), int(hi)
    total = a.shape[-1]

    def vjp(g, needs):
        return (pad_last(g, lo, total),)

    return _node("slice_last", a.values[..., lo:hi].copy(), (a,), vjp)


def pad_last(a, lo, total):
    """Embed a into a zero tensor whose last axis has length total."""
    a = _as_tensor(a)
    lo, total = int(lo), int(total)
    k = a.shape[-1]

    out = np.zeros(a.shape[:-1] + (total,))
    out[..., lo : lo + k] = a.values

    def vjp(g, needs):
        return (slice_last(g, lo, lo + k),)

    return _node("pad_last", out, (a,), vjp)


def shift_rows(a, offset):
    """Shift rows (axis -2) by offset, filling vacated rows with zeros."""
    a = _as_tensor(a)
    s = int(offset)
    if a.ndim < 2:
        raise ValueError("shift_rows needs ndim >= 2")

    out = np.zeros_like(a.values)
    if s == 0:
        out[...] = a.values
    elif s > 0:
        out[..., s:, :] = a.values[..., :-s, :]
    else:
        out[..., :s, :] = a.values[..., -s:, :]

    def vjp(g, needs):
        return (shift_rows(g, -s),)

    return _node("shift_rows", out, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def matmul2d(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul2d: {a.shape} @ {b.shape}")

    def vjp(g, needs):
        da = matmul2d(g, transpose2d(b)) if needs[0] else None
        db = matmul2d(transpose2d(a), g) if needs[1] else None
        return da, db

    return _node("matmul2d", a.values @ b.values, (a, b), vjp)


def matmul_last(x, m):
    """(…, n, p) @ (p, q) -> (…, n, q), composed from reshape + matmul2d."""
    x, m = _as_tensor(x), _as_tensor(m)
    lead = x.shape[:-1]
    flat = reshape(x, (int(np.prod(lead, dtype=np.int64)) if lead else 1, x.shape[-1]))
    out = matmul2d(flat, m)
    return reshape(out, lead + (m.shape[-1],))


# ---------------------------------------------------------------------------
# indexing


def gather_rows(table, ids):
    """Look up rows of table by an integer index array; out-of-range ids fail."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    nrows = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= nrows):
        raise ValueError(f"gather_rows: index outside [0, {nrows})")

    def vjp(g, needs):
        return (scatter_rows(g, ids, nrows),)

    return _node("gather_rows", table.values[ids].copy(), (table,), vjp)


def scatter_rows(src, ids, nrows):
    """Adjoint of gather_rows: sum src slices into a zero (nrows, …) tensor."""
    src = _as_tensor(src)
    ids = np.asarray(ids, dtype=np.int64)
    if src.shape[: ids.ndim] != ids.shape:
        raise ValueError("scatter_rows: src leading shape must match ids")
    trail = src.shape[ids.ndim :]

    out = np.zeros((nrows,) + trail)
    np.add.at(out, ids.reshape(-1), src.values.reshape((-1,) + trail))

    def vjp(g, needs):
        return (gather_rows(g, ids),)

    return _node("scatter_rows", out, (src,), vjp)


# ---------------------------------------------------------------------------
# pooling


def maxpool_axis(a, axis, valid=None):
    """Max along one axis (axis removed). Backward routes the whole upstream
    gradient to the argmax of each pooled group; ties pick the lowest index,
    and the routing is frozen at forward time.

    valid, a boolean array of a's shape, restricts each group to its true
    entries; every group needs at least one."""
    a = _as_tensor(a)
    axis = axis if axis >= 0 else a.ndim + axis
    if not 0 <= axis < a.ndim:
        raise ValueError(f"maxpool_axis: bad axis {axis} for shape {a.shape}")
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != a.shape or not valid.any(axis=axis).all():
            raise ValueError(f"maxpool_axis: valid needs shape {a.shape}, a true entry per group")

    candidates = a.values if valid is None else np.where(valid, a.values, -np.inf)
    idx = np.argmax(candidates, axis=axis)
    size = a.shape[axis]

    def vjp(g, needs):
        return (place_along_axis(g, idx, axis, size),)

    return _node("maxpool_axis", np.max(candidates, axis=axis), (a,), vjp)


def place_along_axis(src, idx, axis, size):
    """Scatter src into a zero tensor with an extra axis, at fixed indices."""
    src = _as_tensor(src)
    idx = np.asarray(idx, dtype=np.int64)
    if src.shape != idx.shape:
        raise ValueError("place_along_axis: src and idx shapes must match")

    out = np.zeros(src.shape[:axis] + (size,) + src.shape[axis:])
    np.put_along_axis(out, np.expand_dims(idx, axis), np.expand_dims(src.values, axis), axis)

    def vjp(g, needs):
        return (take_along_axis_at(g, idx, axis),)

    return _node("place_along_axis", out, (src,), vjp)


def take_along_axis_at(a, idx, axis):
    """Pick one element along axis per group, at fixed indices (axis removed)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    size = a.shape[axis]
    values = np.take_along_axis(a.values, np.expand_dims(idx, axis), axis).squeeze(axis)

    def vjp(g, needs):
        return (place_along_axis(g, idx, axis, size),)

    return _node("take_along_axis", values, (a,), vjp)


# ---------------------------------------------------------------------------
# convolution


def conv1d_same(x, kernel, bias):
    """Length-preserving 1-D convolution over rows.

    x: (…, n, d_in); kernel: (w, d_in, d_out) with odd w; bias: (d_out,).
    Output position i is the affine map of the zero-padded width-w window
    centered at i. Composed from shift/concat/matmul, so it is
    differentiable to second order like every other op here.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if kernel.ndim != 3:
        raise ValueError("conv1d_same: kernel must be (w, d_in, d_out)")
    w, d_in, d_out = kernel.shape
    if w % 2 == 0:
        raise ValueError(f"conv1d_same: window must be odd, got {w}")
    if x.ndim < 2 or x.shape[-1] != d_in:
        raise ValueError(f"conv1d_same: input {x.shape} vs kernel {kernel.shape}")
    if bias.shape != (d_out,):
        raise ValueError(f"conv1d_same: bias {bias.shape} vs d_out {d_out}")
    half = w // 2
    windows = concat_last(*[shift_rows(x, half - t) for t in range(w)])
    flat_kernel = reshape(kernel, (w * d_in, d_out))
    return add_vec_last(matmul_last(windows, flat_kernel), bias)


# Arithmetic sugar on Tensor.
Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(self, other)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(self, other)
Tensor.__neg__ = lambda self: neg(self)
