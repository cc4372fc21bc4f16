"""Differentiable tensor primitives.

Each op computes its forward value once with numpy, attaches a
vector-Jacobian-product closure written in terms of ops from this module,
which keeps the op set closed under differentiation, and appends its output
to the active :class:`~salign.engine.Graph`, if any. Nonsmooth ops (relu,
maximum, max-pooling) freeze their routing pattern at forward time, so
their second derivative is zero almost everywhere. relu and maximum keep
that pattern as one boolean array, an eighth the size of a float64 mask,
and their VJP multiplies by its float64 cast, whose 0.0 and 1.0 give the
same bits a float mask would; maximum's second operand takes the negation.
Max-pooling keeps its argmax indices in a take. Each of the three also
appends that routing to the active Graph's ``routes``, if a Graph is
active, so a gradient check can tell which perturbations changed a relu,
max or hinge choice.

conv1d_same is one node that keeps only its output: for its kernel's
gradient, its backward rebuilds the zero-padded windows of its input with
shift_rows and concat_last rather than keeping them from the forward
(recompute instead of retain), since a double backward holds every forward
value until it ends. Its input's gradient is the conv itself. Where only that
gradient's sum over d_in is read, as the word-level hinge reads it, the
model runs the conv once more with the kernel summed over d_in, a d_out = 1
conv (model.ForwardTrace.level_values).

add and mul broadcast an operand whose shape is a trailing suffix of the
other's (a scalar is the empty suffix); every other shape change goes
through an explicit op (sum_axes/expand_axes, concat/take/put, reshape).

An op's values may share memory with its input (reshape and a sliced take
return numpy views), which is safe because nothing writes into an op's
values: the only in-place writes go to leaf tensors between graph builds.
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


def _route(pattern):
    """Record a nonsmooth op's frozen routing on the active Graph, if any."""
    g = engine.active_graph()
    if g is not None:
        g.routes.append(pattern)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _broadcast(name, a, b):
    """The leading axes each operand's gradient is summed over. Shapes must
    be equal, or one must be a trailing suffix of the other (a scalar is the
    empty suffix); the shorter operand is copied along the missing axes."""
    if a.shape == b.shape:
        return (), ()
    lead = tuple(range(abs(a.ndim - b.ndim)))
    if a.shape == b.shape[len(lead) :]:
        return lead, ()
    if b.shape == a.shape[len(lead) :]:
        return (), lead
    raise ValueError(f"{name}: shape mismatch {a.shape} vs {b.shape}")


def _unbroadcast(g, axes):
    return sum_axes(g, axes) if axes else g


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    axes_a, axes_b = _broadcast("add", a, b)

    def vjp(g, needs):
        da = _unbroadcast(g, axes_a) if needs[0] else None
        db = _unbroadcast(g, axes_b) if needs[1] else None
        return da, db

    return _node("add", a.values + b.values, (a, b), vjp)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    axes_a, axes_b = _broadcast("mul", a, b)

    def vjp(g, needs):
        da = _unbroadcast(mul(g, b), axes_a) if needs[0] else None
        db = _unbroadcast(mul(g, a), axes_b) if needs[1] else None
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
    live = a.values > 0
    _route(live)

    def vjp(g, needs):
        return (mul(g, Tensor(live)),)

    return _node("relu", np.maximum(a.values, 0.0), (a,), vjp)


def maximum(a, b):
    """Elementwise max of two same-shape tensors; ties route to the first."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"maximum: shape mismatch {a.shape} vs {b.shape}")
    take_a = a.values >= b.values
    _route(take_a)

    def vjp(g, needs):
        da = mul(g, Tensor(take_a)) if needs[0] else None
        db = mul(g, Tensor(~take_a)) if needs[1] else None
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

    def vjp(g, needs):
        one_minus = add(neg(out), 1.0)
        return (mul(g, mul(out, one_minus)),)

    out = _node("sigmoid", _sigmoid_values(a.values), (a,), vjp)
    return out


def softplus(a):
    """log(1 + exp(a)), computed in overflow-safe form."""
    a = _as_tensor(a)
    values = np.maximum(a.values, 0.0) + np.log1p(np.exp(-np.abs(a.values)))

    def vjp(g, needs):
        return (mul(g, sigmoid(a)),)

    return _node("softplus", values, (a,), vjp)


# ---------------------------------------------------------------------------
# reduction and its broadcast adjoint


def _axes(axes, ndim):
    """axes as sorted nonnegative ints; repeated or out-of-range ones fail."""
    out = tuple(sorted(ax + ndim if ax < 0 else ax for ax in axes))
    if len(set(out)) != len(out) or not all(0 <= ax < ndim for ax in out):
        raise ValueError(f"bad axes {tuple(axes)} for {ndim} dimensions")
    return out


def sum_axes(a, axes=None):
    """Sum over the named axes and remove them; None means every axis."""
    a = _as_tensor(a)
    shape = a.shape
    axes = tuple(range(a.ndim)) if axes is None else _axes(axes, a.ndim)

    def vjp(g, needs):
        return (expand_axes(g, shape, axes),)

    return _node("sum_axes", a.values.sum(axis=axes), (a,), vjp)


def expand_axes(a, shape, axes):
    """Insert the named axes of shape and copy a along them (sum_axes' adjoint)."""
    a = _as_tensor(a)
    shape = tuple(int(n) for n in shape)
    axes = _axes(axes, len(shape))
    kept = tuple(n for i, n in enumerate(shape) if i not in axes)
    if a.shape != kept:
        raise ValueError(f"expand_axes: {a.shape} does not fill {shape} minus axes {axes}")

    def vjp(g, needs):
        return (sum_axes(g, axes),)

    values = np.broadcast_to(np.expand_dims(a.values, axes), shape).copy()
    return _node("expand_axes", values, (a,), vjp)


# ---------------------------------------------------------------------------
# shape surgery


def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)
    old = a.shape

    def vjp(g, needs):
        return (reshape(g, old),)

    return _node("reshape", a.values.reshape(shape), (a,), vjp)


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
            take(g, (..., slice(offsets[i], offsets[i + 1]))) if needs[i] else None
            for i in range(len(parts))
        )

    return _node("concat_last", np.concatenate([p.values for p in parts], axis=-1), parts, vjp)


def _shifted(v, s):
    """A copy of v with its rows (axis -2) moved by s, vacated rows zero."""
    out = np.zeros(v.shape)
    if s == 0:
        out[...] = v
    elif s > 0:
        out[..., s:, :] = v[..., :-s, :]
    else:
        out[..., :s, :] = v[..., -s:, :]
    return out


def shift_rows(a, offset):
    """Shift rows (axis -2) by offset, filling vacated rows with zeros."""
    a = _as_tensor(a)
    s = int(offset)
    if a.ndim < 2:
        raise ValueError("shift_rows needs ndim >= 2")

    def vjp(g, needs):
        return (shift_rows(g, -s),)

    return _node("shift_rows", _shifted(a.values, s), (a,), vjp)


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


# ---------------------------------------------------------------------------
# indexing


def take(a, key):
    """a's entries at key: a view for basic slices, a fresh array for integer
    arrays. key is a fixed numpy index that picks each entry at most once:
    basic slices, or one broadcast integer array per axis."""
    a = _as_tensor(a)
    shape = a.shape

    def vjp(g, needs):
        return (put(g, key, shape),)

    return _node("take", a.values[key], (a,), vjp)


def put(a, key, shape):
    """Write a into a zero tensor of the given shape at key (take's adjoint,
    with the same precondition on key)."""
    a = _as_tensor(a)
    out = np.zeros(shape)
    out[key] = a.values

    def vjp(g, needs):
        return (take(g, key),)

    return _node("put", out, (a,), vjp)


def gather_rows(table, ids):
    """Look up rows of table by an integer index array; out-of-range ids fail.
    Ids may repeat, so the adjoint sums into rows (scatter_rows), not put."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    nrows = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= nrows):
        raise ValueError(f"gather_rows: index outside [0, {nrows})")

    def vjp(g, needs):
        return (scatter_rows(g, ids, nrows),)

    return _node("gather_rows", table.values[ids], (table,), vjp)


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


def maxpool_axis(a, axis, valid=None):
    """Max along one axis (axis removed), taken at each group's argmax, so
    backward routes the whole upstream gradient there; ties pick the lowest
    index, and the routing is frozen at forward time.

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
    _route(idx)
    key = list(np.indices(idx.shape, sparse=True))
    key.insert(axis, idx)
    return take(a, tuple(key))


# ---------------------------------------------------------------------------
# convolution


def conv1d_same(x, kernel, bias):
    """Length-preserving 1-D convolution over rows.

    x: (…, n, d_in); kernel: (w, d_in, d_out) with odd w; bias: (d_out,).
    Output position i is the affine map of the zero-padded width-w window
    centered at i. One node that keeps only its output: the forward writes
    the w shifted copies of x into one zeroed (…, n, w, d_in) buffer, which
    the matmul reads as (rows, w·d_in) and which is dropped after the
    forward; the backward rebuilds it from x only when the kernel's
    gradient is needed. The input's gradient
    is the conv of g with the flipped, transposed kernel, and the VJP is
    built from ops here, so the conv is differentiable to second order.
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
    lead = x.shape[:-1]
    rows = int(np.prod(lead, dtype=np.int64))
    n = lead[-1]
    windows = np.zeros(lead + (w, d_in))
    for t in range(w):
        # row i's tap t is input row i + t - half, zero past either end
        lo, hi = max(half - t, 0), min(n, n + half - t)
        if lo < hi:
            windows[..., lo:hi, t, :] = x.values[..., lo + t - half : hi + t - half, :]
    flat = windows.reshape(rows, w * d_in) @ kernel.values.reshape(w * d_in, d_out)

    def vjp(g, needs):
        dx = dk = db = None
        if needs[0]:
            # the conv of g with the flipped, transposed kernel K'[t, o, i] = K[w-1-t, i, o]
            flip = (np.arange(w)[::-1][:, None, None], np.arange(d_in), np.arange(d_out)[:, None])
            dx = conv1d_same(g, take(kernel, flip), np.zeros(d_in))
        if needs[1]:
            x_windows = concat_last(*[shift_rows(x, half - t) for t in range(w)])
            g_flat = reshape(g, (rows, d_out))
            dk = matmul2d(transpose2d(reshape(x_windows, (rows, w * d_in))), g_flat)
            dk = reshape(dk, kernel.shape)
        if needs[2]:
            db = sum_axes(g, range(g.ndim - 1))
        return dx, dk, db

    return _node("conv1d_same", flat.reshape(lead + (d_out,)) + bias.values, (x, kernel, bias), vjp)


# Arithmetic sugar on Tensor.
Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(self, other)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(self, other)
Tensor.__neg__ = lambda self: neg(self)
