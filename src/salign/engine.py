"""Reverse-mode automatic differentiation over dense float64 tensors.

Tensors carry their parents and a vector-Jacobian-product closure; a
:class:`Graph` records the op tensors built while it is active; :func:`grad`
is the one gradient entry point. Every backward rule is expressed through
the same differentiable primitives (see :mod:`salign.ops`), so gradients
requested with ``create_graph=True`` are themselves graph nodes and can be
differentiated again. That second pass is what makes a cost containing
gradient terms optimizable.
"""

from __future__ import annotations

import contextlib

import numpy as np

_GRAD_ENABLED = True
_ACTIVE_GRAPH = None


def grad_enabled():
    return _GRAD_ENABLED


@contextlib.contextmanager
def set_grad_enabled(mode: bool):
    """Temporarily enable or disable graph construction."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = mode
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def no_grad():
    """Context manager: ops executed inside produce detached tensors."""
    return set_grad_enabled(False)


def active_graph():
    return _ACTIVE_GRAPH


class Tensor:
    """Dense float64 array, optionally linked into a computation graph.

    A tensor created directly (or under ``no_grad``) is a leaf: it has no
    parents and backward never propagates through it. Op outputs carry
    their parent tensors plus a vector-Jacobian-product closure.
    """

    __slots__ = ("values", "parents", "vjp", "op")

    def __init__(self, values, op="leaf"):
        self.values = np.asarray(values, dtype=np.float64)
        self.parents = ()
        self.vjp = None
        self.op = op

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    def item(self):
        """The value of a one-element tensor as a Python float."""
        return self.values.item()

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, values={self.values!r})"

    # Arithmetic sugar is attached by salign.ops at import time.


class Graph:
    """Recorder of the op tensors built while it is active.

    Used as a context manager: ``nodes`` lists, in creation order, every op
    output created inside it, with or without gradient tracking, and
    ``routes`` the routing each nonsmooth op froze at forward time (relu's
    and maximum's boolean arrays, max-pooling's argmax indices), so two
    passes can be compared for a changed relu, max or hinge choice. Graphs
    nest; an inner one captures the nodes built while it is active, and the
    outer one records again once the inner one exits.
    """

    def __init__(self):
        self.nodes = []
        self.routes = []
        self._prev = None

    def __enter__(self):
        global _ACTIVE_GRAPH
        self._prev = _ACTIVE_GRAPH
        _ACTIVE_GRAPH = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_GRAPH
        _ACTIVE_GRAPH = self._prev
        return False


def grad(root, targets, create_graph=False):
    """Differentiate the scalar ``root`` with respect to ``targets``.

    Returns {target: gradient tensor}. With ``create_graph`` the gradients
    are graph-connected and can be differentiated again; otherwise they are
    detached. Targets not reachable from the root receive a zero tensor of
    their own shape (documented behaviour, not an error). Fan-out
    accumulates by summation. Each non-target gradient is freed as soon as
    the walk has passed it on to the node's parents.
    """
    from . import ops  # local import: ops depends on this module

    if root.shape not in ((), (1,)):
        raise ValueError(f"grad root must be scalar, got shape {root.shape}")

    targets = list(targets)
    target_ids = {id(t) for t in targets}

    # One depth-first walk gives the topological order (parents first) and
    # the useful set: the nodes a target is reachable from by parent links.
    topo, useful, seen = [], set(), set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            if id(node) in target_ids or any(id(p) in useful for p in node.parents):
                useful.add(id(node))
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in seen)

    grads = {id(root): Tensor(np.ones(root.shape))}
    with set_grad_enabled(create_graph):
        for node in reversed(topo):
            key = id(node)
            g = grads.get(key) if key in target_ids else grads.pop(key, None)
            if g is None or node.vjp is None:
                continue
            needs = tuple(id(p) in useful for p in node.parents)
            if not any(needs):
                continue
            parent_grads = node.vjp(g, needs)
            for p, pg in zip(node.parents, parent_grads):
                if pg is None:
                    continue
                if pg.shape != p.shape:
                    raise ValueError(f"{node.op}: gradient shape {pg.shape} for input {p.shape}")
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else ops.add(acc, pg)

    out = {}
    for t in targets:
        gt = grads.get(id(t))
        if gt is None:
            gt = Tensor(np.zeros(t.shape))
        out[t] = gt
    return out
