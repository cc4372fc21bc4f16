"""A tour of the autodiff engine.

Builds a few graphs by hand, takes first and second derivatives,
cross-checks every gradient against central finite differences, and counts
the graph nodes one forward pass builds per op.
"""

from collections import Counter

import numpy as np

from salign import Tensor, Graph, grad, finite_diff_check, ops

# --- scalars ---------------------------------------------------------------
# d/dx (x^2) at x = 3
x = Tensor(3.0)
y = ops.mul(x, x)
print("d(x^2)/dx at 3:", grad(y, [x])[x].values)

# Second derivative of x^3 at x = 2: differentiate the gradient itself.
# create_graph keeps the first backward pass differentiable.
x = Tensor(2.0)
y = ops.mul(ops.mul(x, x), x)
first = grad(y, [x], create_graph=True)[x]
second = grad(ops.sum_axes(first), [x])[x]
print("d2(x^3)/dx2 at 2:", second.values, "(expect 6x = 12)")

# --- a small network block ---------------------------------------------------
rng = np.random.default_rng(0)
kernel = Tensor(rng.normal(size=(3, 4, 4)))
bias = Tensor(rng.normal(size=(4,)))


def block(inp):
    hidden = ops.relu(ops.conv1d_same(inp, kernel, bias))
    pooled = ops.concat_last(ops.maxpool_axis(hidden, 0), ops.maxpool_axis(hidden, 1))
    return ops.sum_axes(pooled)


sentence = Tensor(rng.normal(size=(6, 4)))
err, skipped = finite_diff_check(block, sentence, eps=1e-4)
print(f"conv + relu + dual max-pool vs finite differences: max rel err {err:.2e}, "
      f"{skipped} coordinates skipped for a changed relu or max choice")

# --- the recorder -----------------------------------------------------------
# A Graph lists every op node built while it is active, in creation order.
with Graph() as graph:
    out = block(Tensor(rng.normal(size=(5, 4))))
print("graph nodes:", len(graph.nodes))
for op, count in sorted(Counter(t.op for t in graph.nodes).items()):
    print(f"  {op:16s} {count}")
