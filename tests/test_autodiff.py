import functools
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from salign import Tensor, Graph, grad, no_grad, finite_diff_check, finite_diff_check_many
from salign import ops
from salign.data import SynthConfig, gen_synthetic
from salign.loss import SaliencyConfig
from salign.model import LEVELS, ModelConfig, ModelParams
from salign.training import TrainConfig, _batch_cost


def conv1d_loop_oracle(x, kernel, bias):
    """Direct nested-loop convolution with zero padding, independent of ops."""
    n, d_in = x.shape
    w, _, d_out = kernel.shape
    half = w // 2
    out = np.zeros((n, d_out))
    for i in range(n):
        for o in range(d_out):
            acc = bias[o]
            for t in range(w):
                j = i + t - half
                if 0 <= j < n:
                    for c in range(d_in):
                        acc += x[j, c] * kernel[t, c, o]
            out[i, o] = acc
    return out


def conv1d_composite(x, kernel, bias):
    """The conv composed from other ops: w shifted copies of x, one
    concat_last, one matmul2d with the reshaped kernel, then the bias. The
    single conv1d_same node must reproduce its arithmetic."""
    w, d_in, d_out = kernel.shape
    half = w // 2
    windows = ops.concat_last(*[ops.shift_rows(x, half - t) for t in range(w)])
    lead = x.shape[:-1]
    flat = ops.reshape(windows, (int(np.prod(lead)), w * d_in))
    out = ops.matmul2d(flat, ops.reshape(kernel, (w * d_in, d_out)))
    return ops.add(ops.reshape(out, lead + (d_out,)), bias)


def smooth_error(f, x, eps=1e-4):
    """finite_diff_check's error, on an input where no step changes routing."""
    err, skipped = finite_diff_check(f, x, eps)
    assert skipped == 0
    return err


class TestBackwardContract:
    def test_square_gradient(self):
        x = Tensor(3.0)
        assert grad(ops.mul(x, x), [x])[x].values == 6.0

    def test_second_derivative_of_cube(self):
        x = Tensor(2.0)
        y = ops.mul(ops.mul(x, x), x)
        g1 = grad(y, [x], create_graph=True)[x]
        g2 = grad(ops.sum_axes(g1), [x])[x]
        assert g2.values == pytest.approx(12.0)  # 6x at x=2

    def test_affine_relu_sum_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        W = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(3,)))

        def f(xt):
            return ops.sum_axes(ops.relu(ops.add(ops.matmul2d(xt, W), b)))

        x = Tensor(rng.normal(size=(3, 4)))
        assert smooth_error(f, x, eps=1e-4) < 1e-5

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            grad(x, [x])

    def test_disconnected_target_gets_zeros(self):
        x = Tensor([1.0, 2.0])
        other = Tensor([5.0, 5.0, 5.0])
        g = grad(ops.sum_axes(ops.mul(x, x)), [other])[other]
        assert g.shape == (3,)
        assert np.all(g.values == 0.0)

    def test_detached_tensor_yields_zero_gradient(self):
        x = Tensor([1.0, -2.0])
        y = ops.mul(x, x)
        xd = Tensor(y.values)
        z = ops.sum_axes(y)
        assert np.all(grad(z, [xd])[xd].values == 0.0)

    def test_create_graph_flag_controls_graph_linkage(self):
        x = Tensor([1.0, 2.0])
        y = ops.sum_axes(ops.mul(x, x))
        assert grad(y, [x], create_graph=True)[x].vjp is not None
        y = ops.sum_axes(ops.mul(x, x))
        assert grad(y, [x], create_graph=False)[x].vjp is None

    def test_fanout_accumulates_by_summation(self):
        x = Tensor(2.0)
        y = ops.add(ops.mul(x, x), ops.mul(x, Tensor(3.0)))  # x^2 + 3x
        assert grad(y, [x])[x].values == pytest.approx(7.0)

    def test_root_as_its_own_target(self):
        x = Tensor(4.0)
        assert grad(x, [x])[x].values == 1.0

    def test_misshapen_vjp_output_rejected(self):
        # broadcasting add would otherwise take a (3,) gradient for a (2, 3) input
        x = Tensor(np.ones((2, 3)))
        bad = Tensor(x.values * 2.0, op="bad_op")
        bad.parents = (x,)
        bad.vjp = lambda g, needs: (Tensor(np.ones(3)),)
        with pytest.raises(ValueError, match="bad_op"):
            grad(ops.sum_axes(bad), [x])


class TestElementwise:
    def test_relu_values(self):
        r = ops.relu(Tensor([-1.0, 2.0]))
        assert list(r.values) == [0.0, 2.0]

    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(Tensor(0.0)).values == pytest.approx(0.5)

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor([0.0])
        y = ops.sum_axes(ops.sigmoid(x))
        assert grad(y, [x])[x].values[0] == pytest.approx(0.25)

    def test_scalar_broadcast_add_and_mul(self):
        x = Tensor([1.0, 2.0])
        assert list(ops.add(x, Tensor(1.0)).values) == [2.0, 3.0]
        assert list(ops.mul(x, Tensor(2.0)).values) == [2.0, 4.0]
        g = grad(ops.sum_axes(ops.mul(x, Tensor(2.0))), [x])[x]
        assert list(g.values) == [2.0, 2.0]
        m = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        bias = Tensor([10.0, 20.0])
        np.testing.assert_array_equal(ops.add(m, bias).values, m.values + [10.0, 20.0])
        np.testing.assert_array_equal(ops.mul(bias, m).values, m.values * [10.0, 20.0])
        g = grad(ops.sum_axes(ops.mul(ops.add(m, bias), m)), [bias])[bias]
        np.testing.assert_array_equal(g.values, [9.0, 12.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ops.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            ops.mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
        # a vector broadcasts along leading axes only
        with pytest.raises(ValueError):
            ops.add(Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
        with pytest.raises(ValueError):
            ops.mul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_bad_axes_rejected(self):
        x = Tensor(np.zeros((2, 3)))
        for axes in [(2,), (-3,), (0, 0), (1, -1)]:
            with pytest.raises(ValueError):
                ops.sum_axes(x, axes)
        with pytest.raises(ValueError):
            ops.expand_axes(x, (2, 4, 3), (0,))
        with pytest.raises(ValueError):
            ops.expand_axes(Tensor(np.zeros(1)), (2, 3), (0,))

    def test_concat_requires_matching_leading_shape(self):
        with pytest.raises(ValueError):
            ops.concat_last(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))

    def test_relu_sum_all_scale_concat(self):
        assert ops.relu(Tensor([-3.0])).values[0] == 0.0
        assert ops.sum_axes(Tensor([1.0, 2.0])).values == 3.0
        assert ops.scale(Tensor([2.0]), 0.5).values[0] == 1.0
        got = ops.concat_last(Tensor([1.0]), Tensor([2.0]))
        assert list(got.values) == [1.0, 2.0]

    def test_softplus_gradient_is_sigmoid(self):
        x = Tensor([0.7, -1.3])
        g = grad(ops.sum_axes(ops.softplus(x)), [x])[x]
        s = 1.0 / (1.0 + np.exp(-x.values))
        np.testing.assert_allclose(g.values, s, rtol=1e-12)


class TestConv1dSame:
    def test_zero_kernel_gives_bias(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3)))
        kernel = Tensor(np.zeros((3, 3, 3)))
        bias = Tensor([1.0, -2.0, 0.5])
        out = ops.conv1d_same(x, kernel, bias)
        np.testing.assert_array_equal(out.values, np.tile(bias.values, (1, 1)))

    def test_identity_center_kernel(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(6, 4)))
        kernel = np.zeros((3, 4, 4))
        kernel[1] = np.eye(4)
        out = ops.conv1d_same(x, Tensor(kernel), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.values, x.values, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        kernel = rng.normal(size=(3, 2, 2))
        bias = rng.normal(size=(2,))
        got = ops.conv1d_same(Tensor(x), Tensor(kernel), Tensor(bias))
        np.testing.assert_allclose(got.values, conv1d_loop_oracle(x, kernel, bias), atol=1e-12)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            ops.conv1d_same(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2, 2))), Tensor(np.zeros(2)))

    def test_batched_matches_per_example(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 6, 3))
        kernel = Tensor(rng.normal(size=(5, 3, 3)))
        bias = Tensor(rng.normal(size=(3,)))
        batched = ops.conv1d_same(Tensor(xs), kernel, bias).values
        for b in range(5):
            single = ops.conv1d_same(Tensor(xs[b]), kernel, bias).values
            np.testing.assert_allclose(batched[b], single, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        kernel = Tensor(rng.normal(size=(3, 2, 2)))
        bias = Tensor(rng.normal(size=(2,)))

        def f(xt):
            return ops.sum_axes(ops.conv1d_same(xt, kernel, bias))

        x = Tensor(rng.normal(size=(5, 2)))
        assert smooth_error(f, x, eps=1e-4) < 1e-5


class TestConvNode:
    """conv1d_same is one node; it must compute what the composite does."""

    @pytest.mark.parametrize("w", [3, 5])
    def test_forward_bit_identical_to_composite(self, w):
        rng = np.random.default_rng(w)
        x, kernel, bias = (Tensor(rng.normal(size=s)) for s in [(4, 7, 3), (w, 3, 2), (2,)])
        with Graph() as graph:
            out = ops.conv1d_same(x, kernel, bias)
        assert [t.op for t in graph.nodes] == ["conv1d_same"]
        assert out.values.tobytes() == conv1d_composite(x, kernel, bias).values.tobytes()

    def test_input_gradient_is_one_conv(self):
        """The gradient with respect to x alone is the conv of the upstream
        gradient with the flipped, transposed kernel: one take of the kernel
        and one conv1d_same node (after sum_axes' own expand_axes)."""
        rng = np.random.default_rng(0)
        x, kernel, bias = (Tensor(rng.normal(size=s)) for s in [(4, 7, 3), (5, 3, 2), (2,)])
        root = ops.sum_axes(ops.conv1d_same(x, kernel, bias))
        with Graph() as graph:
            grad(root, [x], create_graph=True)
        assert [t.op for t in graph.nodes] == ["expand_axes", "take", "conv1d_same"]
        np.testing.assert_array_equal(graph.nodes[1].values, kernel.values[::-1].transpose(0, 2, 1))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("strength", [0.0, 0.5])
    @pytest.mark.parametrize("mode", ["event", "qa"])
    def test_batch_cost_matches_composite(self, monkeypatch, mode, strength, seed):
        """The training cost and its parameter gradients, with the single
        node and with the composite. The forward is bit-identical, so the
        lambda 0 cost is too. The gradient with respect to x is one conv
        with the flipped, transposed kernel, which sums all w taps in one
        matmul, where the composite added the taps' parts one by one, so
        the word-level gradient, hence the penalty and every gradient behind
        it, may differ in the last bits."""
        ds = gen_synthetic(SynthConfig(count=20, vocab_size=40, trigger_count=3, min_len=4,
                                       max_len=10, seed=5 + seed, mode=mode))
        config = ModelConfig(vocab_size=40, embed_dim=8, max_len=9, mode=mode)
        params = ModelParams(config, seed=3 + seed)
        cfg = TrainConfig(dropout=0.0, saliency=SaliencyConfig(strength=strength, levels=LEVELS))
        named = params.tensors()

        def cost_and_grads():
            cost, _, _ = _batch_cost(ds.examples, params, config, cfg, None)
            grads = grad(cost, list(named.values()))
            return cost.item(), {name: grads[t].values for name, t in named.items()}

        cost, grads = cost_and_grads()
        monkeypatch.setattr(ops, "conv1d_same", conv1d_composite)
        ref_cost, ref_grads = cost_and_grads()
        if strength == 0.0:
            assert cost == ref_cost
        assert abs(cost - ref_cost) <= 1e-15 * abs(ref_cost)
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() <= 1e-15 * np.abs(ref).max(), name


class TestMaxPool:
    def test_direct_max_over_rows(self):
        pooled = ops.maxpool_axis(Tensor([[1.0, 5.0], [3.0, 2.0]]), axis=0)
        assert list(pooled.values) == [3.0, 5.0]

    def test_tie_routes_to_lowest_index(self):
        x = Tensor([[2.0, 2.0]])
        pooled = ops.maxpool_axis(x, axis=1)
        assert pooled.values[0] == 2.0
        g = grad(ops.sum_axes(pooled), [x])[x]
        np.testing.assert_array_equal(g.values, [[1.0, 0.0]])

    def test_gradient_matches_finite_differences_away_from_ties(self):
        vals = np.random.default_rng(5).normal(size=(6, 8))

        def f(xt):
            return ops.sum_axes(ops.maxpool_axis(xt, axis=0))

        assert smooth_error(f, Tensor(vals), eps=1e-4) < 1e-5

    def test_gradient_mass_conserved_per_group(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(7, 4)))
        upstream = rng.normal(size=(4,))
        pooled = ops.maxpool_axis(x, axis=0)
        y = ops.sum_axes(ops.mul(pooled, Tensor(upstream)))
        g = grad(y, [x])[x]
        np.testing.assert_allclose(g.values.sum(axis=0), upstream, atol=1e-12)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            ops.maxpool_axis(Tensor(np.zeros((2, 2))), axis=5)

    def test_pooling_is_one_take_node(self):
        with Graph() as graph:
            ops.maxpool_axis(Tensor(np.zeros((2, 3, 4))), axis=1)
            ops.maxpool_axis(Tensor([3.0, 5.0, 4.0]), axis=0)
        assert [node.op for node in graph.nodes] == ["take", "take"]


class TestMaskedMaxPool:
    """maxpool_axis(..., valid=mask): the max and its routing over true entries only."""

    @staticmethod
    def draw(seed):
        # ragged groups along axis 1, each with at least one valid entry
        rng = np.random.default_rng(seed)
        valid = np.arange(6)[None, :, None] < np.array([1, 6, 3, 4])[:, None, None]
        valid = np.broadcast_to(valid, (4, 6, 5))
        return rng.normal(size=(4, 6, 5)), valid

    def test_values_and_routing_skip_invalid_entries(self):
        vals, valid = self.draw(11)
        vals[~valid] = 100.0  # would win every group if it were pooled
        x = Tensor(vals)
        pooled = ops.maxpool_axis(x, axis=1, valid=valid)
        np.testing.assert_array_equal(pooled.values, np.where(valid, vals, -np.inf).max(axis=1))
        g = grad(ops.sum_axes(pooled), [x])[x].values
        assert np.all(g[~valid] == 0.0)
        np.testing.assert_array_equal(g.sum(axis=1), np.ones((4, 5)))

    def test_gradient_matches_finite_differences_away_from_ties(self):
        vals, valid = self.draw(12)
        upstream = Tensor(np.random.default_rng(13).normal(size=(4, 5)))

        def f(xt):
            return ops.sum_axes(ops.mul(ops.maxpool_axis(xt, axis=1, valid=valid), upstream))

        assert smooth_error(f, Tensor(vals), eps=1e-4) < 1e-5

    def test_second_order_matches_finite_differences(self):
        vals, valid = self.draw(14)
        weights = Tensor(np.random.default_rng(15).normal(size=vals.shape))

        def first_grad(xt):
            pooled = ops.maxpool_axis(xt, axis=1, valid=valid)
            return grad(ops.sum_axes(ops.mul(pooled, pooled)), [xt], create_graph=True)[xt]

        def g_fn(xt):
            return ops.sum_axes(ops.mul(first_grad(xt), weights))

        # the routing is frozen, so g is linear in x and its gradient is
        # 2 * weights at each group's valid argmax
        assert smooth_error(g_fn, Tensor(vals), eps=1e-4) < 1e-5
        x = Tensor(vals)
        g2 = grad(g_fn(x), [x])[x].values
        assert np.all(g2[~valid] == 0.0)
        assert np.count_nonzero(g2) == 4 * 5

    def test_all_true_mask_is_the_unmasked_op_bit_for_bit(self):
        rng = np.random.default_rng(16)
        vals = rng.normal(size=(3, 7, 4))
        vals[0, 2] = vals[0, 5]  # a tie, so the lowest-index rule is exercised
        for axis in (0, 1, -1):
            upstream = None
            results = []
            for valid in (None, np.ones(vals.shape, dtype=bool)):
                x = Tensor(vals)
                pooled = ops.maxpool_axis(x, axis=axis, valid=valid)
                if upstream is None:
                    upstream = Tensor(rng.normal(size=pooled.shape))
                g = grad(ops.sum_axes(ops.mul(pooled, upstream)), [x])[x]
                results.append((pooled.values.tobytes(), g.values.tobytes()))
            assert results[0] == results[1]

    def test_bad_mask_rejected(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ops.maxpool_axis(x, axis=1, valid=np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="a true entry per group"):
            ops.maxpool_axis(x, axis=1, valid=np.array([[True, False, False], [False] * 3]))


class TestSecondOrder:
    def test_grad_of_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        W = Tensor(rng.normal(size=(3, 3)))

        def first_grad(xt):
            y = ops.sum_axes(ops.relu(ops.matmul2d(xt, W)))
            return grad(y, [xt], create_graph=True)[xt]

        def g_fn(xt):
            return ops.sum_axes(first_grad(xt))

        x = Tensor(rng.normal(size=(2, 3)) + 0.5)
        # analytic gradient of g via the engine
        analytic = grad(g_fn(x), [x])[x].values
        # finite differences of the *first* gradient
        eps = 1e-4
        fd = np.zeros_like(x.values)
        flat = x.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = first_grad(x).values.sum()
            flat[i] = orig - eps
            down = first_grad(x).values.sum()
            flat[i] = orig
            fd.reshape(-1)[i] = (up - down) / (2 * eps)
        assert np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))) < 1e-4

    def test_second_order_through_maxpool_is_frozen(self):
        # the pooled routing is constant, so the second derivative is zero
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 3)))
        y = ops.sum_axes(ops.mul(ops.maxpool_axis(x, axis=0), ops.maxpool_axis(x, axis=0)))
        g1 = grad(y, [x], create_graph=True)[x]
        g2 = grad(ops.sum_axes(ops.mul(g1, g1)), [x], create_graph=True)[x]
        assert g2.shape == x.shape  # differentiating twice stays well-formed


class TestFiniteDiffCheck:
    def test_linear_function_is_exact(self):
        # at the origin both perturbed sums are exact, so the error is 0
        assert finite_diff_check(lambda t: ops.sum_axes(t), Tensor(np.zeros(4))) == (0.0, 0)
        # elsewhere only rounding noise of the sums remains
        assert smooth_error(lambda t: ops.sum_axes(t), Tensor(np.arange(4.0))) < 1e-10

    def test_quadratic(self):
        x = Tensor([1.0, 2.0])
        y = ops.sum_axes(ops.mul(x, x))
        analytic = grad(y, [x])[x].values
        np.testing.assert_allclose(analytic, [2.0, 4.0])
        assert smooth_error(lambda t: ops.sum_axes(ops.mul(t, t)), x) < 1e-7

    def test_bad_eps_rejected(self):
        for eps in (0.0, -1e-4, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                finite_diff_check(lambda t: ops.sum_axes(t), Tensor([1.0]), eps=eps)

    def test_nan_off_the_base_point_fails(self):
        # The analytic gradient at the base point is exact, but every
        # perturbed cost is NaN: the central differences are NaN, and a NaN
        # error must not pass as 0.
        x = Tensor([1.0, 2.0])
        base = x.values.copy()

        def f(t):
            y = ops.sum_axes(ops.mul(t, t))
            return y if np.array_equal(t.values, base) else ops.scale(y, np.nan)

        assert finite_diff_check(f, x) == (np.inf, 0)

    def test_non_finite_analytic_gradient_fails(self):
        x = Tensor([1.0, 2.0])
        assert finite_diff_check(lambda t: ops.sum_axes(ops.scale(t, np.inf)), x) == (np.inf, 0)

    def test_step_across_a_kink_is_skipped(self):
        # at eps 1e-4 only the entry 5e-5 from the relu kink changes routing
        x = Tensor([5e-5, 1.0, -2.0, 0.3])
        with Graph() as graph:
            ops.relu(x)
        assert [r.tolist() for r in graph.routes] == [[True, True, False, True]]
        err, skipped = finite_diff_check(lambda t: ops.sum_axes(ops.relu(t)), x, eps=1e-4)
        assert err < 1e-10 and skipped == 1
        np.testing.assert_array_equal(x.values, [5e-5, 1.0, -2.0, 0.3])
        x.values[0] = 0.5  # the same input with that entry off the kink
        assert finite_diff_check(lambda t: ops.sum_axes(ops.relu(t)), x, eps=1e-4)[1] == 0

    def test_wrong_vjp_on_a_smooth_coordinate_fails(self):
        # values 2a but a VJP of 3g: the live coordinate reports
        # |3 - 2| / 2, while the one beside the kink is skipped
        def wrong_double(a):
            return ops._node("wrong_double", 2.0 * a.values, (a,),
                             lambda g, needs: (ops.scale(g, 3.0),))

        x = Tensor([5e-5, 1.0, -2.0])
        err, skipped = finite_diff_check(lambda t: ops.sum_axes(wrong_double(ops.relu(t))), x)
        assert (err, skipped) == (pytest.approx(0.5, rel=1e-9), 1)

    def test_one_element_root_accepted(self):
        x = Tensor([1.0, -2.0, 0.5])
        err, skipped = finite_diff_check_many(
            lambda: ops.reshape(ops.sum_axes(ops.mul(x, x)), (1,)), {"x": x}
        )
        assert err < 1e-7 and skipped == 0
        assert Tensor([3.0]).item() == 3.0
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestGradMemory:
    def test_backward_frees_each_gradient_once_passed_on(self):
        # Each scale VJP makes one new 1 MiB gradient from the one before.
        # Freeing a gradient once it is passed on holds at most two of them
        # at a time, where keeping them all until grad returns holds 41.
        x = Tensor(np.ones((128, 1024)))
        y = x
        for _ in range(40):
            y = ops.scale(y, 1.0)
        root = ops.sum_axes(y)
        tracemalloc.start()
        try:
            grad(root, [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.values.nbytes


class TestGraphRecorder:
    def test_nodes_list_ops_in_creation_order(self):
        x = Tensor([1.0, -2.0])
        with Graph() as graph:
            y = ops.mul(x, x)
            z = ops.relu(ops.add(y, x))
            out = ops.sum_axes(z)
        assert [t.op for t in graph.nodes] == ["mul", "add", "relu", "sum_axes"]
        assert graph.nodes[0] is y and graph.nodes[-1] is out

    def test_records_under_no_grad(self):
        with Graph() as graph, no_grad():
            ops.scale(Tensor([1.0]), 2.0)
        assert [t.op for t in graph.nodes] == ["scale"]

    def test_nothing_recorded_outside_or_when_inactive(self):
        x = Tensor([1.0, 2.0])
        idle = Graph()
        ops.mul(x, x)
        with Graph() as graph:
            ops.mul(x, x)
        ops.add(x, x)
        assert idle.nodes == []
        assert [t.op for t in graph.nodes] == ["mul"]

    def test_nested_graph_captures_its_own_nodes(self):
        x = Tensor([1.0, 2.0])
        with Graph() as outer:
            ops.mul(x, x)
            with Graph() as inner:
                ops.add(x, x)
                ops.relu(x)
            ops.sum_axes(x)
        assert [t.op for t in inner.nodes] == ["add", "relu"]
        assert [t.op for t in outer.nodes] == ["mul", "sum_axes"]


class TestGraphTape:
    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(4, 4))
        k = rng.normal(size=(3, 4, 4))
        b = rng.normal(size=(4,))
        one = ops.sum_axes(ops.relu(ops.conv1d_same(Tensor(vals), Tensor(k), Tensor(b))))
        two = ops.sum_axes(ops.relu(ops.conv1d_same(Tensor(vals), Tensor(k), Tensor(b))))
        assert one.values.tobytes() == two.values.tobytes()


class TestNoGrad:
    def test_no_grad_produces_leaves(self):
        x = Tensor([1.0])
        with no_grad():
            y = ops.mul(x, x)
        assert y.vjp is None and y.parents == ()
        assert np.all(grad(ops.sum_axes(ops.mul(x, x)), [x])[x].values == 2.0)


def normal(*shapes):
    return lambda rng: [rng.normal(size=s) for s in shapes]


def spread(*shapes):
    """Inputs whose magnitudes are distinct multiples of 0.1, so every value
    sits at least 0.1 from zero and from every other value: relu and max
    routings stay far from their kinks under a 1e-4 perturbation."""

    def draw(rng):
        out = []
        for s in shapes:
            size = int(np.prod(s))
            signs = rng.choice([-1.0, 1.0], size)
            out.append((0.1 * signs * (rng.permutation(size) + 1)).reshape(s))
        return out

    return draw


def broadcast_cases(fn):
    return {
        "same": (fn, normal((2, 3), (2, 3))),
        "suffix_second": (fn, normal((2, 3, 4), (3, 4))),
        "suffix_first": (fn, normal((4,), (2, 3, 4))),
        "scalar": (fn, normal((2, 3), ())),
    }


def maximum_inputs(rng):
    a = rng.normal(size=(3, 4))
    return [a, a + rng.choice([-0.05, 0.05], a.shape)]


def masked_pool(x):
    valid = np.arange(4)[None, :, None] < np.array([1, 4, 2])[:, None, None]
    return ops.maxpool_axis(x, axis=1, valid=np.broadcast_to(valid, x.shape))


SHAPE = (2, 3, 4)
AXIS_SUBSETS = [c for r in range(4) for c in itertools.combinations(range(3), r)]
IDS = np.array([[0, 2], [2, 2]])
PICKS = np.array([[0, 3, 1, 3, 2], [2, 2, 0, 1, 3], [1, 0, 3, 3, 0]])
# one index per (row, column) group along axis 1 of a (3, 4, 5) tensor
GROUPS = (np.arange(3)[:, None], PICKS, np.arange(5)[None, :])
# conv1d_same's key for its input gradient: K'[t, o, i] = K[w-1-t, i, o] of a (3, 2, 4) kernel
CONV_FLIP = (np.arange(3)[::-1][:, None, None], np.arange(2), np.arange(4)[:, None])

# op name -> {case label: (function of the input tensors, input draw)}
OP_CASES = {
    "add": broadcast_cases(ops.add),
    "mul": broadcast_cases(ops.mul),
    "scale": {"": (lambda x: ops.scale(x, -1.7), normal((2, 3)))},
    "neg": {"": (ops.neg, normal((3,)))},
    "sub": {"suffix_second": (ops.sub, normal((2, 3), (3,)))},
    "relu": {"": (ops.relu, spread((3, 4)))},
    "maximum": {"": (ops.maximum, maximum_inputs)},
    "sigmoid": {"": (ops.sigmoid, normal((3, 4)))},
    "softplus": {"": (ops.softplus, normal((3, 4)))},
    "sum_axes": {
        "all": (ops.sum_axes, normal(SHAPE)),
        "negative": (lambda x: ops.sum_axes(x, (-1, -3)), normal(SHAPE)),
        **{
            "".join(map(str, axes)) or "none": (
                lambda x, axes=axes: ops.sum_axes(x, axes),
                normal(SHAPE),
            )
            for axes in AXIS_SUBSETS
        },
    },
    "expand_axes": {
        "negative": (lambda x: ops.expand_axes(x, SHAPE, (-2,)), normal((2, 4))),
        **{
            "".join(map(str, axes)) or "none": (
                lambda x, axes=axes: ops.expand_axes(x, SHAPE, axes),
                normal(tuple(n for i, n in enumerate(SHAPE) if i not in axes)),
            )
            for axes in AXIS_SUBSETS
        },
    },
    "reshape": {"": (lambda x: ops.reshape(x, (6, 4)), normal(SHAPE))},
    "transpose2d": {"": (ops.transpose2d, normal((3, 4)))},
    "concat_last": {"": (ops.concat_last, normal((2, 1), (2, 3), (2, 2)))},
    "take": {
        "slice": (lambda x: ops.take(x, (..., slice(1, 4))), normal((2, 5))),
        "groups": (lambda x: ops.take(x, GROUPS), normal((3, 4, 5))),
        "conv_flip": (lambda x: ops.take(x, CONV_FLIP), normal((3, 2, 4))),
    },
    "put": {
        "slice": (lambda x: ops.put(x, (..., slice(1, 4)), (2, 6)), normal((2, 3))),
        "groups": (lambda x: ops.put(x, GROUPS, (3, 4, 5)), normal((3, 5))),
    },
    "shift_rows": {
        f"by{s}": (lambda x, s=s: ops.shift_rows(x, s), normal((2, 5, 3))) for s in (-1, 0, 2)
    },
    "matmul2d": {"": (ops.matmul2d, normal((3, 4), (4, 2)))},
    "gather_rows": {"": (lambda t: ops.gather_rows(t, IDS), normal((4, 3)))},
    "scatter_rows": {"": (lambda x: ops.scatter_rows(x, IDS, 4), normal((2, 2, 3)))},
    "maxpool_axis": {
        "rows": (lambda x: ops.maxpool_axis(x, axis=1), spread((3, 4, 5))),
        "last": (lambda x: ops.maxpool_axis(x, axis=-1), spread((3, 4, 5))),
        "masked": (masked_pool, spread((3, 4, 5))),
    },
    "conv1d_same": {
        "": (ops.conv1d_same, normal((5, 3), (3, 3, 2), (2,))),
        "batched_w5": (ops.conv1d_same, normal((2, 6, 3), (5, 3, 2), (2,))),
    },
}
CASES = [(op, label) for op, cases in OP_CASES.items() for label in cases]
CASE_IDS = [f"{op}-{label}" if label else op for op, label in CASES]
PUBLIC_OPS = {
    name
    for name, f in inspect.getmembers(ops, inspect.isfunction)
    if f.__module__ == ops.__name__ and not name.startswith("_")
}


def case_inputs(op, label):
    fn, draw = OP_CASES[op][label]
    tensors = [Tensor(v) for v in draw(np.random.default_rng(0))]
    return fn, tensors, {str(i): t for i, t in enumerate(tensors)}


def readout(y):
    # the sigmoid gives even a linear op a nonzero second derivative
    return ops.sum_axes(ops.sigmoid(y))


class SnapshotList(list):
    """Graph.nodes that pairs each node with a copy of its values as built."""

    def append(self, node):
        super().append((node, node.values.copy()))


class TestRandomOpGradients:
    """Every public op vs finite differences on smooth random input."""

    def test_table_lists_every_public_op(self):
        assert set(OP_CASES) == PUBLIC_OPS

    def test_every_node_is_named_after_a_public_op(self):
        # forward, create-graph backward and second backward of every case
        strays = {}
        for op, label in CASES:
            fn, tensors, _ = case_inputs(op, label)
            with Graph() as graph:
                grads = grad(readout(fn(*tensors)), tensors, create_graph=True)
                grad(functools.reduce(ops.add, map(ops.sum_axes, grads.values())), tensors)
            names = {node.op for node in graph.nodes} - PUBLIC_OPS
            if names:
                strays[f"{op}-{label}"] = names
        assert strays == {}

    @pytest.mark.parametrize("op,label", CASES, ids=CASE_IDS)
    def test_no_pass_writes_into_values(self, op, label):
        # an op's values may be a view of its input's, which is safe only
        # while no forward or backward writes into a tensor's values
        fn, tensors, _ = case_inputs(op, label)
        graph = Graph()
        graph.nodes = SnapshotList((t, t.values.copy()) for t in tensors)
        with graph:
            grads = grad(readout(fn(*tensors)), tensors, create_graph=True)
            grad(functools.reduce(ops.add, map(ops.sum_axes, grads.values())), tensors)
        assert [t.op for t, built in graph.nodes if not np.array_equal(t.values, built)] == []

    @pytest.mark.parametrize("op,label", CASES, ids=CASE_IDS)
    def test_first_order(self, op, label):
        fn, tensors, named = case_inputs(op, label)
        err, skipped = finite_diff_check_many(lambda: readout(fn(*tensors)), named)
        assert err < 1e-5 and skipped == 0

    @pytest.mark.parametrize("op,label", CASES, ids=CASE_IDS)
    def test_second_order(self, op, label):
        fn, tensors, named = case_inputs(op, label)
        rng = np.random.default_rng(1)
        weights = [Tensor(rng.normal(size=t.shape)) for t in tensors]

        def weighted_first_grad():
            grads = grad(readout(fn(*tensors)), tensors, create_graph=True)
            terms = [ops.sum_axes(ops.mul(grads[t], w)) for t, w in zip(tensors, weights)]
            return functools.reduce(ops.add, terms)

        err, skipped = finite_diff_check_many(weighted_first_grad, named)
        assert err < 1e-5 and skipped == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_pipeline(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(size=(5, 3)))
        k, b, w = (Tensor(rng.normal(size=s)) for s in ((3, 3, 3), (3,), (3 + 5,)))

        def f(xt):
            hidden = ops.relu(ops.conv1d_same(xt, k, b))
            seq = ops.maxpool_axis(hidden, axis=0)
            dim = ops.maxpool_axis(hidden, axis=1)
            h = ops.concat_last(seq, dim)
            return ops.sum_axes(ops.mul(h, w))

        assert smooth_error(f, x, eps=1e-4) < 1e-5

    @pytest.mark.parametrize(
        "name",
        ["gather", "shift", "slices", "sigmoid_chain"],
    )
    def test_individual_ops(self, name):
        seed = {"gather": 0, "shift": 1, "slices": 2, "sigmoid_chain": 3}[name]
        rng = np.random.default_rng(seed)
        if name == "gather":
            ids = np.array([[0, 2], [1, 1]])

            def f(t):
                return ops.sum_axes(ops.mul(ops.gather_rows(t, ids), ops.gather_rows(t, ids)))

            x = Tensor(rng.normal(size=(4, 3)))
        elif name == "shift":

            def f(t):
                return ops.sum_axes(ops.mul(ops.shift_rows(t, 2), ops.shift_rows(t, -1)))

            x = Tensor(rng.normal(size=(6, 2)))
        elif name == "slices":

            def f(t):
                a = ops.take(t, (..., slice(0, 2)))
                bpart = ops.put(a, (..., slice(1, 3)), (3, 4))
                return ops.sum_axes(ops.mul(bpart, bpart))

            x = Tensor(rng.normal(size=(3, 4)))
        else:

            def f(t):
                return ops.sum_axes(ops.sigmoid(ops.mul(t, t)))

            x = Tensor(rng.normal(size=(4,)))
        assert smooth_error(f, x, eps=1e-4) < 1e-5
