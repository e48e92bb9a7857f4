import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import troikit.tensor as tensor_module
from troikit.errors import ContractError, DataError, DimensionError
from troikit.tensor import (
    Tensor,
    add,
    backward,
    conv2d,
    cross_entropy,
    layer_norm,
    matmul,
    max_pool2d,
    mul,
    no_grad,
    pack_rows,
    precision,
    read_tensor,
    reduce_max,
    reduce_mean,
    reduce_sum,
    relu,
    softmax_rows,
    transpose,
    unpack_rows,
    write_tensor,
    zero_grad,
)

import oracles


def assert_matches_finite_differences(fn, leaves, tol=1e-7):
    """Every coordinate of every leaf's analytic gradient against a
    central difference of the scalar ``fn()`` (f64, piecewise-linear ops)."""
    backward(fn())
    grads = [leaf.grad.copy() for leaf in leaves]
    zero_grad(leaves)
    for leaf, grad in zip(leaves, grads):
        for idx in range(leaf.size):
            num = oracles.central_difference(lambda: fn().item(), leaf.data, idx)
            assert abs(num - grad.flat[idx]) <= tol * max(1.0, abs(num)), (leaf.shape, idx)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_against_triple_loop(self, rng):
        with precision("f64"):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            out = matmul(Tensor(a), Tensor(b))
            assert np.allclose(out.data, oracles.matmul_loops(a, b), atol=1e-12, rtol=0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients(self, rng):
        with precision("f64"):
            a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            backward(reduce_sum(matmul(a, b)))
            assert np.allclose(a.grad, np.tile(b.data.sum(axis=1), (3, 1)))
            assert np.allclose(b.grad, np.tile(a.data.sum(axis=0)[:, None], (1, 2)))


class TestBatchedOps:
    def test_matmul_is_one_product_per_leading_index(self, rng):
        with precision("f64"):
            a = rng.normal(size=(2, 3, 4, 5))
            b = rng.normal(size=(2, 3, 5, 2))
            out = matmul(Tensor(a), Tensor(b)).data
            for i in range(2):
                for j in range(3):
                    assert np.allclose(out[i, j], oracles.matmul_loops(a[i, j], b[i, j]), atol=1e-12, rtol=0)

    def test_matmul_needs_equal_leading_axes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3, 4\).*\(3, 4, 2\)"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 2))))
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 2))))

    def test_transpose_swaps_the_last_two_axes(self, rng):
        x = rng.normal(size=(2, 3, 4))
        assert np.array_equal(transpose(Tensor(x)).data, x.transpose(0, 2, 1).astype(np.float32))
        with pytest.raises(DimensionError):
            transpose(Tensor([1.0, 2.0]))

    def test_softmax_normalizes_each_row_of_each_matrix(self, rng):
        with precision("f64"):
            x = rng.normal(size=(3, 4, 5)) * 3
            out = softmax_rows(Tensor(x)).data
            for i in range(3):
                assert np.allclose(out[i], oracles.softmax_loops(x[i]), atol=1e-12, rtol=0)

    def test_softmax_gives_minus_infinity_exactly_zero_weight(self):
        out = softmax_rows(Tensor([[[0.0, -np.inf, 1.0]], [[-np.inf, 2.0, 2.0]]])).data
        assert out[0, 0, 1] == 0.0 and out[1, 0, 0] == 0.0
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_pack_places_heads_and_pads_with_zeros(self):
        # rows 0 and 2 go to block 1, row 1 to block 0; 2 heads of width 1
        x = Tensor([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        slot = np.array([2, 0, 3])
        packed = pack_rows(x, slot, blocks=2, width=2, heads=2).data
        assert packed.shape == (4, 2, 1)
        assert packed[:, :, 0].tolist() == [[2.0, 0.0], [1.0, 3.0], [20.0, 0.0], [10.0, 30.0]]
        assert np.array_equal(unpack_rows(Tensor(packed), slot, heads=2).data, x.data)

    def test_pack_rejects_rows_that_do_not_split_into_heads(self):
        with pytest.raises(DimensionError):
            pack_rows(Tensor(np.zeros((2, 3))), np.arange(2), blocks=1, width=2, heads=2)
        with pytest.raises(DimensionError):
            unpack_rows(Tensor(np.zeros((3, 2, 1))), np.arange(2), heads=2)


class TestSoftmax:
    def test_equal_pair_rows(self):
        for c in (-3.0, 0.0, 17.5):
            out = softmax_rows(Tensor([[c, c]]))
            assert np.allclose(out.data, [[0.5, 0.5]])

    def test_single_element_row(self):
        assert np.allclose(softmax_rows(Tensor([[4.2]])).data, [[1.0]])

    def test_frozen_reference_row(self):
        # exp/sum oracle on [1, 2, 3]
        expected = oracles.softmax_loops([[1.0, 2.0, 3.0]])
        assert np.allclose(expected, [[0.090031, 0.244728, 0.665241]], atol=1e-5)
        out = softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_matches_loops(self, rng):
        with precision("f64"):
            x = rng.normal(size=(5, 7)) * 3
            out = softmax_rows(Tensor(x))
            assert np.allclose(out.data, oracles.softmax_loops(x), atol=1e-9, rtol=0)

    def test_rows_sum_to_one_for_large_values(self, rng):
        x = rng.uniform(-1e4, 1e4, size=(20, 9))
        out = softmax_rows(Tensor(x))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            softmax_rows(Tensor([1.0, 2.0]))


class TestLayerNorm:
    def _params(self, c):
        return Tensor(np.ones(c)), Tensor(np.zeros(c))

    def test_constant_row_maps_to_zero(self):
        gamma, beta = self._params(4)
        out = layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), gamma, beta)
        assert np.allclose(out.data, 0.0)

    def test_two_point_row(self):
        gamma, beta = self._params(2)
        out = layer_norm(Tensor([[1.0, 3.0]]), gamma, beta)
        assert np.allclose(out.data, [[-0.999995, 0.999995]], atol=1e-5)

    def test_zero_gamma_broadcasts_beta(self, rng):
        x = rng.normal(size=(3, 5))
        beta = rng.normal(size=5)
        out = layer_norm(Tensor(x), Tensor(np.zeros(5)), Tensor(beta))
        assert np.allclose(out.data, np.tile(beta, (3, 1)), atol=1e-6)

    def test_matches_loops(self, rng):
        with precision("f64"):
            x = rng.normal(size=(4, 6))
            gamma = rng.normal(size=6)
            beta = rng.normal(size=6)
            out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
            assert np.allclose(out.data, oracles.layer_norm_loops(x, gamma, beta, 1e-5), atol=1e-9, rtol=0)


class TestElementwiseAndPooling:
    def test_relu_sign_cases(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_derivative_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(reduce_sum(relu(x)))
        assert x.grad[0] == 0.0

    def test_conv_ones_counting_case(self):
        x = Tensor(np.ones((1, 5, 5, 1)))
        w = Tensor(np.ones((3, 3, 1, 1)))
        out = conv2d(x, w, Tensor(np.zeros(1)))
        assert out.data.shape == (1, 5, 5, 1)
        # a cell counts the input cells its window sees inside the zero border
        counts = np.full((5, 5), 9.0)
        counts[[0, -1], :] = counts[:, [0, -1]] = 6.0
        counts[0, 0] = counts[0, -1] = counts[-1, 0] = counts[-1, -1] = 4.0
        assert np.array_equal(out.data[0, :, :, 0], counts)

    def test_conv_matches_loops(self, rng):
        with precision("f64"):
            x = rng.normal(size=(2, 6, 6, 3))
            w = rng.normal(size=(3, 3, 3, 4))
            b = rng.normal(size=4)
            out = conv2d(Tensor(x), Tensor(w), Tensor(b))
            assert np.allclose(out.data, oracles.conv2d_loops(x, w, b), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("b_grad", [True, False])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_conv_gradients_match_finite_differences(self, rng, b_grad, x_grad):
        with precision("f64"):
            x = Tensor(rng.normal(size=(2, 6, 6, 3)), requires_grad=x_grad)
            w = Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=b_grad)
            proj = Tensor(rng.normal(size=conv2d(x, w, b).shape))

            def fn():
                return reduce_sum(mul(conv2d(x, w, b), proj))

            leaves = [t for t in (x, w, b) if t.requires_grad]
            assert_matches_finite_differences(fn, leaves)
            assert all(t.grad is None for t in (x, b) if not t.requires_grad)

    @pytest.mark.parametrize("shape", [(2, 6, 6, 3), (2, 5, 7, 3)], ids=["even", "odd-size"])
    def test_max_pool_gradients_match_finite_differences(self, rng, shape):
        with precision("f64"):
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            out = max_pool2d(x)
            assert np.array_equal(out.data, oracles.max_pool_loops(x.data))
            with no_grad():  # the same slices, without the first-max index
                assert np.array_equal(max_pool2d(x).data, out.data)
            proj = Tensor(rng.normal(size=out.shape))

            def fn():
                return reduce_sum(mul(max_pool2d(x), proj))

            assert_matches_finite_differences(fn, [x])
            backward(fn())
            ref = oracles.max_pool_grad_loops(x.data, proj.data)
            assert np.allclose(x.grad, ref, atol=1e-12, rtol=0)

    def test_max_pool_tied_windows_route_to_first_max(self, rng):
        with precision("f64"):
            x = Tensor(rng.integers(0, 2, size=(2, 7, 7, 3)).astype(float), requires_grad=True)
            out = max_pool2d(x)
            proj = Tensor(rng.normal(size=out.shape))
            backward(reduce_sum(mul(out, proj)))
            ref = oracles.max_pool_grad_loops(x.data, proj.data)
            assert np.allclose(x.grad, ref, atol=1e-12, rtol=0)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_pool_then_relu_equals_relu_then_pool(self, data):
        # the backbone runs conv -> pool -> ReLU; this pins it to
        # conv -> ReLU -> pool, bit for bit
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        shape = (
            data.draw(st.integers(1, 2)),
            data.draw(st.integers(2, 7)),  # odd sides leave cells outside every window
            data.draw(st.integers(2, 7)),
            data.draw(st.integers(1, 3)),
        )
        # few distinct values: flat (tied) windows and all-nonpositive ones are common
        values = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), st.floats(-4, 4, width=32))
        x = data.draw(arrays(dtype, shape, elements=values)) + dtype(0)  # no negative zeros
        with precision("f32" if dtype is np.float32 else "f64"):
            a = Tensor(x, requires_grad=True)
            b = Tensor(x, requires_grad=True)
            pool_relu = relu(max_pool2d(a))
            relu_pool = max_pool2d(relu(b))
            assert pool_relu.data.dtype == relu_pool.data.dtype == dtype
            assert pool_relu.data.tobytes() == relu_pool.data.tobytes()
            g = data.draw(arrays(dtype, pool_relu.shape, elements=st.floats(-3, 3, width=32)))
            backward(reduce_sum(mul(pool_relu, Tensor(g))))
            backward(reduce_sum(mul(relu_pool, Tensor(g))))
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_max_pool_batch_slices_match_loops(self, rng, monkeypatch):
        # slices of two pooled 3x3x2 f64 images over a batch of 5: the
        # last slice is short
        monkeypatch.setattr(tensor_module, "_POOL_SLICE_BYTES", 2 * 3 * 3 * 2 * 8)
        with precision("f64"):
            x = Tensor(rng.integers(-2, 3, size=(5, 7, 7, 2)).astype(float), requires_grad=True)
            out = max_pool2d(x)
            assert np.array_equal(out.data, oracles.max_pool_loops(x.data))
            with no_grad():  # the same slices, without the first-max index
                assert np.array_equal(max_pool2d(x).data, out.data)
            proj = Tensor(rng.normal(size=out.shape))
            backward(reduce_sum(mul(out, proj)))
            ref = oracles.max_pool_grad_loops(x.data, proj.data)
            assert np.allclose(x.grad, ref, atol=1e-12, rtol=0)

    def test_max_pool_rejects_a_side_shorter_than_the_window(self):
        with pytest.raises(DimensionError, match="does not fit"):
            max_pool2d(Tensor(np.zeros((1, 1, 4, 1))))

    def test_max_pool_untracked_path_matches_tracked(self, rng):
        # without a graph max_pool2d skips the first-max index
        x = Tensor(rng.integers(-2, 3, size=(3, 7, 6, 2)).astype(float), requires_grad=True)
        with no_grad():
            untracked = max_pool2d(x)
        assert untracked._backward is None
        assert np.array_equal(untracked.data, max_pool2d(x).data)
        assert np.array_equal(max_pool2d(Tensor(x.data)).data, untracked.data)

    def test_max_pool_matches_loops(self, rng):
        x = rng.normal(size=(2, 6, 6, 3))
        out = max_pool2d(Tensor(x))
        assert np.allclose(out.data, oracles.max_pool_loops(x), atol=1e-6)

    def test_pool_gradient_goes_to_first_max_on_ties(self):
        x = Tensor(np.ones((1, 2, 2, 1)), requires_grad=True)
        backward(reduce_sum(max_pool2d(x)))
        assert x.grad.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_bias_broadcast_over_rows(self):
        out = add(Tensor(np.zeros((3, 2))), Tensor([1.0, 2.0]))
        assert np.array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))

    def test_general_broadcast_rejected(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 1))))
        with pytest.raises(DimensionError):
            mul(Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))

    def test_reduce_max_first_index_ties(self):
        x = Tensor(np.array([[2.0, 2.0], [0.0, 1.0]]), requires_grad=True)
        out = reduce_max(x, axis=0)
        assert np.array_equal(out.data, [2.0, 2.0])
        backward(reduce_sum(out))
        assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        backward(reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4, 2)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(reduce_sum(mul(x, x)))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_double_backward_without_reset_errors(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(reduce_sum(mul(x, x)))
        with pytest.raises(ContractError, match="zero_grad"):
            backward(reduce_sum(mul(x, x)))
        zero_grad([x])
        backward(reduce_sum(mul(x, x)))  # fine after reset
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            backward(mul(x, x))

    def test_grad_accumulates_across_branches(self):
        x = Tensor([3.0], requires_grad=True)
        backward(reduce_sum(add(x, x)))
        assert np.allclose(x.grad, [2.0])

    def test_no_grad_skips_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = mul(x, x)
        assert not out.requires_grad and out._parents == ()

    def test_composite_ops_match_finite_differences(self, rng):
        with precision("f64"):
            cases = {
                "softmax": lambda t: reduce_sum(mul(softmax_rows(t), proj)),
                "layer_norm": lambda t: reduce_sum(mul(layer_norm(t, ln_g, ln_b), proj)),
            }
            for name, fn in cases.items():
                x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
                proj = Tensor(rng.normal(size=(3, 5)))
                ln_g = Tensor(rng.normal(size=5))
                ln_b = Tensor(rng.normal(size=5))
                backward(fn(x))
                for idx in rng.choice(x.size, size=6, replace=False):
                    num = oracles.central_difference(lambda: fn(x).item(), x.data, idx)
                    ana = x.grad.flat[idx]
                    assert abs(num - ana) / max(abs(num), abs(ana), 1e-4) < 1e-4, name


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = cross_entropy(Tensor([[0.3, 0.3, 0.3, 0.3]]), [2])
        assert out.item() == pytest.approx(math.log(4.0), abs=1e-6)

    def test_dominant_logit_goes_to_zero(self):
        out = cross_entropy(Tensor([[100.0, 0.0, 0.0]]), [0])
        assert out.item() < 1e-6

    def test_matches_log_sum_exp_oracle(self, rng):
        with precision("f64"):
            z = rng.normal(size=7) * 3
            label = 4
            expected = oracles.log_sum_exp_loops(list(z)) - z[label]
            assert cross_entropy(Tensor(z[None]), [label]).item() == pytest.approx(expected, abs=1e-9)

    def test_out_of_range_label(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor([[0.0, 1.0]]), [2])
        with pytest.raises(DimensionError, match="logits"):  # a (K,) vector is not a batch
            cross_entropy(Tensor([0.0, 1.0]), [1])

    def test_batch_mean(self, rng):
        z = rng.normal(size=(3, 4))
        losses = [cross_entropy(Tensor(z[i : i + 1]), [i]).item() for i in range(3)]
        batched = cross_entropy(Tensor(z), [0, 1, 2]).item()
        assert batched == pytest.approx(np.mean(losses), abs=1e-6)


class TestPrecisionAndSerialization:
    def test_precision_switch(self):
        assert Tensor([1.0]).data.dtype == np.float32
        with precision("f64"):
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

    def test_round_trip(self, rng):
        arr = rng.normal(size=(2, 3, 4)).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(buf, arr)
        buf.seek(0)
        back = read_tensor(buf)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_header_layout(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((2, 3), dtype=np.float32))
        raw = buf.getvalue()
        assert raw[:4] == (2).to_bytes(4, "little")
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert raw[8:12] == (3).to_bytes(4, "little")
        assert len(raw) == 12 + 4 * 6

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros(4, dtype=np.float32))
        data = buf.getvalue()[:-4]
        with pytest.raises(DataError, match="truncated"):
            read_tensor(io.BytesIO(data))

    def test_huge_extents_rejected_before_reading(self):
        # rank 4, every extent 0xFFFFFFFF: the count overflows any read size
        header = struct.pack("<5I", 4, *([0xFFFFFFFF] * 4))
        with pytest.raises(DataError, match="elements"):
            read_tensor(io.BytesIO(header + b"\0" * 16))

    def test_payload_longer_than_the_stream_rejected(self):
        header = struct.pack("<3I", 2, 1000, 1000)
        with pytest.raises(DataError, match="remain"):
            read_tensor(io.BytesIO(header + b"\0" * 8))

    def test_huge_rank_rejected(self):
        with pytest.raises(DataError, match="rank"):
            read_tensor(io.BytesIO(struct.pack("<I", 0xFFFFFFFF)))

    def test_finite_after_ops(self, rng):
        x = Tensor(rng.uniform(-50, 50, size=(4, 8)))
        for out in (softmax_rows(x), relu(x), reduce_mean(x, 1), transpose(x)):
            assert np.all(np.isfinite(out.data))
