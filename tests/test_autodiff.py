"""Tensor ops: forward semantics, error conditions, and finite-difference
gradient checks for every differentiable op."""

import gc
import warnings
import weakref

import numpy as np
import pytest

import tfcns.autodiff as ad
from tfcns.autodiff import Tape, Tensor, backward, grad_check, grad_check_tensors
from tfcns.errors import DetachedTensor, NonFiniteValue, NotScalar, ShapeMismatch

from oracles import conv2d_direct, conv_transpose2d_direct, erf_series

F64 = np.float64


def t64(arr):
    return Tensor(np.asarray(arr), dtype=F64)


class TestMatmul:
    def test_identity(self):
        a = t64(np.eye(2))
        b = t64([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_zero_operand(self):
        out = ad.matmul(t64(np.zeros((2, 3))), t64(np.ones((3, 4))))
        assert out.shape == (2, 4)
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(t64(np.ones((2, 3))), t64(np.ones((4, 2))))

    def test_grad_vs_finite_differences(self, rng):
        b = t64(rng.standard_normal((5, 3)))
        x = t64(rng.standard_normal((4, 5)))
        assert grad_check(lambda t: ad.matmul(t, b).sum(), x) < 1e-6
        a = t64(rng.standard_normal((4, 5)))
        y = t64(rng.standard_normal((5, 3)))
        assert grad_check(lambda t: ad.matmul(a, t).sum(), y) < 1e-6

    def test_batched_grad(self, rng):
        a = t64(rng.standard_normal((2, 3, 4)))
        b = t64(rng.standard_normal((2, 4, 3)))
        w = rng.standard_normal((2, 3, 3))
        assert grad_check(lambda t: ad.mul(ad.matmul(t, b), w).sum(), a) < 1e-6
        assert grad_check(lambda t: ad.mul(ad.matmul(a, t), w).sum(), b) < 1e-6


class TestConv2d:
    def test_one_by_one_identity_is_bit_exact(self, rng):
        x = t64(rng.standard_normal((2, 1, 4, 4)))
        w = t64(np.ones((1, 1, 1, 1)))
        b = t64(np.zeros(1))
        out = ad.conv2d(x, w, b)
        assert np.array_equal(out.data, x.data)

    def test_zero_weights_constant_bias(self, rng):
        x = t64(rng.standard_normal((1, 3, 5, 5)))
        w = t64(np.zeros((2, 3, 3, 3)))
        b = t64([0.5, -1.5])
        out = ad.conv2d(x, w, b, padding=1)
        assert np.allclose(out.data[:, 0], 0.5) and np.allclose(out.data[:, 1], -1.5)

    def test_output_geometry(self):
        x = t64(np.zeros((1, 1, 8, 8)))
        w = t64(np.zeros((1, 1, 3, 3)))
        b = t64(np.zeros(1))
        assert ad.conv2d(x, w, b, stride=1, padding=1).shape == (1, 1, 8, 8)
        with pytest.raises(ShapeMismatch):
            ad.conv2d(x, w, b, stride=2, padding=0)  # (8-3) not divisible by 2

    def test_grads_vs_finite_differences(self, rng):
        x = t64(rng.standard_normal((1, 1, 5, 5)))
        w = t64(rng.standard_normal((2, 1, 3, 3)))
        b = t64(rng.standard_normal(2))
        wc = rng.standard_normal((1, 2, 5, 5))
        err = grad_check_tensors(lambda: ad.mul(ad.conv2d(x, w, b, 1, 1), wc).sum(), [x, w, b])
        assert err < 1e-5

    def test_strided_grads(self, rng):
        x = t64(rng.standard_normal((2, 2, 6, 6)))
        w = t64(rng.standard_normal((3, 2, 2, 2)))
        b = t64(rng.standard_normal(3))
        wc = rng.standard_normal((2, 3, 3, 3))
        err = grad_check_tensors(lambda: ad.mul(ad.conv2d(x, w, b, 2, 0), wc).sum(), [x, w, b])
        assert err < 1e-5

    # (B, C, H, W), (O, kh, kw), stride, padding
    ORACLE_CASES = {
        "dense_layer": ((2, 20, 6, 6), (8, 3, 3), 1, 1),
        "stem": ((2, 1, 7, 7), (24, 3, 3), 1, 1),
        "one_by_one": ((2, 5, 4, 4), (3, 1, 1), 1, 0),
        "2x2_stride2": ((2, 3, 6, 6), (4, 2, 2), 2, 0),
        "3x3_stride2_pad1": ((1, 3, 7, 7), (4, 3, 3), 2, 1),
        "non_square": ((2, 3, 5, 8), (4, 3, 3), 1, 1),
        "kernel_covers_padded_map": ((1, 2, 3, 4), (2, 5, 6), 1, 1),
    }

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_forward_matches_direct_loops(self, case, rng):
        (bsz, c, h, w), (o, kh, kw), stride, padding = self.ORACLE_CASES[case]
        x = rng.standard_normal((bsz, c, h, w))
        wt = rng.standard_normal((o, c, kh, kw))
        b = rng.standard_normal(o)
        out = ad.conv2d(t64(x), t64(wt), t64(b), stride, padding).data
        assert np.allclose(out, conv2d_direct(x, wt, b, stride, padding), rtol=0, atol=1e-12)
        x, wt, b = (a.astype(np.float32) for a in (x, wt, b))
        out = ad.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride, padding).data
        # float32 rounding scales with the summed magnitudes, not with the result
        scale = conv2d_direct(np.abs(x), np.abs(wt), np.abs(b), stride, padding)
        assert out.dtype == np.float32
        assert np.all(np.abs(out - conv2d_direct(x, wt, b, stride, padding)) <= 1e-5 * scale)

    @pytest.mark.parametrize("case", ["3x3_stride2_pad1", "non_square"])
    def test_grads_match_finite_differences_on_oracle_cases(self, case, rng):
        (bsz, c, h, w), (o, kh, kw), stride, padding = self.ORACLE_CASES[case]
        x = t64(rng.standard_normal((bsz, c, h, w)))
        wt = t64(rng.standard_normal((o, c, kh, kw)))
        b = t64(rng.standard_normal(o))
        probe = rng.standard_normal(ad.conv2d(x, wt, b, stride, padding).shape)
        err = grad_check_tensors(lambda: ad.mul(ad.conv2d(x, wt, b, stride, padding), probe).sum(), [x, wt, b])
        assert err < 1e-5


class TestConvTranspose2d:
    def test_ones_kernel_broadcasts_value(self):
        x = t64(np.full((1, 1, 1, 1), 3.25))
        w = t64(np.ones((1, 1, 2, 2)))
        b = t64(np.zeros(1))
        out = ad.conv_transpose2d(x, w, b, stride=2)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 3.25))

    def test_zero_input_gives_bias(self):
        x = t64(np.zeros((1, 2, 3, 3)))
        w = t64(np.ones((2, 1, 2, 2)))
        b = t64([0.75])
        out = ad.conv_transpose2d(x, w, b, stride=2)
        assert np.allclose(out.data, 0.75)

    def test_grads_vs_finite_differences(self, rng):
        x = t64(rng.standard_normal((1, 2, 3, 3)))
        w = t64(rng.standard_normal((2, 3, 2, 2)))
        b = t64(rng.standard_normal(3))
        wc = rng.standard_normal((1, 3, 6, 6))
        err = grad_check_tensors(lambda: ad.mul(ad.conv_transpose2d(x, w, b, 2), wc).sum(), [x, w, b])
        assert err < 1e-5

    def test_forward_matches_direct_loops(self, rng):
        x = rng.standard_normal((2, 5, 4, 6))
        w = rng.standard_normal((5, 3, 2, 2))
        b = rng.standard_normal(3)
        out = ad.conv_transpose2d(t64(x), t64(w), t64(b), stride=2)
        assert out.shape == (2, 3, 8, 12)
        assert np.allclose(out.data, conv_transpose2d_direct(x, w, b, 2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride", [(3, 2), (2, 1)])
    def test_kernel_must_equal_stride(self, kernel, stride):
        with pytest.raises(ShapeMismatch):
            ad.conv_transpose2d(t64(np.zeros((1, 2, 3, 3))), t64(np.zeros((2, 1, kernel, kernel))), None, stride)


class TestElementwise:
    def test_gelu_zero(self):
        assert ad.gelu(t64([0.0])).data[0] == 0.0

    def test_gelu_asymptote(self):
        assert abs(ad.gelu(t64([6.0])).data[0] - 6.0) < 1e-6

    def test_gelu_against_erf_series(self):
        expected = 1.0 * 0.5 * (1.0 + erf_series(1.0 / np.sqrt(2.0)))
        assert abs(ad.gelu(t64([1.0])).data[0] - expected) < 1e-12

    def test_gelu_grad(self, rng):
        x = t64(rng.standard_normal(11))
        w = rng.standard_normal(11)
        assert grad_check(lambda t: ad.mul(ad.gelu(t), w).sum(), x) < 1e-5

    def test_sigmoid_center_and_grad(self, rng):
        assert ad.sigmoid(t64([0.0])).data[0] == 0.5
        x = t64(rng.standard_normal(9))
        w = rng.standard_normal(9)
        assert grad_check(lambda t: ad.mul(ad.sigmoid(t), w).sum(), x) < 1e-5

    def test_sigmoid_saturation_is_finite(self):
        out = ad.sigmoid(t64([-500.0, 500.0]))
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_extreme_inputs_without_warnings(self, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0]), dtype=dtype))
        assert out.dtype == dtype
        assert np.array_equal(out.data, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("op,wshape", [
        (ad.exp, 7), (ad.neg, 7),
    ])
    def test_unary_grads(self, op, wshape, rng):
        x = t64(rng.standard_normal(wshape))
        w = rng.standard_normal(wshape)
        assert grad_check(lambda t: ad.mul(op(t), w).sum(), x) < 1e-5

    def test_log_sqrt_grads_on_positive_inputs(self, rng):
        x = t64(rng.random(8) + 0.5)
        w = rng.standard_normal(8)
        assert grad_check(lambda t: ad.mul(ad.log(t), w).sum(), x) < 1e-5
        assert grad_check(lambda t: ad.mul(ad.sqrt(t), w).sum(), x) < 1e-5

    def test_binary_grads_with_broadcast(self, rng):
        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal((1, 4)))
        w = rng.standard_normal((3, 4))
        for op in (ad.add, ad.sub, ad.mul):
            assert grad_check(lambda t: ad.mul(op(t, b), w).sum(), a) < 1e-5
            assert grad_check(lambda t: ad.mul(op(a, t), w).sum(), b) < 1e-5
        bpos = t64(rng.random((1, 4)) + 0.5)
        assert grad_check(lambda t: ad.mul(ad.div(a, t), w).sum(), bpos) < 1e-5


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(t64([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_large_magnitude_stability(self):
        out = ad.softmax(t64([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [1.0, 0.0])

    def test_rows_sum_to_one(self, rng):
        x = t64(rng.standard_normal((5, 7)) * 20)
        out = ad.softmax(x, axis=-1)
        assert np.all(out.data >= 0)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_grad(self, rng):
        x = t64(rng.standard_normal((3, 6)))
        w = rng.standard_normal((3, 6))
        assert grad_check(lambda t: ad.mul(ad.softmax(t, -1), w).sum(), x) < 1e-5

    def test_log_softmax_grad(self, rng):
        x = t64(rng.standard_normal((3, 6)))
        w = rng.standard_normal((3, 6))
        assert grad_check(lambda t: ad.mul(ad.log_softmax(t, -1), w).sum(), x) < 1e-5


class TestLayerNorm:
    def test_constant_token_maps_to_zero(self):
        x = t64(np.full((2, 5), 3.7))
        out = ad.layer_norm(x, t64(np.ones(5)), t64(np.zeros(5)))
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_moments(self, rng):
        x = t64(rng.standard_normal((4, 9)) * 3 + 1)
        out = ad.layer_norm(x, t64(np.ones(9)), t64(np.zeros(9))).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_grads(self, rng):
        x = t64(rng.standard_normal((3, 6)))
        g = t64(rng.standard_normal(6))
        b = t64(rng.standard_normal(6))
        w = rng.standard_normal((3, 6))
        err = grad_check_tensors(lambda: ad.mul(ad.layer_norm(x, g, b), w).sum(), [x, g, b])
        assert err < 1e-5


class TestDropout:
    def test_p_zero_is_identity_object(self, rng):
        x = t64(rng.standard_normal(5))
        assert ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_inference_is_identity_object(self, rng):
        x = t64(rng.standard_normal(5))
        assert ad.dropout(x, 0.9, training=False) is x

    def test_inverted_scaling_preserves_mean(self):
        x = t64(np.ones(100_000))
        out = ad.dropout(x, 0.5, training=True, rng=np.random.default_rng(7))
        assert abs(out.data.mean() - 1.0) < 0.02
        nonzero = out.data[out.data != 0]
        assert np.allclose(nonzero, 2.0)

    def test_grad_through_fixed_mask(self, rng):
        x = t64(rng.standard_normal(40))
        w = rng.standard_normal(40)

        def f(t):
            return ad.mul(ad.dropout(t, 0.25, training=True, rng=np.random.default_rng(3)), w).sum()

        assert grad_check(f, x) < 1e-5


class TestPooling:
    def test_constant_map(self):
        x = t64(np.full((1, 2, 4, 4), 2.5))
        assert np.allclose(ad.avg_pool(x, 2).data, 2.5)

    def test_pool_grads(self, rng):
        x = t64(rng.standard_normal((2, 3, 4, 4)))
        w = rng.standard_normal((2, 3, 2, 2))
        assert grad_check(lambda t: ad.mul(ad.avg_pool(t, 2), w).sum(), x) < 1e-5

    def test_window_must_tile(self):
        with pytest.raises(ShapeMismatch):
            ad.avg_pool(t64(np.zeros((1, 1, 5, 4))), 2)


class TestStructural:
    def test_concat_shapes(self, rng):
        a = t64(rng.standard_normal((3, 4, 2)))
        b = t64(rng.standard_normal((3, 4, 5)))
        assert ad.concat([a, b], axis=2).shape == (3, 4, 7)
        with pytest.raises(ShapeMismatch):
            ad.concat([a, t64(np.zeros((3, 5, 2)))], axis=2)

    def test_concat_grad(self, rng):
        a = t64(rng.standard_normal((2, 3)))
        b = t64(rng.standard_normal((2, 2)))
        w = rng.standard_normal((2, 5))
        err = grad_check_tensors(lambda: ad.mul(ad.concat([a, b], 1), w).sum(), [a, b])
        assert err < 1e-5

    @pytest.mark.parametrize("fn", [
        lambda t: t.reshape(6, 2).sum(),
        lambda t: t.transpose(1, 0).mean(),
        lambda t: ad.narrow(t, 0, 1, 2).sum(),
        lambda t: t.sum(axis=1).sum(),
        lambda t: t.mean(axis=0, keepdims=True).sum(),
    ])
    def test_structural_grads(self, fn, rng):
        x = t64(rng.standard_normal((3, 4)))
        assert grad_check(fn, x) < 1e-5


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = t64(rng.standard_normal((3, 2)))
        with Tape() as tape:
            tape.watch(w)
            backward(w.sum())
        assert np.array_equal(w.grad, np.ones((3, 2)))

    def test_half_sum_of_squares(self):
        w = t64([1.0, 2.0])
        with Tape() as tape:
            tape.watch(w)
            backward(ad.mul(ad.mul(w, w).sum(), 0.5))
        assert np.allclose(w.grad, [1.0, 2.0], atol=1e-12)

    def test_not_scalar(self, rng):
        w = t64(rng.standard_normal(4))
        with Tape() as tape:
            tape.watch(w)
            out = ad.mul(w, 2.0)
            with pytest.raises(NotScalar):
                backward(out)

    def test_detached(self, rng):
        loss = t64([1.0]).sum()
        with pytest.raises(DetachedTensor):
            backward(loss)

    def test_unreachable_leaf_gets_zero_grad(self, rng):
        used = t64(rng.standard_normal(3))
        unused = t64(rng.standard_normal(5))
        with Tape() as tape:
            tape.watch(used)
            tape.watch(unused)
            backward(used.sum())
        assert np.array_equal(unused.grad, np.zeros(5))

    def test_shared_input_accumulates(self):
        x = t64([3.0])
        with Tape() as tape:
            tape.watch(x)
            backward(ad.mul(x, x).sum())  # d(x^2)/dx = 2x
        assert np.allclose(x.grad, [6.0], atol=1e-12)

    def test_backward_empties_the_tape(self, rng):
        x = t64(rng.standard_normal((2, 3)))
        with Tape() as tape:
            tape.watch(x)
            backward(ad.gelu(ad.mul(x, x)).sum())
        assert tape.nodes == []

    def test_activations_freed_without_garbage_collection(self, rng):
        x = t64(rng.standard_normal((2, 3)))
        gc.disable()
        try:
            with Tape() as tape:
                tape.watch(x)
                hidden = ad.gelu(ad.mul(x, 2.0))
                ref = weakref.ref(hidden.data)
                loss = ad.mul(hidden, hidden).sum()
                backward(loss)
            del hidden, loss
            assert ref() is None
        finally:
            gc.enable()

    def test_second_backward_on_a_tape_raises(self, rng):
        x = t64(rng.standard_normal(3))
        with Tape() as tape:
            tape.watch(x)
            loss = ad.mul(x, x).sum()
            backward(loss)
            with pytest.raises(DetachedTensor):
                backward(loss)
        assert np.allclose(x.grad, 2.0 * x.data, atol=1e-12)


class TestFiniteGuard:
    def test_overflow_raises(self):
        with pytest.raises(NonFiniteValue):
            ad.exp(t64([1000.0]))

    def test_log_of_zero_raises(self):
        with pytest.raises(NonFiniteValue):
            ad.log(t64([0.0]))

    def test_div_by_zero_raises(self):
        with pytest.raises(NonFiniteValue):
            ad.div(t64([1.0]), t64([0.0]))


class TestTensorBasics:
    def test_storage_is_contiguous_row_major(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        assert x.data.flags["C_CONTIGUOUS"]
        assert x.size == 24 and x.shape == (2, 3, 4)

    def test_dtype_default_is_f32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_grad_matches_shape_after_backward(self, rng):
        x = t64(rng.standard_normal((2, 2)))
        with Tape() as tape:
            tape.watch(x)
            backward(ad.gelu(x).sum())
        assert x.grad.shape == x.data.shape
