"""Tensor ops: forward semantics, error conditions, and finite-difference
gradient checks for every differentiable op."""

import contextlib
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import erf, expit

import tfcns.autodiff as ad
import tfcns.layers as L
from tfcns.autodiff import Tape, Tensor, backward, grad_check, grad_check_tensors
from tfcns.errors import DetachedTensor, NonFiniteValue, NotScalar, ShapeMismatch

from oracles import conv2d_direct, conv2d_grads_direct, conv_transpose2d_direct, dense_block_direct, erf_series

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
        assert grad_check(lambda t: ad.reduce_sum(ad.matmul(t, b)), x) < 1e-6
        a = t64(rng.standard_normal((4, 5)))
        y = t64(rng.standard_normal((5, 3)))
        assert grad_check(lambda t: ad.reduce_sum(ad.matmul(a, t)), y) < 1e-6

    def test_matrix_applied_to_every_leading_slot_grad(self, rng):
        a = t64(rng.standard_normal((2, 3, 4)))
        b = t64(rng.standard_normal((4, 5)))
        w = rng.standard_normal((2, 3, 5))
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.matmul(t, b), w)), a) < 1e-6
        # b's gradient sums over every leading slot of a
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.matmul(a, t), w)), b) < 1e-6

    @pytest.mark.parametrize("ashape,bshape", [
        ((2, 3, 4), (3, 4, 5)),
        ((3, 4), (2, 4, 5)),
        ((4,), (4, 5)),
        ((2, 4), (4,)),
    ], ids=["leading_dims_differ", "rank2_times_batched", "rank1_a", "rank1_b"])
    def test_operand_shape_mismatch(self, ashape, bshape):
        with pytest.raises(ShapeMismatch):
            ad.matmul(t64(np.ones(ashape)), t64(np.ones(bshape)))

    def test_batched_grad(self, rng):
        a = t64(rng.standard_normal((2, 3, 4)))
        b = t64(rng.standard_normal((2, 4, 3)))
        w = rng.standard_normal((2, 3, 3))
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.matmul(t, b), w)), a) < 1e-6
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.matmul(a, t), w)), b) < 1e-6


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
        out = ad.conv2d(x, w, b)
        assert np.allclose(out.data[:, 0], 0.5) and np.allclose(out.data[:, 1], -1.5)

    def test_output_geometry(self):
        x = t64(np.zeros((1, 1, 8, 6)))
        for k in (1, 3, 5):
            assert ad.conv2d(x, t64(np.zeros((2, 1, k, k))), t64(np.zeros(2))).shape == (1, 2, 8, 6)

    @pytest.mark.parametrize("kh,kw", [(2, 2), (3, 2)])
    def test_rejects_an_even_kernel_side(self, kh, kw):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(t64(np.zeros((1, 1, 8, 8))), t64(np.zeros((1, 1, kh, kw))))

    def test_grads_vs_finite_differences(self, rng):
        x = t64(rng.standard_normal((1, 1, 5, 5)))
        w = t64(rng.standard_normal((2, 1, 3, 3)))
        b = t64(rng.standard_normal(2))
        wc = rng.standard_normal((1, 2, 5, 5))
        err = grad_check_tensors(lambda: ad.reduce_sum(ad.mul(ad.conv2d(x, w, b), wc)), [x, w, b])
        assert err < 1e-5

    # (B, C, H, W), (O, kh, kw); the oracle pads by kh // 2, as conv2d does
    ORACLE_CASES = {
        "dense_layer": ((2, 20, 6, 6), (8, 3, 3)),
        "stem": ((2, 1, 7, 7), (24, 3, 3)),
        "one_by_one": ((2, 5, 4, 4), (3, 1, 1)),
        "non_square": ((2, 3, 5, 8), (4, 3, 3)),
        "kernel_larger_than_map": ((1, 2, 3, 4), (2, 5, 5)),
    }

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_forward_matches_direct_loops(self, case, rng):
        (bsz, c, h, w), (o, kh, kw) = self.ORACLE_CASES[case]
        x = rng.standard_normal((bsz, c, h, w))
        wt = rng.standard_normal((o, c, kh, kw))
        b = rng.standard_normal(o)
        out = ad.conv2d(t64(x), t64(wt), t64(b)).data
        assert np.allclose(out, conv2d_direct(x, wt, b, padding=kh // 2), rtol=0, atol=1e-12)
        x, wt, b = (a.astype(np.float32) for a in (x, wt, b))
        out = ad.conv2d(Tensor(x), Tensor(wt), Tensor(b)).data
        # float32 rounding scales with the summed magnitudes, not with the result
        scale = conv2d_direct(np.abs(x), np.abs(wt), np.abs(b), padding=kh // 2)
        assert out.dtype == np.float32
        assert np.all(np.abs(out - conv2d_direct(x, wt, b, padding=kh // 2)) <= 1e-5 * scale)

    @pytest.mark.parametrize("case", ["kernel_larger_than_map", "non_square"])
    def test_grads_match_finite_differences_on_oracle_cases(self, case, rng):
        (bsz, c, h, w), (o, kh, kw) = self.ORACLE_CASES[case]
        x = t64(rng.standard_normal((bsz, c, h, w)))
        wt = t64(rng.standard_normal((o, c, kh, kw)))
        b = t64(rng.standard_normal(o))
        probe = rng.standard_normal((bsz, o, h, w))
        err = grad_check_tensors(lambda: ad.reduce_sum(ad.mul(ad.conv2d(x, wt, b), probe)), [x, wt, b])
        assert err < 1e-5

    @staticmethod
    def band_elems(rows, kernel, out_channels, in_channels, width):
        """A _BAND_ELEMS value that gives ``rows`` input rows per band."""
        return rows * max(kernel * kernel * out_channels, in_channels) * width

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("padding, stride, kernel", [(0, 1, 1), (1, 1, 3), (2, 1, 5)])
    def test_row_bands_match_direct_loops(self, rows, bsz, padding, stride, kernel, rng, monkeypatch):
        """conv2d is the loop oracle's "same" geometry: padding k // 2, stride 1."""
        x = rng.standard_normal((bsz, 3, 9, 5))
        wt = rng.standard_normal((4, 3, kernel, kernel))
        b = rng.standard_normal(4)
        one_band = ad.conv2d(t64(x), t64(wt), t64(b)).data
        monkeypatch.setattr(ad, "_BAND_ELEMS", self.band_elems(rows, kernel, 4, 3, 5))
        xt, wtt, bt = t64(x), t64(wt), t64(b)
        with Tape() as tape:
            for t in (xt, wtt, bt):
                tape.watch(t)
            out = ad.conv2d(xt, wtt, bt)
            probe = rng.standard_normal(out.shape)
            backward(ad.reduce_sum(ad.mul(out, probe)))
        assert np.array_equal(out.data, one_band)  # taps still reach each output in (i, j) order
        assert np.allclose(out.data, conv2d_direct(x, wt, b, stride, padding), rtol=0, atol=1e-12)
        grads = conv2d_grads_direct(x, wt, probe, stride, padding)
        for got, want in zip((xt.grad, wtt.grad, bt.grad), grads):
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sample_bands_are_bit_identical_to_one_band(self, dtype, rng, monkeypatch):
        x = Tensor(rng.standard_normal((5, 3, 6, 7)), dtype=dtype)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=dtype)
        b = Tensor(rng.standard_normal(4), dtype=dtype)
        probe = rng.standard_normal((5, 4, 6, 7)).astype(dtype)
        results = []
        for band_elems in (ad._BAND_ELEMS, 2 * 36 * 6 * 7):  # two whole samples per band
            monkeypatch.setattr(ad, "_BAND_ELEMS", band_elems)
            with Tape() as tape:
                for t in (x, w, b):
                    tape.watch(t)
                out = ad.conv2d(x, w, b)
                backward(ad.reduce_sum(ad.mul(out, probe)))
            results.append([out.data, x.grad, w.grad, b.grad])
        for one, banded in zip(*results):
            assert np.array_equal(one, banded)

    def test_backward_allocates_less_than_a_full_per_tap_gradient(self, rng):
        c, o, hw = 16, 32, 128
        x = rng.standard_normal((1, c, hw, hw)).astype(np.float32)
        w = rng.standard_normal((o, c, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, o, hw, hw)).astype(np.float32)
        per_tap = 9 * o * hw * hw * 4  # the kn2row GEMM output of the whole map
        tracemalloc.start()
        try:
            out, ctx = ad._conv2d_forward(x, w, None)
            base, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            grads = ad._conv2d_backward(g, ctx)
            bwd_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fwd_peak < out.nbytes + per_tap // 2
        assert bwd_peak - base < sum(a.nbytes for a in grads if a is not None) + per_tap // 2


class TestConvTranspose2d:
    def test_ones_kernel_broadcasts_value(self):
        x = t64(np.full((1, 1, 1, 1), 3.25))
        w = t64(np.ones((1, 1, 2, 2)))
        b = t64(np.zeros(1))
        out = ad.conv_transpose2d(x, w, b)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 3.25))

    def test_zero_input_gives_bias(self):
        x = t64(np.zeros((1, 2, 3, 3)))
        w = t64(np.ones((2, 1, 2, 2)))
        b = t64([0.75])
        out = ad.conv_transpose2d(x, w, b)
        assert np.allclose(out.data, 0.75)

    def test_grads_vs_finite_differences(self, rng):
        x = t64(rng.standard_normal((1, 2, 3, 3)))
        w = t64(rng.standard_normal((2, 3, 2, 2)))
        b = t64(rng.standard_normal(3))
        wc = rng.standard_normal((1, 3, 6, 6))
        err = grad_check_tensors(lambda: ad.reduce_sum(ad.mul(ad.conv_transpose2d(x, w, b), wc)), [x, w, b])
        assert err < 1e-5

    def test_forward_matches_direct_loops(self, rng):
        x = rng.standard_normal((2, 5, 4, 6))
        w = rng.standard_normal((5, 3, 2, 2))
        b = rng.standard_normal(3)
        out = ad.conv_transpose2d(t64(x), t64(w), t64(b))
        assert out.shape == (2, 3, 8, 12)
        assert np.allclose(out.data, conv_transpose2d_direct(x, w, b, 2), rtol=0, atol=1e-12)

    def test_stride_is_the_kernel_side(self, rng):
        x = rng.standard_normal((1, 2, 2, 3))
        w = rng.standard_normal((2, 3, 3, 3))
        out = ad.conv_transpose2d(t64(x), t64(w))
        assert out.shape == (1, 3, 6, 9)
        assert np.allclose(out.data, conv_transpose2d_direct(x, w, None, 3), rtol=0, atol=1e-12)

    def test_rejects_a_non_square_kernel(self):
        with pytest.raises(ShapeMismatch):
            ad.conv_transpose2d(t64(np.zeros((1, 2, 3, 3))), t64(np.zeros((2, 1, 2, 3))))


def per_layer_chain(inputs, weights, biases, p, rng):
    """A dense block as separate tape ops: each layer is conv2d -> gelu ->
    dropout, and its output is concatenated onto everything before it."""
    feats = inputs[0] if len(inputs) == 1 else ad.concat(inputs, axis=1)
    for w, b in zip(weights, biases):
        new = ad.dropout(ad.gelu(ad.conv2d(feats, w, b)), p, rng)
        feats = ad.concat([feats, new], axis=1)
    return feats


class TestDenseBlock:
    @staticmethod
    def _case(rng, dtype, channels, growth=3, n_layers=3, bsz=2, h=5, w=6):
        inputs = [Tensor(rng.standard_normal((bsz, c, h, w)), dtype=dtype) for c in channels]
        c0 = sum(channels)
        weights = [Tensor(0.3 * rng.standard_normal((growth, c0 + i * growth, 3, 3)), dtype=dtype)
                   for i in range(n_layers)]
        biases = [Tensor(rng.standard_normal(growth), dtype=dtype) for _ in range(n_layers)]
        return inputs, weights, biases

    @pytest.mark.parametrize("channels", [(4,), (3, 2)])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_forward_matches_direct_oracle(self, channels, p, rng):
        inputs, weights, biases = self._case(rng, F64, channels)
        out = ad.dense_block(list(inputs), weights, biases, p, np.random.default_rng(3))
        expected = dense_block_direct([x.data for x in inputs], [w.data for w in weights],
                                      [b.data for b in biases], p, np.random.default_rng(3) if p else None)
        assert out.shape == (2, sum(channels) + 9, 5, 6)
        assert np.allclose(out.data, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [(4,), (3, 2)])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_bit_identical_to_per_layer_chain(self, dtype, channels, p, rng):
        inputs, weights, biases = self._case(rng, dtype, channels)
        tensors = inputs + weights + biases
        probe = rng.standard_normal((2, sum(channels) + 9, 5, 6)).astype(dtype)
        results = []
        for op in (ad.dense_block, per_layer_chain):
            with Tape() as tape:
                for t in tensors:
                    tape.watch(t)
                out = op(list(inputs), weights, biases, p, np.random.default_rng(3))
                backward(ad.reduce_sum(ad.mul(out, probe)))
            results.append([out.data] + [t.grad for t in tensors])
        for fused, chain in zip(*results):
            assert fused.dtype == chain.dtype == dtype
            assert np.array_equal(fused, chain)

    def test_zero_layers_join_inputs(self, rng):
        a, b = t64(rng.standard_normal((2, 2, 3, 3))), t64(rng.standard_normal((2, 1, 3, 3)))
        probe = rng.standard_normal((2, 3, 3, 3))
        with Tape() as tape:
            tape.watch(a)
            tape.watch(b)
            out = ad.dense_block([a, b], [], [], 0.5, np.random.default_rng(0))
            backward(ad.reduce_sum(ad.mul(out, probe)))
        assert np.array_equal(out.data, np.concatenate([a.data, b.data], axis=1))
        assert np.array_equal(a.grad, probe[:, :2]) and np.array_equal(b.grad, probe[:, 2:])

    @pytest.mark.parametrize("p, with_rng", [(0.0, False), (0.2, True)])
    @pytest.mark.parametrize("under_tape", [False, True], ids=["no-tape", "tape-nothing-attached"])
    def test_untaped_peak_is_buffer_plus_one_layer(self, p, with_rng, under_tape, rng):
        growth, hw = 4, 64 * 64
        inputs, weights, biases = self._case(rng, F64, (8,), growth=growth, n_layers=6, bsz=1, h=64, w=64)
        tape = Tape()
        tracemalloc.start()
        try:
            with tape if under_tape else contextlib.nullcontext():
                out = ad.dense_block(inputs, weights, biases, p, np.random.default_rng(3) if with_rng else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one layer: the kn2row per-tap outputs (9 g-channel maps), then the conv
        # output, GELU cdf, GELU output and one temporary
        layer = (9 + 4) * growth * hw * 8
        assert peak < out.data.nbytes + layer
        assert tape.nodes == [] and out._tape is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_several_bands_bit_identical_to_per_layer_chain(self, dtype, rng, monkeypatch):
        inputs, weights, biases = self._case(rng, dtype, (3, 2), h=7)
        tensors = inputs + weights + biases
        probe = rng.standard_normal((2, 14, 7, 6)).astype(dtype)
        results = []
        for op, band_elems in ((ad.dense_block, ad._BAND_ELEMS), (ad.dense_block, 2 * 9 * 3 * 6),
                               (per_layer_chain, 2 * 9 * 3 * 6)):
            monkeypatch.setattr(ad, "_BAND_ELEMS", band_elems)  # two input rows per band
            with Tape() as tape:
                for t in tensors:
                    tape.watch(t)
                out = op(list(inputs), weights, biases, 0.3, np.random.default_rng(3))
                backward(ad.reduce_sum(ad.mul(out, probe)))
            results.append([out.data] + [t.grad for t in tensors])
        one_band, fused, chain = results
        for f, c in zip(fused, chain):
            assert np.array_equal(f, c)
        assert np.array_equal(fused[0], one_band[0])
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for f, o in zip(fused[1:], one_band[1:]):  # weight sums are reassociated across bands
            assert np.allclose(f, o, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_taped_keeps_buffer_plus_slope_and_mask_per_slot(self, dtype, p, rng):
        growth, n_layers, hw = 4, 6, 64 * 64
        inputs, weights, biases = self._case(rng, dtype, (8,), growth=growth, n_layers=n_layers,
                                             bsz=1, h=64, w=64)
        with Tape() as tape:
            for t in inputs + weights + biases:
                tape.watch(t)
            tracemalloc.start()
            try:
                out = ad.dense_block(inputs, weights, biases, p, np.random.default_rng(3))
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        slot = growth * hw
        # a few KB of Python objects (the node, the band lists) ride along
        assert kept < out.data.nbytes + n_layers * slot * (np.dtype(dtype).itemsize + 1) + 64 * 1024
        assert len(tape.nodes) == 1

    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    @pytest.mark.parametrize("via", ["op", "layer"])
    def test_inputs_are_freed_before_the_first_conv(self, taped, via, rng, monkeypatch):
        block = L.DenseBlock(5, 3, 2, np.random.default_rng(0))
        weights, biases = [c.weight for c in block.convs], [c.bias for c in block.convs]
        leaves = [t64(rng.standard_normal((2, c, 5, 6))) for c in (3, 2)]
        first_conv = []
        real_conv = ad._conv2d_forward

        def conv(xd, wd, bd):
            if not first_conv:
                first_conv.append([ref() is None for ref in refs])
            return real_conv(xd, wd, bd)

        monkeypatch.setattr(ad, "_conv2d_forward", conv)
        with Tape() if taped else contextlib.nullcontext() as tape:
            if taped:
                for t in leaves + weights + biases:
                    tape.watch(t)
            inputs = [ad.mul(t, 2.0) for t in leaves]  # the tape keeps leaves, not op outputs
            refs = [weakref.ref(t.data) for t in inputs]
            if via == "op":
                out = ad.dense_block(inputs, weights, biases, 0.2, np.random.default_rng(3))
            else:
                out = block(inputs, np.random.default_rng(3))
            assert inputs == [] and first_conv == [[True, True]]
            if taped:  # the node still records its input ids, so gradients reach the leaves
                node = tape.nodes[-1]
                assert node.op == "dense_block" and None not in node.input_ids[:2]
                backward(ad.reduce_sum(out))
                assert all(np.all(t.grad != 0) for t in leaves)

    def test_rejects_mismatched_inputs_and_weights(self, rng):
        inputs, weights, biases = self._case(rng, F64, (2, 1))
        with pytest.raises(ShapeMismatch):
            ad.dense_block([inputs[0], t64(np.zeros((2, 1, 4, 6)))], weights, biases, 0.0)
        with pytest.raises(ShapeMismatch):
            ad.dense_block(inputs[:1], weights, biases, 0.0)
        with pytest.raises(ShapeMismatch):
            ad.dense_block(inputs, [t64(np.zeros((3, 3, 1, 1)))], biases[:1], 0.0)


def copying_dense_block(inputs, weights, biases, p, rng):
    """dense_block whose backward copies its gradient before adding into it,
    on a node that does not ask backward() for an owned array."""
    out = ad.dense_block(inputs, weights, biases, p, rng)
    node = out._tape.nodes[-1]
    assert node.output_id == out.tape_id and node.writes_grad
    inner = node.backward
    node.backward, node.writes_grad = (lambda g: inner(g.copy())), False
    return out


class TestGradientOwnership:
    """dense_block adds into the gradient it receives, so backward() must hand
    it an array nothing else holds. Each graph runs with dense_block and with
    a copying dense_block, and, where its sums associate the same way, with
    the per-layer chain (which writes into no gradient it receives); every
    gradient must match bit for bit."""

    @staticmethod
    def _block(rng, channels, growth=3, n_layers=2):
        return TestDenseBlock._case(rng, F64, channels, growth=growth, n_layers=n_layers)

    @staticmethod
    def _assert_same_grads(graph, tensors, chain=True):
        results = []
        for op in (ad.dense_block, copying_dense_block) + ((per_layer_chain,) if chain else ()):
            with Tape() as tape:
                for t in tensors:
                    tape.watch(t)
                backward(graph(op))
            results.append([t.grad for t in tensors])
        for fused, *others in zip(*results):
            assert all(np.array_equal(fused, other) for other in others)

    def test_one_gradient_reaching_two_blocks(self, rng):
        ins_a, w_a, b_a = self._block(rng, (4,))
        ins_b, w_b, b_b = self._block(rng, (3, 1))
        probe = rng.standard_normal((2, 10, 5, 6))

        def graph(op):  # add hands the one array mul's backward made to both blocks
            out_a = op(list(ins_a), w_a, b_a, 0.3, np.random.default_rng(1))
            out_b = op(list(ins_b), w_b, b_b, 0.3, np.random.default_rng(2))
            return ad.reduce_sum(ad.mul(ad.add(out_a, out_b), probe))

        self._assert_same_grads(graph, ins_a + w_a + b_a + ins_b + w_b + b_b)

    def test_output_fanning_out_to_two_ops(self, rng):
        inputs, weights, biases = self._block(rng, (3, 2))
        p1, p2 = rng.standard_normal((2, 2, 11, 5, 6))

        def graph(op):  # the block's gradient is a sum of two, added in place
            out = op(list(inputs), weights, biases, 0.3, np.random.default_rng(1))
            return ad.add(ad.reduce_sum(ad.mul(out, p1)), ad.reduce_sum(ad.mul(ad.sigmoid(out), p2)))

        self._assert_same_grads(graph, inputs + weights + biases)

    def test_output_fanning_out_to_two_blocks(self, rng):
        inputs, weights, biases = self._block(rng, (4,))
        _, w_a, b_a = self._block(rng, (10,))
        _, w_b, b_b = self._block(rng, (10, 2))
        side = t64(rng.standard_normal((2, 2, 5, 6)))
        p_a, p_b = rng.standard_normal((2, 16, 5, 6)), rng.standard_normal((2, 18, 5, 6))

        def graph(op):  # each consumer hands back a view of its own gradient
            out = op(list(inputs), weights, biases, 0.3, np.random.default_rng(1))
            out_a = op([out], w_a, b_a, 0.3, np.random.default_rng(2))
            out_b = op([out, side], w_b, b_b, 0.3, np.random.default_rng(3))
            return ad.add(ad.reduce_sum(ad.mul(out_a, p_a)), ad.reduce_sum(ad.mul(out_b, p_b)))

        # the chain sums the shared input's gradient over more nodes, in another order
        self._assert_same_grads(graph, inputs + weights + biases + w_a + b_a + w_b + b_b + [side], chain=False)

    def test_reshaped_output(self, rng):
        inputs, weights, biases = self._block(rng, (4,))
        probe = rng.standard_normal((2, 10 * 5 * 6))

        def graph(op):  # the block receives a view of reshape's gradient
            out = op(list(inputs), weights, biases, 0.3, np.random.default_rng(1))
            return ad.reduce_sum(ad.mul(ad.reshape(out, (2, -1)), probe))

        self._assert_same_grads(graph, inputs + weights + biases)

    def test_gradient_passed_on_by_add_with_a_constant(self, rng):
        inputs, weights, biases = self._block(rng, (4,))
        probe = rng.standard_normal((2, 10, 5, 6))

        def graph(op):  # add hands its owned gradient to its one tensor operand
            out = op(list(inputs), weights, biases, 0.3, np.random.default_rng(1))
            return ad.reduce_sum(ad.mul(ad.add(ad.add(out, -0.5), probe), probe))

        self._assert_same_grads(graph, inputs + weights + biases)

    def test_shared_gradient_handed_on_by_add_with_a_constant(self, rng):
        ins_a, w_a, b_a = self._block(rng, (4,))
        ins_b, w_b, b_b = self._block(rng, (3, 1))
        probe = rng.standard_normal((2, 10, 5, 6))

        def graph(op):  # the inner add hands on the array the outer add hands to out_b too;
            # block a runs first in backward
            out_b = op(list(ins_b), w_b, b_b, 0.3, np.random.default_rng(2))
            out_a = op(list(ins_a), w_a, b_a, 0.3, np.random.default_rng(1))
            return ad.reduce_sum(ad.mul(ad.add(ad.add(out_a, -0.5), out_b), probe))

        self._assert_same_grads(graph, ins_a + w_a + b_a + ins_b + w_b + b_b)

    def test_one_array_handed_to_two_inputs_is_not_summed_into(self, rng):
        x, z = t64(rng.standard_normal((3, 4))), t64(rng.standard_normal((3, 4)))
        w = rng.standard_normal((3, 4))
        with Tape() as tape:
            tape.watch(x)
            tape.watch(z)
            mx, mz = ad.mul(x, w), ad.mul(z, w)
            s = ad.add(x, z)  # its backward hands one array to x and to z, before mx and mz
            backward(ad.reduce_sum(ad.mul(ad.add(ad.add(s, mx), mz), w)))
        assert np.array_equal(x.grad, w + w * w) and np.array_equal(z.grad, w + w * w)


class TestElementwise:
    def test_taped_gelu_keeps_one_array(self, rng):
        w = Tensor(rng.standard_normal((4, 64, 64)))
        with Tape() as tape:
            tape.watch(w)
            tracemalloc.start()
            try:
                x = ad.mul(w, 2.0)
                y = ad.gelu(x)
                nbytes = x.data.nbytes
                del x  # freed unless the gelu node keeps its input
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        # the output plus the slope; the input and the CDF are gone
        assert 2 * nbytes <= kept < 2.5 * nbytes
        assert len(tape.nodes) == 2 and y.shape == w.shape

    def test_gelu_zero(self):
        assert ad.gelu(t64([0.0])).data[0] == 0.0

    def test_gelu_asymptote(self):
        assert abs(ad.gelu(t64([6.0])).data[0] - 6.0) < 1e-6

    def test_gelu_against_erf_series(self):
        expected = 1.0 * 0.5 * (1.0 + erf_series(1.0 / np.sqrt(2.0)))
        assert abs(ad.gelu(t64([1.0])).data[0] - expected) < 1e-12

    def test_float64_erf_within_one_ulp_of_scipy(self):
        edges = [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 8.0, -8.0, 0.0, -0.0, 1e-300]
        x = np.concatenate([np.linspace(-10.0, 10.0, 2_000_001), edges])
        got, want = ad._erf(x.copy()), erf(x)
        assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 1.0
        assert np.isnan(ad._erf(np.array([np.nan, 0.5]))[0])

    def test_float32_erf_and_gelu_error_against_float64(self):
        x = np.linspace(-10.0, 10.0, 2_000_001).astype(np.float32)
        want = erf(x.astype(F64))
        ulps = np.abs(ad._erf(x.copy()) - want) / np.spacing(np.abs(want).astype(np.float32))
        assert ulps.max() <= 8.0
        x = np.linspace(-30.0, 30.0, 4_000_001).astype(np.float32)
        y32, y64 = ad.gelu(Tensor(x)).data, ad.gelu(t64(x)).data
        assert y32.dtype == np.float32
        assert np.max(np.abs(y32 - y64)) <= 1.4e-6  # scipy's float32 erf gave 4.5e-7

    @pytest.mark.parametrize("dtype,limit", [(np.float32, 100.0), (np.float64, 800.0)])
    def test_sigmoid_within_four_ulp_of_scipy(self, dtype, limit):
        # both overflow exp(-x) to inf below about -88.7 (float32) or -709.8 (float64) and give 0
        x = np.linspace(-limit, limit, 4_000_001).astype(dtype)
        got, want = ad.sigmoid(Tensor(x)).data, expit(x)
        assert got.dtype == dtype
        assert np.array_equal(got == 0, want == 0)
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 4.0

    @pytest.mark.parametrize("dtype,big", [(np.float32, 1e20), (np.float64, 1e200)])
    def test_taped_gelu_of_huge_inputs_without_warnings(self, dtype, big):
        x = Tensor(np.array([-big, big, 0.0]), dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                tape.watch(x)
                backward(ad.reduce_sum(ad.gelu(x)))
        assert np.array_equal(x.grad, [0.0, 1.0, 0.5])

    def test_gelu_grad(self, rng):
        x = t64(rng.standard_normal(11))
        w = rng.standard_normal(11)
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.gelu(t), w)), x) < 1e-5

    def test_sigmoid_center_and_grad(self, rng):
        assert ad.sigmoid(t64([0.0])).data[0] == 0.5
        x = t64(rng.standard_normal(9))
        w = rng.standard_normal(9)
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.sigmoid(t), w)), x) < 1e-5

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

    def test_sigmoid_backward_allocates_two_maps(self, rng):
        x = Tensor(rng.standard_normal((1, 72, 224, 224)), dtype=np.float32)  # the last skip gate at 224x224
        g = rng.standard_normal(x.shape).astype(np.float32)
        with Tape() as tape:
            tape.watch(x)
            ad.sigmoid(x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            (gx,) = tape.nodes[-1].backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the gradient plus one temporary (1 - s)
        assert peak - base <= 2 * gx.nbytes + 64 * 1024

    def test_grad_check_restores_input_when_a_probe_raises(self):
        x = t64([0.5, 1e-5, 2.0])
        ones = t64(np.ones(3))
        before = x.data.copy()
        with pytest.raises(NonFiniteValue):  # 1 / (1e-5 - eps) divides by exactly 0 on the minus probe
            grad_check(lambda t: ad.reduce_sum(ad.div(ones, t)), x, eps=1e-5)
        assert np.array_equal(x.data, before)

    def test_taped_layer_norm_keeps_the_normalized_map_and_output(self, rng):
        x = Tensor(rng.standard_normal((1, 196, 384)), dtype=np.float32)
        gamma = Tensor(rng.standard_normal(384), dtype=np.float32)
        beta = Tensor(rng.standard_normal(384), dtype=np.float32)
        with Tape() as tape:
            for t in (x, gamma, beta):
                tape.watch(t)
            tracemalloc.start()
            try:
                y = ad.layer_norm(x, gamma, beta)
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        # normalize keeps its output and add keeps no operand: not the mul output
        assert kept <= 600 * 1024 and len(tape.nodes) == 3 and y.shape == x.shape

    def test_binary_grads_with_broadcast(self, rng):
        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal((1, 4)))
        w = rng.standard_normal((3, 4))
        for op in (ad.add, ad.mul):
            assert grad_check(lambda t: ad.reduce_sum(ad.mul(op(t, b), w)), a) < 1e-5
            assert grad_check(lambda t: ad.reduce_sum(ad.mul(op(a, t), w)), b) < 1e-5
        bpos = t64(rng.random((1, 4)) + 0.5)
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.div(a, t), w)), bpos) < 1e-5

    @pytest.mark.parametrize("op,np_op", [(ad.add, np.add), (ad.mul, np.multiply), (ad.div, np.divide)])
    @pytest.mark.parametrize("const", [1.7, np.array(1.7), np.array([[0.5], [1.5], [2.5]])],
                             ids=["python_float", "0d_float64", "broadcast_float64"])
    def test_constant_operand_keeps_float32_and_gets_no_gradient(self, op, np_op, const, rng):
        x = Tensor(rng.standard_normal((3, 4)), dtype=np.float32)
        with Tape() as tape:
            tape.watch(x)
            out = op(x, const)
            node = tape.nodes[-1]
            backward(ad.reduce_sum(out))
        assert out.dtype == np.float32 and x.grad.dtype == np.float32
        assert np.array_equal(out.data, np_op(x.data, np.asarray(const, dtype=np.float32)))
        assert node.input_ids[1] is None and node.backward(np.ones_like(out.data))[1] is None


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
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, -1), w)), x) < 1e-5

    def test_log_softmax_grad(self, rng):
        x = t64(rng.standard_normal((3, 6)))
        w = rng.standard_normal((3, 6))
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.log_softmax(t, -1), w)), x) < 1e-5


def _unit_norm(op: str, x: Tensor) -> Tensor:
    """``op`` over the last axis: normalize, or layer_norm with the identity affine."""
    d = x.shape[-1]
    return ad.normalize(x, 1e-6) if op == "normalize" else ad.layer_norm(x, t64(np.ones(d)), t64(np.zeros(d)))


@pytest.mark.parametrize("op", ["layer_norm", "normalize"])
class TestLayerNorm:
    """layer_norm is normalize (eps 1e-6) over the last axis, then an affine."""

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3, 5)])
    def test_constant_token_maps_to_zero(self, op, shape):
        out = _unit_norm(op, t64(np.full(shape, 3.7)))
        assert np.allclose(out.data, 0.0, atol=1e-6)

    @pytest.mark.parametrize("shape", [(4, 9), (2, 3, 9)])
    def test_moments(self, op, shape, rng):
        out = _unit_norm(op, t64(rng.standard_normal(shape) * 3 + 1)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)

    @pytest.mark.parametrize("shape", [(3, 6), (2, 3, 6)])
    def test_grads(self, op, shape, rng):
        x = t64(rng.standard_normal(shape))
        w = rng.standard_normal(shape)
        if op == "normalize":
            err = grad_check(lambda t: ad.reduce_sum(ad.mul(ad.normalize(t, 1e-5), w)), x)
        else:
            g = t64(rng.standard_normal(shape[-1]))
            b = t64(rng.standard_normal(shape[-1]))
            err = grad_check_tensors(lambda: ad.reduce_sum(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b])
        assert err < 1e-5


class TestDropout:
    def test_p_zero_is_identity_object(self, rng):
        x = t64(rng.standard_normal(5))
        assert ad.dropout(x, 0.0, rng=np.random.default_rng(0)) is x

    def test_inference_is_identity_object(self, rng):
        x = t64(rng.standard_normal(5))
        assert ad.dropout(x, 0.9) is x

    def test_inverted_scaling_preserves_mean(self):
        x = t64(np.ones(100_000))
        out = ad.dropout(x, 0.5, rng=np.random.default_rng(7))
        assert abs(out.data.mean() - 1.0) < 0.02
        nonzero = out.data[out.data != 0]
        assert np.allclose(nonzero, 2.0)

    def test_taped_dropout_keeps_a_bool_mask(self, rng):
        x = t64(rng.standard_normal((4, 64, 64)))
        with Tape() as tape:
            tape.watch(x)
            tracemalloc.start()
            try:
                y = ad.dropout(x, 0.3, np.random.default_rng(0))
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert kept < y.data.nbytes + 1.5 * x.size  # the output plus one byte per element

    def test_grad_through_fixed_mask(self, rng):
        x = t64(rng.standard_normal(40))
        w = rng.standard_normal(40)

        def f(t):
            return ad.reduce_sum(ad.mul(ad.dropout(t, 0.25, rng=np.random.default_rng(3)), w))

        assert grad_check(f, x) < 1e-5


class TestPooling:
    def test_constant_map(self):
        x = t64(np.full((1, 2, 4, 4), 2.5))
        assert np.allclose(ad.avg_pool(x).data, 2.5)

    def test_pool_grads(self, rng):
        x = t64(rng.standard_normal((2, 3, 4, 4)))
        w = rng.standard_normal((2, 3, 2, 2))
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.avg_pool(t), w)), x) < 1e-5

    def test_window_must_tile(self):
        with pytest.raises(ShapeMismatch):
            ad.avg_pool(t64(np.zeros((1, 1, 5, 4))))


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
        err = grad_check_tensors(lambda: ad.reduce_sum(ad.mul(ad.concat([a, b], 1), w)), [a, b])
        assert err < 1e-5

    @pytest.mark.parametrize("fn", [
        lambda t: ad.reduce_sum(ad.reshape(t, (6, 2))),
        lambda t: ad.reduce_mean(ad.transpose(t, (1, 0))),
        lambda t: ad.reduce_sum(ad.narrow(t, 0, 1, 2)),
        lambda t: ad.reduce_sum(ad.reduce_sum(t, axis=1)),
        lambda t: ad.reduce_sum(ad.reduce_mean(t, axis=0)),
    ])
    def test_structural_grads(self, fn, rng):
        x = t64(rng.standard_normal((3, 4)))
        assert grad_check(fn, x) < 1e-5


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = t64(rng.standard_normal((3, 2)))
        with Tape() as tape:
            tape.watch(w)
            backward(ad.reduce_sum(w))
        assert np.array_equal(w.grad, np.ones((3, 2)))

    def test_half_sum_of_squares(self):
        w = t64([1.0, 2.0])
        with Tape() as tape:
            tape.watch(w)
            backward(ad.mul(ad.reduce_sum(ad.mul(w, w)), 0.5))
        assert np.allclose(w.grad, [1.0, 2.0], atol=1e-12)

    def test_not_scalar(self, rng):
        w = t64(rng.standard_normal(4))
        with Tape() as tape:
            tape.watch(w)
            out = ad.mul(w, 2.0)
            with pytest.raises(NotScalar):
                backward(out)

    def test_detached(self, rng):
        loss = ad.reduce_sum(t64([1.0]))
        with pytest.raises(DetachedTensor):
            backward(loss)

    def test_unreachable_leaf_gets_zero_grad(self, rng):
        used = t64(rng.standard_normal(3))
        unused = t64(rng.standard_normal(5))
        with Tape() as tape:
            tape.watch(used)
            tape.watch(unused)
            backward(ad.reduce_sum(used))
        assert np.array_equal(unused.grad, np.zeros(5))

    def test_shared_input_accumulates(self):
        x = t64([3.0])
        with Tape() as tape:
            tape.watch(x)
            backward(ad.reduce_sum(ad.mul(x, x)))  # d(x^2)/dx = 2x
        assert np.allclose(x.grad, [6.0], atol=1e-12)

    def test_backward_empties_the_tape(self, rng):
        x = t64(rng.standard_normal((2, 3)))
        with Tape() as tape:
            tape.watch(x)
            backward(ad.reduce_sum(ad.gelu(ad.mul(x, x))))
        assert tape.nodes == []

    def test_activations_freed_without_garbage_collection(self, rng):
        x = t64(rng.standard_normal((2, 3)))
        gc.disable()
        try:
            with Tape() as tape:
                tape.watch(x)
                hidden = ad.gelu(ad.mul(x, 2.0))
                ref = weakref.ref(hidden.data)
                loss = ad.reduce_sum(ad.mul(hidden, hidden))
                backward(loss)
            del hidden, loss
            assert ref() is None
        finally:
            gc.enable()

    def test_second_backward_on_a_tape_raises(self, rng):
        x = t64(rng.standard_normal(3))
        with Tape() as tape:
            tape.watch(x)
            loss = ad.reduce_sum(ad.mul(x, x))
            backward(loss)
            with pytest.raises(DetachedTensor):
                backward(loss)
        assert np.allclose(x.grad, 2.0 * x.data, atol=1e-12)


class TestFiniteGuard:
    def test_zero_over_zero_raises(self):
        with pytest.raises(NonFiniteValue):
            ad.div(t64([0.0]), t64([0.0]))

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
            backward(ad.reduce_sum(ad.gelu(x)))
        assert x.grad.shape == x.data.shape
