"""Architecture blocks: channel arithmetic, identity collapses with zeroed
weights, attention invariants, gate behavior, parameter-count goldens, and
per-block gradient checks."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import tfcns.autodiff as ad
import tfcns.layers as L
from tfcns.autodiff import Tape, Tensor, grad_check_tensors
from tfcns.errors import ConfigInvalid, ShapeMismatch

from oracles import branch_features_direct

F64 = np.float64


def t64(arr):
    return Tensor(np.asarray(arr), dtype=F64)


def zero_params(module):
    for p in module.parameters():
        p.data[...] = 0.0


def zero_linears(block):
    """Zero every linear/projection weight and bias but keep layer norms."""
    for name, p in block.named_parameters():
        if "norm" not in name:
            p.data[...] = 0.0


class TestDenseBlock:
    def test_channel_arithmetic(self):
        blk = L.DenseBlock(4, 2, 3, np.random.default_rng(0))
        assert blk.out_channels == 10
        out = blk(t64(np.random.default_rng(1).standard_normal((1, 4, 6, 6))))
        assert out.shape == (1, 10, 6, 6)

    @pytest.mark.parametrize("c,g,n", [(1, 1, 1), (3, 2, 4), (8, 16, 2), (5, 3, 3)])
    def test_channel_growth_sweep(self, c, g, n, rng):
        blk = L.DenseBlock(c, g, n, np.random.default_rng(0)).astype(np.float32)
        out = blk(Tensor(rng.standard_normal((2, c, 4, 4)).astype(np.float32)))
        assert out.shape == (2, c + n * g, 4, 4)

    def test_zero_weights_append_zeros(self, rng):
        blk = L.DenseBlock(3, 2, 2, np.random.default_rng(0))
        zero_params(blk)
        x = t64(rng.standard_normal((1, 3, 5, 5)))
        out = blk(x)
        assert np.array_equal(out.data[:, :3], x.data)
        assert np.array_equal(out.data[:, 3:], np.zeros((1, 4, 5, 5)))

    def test_param_count_golden(self):
        blk = L.DenseBlock(4, 2, 3, np.random.default_rng(0))
        expected = sum(2 * (4 + i * 2) * 9 + 2 for i in range(3))
        assert blk.param_count() == expected == 330

    def test_grad_check(self, rng):
        blk = L.DenseBlock(2, 2, 2, np.random.default_rng(0))
        x = t64(rng.standard_normal((1, 2, 8, 8)))
        w = rng.standard_normal((1, 6, 8, 8))
        tensors = [x] + [p for p in blk.parameters()]
        assert grad_check_tensors(lambda: ad.reduce_sum(ad.mul(blk(x), w)), tensors) < 1e-4

    def test_two_input_grad_check_with_dropout(self, rng):
        blk = L.DenseBlock(3, 2, 2, np.random.default_rng(0), dropout_p=0.2)
        a = t64(rng.standard_normal((1, 2, 5, 5)))
        b = t64(rng.standard_normal((1, 1, 5, 5)))
        w = rng.standard_normal((1, 7, 5, 5))
        tensors = [a, b] + blk.parameters()
        err = grad_check_tensors(
            lambda: ad.reduce_sum(ad.mul(blk([a, b], np.random.default_rng(4)), w)), tensors)
        assert err < 1e-4

    def test_zero_layer_block_returns_inputs_joined(self, rng):
        blk = L.DenseBlock(3, 2, 0, np.random.default_rng(0))
        a = t64(rng.standard_normal((2, 2, 4, 4)))
        b = t64(rng.standard_normal((2, 1, 4, 4)))
        assert blk.out_channels == 3 and blk.param_count() == 0
        assert np.array_equal(blk([a, b]).data, np.concatenate([a.data, b.data], axis=1))
        assert np.array_equal(blk(a).data, a.data)


class TestTransitions:
    def test_down_halves_spatial(self, rng):
        td = L.TransitionDown(3, 5, np.random.default_rng(0))
        out = td(t64(rng.standard_normal((1, 3, 8, 8))))
        assert out.shape == (1, 5, 4, 4)

    def test_down_requires_even_dims(self, rng):
        td = L.TransitionDown(2, 2, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            td(t64(rng.standard_normal((1, 2, 5, 6))))

    def test_down_constant_input_stays_constant(self):
        td = L.TransitionDown(2, 2, np.random.default_rng(0))
        out = td(t64(np.full((1, 2, 4, 4), 1.5))).data
        assert np.allclose(out, out.reshape(1, 2, -1)[:, :, :1, None].reshape(1, 2, 1, 1))

    def test_up_doubles_spatial(self, rng):
        tu = L.TransitionUp(4, 3, np.random.default_rng(0))
        out = tu(t64(rng.standard_normal((2, 4, 3, 5))))
        assert out.shape == (2, 3, 6, 10)

    def test_transition_grad_checks(self, rng):
        td = L.TransitionDown(2, 3, np.random.default_rng(0))
        x = t64(rng.standard_normal((1, 2, 4, 4)))
        w = rng.standard_normal((1, 3, 2, 2))
        tensors = [x] + [p for p in td.parameters()]
        assert grad_check_tensors(lambda: ad.reduce_sum(ad.mul(td(x), w)), tensors) < 1e-4

        tu = L.TransitionUp(2, 3, np.random.default_rng(0))
        w2 = rng.standard_normal((1, 3, 8, 8))
        tensors = [x] + [p for p in tu.parameters()]
        assert grad_check_tensors(lambda: ad.reduce_sum(ad.mul(tu(x), w2)), tensors) < 1e-4


class TestPatchEmbedding:
    def test_sequence_length(self, rng):
        pe = L.PatchEmbedding(3, 8, 14 * 14, np.random.default_rng(0))
        out = pe(t64(rng.standard_normal((2, 3, 14, 14))))
        assert out.shape == (2, 197, 8)

    def test_all_zero_parameters_give_zero_sequence(self, rng):
        pe = L.PatchEmbedding(3, 4, 9, np.random.default_rng(0))
        zero_params(pe)
        out = pe(t64(rng.standard_normal((1, 3, 3, 3))))
        assert np.array_equal(out.data, np.zeros((1, 10, 4)))

    def test_identity_projection_reproduces_features(self, rng):
        pe = L.PatchEmbedding(4, 4, 6, np.random.default_rng(0))
        pe.projection.data[...] = np.eye(4)
        pe.position_table.data[...] = 0.0
        fm = rng.standard_normal((1, 4, 2, 3))
        out = pe(t64(fm))
        tokens = out.data[:, 1:, :]
        assert np.allclose(tokens, fm.reshape(1, 4, 6).transpose(0, 2, 1), atol=1e-12)

    def test_round_trip_through_tokens_to_map(self, rng):
        pe = L.PatchEmbedding(4, 4, 6, np.random.default_rng(0))
        pe.projection.data[...] = np.eye(4)
        pe.position_table.data[...] = 0.0
        fm = rng.standard_normal((2, 4, 2, 3))
        back = L.tokens_to_map(pe(t64(fm)), 2, 3)
        assert np.allclose(back.data, fm, atol=1e-12)

    def test_token_count_mismatch(self, rng):
        pe = L.PatchEmbedding(3, 4, 9, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            pe(t64(rng.standard_normal((1, 3, 2, 3))))

    def test_tokens_to_map_length_check(self, rng):
        z = t64(rng.standard_normal((1, 7, 4)))
        with pytest.raises(ShapeMismatch):
            L.tokens_to_map(z, 3, 3)  # 7 tokens cannot fill a 3x3 map plus class token

    def test_reflatten_drops_class_token(self, rng):
        z = t64(rng.standard_normal((2, 7, 5)))
        m = L.tokens_to_map(z, 2, 3)
        assert np.array_equal(
            m.data.reshape(2, 5, 6).transpose(0, 2, 1), z.data[:, 1:, :]
        )

    def test_param_count_golden(self):
        pe = L.PatchEmbedding(3, 6, 4, np.random.default_rng(0))
        assert pe.param_count() == 3 * 6 + 6 + 5 * 6 == 54


class TestMHSABlock:
    def test_heads_must_divide(self):
        with pytest.raises(ConfigInvalid):
            L.MHSABlock(10, 3, np.random.default_rng(0))

    def test_zero_value_path_is_identity(self, rng):
        blk = L.MHSABlock(8, 2, np.random.default_rng(0))
        blk.w_v.weight.data[...] = 0.0
        blk.w_v.bias.data[...] = 0.0
        blk.w_o.bias.data[...] = 0.0
        z = t64(rng.standard_normal((2, 4, 8)))
        assert np.array_equal(blk(z).data, z.data)

    def test_single_token_attention_is_one(self, rng):
        blk = L.MHSABlock(8, 2, np.random.default_rng(0))
        blk(t64(rng.standard_normal((1, 1, 8))))
        assert np.array_equal(blk.last_attention, np.ones((1, 2, 1, 1)))

    def test_attention_invariants(self, rng):
        blk = L.MHSABlock(8, 4, np.random.default_rng(0))
        blk(t64(rng.standard_normal((3, 5, 8))))
        attn = blk.last_attention
        assert attn.shape == (3, 4, 5, 5)
        assert np.all(attn >= 0)
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-6)

    def test_param_count_golden(self):
        blk = L.MHSABlock(8, 2, np.random.default_rng(0))
        # LN(2D) + q(D^2+D) + k(D^2, bias-free) + v(D^2+D) + o(D^2+D)
        assert blk.param_count() == 4 * 64 + 5 * 8 == 296

    def test_grad_check(self, rng):
        blk = L.MHSABlock(8, 2, np.random.default_rng(0))
        z = t64(rng.standard_normal((1, 3, 8)))
        w = rng.standard_normal((1, 3, 8))
        tensors = [z] + [p for p in blk.parameters()]
        assert grad_check_tensors(lambda: ad.reduce_sum(ad.mul(blk(z), w)), tensors) < 1e-4


class TestResMLPBlock:
    def test_all_zero_weights_is_identity(self, rng):
        blk = L.ResMLPBlock(8, 12, np.random.default_rng(0))
        zero_linears(blk)
        z = t64(rng.standard_normal((2, 3, 8)))
        assert np.array_equal(blk(z).data, z.data)

    def test_alpha_zero_collapses_inner_residual(self, rng):
        blk = L.ResMLPBlock(8, 12, np.random.default_rng(0))
        blk.alpha.data[...] = 0.0
        blk.l2.bias.data[...] = 0.0
        z = t64(rng.standard_normal((1, 4, 8)))
        # inner == LN(z) exactly, so the block reduces to L3(GELU(LN(z))) + z
        expected = ad.add(blk.l3(ad.gelu(blk.norm(z))), z)
        assert np.array_equal(blk(z).data, expected.data)

    def test_alpha_initialized_to_one(self):
        blk = L.ResMLPBlock(8, 12, np.random.default_rng(0))
        assert blk.alpha.shape == ()
        assert float(blk.alpha.data) == 1.0

    def test_param_count_golden(self):
        blk = L.ResMLPBlock(8, 12, np.random.default_rng(0))
        expected = 2 * 8 + (8 * 12 + 12) + (12 * 8 + 8) + (8 * 8 + 8) + 1
        assert blk.param_count() == expected == 301

    def test_grad_check_includes_alpha(self, rng):
        blk = L.ResMLPBlock(8, 10, np.random.default_rng(0))
        z = t64(rng.standard_normal((1, 2, 8)))
        w = rng.standard_normal((1, 2, 8))
        tensors = [z, blk.alpha] + [
            p for name, p in blk.named_parameters() if name != "alpha"
        ]
        assert grad_check_tensors(lambda: ad.reduce_sum(ad.mul(blk(z), w)), tensors) < 1e-4


class TestPlainMLPBlock:
    def test_zero_weights_is_identity(self, rng):
        blk = L.PlainMLPBlock(8, 12, np.random.default_rng(0))
        zero_linears(blk)
        z = t64(rng.standard_normal((1, 3, 8)))
        assert np.array_equal(blk(z).data, z.data)

    def test_param_count_golden(self):
        blk = L.PlainMLPBlock(8, 12, np.random.default_rng(0))
        assert blk.param_count() == 2 * 8 + (8 * 12 + 12) + (12 * 8 + 8) == 228


class TestRLTransformerEncoder:
    def test_depth_zero_is_final_norm(self, rng):
        enc = L.RLTransformerEncoder(8, 0, 2, 12, np.random.default_rng(0))
        z = t64(rng.standard_normal((1, 3, 8)))
        expected = enc.final_norm(z)
        assert np.array_equal(enc(z).data, expected.data)

    def test_zero_sublayers_pass_through_residuals(self, rng):
        enc = L.RLTransformerEncoder(8, 2, 2, 12, np.random.default_rng(0))
        for blk in enc.attn_blocks + enc.mlp_blocks:
            zero_linears(blk)
        z = t64(rng.standard_normal((1, 3, 8)))
        assert np.array_equal(enc(z).data, enc.final_norm(z).data)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_shape_preserved(self, depth, rng):
        enc = L.RLTransformerEncoder(8, depth, 2, 12, np.random.default_rng(0))
        z = t64(rng.standard_normal((2, 5, 8)))
        assert enc(z).shape == (2, 5, 8)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigInvalid):
            L.RLTransformerEncoder(8, 1, 2, 12, np.random.default_rng(0), mlp_variant="mixer")


class TestCLAB:
    def test_zero_gate_weights_halve_input(self, rng):
        gate = L.CLAB(4, 2, 3, np.random.default_rng(0))
        gate.gate_conv.weight.data[...] = 0.0
        gate.gate_conv.bias.data[...] = 0.0
        gate.gate_linear.weight.data[...] = 0.0
        gate.gate_linear.bias.data[...] = 0.0
        x = t64(rng.standard_normal((2, 4, 5, 5)))
        out = gate(x)
        assert np.array_equal(out.data, 0.5 * x.data)
        assert np.all(gate.last_gate == 0.5)

    def test_constant_input_normalizes_to_zero_maps(self):
        gate = L.CLAB(3, 2, 2, np.random.default_rng(0))
        maps, _ = gate._branch_features(t64(np.full((1, 3, 4, 4), 2.0)))
        assert np.allclose(maps.data, 0.0, atol=1e-12)

    @pytest.mark.parametrize("c,n,k,h,w", [(2, 1, 1, 4, 4), (4, 2, 3, 6, 6), (5, 4, 2, 3, 7)])
    def test_output_shape_and_open_gate_interval(self, c, n, k, h, w, rng):
        gate = L.CLAB(c, n, k, np.random.default_rng(0))
        x = t64(rng.standard_normal((2, c, h, w)))
        out = gate(x)
        assert out.shape == x.shape
        assert np.all(gate.last_gate > 0.0) and np.all(gate.last_gate < 1.0)
        nz = x.data != 0
        assert np.all(np.abs(out.data[nz]) < np.abs(x.data[nz]))

    @pytest.mark.parametrize("c,n,k,h,w", [(2, 1, 1, 4, 4), (4, 2, 3, 6, 6), (5, 4, 2, 3, 7)])
    def test_branch_features_match_per_branch_loop(self, c, n, k, h, w, rng):
        gate = L.CLAB(c, n, k, np.random.default_rng(0))
        x = t64(rng.standard_normal((2, c, h, w)))
        maps, means = gate._branch_features(x)
        ref_maps, ref_means = branch_features_direct(
            x.data, [conv.weight.data for conv in gate.branches], gate.eps)
        assert maps.shape == (2, n, h, w) and means.shape == (2, n)
        np.testing.assert_allclose(maps.data, ref_maps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(means.data, ref_means, rtol=0, atol=1e-12)

    def test_branch_features_run_one_conv(self, rng):
        gate = L.CLAB(5, 4, 2, np.random.default_rng(0))
        x = t64(rng.standard_normal((1, 5, 3, 3)))
        with Tape() as tape:
            tape.watch(x)
            gate._branch_features(x)
        assert [node.op for node in tape.nodes].count("conv2d") == 1

    @pytest.mark.parametrize("cls", [L.CLAB, L.CUABLike])
    def test_gates_reject_wrong_channel_count(self, cls, rng):
        gate = cls(4, 2, 3, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch, match="gate built for 4 channels, got 3"):
            gate(t64(rng.standard_normal((1, 3, 4, 4))))

    def test_param_count_golden(self):
        gate = L.CLAB(4, 2, 3, np.random.default_rng(0))
        # branches bias-free: N*C*K; linear N*C+C; conv N+1
        assert gate.param_count() == 2 * 4 * 3 + (2 * 4 + 4) + 3 == 39

    def test_grad_check(self, rng):
        gate = L.CLAB(4, 2, 3, np.random.default_rng(0))
        x = t64(rng.standard_normal((1, 4, 6, 6)))
        w = rng.standard_normal((1, 4, 6, 6))
        tensors = [x] + [p for p in gate.parameters()]
        assert grad_check_tensors(lambda: ad.reduce_sum(ad.mul(gate(x), w)), tensors) < 1e-4


class TestCUABLike:
    def test_differs_from_fused_gate(self, rng):
        clab = L.CLAB(4, 2, 3, np.random.default_rng(0))
        cuab = L.CUABLike(4, 2, 3, np.random.default_rng(0))
        x = t64(rng.standard_normal((1, 4, 6, 6)))
        assert not np.allclose(clab(x).data, cuab(x).data)

    def test_shape_and_gate_interval(self, rng):
        gate = L.CUABLike(3, 2, 2, np.random.default_rng(0))
        x = t64(rng.standard_normal((2, 3, 4, 4)))
        out = gate(x)
        assert out.shape == x.shape
        assert np.all(gate.last_gate > 0.0) and np.all(gate.last_gate < 1.0)

    def test_same_parameter_structure_as_clab(self):
        clab = L.CLAB(4, 2, 3, np.random.default_rng(0))
        cuab = L.CUABLike(4, 2, 3, np.random.default_rng(0))
        assert [n for n, _ in clab.named_parameters()] == [n for n, _ in cuab.named_parameters()]

    def test_grad_check(self, rng):
        gate = L.CUABLike(4, 2, 3, np.random.default_rng(0))
        x = t64(rng.standard_normal((1, 4, 6, 6)))
        w = rng.standard_normal((1, 4, 6, 6))
        tensors = [x] + [p for p in gate.parameters()]
        assert grad_check_tensors(lambda: ad.reduce_sum(ad.mul(gate(x), w)), tensors) < 1e-4


@pytest.mark.parametrize("cls", [L.CLAB, L.CUABLike])
class TestLastGate:
    # Digests of the full B x C x H x W gate as the forward applies it
    # (CLAB: sigmoid(spatial + channel)): building ``last_gate`` on read from
    # the two factors gives the same bits as keeping the full gate.
    DIGESTS = {
        ("CLAB", "float32"): "bf8cc50daf236800c9cc3b5e1d140b1e55587662f2762fcc9625ec87d47255f9",
        ("CLAB", "float64"): "3cbf5ffc7ccb234d48263d11ed0736660ddab3696ece43457fee36ab3549b990",
        ("CUABLike", "float32"): "e4ac5f1d559a3d9f8b79d4684d8e29b7dba68ef330d0efb714fcf26cc0d30ea0",
        ("CUABLike", "float64"): "d484a4473b839cb6bd585b71f10ada1ae124afa15edf4572a8c7515868dc953b",
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_golden_digest(self, cls, dtype):
        gate = cls(6, 3, 2, np.random.default_rng(0)).astype(dtype)
        gate(Tensor(np.random.default_rng(7).standard_normal((2, 6, 5, 7)), dtype=dtype))
        g = gate.last_gate
        assert g.shape == (2, 6, 5, 7) and g.dtype == dtype
        assert hashlib.sha256(g.tobytes()).hexdigest() == self.DIGESTS[cls.__name__, np.dtype(dtype).name]

    def test_none_before_first_forward(self, cls):
        assert cls(4, 2, 3, np.random.default_rng(0)).last_gate is None

    def test_two_reads_are_equal(self, cls, rng):
        gate = cls(4, 2, 3, np.random.default_rng(0))
        gate(t64(rng.standard_normal((2, 4, 5, 5))))
        assert np.array_equal(gate.last_gate, gate.last_gate)

    def test_keeps_factors_not_the_full_gate(self, cls, rng):
        gate = cls(16, 2, 3, np.random.default_rng(0))
        x = t64(rng.standard_normal((2, 16, 32, 32)))
        tracemalloc.start()
        try:
            gate(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the B x 1 x H x W map and B x C x 1 x 1 vector, not B x C x H x W
        assert held < x.data.nbytes / 4
