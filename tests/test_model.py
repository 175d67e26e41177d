"""Model assembly: shape contracts, deterministic construction, parameter
registry goldens, the dtype contract of a training step, prediction, class
activation maps, and checkpoint IO."""

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import tfcns.autodiff as ad
from conftest import small_model_config, tiny_model_config
from tfcns.errors import ClassOutOfRange, ConfigInvalid, FormatError, ShapeMismatch, VersionError
from tfcns.metrics import combined_loss_parts
from tfcns.model import (
    Checkpoint,
    ModelConfig,
    build,
    class_activation_map,
    load_checkpoint,
    model_config_from_text,
    model_config_to_text,
    model_from_checkpoint,
    predict,
    restore_parameters,
    save_checkpoint,
)
from tfcns.training import OptimizerState

ROOT = Path(__file__).resolve().parents[1]


def hand_param_count(cfg: ModelConfig) -> int:
    """Independent parameter ledger built from per-component formulas."""
    layers = cfg.stage_layers()
    g = cfg.growth_rate
    total = 3 * 3 * cfg.in_channels * cfg.first_conv_channels + cfg.first_conv_channels

    def dense(c_in, n):
        return sum(g * (c_in + i * g) * 9 + g for i in range(n))

    c = cfg.first_conv_channels
    skip = []
    for s in range(cfg.n_stages):
        total += dense(c, layers[s])
        c += layers[s] * g
        skip.append(c)
        total += c * c + c  # transition-down 1x1 conv

    d = cfg.embed_dim
    total += c * d + d + (cfg.input_size // cfg.patch_size) ** 2 * d + d  # embed + cls + pos
    h = cfg.hidden_dim()
    mhsa = 4 * d * d + 5 * d
    if cfg.mlp_variant == "resmlp":
        ff = 2 * d + (d * h + h) + (h * d + d) + (d * d + d) + 1
    else:
        ff = 2 * d + (d * h + h) + (h * d + d)
    total += cfg.transformer_layers * (mhsa + ff) + 2 * d  # + final norm

    c = d
    for s in reversed(range(cfg.n_stages)):
        sc = skip[s]
        total += c * sc * 4 + sc  # transition-up
        if cfg.skip_attention in ("clab", "cuab_like"):
            k = cfg.clab_kernels if cfg.clab_kernels is not None else max(1, sc // 2)
            total += cfg.clab_branches * sc * k + (cfg.clab_branches * sc + sc) + (cfg.clab_branches + 1)
        c = 2 * sc + layers[s] * g
        total += dense(2 * sc, layers[s])
    total += c * cfg.num_classes + cfg.num_classes  # head
    return total


class TestBuild:
    def test_patch16_geometry(self):
        cfg = ModelConfig(patch_size=16, input_size=224)
        model = build(cfg)
        assert cfg.n_stages == 4
        assert model.bottleneck_size == 14
        assert model.token_count == 197

    def test_same_seed_identical_parameter_bytes(self):
        cfg = tiny_model_config(seed=42)
        a, b = build(cfg), build(cfg)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert pa.tensor.data.tobytes() == pb.tensor.data.tobytes()

    def test_param_count_golden(self):
        cfg = tiny_model_config()
        model = build(cfg)
        assert model.param_count() == hand_param_count(cfg) == 2958

    def test_registry_names_are_unique_and_assigned(self):
        model = build(tiny_model_config())
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))
        assert all(names)

    @pytest.mark.parametrize("bad", [
        dict(input_size=100, patch_size=16),
        dict(embed_dim=6, n_heads=4),
        dict(patch_size=12),
        dict(patch_size=2),
        dict(skip_attention="cbam"),
        dict(mlp_variant="mixer"),
        dict(layers_per_block=(1, 1)),
        dict(dropout_p=1.5),
    ])
    def test_config_invalid(self, bad):
        with pytest.raises(ConfigInvalid):
            build(tiny_model_config(**bad))

    def test_variant_toggles_change_params_not_shape(self, rng):
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        shapes, counts = set(), set()
        for skip in ("none", "clab", "cuab_like"):
            for mlp in ("resmlp", "plain_mlp"):
                model = build(tiny_model_config(skip_attention=skip, mlp_variant=mlp))
                shapes.add(model.forward(x).shape)
                counts.add(model.param_count())
        assert shapes == {(1, 2, 16, 16)}
        assert len(counts) > 1


class TestForward:
    def test_output_shape(self, rng):
        model = build(tiny_model_config())
        out = model.forward(rng.standard_normal((2, 1, 16, 16)).astype(np.float32))
        assert out.shape == (2, 2, 16, 16)
        assert np.all(np.isfinite(out.data))

    def test_batch_purity(self, rng):
        model = build(tiny_model_config())
        single = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        batch = np.concatenate([single, single], axis=0)
        out = model.forward(batch).data
        assert np.array_equal(out[0], out[1])

    def test_wrong_spatial_dims_rejected(self, rng):
        model = build(tiny_model_config())
        with pytest.raises(ShapeMismatch):
            model.forward(rng.standard_normal((1, 1, 32, 32)).astype(np.float32))

    def test_wrong_channels_rejected(self, rng):
        model = build(tiny_model_config())
        with pytest.raises(ShapeMismatch):
            model.forward(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))

    def test_logits_bit_identical_across_process_runs(self):
        snippet = (
            f"import numpy as np, hashlib, sys; sys.path.insert(0, {str(ROOT / 'tests')!r});"
            "from conftest import tiny_model_config; from tfcns.model import build;"
            "m = build(tiny_model_config(seed=9));"
            "x = np.random.default_rng(4).standard_normal((1, 1, 16, 16)).astype(np.float32);"
            "print(hashlib.sha256(m.forward(x).data.tobytes()).hexdigest())"
        )
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        digests = []
        for _ in range(2):
            run = subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                                 text=True, cwd=ROOT, env=env)
            assert run.returncode == 0, f"child exited {run.returncode}:\n{run.stderr}"
            digest = run.stdout.strip()
            assert re.fullmatch(r"[0-9a-f]{64}", digest), f"not a SHA-256 digest: {digest!r}"
            digests.append(digest)
        assert len(digests) == 2
        assert digests[0] == digests[1]

    def test_concurrent_inference_matches_serial(self, rng):
        model = build(tiny_model_config())
        inputs = [rng.standard_normal((1, 1, 16, 16)).astype(np.float32) for _ in range(4)]
        serial = [model.forward(x).data for x in inputs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda x: model.forward(x).data, inputs))
        for s, t in zip(serial, threaded):
            assert np.array_equal(s, t)

    def test_none_gate_differs_from_zeroed_clab(self, rng):
        clab_model = build(tiny_model_config(skip_attention="clab"))
        none_model = build(tiny_model_config(skip_attention="none"))
        clab_params = dict(clab_model.named_parameters())
        for name, p in none_model.named_parameters():
            p.tensor.data[...] = clab_params[name].tensor.data
        for name, p in clab_model.named_parameters():
            if "skip_gates" in name and ("gate_conv" in name or "gate_linear" in name):
                p.tensor.data[...] = 0.0
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        out_none = none_model.forward(x).data
        out_clab = clab_model.forward(x).data
        assert not np.allclose(out_none, out_clab)


class TestDtypeContract:
    """Every op output and every gradient of a training step keeps the model's
    dtype, so no constant can silently promote a float32 model to float64."""

    @staticmethod
    def _training_step_dtypes(monkeypatch, model, rng):
        seen = []
        real_out = ad._out

        def recording_out(op, inputs, data, backward):
            seen.append((op, "forward", data.dtype))

            def recording_backward(g):
                grads = backward(g)
                seen.extend((op, "backward", gi.dtype) for gi in grads if gi is not None)
                return grads

            return real_out(op, inputs, data, recording_backward)

        monkeypatch.setattr(ad, "_out", recording_out)
        x = rng.standard_normal((2, 1, 16, 16)).astype(model.dtype)
        y = rng.integers(0, model.cfg.num_classes, size=(2, 16, 16))
        with ad.Tape() as tape:
            for p in model.parameters():
                tape.watch(p.tensor)
            logits = model.forward(x, training=True, rng=np.random.default_rng(0))
            loss, _, _ = combined_loss_parts(logits, y, model.cfg.num_classes)
            ad.backward(loss)
        seen.extend(("leaf", p.name, p.grad.dtype) for p in model.parameters())
        assert any(op == "dropout" for op, _, _ in seen)
        assert any(kind == "backward" for _, kind, _ in seen)
        return seen

    @pytest.mark.parametrize("skip,mlp", [("clab", "resmlp"), ("cuab_like", "plain_mlp")])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_step_keeps_model_dtype(self, skip, mlp, dtype, monkeypatch, rng):
        model = build(small_model_config(skip_attention=skip, mlp_variant=mlp, dropout_p=0.2), dtype=dtype)
        seen = self._training_step_dtypes(monkeypatch, model, rng)
        promoted = sorted({(op, kind, str(dt)) for op, kind, dt in seen if dt != dtype})
        assert not promoted, promoted

    def test_float32_logits(self, rng):
        model = build(tiny_model_config())
        out = model.forward(rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
        assert out.dtype == np.float32


class TestPredict:
    def test_dominant_channel_wins_everywhere(self, rng):
        model = build(tiny_model_config())
        model.head.weight.tensor.data[...] = 0.0
        model.head.bias.tensor.data[...] = np.array([0.0, 50.0], dtype=np.float32)
        mask = predict(model, rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
        assert np.all(mask == 1)

    def test_tie_breaks_to_lowest_index(self, rng):
        model = build(tiny_model_config())
        model.head.weight.tensor.data[...] = 0.0
        model.head.bias.tensor.data[...] = 0.0
        mask = predict(model, rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
        assert np.all(mask == 0)

    def test_matches_per_pixel_argmax_oracle(self, rng):
        model = build(tiny_model_config(num_classes=3))
        x = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
        mask = predict(model, x)
        logits = model.forward(x).data
        for b in range(2):
            for i in range(16):
                for j in range(16):
                    best, best_v = 0, logits[b, 0, i, j]
                    for c in range(1, 3):
                        if logits[b, c, i, j] > best_v:
                            best, best_v = c, logits[b, c, i, j]
                    assert mask[b, i, j] == best


class TestCAM:
    def test_matches_weighted_feature_recomputation(self, rng):
        model = build(tiny_model_config())
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        cam = class_activation_map(model, x, 1)
        _, feats = model.forward(x, return_features=True)
        w = model.head.weight.tensor.data[1, :, 0, 0]
        raw = np.maximum(np.tensordot(feats.data, w, axes=([1], [0])), 0.0)
        span = raw.max() - raw.min()
        expected = (raw - raw.min()) / span if span > 0 else np.zeros_like(raw)
        assert np.allclose(cam, expected, atol=1e-6)

    def test_values_in_unit_interval(self, rng):
        model = build(tiny_model_config())
        cam = class_activation_map(model, rng.standard_normal((3, 1, 16, 16)).astype(np.float32), 0)
        assert cam.shape == (3, 16, 16)
        assert cam.min() >= 0.0 and cam.max() <= 1.0

    def test_zero_head_weights_give_zero_map(self, rng):
        model = build(tiny_model_config())
        model.head.weight.tensor.data[1] = 0.0
        cam = class_activation_map(model, rng.standard_normal((1, 1, 16, 16)).astype(np.float32), 1)
        assert np.array_equal(cam, np.zeros((1, 16, 16)))

    def test_class_out_of_range(self, rng):
        model = build(tiny_model_config())
        with pytest.raises(ClassOutOfRange):
            class_activation_map(model, rng.standard_normal((1, 1, 16, 16)).astype(np.float32), 2)


class TestCheckpoint:
    def test_round_trip_forward_bit_identical(self, rng, tmp_path):
        model = build(small_model_config())
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        before = model.forward(x).data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, None, path)
        restored, ckpt = model_from_checkpoint(path)
        assert isinstance(ckpt, Checkpoint)
        assert np.array_equal(restored.forward(x).data, before)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = build(tiny_model_config())
        save_checkpoint(model, None, tmp_path / "a.ckpt")
        save_checkpoint(model, None, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_optimizer_state_round_trips(self, rng, tmp_path):
        model = build(tiny_model_config())
        state = OptimizerState.for_model(model)
        for buf in state.momentum.values():
            buf += rng.standard_normal(buf.shape).astype(buf.dtype)
        state.iteration = 77
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, state, path)
        ckpt = load_checkpoint(path)
        assert ckpt.iteration == 77
        assert set(ckpt.momentum) == set(state.momentum)
        for name, buf in state.momentum.items():
            assert np.array_equal(ckpt.momentum[name], buf)

    def test_corrupted_magic(self, tmp_path):
        model = build(tiny_model_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, None, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        model = build(tiny_model_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, None, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError) as exc:
            load_checkpoint(path)
        assert "9" in str(exc.value) and "1" in str(exc.value)

    def test_crc_corruption_detected(self, tmp_path):
        model = build(tiny_model_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, None, path)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_restore_rejects_registry_mismatch(self, tmp_path):
        model = build(tiny_model_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, None, path)
        ckpt = load_checkpoint(path)
        other = build(tiny_model_config(first_conv_channels=4))
        with pytest.raises(FormatError):
            restore_parameters(other, ckpt.params)

    def test_config_text_round_trip(self):
        cfg = tiny_model_config(layers_per_block=(2, 1, 1), resmlp_hidden=None)
        text = model_config_to_text(cfg, extra={"iteration": 5})
        back, extra = model_config_from_text(text)
        assert back == cfg
        assert extra == {"iteration": "5"}
