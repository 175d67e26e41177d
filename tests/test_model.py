"""Model assembly: shape contracts, deterministic construction, parameter
registry goldens, the dtype contract of a training step, prediction, class
activation maps, and checkpoint IO."""

import contextlib
import hashlib
import inspect
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import tfcns.autodiff as ad
import tfcns.layers as L
import tfcns.model
import tfcns.nn as nn
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
            assert pa.data.tobytes() == pb.data.tobytes()

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
        dict(transformer_layers=-2),
        dict(seed=-1),
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
            p.data[...] = clab_params[name].data
        for name, p in clab_model.named_parameters():
            if "skip_gates" in name and ("gate_conv" in name or "gate_linear" in name):
                p.data[...] = 0.0
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        out_none = none_model.forward(x).data
        out_clab = clab_model.forward(x).data
        assert not np.allclose(out_none, out_clab)

    @pytest.mark.parametrize("gate", ["clab", "cuab_like"])
    def test_untaped_forward_frees_each_raw_skip_once_gated(self, gate, rng):
        model = build(tiny_model_config(skip_attention=gate))
        skips, alive = [], []

        def keep_ref(forward):
            def run(*args):
                out = forward(*args)
                skips.append(weakref.ref(out.data))
                return out
            return run

        def check_refs(forward):
            def run(*args):
                alive.append([ref() is not None for ref in skips])
                return forward(*args)
            return run

        for block in model.enc_blocks:
            block.forward = keep_ref(block.forward)
        for block in model.dec_blocks:
            block.forward = check_refs(block.forward)
        model.forward(rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
        # decoder block i serves stage n-1-i: that skip and the deeper ones are
        # already freed, the shallower ones are still waiting for their stage
        n = len(skips)
        assert alive == [[s < n - 1 - i for s in range(n)] for i in range(n)]

    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    @pytest.mark.parametrize("gate", ["clab", "cuab_like", "none"])
    def test_every_block_input_is_freed_before_the_blocks_first_conv(self, gate, taped, rng, monkeypatch):
        model = build(tiny_model_config(skip_attention=gate, dropout_p=0.1))
        pending, freed = [], []
        real_conv = ad._conv2d_forward

        def conv(xd, wd, bd):
            if pending:  # the first conv of the block that set them
                freed.append([ref() is None for ref in pending])
                pending.clear()
            return real_conv(xd, wd, bd)

        def watch_inputs(forward):
            def run(x, rng=None):
                pending[:] = [weakref.ref(t.data) for t in x]
                return forward(x, rng)
            return run

        monkeypatch.setattr(ad, "_conv2d_forward", conv)
        for block in model.enc_blocks + model.dec_blocks:
            block.forward = watch_inputs(block.forward)
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        with ad.Tape() if taped else contextlib.nullcontext() as tape:
            if taped:
                for p in model.parameters():
                    tape.watch(p)
            model.forward(x, rng=np.random.default_rng(0))
        # ungated, a decoder block's skip is an encoder block's output, which the
        # tape keeps for the backward of the transition-down conv that read it
        skip_freed = not (taped and gate == "none")
        assert freed == [[True]] * len(model.enc_blocks) + [[True, skip_freed]] * len(model.dec_blocks)

    def test_tape_has_one_dense_block_node_per_block_and_no_join_concat(self, rng):
        model = build(tiny_model_config(dropout_p=0.1))
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        with ad.Tape() as tape:
            for p in model.parameters():
                tape.watch(p)
            model.forward(x, rng=np.random.default_rng(0))
            ops = [node.op for node in tape.nodes]
        assert ops.count("dense_block") == len(model.enc_blocks) + len(model.dec_blocks) == 6
        # patch embedding prepends the class token; each gate joins its branch weights
        assert ops.count("concat") == 1 + len(model.skip_gates)


class TestDenseBlockMemory:
    """A dense block keeps its shared buffer and nothing else: its inputs go
    once copied, and its backward adds into the gradient it is handed."""

    def test_paper_default_224_forward_peak(self, rng):
        model = build(ModelConfig(num_classes=9))
        x = rng.standard_normal((1, 1, 224, 224)).astype(np.float32)
        tracemalloc.start()
        try:
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # reached while the last decoder block copies its inputs: its 38.5 MB
        # buffer, the upsampled map and the gated skip (14.45 MB each) and the
        # 3 MB the model keeps between stages
        assert peak < 72e6

    def test_last_decoder_block_backward_allocates_no_copy_of_its_gradient(self, rng):
        size = 128
        model = build(ModelConfig(num_classes=9, input_size=size))
        x = rng.standard_normal((1, 1, size, size)).astype(np.float32)
        y = rng.integers(0, 9, size=(1, size, size))
        seen = {}
        with ad.Tape() as tape:
            for p in model.parameters():
                tape.watch(p)
            loss = combined_loss_parts(model.forward(x, rng=np.random.default_rng(0)), y, 9)[0]
            k = max(i for i, node in enumerate(tape.nodes) if node.op == "dense_block")
            block, head = tape.nodes[k], tape.nodes[k + 1]
            assert head.op == "conv2d" and head.input_ids[0] == block.output_id
            head_backward, block_backward = head.backward, block.backward

            def traced_head(g):  # trace from the head's gradients to the block's
                grads = head_backward(g)
                tracemalloc.start()
                return grads

            def traced_block(g):
                seen["out"] = g.nbytes
                grads = block_backward(g)
                seen["peak"] = tracemalloc.get_traced_memory()[1]
                return grads

            head.backward, block.backward = traced_head, traced_block
            try:
                ad.backward(loss)
            finally:
                tracemalloc.stop()
        # per layer: its slot's gradient and dropout multiplier, and one band
        assert seen["peak"] < seen["out"] / 2


class TestDtypeContract:
    """Every op output and every gradient of a training step keeps the model's
    dtype, so no constant can silently promote a float32 model to float64."""

    @staticmethod
    def _training_step_dtypes(monkeypatch, model, rng):
        seen = []
        real_wrap_out = ad._wrap_out

        def recording_wrap_out(op, record, data, backward, writes_grad=False):
            seen.append((op, "forward", data.dtype))

            def recording_backward(g):
                grads = backward(g)
                seen.extend((op, "backward", gi.dtype) for gi in grads if gi is not None)
                return grads

            return real_wrap_out(op, record, data, recording_backward, writes_grad)

        monkeypatch.setattr(ad, "_wrap_out", recording_wrap_out)
        x = rng.standard_normal((2, 1, 16, 16)).astype(model.dtype)
        y = rng.integers(0, model.cfg.num_classes, size=(2, 16, 16))
        with ad.Tape() as tape:
            for p in model.parameters():
                tape.watch(p)
            logits = model.forward(x, rng=np.random.default_rng(0))
            loss, _, _ = combined_loss_parts(logits, y, model.cfg.num_classes)
            ad.backward(loss)
        seen.extend(("leaf", p.name, p.grad.dtype) for p in model.parameters())
        assert {"dropout", "gelu", "dense_block"} <= {op for op, _, _ in seen}
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


def _module_classes(*modules):
    return {cls for mod in modules for cls in vars(mod).values()
            if isinstance(cls, type) and issubclass(cls, nn.Module)}


class TestDecidedInOnePlace:
    """The model alone picks the compute dtype, and a generator alone turns
    dropout on: no layer takes a dtype, and no forward takes a mode flag."""

    def test_no_layer_takes_dtype_and_no_forward_takes_a_mode_flag(self):
        for cls in _module_classes(nn, L):
            assert "dtype" not in inspect.signature(cls.__init__).parameters, cls.__name__
        forwards = [cls.forward for cls in _module_classes(nn, L, tfcns.model) if hasattr(cls, "forward")]
        assert L.DenseBlock.forward in forwards and tfcns.model.TFCNsModel.forward in forwards
        for fn in forwards + [ad.dropout, ad.dense_block]:
            flags = {"training", "return_features"} & inspect.signature(fn).parameters.keys()
            assert not flags, (fn.__qualname__, flags)

    def test_float32_build_is_the_float64_build_rounded(self):
        cfg = ModelConfig(num_classes=9, input_size=32)
        p32 = build(cfg, dtype=np.float32).named_parameters()
        p64 = build(cfg, dtype=np.float64).named_parameters()
        for (n32, a), (n64, b) in zip(p32, p64, strict=True):
            assert n32 == n64 and a.dtype == np.float32 and b.dtype == np.float64, n32
            assert np.array_equal(a.data, b.data.astype(np.float32)), n32

    def test_bare_layers_hold_float64_until_cast(self):
        gate = L.CLAB(4, 2, 3, np.random.default_rng(0))
        assert {p.dtype for p in gate.parameters()} == {np.dtype(np.float64)}
        assert gate.astype(np.float32) is gate
        assert {p.dtype for p in gate.parameters()} == {np.dtype(np.float32)}


class TestPredict:
    def test_dominant_channel_wins_everywhere(self, rng):
        model = build(tiny_model_config())
        model.head.weight.data[...] = 0.0
        model.head.bias.data[...] = np.array([0.0, 50.0], dtype=np.float32)
        mask = predict(model, rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
        assert np.all(mask == 1)

    def test_tie_breaks_to_lowest_index(self, rng):
        model = build(tiny_model_config())
        model.head.weight.data[...] = 0.0
        model.head.bias.data[...] = 0.0
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
        feats = model.features(x)
        w = model.head.weight.data[1, :, 0, 0]
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
        model.head.weight.data[1] = 0.0
        cam = class_activation_map(model, rng.standard_normal((1, 1, 16, 16)).astype(np.float32), 1)
        assert np.array_equal(cam, np.zeros((1, 16, 16)))

    def test_class_out_of_range(self, rng):
        model = build(tiny_model_config())
        with pytest.raises(ClassOutOfRange):
            class_activation_map(model, rng.standard_normal((1, 1, 16, 16)).astype(np.float32), 2)


class TestCheckpoint:
    # Digests of freshly built models pin the registry names and order, the
    # init draw order and the container format together.
    @pytest.mark.parametrize("cfg, dtype, size, digest", [
        (tiny_model_config(), np.float32, 14_844,
         "2b84df5d2fa32c237ca9882fd02d48e9916db7df3899e0de020c11c99af7e489"),
        (tiny_model_config(), np.float64, 26_676,
         "7fe7e6706872bd35cba9e159c327f65c799f65198bce7afdd6833d1e3b521161"),
        (ModelConfig(num_classes=9, input_size=32), np.float32, 11_578_539,
         "8a59c5b16a6587ac9344d059593de898dc12e4e92ad145b0eb4cebfdea045995"),
    ], ids=["tiny-float32", "tiny-float64", "paper-default-32px-float32"])
    def test_fresh_model_golden_digest(self, cfg, dtype, size, digest, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(cfg, dtype=dtype), None, path)
        blob = path.read_bytes()
        assert len(blob) == size
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_failed_replace_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(tiny_model_config()), None, path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="simulated crash"):
            save_checkpoint(build(tiny_model_config(seed=1)), None, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_round_trip_forward_bit_identical(self, rng, tmp_path):
        model = build(small_model_config())
        x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        before = model.forward(x).data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, None, path)
        restored, ckpt = model_from_checkpoint(path)
        assert isinstance(ckpt, Checkpoint)
        assert np.array_equal(restored.forward(x).data, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_restore_draws_no_random_numbers(self, dtype, rng, tmp_path, monkeypatch):
        model = build(small_model_config(skip_attention="cuab_like"), dtype=dtype)
        x = rng.standard_normal((1, 1, 16, 16)).astype(dtype)
        before = model.forward(x).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, None, path)

        class NoGenerator:
            def __getattr__(self, name):
                raise AssertionError(f"model_from_checkpoint drew from a generator ({name})")

        monkeypatch.setattr(np.random, "default_rng", lambda *args: NoGenerator())
        restored, _ = model_from_checkpoint(path)
        assert [(n, p.dtype) for n, p in restored.named_parameters()] == \
            [(n, p.dtype) for n, p in model.named_parameters()]
        assert np.array_equal(restored.forward(x).data, before)

    @pytest.mark.parametrize("case", ["int32", "mixed-float"])
    def test_restore_requires_one_float_dtype(self, case, tmp_path):
        if case == "int32":
            model = build(tiny_model_config()).astype(np.int32)
        else:
            model = build(tiny_model_config(), dtype=np.float64)
            model.head.astype(np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, None, path)
        with pytest.raises(FormatError, match="all float32 or all float64"):
            model_from_checkpoint(path)

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

    def test_record_dims_whose_product_wraps_int64_are_format_error(self, tmp_path):
        # a CRC-valid checkpoint whose one record claims 65536**4 == 2**64 elements and holds none
        text = model_config_to_text(tiny_model_config(), extra={"iteration": 0}).encode("utf-8")
        payload = (struct.pack("<I", len(text)) + text + struct.pack("<IH", 1, 1) + b"w"
                   + struct.pack("<BB4I", 0, 4, *[65536] * 4))
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"TFCN" + struct.pack("<I", 1) + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(FormatError, match="truncated payload"):
            load_checkpoint(path)

    def test_unparseable_config_value_is_format_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(tiny_model_config()), None, path)
        blob = path.read_bytes()
        (text_len,) = struct.unpack_from("<I", blob, 8)
        text = blob[12:12 + text_len].replace(b"in_channels = 1\n", b"in_channels = one\n")
        payload = struct.pack("<I", len(text)) + text + blob[12 + text_len:-4]
        path.write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(FormatError, match="in_channels"):
            load_checkpoint(path)
