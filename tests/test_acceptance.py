"""Acceptance suite: the ten exit criteria, one test per criterion, each
printing a PASS line with its measured numbers (run with -s to see them).

The expensive pieces are the end-to-end gradient check (criterion 1), the
full-size shape contract (criterion 3), and the 500-iteration overfit run
(criterion 8); everything else is seconds.
"""

import sys
import time

import numpy as np
import pytest

import tfcns.autodiff as ad
import tfcns.layers as L
import tfcns.metrics as M
from conftest import tiny_model_config
from oracles import hd95_bruteforce
from tfcns.autodiff import Tensor, grad_check_tensors
from tfcns.data import SyntheticSpec, generate_synthetic, read_tensor, write_tensor
from tfcns.model import ModelConfig, build, save_checkpoint, model_from_checkpoint
from tfcns.training import (
    OptimizerState,
    TrainConfig,
    ablation_grid,
    evaluate,
    lr_at,
    run_ablation,
    sgd_step,
    train,
)

F64 = np.float64


def report(n: int, text: str) -> None:
    # bypass pytest's capture so the per-criterion line shows without -s
    print(f"\nACCEPTANCE {n:02d} PASS - {text}", file=sys.__stdout__)


def t64(arr):
    return Tensor(np.asarray(arr), dtype=F64)


def block_tensors(block, *extra):
    return list(extra) + [p for p in block.parameters()]


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness everywhere, < 5 min
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(20)
    worst_op = {}

    x = t64(rng.standard_normal((1, 2, 5, 5)))
    w = t64(rng.standard_normal((3, 2, 3, 3)))
    b = t64(rng.standard_normal(3))
    wc = rng.standard_normal((1, 3, 5, 5))
    worst_op["conv2d"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(ad.conv2d(x, w, b), wc)), [x, w, b])

    xt = t64(rng.standard_normal((1, 2, 3, 3)))
    wt = t64(rng.standard_normal((2, 3, 2, 2)))
    bt = t64(rng.standard_normal(3))
    wct = rng.standard_normal((1, 3, 6, 6))
    worst_op["conv_transpose2d"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(ad.conv_transpose2d(xt, wt, bt), wct)), [xt, wt, bt])

    a = t64(rng.standard_normal((4, 5)))
    wl = t64(rng.standard_normal((5, 3)))
    bl = t64(rng.standard_normal(3))
    wcl = rng.standard_normal((4, 3))
    worst_op["linear"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(ad.add(ad.matmul(a, wl), bl), wcl)), [a, wl, bl])

    z = t64(rng.standard_normal((3, 6)))
    gam = t64(rng.standard_normal(6))
    bet = t64(rng.standard_normal(6))
    wcz = rng.standard_normal((3, 6))
    worst_op["layer_norm"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(ad.layer_norm(z, gam, bet), wcz)), [z, gam, bet])

    g = t64(rng.standard_normal(9))
    wg = rng.standard_normal(9)
    worst_op["gelu"] = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.gelu(t), wg)), g)
    s = t64(rng.standard_normal((3, 7)))
    ws = rng.standard_normal((3, 7))
    worst_op["softmax"] = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, -1), ws)), s)

    mhsa = L.MHSABlock(8, 2, np.random.default_rng(0))
    zz = t64(rng.standard_normal((1, 3, 8)))
    wz = rng.standard_normal((1, 3, 8))
    worst_op["mhsa"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(mhsa(zz), wz)), block_tensors(mhsa, zz))

    resmlp = L.ResMLPBlock(8, 10, np.random.default_rng(0))
    worst_op["resmlp"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(resmlp(zz), wz)), block_tensors(resmlp, zz))

    dense = L.DenseBlock(2, 2, 2, np.random.default_rng(0))
    xd = t64(rng.standard_normal((1, 2, 8, 8)))
    wd = rng.standard_normal((1, 6, 8, 8))
    worst_op["dense_block"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(dense(xd), wd)), block_tensors(dense, xd))

    td = L.TransitionDown(2, 3, np.random.default_rng(0))
    xtd = t64(rng.standard_normal((1, 2, 4, 4)))
    wtd = rng.standard_normal((1, 3, 2, 2))
    worst_op["transition_down"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(td(xtd), wtd)), block_tensors(td, xtd))
    tu = L.TransitionUp(2, 3, np.random.default_rng(0))
    wtu = rng.standard_normal((1, 3, 8, 8))
    worst_op["transition_up"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(tu(xtd), wtu)), block_tensors(tu, xtd))

    clab = L.CLAB(4, 2, 3, np.random.default_rng(0))
    xc = t64(rng.standard_normal((1, 4, 6, 6)))
    wcc = rng.standard_normal((1, 4, 6, 6))
    worst_op["clab"] = grad_check_tensors(
        lambda: ad.reduce_sum(ad.mul(clab(xc), wcc)), block_tensors(clab, xc))

    target = rng.integers(0, 3, size=(1, 4, 4))
    logits = Tensor(rng.standard_normal((1, 3, 4, 4)), dtype=F64)
    worst_op["dice_loss"] = grad_check_tensors(
        lambda: M.dice_loss(logits, target, 3), [logits])
    worst_op["cross_entropy"] = grad_check_tensors(
        lambda: M.cross_entropy_loss(logits, target), [logits])
    worst_op["combined_loss"] = grad_check_tensors(
        lambda: M.combined_loss(logits, target, 3), [logits])

    for name, err in worst_op.items():
        assert err < 1e-4, f"{name}: {err:.3e}"

    model = build(tiny_model_config(), dtype=F64)
    xin = t64(rng.standard_normal((1, 1, 16, 16)))
    end_to_end = grad_check_tensors(
        lambda: ad.reduce_mean(model.forward(xin)), [p for p in model.parameters()])
    assert end_to_end < 1e-3, f"end-to-end: {end_to_end:.3e}"

    elapsed = time.time() - start
    assert elapsed < 300.0
    report(1, f"per-op rel err max {max(worst_op.values()):.2e} (< 1e-4), "
              f"end-to-end {end_to_end:.2e} over {model.param_count()} params (< 1e-3), "
              f"{elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# criterion 2: residual blocks collapse to identities with zeroed weights
# ---------------------------------------------------------------------------

def test_criterion_02_equation_collapses():
    rng = np.random.default_rng(21)
    z = t64(rng.standard_normal((2, 4, 8)))

    mhsa = L.MHSABlock(8, 2, np.random.default_rng(0))
    for name, p in mhsa.named_parameters():
        if "norm" not in name:
            p.data[...] = 0.0
    d_attn = np.max(np.abs(mhsa(z).data - z.data))

    resmlp = L.ResMLPBlock(8, 12, np.random.default_rng(0))
    for name, p in resmlp.named_parameters():
        if "norm" not in name:
            p.data[...] = 0.0
    d_mlp = np.max(np.abs(resmlp(z).data - z.data))

    collapse = L.ResMLPBlock(8, 12, np.random.default_rng(0))
    collapse.alpha.data[...] = 0.0
    collapse.l2.bias.data[...] = 0.0
    expected = ad.add(collapse.l3(ad.gelu(collapse.norm(z))), z)
    d_alpha = np.max(np.abs(collapse(z).data - expected.data))

    assert d_attn <= 1e-12 and d_mlp <= 1e-12 and d_alpha <= 1e-12
    report(2, f"zero-weight attention/feed-forward and alpha=0 collapses exact to "
              f"{max(d_attn, d_mlp, d_alpha):.1e} (<= 1e-12)")


# ---------------------------------------------------------------------------
# criterion 3: full-size shape contract for every patch size
# ---------------------------------------------------------------------------

def test_criterion_03_shape_contract_all_patch_sizes():
    start = time.time()
    rng = np.random.default_rng(22)
    x = rng.standard_normal((1, 1, 224, 224)).astype(np.float32)
    expected_tokens = {8: 785, 16: 197, 32: 50}
    for p in (8, 16, 32):
        model = build(ModelConfig(patch_size=p, dropout_p=0.0))
        assert model.token_count == expected_tokens[p]
        out = model.forward(x)
        assert out.shape == (1, 4, 224, 224)
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(3, f"P=8/16/32 built and forward-run on 224x224 with tokens 785/197/50, "
              f"{elapsed:.0f}s (< 120s)")


# ---------------------------------------------------------------------------
# criterion 4: CLAB gate properties
# ---------------------------------------------------------------------------

def test_criterion_04_clab_properties():
    rng = np.random.default_rng(23)
    gate = L.CLAB(4, 2, 3, np.random.default_rng(0))
    x = t64(rng.standard_normal((2, 4, 6, 6)))
    out = gate(x)
    assert out.shape == x.shape
    assert np.all(gate.last_gate > 0.0) and np.all(gate.last_gate < 1.0)

    zeroed = L.CLAB(4, 2, 3, np.random.default_rng(0))
    for mod in (zeroed.gate_conv, zeroed.gate_linear):
        mod.weight.data[...] = 0.0
        mod.bias.data[...] = 0.0
    assert np.array_equal(zeroed(x).data, 0.5 * x.data)

    wcc = rng.standard_normal((1, 4, 6, 6))
    xs = t64(rng.standard_normal((1, 4, 6, 6)))
    err = grad_check_tensors(lambda: ad.reduce_sum(ad.mul(gate(xs), wcc)), block_tensors(gate, xs))
    assert err < 1e-4
    report(4, f"shape preserved, gates in (0,1), zero-weight gate = 0.5*x exactly, "
              f"grad check {err:.2e} (< 1e-4)")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles
# ---------------------------------------------------------------------------

def test_criterion_05_metric_oracles():
    rng = np.random.default_rng(24)
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 5000
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        density = rng.uniform(0.1, 0.7)
        a = (rng.random((h, w)) < density).astype(np.int32)
        b = (rng.random((h, w)) < density).astype(np.int32)
        expected = hd95_bruteforce(a, b, 1)
        if expected is None:
            continue
        assert M.hd95(a, b, 1) == expected
        checked += 1

    p345 = np.zeros((8, 8), dtype=int)
    r345 = np.zeros((8, 8), dtype=int)
    p345[1, 1] = 1
    r345[4, 5] = 1
    assert abs(M.hd95(p345, r345, 1) - 5.0) <= 1e-9

    for _ in range(200):
        a = (rng.random((12, 12)) < 0.4).astype(np.int32)
        b = (rng.random((12, 12)) < 0.4).astype(np.int32)
        d = M.dice_score(a, b, 1) / 100.0
        j = M.jaccard_score(a, b, 1) / 100.0
        assert abs(j - d / (2.0 - d)) <= 1e-9
    report(5, f"hd95 == all-pairs brute force exactly on {checked} mask pairs, "
              f"3-4-5 case = 5.0, J = D/(2-D) to 1e-9")


# ---------------------------------------------------------------------------
# criterion 6: loss composition
# ---------------------------------------------------------------------------

def test_criterion_06_loss_composition():
    rng = np.random.default_rng(25)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        target = rng.integers(0, k, size=(2, 5, 5))
        logits = Tensor(rng.standard_normal((2, k, 5, 5)), dtype=F64)
        total, d, c = M.combined_loss_parts(logits, target, k)
        assert abs(float(total.data) - (0.5 * float(d.data) + 0.5 * float(c.data))) <= 1e-12
    for k in (2, 5, 9):
        target = np.zeros((1, 4, 4), dtype=np.int64)
        logits = Tensor(np.zeros((1, k, 4, 4)), dtype=F64)
        assert abs(float(M.cross_entropy_loss(logits, target).data) - np.log(k)) <= 1e-9
    report(6, "combined == 0.5*dice + 0.5*ce to 1e-12; uniform-logit ce == ln K to 1e-9")


# ---------------------------------------------------------------------------
# criterion 7: optimizer arithmetic and schedule boundary
# ---------------------------------------------------------------------------

def test_criterion_07_optimizer():
    from tfcns.autodiff import Parameter

    p = Parameter(np.array([1.0], dtype=F64))
    p.name = "w"
    state = OptimizerState(momentum={"w": np.zeros(1)})
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
    p.grad = np.ones(1)
    sgd_step([p], state, cfg)
    p.grad = np.ones(1)
    sgd_step([p], state, cfg)
    assert abs(state.momentum["w"][0] - 1.9) <= 1e-12
    assert abs(p.data[0] - 0.71) <= 1e-12

    sched = TrainConfig(lr=0.005, lr_decay_at=30000, lr_decay_factor=0.1)
    assert lr_at(29999, sched) == 0.005
    assert abs(lr_at(30000, sched) - 0.0005) <= 1e-15
    report(7, "two-step momentum trajectory (v=1.9, w=0.71) to 1e-12; "
              "lr steps exactly at iteration 30000")


# ---------------------------------------------------------------------------
# criterion 8: desk-scale learning signal
# ---------------------------------------------------------------------------

OVERFIT_MODEL = dict(
    in_channels=1, num_classes=4, input_size=32, first_conv_channels=16,
    growth_rate=8, layers_per_block=(2, 2, 2), patch_size=8, embed_dim=32,
    transformer_layers=2, n_heads=4, dropout_p=0.0, seed=1,
)


@pytest.fixture(scope="module")
def overfit_dataset():
    return generate_synthetic(SyntheticSpec(
        n_cases=8, height=32, width=32, num_classes=4, noise_sigma=0.02, seed=7))


def test_criterion_08_overfit_learning_signal(overfit_dataset):
    start = time.time()
    model = build(ModelConfig(**OVERFIT_MODEL))
    cfg = TrainConfig(lr=0.005, batch_size=8, max_iterations=500, eval_every=0,
                      augment_rotate=False, augment_flip=False, seed=1)
    log = train(model, overfit_dataset, cfg)
    elapsed = time.time() - start
    dice = evaluate(model, overfit_dataset).dice_avg
    assert dice > 95.0, f"train dice {dice:.2f}"
    assert elapsed < 600.0

    losses = np.array([r.loss for r in log.records])
    ma = np.convolve(losses, np.ones(50) / 50, mode="valid")
    assert np.all(np.diff(ma) <= 1e-9), "50-iteration moving average increased"

    frozen = build(ModelConfig(**OVERFIT_MODEL))
    before = {n: p.data.copy() for n, p in frozen.named_parameters()}
    train(frozen, overfit_dataset, TrainConfig(lr=0.0, batch_size=8, max_iterations=20,
                                               eval_every=0, seed=1))
    for name, p in frozen.named_parameters():
        assert np.array_equal(p.data, before[name])
    report(8, f"train dice {dice:.2f}% (> 95) in 500 iterations, {elapsed:.0f}s (< 600s); "
              f"loss 50-MA non-increasing; lr=0 leaves parameters bit-identical")


# ---------------------------------------------------------------------------
# criterion 9: ablation table shapes; CLAB-vs-none direction reported
# ---------------------------------------------------------------------------

def test_criterion_09_ablation_harness():
    data32 = generate_synthetic(SyntheticSpec(
        n_cases=4, height=32, width=32, num_classes=3, noise_sigma=0.02, seed=5))
    shape_model = ModelConfig(in_channels=1, num_classes=3, input_size=32,
                              first_conv_channels=4, growth_rate=2, layers_per_block=None,
                              embed_dim=16, transformer_layers=1, n_heads=2,
                              dropout_p=0.0, clab_branches=2, clab_kernels=2, seed=0)
    shape_train = TrainConfig(lr=0.01, batch_size=4, max_iterations=2, eval_every=0, seed=0)
    expected_rows = {"patch": ["8", "16", "32"], "mlp": ["ResMLP", "MLP"],
                     "skip": ["None", "CUAB-like", "CLAB"]}
    for axis, rows in expected_rows.items():
        header, grid = ablation_grid(axis)
        table = run_ablation(shape_model, shape_train, grid, data32, label_header=header)
        lines = table.to_tsv().splitlines()
        assert lines[0].split("\t")[1:] == ["Dice", "Hd95", "Jaccard"]
        assert [ln.split("\t")[0] for ln in lines[1:]] == rows

    data16 = generate_synthetic(SyntheticSpec(
        n_cases=4, height=16, width=16, num_classes=3, noise_sigma=0.01,
        seed=2, radius_min=2, radius_max=3))
    study_model = dict(in_channels=1, num_classes=3, input_size=16,
                       first_conv_channels=6, growth_rate=4, layers_per_block=(1, 1, 1),
                       patch_size=8, embed_dim=16, transformer_layers=1, n_heads=2,
                       dropout_p=0.0, clab_branches=2, clab_kernels=2)
    wins = 0
    for seed in range(10):
        scores = {}
        for gate in ("none", "clab"):
            model = build(ModelConfig(**study_model, skip_attention=gate, seed=seed))
            train(model, data16, TrainConfig(lr=0.02, batch_size=4, max_iterations=200,
                                             eval_every=0, augment_rotate=False,
                                             augment_flip=False, seed=seed))
            scores[gate] = evaluate(model, data16).dice_avg
        if scores["clab"] >= scores["none"]:
            wins += 1
    report(9, f"tables 'patch'/'mlp'/'skip' have exact row and column sets; "
              f"REPORTED (not asserted): CLAB dice >= none dice in {wins}/10 seeds")


# ---------------------------------------------------------------------------
# criterion 10: determinism and round trips
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_and_round_trips(tmp_path):
    data = generate_synthetic(SyntheticSpec(
        n_cases=4, height=16, width=16, num_classes=3, noise_sigma=0.01,
        seed=2, radius_min=2, radius_max=3))
    cfg_m = tiny_model_config(num_classes=3)
    cfg_t = TrainConfig(lr=0.01, batch_size=4, max_iterations=8, eval_every=4, seed=11)
    logs = []
    for name in ("a", "b"):
        out = tmp_path / name
        model = build(cfg_m)
        train(model, data, cfg_t, out_dir=out)
        logs.append((out / "training.log").read_bytes())
    assert logs[0] == logs[1]

    model = build(cfg_m)
    state = OptimizerState.for_model(model)
    x = np.random.default_rng(1).standard_normal((1, 1, 16, 16)).astype(np.float32)
    before = model.forward(x).data.copy()
    ckpt_path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, ckpt_path)
    restored, _ = model_from_checkpoint(ckpt_path)
    assert np.array_equal(restored.forward(x).data, before)

    rng = np.random.default_rng(26)
    for dtype in (np.float32, np.float64, np.uint8, np.int32):
        arr = (rng.standard_normal((3, 4, 5)) * 10).astype(dtype)
        write_tensor(tmp_path / "t.tnsr", arr)
        back = read_tensor(tmp_path / "t.tnsr")
        assert back.dtype == arr.dtype and np.array_equal(back, arr)
    report(10, "training logs byte-identical across runs; checkpoint forward "
               "bit-identical; TNSR read(write(x)) == x for f32/f64/u8/i32")
