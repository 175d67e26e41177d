"""Optimizer arithmetic, lr schedule, augmentation, the training loop's
determinism and log format, and the ablation runner."""

import re

import numpy as np
import pytest

from conftest import small_model_config, tiny_model_config
from tfcns.autodiff import Parameter, Tensor
from tfcns.data import SegmentationPair, SyntheticSpec, generate_synthetic
from tfcns.errors import ConfigInvalid, NonFiniteLoss
from tfcns.metrics import MetricReport
from tfcns.model import build
from tfcns.training import (
    OptimizerState,
    TrainConfig,
    ablation_grid,
    augment,
    evaluate,
    lr_at,
    run_ablation,
    sgd_step,
    total_iterations,
    train,
)

F64 = np.float64


def scalar_param(value: float, name: str = "w") -> Parameter:
    p = Parameter(Tensor(np.array([value]), dtype=F64))
    p.name = name
    return p


class FakeRng:
    """Scripted generator for deterministic augmentation branches."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, *args):
        return self._integers.pop(0)


class TestSGD:
    def test_two_step_hand_trajectory(self):
        p = scalar_param(1.0)
        state = OptimizerState(momentum={"w": np.zeros(1)})
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
        p.tensor.grad = np.ones(1)
        sgd_step([p], state, cfg)
        assert abs(p.tensor.data[0] - 0.9) < 1e-12
        assert abs(state.momentum["w"][0] - 1.0) < 1e-12
        p.tensor.grad = np.ones(1)
        sgd_step([p], state, cfg)
        assert abs(state.momentum["w"][0] - 1.9) < 1e-12
        assert abs(p.tensor.data[0] - 0.71) < 1e-12
        assert state.iteration == 2

    def test_zero_grad_zero_decay_is_identity(self):
        p = scalar_param(1.25)
        state = OptimizerState(momentum={"w": np.zeros(1)})
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
        p.tensor.grad = np.zeros(1)
        sgd_step([p], state, cfg)
        assert p.tensor.data[0] == 1.25
        assert state.momentum["w"][0] == 0.0

    def test_no_momentum_no_decay_is_vanilla_gd(self, rng):
        p = scalar_param(2.0)
        state = OptimizerState(momentum={"w": np.zeros(1)})
        cfg = TrainConfig(lr=0.05, momentum=0.0, weight_decay=0.0)
        p.tensor.grad = np.array([3.0])
        sgd_step([p], state, cfg)
        assert abs(p.tensor.data[0] - (2.0 - 0.05 * 3.0)) < 1e-15

    def test_weight_decay_exemptions(self):
        model = build(tiny_model_config(), dtype=np.float64)
        exempt_markers = ("bias", "beta", "alpha", "position_table", "class_token")
        for name, p in model.named_parameters():
            expected = any(m in name for m in exempt_markers)
            assert p.no_decay == expected, name

        state = OptimizerState.for_model(model)
        before = {n: p.tensor.data.copy() for n, p in model.named_parameters()}
        for p in model.parameters():
            p.tensor.grad = np.zeros_like(p.tensor.data)
        sgd_step(model.parameters(), state, TrainConfig(lr=1.0, momentum=0.0, weight_decay=0.1))
        for name, p in model.named_parameters():
            if p.no_decay:
                assert np.array_equal(p.tensor.data, before[name]), name
            else:
                assert np.allclose(p.tensor.data, 0.9 * before[name], atol=1e-12), name


class TestLrSchedule:
    def test_step_boundary(self):
        cfg = TrainConfig(lr=0.005, lr_decay_at=30000, lr_decay_factor=0.1)
        assert lr_at(0, cfg) == 0.005
        assert lr_at(29999, cfg) == 0.005
        assert lr_at(30000, cfg) == pytest.approx(0.0005, abs=1e-15)
        assert lr_at(90000, cfg) == pytest.approx(0.0005, abs=1e-15)

    def test_unit_factor_is_constant(self):
        cfg = TrainConfig(lr=0.01, lr_decay_factor=1.0)
        assert lr_at(0, cfg) == lr_at(10 ** 6, cfg) == 0.01

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            TrainConfig(lr_decay_factor=0.0).validate()
        with pytest.raises(ConfigInvalid):
            TrainConfig(lr=-1.0).validate()


def synthetic_pair(h=8, w=8):
    rng = np.random.default_rng(0)
    mask = rng.integers(0, 3, size=(h, w)).astype(np.int32)
    image = (mask.astype(np.float32) / 3.0)[None]
    return SegmentationPair(image=image, mask=mask, case_id="p")


class TestAugment:
    def test_double_horizontal_flip_is_identity(self):
        pair = synthetic_pair()
        once = augment(pair, FakeRng(randoms=[0.1], integers=[1]))
        twice = augment(once, FakeRng(randoms=[0.1], integers=[1]))
        assert np.array_equal(twice.image, pair.image)
        assert np.array_equal(twice.mask, pair.mask)

    def test_double_rotation_180_is_identity(self):
        pair = synthetic_pair()
        once = augment(pair, FakeRng(randoms=[0.9], integers=[2]))
        assert not np.array_equal(once.mask, pair.mask)
        twice = augment(once, FakeRng(randoms=[0.9], integers=[2]))
        assert np.array_equal(twice.image, pair.image)
        assert np.array_equal(twice.mask, pair.mask)

    def test_histogram_invariant(self, rng):
        pair = synthetic_pair()
        hist = np.bincount(pair.mask.reshape(-1), minlength=3)
        for _ in range(20):
            out = augment(pair, rng)
            assert np.array_equal(np.bincount(out.mask.reshape(-1), minlength=3), hist)

    def test_image_and_mask_move_together(self, rng):
        pair = synthetic_pair()
        for _ in range(10):
            out = augment(pair, rng)
            assert np.allclose(out.image[0], out.mask / 3.0, atol=1e-7)

    def test_disabled_flags_return_pair_unchanged(self, rng):
        pair = synthetic_pair()
        out = augment(pair, rng, rotate=False, flip=False)
        assert out is pair


@pytest.fixture(scope="module")
def quick_dataset():
    return generate_synthetic(SyntheticSpec(
        n_cases=4, height=16, width=16, num_classes=3,
        noise_sigma=0.01, seed=2, radius_min=2, radius_max=3,
    ))


def quick_train_cfg(**overrides):
    base = dict(lr=0.01, batch_size=4, max_iterations=6, eval_every=0, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_lr_zero_leaves_parameters_bit_identical(self, quick_dataset):
        model = build(small_model_config())
        before = {n: p.tensor.data.copy() for n, p in model.named_parameters()}
        train(model, quick_dataset, quick_train_cfg(lr=0.0))
        for name, p in model.named_parameters():
            assert np.array_equal(p.tensor.data, before[name]), name

    def test_fixed_seed_reproduces_loss_trajectory(self, quick_dataset):
        runs = []
        for _ in range(2):
            model = build(small_model_config())
            log = train(model, quick_dataset, quick_train_cfg())
            runs.append([(r.loss, r.dice_loss, r.ce_loss) for r in log.records])
        assert runs[0] == runs[1]

    def test_log_file_format(self, quick_dataset, tmp_path):
        model = build(small_model_config())
        log = train(model, quick_dataset, quick_train_cfg(max_iterations=4, eval_every=2),
                    out_dir=tmp_path)
        lines = (tmp_path / "training.log").read_text().splitlines()
        iter_lines = [ln for ln in lines if not ln.startswith("EVAL")]
        eval_lines = [ln for ln in lines if ln.startswith("EVAL")]
        assert len(iter_lines) == 4 and len(eval_lines) == 2
        pat = re.compile(r"^\d+\t[0-9.e+-]+\t[0-9.e+-]+\t[0-9.e+-]+\t[0-9.e+-]+$")
        assert all(pat.match(ln) for ln in iter_lines)
        epat = re.compile(r"^EVAL\t\d+\t[0-9.e+-]+\t([0-9.e+-]+|nan)\t[0-9.e+-]+$")
        assert all(epat.match(ln) for ln in eval_lines)
        assert (tmp_path / "last.ckpt").is_file()
        assert log.checkpoint_last is not None

    def test_best_checkpoint_written_on_eval_improvement(self, quick_dataset, tmp_path):
        model = build(small_model_config())
        log = train(model, quick_dataset, quick_train_cfg(max_iterations=4, eval_every=2),
                    out_dir=tmp_path)
        assert log.checkpoint_best is not None
        assert (tmp_path / "best.ckpt").is_file()
        assert log.best_iteration >= 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_reference(self, quick_dataset):
        model = build(small_model_config())
        with pytest.raises(NonFiniteLoss):
            train(model, quick_dataset, quick_train_cfg(lr=1e8, max_iterations=30))

    def test_empty_dataset_rejected(self):
        model = build(small_model_config())
        with pytest.raises(ConfigInvalid):
            train(model, [], quick_train_cfg())

    def test_total_iterations_from_epochs(self):
        cfg = TrainConfig(epochs=3, batch_size=4, max_iterations=None)
        assert total_iterations(cfg, dataset_size=10) == 9  # ceil(10/4)=3 per epoch

    def test_evaluate_returns_report(self, quick_dataset):
        model = build(small_model_config())
        report = evaluate(model, quick_dataset)
        assert isinstance(report, MetricReport)
        assert set(report.per_class) == {0, 1, 2}
        assert report.n_cases == 4


class TestAblation:
    def test_axis_grids(self):
        assert [label for label, _ in ablation_grid("patch")[1]] == ["8", "16", "32"]
        assert [label for label, _ in ablation_grid("mlp")[1]] == ["ResMLP", "MLP"]
        assert [label for label, _ in ablation_grid("skip")[1]] == ["None", "CUAB-like", "CLAB"]
        with pytest.raises(ConfigInvalid):
            ablation_grid("heads")

    def test_identical_configs_give_bit_identical_rows(self, quick_dataset):
        grid = [("a", {}), ("b", {})]
        table = run_ablation(small_model_config(), quick_train_cfg(max_iterations=3),
                             grid, quick_dataset)
        (_, d1, h1, j1), (_, d2, h2, j2) = table.rows
        assert (d1, h1, j1) == (d2, h2, j2)

    def test_mlp_axis_table_shape(self, quick_dataset):
        header, grid = ablation_grid("mlp")
        table = run_ablation(small_model_config(), quick_train_cfg(max_iterations=2),
                             grid, quick_dataset, label_header=header)
        text = table.to_tsv()
        lines = text.splitlines()
        assert lines[0].split("\t") == ["Variant", "Dice", "Hd95", "Jaccard"]
        assert [ln.split("\t")[0] for ln in lines[1:]] == ["ResMLP", "MLP"]
