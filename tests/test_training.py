"""Optimizer arithmetic, lr schedule, augmentation, the training loop's
determinism and log format, and the ablation runner."""

import inspect
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tfcns.autodiff as ad
from conftest import small_model_config, tiny_model_config
from oracles import whole_batch_step
from tfcns import training
from tfcns.autodiff import Parameter
from tfcns.data import SegmentationPair, SyntheticSpec, generate_synthetic
from tfcns.errors import ConfigInvalid, NonFiniteLoss, WorkerFailed
from tfcns.metrics import MetricReport
from tfcns.model import MLP_VARIANT_CHOICES, SKIP_ATTENTION_CHOICES, build
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
ROOT = Path(__file__).resolve().parents[1]
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def scalar_param(value: float, name: str = "w") -> Parameter:
    p = Parameter(np.array([value], dtype=F64))
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
        p.grad = np.ones(1)
        sgd_step([p], state, cfg)
        assert abs(p.data[0] - 0.9) < 1e-12
        assert abs(state.momentum["w"][0] - 1.0) < 1e-12
        p.grad = np.ones(1)
        sgd_step([p], state, cfg)
        assert abs(state.momentum["w"][0] - 1.9) < 1e-12
        assert abs(p.data[0] - 0.71) < 1e-12
        assert state.iteration == 2

    def test_zero_grad_zero_decay_is_identity(self):
        p = scalar_param(1.25)
        state = OptimizerState(momentum={"w": np.zeros(1)})
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
        p.grad = np.zeros(1)
        sgd_step([p], state, cfg)
        assert p.data[0] == 1.25
        assert state.momentum["w"][0] == 0.0

    def test_no_momentum_no_decay_is_vanilla_gd(self, rng):
        p = scalar_param(2.0)
        state = OptimizerState(momentum={"w": np.zeros(1)})
        cfg = TrainConfig(lr=0.05, momentum=0.0, weight_decay=0.0)
        p.grad = np.array([3.0])
        sgd_step([p], state, cfg)
        assert abs(p.data[0] - (2.0 - 0.05 * 3.0)) < 1e-15

    def test_weight_decay_exemptions(self):
        model = build(tiny_model_config(), dtype=np.float64)
        exempt_markers = ("bias", "beta", "alpha", "position_table", "class_token")
        for name, p in model.named_parameters():
            expected = any(m in name for m in exempt_markers)
            assert p.no_decay == expected, name

        state = OptimizerState.for_model(model)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        for p in model.parameters():
            p.grad = np.zeros_like(p.data)
        sgd_step(model.parameters(), state, TrainConfig(lr=1.0, momentum=0.0, weight_decay=0.1))
        for name, p in model.named_parameters():
            if p.no_decay:
                assert np.array_equal(p.data, before[name]), name
            else:
                assert np.allclose(p.data, 0.9 * before[name], atol=1e-12), name


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
        with pytest.raises(ConfigInvalid, match="seed"):
            TrainConfig(seed=-1).validate()


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
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train(model, quick_dataset, quick_train_cfg(lr=0.0))
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name

    def test_zero_layer_stage_trains_one_step(self, quick_dataset):
        model = build(tiny_model_config(num_classes=3, layers_per_block=(2, 0, 1), dropout_p=0.1))
        log = train(model, quick_dataset, quick_train_cfg(max_iterations=1))
        assert len(log.records) == 1 and np.isfinite(log.records[0].loss)
        for name, p in model.named_parameters():
            assert np.all(np.isfinite(p.grad)) and np.all(np.isfinite(p.data)), name
        assert np.any(model.dec_blocks[0].convs[0].weight.grad)

    def test_every_public_op_runs_in_a_training_step(self, quick_dataset, monkeypatch):
        """The autodiff API holds only ops that some model variant runs."""
        ops = {name for name, fn in vars(ad).items()
               if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")}
        ops -= {"backward", "grad_check", "grad_check_tensors"}
        called = set()

        def recording(name, fn):
            def op(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return op

        for name in ops:
            monkeypatch.setattr(ad, name, recording(name, getattr(ad, name)))
        for skip in SKIP_ATTENTION_CHOICES:
            for mlp in MLP_VARIANT_CHOICES:
                cfg = tiny_model_config(num_classes=3, dropout_p=0.2, skip_attention=skip, mlp_variant=mlp)
                train(build(cfg), quick_dataset, quick_train_cfg(max_iterations=1))
        assert "conv2d" in ops and sorted(ops - called) == []

    def test_fixed_seed_reproduces_loss_trajectory(self, quick_dataset):
        runs = []
        for _ in range(2):
            model = build(small_model_config())
            log = train(model, quick_dataset, quick_train_cfg())
            runs.append([(r.loss, r.dice_loss, r.ce_loss) for r in log.records])
        assert runs[0] == runs[1]

    def test_refuses_to_append_a_fresh_run_to_an_existing_log(self, quick_dataset, tmp_path):
        cfg = quick_train_cfg(max_iterations=2)
        train(build(small_model_config()), quick_dataset, cfg, out_dir=tmp_path)
        before = (tmp_path / "training.log").read_bytes()
        with pytest.raises(ConfigInvalid, match="training.log"):
            train(build(small_model_config()), quick_dataset, cfg, out_dir=tmp_path)
        assert (tmp_path / "training.log").read_bytes() == before

    def test_empty_log_file_is_reused(self, quick_dataset, tmp_path):
        (tmp_path / "training.log").touch()
        train(build(small_model_config()), quick_dataset, quick_train_cfg(max_iterations=2), out_dir=tmp_path)
        assert len((tmp_path / "training.log").read_text().splitlines()) == 2

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


def use_worker(monkeypatch, on: bool) -> None:
    """Make train() fork its worker (as on two usable CPUs) or not (one)."""
    if on and not HAS_FORK:
        pytest.skip("no fork start method here")
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2 if on else 1)


@pytest.fixture
def split_small_steps(monkeypatch):
    """Split the 16x16 test steps too, which hold too few pixels to be split."""
    monkeypatch.setattr(training, "_MIN_CHUNK_PIXELS", 1)


@pytest.mark.usefixtures("split_small_steps")
class TestChunkedStep:
    def test_chunk_plan(self, monkeypatch):
        assert training._chunk_plan(1, 50176) == [(0, 1)]
        assert training._chunk_plan(3, 1) == [(0, 2), (2, 3)]
        monkeypatch.setattr(training, "_MIN_CHUNK_PIXELS", 4096)
        assert training._chunk_plan(8, 1024) == [(0, 4), (4, 8)]
        assert training._chunk_plan(7, 1024) == [(0, 4), (4, 7)]
        assert training._chunk_plan(6, 1024) == [(0, 6)]
        assert training._chunk_plan(8, 1023) == [(0, 8)]
        assert training._chunk_plan(2, 50176) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_step_of_small_chunks_is_the_whole_batch_step_with_no_worker(self, quick_dataset, monkeypatch,
                                                                          dtype):
        monkeypatch.setattr(training, "_MIN_CHUNK_PIXELS", 4096)
        use_worker(monkeypatch, True)
        model_cfg = small_model_config(dropout_p=0.1)
        cfg = quick_train_cfg(batch_size=4, max_iterations=1)  # 2 x 16 x 16 pixels a chunk
        x, y, rng = training._prepare_batch(quick_dataset, cfg, 0, np.dtype(dtype))
        ref_loss, ref = whole_batch_step(build(model_cfg, dtype=dtype), x, y, rng)
        model = build(model_cfg, dtype=dtype)
        children = []
        log = train(model, quick_dataset, cfg,
                    callbacks=[lambda record: children.append(len(multiprocessing.active_children()))])
        assert children == [0]
        assert log.records[0].loss == ref_loss
        for name, p in model.named_parameters():
            assert np.array_equal(p.grad, ref[name]), name

    @pytest.mark.parametrize("batch", [3, 12])
    def test_a_chunks_dropout_masks_are_its_rows_of_the_batch_wide_masks(self, batch):
        # successive draws of dense-layer, attention and MLP shapes, then a dense layer again
        shapes = [(batch, 8, 6, 6), (batch, 2, 5, 5), (batch, 5, 24), (batch, 5, 6), (batch, 8, 3, 3)]
        step_rng = np.random.default_rng(7)
        full = [ad._dropout_keep(np.empty(shape), 0.3, step_rng) for shape in shapes]
        for s0, s1 in training._chunk_plan(batch, 1):
            view = training._DropoutView(np.random.default_rng(7), s0, batch)
            for shape, mask in zip(shapes, full):
                assert np.array_equal(ad._dropout_keep(np.empty((s1 - s0, *shape[1:])), 0.3, view),
                                      mask[s0:s1])

    @pytest.mark.parametrize("dtype, batch, tol", [(np.float32, 3, 1e-5), (np.float32, 8, 1e-5),
                                                   (np.float64, 3, 1e-12), (np.float64, 8, 1e-12)])
    def test_gradients_agree_with_the_whole_batch_step(self, quick_dataset, dtype, batch, tol):
        model_cfg = small_model_config(dropout_p=0.1)
        cfg = quick_train_cfg(batch_size=batch, max_iterations=1)
        x, y, rng = training._prepare_batch(quick_dataset, cfg, 0, np.dtype(dtype))
        ref_loss, ref = whole_batch_step(build(model_cfg, dtype=dtype), x, y, rng)
        model = build(model_cfg, dtype=dtype)
        log = train(model, quick_dataset, cfg)  # leaves step 0's gradient on the parameters
        assert abs(log.records[0].loss - ref_loss) <= tol * ref_loss
        for name, p in model.named_parameters():
            assert np.max(np.abs(p.grad - ref[name])) <= tol * np.max(np.abs(ref[name])), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_one_sample_step_is_the_whole_batch_step_bit_for_bit(self, quick_dataset, dtype):
        model_cfg = small_model_config(dropout_p=0.1)
        cfg = quick_train_cfg(batch_size=1, max_iterations=1)
        x, y, rng = training._prepare_batch(quick_dataset, cfg, 0, np.dtype(dtype))
        ref_loss, ref = whole_batch_step(build(model_cfg, dtype=dtype), x, y, rng)
        model = build(model_cfg, dtype=dtype)
        assert train(model, quick_dataset, cfg).records[0].loss == ref_loss
        for name, p in model.named_parameters():
            assert np.array_equal(p.grad, ref[name]), name

    def test_with_a_worker_each_process_keeps_half_the_blas_threads_but_evaluation_all(self, quick_dataset,
                                                                                       monkeypatch):
        blas = training._openblas_threads()
        if blas is None:
            pytest.skip("numpy does not use OpenBLAS here")
        get, put = blas
        use_worker(monkeypatch, True)
        evaluate = training.evaluate
        seen = {"step": [], "eval": []}

        def counted_evaluate(*args):
            seen["eval"].append(get())
            return evaluate(*args)

        monkeypatch.setattr(training, "evaluate", counted_evaluate)
        before = get()
        put(2)
        try:
            train(build(small_model_config()), quick_dataset, quick_train_cfg(max_iterations=2, eval_every=1),
                  callbacks=[lambda record: seen["step"].append(get())])
            after = get()
        finally:
            put(before)
        assert seen == {"step": [1, 1], "eval": [2, 2]}  # two usable CPUs: one BLAS thread a process
        assert after == 2

    @pytest.mark.parametrize("batch", [3, 8])
    def test_forked_and_in_process_runs_are_byte_identical(self, quick_dataset, tmp_path, monkeypatch, batch):
        runs = []
        for worker in (True, False):
            use_worker(monkeypatch, worker)
            model = build(small_model_config(dropout_p=0.1))
            children = []
            out = tmp_path / f"worker{worker}"
            train(model, quick_dataset, quick_train_cfg(batch_size=batch, max_iterations=5), out_dir=out,
                  callbacks=[lambda record: children.append(len(multiprocessing.active_children()))])
            assert children == [int(worker)] * 5
            runs.append(((out / "training.log").read_bytes(), [p.data.tobytes() for p in model.parameters()]))
        assert runs[0] == runs[1]


@pytest.mark.usefixtures("split_small_steps")
class TestWorkerFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("worker", [True, False])
    @pytest.mark.parametrize("bad_sample", [0, -1], ids=["chunk0", "chunk1"])
    def test_a_non_finite_chunk_is_a_non_finite_loss(self, quick_dataset, monkeypatch, worker, bad_sample):
        use_worker(monkeypatch, worker)
        prepare = training._prepare_batch

        def poisoned(*args):
            x, y, rng = prepare(*args)
            x[bad_sample] = np.inf
            return x, y, rng

        monkeypatch.setattr(training, "_prepare_batch", poisoned)
        with pytest.raises(NonFiniteLoss, match="iteration 0"):
            train(build(small_model_config()), quick_dataset, quick_train_cfg(max_iterations=3))

    def test_a_worker_that_dies_is_a_clean_error(self, quick_dataset, monkeypatch):
        use_worker(monkeypatch, True)

        def kill_worker(record):
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)

        with pytest.raises(WorkerFailed, match="exited"):
            train(build(small_model_config()), quick_dataset, quick_train_cfg(max_iterations=4),
                  callbacks=[kill_worker])

    @pytest.mark.parametrize("delay", [0.0, 0.5], ids=["before_the_caller_sends", "with_the_callers_data_unread"])
    def test_a_worker_that_exits_is_a_clean_error(self, quick_dataset, monkeypatch, delay):
        """A worker that ends with the caller's data unread resets the
        socket pair, so the caller's recv() raises ConnectionResetError
        instead of EOFError; both are a WorkerFailed."""
        use_worker(monkeypatch, True)

        def exiting_worker(*args):
            time.sleep(delay)
            os._exit(3)

        monkeypatch.setattr(training, "_worker_main", exiting_worker)
        with pytest.raises(WorkerFailed, match="exit code 3"):
            train(build(small_model_config()), quick_dataset, quick_train_cfg(max_iterations=2))

    def test_no_worker_outlives_a_callback_that_raises(self, quick_dataset, monkeypatch):
        use_worker(monkeypatch, True)

        def stop(record):
            raise KeyError("stop")

        with pytest.raises(KeyError):
            train(build(small_model_config()), quick_dataset, quick_train_cfg(), callbacks=[stop])
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_normal_run(self, quick_dataset, monkeypatch):
        use_worker(monkeypatch, True)
        train(build(small_model_config()), quick_dataset, quick_train_cfg(max_iterations=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="reads a process's files from /proc")
    def test_the_worker_exits_when_its_caller_is_killed(self):
        """The caller prints its worker's pid and whether the worker's stdout is
        the null device, then kills itself; the worker must end on its own."""
        script = (
            "import multiprocessing, os, signal\n"
            "from tfcns import training\n"
            "from tfcns.data import SyntheticSpec, generate_synthetic\n"
            "from tfcns.model import ModelConfig, build\n"
            "training._usable_cpus = lambda: 2\n"
            "training._MIN_CHUNK_PIXELS = 1\n"
            "def on_step(record):\n"
            "    (worker,) = multiprocessing.active_children()\n"
            "    null = os.path.samestat(os.stat(f'/proc/{worker.pid}/fd/1'), os.stat(os.devnull))\n"
            "    print(worker.pid, null, flush=True)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "data = generate_synthetic(SyntheticSpec(n_cases=4, height=16, width=16, num_classes=3,\n"
            "                                        seed=2, radius_min=2, radius_max=3))\n"
            "model = build(ModelConfig(num_classes=3, input_size=16, first_conv_channels=3, growth_rate=2,\n"
            "                          layers_per_block=(1, 1, 1), patch_size=8, embed_dim=6, n_heads=2,\n"
            "                          transformer_layers=1, resmlp_hidden=6))\n"
            "training.train(model, data, training.TrainConfig(batch_size=4, max_iterations=50, eval_every=0),\n"
            "               callbacks=[on_step])\n"
        )
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT,
                             env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
        assert run.returncode == -signal.SIGKILL, run.stderr
        pid, stdout_is_null = run.stdout.split()
        assert stdout_is_null == "True"
        deadline = time.monotonic() + 10.0
        while process_alive(int(pid)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not process_alive(int(pid))


def process_alive(pid: int) -> bool:
    """Whether ``pid`` runs (an exited, unreaped process counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


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
