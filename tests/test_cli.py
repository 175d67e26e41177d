"""Command-line interface: schema-driven help, config merging, exit codes,
and the five subcommands end to end on a small synthetic dataset."""

import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tfcns.cli
import tfcns.errors
from conftest import small_model_config
from tfcns.cli import SCHEMA, RunConfig, build_parser, main
from tfcns.data import (
    MASK_PALETTE,
    SyntheticSpec,
    generate_synthetic,
    read_tensor,
    save_dataset,
    write_tensor,
)
from tfcns.errors import ConfigInvalid, TfcnsError, VersionError
from tfcns.model import ModelConfig, build, save_checkpoint
from tfcns.training import TrainConfig, evaluate, train

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    pairs = generate_synthetic(SyntheticSpec(
        n_cases=6, height=16, width=16, num_classes=3,
        noise_sigma=0.01, seed=2, radius_min=2, radius_max=3,
    ))
    save_dataset(root, pairs)
    return root


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, dataset_dir):
    """A checkpoint that fits its own training set well (dice > 95)."""
    from tfcns.data import load_dataset

    pairs = load_dataset(dataset_dir)
    model = build(small_model_config(growth_rate=6, layers_per_block=(2, 2, 2)))
    cfg = TrainConfig(lr=0.02, batch_size=6, max_iterations=150, eval_every=0,
                      augment_rotate=False, augment_flip=False, seed=0)
    train(model, pairs, cfg)
    report = evaluate(model, pairs)
    assert report.dice_avg > 95.0
    path = tmp_path_factory.mktemp("ckpt") / "fit.ckpt"
    save_checkpoint(model, None, path)
    return path


def model_flags(dataset_dir, out):
    return [
        "--set", f"dataset_dir={dataset_dir}",
        "--set", "input_size=16", "--set", "num_classes=3", "--set", "patch_size=8",
        "--set", "first_conv_channels=8", "--set", "growth_rate=6",
        "--set", "layers_per_block=2,2,2", "--set", "embed_dim=16",
        "--set", "transformer_layers=1", "--set", "n_heads=2",
        "--set", "dropout_p=0.0", "--set", "batch_size=4",
        "--out", str(out),
    ]


class TestSchemaAndHelp:
    @pytest.mark.parametrize("command", ["train", "eval", "predict", "cam", "ablate"])
    def test_help_lists_every_config_key(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key, _, _ in SCHEMA:
            assert key in text, key

    def test_help_in_a_fresh_interpreter_loads_no_scipy(self):
        """numpy is the only runtime dependency: importing the command shell
        (and so every module it imports) and running `tfcns --help` load no scipy."""
        snippet = ("import sys; sys.argv = ['tfcns', '--help']; import tfcns.cli\n"
                   "try:\n    tfcns.cli.entrypoint()\nexcept SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True,
                             cwd=ROOT, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
        assert run.returncode == 0, f"child exited {run.returncode}:\n{run.stderr}"
        assert "usage: tfcns" in run.stdout
        assert run.stdout.splitlines()[-1] == "[]"

    def test_unknown_set_key_is_exit_2(self, capsys):
        rc = main(["train", "--set", "learning=1"])
        assert rc == 2
        assert "learning" in capsys.readouterr().err

    def test_unknown_config_file_key_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("lr = 0.1\nbogus_key = 3\n")
        rc = main(["train", "--config", str(cfg)])
        assert rc == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_config_file_comments_and_overrides(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("# comment\nlr = 0.25   # trailing comment\nepochs = 7\n")
        rc = RunConfig()
        rc.load_file(cfg)
        assert rc.train_config().lr == 0.25
        assert rc.train_config().epochs == 7

    def test_cli_overrides_file_values(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("lr = 0.25\n")
        rc = RunConfig()
        rc.load_file(cfg)
        rc.set("lr", "0.5")
        assert rc.train_config().lr == 0.5


class TestDeclaredOnce:
    """Each config key is declared on its dataclass field and each exit code
    on its error class; the command line derives both."""

    def test_schema_is_the_config_fields_plus_the_path_keys(self):
        field_names = [f.name for cls in (ModelConfig, TrainConfig) for f in dataclasses.fields(cls)]
        keys = [key for key, _, _ in SCHEMA]
        assert keys == list(dict.fromkeys(field_names)) + ["dataset_dir", "output_dir", "checkpoint"]
        assert all(help_text for _, _, help_text in SCHEMA)
        for cls in (ModelConfig, TrainConfig):
            assert all(f.metadata["help"] for f in dataclasses.fields(cls))

    @pytest.mark.parametrize("cls, bad", [
        (ModelConfig, dict(patch_size=12)), (ModelConfig, dict(n_heads=0)),
        (ModelConfig, dict(dropout_p=1.0)), (ModelConfig, dict(skip_attention="cbam")),
        (TrainConfig, dict(lr=float("nan"))), (TrainConfig, dict(batch_size=0)),
        (TrainConfig, dict(lr_decay_factor=0.0)), (TrainConfig, dict(max_iterations=-1)),
    ])
    def test_an_invalid_config_cannot_be_constructed(self, cls, bad):
        with pytest.raises(ConfigInvalid):
            cls(**bad)
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(cls(), **bad)

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ModelConfig().n_heads = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().lr = -1.0

    # the exit code of every error class, as the command line has always mapped them
    EXIT_CODES = {
        "TfcnsError": 1, "NonFiniteValue": 1, "NotScalar": 1, "DetachedTensor": 1, "EmptyMask": 1,
        "NonFiniteLoss": 1, "WorkerFailed": 1, "ShapeMismatch": 2, "ConfigInvalid": 2, "ClassOutOfRange": 2,
        "FormatError": 2, "VersionError": 2, "DatasetError": 2,
    }

    def test_every_error_class_exits_with_its_code(self, monkeypatch, capsys):
        classes = {name: cls for name, cls in vars(tfcns.errors).items()
                   if isinstance(cls, type) and issubclass(cls, TfcnsError)}
        assert classes.keys() == self.EXIT_CODES.keys()
        for name, cls in [*classes.items(), ("OSError", OSError)]:
            exc = cls(2, 1) if cls is VersionError else cls(f"{name} raised")

            def fail(args, exc=exc):
                raise exc

            monkeypatch.setattr(tfcns.cli, "_load_run_config", fail)
            assert main(["train"]) == (2 if cls is OSError else self.EXIT_CODES[name]), name
            assert capsys.readouterr().err.startswith("error: "), name

    def test_non_utf8_config_file_is_exit_2_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_bytes(b"\xff\xfelr = 0.1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert str(cfg) in capsys.readouterr().err


class TestTrainCommand:
    def test_missing_dataset_dir_is_exit_2_naming_path(self, tmp_path, capsys):
        rc = main(["train", "--set", "dataset_dir=/no/such/dir", "--out", str(tmp_path)])
        assert rc == 2
        assert "/no/such/dir" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "n_heads=0", "resmlp_hidden=0", "clab_kernels=0", "layers_per_block=-1,2,2",
        "input_size=0", "lr=nan", "max_iterations=-3", "eval_every=-1",
    ])
    def test_invalid_value_is_exit_2_naming_key(self, setting, dataset_dir, tmp_path, capsys):
        rc = main(["train", *model_flags(dataset_dir, tmp_path), "--set", setting])
        assert rc == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "effective_config.txt").exists()

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--set", "transformer_layers=-2"]],
                             ids=["seed", "transformer_layers"])
    def test_negative_value_is_exit_2_before_the_output_dir(self, flag, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", *model_flags(dataset_dir, out), *flag])
        assert rc == 2
        assert "must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_smoke_run_writes_log_and_effective_config(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", *model_flags(dataset_dir, out),
                   "--set", "max_iterations=10", "--set", "eval_every=0",
                   "--set", "lr=0.005", "--seed", "3"])
        assert rc == 0
        log_lines = (out / "training.log").read_text().splitlines()
        assert len(log_lines) == 10
        echoed = (out / "effective_config.txt").read_text()
        assert "lr = 0.005" in echoed
        assert "seed = 3" in echoed
        assert (out / "last.ckpt").is_file()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverging_run_is_exit_1(self, dataset_dir, tmp_path, capsys):
        rc = main(["train", *model_flags(dataset_dir, tmp_path / "run"), "--set", "max_iterations=5",
                   "--set", "eval_every=0", "--set", "lr=1e30"])
        assert rc == 1
        assert "non-finite loss at iteration" in capsys.readouterr().err

    def test_rerun_into_a_used_output_dir_is_exit_2_naming_the_log(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        flags = [*model_flags(dataset_dir, out), "--set", "max_iterations=2", "--set", "eval_every=0"]
        assert main(["train", *flags]) == 0
        log, echoed = (out / "training.log").read_bytes(), (out / "effective_config.txt").read_bytes()
        capsys.readouterr()
        assert main(["train", *flags, "--set", "lr=0.5"]) == 2
        assert "training.log" in capsys.readouterr().err
        assert (out / "training.log").read_bytes() == log
        assert (out / "effective_config.txt").read_bytes() == echoed


class TestEvalCommand:
    def test_overfit_checkpoint_scores_high(self, dataset_dir, trained_checkpoint, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(["eval", "--set", f"checkpoint={trained_checkpoint}",
                   "--set", f"dataset_dir={dataset_dir}", "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        header, row = table.splitlines()[:2]
        assert header == "Method\tDice(avg)\tHd95(avg)\tJaccard(avg)\tDice(class1)\tDice(class2)"
        assert float(row.split("\t")[1]) > 95.0
        assert (out / "metrics.tsv").read_text() == table

    def test_empty_dataset_is_exit_2(self, trained_checkpoint, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["eval", "--set", f"checkpoint={trained_checkpoint}",
                   "--set", f"dataset_dir={empty}"])
        assert rc == 2

    def test_missing_dataset_dir_is_exit_2_naming_path(self, trained_checkpoint, capsys):
        rc = main(["eval", "--set", f"checkpoint={trained_checkpoint}",
                   "--set", "dataset_dir=/no/such/dir"])
        assert rc == 2
        assert "dataset directory not found: /no/such/dir" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["int32", "mixed-float"])
    def test_checkpoint_without_one_float_dtype_is_exit_2(self, case, dataset_dir, tmp_path, capsys):
        model = build(small_model_config(), dtype=np.float64)
        if case == "int32":
            model.astype(np.int32)
        else:
            model.head.astype(np.float32)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(model, None, path)
        rc = main(["eval", "--set", f"checkpoint={path}", "--set", f"dataset_dir={dataset_dir}"])
        assert rc == 2
        assert "all float32 or all float64" in capsys.readouterr().err

    def test_missing_checkpoint_is_exit_2(self, dataset_dir, capsys):
        rc = main(["eval", "--set", "checkpoint=/no/ckpt",
                   "--set", f"dataset_dir={dataset_dir}"])
        assert rc == 2


class TestPredictCommand:
    @pytest.mark.parametrize("command", [["predict"], ["cam", "--target-class", "0"]], ids=["predict", "cam"])
    def test_shape_mismatch_prints_both_shapes(self, command, trained_checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.img.tnsr"
        write_tensor(bad, np.zeros((1, 8, 8), dtype=np.float32))
        rc = main([*command, "--set", f"checkpoint={trained_checkpoint}",
                   "--image", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(1, 8, 8)" in err and "(1, 16, 16)" in err

    def test_float64_image_beyond_float32_range_is_exit_2(self, trained_checkpoint, tmp_path, capsys):
        bad = tmp_path / "huge.img.tnsr"
        write_tensor(bad, np.full((1, 16, 16), 1e300))
        rc = main(["predict", "--set", f"checkpoint={trained_checkpoint}",
                   "--image", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "huge.img.tnsr" in capsys.readouterr().err

    def test_image_dims_whose_product_wraps_int64_is_exit_2(self, trained_checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.tnsr"  # 65536**4 == 2**64 elements claimed, none present
        bad.write_bytes(b"TNSR" + struct.pack("<HBB4I", 1, 0, 4, *[65536] * 4) + struct.pack("<I", 0))
        rc = main(["predict", "--set", f"checkpoint={trained_checkpoint}",
                   "--image", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "truncated payload" in capsys.readouterr().err

    def test_directory_as_image_is_exit_2(self, trained_checkpoint, tmp_path, capsys):
        rc = main(["predict", "--set", f"checkpoint={trained_checkpoint}",
                   "--image", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_outputs_round_trip_and_use_palette(self, dataset_dir, trained_checkpoint, tmp_path):
        out = tmp_path / "pred"
        image = sorted(dataset_dir.glob("*.img.tnsr"))[0]
        rc = main(["predict", "--set", f"checkpoint={trained_checkpoint}",
                   "--image", str(image), "--out", str(out)])
        assert rc == 0
        mask = read_tensor(out / "mask.tnsr")
        assert mask.shape == (16, 16) and mask.dtype == np.int32
        blob = (out / "mask.ppm").read_bytes()
        payload = blob.split(b"\n255\n", 1)[1]
        pixels = {tuple(payload[i:i + 3]) for i in range(0, len(payload), 3)}
        assert pixels <= {MASK_PALETTE[c] for c in range(3)}


class TestCamCommand:
    def test_class_out_of_range_is_exit_2(self, dataset_dir, trained_checkpoint, tmp_path):
        image = sorted(dataset_dir.glob("*.img.tnsr"))[0]
        rc = main(["cam", "--set", f"checkpoint={trained_checkpoint}",
                   "--image", str(image), "--target-class", "9", "--out", str(tmp_path)])
        assert rc == 2

    def test_outputs_are_deterministic(self, dataset_dir, trained_checkpoint, tmp_path):
        image = sorted(dataset_dir.glob("*.img.tnsr"))[0]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["cam", "--set", f"checkpoint={trained_checkpoint}",
                       "--image", str(image), "--target-class", "1",
                       "--threshold", "0.4", "--out", str(out)])
            assert rc == 0
            outs.append(((out / "heatmap.ppm").read_bytes(), (out / "overlay.ppm").read_bytes()))
        assert outs[0] == outs[1]


class TestAblateCommand:
    def test_mlp_axis_writes_table(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = main(["ablate", "--axis", "mlp", *model_flags(dataset_dir, out),
                   "--set", "max_iterations=2", "--set", "eval_every=0"])
        assert rc == 0
        text = (out / "ablation_mlp.tsv").read_text()
        lines = text.splitlines()
        assert lines[0].split("\t") == ["Variant", "Dice", "Hd95", "Jaccard"]
        assert [ln.split("\t")[0] for ln in lines[1:]] == ["ResMLP", "MLP"]
        assert capsys.readouterr().out == text

    def test_axis_is_required(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", *model_flags(dataset_dir, tmp_path)])
        assert exc.value.code == 2

    def test_invalid_value_is_exit_2_and_creates_no_output_dir(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = main(["ablate", "--axis", "mlp", *model_flags(dataset_dir, out), "--set", "lr=nan"])
        assert rc == 2
        assert "lr" in capsys.readouterr().err
        assert not out.exists()
