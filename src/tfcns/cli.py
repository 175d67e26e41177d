"""Command-line interface: ``tfcns train|eval|predict|cam|ablate``.

Run configuration is a flat ``key = value`` text file (``#`` comments)
merged with repeatable ``--set key=value`` overrides; unknown keys are
errors. The effective configuration is echoed to the output directory.
Exit codes: 0 success, 1 runtime failure (non-finite loss), 2 usage,
configuration, or data errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .data import (config_kinds, format_config_text, load_dataset, parse_config_value, read_config_lines,
                   read_image, write_cam_overlay, write_heatmap, write_mask_image, write_tensor)
from .errors import (
    ClassOutOfRange,
    ConfigInvalid,
    DatasetError,
    FormatError,
    NonFiniteLoss,
    ShapeMismatch,
    TfcnsError,
    VersionError,
)
from .model import (
    MLP_VARIANT_CHOICES,
    SKIP_ATTENTION_CHOICES,
    ModelConfig,
    TFCNsModel,
    build,
    class_activation_map,
    model_from_checkpoint,
    predict,
)
from .training import ABLATION_AXES, TrainConfig, ablation_grid, evaluate, refuse_existing_log, run_ablation, train

_MODEL_KINDS = config_kinds(ModelConfig)
_TRAIN_KINDS = config_kinds(TrainConfig)
_PATH_KEYS = ("dataset_dir", "output_dir", "checkpoint")
# key -> kind; order defines the echoed config layout
_KINDS = {**_MODEL_KINDS, **_TRAIN_KINDS, **dict.fromkeys(_PATH_KEYS, "path")}

_HELP = {
    "in_channels": "image channels",
    "num_classes": "segmentation classes including background",
    "input_size": "square input side; must be divisible by patch_size",
    "first_conv_channels": "stem conv output channels",
    "growth_rate": "channels added per dense-block layer",
    "layers_per_block": "per-stage dense layer counts, or 'auto'",
    "patch_size": "transformer patch size (8/16/32); sets encoder depth",
    "embed_dim": "token embedding width",
    "transformer_layers": "attention/feed-forward layer pairs",
    "n_heads": "attention heads",
    "resmlp_hidden": "feed-forward hidden width, or 'auto'",
    "dropout_p": "dropout probability in blocks",
    "skip_attention": "skip gate: " + " | ".join(SKIP_ATTENTION_CHOICES),
    "mlp_variant": "feed-forward variant: " + " | ".join(MLP_VARIANT_CHOICES),
    "clab_branches": "gate branch count",
    "clab_kernels": "kernels per gate branch, or 'auto'",
    "seed": "seed for init, batching, augmentation, dropout",
    "lr": "base learning rate",
    "momentum": "SGD momentum",
    "weight_decay": "coupled L2 weight decay",
    "batch_size": "training batch size",
    "epochs": "epochs when max_iterations is 'auto'",
    "lr_decay_at": "iteration at which the step decay fires",
    "lr_decay_factor": "multiplier applied at lr_decay_at",
    "augment_rotate": "enable random 90-degree rotations",
    "augment_flip": "enable random flips",
    "eval_every": "iterations between evaluations (0 disables)",
    "max_iterations": "iteration cap, or 'auto' for epoch-based",
    "dataset_dir": "directory of <id>.img.tnsr / <id>.msk.tnsr pairs",
    "output_dir": "directory for logs, checkpoints, images, tables",
    "checkpoint": "checkpoint file for eval/predict/cam",
}
# (key, kind, help) for every config key
SCHEMA = [(key, kind, _HELP[key]) for key, kind in _KINDS.items()]


class RunConfig:
    """Merged model/training/path configuration; the config accessors validate
    what they return."""

    def __init__(self):
        self.values = {**vars(ModelConfig()), **vars(TrainConfig()), **dict.fromkeys(_PATH_KEYS)}

    def set(self, key: str, raw: str) -> None:
        if key not in _KINDS:
            raise ConfigInvalid(f"unknown config key {key!r}")
        self.values[key] = parse_config_value(key, _KINDS[key], raw)

    def load_file(self, path) -> None:
        path = Path(path)
        if not path.is_file():
            raise ConfigInvalid(f"config file not found: {path}")
        for key, value in read_config_lines(path.read_text(encoding="utf-8"), path):
            self.set(key, value)

    def model_config(self) -> ModelConfig:
        cfg = ModelConfig(**{k: self.values[k] for k in _MODEL_KINDS})
        cfg.validate()
        return cfg

    def train_config(self) -> TrainConfig:
        cfg = TrainConfig(**{k: self.values[k] for k in _TRAIN_KINDS})
        cfg.validate()
        return cfg

    def path(self, key: str) -> Optional[str]:
        return self.values[key]

    def to_text(self) -> str:
        return format_config_text((key, self.values[key]) for key in _KINDS)


def _schema_epilog() -> str:
    width = max(len(key) for key, _, _ in SCHEMA)
    lines = ["config keys (settable in the --config file or via --set key=value):"]
    for key, kind, help_text in SCHEMA:
        lines.append(f"  {key.ljust(width)}  {kind:<7}  {help_text}")
    return "\n".join(lines)


def _load_run_config(args) -> RunConfig:
    rc = RunConfig()
    if args.config:
        rc.load_file(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigInvalid(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        rc.set(key.strip(), value)
    if args.seed is not None:
        rc.set("seed", str(args.seed))
    if args.out is not None:
        rc.set("output_dir", args.out)
    return rc


def _require_out_dir(rc: RunConfig) -> Path:
    out = rc.path("output_dir")
    if not out:
        raise ConfigInvalid("an output directory is required (--out or output_dir)")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(rc: RunConfig, out: Path) -> None:
    (out / "effective_config.txt").write_text(rc.to_text(), encoding="utf-8")


def _load_pairs(rc: RunConfig):
    dataset_dir = rc.path("dataset_dir")
    if not dataset_dir:  # Path("") is the working directory
        raise DatasetError(f"dataset directory not found: {dataset_dir}")
    return load_dataset(dataset_dir)


def _load_model(rc: RunConfig) -> TFCNsModel:
    ckpt_path = rc.path("checkpoint")
    if not ckpt_path or not Path(ckpt_path).is_file():
        raise ConfigInvalid(f"checkpoint not found: {ckpt_path}")
    model, _ = model_from_checkpoint(ckpt_path)
    return model


def _load_image(path, cfg) -> np.ndarray:
    image = read_image(path)
    if image.shape != (cfg.in_channels, cfg.input_size, cfg.input_size):
        raise ShapeMismatch(
            f"image shape {tuple(image.shape)} does not match checkpoint input "
            f"({cfg.in_channels}, {cfg.input_size}, {cfg.input_size})"
        )
    return image


def cmd_train(args) -> int:
    rc = _load_run_config(args)
    model_cfg, train_cfg = rc.model_config(), rc.train_config()
    out = _require_out_dir(rc)
    refuse_existing_log(out)  # before the echo overwrites the earlier run's config
    pairs = _load_pairs(rc)
    _echo_config(rc, out)
    train(build(model_cfg), pairs, train_cfg, out_dir=out)
    return 0


def cmd_eval(args) -> int:
    rc = _load_run_config(args)
    model = _load_model(rc)
    pairs = _load_pairs(rc)
    if not pairs:
        raise DatasetError(f"dataset directory is empty: {rc.path('dataset_dir')}")
    report = evaluate(model, pairs)
    table = report.to_tsv()
    sys.stdout.write(table)
    if rc.path("output_dir"):
        out = _require_out_dir(rc)
        (out / "metrics.tsv").write_text(table, encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    rc = _load_run_config(args)
    model = _load_model(rc)
    out = _require_out_dir(rc)
    image = _load_image(args.image, model.cfg)
    mask = predict(model, image[None])[0]
    write_tensor(out / "mask.tnsr", mask.astype(np.int32))
    write_mask_image(out / "mask.ppm", mask)
    return 0


def cmd_cam(args) -> int:
    rc = _load_run_config(args)
    model = _load_model(rc)
    out = _require_out_dir(rc)
    image = _load_image(args.image, model.cfg)
    heat = class_activation_map(model, image[None], args.target_class)[0]
    write_heatmap(out / "heatmap.ppm", heat)
    write_cam_overlay(out / "overlay.ppm", heat, threshold=args.threshold, image=image)
    return 0


def cmd_ablate(args) -> int:
    rc = _load_run_config(args)
    model_cfg, train_cfg = rc.model_config(), rc.train_config()
    out = _require_out_dir(rc)
    pairs = _load_pairs(rc)
    _echo_config(rc, out)
    header, grid = ablation_grid(args.axis)
    table = run_ablation(model_cfg, train_cfg, grid, pairs, label_header=header)
    text = table.to_tsv()
    sys.stdout.write(text)
    (out / f"ablation_{args.axis}.tsv").write_text(text, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfcns",
        description="Train, evaluate, and inspect the dense-transformer segmentation network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    epilog = _schema_epilog()

    def common(p):
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the seed key")
        p.add_argument("--out", metavar="DIR", help="override the output_dir key")

    fmt = argparse.RawDescriptionHelpFormatter
    p_train = sub.add_parser("train", help="train a model", epilog=epilog, formatter_class=fmt)
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset",
                            epilog=epilog, formatter_class=fmt)
    common(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_pred = sub.add_parser("predict", help="segment one image", epilog=epilog, formatter_class=fmt)
    common(p_pred)
    p_pred.add_argument("--image", required=True, metavar="PATH", help="input image (.tnsr)")
    p_pred.set_defaults(fn=cmd_predict)

    p_cam = sub.add_parser("cam", help="class activation heatmap for one image",
                           epilog=epilog, formatter_class=fmt)
    common(p_cam)
    p_cam.add_argument("--image", required=True, metavar="PATH", help="input image (.tnsr)")
    p_cam.add_argument("--target-class", type=int, required=True, help="class index to explain")
    p_cam.add_argument("--threshold", type=float, default=0.4,
                       help="activation intensity threshold for the overlay")
    p_cam.set_defaults(fn=cmd_cam)

    p_abl = sub.add_parser("ablate", help="run one ablation axis", epilog=epilog, formatter_class=fmt)
    common(p_abl)
    p_abl.add_argument("--axis", choices=tuple(ABLATION_AXES), required=True)
    p_abl.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigInvalid, DatasetError, FormatError, VersionError,
            ClassOutOfRange, ShapeMismatch, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TfcnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
