"""Command-line interface: ``tfcns train|eval|predict|cam|ablate``.

Run configuration is a flat ``key = value`` text file (``#`` comments)
merged with repeatable ``--set key=value`` overrides; unknown keys are
errors; each key's kind and help come from its config dataclass field. The
effective configuration is echoed to the output directory. Exit codes: 0
success, else the error's ``exit_code`` (2 for a file-system error).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (config_kinds, format_config_text, load_dataset, parse_config_value, read_config_lines,
                   read_image, write_cam_overlay, write_heatmap, write_mask_image, write_tensor)
from .errors import ConfigInvalid, DatasetError, TfcnsError
from .model import (
    _MODEL_KINDS,
    ModelConfig,
    TFCNsModel,
    build,
    class_activation_map,
    model_from_checkpoint,
    predict,
)
from .training import ABLATION_AXES, TrainConfig, ablation_grid, evaluate, refuse_existing_log, run_ablation, train

_TRAIN_KINDS = config_kinds(TrainConfig)
# help of the keys that no config dataclass owns
_PATH_HELP = {
    "dataset_dir": "directory of <id>.img.tnsr / <id>.msk.tnsr pairs",
    "output_dir": "directory for logs, checkpoints, images, tables",
    "checkpoint": "checkpoint file for eval/predict/cam",
}
# key -> kind; order defines the echoed config layout
_KINDS = {**_MODEL_KINDS, **_TRAIN_KINDS, **dict.fromkeys(_PATH_HELP, "path")}
_HELP = {f.name: f.metadata["help"] for cls in (ModelConfig, TrainConfig) for f in fields(cls)} | _PATH_HELP
# (key, kind, help) for every config key
SCHEMA = [(key, kind, _HELP[key]) for key, kind in _KINDS.items()]


class RunConfig:
    """Merged model/training/path configuration; building a config from it
    checks the values."""

    def __init__(self):
        self.values = {**vars(ModelConfig()), **vars(TrainConfig()), **dict.fromkeys(_PATH_HELP)}

    def set(self, key: str, raw: str) -> None:
        if key not in _KINDS:
            raise ConfigInvalid(f"unknown config key {key!r}")
        self.values[key] = parse_config_value(key, _KINDS[key], raw)

    def load_file(self, path) -> None:
        path = Path(path)
        if not path.is_file():
            raise ConfigInvalid(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigInvalid(f"config file {path} is not UTF-8 text: {exc}") from exc
        for key, value in read_config_lines(text, path):
            self.set(key, value)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{k: self.values[k] for k in _MODEL_KINDS})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{k: self.values[k] for k in _TRAIN_KINDS})

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
    out = rc.values["output_dir"]
    if not out:
        raise ConfigInvalid("an output directory is required (--out or output_dir)")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_pairs(rc: RunConfig):
    dataset_dir = rc.values["dataset_dir"]
    if not dataset_dir:  # Path("") is the working directory
        raise DatasetError(f"dataset directory not found: {dataset_dir}")
    return load_dataset(dataset_dir)


def _load_model(rc: RunConfig) -> TFCNsModel:
    ckpt_path = rc.values["checkpoint"]
    if not ckpt_path or not Path(ckpt_path).is_file():
        raise ConfigInvalid(f"checkpoint not found: {ckpt_path}")
    model, _ = model_from_checkpoint(ckpt_path)
    return model


def cmd_train(rc: RunConfig, args) -> None:
    model_cfg, train_cfg = rc.model_config(), rc.train_config()
    out = _require_out_dir(rc)
    refuse_existing_log(out)  # before the echo overwrites the earlier run's config
    pairs = _load_pairs(rc)
    (out / "effective_config.txt").write_text(rc.to_text(), encoding="utf-8")
    train(build(model_cfg), pairs, train_cfg, out_dir=out)


def cmd_eval(rc: RunConfig, args) -> None:
    model = _load_model(rc)
    pairs = _load_pairs(rc)
    if not pairs:
        raise DatasetError(f"dataset directory is empty: {rc.values['dataset_dir']}")
    report = evaluate(model, pairs)
    table = report.to_tsv()
    sys.stdout.write(table)
    if rc.values["output_dir"]:
        out = _require_out_dir(rc)
        (out / "metrics.tsv").write_text(table, encoding="utf-8")


def cmd_predict(rc: RunConfig, args) -> None:
    model = _load_model(rc)
    out = _require_out_dir(rc)
    image = read_image(args.image)
    mask = predict(model, image[None])[0]
    write_tensor(out / "mask.tnsr", mask.astype(np.int32))
    write_mask_image(out / "mask.ppm", mask)


def cmd_cam(rc: RunConfig, args) -> None:
    model = _load_model(rc)
    out = _require_out_dir(rc)
    image = read_image(args.image)
    heat = class_activation_map(model, image[None], args.target_class)[0]
    write_heatmap(out / "heatmap.ppm", heat)
    write_cam_overlay(out / "overlay.ppm", heat, threshold=args.threshold, image=image)


def cmd_ablate(rc: RunConfig, args) -> None:
    model_cfg, train_cfg = rc.model_config(), rc.train_config()
    out = _require_out_dir(rc)
    pairs = _load_pairs(rc)
    (out / "effective_config.txt").write_text(rc.to_text(), encoding="utf-8")
    header, grid = ablation_grid(args.axis)
    table = run_ablation(model_cfg, train_cfg, grid, pairs, label_header=header)
    text = table.to_tsv()
    sys.stdout.write(text)
    (out / f"ablation_{args.axis}.tsv").write_text(text, encoding="utf-8")


# (flag, add_argument keywords) of the options every subcommand takes
_COMMON_OPTIONS = (
    ("--config", dict(metavar="PATH", help="flat key = value config file")),
    ("--set", dict(action="append", metavar="KEY=VALUE", help="override a config key (repeatable)")),
    ("--seed", dict(type=int, help="override the seed key")),
    ("--out", dict(metavar="DIR", help="override the output_dir key")),
)
_IMAGE_OPTION = ("--image", dict(required=True, metavar="PATH", help="input image (.tnsr)"))

# name -> (handler, help, options beyond the common ones); order is the --help order
COMMANDS = {
    "train": (cmd_train, "train a model", ()),
    "eval": (cmd_eval, "evaluate a checkpoint on a dataset", ()),
    "predict": (cmd_predict, "segment one image", (_IMAGE_OPTION,)),
    "cam": (cmd_cam, "class activation heatmap for one image", (
        _IMAGE_OPTION,
        ("--target-class", dict(type=int, required=True, help="class index to explain")),
        ("--threshold", dict(type=float, default=0.4, help="activation intensity threshold for the overlay")),
    )),
    "ablate": (cmd_ablate, "run one ablation axis", (("--axis", dict(choices=tuple(ABLATION_AXES), required=True)),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfcns",
        description="Train, evaluate, and inspect the dense-transformer segmentation network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    epilog = _schema_epilog()
    for name, (fn, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for flag, kwargs in _COMMON_OPTIONS + options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(_load_run_config(args), args)
    except TfcnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
