"""SGD-with-momentum training loop, step learning-rate schedule, exact
axis-aligned augmentation, evaluation over a dataset, and the ablation
runner that emits one comparative table per toggle axis.

Determinism contract: every stochastic choice of iteration ``i`` (batch
sampling, augmentation draws, dropout masks) derives from
``SeedSequence(seed, spawn_key=(i,))``, so a fixed seed reproduces the loss
trajectory bit-for-bit and checkpoints only need the iteration counter to
describe the generator state.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .data import SEED_HELP, SegmentationPair, config_field
from .errors import ConfigInvalid, NonFiniteLoss, NonFiniteValue, ShapeMismatch
from .metrics import MetricReport, aggregate, combined_loss_parts, evaluate_case
from .model import ModelConfig, TFCNsModel, build, predict, save_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    """SGD schedule, augmentation and evaluation cadence, checked when built."""

    lr: float = config_field(0.005, "base learning rate")
    momentum: float = config_field(0.9, "SGD momentum")
    weight_decay: float = config_field(1e-4, "coupled L2 weight decay")
    batch_size: int = config_field(12, "training batch size")
    epochs: int = config_field(150, "epochs when max_iterations is 'auto'")
    lr_decay_at: int = config_field(30000, "iteration at which the step decay fires")
    lr_decay_factor: float = config_field(0.1, "multiplier applied at lr_decay_at")
    seed: int = config_field(0, SEED_HELP)
    augment_rotate: bool = config_field(True, "enable random 90-degree rotations")
    augment_flip: bool = config_field(True, "enable random flips")
    eval_every: int = config_field(100, "iterations between evaluations (0 disables)")
    max_iterations: Optional[int] = config_field(None, "iteration cap, or 'auto' for epoch-based")

    def validate(self) -> None:
        for name in ("lr", "momentum", "weight_decay"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigInvalid(f"{name} {getattr(self, name)} must be finite and non-negative")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigInvalid(f"lr_decay_factor {self.lr_decay_factor} outside (0, 1]")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigInvalid("batch_size and epochs must be positive")
        for name in ("eval_every", "max_iterations", "seed"):
            if (getattr(self, name) or 0) < 0:
                raise ConfigInvalid(f"{name} {getattr(self, name)} must be non-negative")

    __post_init__ = validate  # a config is checked when built


@dataclass
class OptimizerState:
    """Per-parameter momentum buffers (shapes mirror the parameters exactly)
    plus the global iteration counter."""

    momentum: dict
    iteration: int = 0

    @classmethod
    def for_model(cls, model: TFCNsModel) -> "OptimizerState":
        return cls(momentum={
            name: np.zeros_like(p.data)
            for name, p in model.named_parameters()
        })


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Step schedule: base rate before the decay iteration, scaled rate at and
    after it."""
    return cfg.lr if iteration < cfg.lr_decay_at else cfg.lr * cfg.lr_decay_factor


def sgd_step(params: Sequence[Parameter], state: OptimizerState, cfg: TrainConfig) -> None:
    """Classic coupled-L2 SGD with momentum:
    g' = g + wd*w ; v <- mu*v + g' ; w <- w - lr*v.

    Gradients are read from the parameter tensors (zeros when absent).
    Parameters flagged no_decay (biases, the ResMLP scalar, embedding tables)
    skip the weight-decay term.
    """
    lr = lr_at(state.iteration, cfg)
    for p in params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if cfg.weight_decay and not p.no_decay:
            g = g + cfg.weight_decay * p.data
        v = state.momentum[p.name]
        v *= cfg.momentum
        v += g
        p.data -= lr * v
    state.iteration += 1


def augment(pair: SegmentationPair, rng: np.random.Generator,
            rotate: bool = True, flip: bool = True) -> SegmentationPair:
    """One random exact transform applied identically to image and mask:
    with probability 1/2 a flip (horizontal/vertical equally likely),
    otherwise a rotation by 90, 180 or 270 degrees. Disabling one flag makes
    the other branch certain; disabling both returns the pair unchanged."""
    img, mask = pair.image, pair.mask
    if not rotate and not flip:
        return pair
    do_flip = flip and (not rotate or rng.random() < 0.5)
    if do_flip:
        axis = int(rng.integers(2))
        img = np.flip(img, axis=1 + axis)
        mask = np.flip(mask, axis=axis)
    else:
        k = int(rng.integers(1, 4))
        img = np.rot90(img, k, axes=(1, 2))
        mask = np.rot90(mask, k, axes=(0, 1))
    return SegmentationPair(
        image=np.ascontiguousarray(img),
        mask=np.ascontiguousarray(mask),
        case_id=pair.case_id,
    )


def evaluate(model: TFCNsModel, pairs: Sequence[SegmentationPair]) -> MetricReport:
    """Predict every case and aggregate Dice/Jaccard/hd95 per class."""
    reports = []
    for pair in pairs:
        pred = predict(model, pair.image[None])[0]
        reports.append(evaluate_case(pred, pair.mask, model.cfg.num_classes))
    return aggregate(reports)


@dataclass
class IterRecord:
    iteration: int
    lr: float
    loss: float
    dice_loss: float
    ce_loss: float

    def line(self) -> str:
        return f"{self.iteration}\t{self.lr!r}\t{self.loss!r}\t{self.dice_loss!r}\t{self.ce_loss!r}"


@dataclass
class EvalRecord:
    iteration: int
    dice: float
    hd95: Optional[float]
    jaccard: float

    def line(self) -> str:
        hd = "nan" if self.hd95 is None else repr(self.hd95)
        return f"EVAL\t{self.iteration}\t{self.dice!r}\t{hd}\t{self.jaccard!r}"


@dataclass
class TrainLog:
    records: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    best_iteration: int = -1
    best_dice: float = -1.0
    checkpoint_last: Optional[str] = None
    checkpoint_best: Optional[str] = None


def _prepare_batch(dataset: Sequence[SegmentationPair], cfg: TrainConfig,
                   iteration: int, dtype) -> tuple:
    """Pure function of (dataset, config, iteration): the batch arrays plus the
    generator the model should use for dropout this iteration."""
    data_ss, model_ss = np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(iteration,)
    ).spawn(2)
    rng = np.random.default_rng(data_ss)
    idx = rng.integers(0, len(dataset), size=cfg.batch_size)
    images, masks = [], []
    for i in idx:
        pair = dataset[int(i)]
        if cfg.augment_rotate or cfg.augment_flip:
            pair = augment(pair, rng, cfg.augment_rotate, cfg.augment_flip)
        images.append(pair.image)
        masks.append(pair.mask)
    x = np.stack(images).astype(dtype, copy=False)
    y = np.stack(masks)
    return x, y, np.random.default_rng(model_ss)


def total_iterations(cfg: TrainConfig, dataset_size: int) -> int:
    if cfg.max_iterations is not None:
        return cfg.max_iterations
    steps_per_epoch = max(1, int(np.ceil(dataset_size / cfg.batch_size)))
    return cfg.epochs * steps_per_epoch


def refuse_existing_log(out_dir) -> None:
    """Raise ConfigInvalid if ``out_dir`` already holds a non-empty
    training.log, so that a fresh run never appends to another run's log."""
    log_path = Path(out_dir) / "training.log"
    if log_path.is_file() and log_path.stat().st_size > 0:
        raise ConfigInvalid(f"{log_path} already holds a training log; choose a new output directory")


def train(model: TFCNsModel, dataset: Sequence[SegmentationPair], cfg: TrainConfig,
          out_dir=None,
          callbacks: Optional[Sequence[Callable[[IterRecord], None]]] = None) -> TrainLog:
    """Run the optimization loop, evaluating on ``dataset`` every
    ``eval_every`` iterations; returns the per-iteration log. With an
    output directory, writes the line-delimited training log and checkpoints
    at the end and at the best eval dice; an output directory whose
    training.log is not empty is refused."""
    if not dataset:
        raise ConfigInvalid("training dataset is empty")
    shapes = {pair.image.shape for pair in dataset}
    if len(shapes) > 1:  # a batch stacks its images
        raise ShapeMismatch(f"training images differ in shape: {sorted(shapes)}")
    num_classes = model.cfg.num_classes
    params = model.parameters()  # the registry is fixed for the whole run
    state = OptimizerState.for_model(model)
    log = TrainLog()
    total = total_iterations(cfg, len(dataset))
    log_opener = contextlib.nullcontext()  # enters as None: no log file
    if out_dir is not None:
        out_dir = Path(out_dir)
        refuse_existing_log(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        log_opener = open(out_dir / "training.log", "a", encoding="utf-8")

    with log_opener as log_file:
        def emit(line: str):
            if log_file is not None:
                log_file.write(line + "\n")
                log_file.flush()

        for it in range(total):
            x, y, model_rng = _prepare_batch(dataset, cfg, it, model.dtype)
            try:
                with ad.Tape() as tape:
                    for p in params:
                        p.grad = None  # else last step's gradients stay alive through this forward's peak memory
                        tape.watch(p)
                    logits = model.forward(x, rng=model_rng)
                    loss, d_part, c_part = combined_loss_parts(logits, y, num_classes)
                    ad.backward(loss)
            except NonFiniteValue as exc:
                raise NonFiniteLoss(
                    f"non-finite loss at iteration {it}; last good checkpoint: "
                    f"{log.checkpoint_best or 'none written'}"
                ) from exc
            record = IterRecord(
                iteration=it,
                lr=lr_at(state.iteration, cfg),
                loss=float(loss.data),
                dice_loss=float(d_part.data),
                ce_loss=float(c_part.data),
            )
            sgd_step(params, state, cfg)
            log.records.append(record)
            emit(record.line())
            for cb in callbacks or ():
                cb(record)

            if cfg.eval_every and (it + 1) % cfg.eval_every == 0:
                report = evaluate(model, dataset)
                ev = EvalRecord(it, report.dice_avg, report.hd95_avg, report.jaccard_avg)
                log.evals.append(ev)
                emit(ev.line())
                if report.dice_avg > log.best_dice:
                    log.best_dice = report.dice_avg
                    log.best_iteration = it
                    if out_dir is not None:
                        best = out_dir / "best.ckpt"
                        save_checkpoint(model, state, best)
                        log.checkpoint_best = str(best)

    if out_dir is not None:
        last = out_dir / "last.ckpt"
        save_checkpoint(model, state, last)
        log.checkpoint_last = str(last)
    return log


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

@dataclass
class AblationTable:
    label_header: str
    rows: list  # (label, dice, hd95 or None, jaccard)

    def to_tsv(self) -> str:
        lines = ["\t".join([self.label_header, "Dice", "Hd95", "Jaccard"])]
        for label, dice, hd, jac in self.rows:
            hd_s = "nan" if hd is None else f"{hd:.2f}"
            lines.append(f"{label}\t{dice:.2f}\t{hd_s}\t{jac:.2f}")
        return "\n".join(lines) + "\n"


ABLATION_AXES = {
    "patch": ("Patch_Size", [("8", {"patch_size": 8}),
                             ("16", {"patch_size": 16}),
                             ("32", {"patch_size": 32})]),
    "mlp": ("Variant", [("ResMLP", {"mlp_variant": "resmlp"}),
                        ("MLP", {"mlp_variant": "plain_mlp"})]),
    "skip": ("Type of Attention Block", [("None", {"skip_attention": "none"}),
                                         ("CUAB-like", {"skip_attention": "cuab_like"}),
                                         ("CLAB", {"skip_attention": "clab"})]),
}


def ablation_grid(axis: str) -> tuple[str, list]:
    if axis not in ABLATION_AXES:
        raise ConfigInvalid(f"unknown ablation axis {axis!r}; choose from {sorted(ABLATION_AXES)}")
    return ABLATION_AXES[axis]


def run_ablation(model_cfg: ModelConfig, train_cfg: TrainConfig,
                 grid: Sequence[tuple[str, dict]], dataset: Sequence[SegmentationPair],
                 label_header: str = "Config") -> AblationTable:
    """Train and evaluate one model per grid entry under identical seeds and
    emit a row of (Dice, Hd95, Jaccard) per entry. Each entry's overrides
    replace keys of the model config; every run uses ``train_cfg``."""
    rows = []
    for label, overrides in grid:
        model = build(replace(model_cfg, **overrides))
        train(model, dataset, train_cfg)
        report = evaluate(model, dataset)
        rows.append((label, report.dice_avg, report.hd95_avg, report.jaccard_avg))
    return AblationTable(label_header=label_header, rows=rows)
