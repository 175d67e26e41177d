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

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .data import SegmentationPair
from .errors import ConfigInvalid, NonFiniteLoss, NonFiniteValue
from .metrics import MetricReport, aggregate, combined_loss_parts, evaluate_case
from .model import ModelConfig, TFCNsModel, build, predict, save_checkpoint


@dataclass
class TrainConfig:
    lr: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 12
    epochs: int = 150
    lr_decay_at: int = 30000
    lr_decay_factor: float = 0.1
    seed: int = 0
    augment_rotate: bool = True
    augment_flip: bool = True
    eval_every: int = 100
    max_iterations: Optional[int] = None

    def validate(self) -> None:
        if self.lr < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ConfigInvalid("rates must be non-negative")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigInvalid(f"lr_decay_factor {self.lr_decay_factor} outside (0, 1]")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigInvalid("batch_size and epochs must be positive")


@dataclass
class OptimizerState:
    """Per-parameter momentum buffers (shapes mirror the parameters exactly)
    plus the global iteration counter."""

    momentum: dict
    iteration: int = 0

    @classmethod
    def for_model(cls, model: TFCNsModel) -> "OptimizerState":
        return cls(momentum={
            name: np.zeros_like(p.tensor.data)
            for name, p in model.named_parameters() if p.requires_grad
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
        if not p.requires_grad:
            continue
        g = p.tensor.grad
        if g is None:
            g = np.zeros_like(p.tensor.data)
        if cfg.weight_decay and not p.no_decay:
            g = g + cfg.weight_decay * p.tensor.data
        v = state.momentum[p.name]
        v *= cfg.momentum
        v += g
        p.tensor.data -= lr * v
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


def evaluate(model: TFCNsModel, pairs: Sequence[SegmentationPair], spacing=1.0) -> MetricReport:
    """Predict every case and aggregate Dice/Jaccard/hd95 per class."""
    reports = []
    for pair in pairs:
        pred = predict(model, pair.image[None])[0]
        reports.append(evaluate_case(pred, pair.mask, model.cfg.num_classes, spacing))
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


def train(model: TFCNsModel, dataset: Sequence[SegmentationPair], cfg: TrainConfig,
          eval_dataset: Optional[Sequence[SegmentationPair]] = None,
          out_dir=None,
          callbacks: Optional[Sequence[Callable[[IterRecord], None]]] = None) -> TrainLog:
    """Run the optimization loop; returns the per-iteration log. With an
    output directory, appends the line-delimited training log and writes
    checkpoints at the end and at the best eval dice."""
    cfg.validate()
    if not dataset:
        raise ConfigInvalid("training dataset is empty")
    eval_pairs = eval_dataset if eval_dataset is not None else dataset
    num_classes = model.cfg.num_classes
    state = OptimizerState.for_model(model)
    log = TrainLog()
    total = total_iterations(cfg, len(dataset))

    out_dir = Path(out_dir) if out_dir is not None else None
    log_file = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        log_file = open(out_dir / "training.log", "a", encoding="utf-8")

    def emit(line: str):
        if log_file is not None:
            log_file.write(line + "\n")
            log_file.flush()

    try:
        for it in range(total):
            x, y, model_rng = _prepare_batch(dataset, cfg, it, model.dtype)
            model.zero_grad()
            try:
                with ad.Tape() as tape:
                    for p in model.parameters():
                        tape.watch(p.tensor)
                    logits = model.forward(x, training=True, rng=model_rng)
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
            sgd_step(model.parameters(), state, cfg)
            log.records.append(record)
            emit(record.line())
            for cb in callbacks or ():
                cb(record)

            if cfg.eval_every and (it + 1) % cfg.eval_every == 0:
                report = evaluate(model, eval_pairs)
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
    finally:
        if log_file is not None:
            log_file.close()

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
                 eval_dataset: Optional[Sequence[SegmentationPair]] = None,
                 label_header: str = "Config") -> AblationTable:
    """Train and evaluate one model per grid entry under identical seeds and
    emit a row of (Dice, Hd95, Jaccard) per entry. Override keys are matched
    to the model config first, then the train config."""
    model_fields = {f.name for f in ModelConfig.__dataclass_fields__.values()}
    rows = []
    for label, overrides in grid:
        m_over = {k: v for k, v in overrides.items() if k in model_fields}
        t_over = {k: v for k, v in overrides.items() if k not in model_fields}
        run_model_cfg = replace(model_cfg, **m_over)
        run_train_cfg = replace(train_cfg, **t_over)
        model = build(run_model_cfg)
        train(model, dataset, run_train_cfg)
        report = evaluate(model, eval_dataset if eval_dataset is not None else dataset)
        rows.append((label, report.dice_avg, report.hd95_avg, report.jaccard_avg))
    return AblationTable(label_header=label_header, rows=rows)
