"""SGD-with-momentum training loop, step learning-rate schedule, exact
axis-aligned augmentation, evaluation over a dataset, and the ablation
runner that emits one comparative table per toggle axis.

Determinism contract: every stochastic choice of iteration ``i`` (batch
sampling, augmentation draws, dropout masks) derives from
``SeedSequence(seed, spawn_key=(i,))``, so a fixed seed reproduces the loss
trajectory bit-for-bit and checkpoints only need the iteration counter to
describe the generator state. The bits depend on the seed, the iteration,
the batch size and the image size, not on how many CPUs the machine has:
``train`` runs OpenBLAS (where numpy calls it) at one thread in every process.

A step runs as the chunks of ``_chunk_plan``: the first ceil(B/2) samples
and the rest where B >= 2 and those samples hold at least
``_MIN_CHUNK_PIXELS`` pixels, else the whole batch. Chunk k runs on process
k mod W, where W = 2 if the step has more than one chunk, two CPUs are
usable and ``fork`` exists (a worker forked for the run holds a replica of
the model and the optimizer state), else 1. Each chunk runs a taped forward
with its rows of the batch-wide dropout masks and turns its logits into
loss sums, gathered by chunk index, so every chunk sees the same loss; each
chunk's backward holds the other chunks' sums constant, so its gradient is
its exact share. Each parameter's gradient is the chunks' shares added in
chunk order, so the bits do not depend on W. At W = 2 the processes swap
sums over a pipe and shares through shared memory, and both apply the same
update. A one-chunk step (B = 1, or smaller chunks, where a second chunk's
per-op cost outweighs the gain) keeps backward's gradients as they are.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import processes
from .autodiff import Parameter
from .data import SEED_HELP, SegmentationPair, config_field
from .errors import ConfigInvalid, NonFiniteLoss, NonFiniteValue, ShapeMismatch
# combined_loss_parts is not called here: it is imported only so that
# perfbench's tracer, which wraps training.combined_loss_parts, still finds
# it. A stopgap until the tracer stops patching module names (ROADMAP item 13).
from .metrics import (  # noqa: F401
    MetricReport, aggregate, combined_loss_parts, evaluate_case, loss_from_sums, loss_sums,
)
from .model import ModelConfig, TFCNsModel, _one_blas_thread, build, predict, save_checkpoint


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


# Fewest pixels (samples x H x W) a chunk must hold for a step to be split.
# Each chunk runs every op of the model, so a split step pays the per-op cost
# twice. With a forked worker on two CPUs (median step, whole vs split), a
# 32^2 model of the criterion-8 shape went from 51 to 31-42 ms at B=8 (4096
# pixels a chunk), was even at B=4 (2048: 28-30 against 27-37 ms), and lost
# at B=2 (18 against 25 ms); the narrower criterion-9 model lost at 16^2, B=4
# (512 pixels: 6 against 11-12 ms) and at 32^2, B=4 (10 against 16 ms). The
# rule reads only the batch, so the bits do not depend on the machine.
_MIN_CHUNK_PIXELS = 4096


def _chunk_plan(batch_size: int, pixels: int) -> list:
    """Sample ranges [(s0, s1)] of a step's chunks for samples of ``pixels``
    pixels each: the first ceil(B/2) samples and the rest, or one chunk
    where that would hold fewer than _MIN_CHUNK_PIXELS pixels (and at B = 1)."""
    half = (batch_size + 1) // 2
    if batch_size == 1 or half * pixels < _MIN_CHUNK_PIXELS:
        return [(0, batch_size)]
    return [(0, half), (half, batch_size)]


_usable_cpus = processes.usable_cpus


class _DropoutView:
    """Chunk [s0, s0 + n)'s view of a B-sample step's dropout generator. Every
    activation has the batch axis first, so a draw of the chunk's shape
    (n, ...) gives exactly its rows of the batch-wide draw: PCG64 makes one
    step per double, and the view advances it past the samples before the
    chunk and, after drawing, past the samples after it. It draws from its
    own copy of the generator, so every chunk starts where the step does."""

    def __init__(self, rng: np.random.Generator, s0: int, batch: int):
        self._rng, self._s0, self._batch = copy.deepcopy(rng), s0, batch

    def random(self, shape) -> np.ndarray:
        per_sample = math.prod(shape[1:])
        bits = self._rng.bit_generator
        bits.advance(self._s0 * per_sample)
        out = self._rng.random(shape)
        bits.advance((self._batch - self._s0 - shape[0]) * per_sample)
        return out


class _Peer:
    """This process's part of every step of a run: process ``rank`` of
    ``size`` (W) runs chunks ``range(rank, K, W)`` of the K-chunk ``plan``.
    At W = 2 loss sums go over the pipe ``conn``, and each process writes
    its chunks' flattened gradient shares into their rows of ``rows`` (K x
    parameter count, shared memory), then sends a token. It writes its rows
    only after the next step's sums arrive, which the other process sends
    once it has read every row, so no row is overwritten while it is read."""

    def __init__(self, params: Sequence[Parameter], plan: list, rank: int = 0, size: int = 1,
                 conn=None, rows: Sequence[np.ndarray] = ()):
        self.plan, self.chunks, self.conn, self.rows = plan, range(rank, len(plan), size), conn, rows
        ends = np.cumsum([p.size for p in params])
        views = [[row[e - p.size:e].reshape(p.shape) for p, e in zip(params, ends)] for row in rows]
        self._columns = list(zip(*views))  # per parameter, its view of each row

    def gather(self, sums: dict) -> list:
        """Every chunk's loss sums in chunk order, given this process's by chunk index."""
        if self.conn is not None:
            sums = {**sums, **processes.swap(self.conn, sums)}
        return [sums[k] for k in range(len(self.plan))]

    def shares(self, own: dict) -> list:
        """Per parameter, every chunk's share of its gradient in chunk order
        (at W = 2 views of the rows, this process's own read back from
        theirs), given this process's shares in ``own``, which it empties."""
        if self.conn is None:
            return list(zip(*(own.pop(k) for k in range(len(self.plan)))))
        for k, grads in own.items():
            np.concatenate([g.reshape(-1) for g in grads], out=self.rows[k])
        own.clear()
        processes.swap(self.conn, None)
        return list(self._columns)


def _step(model: TFCNsModel, params: Sequence[Parameter], x: np.ndarray, y: np.ndarray,
          rng: np.random.Generator, peer: _Peer) -> tuple:
    """Forward, loss and backward of this process's chunks of ``peer.plan``.
    Leaves the step's gradient on the parameters and returns the (total,
    dice, cross-entropy) loss tensors of the first chunk it ran."""
    taped = {}
    for k in peer.chunks:
        s0, s1 = peer.plan[k]
        tape = ad.Tape()
        with tape:
            for p in params:
                p.grad = None  # else last step's gradients stay alive through this forward's peak memory
                tape.watch(p)
            logits = model.forward(x[s0:s1], rng=_DropoutView(rng, s0, len(x)))
            taped[k] = tape, loss_sums(logits, y[s0:s1], model.cfg.num_classes)
    sums = peer.gather({k: own.detached() for k, (_, own) in taped.items()})
    parts, shares = {}, {}
    for k, (tape, own) in taped.items():
        with tape:
            parts[k] = loss_from_sums(sums[:k] + [own] + sums[k + 1:])
        ad.backward(parts[k][0])
        shares[k] = [p.grad for p in params]
    if len(peer.plan) > 1:  # one chunk keeps backward's gradients, uncopied
        columns = peer.shares(shares)[::-1]
        for p in params:  # popped, so that a share is freed once its sum replaces it
            chunk_shares = columns.pop()
            p.grad = sum(chunk_shares[1:], chunk_shares[0])
    return parts[peer.chunks[0]]


def _shared_rows(shared, params: Sequence[Parameter], plan: list, dtype) -> np.ndarray:
    """The K x parameter-count gradient rows of a split step, in ``shared``."""
    return np.frombuffer(shared, dtype).reshape(len(plan), sum(p.size for p in params))


def _worker_main(conn, shared, model: TFCNsModel, dataset, cfg: TrainConfig, state: "OptimizerState",
                 total: int, plan: list) -> None:
    """Process 1 of 2: its chunks of every step, on its own replica."""
    params = model.parameters()
    peer = _Peer(params, plan, 1, 2, conn, _shared_rows(shared, params, plan, model.dtype))
    for it in range(total):
        x, y, rng = _prepare_batch(dataset, cfg, it, model.dtype)
        _step(model, params, x, y, rng, peer)
        sgd_step(params, state, cfg)
    conn.recv()  # the caller's end of file: the worker lives as long as the run


@contextlib.contextmanager
def _step_runner(model: TFCNsModel, params: Sequence[Parameter], dataset, cfg: TrainConfig,
                 state: "OptimizerState", total: int, plan: list):
    """The caller's _Peer: process 0 of 2, with a worker process forked now
    for the whole run (see ``processes.forked``), where the plan has more
    than one chunk, two CPUs are usable and ``fork`` exists; else 0 of 1."""
    if len(plan) == 1 or total == 0 or _usable_cpus() < 2 or not processes.fork_exists():
        yield _Peer(params, plan)
        return
    nbytes = len(plan) * sum(p.size for p in params) * model.dtype.itemsize
    args = (model, dataset, cfg, state, total, plan)
    with processes.forked(_worker_main, args, "training worker", nbytes, 10.0) as (conn, shared):
        yield _Peer(params, plan, 0, 2, conn, _shared_rows(shared, params, plan, model.dtype))


def train(model: TFCNsModel, dataset: Sequence[SegmentationPair], cfg: TrainConfig,
          out_dir=None,
          callbacks: Optional[Sequence[Callable[[IterRecord], None]]] = None) -> TrainLog:
    """Run the optimization loop, evaluating on ``dataset`` every
    ``eval_every`` iterations; returns the per-iteration log. With an
    output directory, writes the line-delimited training log and checkpoints
    at the end and at the best eval dice; an output directory whose
    training.log is not empty is refused. Callbacks (at one OpenBLAS thread),
    evaluation, the log and checkpoints run in this process only; a callback
    must not change the model, since a worker holds a replica of it."""
    if not dataset:
        raise ConfigInvalid("training dataset is empty")
    shapes = {pair.image.shape for pair in dataset}
    if len(shapes) > 1:  # a batch stacks its images
        raise ShapeMismatch(f"training images differ in shape: {sorted(shapes)}")
    params = model.parameters()  # the registry is fixed for the whole run
    state = OptimizerState.for_model(model)
    log = TrainLog()
    total = total_iterations(cfg, len(dataset))
    plan = _chunk_plan(cfg.batch_size, dataset[0].mask.size)
    log_opener = contextlib.nullcontext()  # enters as None: no log file
    if out_dir is not None:
        out_dir = Path(out_dir)
        refuse_existing_log(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        log_opener = open(out_dir / "training.log", "a", encoding="utf-8")

    runner = _step_runner(model, params, dataset, cfg, state, total, plan)
    # one BLAS thread before the worker forks, so that it inherits the count
    with _one_blas_thread(), log_opener as log_file, runner as peer:
        def emit(line: str):
            if log_file is not None:
                log_file.write(line + "\n")
                log_file.flush()

        for it in range(total):
            x, y, model_rng = _prepare_batch(dataset, cfg, it, model.dtype)
            try:
                loss, d_part, c_part = _step(model, params, x, y, model_rng, peer)
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
