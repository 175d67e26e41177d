"""SGD-with-momentum training loop, step learning-rate schedule, exact
axis-aligned augmentation, evaluation over a dataset, and the ablation
runner that emits one comparative table per toggle axis.

Determinism contract: every stochastic choice of iteration ``i`` (batch
sampling, augmentation draws, dropout masks) derives from
``SeedSequence(seed, spawn_key=(i,))``, so a fixed seed reproduces the loss
trajectory bit-for-bit and checkpoints only need the iteration counter to
describe the generator state. The bits depend on the seed, the iteration,
the batch size and the image size, not on how many CPUs the machine has.

A step with B >= 2 whose first ceil(B/2) samples hold at least
``_MIN_CHUNK_PIXELS`` pixels runs as two chunks, those samples and the
rest. Each chunk runs a taped forward with the rows of the batch-wide dropout
masks that are its own, and turns its logits into loss sums. The sums are
added in chunk order, so both chunks see the same loss; each chunk's backward
holds the other chunk's sums constant, so its gradient is its exact share,
and the step applies the sum of the two shares. Where two CPUs are usable
and ``fork`` exists, one worker process forked for the run takes chunk 1
of every step on its own replica of the model and the optimizer state: the
two processes swap loss sums over a pipe and gradients through shared
memory, and both apply the same update. Otherwise this process runs both
chunks, with the same bits. Any other step (B = 1, or smaller chunks, where
the per-op cost of a second chunk outweighs the gain) is one chunk in this
process, as a whole batch.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import math
import mmap
import os
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .data import SEED_HELP, SegmentationPair, config_field
from .errors import ConfigInvalid, NonFiniteLoss, NonFiniteValue, ShapeMismatch, WorkerFailed
# combined_loss_parts is not called here: it is imported only so that
# perfbench's tracer, which wraps training.combined_loss_parts, still finds
# it. A stopgap until the tracer stops patching module names (ROADMAP item 13).
from .metrics import (  # noqa: F401
    LossSums, MetricReport, aggregate, combined_loss_parts, evaluate_case, loss_from_sums, loss_sums,
)
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


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.lru_cache(maxsize=None)
def _openblas_threads() -> Optional[tuple]:
    """(get, set) of the thread count of the OpenBLAS that numpy calls, or
    None where numpy uses another BLAS."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    lib = ctypes.CDLL(core.__file__)  # its symbol lookup reaches the BLAS it links
    for name in ("scipy_openblas{}64_", "openblas{}64_", "openblas{}"):
        get = getattr(lib, name.format("_get_num_threads"), None)
        put = getattr(lib, name.format("_set_num_threads"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _blas_threads(count: Optional[int]):
    """Run the block with OpenBLAS at ``count`` threads, then restore the
    count it had; no change where ``count`` is None or numpy uses another
    BLAS."""
    blas = None if count is None else _openblas_threads()
    if blas is None:
        yield
        return
    before = blas[0]()
    blas[1](count)
    try:
        yield
    finally:
        blas[1](before)


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
    """This process's side of a two-process step: it runs chunk ``mine`` and
    the other process the other chunk. Loss sums go over the pipe ``conn``.
    Each side writes its flattened parameter gradient into its own row of
    ``grads``, in memory both processes share, and a token over the pipe says
    the row is written; then each side sums the two rows. A side only writes
    its row after the next step's sums arrive, which the other side sends only
    once it has read both rows, so no row is overwritten while it is read.
    ``blas_threads`` is this process's OpenBLAS thread count before the fork
    (None where numpy uses another BLAS)."""

    def __init__(self, params: Sequence[Parameter], conn, mine: int, grads: np.ndarray,
                 blas_threads: Optional[int] = None):
        self.conn, self.mine, self.grads, self.blas_threads = conn, mine, grads, blas_threads
        self._total = np.empty(grads.shape[1], grads.dtype)
        ends = np.cumsum([p.size for p in params])
        self._views = [self._total[e - p.size:e].reshape(p.shape) for p, e in zip(params, ends)]

    def _swap(self, obj):
        """Send ``obj`` and return what the other side sent. If that side has
        ended, the pipe still holds what it sent last (a worker's error) or
        ends: recv() raises EOFError, or ConnectionResetError where the
        ended side left unread data in its end of the socket pair."""
        with contextlib.suppress(BrokenPipeError):
            self.conn.send(obj)
        msg = self.conn.recv()
        if isinstance(msg, BaseException):  # the worker failed; see _worker_main
            raise msg
        return msg

    def swap_sums(self, own: LossSums) -> list:
        """Both chunks' sums, in chunk order."""
        other = self._swap(own)
        return [own, other] if self.mine == 0 else [other, own]

    def sum_grads(self, params: Sequence[Parameter]) -> None:
        """Set each parameter's gradient to the sum of both chunks' shares."""
        np.concatenate([p.grad.reshape(-1) for p in params], out=self.grads[self.mine])
        self._swap(None)
        np.add(self.grads[0], self.grads[1], out=self._total)
        for p, view in zip(params, self._views):
            p.grad = view


def _step(model: TFCNsModel, params: Sequence[Parameter], x: np.ndarray, y: np.ndarray,
          rng: np.random.Generator, plan: list, peer: Optional[_Peer] = None) -> tuple:
    """Forward, loss and backward of one step: of every chunk of ``plan``, or
    with a peer, of chunk ``peer.mine`` only. Leaves the step's gradient on
    the parameters and returns the (total, dice, cross-entropy) loss tensors
    of the first chunk it ran."""
    taped = {}
    for k in (range(len(plan)) if peer is None else (peer.mine,)):
        s0, s1 = plan[k]
        tape = ad.Tape()
        with tape:
            for p in params:
                p.grad = None  # else last step's gradients stay alive through this forward's peak memory
                tape.watch(p)
            logits = model.forward(x[s0:s1], rng=_DropoutView(rng, s0, len(x)))
            taped[k] = tape, loss_sums(logits, y[s0:s1], model.cfg.num_classes)
    if peer is None:
        sums = [own.detached() for _, own in taped.values()]
    else:
        sums = peer.swap_sums(taped[peer.mine][1].detached())
    parts = None
    for k, (tape, own) in taped.items():
        with tape:
            chunk_parts = loss_from_sums([own if i == k else s for i, s in enumerate(sums)])
        ad.backward(chunk_parts[0])
        if parts is None:
            parts, first = chunk_parts, [p.grad for p in params]
        else:  # this process ran chunk 0 too: add its share
            for p, g in zip(params, first):
                p.grad = g + p.grad
    if peer is not None:
        peer.sum_grads(params)
    return parts


def _worker_main(conn, caller_end, model: TFCNsModel, dataset, cfg: TrainConfig,
                 state: "OptimizerState", total: int, plan: list, grads: np.ndarray) -> None:
    """Chunk 1 of every step of a run, on this process's replica. Writes
    nothing to stdout; returns when the run ends or the caller is gone (end
    of file on the pipe), and sends the caller any error it raises."""
    caller_end.close()  # so that the pipe ends when the caller does
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    params = model.parameters()
    peer = _Peer(params, conn, 1, grads)
    try:
        for it in range(total):
            x, y, rng = _prepare_batch(dataset, cfg, it, model.dtype)
            _step(model, params, x, y, rng, plan, peer)
            sgd_step(params, state, cfg)
    except (EOFError, ConnectionResetError):
        return  # the caller is gone
    except NonFiniteValue as exc:
        failure = exc
    except Exception:
        failure = WorkerFailed("training worker failed:\n" + traceback.format_exc())
    else:
        return
    with contextlib.suppress(OSError):
        conn.send(failure)


@contextlib.contextmanager
def _step_runner(model: TFCNsModel, params: Sequence[Parameter], dataset, cfg: TrainConfig,
                 state: "OptimizerState", total: int, plan: list):
    """The peer the caller's steps use: with two chunks, two usable CPUs and
    ``fork``, a worker process forked now for the whole run; otherwise None,
    and this process runs every chunk. On leaving, no worker is left
    running."""
    cpus = _usable_cpus()
    forked = len(plan) > 1 and total > 0 and cpus >= 2
    if forked:
        # imported only to fork: it adds about 6 ms to a process's start, and
        # with it loaded, one-chunk training steps measured about 5 % slower
        import multiprocessing
        forked = "fork" in multiprocessing.get_all_start_methods()
    if not forked:
        yield None
        return
    ctx = multiprocessing.get_context("fork")
    shape = (len(plan), sum(p.size for p in params))
    shared = mmap.mmap(-1, math.prod(shape) * model.dtype.itemsize)
    grads = np.frombuffer(shared, model.dtype).reshape(shape)
    # The two processes split the CPUs that BLAS threads would take: each
    # keeps at most half of them. On two CPUs that is one thread each, where
    # two BLAS threads in each process made a small step three times slower.
    blas = _openblas_threads()
    full = blas[0]() if blas else None
    conn, worker_end = ctx.Pipe()
    share = None if full is None else max(1, min(full, cpus // 2))
    with _blas_threads(share):  # set before the fork, so that the worker inherits it
        worker = ctx.Process(target=_worker_main, daemon=True, name="tfcns-train-worker",
                             args=(worker_end, conn, model, dataset, cfg, state, total, plan, grads))
        worker.start()
        worker_end.close()
        finished = False
        try:
            yield _Peer(params, conn, 0, grads, full)
            finished = True
        except (EOFError, ConnectionResetError) as exc:
            worker.join(1.0)
            raise WorkerFailed(f"training worker exited unexpectedly (exit code {worker.exitcode})") from exc
        finally:
            conn.close()
            if finished:
                worker.join(10.0)
            if worker.is_alive():
                worker.kill()
            worker.join()


def train(model: TFCNsModel, dataset: Sequence[SegmentationPair], cfg: TrainConfig,
          out_dir=None,
          callbacks: Optional[Sequence[Callable[[IterRecord], None]]] = None) -> TrainLog:
    """Run the optimization loop, evaluating on ``dataset`` every
    ``eval_every`` iterations; returns the per-iteration log. With an
    output directory, writes the line-delimited training log and checkpoints
    at the end and at the best eval dice; an output directory whose
    training.log is not empty is refused. Callbacks, evaluation, the log and
    checkpoints run in this process only; a callback must not change the
    model, since a worker holds a replica of it."""
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
    with log_opener as log_file, runner as peer:
        def emit(line: str):
            if log_file is not None:
                log_file.write(line + "\n")
                log_file.flush()

        for it in range(total):
            x, y, model_rng = _prepare_batch(dataset, cfg, it, model.dtype)
            try:
                loss, d_part, c_part = _step(model, params, x, y, model_rng, plan, peer)
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
                with _blas_threads(peer.blas_threads if peer else None):  # the worker waits meanwhile
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
