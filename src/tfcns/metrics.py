"""Training losses (differentiable through the tape) and evaluation metrics:
soft Dice + cross-entropy, and Dice / Jaccard / 95th-percentile Hausdorff
scores with per-class aggregation.

Conventions, pinned so golden values stay stable:
  - the soft Dice loss averages over every class including background,
    smoothing 1e-5;
  - hard Dice/Jaccard report 100 when both masks are empty (agreement on
    absence);
  - hd95 raises EmptyMask when either side has no foreground; aggregation
    records such cases as missing rather than coercing to a number;
  - the 95th percentile interpolates linearly between order statistics;
  - boundaries are foreground pixels 4-adjacent to background, with pixels
    outside the image treated as background;
  - boundary distances are exact: squared distances are summed in integers
    and only their square roots are floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ClassOutOfRange, EmptyMask, ShapeMismatch

DICE_SMOOTHING = 1e-5
# Elements of one chunk of hd95's per-query distance table (about 1024
# queries of a 224-wide map).
_HD95_CHUNK_ELEMS = 1 << 18


def one_hot(target: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """B x H x W integer mask -> B x K x H x W one-hot array."""
    target = np.asarray(target)
    if target.min() < 0 or target.max() >= num_classes:
        raise ClassOutOfRange(
            f"mask values in [{target.min()}, {target.max()}] outside [0, {num_classes})"
        )
    return (target[:, None] == np.arange(num_classes)[:, None, None]).astype(dtype)


def _check_logits_target(logits: Tensor, target: np.ndarray) -> None:
    if logits.ndim != 4:
        raise ShapeMismatch(f"logits must be B x K x H x W, got {logits.shape}")
    b, _, h, w = logits.shape
    if np.asarray(target).shape != (b, h, w):
        raise ShapeMismatch(
            f"target shape {np.asarray(target).shape} does not match logits {logits.shape}"
        )


@dataclass(frozen=True)
class LossSums:
    """The sums one chunk of a batch adds to the loss: per class, the soft
    Dice intersection sum(p*g), prediction sum sum(p) and target sum sum(g),
    then the sum over pixels of the log probability at the target class and
    the pixel count. Taped where ``loss_sums`` computed them from taped logits."""

    inter: Tensor
    psum: Tensor
    gsum: np.ndarray
    log_p: Tensor
    pixels: int

    def detached(self) -> "LossSums":
        """The same sums as constants: no tape, and picklable."""
        return LossSums(Tensor(self.inter.data), Tensor(self.psum.data), self.gsum,
                        Tensor(self.log_p.data), self.pixels)


def loss_sums(logits: Tensor, target: np.ndarray, num_classes: int) -> LossSums:
    """The loss sums of one chunk's B x K x H x W logits and B x H x W mask."""
    _check_logits_target(logits, target)
    if logits.shape[1] != num_classes:
        raise ShapeMismatch(f"logits carry {logits.shape[1]} classes, expected {num_classes}")
    g = one_hot(target, num_classes, dtype=logits.dtype)
    p = ad.softmax(logits, axis=1)
    picked = ad.reduce_sum(ad.mul(ad.log_softmax(logits, axis=1), g), axis=1)
    return LossSums(
        inter=ad.reduce_sum(ad.mul(p, g), axis=(0, 2, 3)),
        psum=ad.reduce_sum(p, axis=(0, 2, 3)),
        gsum=g.sum(axis=(0, 2, 3)),
        log_p=ad.reduce_sum(picked),
        pixels=picked.size,
    )


def loss_from_sums(chunks: Sequence[LossSums]) -> tuple[Tensor, Tensor, Tensor]:
    """(total, dice part, cross-entropy part) of a batch from its chunks' sums,
    added in chunk order, with equal 0.5 weights. The soft Dice part is
    mean_c [1 - (2*sum(p_c*g_c) + s) / (sum(p_c) + sum(g_c) + s)] over all
    classes; the cross-entropy part is the mean over pixels of -log p at the
    target class. Gradients reach the taped sums only, so a chunk whose own
    sums are taped and the others' constant gets its exact share."""
    inter, psum, log_p = (functools.reduce(ad.add, (getattr(c, f) for c in chunks))
                          for f in ("inter", "psum", "log_p"))
    gsum = functools.reduce(np.add, (c.gsum for c in chunks))
    dice = ad.div(
        ad.add(ad.mul(inter, 2.0), DICE_SMOOTHING),
        ad.add(ad.add(psum, gsum), DICE_SMOOTHING),
    )
    d = ad.add(ad.mul(ad.reduce_mean(dice), -1.0), 1.0)
    c = ad.mul(ad.div(log_p, sum(c.pixels for c in chunks)), -1.0)
    return ad.add(ad.mul(d, 0.5), ad.mul(c, 0.5)), d, c


def combined_loss_parts(logits: Tensor, target: np.ndarray, num_classes: int) -> tuple[Tensor, Tensor, Tensor]:
    """(total, dice part, cross-entropy part) of a batch in one chunk."""
    return loss_from_sums([loss_sums(logits, target, num_classes)])


def combined_loss(logits: Tensor, target: np.ndarray, num_classes: int) -> Tensor:
    """0.5 * soft Dice + 0.5 * cross-entropy."""
    return combined_loss_parts(logits, target, num_classes)[0]


def dice_loss(logits: Tensor, target: np.ndarray, num_classes: int) -> Tensor:
    """The soft Dice part of ``loss_from_sums`` for a batch in one chunk."""
    return combined_loss_parts(logits, target, num_classes)[1]


def cross_entropy_loss(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over pixels of -log softmax probability at the target class."""
    _check_logits_target(logits, target)
    return combined_loss_parts(logits, target, logits.shape[1])[2]


# ---------------------------------------------------------------------------
# hard metrics on predicted masks
# ---------------------------------------------------------------------------

def dice_score(pred_mask: np.ndarray, ref_mask: np.ndarray, cls: int) -> float:
    """2|P & R| / (|P| + |R|) as a percentage; 100 when both are empty."""
    p = np.asarray(pred_mask) == cls
    r = np.asarray(ref_mask) == cls
    denom = int(p.sum()) + int(r.sum())
    if denom == 0:
        return 100.0
    return 200.0 * int((p & r).sum()) / denom


def jaccard_score(pred_mask: np.ndarray, ref_mask: np.ndarray, cls: int) -> float:
    """|P & R| / |P | R| as a percentage; 100 when both are empty."""
    p = np.asarray(pred_mask) == cls
    r = np.asarray(ref_mask) == cls
    union = int((p | r).sum())
    if union == 0:
        return 100.0
    return 100.0 * int((p & r).sum()) / union


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with at least one 4-neighbor outside the foreground
    (the image border counts as background)."""
    m = np.asarray(mask, dtype=bool)
    p = np.pad(m, 1)
    interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return m & ~interior


def _nearest_sq_dists(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each set pixel of ``queries`` (row-major
    order) to the nearest set pixel of ``targets`` (at least one), exact in
    integers. Per column, the distance to the nearest target row comes from
    a running max (above) and min (below) of target row indices; a query's
    squared distance is then the min over columns of dx^2 + dv^2."""
    h, w = targets.shape
    n = max(h, w)
    # a column without targets reads dv = 2n, whose square exceeds every real
    # squared distance (below 2 n^2), so dx^2 + dv^2 < 5 n^2 must fit the dtype
    dtype = np.int32 if 5 * n * n < 2**31 else np.int64
    rows = np.arange(h, dtype=dtype)[:, None]
    above = np.maximum.accumulate(np.where(targets, rows, -2 * n), axis=0)
    below = np.minimum.accumulate(np.where(targets, rows, h + 2 * n)[::-1], axis=0)[::-1]
    dv2 = np.minimum(np.minimum(rows - above, below - rows), 2 * n)
    dv2 *= dv2
    # row w - 1 - q of this (w, w) view of a (2w - 1) table is (j - q)^2 for columns j
    dx2 = np.lib.stride_tricks.sliding_window_view(np.arange(1 - w, w, dtype=dtype) ** 2, w)
    qi, qj = np.nonzero(queries)
    out = np.empty(qi.size, dtype)
    step = max(1, _HD95_CHUNK_ELEMS // w)
    for s in range(0, qi.size, step):
        np.min(dx2[w - 1 - qj[s:s + step]] + dv2[qi[s:s + step]], axis=1, out=out[s:s + step])
    return out


def hd95(pred_mask: np.ndarray, ref_mask: np.ndarray, cls: int) -> float:
    """95th percentile (linear interpolation) of the symmetric set of
    boundary-to-nearest-boundary Euclidean distances, in pixels. Raises
    EmptyMask if either mask lacks class ``cls``."""
    p = np.asarray(pred_mask) == cls
    r = np.asarray(ref_mask) == cls
    if not p.any() or not r.any():
        raise EmptyMask(f"class {cls} empty in {'prediction' if not p.any() else 'reference'}")
    pb = boundary_pixels(p)
    rb = boundary_pixels(r)
    sq = np.concatenate([_nearest_sq_dists(pb, rb), _nearest_sq_dists(rb, pb)])
    return float(np.percentile(np.sqrt(sq.astype(np.float64)), 95))


@dataclass
class ClassStats:
    dice: float
    jaccard: float
    hd95: Optional[float]
    hd95_missing: int = 0


@dataclass
class MetricReport:
    """Per-class and averaged scores over a set of cases. Averages run over
    foreground classes only; classes whose hd95 is missing everywhere are
    omitted from the hd95 average and counted in hd95_missing."""

    per_class: dict[int, ClassStats]
    dice_avg: float
    jaccard_avg: float
    hd95_avg: Optional[float]
    n_cases: int

    def to_tsv(self) -> str:
        classes = sorted(c for c in self.per_class if c != 0)
        header = ["Method", "Dice(avg)", "Hd95(avg)", "Jaccard(avg)"] + [
            f"Dice(class{c})" for c in classes
        ]
        hd = "nan" if self.hd95_avg is None else f"{self.hd95_avg:.2f}"
        row = ["TFCNs", f"{self.dice_avg:.2f}", hd, f"{self.jaccard_avg:.2f}"] + [
            f"{self.per_class[c].dice:.2f}" for c in classes
        ]
        return "\t".join(header) + "\n" + "\t".join(row) + "\n"


def evaluate_case(pred_mask: np.ndarray, ref_mask: np.ndarray, num_classes: int) -> dict[int, ClassStats]:
    """Dice/Jaccard/hd95 for one case, every class; hd95 is None where a side
    is empty."""
    out = {}
    for c in range(num_classes):
        try:
            h = hd95(pred_mask, ref_mask, c)
            missing = 0
        except EmptyMask:
            h = None
            missing = 1
        out[c] = ClassStats(
            dice=dice_score(pred_mask, ref_mask, c),
            jaccard=jaccard_score(pred_mask, ref_mask, c),
            hd95=h,
            hd95_missing=missing,
        )
    return out


def aggregate(case_reports: Sequence[dict[int, ClassStats]]) -> MetricReport:
    """Unweighted mean over cases per class, then unweighted mean over
    foreground classes for the average columns."""
    if not case_reports:
        raise ValueError("aggregate() needs at least one case report")
    classes = sorted(case_reports[0].keys())
    per_class = {}
    for c in classes:
        dices = [rep[c].dice for rep in case_reports]
        jacs = [rep[c].jaccard for rep in case_reports]
        hds = [rep[c].hd95 for rep in case_reports if rep[c].hd95 is not None]
        missing = sum(rep[c].hd95_missing for rep in case_reports)
        per_class[c] = ClassStats(
            dice=float(np.mean(dices)),
            jaccard=float(np.mean(jacs)),
            hd95=float(np.mean(hds)) if hds else None,
            hd95_missing=missing,
        )
    fg = [c for c in classes if c != 0] or classes
    hd_values = [per_class[c].hd95 for c in fg if per_class[c].hd95 is not None]
    return MetricReport(
        per_class=per_class,
        dice_avg=float(np.mean([per_class[c].dice for c in fg])),
        jaccard_avg=float(np.mean([per_class[c].jaccard for c in fg])),
        hd95_avg=float(np.mean(hd_values)) if hd_values else None,
        n_cases=len(case_reports),
    )
