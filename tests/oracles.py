"""Independent reference implementations used only by tests: explicit-loop
brute force, series expansions. These never share code paths with the
library routines they verify."""

import numpy as np


def erf_series(x: float, terms: int = 60) -> float:
    """Taylor series: erf(x) = 2/sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1))."""
    total, term = 0.0, x
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -x * x / (n + 1)
    return 2.0 / np.sqrt(np.pi) * total


def soft_dice_direct(probs: np.ndarray, target: np.ndarray, num_classes: int,
                     smoothing: float = 1e-5) -> float:
    """Per-element summation of the soft Dice loss."""
    b, _, h, w = probs.shape
    total = 0.0
    for c in range(num_classes):
        inter = psum = gsum = 0.0
        for bi in range(b):
            for i in range(h):
                for j in range(w):
                    p = probs[bi, c, i, j]
                    g = 1.0 if target[bi, i, j] == c else 0.0
                    inter += p * g
                    psum += p
                    gsum += g
        total += 1.0 - (2.0 * inter + smoothing) / (psum + gsum + smoothing)
    return total / num_classes


def boundary_loop(mask: np.ndarray) -> list:
    """4-adjacency boundary via per-pixel loops (outside the image counts as
    background)."""
    h, w = mask.shape
    out = []
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if ni < 0 or nj < 0 or ni >= h or nj >= w or not mask[ni, nj]:
                    out.append((i, j))
                    break
    return out


def hd95_bruteforce(pred: np.ndarray, ref: np.ndarray, cls: int, spacing=1.0):
    """All-pairs nearest-boundary distances; None when either side is empty."""
    pb = boundary_loop(pred == cls)
    rb = boundary_loop(ref == cls)
    if not pb or not rb:
        return None
    sy, sx = (spacing, spacing) if np.isscalar(spacing) else spacing
    dists = []
    for a in pb:
        best = min(((a[0] - b[0]) * sy) ** 2 + ((a[1] - b[1]) * sx) ** 2 for b in rb)
        dists.append(np.sqrt(best))
    for a in rb:
        best = min(((a[0] - b[0]) * sy) ** 2 + ((a[1] - b[1]) * sx) ** 2 for b in pb)
        dists.append(np.sqrt(best))
    return float(np.percentile(np.array(dists), 95))


def conv2d_direct(x: np.ndarray, w: np.ndarray, b, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation by explicit loops over every output pixel and kernel
    tap; taps that land in the zero padding are skipped."""
    bsz, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((bsz, o, ho, wo), dtype=np.float64)
    for r in range(ho):
        for s in range(wo):
            for i in range(kh):
                for j in range(kw):
                    y, xx = r * stride + i - padding, s * stride + j - padding
                    if 0 <= y < h and 0 <= xx < wd:
                        out[:, :, r, s] += x[:, :, y, xx].astype(np.float64) @ w[:, :, i, j].T.astype(np.float64)
    if b is not None:
        out += np.asarray(b, dtype=np.float64)[None, :, None, None]
    return out


def conv_transpose2d_direct(x: np.ndarray, w: np.ndarray, b, stride: int) -> np.ndarray:
    """Transposed convolution by explicit loops: every input pixel scatters its
    C-vector times each kernel tap into the output at stride * position + tap."""
    bsz, c, h, wd = x.shape
    _, o, kh, kw = w.shape
    out = np.zeros((bsz, o, (h - 1) * stride + kh, (wd - 1) * stride + kw), dtype=np.float64)
    for r in range(h):
        for s in range(wd):
            for i in range(kh):
                for j in range(kw):
                    out[:, :, r * stride + i, s * stride + j] += (
                        x[:, :, r, s].astype(np.float64) @ w[:, :, i, j].astype(np.float64))
    if b is not None:
        out += np.asarray(b, dtype=np.float64)[None, :, None, None]
    return out
