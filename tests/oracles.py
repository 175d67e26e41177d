"""Independent reference implementations used only by tests: explicit-loop
brute force, series expansions, scipy. These never share code paths with the
library routines they verify."""

import numpy as np
from scipy.ndimage import binary_erosion, distance_transform_edt, generate_binary_structure
from scipy.special import erf


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


def hd95_edt(pred: np.ndarray, ref: np.ndarray, cls: int) -> float:
    """hd95 from scipy's exact Euclidean distance transforms of the two
    boundary complements, read at the other side's boundary pixels; a
    boundary pixel is one that a 4-neighbour erosion (outside the image
    counts as background) removes. Both sides must be non-empty."""
    cross = generate_binary_structure(2, 1)
    pb, rb = ((m & ~binary_erosion(m, cross, border_value=0)) for m in (pred == cls, ref == cls))
    dists = np.concatenate([distance_transform_edt(~rb)[pb], distance_transform_edt(~pb)[rb]])
    return float(np.percentile(dists, 95))


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


def conv2d_grads_direct(x: np.ndarray, w: np.ndarray, g: np.ndarray, stride: int = 1, padding: int = 0):
    """(gx, gw, gb) of ``conv2d_direct`` for output gradient ``g``, by the same
    loops: each output pixel and tap sends g back to the input pixel it read
    and to the weight tap that read it."""
    bsz, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    _, _, ho, wo = g.shape
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for r in range(ho):
        for s in range(wo):
            for i in range(kh):
                for j in range(kw):
                    y, xx = r * stride + i - padding, s * stride + j - padding
                    if 0 <= y < h and 0 <= xx < wd:
                        gx[:, :, y, xx] += g[:, :, r, s] @ w[:, :, i, j]
                        gw[:, :, i, j] += g[:, :, r, s].T @ x[:, :, y, xx]
    return gx, gw, g.sum(axis=(0, 2, 3))


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


def branch_features_direct(x: np.ndarray, branch_weights, eps: float):
    """Skip-gate branch features by one loop per branch: run each bias-free 1x1
    conv, take the mean over its K kernels, then centre and scale that map per
    sample over the spatial extent -> (maps B x N x H x W, means B x N)."""
    maps, means = [], []
    for w in branch_weights:
        m = conv2d_direct(x, w, None).mean(axis=1)
        mu = m.mean(axis=(1, 2), keepdims=True)
        var = ((m - mu) ** 2).mean(axis=(1, 2), keepdims=True)
        maps.append((m - mu) / np.sqrt(var + eps))
        means.append(mu[:, 0, 0])
    return np.stack(maps, axis=1), np.stack(means, axis=1)


def dense_block_direct(inputs, weights, biases, dropout_p: float = 0.0, rng=None) -> np.ndarray:
    """Dense block by its per-layer definition, in float64: each layer runs a
    3x3, padding-1 ``conv2d_direct`` over the concatenation of the inputs and
    every earlier layer output, then x * Phi(x) with scipy's erf, then (given
    an rng) inverted dropout whose mask is drawn per layer in layer order, and
    appends the result."""
    feats = np.concatenate([np.asarray(x, dtype=np.float64) for x in inputs], axis=1)
    for w, b in zip(weights, biases):
        z = conv2d_direct(feats, w, b, padding=1)
        y = z * 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
        if rng is not None:
            y = np.where(rng.random(y.shape) >= dropout_p, y / (1.0 - dropout_p), 0.0)
        feats = np.concatenate([feats, y], axis=1)
    return feats
