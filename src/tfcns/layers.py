"""Building blocks of the network: dense blocks, resolution transitions,
patch embedding, pre-norm multi-head self-attention, the ResMLP feed-forward
variant with its learned scalar, and the convolutional-linear skip gates.

All blocks preserve the B x C x H x W (maps) or B x T x D (token) layout
stated per class. Forward passes are single-threaded per instance; blocks
with dropout take an optional generator and run dropout only when given one.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigInvalid, ShapeMismatch
from .nn import Conv2d, ConvTranspose2d, LayerNorm, Linear, Module, embedding_init, he_normal


class DenseBlock(Module):
    """Stack of 3x3 conv layers where layer i consumes the block input and all
    previous layer outputs, and appends ``growth_rate`` channels. Output
    channels = in_channels + n_layers * growth_rate.

    Each internal layer is conv3x3 -> GELU -> dropout, with no normalization.
    It runs as one ``ad.dense_block`` op over a shared feature buffer, so no
    layer concatenates; ``convs`` only hold the weights. The input may be a
    list of maps (a decoder block takes the upsampled map and the gated skip);
    the block empties that list once the maps are copied into its buffer.
    """

    def __init__(self, in_channels: int, growth_rate: int, n_layers: int,
                 rng: np.random.Generator, dropout_p: float = 0.0):
        self.in_channels = in_channels
        self.growth_rate = growth_rate
        self.n_layers = n_layers
        self.convs = [
            Conv2d(in_channels + i * growth_rate, growth_rate, 3, rng) for i in range(n_layers)
        ]
        self.dropout_p = dropout_p

    @property
    def out_channels(self) -> int:
        return self.in_channels + self.n_layers * self.growth_rate

    def forward(self, x, rng: Optional[np.random.Generator] = None) -> Tensor:
        return ad.dense_block(x if isinstance(x, list) else [x], [conv.weight for conv in self.convs],
                              [conv.bias for conv in self.convs], self.dropout_p, rng)


class TransitionDown(Module):
    """1x1 conv + GELU + 2x2 average pooling; halves both spatial dims
    (even dims required)."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.conv = Conv2d(in_channels, out_channels, 1, rng)

    def forward(self, x: Tensor) -> Tensor:
        return ad.avg_pool(ad.gelu(self.conv(x)))


class TransitionUp(Module):
    """Stride-2 2x2 transposed convolution; doubles both spatial dims."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.conv = ConvTranspose2d(in_channels, out_channels, 2, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv(x)


class PatchEmbedding(Module):
    """Projects each position of a feature map to an embed_dim token, prepends
    a learnable class token, and adds a learnable position table.

    The map's Hf x Wf positions are flattened row-major into N tokens, so the
    output sequence has length N + 1 with the class token at index 0.
    """

    def __init__(self, in_channels: int, embed_dim: int, n_tokens: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.embed_dim = embed_dim
        self.n_tokens = n_tokens
        self.projection = Parameter(he_normal(rng, (in_channels, embed_dim), in_channels))
        self.class_token = Parameter(embedding_init(rng, (1, embed_dim)), no_decay=True)
        self.position_table = Parameter(embedding_init(rng, (n_tokens + 1, embed_dim)), no_decay=True)

    def forward(self, feature_map: Tensor) -> Tensor:
        b, c, hf, wf = feature_map.shape
        if c != self.in_channels:
            raise ShapeMismatch(f"patch embedding expects {self.in_channels} channels, got {c}")
        if hf * wf != self.n_tokens:
            raise ShapeMismatch(
                f"feature map {hf}x{wf} yields {hf * wf} tokens, embedding built for {self.n_tokens}"
            )
        flat = ad.transpose(ad.reshape(feature_map, (b, c, hf * wf)), (0, 2, 1))
        tokens = ad.matmul(flat, self.projection)
        cls = ad.add(
            ad.reshape(self.class_token, (1, 1, self.embed_dim)),
            np.zeros((b, 1, self.embed_dim), dtype=feature_map.dtype),
        )
        seq = ad.concat([cls, tokens], axis=1)
        return ad.add(seq, ad.reshape(self.position_table, (1, self.n_tokens + 1, self.embed_dim)))


def tokens_to_map(z: Tensor, hf: int, wf: int) -> Tensor:
    """Drop the class token and fold the remaining N = Hf*Wf tokens back into
    a B x D x Hf x Wf feature map (inverse of the patch-embedding flattening)."""
    b, t, d = z.shape
    if t != hf * wf + 1:
        raise ShapeMismatch(f"sequence length {t} does not match {hf}x{wf} map plus class token")
    body = ad.narrow(z, 1, 1, hf * wf)
    return ad.reshape(ad.transpose(body, (0, 2, 1)), (b, d, hf, wf))


class MHSABlock(Module):
    """Pre-norm residual multi-head self-attention:
    out = MHSA(LN(z)) + z, with per-head scaled dot-product attention.

    The most recent attention weights (B, heads, T, T) are kept on
    ``last_attention`` for inspection; treat that array as read-only.
    """

    def __init__(self, embed_dim: int, n_heads: int, rng: np.random.Generator,
                 attn_dropout_p: float = 0.0):
        if embed_dim % n_heads:
            raise ConfigInvalid(f"embed_dim {embed_dim} not divisible by n_heads {n_heads}")
        self.embed_dim = embed_dim
        self.n_heads = n_heads
        self.head_dim = embed_dim // n_heads
        self.norm = LayerNorm(embed_dim)
        self.w_q = Linear(embed_dim, embed_dim, rng)
        # softmax is invariant to per-query constant score shifts, which is
        # exactly what a key bias adds; it would be a dead parameter
        self.w_k = Linear(embed_dim, embed_dim, rng, bias=False)
        self.w_v = Linear(embed_dim, embed_dim, rng)
        self.w_o = Linear(embed_dim, embed_dim, rng)
        self.dropout_p = attn_dropout_p
        self.last_attention: Optional[np.ndarray] = None

    def _split_heads(self, x: Tensor, b: int, t: int) -> Tensor:
        return ad.transpose(ad.reshape(x, (b, t, self.n_heads, self.head_dim)), (0, 2, 1, 3))

    def forward(self, z: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        b, t, d = z.shape
        x = self.norm(z)
        q = self._split_heads(self.w_q(x), b, t)
        k = self._split_heads(self.w_k(x), b, t)
        v = self._split_heads(self.w_v(x), b, t)
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
        attn = ad.softmax(scores, axis=-1)
        self.last_attention = attn.data
        attn = ad.dropout(attn, self.dropout_p, rng)
        ctx = ad.matmul(attn, v)
        merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, t, d))
        return ad.add(self.w_o(merged), z)


class ResMLPBlock(Module):
    """Feed-forward block with three linear layers, two GELUs, three dropouts,
    a learned scalar on the first GELU output, and an inner residual joining
    the normalized input before the second GELU:

        zn    = LN(z)
        inner = zn + Drop(L2(Drop(alpha * GELU(L1(zn)))))
        out   = Drop(L3(GELU(inner))) + z
    """

    def __init__(self, embed_dim: int, hidden_dim: int, rng: np.random.Generator,
                 dropout_p: float = 0.0):
        self.norm = LayerNorm(embed_dim)
        self.l1 = Linear(embed_dim, hidden_dim, rng)
        self.l2 = Linear(hidden_dim, embed_dim, rng)
        self.l3 = Linear(embed_dim, embed_dim, rng)
        self.alpha = Parameter(np.ones(()), no_decay=True)
        self.dropout_p = dropout_p

    def forward(self, z: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        zn = self.norm(z)
        a = ad.mul(ad.gelu(self.l1(zn)), self.alpha)
        a = ad.dropout(a, self.dropout_p, rng)
        a = self.l2(a)
        a = ad.dropout(a, self.dropout_p, rng)
        inner = ad.add(zn, a)
        out = self.l3(ad.gelu(inner))
        out = ad.dropout(out, self.dropout_p, rng)
        return ad.add(out, z)


class PlainMLPBlock(Module):
    """Conventional two-layer transformer MLP (ablation counterpart of
    ResMLPBlock): out = Drop(L2(Drop(GELU(L1(LN(z)))))) + z."""

    def __init__(self, embed_dim: int, hidden_dim: int, rng: np.random.Generator,
                 dropout_p: float = 0.0):
        self.norm = LayerNorm(embed_dim)
        self.l1 = Linear(embed_dim, hidden_dim, rng)
        self.l2 = Linear(hidden_dim, embed_dim, rng)
        self.dropout_p = dropout_p

    def forward(self, z: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        h = ad.dropout(ad.gelu(self.l1(self.norm(z))), self.dropout_p, rng)
        out = ad.dropout(self.l2(h), self.dropout_p, rng)
        return ad.add(out, z)


MLP_BLOCKS = {"resmlp": ResMLPBlock, "plain_mlp": PlainMLPBlock}


class RLTransformerEncoder(Module):
    """L repetitions of (attention block, feed-forward block), then a final
    layer norm. With mlp_variant="plain_mlp" the feed-forward half becomes a
    conventional MLP for ablation."""

    def __init__(self, embed_dim: int, depth: int, n_heads: int, hidden_dim: int,
                 rng: np.random.Generator, dropout_p: float = 0.0,
                 mlp_variant: str = "resmlp"):
        if mlp_variant not in MLP_BLOCKS:
            raise ConfigInvalid(f"unknown mlp_variant {mlp_variant!r}")
        self.attn_blocks = []
        self.mlp_blocks = []
        for _ in range(depth):
            self.attn_blocks.append(MHSABlock(embed_dim, n_heads, rng, dropout_p))
            self.mlp_blocks.append(MLP_BLOCKS[mlp_variant](embed_dim, hidden_dim, rng, dropout_p))
        self.final_norm = LayerNorm(embed_dim)

    def forward(self, z: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        for attn, mlp in zip(self.attn_blocks, self.mlp_blocks):
            z = attn(z, rng)
            z = mlp(z, rng)
        return self.final_norm(z)


# OpenBLAS computes a float32 GEMM of fewer multiply-adds than this with its
# small-matrix kernels, whose bits differ from its other kernels' (seen at
# 224^2 for a gate's 4-output branch conv over halves of 28^2 and 14^2 maps).
# A gate whose branch conv would be that small on half the rows runs it
# whole, so that a split forward keeps the whole forward's bits.
_SMALL_GEMM = 100 ** 3


class _BranchGate(Module):
    """Shared machinery of the skip-connection gates: N bias-free 1x1-conv branches of
    K kernels each, reduced over their kernels to one map per branch and normalized per
    sample over the spatial extent. A spatial path (1x1 conv over the
    normalized maps) and a channel path (linear over the per-branch spatial means) feed
    the sigmoid gating. A forward keeps only the gate's two factors, the B x 1 x H x W
    spatial map and the B x C x 1 x 1 channel vector; ``last_gate`` builds the latest
    B x C x H x W gate from them when read (None before any forward).

    The channel path pools each branch map before normalization: the
    normalized maps have exactly zero spatial mean by construction, so
    pooling them instead would feed the linear layer a constant zero.
    Branch convs carry no bias for the same reason (a constant map offset
    cancels under the centering).

    In a forward split by rows (see ``ad.split_rows``) the branch maps are
    computed by halves (on the map gathered whole where that GEMM would be
    small, see _SMALL_GEMM) and then held whole, since the normalization
    spans H x W, and the gating products run by halves; ``last_gate`` is
    whole.
    """

    eps = 1e-5

    def __init__(self, in_channels: int, n_branches: int, branch_kernels: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.n_branches = n_branches
        self.branch_kernels = branch_kernels
        self.branches = [Conv2d(in_channels, branch_kernels, 1, rng, bias=False) for _ in range(n_branches)]
        self.gate_linear = Linear(n_branches, in_channels, rng)
        self.gate_conv = Conv2d(n_branches, 1, 1, rng)
        self._factors: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def last_gate(self) -> Optional[np.ndarray]:
        return None if self._factors is None else self._combine(*self._factors)

    def _branch_features(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """(normalized branch maps B x N x H x W, per-branch means B x N).

        A 1x1 conv followed by a mean over its K kernels is one linear map, so
        all N branches run as one N-output 1x1 conv with kernel-averaged weights;
        the ``branches`` modules only hold those weights.
        """
        b, c = x.shape[:2]
        if c != self.in_channels:
            raise ShapeMismatch(f"gate built for {self.in_channels} channels, got {c}")
        n = self.n_branches
        w = ad.concat([conv.weight for conv in self.branches], axis=0)
        w = ad.reduce_mean(ad.reshape(w, (n, self.branch_kernels, c, 1, 1)), axis=1)
        if n * math.prod(ad._map_shape(x)[1:]) < 2 * _SMALL_GEMM:
            m = ad.conv2d(ad.whole_rows(x), w)
        else:
            m = ad.whole_rows(ad.split_rows(lambda rows: ad.conv2d(rows, w), x))  # normalize spans H x W
        normed = ad.normalize(ad.reshape(m, (b, n, -1)), self.eps)
        return ad.reshape(normed, m.shape), ad.reduce_mean(m, axis=(2, 3))

    def _channel_logits(self, branch_means: Tensor) -> Tensor:
        b = branch_means.shape[0]
        return ad.reshape(self.gate_linear(branch_means), (b, self.in_channels, 1, 1))


class CLAB(_BranchGate):
    """Convolutional linear attention gate: the spatial-path map and the
    channel-path vector are fused additively before one sigmoid, and the
    resulting gate (open interval (0,1)) multiplies the source input.
    Output shape equals input shape. ``last_gate`` is built on read as
    sigmoid(spatial + channel) from the two kept logit factors."""

    _combine = staticmethod(lambda spatial, channel: ad.expit(spatial + channel))

    def forward(self, x: Tensor) -> Tensor:
        xm, means = self._branch_features(x)
        spatial = self.gate_conv(xm)
        channel = self._channel_logits(means)
        self._factors = (spatial.data, channel.data)
        return ad.split_rows(lambda rows, spatial_rows: ad.mul(rows, ad.sigmoid(ad.add(spatial_rows, channel))),
                             x, spatial)


class CUABLike(_BranchGate):
    """Ablation counterpart with the attention order reversed: a spatial
    sigmoid gate is applied first, then the channel gate is recomputed from
    the already-gated features and applied on top. ``last_gate`` is built on
    read as spatial_gate * channel_gate from the two kept gate factors."""

    _combine = staticmethod(np.multiply)

    def forward(self, x: Tensor) -> Tensor:
        xm1, _ = self._branch_features(x)
        spatial_gate = ad.sigmoid(self.gate_conv(xm1))
        x1 = ad.split_rows(ad.mul, x, spatial_gate)
        _, means = self._branch_features(x1)
        channel_gate = ad.sigmoid(self._channel_logits(means))
        self._factors = (spatial_gate.data, channel_gate.data)
        return ad.split_rows(lambda rows: ad.mul(rows, channel_gate), x1)
