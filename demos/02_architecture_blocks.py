"""The network's building blocks one by one: dense-block channel growth,
patch embedding and its inverse, attention weight structure, the ResMLP
collapse behavior, and what the CLAB gate does to a skip feature map.

Run:  python3 demos/02_architecture_blocks.py
"""

import numpy as np

import tfcns.layers as L
from tfcns.autodiff import Tensor

rng = np.random.default_rng(0)
F64 = np.float64

# --- dense block: channels grow, resolution stays -------------------------
block = L.DenseBlock(in_channels=4, growth_rate=3, n_layers=3, rng=np.random.default_rng(1))
x = Tensor(rng.standard_normal((1, 4, 16, 16)), dtype=F64)
print("dense block   :", x.shape, "->", block(x).shape, f"(4 + 3*3 = {block.out_channels} channels)")

# --- transitions halve / double -------------------------------------------
down = L.TransitionDown(13, 13, np.random.default_rng(2))
up = L.TransitionUp(13, 13, np.random.default_rng(3))
y = block(x)
print("transition dn :", y.shape, "->", down(y).shape)
print("transition up :", down(y).shape, "->", up(down(y)).shape)

# --- tokens: embed a feature map, run attention, fold back ----------------
embed = L.PatchEmbedding(in_channels=13, embed_dim=32, n_tokens=64, rng=np.random.default_rng(4))
tokens = embed(down(y))
print("patch embed   :", down(y).shape, "->", tokens.shape, "(class token at index 0)")

attn = L.MHSABlock(32, 4, np.random.default_rng(5))
z = attn(tokens)
rows = attn.last_attention.sum(axis=-1)
print("attention     : weights", attn.last_attention.shape,
      f"rows sum to 1 (max dev {np.abs(rows - 1).max():.1e})")

ff = L.ResMLPBlock(32, 64, np.random.default_rng(6))
z = ff(z)
print("resmlp        : learned scalar alpha =", float(ff.alpha.data))

fmap = L.tokens_to_map(z, 8, 8)
print("tokens_to_map :", z.shape, "->", fmap.shape, "(class token dropped)")

# --- CLAB: a gate in (0,1) multiplied onto the skip feature ---------------
gate = L.CLAB(in_channels=13, n_branches=4, branch_kernels=6, rng=np.random.default_rng(7))
skip = Tensor(rng.standard_normal((1, 13, 16, 16)), dtype=F64)
gated = gate(skip)
g = gate.last_gate
print(f"clab gate     : min {g.min():.3f}  mean {g.mean():.3f}  max {g.max():.3f}  (all in (0,1))")
print("              : energy kept", float((gated.data ** 2).sum() / (skip.data ** 2).sum()))
