"""Tour of the tensor core: building expressions on a tape, backpropagating,
and validating gradients against central finite differences.

Run:  python3 demos/01_autodiff_and_gradients.py
"""

import numpy as np

import tfcns.autodiff as ad
from tfcns.autodiff import Tape, Tensor

rng = np.random.default_rng(0)

# --- a small expression graph -------------------------------------------
x = Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
w = Tensor(rng.standard_normal((3, 2)), dtype=np.float64)

with Tape() as tape:
    tape.watch(x)
    tape.watch(w)
    hidden = ad.gelu(ad.matmul(x, w))
    loss = ad.reduce_mean(ad.mul(hidden, hidden))
    ad.backward(loss)

print("loss          :", float(loss.data))
print("dL/dx shape   :", x.grad.shape)
print("dL/dw[0]      :", w.grad[0])

# --- the finite-difference oracle ----------------------------------------
err = ad.grad_check(lambda t: ad.reduce_mean(ad.mul(ad.gelu(ad.matmul(t, w)), ad.gelu(ad.matmul(t, w)))), x)
print(f"grad check    : max rel err {err:.2e}  (tape vs central differences)")

# --- stability corners ----------------------------------------------------
probs = ad.softmax(Tensor([1000.0, 0.0, -1000.0], dtype=np.float64))
print("softmax(1000,0,-1000) =", probs.data, " sums to", probs.data.sum())

drop = ad.dropout(Tensor(np.ones(10)), p=0.5, rng=np.random.default_rng(1))
print("dropout keeps and rescales:", drop.data)

# an op that would produce Inf raises instead of propagating silently
try:
    ad.div(Tensor([1.0]), Tensor([0.0]))
except Exception as exc:
    print("1 / 0 ->", type(exc).__name__, "-", exc)
