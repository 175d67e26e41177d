"""Small module system: parameter registration plus the primitive layers
(linear, conv, transposed conv, layer norm) that the architecture blocks
are assembled from.

A ``Parameter`` is a ``Tensor``, so layers pass it straight to the ops.
Weights use He fan-in initialization, biases start at zero, and embedding
tables use N(0, 0.02). Layers hold float64 parameters; ``Module.astype``
casts a built module to the dtype it computes in. Construction order fixes
the parameter registry order, so a fixed seed yields bit-identical parameters.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor


class Module:
    """Base class: walks its attributes (in definition order) to enumerate
    parameters and submodules. Calling a module runs its ``forward``."""

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(path)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{i}")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def astype(self, dtype) -> "Module":
        """Cast every parameter in place; returns the module."""
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
        return self


def he_normal(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def embedding_init(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return rng.standard_normal(shape) * 0.02


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        self.weight = Parameter(he_normal(rng, (in_features, out_features), in_features))
        self.bias = Parameter(np.zeros(out_features), no_decay=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        y = ad.matmul(x, self.weight)
        return y if self.bias is None else ad.add(y, self.bias)


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, bias: bool = True):
        k = kernel_size
        self.weight = Parameter(he_normal(rng, (out_channels, in_channels, k, k), in_channels * k * k))
        self.bias = Parameter(np.zeros(out_channels), no_decay=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias)


class ConvTranspose2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng: np.random.Generator):
        k = kernel_size
        self.weight = Parameter(he_normal(rng, (in_channels, out_channels, k, k), in_channels * k * k))
        self.bias = Parameter(np.zeros(out_channels), no_decay=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv_transpose2d(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim), no_decay=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)

