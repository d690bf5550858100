"""Parameterized layers, Gaussian initialization, and Adam over a flat store."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import GradMap, Tensor

INIT_STD = 0.02


class ParamStore(dict):
    """Named map from parameter path to leaf Tensor; insertion-ordered."""

    def register(self, name, tensor):
        if name in self:
            raise ValueError(f"duplicate parameter name '{name}'")
        if not tensor.requires_grad:
            raise ValueError(f"parameter '{name}' must have requires_grad=True")
        self[name] = tensor
        return tensor

    def snapshot(self):
        """Deep value copy, for checkpointing."""
        return {name: t.values.copy() for name, t in self.items()}

    def load_values(self, values):
        for name, t in self.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise ValueError(f"parameter '{name}': stored shape {arr.shape} != expected {t.shape}")
            t.values = arr.copy()


@dataclass
class AffineLayer:
    """x @ W + b on the last axis; W is [in, out], b is [out]."""

    W: Tensor
    b: Tensor

    def __post_init__(self):
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[1],):
            raise ValueError(f"affine: inconsistent shapes W{self.W.shape}, b{self.b.shape}")

    @property
    def in_dim(self):
        return self.W.shape[0]

    @property
    def out_dim(self):
        return self.W.shape[1]

    def __call__(self, x):
        return x @ self.W + self.b


def gaussian_leaf(rng, shape, std=INIT_STD):
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ValueError(f"init: non-positive dimension in {shape}")
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def zeros_leaf(shape):
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ValueError(f"init: non-positive dimension in {shape}")
    return Tensor(np.zeros(shape), requires_grad=True)


def init_affine(rng, store, prefix, in_dim, out_dim):
    W = store.register(f"{prefix}.W", gaussian_leaf(rng, (in_dim, out_dim)))
    b = store.register(f"{prefix}.b", zeros_leaf((out_dim,)))
    return AffineLayer(W, b)


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def snapshot(self):
        return {
            "step": self.step,
            "m": {k: a.copy() for k, a in self.m.items()},
            "v": {k: a.copy() for k, a in self.v.items()},
        }

    def load(self, snap):
        self.step = int(snap["step"])
        self.m = {k: np.asarray(a, dtype=np.float64).copy() for k, a in snap["m"].items()}
        self.v = {k: np.asarray(a, dtype=np.float64).copy() for k, a in snap["v"].items()}


def adam_step(state, params, grads):
    """One Adam update with bias correction, in place on the store.

    Parameters missing from `grads` see a zero gradient. A non-finite
    gradient rejects the whole step before any mutation.
    """
    if isinstance(grads, GradMap):
        gmap = {name: grads.get(p) for name, p in params.items()}
    else:
        gmap = {name: np.asarray(grads.get(name, np.zeros(p.shape))) for name, p in params.items()}
    for name, g in gmap.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"adam: non-finite gradient for parameter '{name}'")

    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = gmap[name]
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros(p.shape)
            v = np.zeros(p.shape)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p.values = p.values - update
