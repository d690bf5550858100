"""Parameterized layers, Gaussian initialization, and Adam over a flat store."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import GradMap, Tensor, affine

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
    """One `tensor.affine` node: x @ W + b on the last axis; W is [in, out], b is [out]."""

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
        return affine(x, self.W, self.b)


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

    Parameters missing from `grads` see a zero gradient. A gradient whose
    shape differs from its parameter's, or a non-finite one, rejects the whole
    step before any mutation. The update runs once over all parameters laid
    end to end, with the same arithmetic per element as a per-parameter loop;
    `state.m` and `state.v` keep one array per parameter name.
    """
    items = list(params.items())
    if isinstance(grads, GradMap):
        gs = [grads.get(p) for _, p in items]
    else:
        gs = [np.asarray(grads[name]) if name in grads else np.zeros(p.shape) for name, p in items]
    for (name, p), g in zip(items, gs):
        if g.shape != p.shape:
            raise ValueError(f"adam: gradient for parameter '{name}' has shape {g.shape}, expected {p.shape}")
    g = np.concatenate(gs, axis=None)
    if not np.isfinite(g).all():
        bad = next(name for (name, _), gi in zip(items, gs) if not np.isfinite(gi).all())
        raise FloatingPointError(f"adam: non-finite gradient for parameter '{bad}'")

    def flat(moments):
        return np.concatenate([moments[name] if name in moments else np.zeros(p.shape) for name, p in items], axis=None)

    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    m = state.beta1 * flat(state.m) + (1.0 - state.beta1) * g
    v = state.beta2 * flat(state.v) + (1.0 - state.beta2) * (g * g)
    update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    values = np.concatenate([p.values for _, p in items], axis=None) - update
    end = 0
    for name, p in items:
        shape = p.shape
        start, end = end, end + p.size
        state.m[name] = m[start:end].reshape(shape)
        state.v[name] = v[start:end].reshape(shape)
        p.values = values[start:end].reshape(shape)
