"""Parameterized layers, Gaussian initialization, and Adam over a flat store.

Adam's state is the learning rate, the step count and two flat moment arrays
laid out in store order; its betas and epsilon are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import GradMap, Tensor, affine

INIT_STD = 0.02

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def require_positive(what, value):
    """Raise ValueError naming `what` unless `value` is a finite positive
    number: a learning rate or a temperature."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be a finite positive number, got {value!r}")


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


@dataclass
class AdamState:
    """Learning rate, step count and the first and second moments, each one
    flat array over all parameters in store order; `m` and `v` stay None until
    the first step sizes them."""

    lr: float = 1e-3
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state, params, grads):
    """One Adam update with bias correction, in place on the store.

    Parameters missing from `grads` see a zero gradient. A gradient whose
    shape differs from its parameter's, a non-finite one, or a store whose size
    differs from the moments' rejects the whole step before any mutation. The
    update runs once over all parameters laid end to end, with the same
    arithmetic per element as a per-parameter loop, in place on the moments.
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
    if state.m is None:
        state.m, state.v = np.zeros(g.size), np.zeros(g.size)
    elif state.m.size != g.size:
        raise ValueError(f"adam: state holds moments for {state.m.size} values, the store has {g.size}")

    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    # in place, with the roundings of m = b1 * m + (1 - b1) * g, v = b2 * v
    # + (1 - b2) * (g * g) and lr * (m / bc1) / (sqrt(v / bc2) + eps)
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    g *= g
    g *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += g
    update = m / bc1
    update *= state.lr
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    update /= g
    values = np.concatenate([p.values for _, p in items], axis=None)
    values -= update
    end = 0
    for _, p in items:
        start, end = end, end + p.size
        p.values = values[start:end].reshape(p.shape)
