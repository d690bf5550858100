"""The flat parameter store, and Adam over it.

`ParamStore` lays every parameter end to end in one float64 array, `flat`;
each parameter is a leaf whose `values` is a fixed view into it. Adam's state
is the learning rate, the step count and two flat moment arrays in the same
layout; its betas and epsilon are the module constants below. An Adam step
updates `flat` in place, so every view sees it and no `values` is rebound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def require_positive(what, value):
    """Raise ValueError naming `what` unless `value` is a finite positive
    number: a learning rate or a temperature."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be a finite positive number, got {value!r}")


# A config field's annotation, as written -> the types its value may have, and their name.
_FIELD_TYPES = {"int": ((int,), "an int"), "float": ((int, float), "a number"), "bool": ((bool,), "a bool")}


def check_field_types(config, what):
    """Raise TypeError naming `what` and the field unless each field of the
    dataclass `config` annotated int, float or bool holds such a value; an
    int passes as a float, a bool only as a bool. Other fields pass."""
    for f in fields(config):
        if f.type in _FIELD_TYPES:
            kinds, phrase = _FIELD_TYPES[f.type]
            value = getattr(config, f.name)
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                raise TypeError(f"{what}: {f.name} must be {phrase}, got {value!r}")


class ParamStore(dict):
    """Named parameters over one flat float64 array, in the order of the
    mapping it is built from.

    The arrays lie end to end in `flat`, and each name maps to a
    requires_grad leaf whose `values` is a fixed view into `flat`: writing
    into a view or into `flat` changes the parameter. The store is built once
    and never rebinds a view.
    """

    def __init__(self, arrays):
        super().__init__()
        self.flat = np.concatenate(list(arrays.values()), axis=None, dtype=np.float64)
        end = 0
        for name, a in arrays.items():
            start, end = end, end + a.size
            self[name] = Tensor(self.flat[start:end].reshape(a.shape), requires_grad=True)

    def snapshot(self):
        """Deep value copy, for checkpointing."""
        return {name: t.values.copy() for name, t in self.items()}


@dataclass
class AdamState:
    """Learning rate, step count and the first and second moments, each one
    flat array over all parameters in store order; `m` and `v` stay None until
    the first step sizes them."""

    lr: float = 1e-3
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state, store, grads):
    """One Adam update with bias correction, in place on `store.flat`.

    `grads` is the `GradMap` that `tensor.backward` returns; a parameter the
    loss never reached reads as a zero gradient. A gradient whose shape
    differs from its parameter's, a non-finite one, or a store whose size
    differs from the moments' rejects the whole step before any mutation.
    The gradients are gathered once, in store order, into one array that is
    then the update's scratch buffer; the update runs with the same
    arithmetic per element as a per-parameter loop, in place on the moments.
    """
    items = list(store.items())
    gs = [grads.get(p) for _, p in items]
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
    store.flat -= update
