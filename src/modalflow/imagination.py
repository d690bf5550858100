"""Residual imagination autoencoder rewriting the simulated text representation.

Active only on the text-missing flow. Two independent instances exist: one
rewriting the stage-1 text representation (rows S'=1) and one rewriting the
stage-2 per-combination sequence (rows S'=7). Weights are shared across rows.
Each rewrite, with its row gate, is one `tensor.imagine` graph node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import Tensor, imagine


@dataclass
class MIAParams:
    """One imagination module's parameters; `tensor.imagine` checks their
    shapes against the inputs on each call."""

    W1: Tensor  # [3D, D'] over concat(R_v, R_a, R_t_hat)
    b1: Tensor  # [D']
    W2: Tensor  # [D', D]
    b2: Tensor  # [D]


def mia_forward(R_v, R_a, R_t_hat, params, gate_from=0):
    """Row-wise residual reconstruction of the simulated text rows [gate_from:].

    H = tanh(cat(R_v, R_a, R_t_hat) @ W1 + b1); out = R_t_hat + tanh(H @ W2 + b2)
    on those rows; the rows before gate_from pass through. The residual is
    tanh-bounded, so |out - R_t_hat| <= 1 elementwise. R_v and R_a hold either
    R_t_hat's rows or only the gated ones (audio and vision shared by the
    flows stacked in R_t_hat).
    """
    return imagine(R_v, R_a, R_t_hat, params.W1, params.b1, params.W2, params.b2, gate_from)
