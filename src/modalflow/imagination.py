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
    W1: Tensor  # [3D, D'] over concat(R_v, R_a, R_t_hat)
    b1: Tensor  # [D']
    W2: Tensor  # [D', D]
    b2: Tensor  # [D]

    def __post_init__(self):
        d = self.W2.shape[1]
        hidden = self.W1.shape[1]
        if self.W1.shape[0] != 3 * d:
            raise ValueError(f"mia: W1 input dim {self.W1.shape[0]} != 3*D ({3 * d})")
        if self.W2.shape[0] != hidden or self.b1.shape != (hidden,) or self.b2.shape != (d,):
            raise ValueError("mia: inconsistent parameter shapes")

    @property
    def dim(self):
        return self.W2.shape[1]


def mia_forward(R_v, R_a, R_t_hat, params, gate_from=0):
    """Row-wise residual reconstruction of the simulated text rows [gate_from:].

    H = tanh(cat(R_v, R_a, R_t_hat) @ W1 + b1); out = R_t_hat + tanh(H @ W2 + b2)
    on those rows; the rows before gate_from pass through. The residual is
    tanh-bounded, so |out - R_t_hat| <= 1 elementwise. R_v and R_a hold either
    R_t_hat's rows or only the gated ones (audio and vision shared by the
    flows stacked in R_t_hat).
    """
    if R_t_hat.shape[-1] != params.dim:
        raise ValueError(f"mia: last dim {R_t_hat.shape[-1]} != parameter dim {params.dim}")
    return imagine(R_v, R_a, R_t_hat, params.W1, params.b1, params.W2, params.b2, gate_from)
