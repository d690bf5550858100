"""The four training losses and an independent brute-force rank-contrast oracle.

- task: MSE between labels and predictions.
- mkd (x2): RMSE between a detached teacher representation and the student's
  reconstructed one; gradients reach only the student's ancestry.
- rs: same RMSE form with no detach, pulling both flows' final
  representations together.
- rnc: rank contrast over the 2N concatenated final representations of both
  flows, ordering representation distances by label distances. It is one
  graph node, `tensor.rank_contrast`, with the label distances as sort keys:
  each anchor's candidates are sorted once, so the denominators are suffix
  sums and the loss costs O(N^2 log N); the oracle builds every candidate set
  explicitly, in O(N^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, rank_contrast


@dataclass
class LossWeights:
    alpha: float = 0.3  # mkd1
    beta: float = 0.3  # mkd2
    gamma: float = 1.0  # rs
    delta: float = 0.1  # rnc
    tau_rnc: float = 2.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            w = getattr(self, name)
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"loss weight {name} must be finite and non-negative, got {w}")
        if not self.tau_rnc > 0:
            raise ValueError(f"tau_rnc must be positive, got {self.tau_rnc}")


@dataclass
class LossReport:
    task: float
    mkd1: float
    mkd2: float
    rs: float
    rnc: float
    total: float

    def as_row(self):
        return [self.task, self.mkd1, self.mkd2, self.rs, self.rnc, self.total]


def task_loss(y, y_hat):
    """Mean squared error over a batch of valence predictions."""
    y = y if isinstance(y, Tensor) else Tensor(y)
    if y.shape != y_hat.shape:
        raise ValueError(f"task_loss: label shape {y.shape} != prediction shape {y_hat.shape}")
    if y.size == 0:
        raise ValueError("task_loss: empty batch")
    return (y - y_hat).square().mean()


def _rmse(a, b, detach_first):
    if a.shape != b.shape:
        raise ValueError(f"rmse: shapes differ, {a.shape} vs {b.shape}")
    first = a.detach() if detach_first else a
    diff = first - b
    return (diff.square().sum() * (1.0 / diff.size)).sqrt()


def mkd_loss(R_real, R_sim):
    """Distillation RMSE; the real (teacher) representation is detached.

    N is the total element count of the representation tensor, batch included,
    so the loss is scale-free in batch size.
    """
    return _rmse(R_real, R_sim, detach_first=True)


def rs_loss(r, r_hat):
    """Final-representation alignment RMSE; gradients flow to both flows."""
    return _rmse(r, r_hat, detach_first=False)


def rnc_loss(reps, labels, tau_rnc):
    """Rank contrast over 2N representations with duplicated labels.

    sim(a, b) = -||a - b||_2. Per anchor i and positive j != i, the positive
    competes against every k != i whose label distance to i is >= that of j;
    the total applies the -1/(2N-1) factor and the 1/(2N) average.

    With n = 2N, the label distances |y_i - y_k| are the sort keys of
    `tensor.rank_contrast`, one graph node that sorts each anchor's row once
    and reads every denominator as a suffix sum over that order (ties read
    from the first index of their group). The diagonal key is -inf, so the
    anchor enters no denominator. The loss costs O(n^2 log n + n^2 D) time and
    O(n^2 D) memory, no O(n^3) array. Representations more than ~745 * tau
    apart make exp(-d/tau) underflow, and `tensor.DomainError` is raised.
    """
    reps = reps if isinstance(reps, Tensor) else Tensor(reps)
    labels = np.asarray(labels, dtype=np.float64)
    if reps.ndim != 2:
        raise ValueError(f"rnc_loss: reps must be [2N, D], got {reps.shape}")
    n = reps.shape[0]
    if n < 2:
        raise ValueError(f"rnc_loss: need at least 2 representations, got {n}")
    if labels.shape != (n,):
        raise ValueError(f"rnc_loss: labels shape {labels.shape} != ({n},)")
    if not np.isfinite(labels).all():
        raise ValueError("rnc_loss: labels must be finite")
    if not tau_rnc > 0:
        raise ValueError(f"rnc_loss: tau must be positive, got {tau_rnc}")

    label_dist = np.abs(labels[:, None] - labels[None, :])
    # the anchor sorts below every candidate, so it enters no denominator
    np.fill_diagonal(label_dist, -np.inf)
    return rank_contrast(reps, label_dist, tau_rnc)


def rnc_oracle(reps, labels, tau_rnc):
    """Naive O((2N)^3) reimplementation with explicit set construction; value only."""
    reps = np.asarray(reps.values if isinstance(reps, Tensor) else reps, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = reps.shape[0]
    if n < 2:
        raise ValueError(f"rnc_oracle: need at least 2 representations, got {n}")
    if not np.isfinite(labels).all():
        raise ValueError("rnc_oracle: labels must be finite")
    if not tau_rnc > 0:
        raise ValueError(f"rnc_oracle: tau must be positive, got {tau_rnc}")

    total = 0.0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            num = math.exp(-np.linalg.norm(reps[i] - reps[j]) / tau_rnc)
            # candidate set: all k != i at label distance >= that of j (j always in)
            candidates = [
                k for k in range(n)
                if k != i and abs(labels[i] - labels[k]) >= abs(labels[i] - labels[j])
            ]
            den = sum(math.exp(-np.linalg.norm(reps[i] - reps[k]) / tau_rnc) for k in candidates)
            total += math.log(num / den)
    return -total / (n * (n - 1))


def total_loss(task, weights, mkd1=None, mkd2=None, rs=None, rnc=None):
    """Weighted sum; ablated terms pass None and contribute exactly zero."""
    total = task
    for term, w in ((mkd1, weights.alpha), (mkd2, weights.beta), (rs, weights.gamma), (rnc, weights.delta)):
        if term is not None:
            total = total + term * w
    return total


def make_report(total, task, mkd1=None, mkd2=None, rs=None, rnc=None):
    """Per-term float report; `total` is the graph's weighted sum from total_loss."""

    def val(t):
        return 0.0 if t is None else t.item()

    return LossReport(task=val(task), mkd1=val(mkd1), mkd2=val(mkd2), rs=val(rs), rnc=val(rnc), total=total.item())
