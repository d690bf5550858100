"""The four training losses and an independent brute-force rank-contrast oracle.

- task: MSE between labels and predictions, one `tensor.mse` node.
- mkd (x2): RMSE between a detached teacher representation and the student's
  reconstructed one; gradients reach only the student's ancestry.
- rs: same RMSE form with no detach, pulling both flows' final
  representations together.
  Both take the two flows stacked on the leading axis, teacher (complete
  flow) rows first, and are one `tensor.rmse_halves` node each.
- rnc: rank contrast over the 2N concatenated final representations of both
  flows, ordering representation distances by label distances. It is one
  graph node, `tensor.rank_contrast`, with the label distances as sort keys:
  each anchor's candidates are sorted once, so the denominators are suffix
  sums and the loss costs O(N^2 log N) time and O(N^2) memory plus one block
  of pairwise differences; the oracle builds every candidate set explicitly,
  in O(N^3).

The weighted total is one `tensor.weighted_sum` node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import check_field_types, require_positive
from .tensor import Tensor, mse, rank_contrast, rmse_halves, weighted_sum


@dataclass
class LossWeights:
    alpha: float = 0.3  # mkd1
    beta: float = 0.3  # mkd2
    gamma: float = 1.0  # rs
    delta: float = 0.1  # rnc
    tau_rnc: float = 2.0

    def __post_init__(self):
        require_positive("loss config: tau_rnc", self.tau_rnc)  # first, so a non-number names the whole rule
        check_field_types(self, "loss config")
        for name in ("alpha", "beta", "gamma", "delta"):
            w = getattr(self, name)
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"loss weight {name} must be finite and non-negative, got {w}")


LOSS_TERMS = ("task", "mkd1", "mkd2", "rs", "rnc", "total")

# Each term of the total, in LOSS_TERMS order, with the LossWeights field
# that weighs it; the task term has weight 1.0.
WEIGHTED_TERMS = (("task", None), ("mkd1", "alpha"), ("mkd2", "beta"), ("rs", "gamma"), ("rnc", "delta"))


@dataclass
class LossReport:
    """One step's loss values, its fields in LOSS_TERMS order; an ablated
    term reads 0.0."""

    task: float
    mkd1: float
    mkd2: float
    rs: float
    rnc: float
    total: float

    def as_row(self):
        return [getattr(self, name) for name in LOSS_TERMS]


def task_loss(y, y_hat):
    """Mean squared error over a batch of valence predictions; `tensor.mse`
    rejects unequal or empty shapes."""
    return mse(y, y_hat)


def mkd_loss(R):
    """Distillation RMSE between the halves of R, the real (teacher)
    representation's rows over the simulated (student) one's; the teacher
    half is detached.

    N is the total element count of one half, batch included, so the loss is
    scale-free in batch size.
    """
    return rmse_halves(R, detach_first=True)


def rs_loss(r):
    """Final-representation alignment RMSE between the halves of r (complete
    flow rows, then missing flow rows); gradients flow to both flows."""
    return rmse_halves(r)


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
    O(n^2) memory plus the differences of one fixed-size block of anchor
    rows: no [n, n, D] or O(n^3) array. Representations more than ~745 * tau
    apart make exp(-d/tau) underflow, and `tensor.DomainError` is raised.
    `rank_contrast` checks the shape of reps and tau; the labels are checked
    here.
    """
    reps = reps if isinstance(reps, Tensor) else Tensor(reps)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 1 or labels.shape != reps.shape[:1]:
        raise ValueError(f"rnc_loss: labels shape {labels.shape} does not match the rows of reps {reps.shape}")
    if not np.isfinite(labels).all():
        raise ValueError("rnc_loss: labels must be finite")

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


def total_loss(terms, weights):
    """Weighted sum of the term name -> Tensor mapping `terms`, in
    WEIGHTED_TERMS order; an ablated term is absent and contributes exactly
    zero."""
    present = [(name, field) for name, field in WEIGHTED_TERMS if name in terms]
    return weighted_sum(
        [terms[name] for name, _ in present], [1.0 if field is None else getattr(weights, field) for _, field in present]
    )


def make_report(terms, total):
    """Per-term float report of the mapping `terms`, an absent term at 0.0;
    `total` is the graph's weighted sum from total_loss."""
    values = {name: terms[name].item() if name in terms else 0.0 for name, _ in WEIGHTED_TERMS}
    return LossReport(**values, total=total.item())
