from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalflow.losses import (
    LOSS_TERMS,
    WEIGHTED_TERMS,
    LossReport,
    LossWeights,
    make_report,
    mkd_loss,
    rnc_loss,
    rnc_oracle,
    rs_loss,
    task_loss,
    total_loss,
)
from modalflow.tensor import ShapeError, Tensor, backward, concat, grad_check


# -- weights -----------------------------------------------------------------------


def test_weights_defaults_valid():
    w = LossWeights()
    assert w.gamma == 1.0 and w.tau_rnc > 0


@pytest.mark.parametrize("kw", [{"alpha": -0.1}, {"delta": float("nan")}, {"tau_rnc": 0.0}])
def test_weights_validation(kw):
    with pytest.raises(ValueError):
        LossWeights(**kw)


# -- task loss ----------------------------------------------------------------------


def test_task_loss_zero_on_perfect_prediction(rng):
    y = rng.normal(size=8)
    assert task_loss(y, Tensor(y.copy())).item() == 0.0


def test_task_loss_hand_value():
    y = np.array([1.0, -1.0])
    y_hat = Tensor(np.array([2.0, 1.0]))
    # ((1)^2 + (2)^2) / 2 = 2.5
    assert task_loss(y, y_hat).item() == pytest.approx(2.5, abs=1e-15)


def test_task_loss_validation():
    with pytest.raises(ValueError, match="shape"):
        task_loss(np.ones(3), Tensor(np.ones(4)))
    with pytest.raises(ValueError, match="empty"):
        task_loss(np.ones(0), Tensor(np.ones(0)))


# -- rmse-style losses -----------------------------------------------------------------


def stacked(first, second):
    """The two flows' rows on one leading axis, as the RMSE losses take them."""
    return Tensor(np.concatenate([first, second]))


def test_mkd_hand_value():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    # sqrt((1 + 4 + 9 + 9) / 4)
    expected = np.sqrt(23.0 / 4.0)
    assert mkd_loss(stacked(a, b)).item() == pytest.approx(expected, abs=1e-15)


def test_rs_hand_value_sqrt_five_halves():
    # halves [1, 0] and [-1, 1]: sqrt((4 + 1) / 2) = sqrt(5/2) = 1.5811388300841898
    assert rs_loss(Tensor(np.array([1.0, 0.0, -1.0, 1.0]))).item() == pytest.approx(1.5811388300841898, abs=1e-15)


def test_rmse_losses_zero_on_identical_inputs(rng):
    x = rng.normal(size=(3, 4))
    assert mkd_loss(stacked(x, x)).item() == 0.0
    assert rs_loss(stacked(x, x)).item() == 0.0


@pytest.mark.parametrize("loss", [mkd_loss, rs_loss])
def test_rmse_losses_reject_odd_row_counts(loss):
    with pytest.raises(ShapeError, match="even"):
        loss(Tensor(np.ones((3, 2))))


def test_mkd_detaches_teacher(rng):
    """The teacher half's gradient is exactly zero; the student's is not."""
    teacher = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    student = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    grads = backward(mkd_loss(concat([teacher, student], axis=0)))
    assert np.array_equal(grads.get(teacher), np.zeros((2, 3)))
    assert np.any(grads.get(student) != 0.0)


def test_rs_flows_to_both_sides(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    grads = backward(rs_loss(concat([a, b], axis=0)))
    assert np.any(grads.get(a) != 0.0)
    assert np.any(grads.get(b) != 0.0)
    # anti-symmetric pull: gradients are exact negatives of each other
    assert np.max(np.abs(grads.get(a) + grads.get(b))) < 1e-15


def test_rmse_gradient_check(rng):
    def f(p):
        return rs_loss(concat(p, axis=0))

    point = [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))]
    assert grad_check(f, point) < 1e-5


# -- rank contrast vs brute-force oracle -----------------------------------------------------


def test_rnc_matches_oracle_randomized(rng):
    for n in range(1, 9):
        for _ in range(10):
            reps = rng.normal(size=(2 * n, 4))
            labels = np.concatenate([rng.uniform(-3, 3, n)] * 2)
            tau = float(rng.uniform(0.5, 4.0))
            if n == 1:
                assert rnc_loss(Tensor(reps), labels, tau).item() == 0.0
                continue
            got = rnc_loss(Tensor(reps), labels, tau).item()
            want = rnc_oracle(reps, labels, tau)
            assert abs(got - want) < 1e-10, f"n={n}"


def test_rnc_with_label_ties(rng):
    # duplicated labels exercise the >= tie rule in the candidate sets
    labels = np.array([1.0, 1.0, -2.0, 1.0, 1.0, -2.0])
    reps = rng.normal(size=(6, 3))
    got = rnc_loss(Tensor(reps), labels, 2.0).item()
    want = rnc_oracle(reps, labels, 2.0)
    assert abs(got - want) < 1e-10


def test_rnc_matches_oracle_with_large_tie_groups(rng):
    # labels on a 3-value grid put many samples at one label distance; all-equal
    # labels make every candidate set the whole batch minus the anchor
    for n in (2, 3, 5, 8, 16, 32):
        grid = rng.choice([-1.5, 0.0, 2.0], n)
        for labels in (np.concatenate([grid] * 2), np.full(2 * n, 0.7)):
            reps = rng.normal(size=(2 * n, 3))
            tau = float(rng.uniform(0.5, 4.0))
            got = rnc_loss(Tensor(reps), labels, tau).item()
            want = rnc_oracle(reps, labels, tau)
            assert abs(got - want) < 1e-10, f"2N={2 * n}, labels={labels}"


def test_rnc_with_identical_representations(rng):
    # exact representation ties: distances are 0; loss must stay finite
    labels = np.array([0.5, -0.5, 0.5, -0.5])
    reps = np.tile(rng.normal(size=(1, 3)), (4, 1))
    got = rnc_loss(Tensor(reps), labels, 1.0).item()
    want = rnc_oracle(reps, labels, 1.0)
    assert np.isfinite(got)
    assert abs(got - want) < 1e-10


def test_rnc_matches_oracle_for_close_rows_at_large_norm(rng):
    # four rows within 1e-6 of each other at norm 1e3: the Gram form
    # |a|^2 + |b|^2 - 2 a.b of their distances loses every digit
    a = rng.normal(size=(1, 4))
    a *= 1e3 / np.linalg.norm(a)
    steps = rng.normal(size=(4, 4))
    steps *= 1e-6 / np.linalg.norm(steps, axis=1, keepdims=True)
    reps = a + steps
    labels = np.array([0.3, -1.0, 0.3, -1.0])
    got = rnc_loss(Tensor(reps), labels, 2.0).item()
    assert abs(got - rnc_oracle(reps, labels, 2.0)) < 1e-10


@pytest.mark.parametrize("sep", [800.0, 1400.0])
def test_rnc_gradient_finite_far_apart(sep):
    # pairs ~sep apart at tau = 2: exp(-d / tau) is still nonzero (up to
    # ~745 * tau), but the square of a denominator underflows from ~354 * tau
    reps = np.array([[0.0], [sep], [0.5], [sep + 0.5]])
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    x = Tensor(reps, requires_grad=True)
    loss = rnc_loss(x, labels, 2.0)
    assert abs(loss.item() - rnc_oracle(reps, labels, 2.0)) < 1e-10
    grad = backward(loss).get(x)
    assert np.all(np.isfinite(grad))
    assert grad_check(lambda p: rnc_loss(p[0], labels, 2.0), [Tensor(reps)]) < 1e-5


def test_rnc_single_pair_is_exactly_zero(rng):
    reps = rng.normal(size=(2, 5))
    labels = np.array([1.2, 1.2])
    assert rnc_loss(Tensor(reps), labels, 2.0).item() == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
def test_rnc_permutation_invariance(seed, n):
    rng = np.random.default_rng(seed)
    reps = rng.normal(size=(2 * n, 3))
    labels = rng.uniform(-3, 3, 2 * n)
    perm = rng.permutation(2 * n)
    a = rnc_loss(Tensor(reps), labels, 2.0).item()
    b = rnc_loss(Tensor(reps[perm]), labels[perm], 2.0).item()
    assert abs(a - b) < 1e-10


def test_rnc_gradient_check(rng):
    labels = rng.uniform(-3, 3, 6)

    def f(p):
        return rnc_loss(p[0], labels, 2.0)

    assert grad_check(f, [Tensor(rng.normal(size=(6, 3)))]) < 1e-5


def test_rnc_validation(rng):
    with pytest.raises(ValueError, match=r"need \[n, D\] with n >= 2"):
        rnc_loss(Tensor(rng.normal(size=(4,))), np.ones(4), 1.0)
    with pytest.raises(ValueError, match=r"need \[n, D\] with n >= 2"):
        rnc_loss(Tensor(rng.normal(size=(1, 3))), np.ones(1), 1.0)
    with pytest.raises(ValueError, match="labels shape"):
        rnc_loss(Tensor(rng.normal(size=(4, 3))), np.ones(3), 1.0)
    with pytest.raises(ValueError, match="temperature"):
        rnc_loss(Tensor(rng.normal(size=(4, 3))), np.ones(4), -1.0)
    with pytest.raises(ValueError, match="temperature"):
        rnc_loss(Tensor(rng.normal(size=(4, 3))), np.ones(4), float("nan"))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            rnc_loss(Tensor(rng.normal(size=(4, 3))), np.array([0.5, bad, 0.5, bad]), 1.0)
    # the oracle applies the same checks
    with pytest.raises(ValueError, match="tau"):
        rnc_oracle(rng.normal(size=(4, 3)), np.ones(4), float("nan"))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            rnc_oracle(rng.normal(size=(4, 3)), np.array([0.0, bad, 0.0, bad]), 1.0)


def test_rnc_oracle_guards():
    with pytest.raises(ValueError):
        rnc_oracle(np.ones((1, 2)), np.ones(1), 1.0)
    with pytest.raises(ValueError):
        rnc_oracle(np.ones((4, 2)), np.ones(4), 0.0)


# -- total loss and report ---------------------------------------------------------------------


def test_total_loss_weighted_sum(rng):
    w = LossWeights(alpha=0.3, beta=0.7, gamma=0.2, delta=0.05)
    terms = [Tensor(np.array(v)) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    total = total_loss(dict(zip(LOSS_TERMS, terms)), w)
    expected = 1.0 + 0.3 * 2.0 + 0.7 * 3.0 + 0.2 * 4.0 + 0.05 * 5.0
    assert total.item() == pytest.approx(expected, abs=1e-14)


def test_total_loss_none_terms_contribute_zero():
    w = LossWeights(alpha=100.0, beta=100.0, gamma=100.0, delta=100.0)
    total = total_loss({"task": Tensor(np.array(1.5))}, w)
    assert total.item() == 1.5


def test_report_weighted_sum_identity(rng):
    w = LossWeights(alpha=0.3, beta=0.3, gamma=1.0, delta=0.1)
    vals = rng.uniform(0, 2, 5)
    terms = dict(zip(LOSS_TERMS, (Tensor(np.array(v)) for v in vals)))
    rep = make_report(terms, total_loss(terms, w))
    recomputed = rep.task + w.alpha * rep.mkd1 + w.beta * rep.mkd2 + w.gamma * rep.rs + w.delta * rep.rnc
    assert abs(rep.total - recomputed) < 1e-12
    assert rep.as_row() == [rep.task, rep.mkd1, rep.mkd2, rep.rs, rep.rnc, rep.total]
    assert tuple(f.name for f in fields(LossReport)) == LOSS_TERMS


def test_weighted_terms_list_every_report_term_in_order():
    """A term added to LossReport but not to WEIGHTED_TERMS would drop out of
    the total silently; here it fails instead."""
    assert [name for name, _ in WEIGHTED_TERMS] == [f.name for f in fields(LossReport) if f.name != "total"]
    assert [name for name, _ in WEIGHTED_TERMS] == [name for name in LOSS_TERMS if name != "total"]
    assert WEIGHTED_TERMS[0] == ("task", None)
    weight_fields = {f.name for f in fields(LossWeights)}
    assert all(field in weight_fields for _, field in WEIGHTED_TERMS[1:])


def test_report_ablated_terms_read_zero():
    task, rs = Tensor(np.array(2.0)), Tensor(np.array(0.5))
    terms = {"task": task, "rs": rs}
    rep = make_report(terms, total_loss(terms, LossWeights()))
    assert rep.mkd1 == 0.0 and rep.mkd2 == 0.0 and rep.rnc == 0.0
    assert rep.total == pytest.approx(2.0 + LossWeights().gamma * 0.5, abs=1e-15)
    assert isinstance(rep, LossReport)
