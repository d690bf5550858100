import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modalflow.tensor import (
    DomainError,
    ShapeError,
    Tensor,
    ancestors,
    backward,
    concat,
    grad_check,
    matmul,
    narrow,
    rank_contrast,
    softmax,
    transpose,
)

finite_arrays = arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(1, 4)),
    elements=st.floats(-5, 5, allow_nan=False),
)


def naive_matmul(a, b):
    """Triple-loop oracle over the last two axes of plain 2-D arrays."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


# -- forward oracles ----------------------------------------------------------------


def test_matmul_matches_naive_loop(rng):
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    got = matmul(Tensor(a), Tensor(b)).values
    assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-12


def test_matmul_batched_broadcast(rng):
    a = rng.normal(size=(6, 4, 5))
    b = rng.normal(size=(5, 3))
    got = matmul(Tensor(a), Tensor(b)).values
    for i in range(6):
        assert np.max(np.abs(got[i] - naive_matmul(a[i], b))) < 1e-12


def test_softmax_uniform_on_constant_rows():
    out = softmax(Tensor(np.zeros((2, 3)))).values
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_rows_sum_to_one_and_positive(rng):
    x = rng.normal(scale=50, size=(5, 7))
    out = softmax(Tensor(x), axis=-1).values
    assert np.all(out > 0)
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(x=finite_arrays, shift=st.floats(-100, 100, allow_nan=False))
def test_softmax_shift_invariance(x, shift):
    a = softmax(Tensor(x)).values
    b = softmax(Tensor(x + shift)).values
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_temperature_flattens(rng):
    x = rng.normal(size=(4,)).reshape(1, 4)
    sharp = softmax(Tensor(x), tau=0.1).values
    flat = softmax(Tensor(x), tau=10.0).values
    assert sharp.max() > flat.max()


def test_softmax_extreme_values_stay_finite():
    out = softmax(Tensor(np.array([[1e4, -1e4, 0.0]]))).values
    assert np.all(np.isfinite(out))
    assert abs(out.sum() - 1.0) < 1e-12


# -- backward trivials --------------------------------------------------------------


def test_sum_backward_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    grads = backward(x.sum())
    assert np.array_equal(grads.get(x), np.ones((2, 3)))


def test_elementwise_square_sum_gradient():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    grads = backward((x * x).sum())
    assert np.allclose(grads.get(x), [2.0, 4.0, 6.0], atol=1e-15)


def test_gradient_accumulation_multiple_uses():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = (x * x + x * 3.0).sum()  # d/dx = 2x + 3 = 7
    assert backward(y).get(x)[0] == pytest.approx(7.0, abs=1e-14)


def test_broadcast_add_reduces_bias_gradient(rng):
    x = Tensor(rng.normal(size=(4, 3)))
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    grads = backward((x + b).sum())
    assert np.array_equal(grads.get(b), np.full(3, 4.0))


# -- detach and reachability ----------------------------------------------------------


def test_detach_values_bitwise_identical(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    d = x.detach()
    assert np.array_equal(d.values, x.values)
    assert not d.attached


def test_detach_blocks_gradient_flow(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    y = Tensor(rng.normal(size=(3,)), requires_grad=True)
    loss = (x.detach() * y).sum()
    grads = backward(loss)
    assert np.array_equal(grads.get(x), np.zeros(3))  # unreachable leaf reads zero
    assert x not in grads
    assert np.array_equal(grads.get(y), x.values)


def test_ancestors_excludes_detached_branch():
    x = Tensor(np.ones(2), requires_grad=True)
    y = Tensor(np.ones(2), requires_grad=True)
    loss = (x.detach() * y).sum()
    up = ancestors(loss)
    assert any(node is y for node in up)
    assert not any(node is x for node in up)


# -- error paths ----------------------------------------------------------------------


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(x * 2.0)


def test_backward_rejects_detached_loss():
    with pytest.raises(ValueError, match="detached"):
        backward(Tensor(np.array(1.0)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2)))),
        lambda: matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2)))),
        lambda: Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5))),
        lambda: transpose(Tensor(np.ones((2, 3))), axes=(0, 0)),
        lambda: Tensor(np.ones(6)).reshape((4, 2)),
        lambda: narrow(Tensor(np.ones((2, 3))), 1, 2, 5),
        lambda: concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1),
        lambda: matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 4)))),
        lambda: rank_contrast(Tensor(np.ones((2, 3))), np.zeros((3, 2)), 1.0),
        lambda: rank_contrast(Tensor(np.ones(3)), np.zeros((3, 3)), 1.0),
        lambda: rank_contrast(Tensor(np.ones((1, 3))), np.zeros((1, 1)), 1.0),
    ],
)
def test_shape_errors(build):
    with pytest.raises(ShapeError):
        build()


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        Tensor(np.array([-0.1])).sqrt()


def test_softmax_rejects_non_positive_temperature():
    with pytest.raises(DomainError):
        softmax(Tensor(np.ones((1, 2))), tau=0.0)


def test_rank_contrast_matches_masked_loop(rng):
    a = _coincident_rows(rng)[0].values
    n = len(a)
    e = np.exp(-np.linalg.norm(a[:, None, :] - a[None, :, :], axis=-1) / 1.3)
    want = 0.0
    for i, row in enumerate(TIED_KEYS):
        for j, key in enumerate(row):
            if j != i:
                want += np.log(e[i, j] / e[i][row >= key].sum())
    want *= -1.0 / (n * (n - 1))
    assert abs(rank_contrast(Tensor(a), TIED_KEYS, 1.3).item() - want) < 1e-12


@pytest.mark.parametrize(
    "keys, tau",
    [(np.where(np.eye(4) > 0, np.nan, 1.0), 1.0), (np.ones((4, 4)), 0.0), (np.ones((4, 4)), np.nan)],
    ids=["nan_key", "zero_tau", "nan_tau"],
)
def test_rank_contrast_domain_errors(keys, tau):
    with pytest.raises(DomainError):
        rank_contrast(Tensor(np.ones((4, 2))), keys, tau)


def test_rank_contrast_underflow_domain_error():
    # at tau = 2, exp(-1600 / 2) is 0 in float64: a numerator and its whole
    # denominator vanish, which the log of their ratio cannot take
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    keys = np.abs(labels[:, None] - labels[None, :])
    np.fill_diagonal(keys, -np.inf)
    with pytest.raises(DomainError, match="underflows"):
        rank_contrast(Tensor(np.array([[0.0], [1600.0], [0.5], [1600.5]])), keys, 2.0)


def test_sqrt_subgradient_zero_at_cusp():
    # exact zero under sqrt must not poison the backward pass with inf/nan
    x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    grads = backward(x.sqrt().sum())
    g = grads.get(x)
    assert np.all(np.isfinite(g))
    assert g[1] == pytest.approx(0.25, abs=1e-15)


# -- determinism ------------------------------------------------------------------------


def test_forward_backward_bit_deterministic(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))

    def run():
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        loss = ((ta @ tb).tanh().square()).sum()
        g = backward(loss)
        return loss.item(), g.get(ta).copy(), g.get(tb).copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


# -- gradient checks ---------------------------------------------------------------------

GRAD_TOL = 1e-5


def _points(rng, *shapes, positive=False):
    out = []
    for s in shapes:
        x = rng.normal(size=s)
        if positive:
            x = np.abs(x) + 0.5
        out.append(Tensor(x))
    return out


# the -inf anchor diagonal, tie groups of two and three, and an all-equal row
TIED_KEYS = np.array(
    [
        [-np.inf, 2.0, 0.5, 0.5, 1.0],
        [1.0, -np.inf, 3.0, 1.0, 1.0],
        [2.0, 2.0, -np.inf, 2.0, 2.0],
        [0.5, 1.0, 1.5, -np.inf, 0.0],
        [1.0, 1.0, 0.0, 2.0, -np.inf],
    ]
)


# distinct keys in every row, -inf on the diagonal: no tie groups
DISTINCT_KEYS = np.where(np.eye(5, dtype=bool), -np.inf, (np.arange(5)[None, :] - np.arange(5)[:, None]) % 5)


def _coincident_rows(rng):
    """Five points in 3-D whose rows 0 and 2 coincide."""
    a = rng.normal(size=(5, 3))
    a[2] = a[0]
    return [Tensor(a)]


PRIMITIVE_CASES = {
    "matmul": lambda r: (lambda p: (p[0] @ p[1]).sum(), _points(r, (3, 4), (4, 2))),
    "matmul_batched": lambda r: (lambda p: (p[0] @ p[1]).sum(), _points(r, (2, 3, 4), (4, 2))),
    "matmul_3d_by_2d": lambda r: (lambda p: (p[0] @ p[1]).square().sum(), _points(r, (2, 3, 4), (4, 2))),
    "transpose": lambda r: (lambda p: (p[0].transpose() @ p[0]).sum(), _points(r, (3, 4))),
    "add": lambda r: (lambda p: (p[0] + p[1]).square().sum(), _points(r, (3, 4), (4,))),
    "sub": lambda r: (lambda p: (p[0] - p[1]).square().sum(), _points(r, (3, 4), (3, 4))),
    "mul": lambda r: (lambda p: (p[0] * p[1]).sum(), _points(r, (3, 4), (3, 1))),
    "scale": lambda r: (lambda p: (p[0] * 2.5).square().sum(), _points(r, (3, 4))),
    "concat": lambda r: (lambda p: concat(p, axis=1).square().sum(), _points(r, (2, 3), (2, 2))),
    "slice": lambda r: (lambda p: p[0].narrow(1, 1, 3).square().sum(), _points(r, (3, 4))),
    "reshape": lambda r: (lambda p: p[0].reshape((4, 3)).tanh().sum(), _points(r, (3, 4))),
    "tanh": lambda r: (lambda p: p[0].tanh().sum(), _points(r, (3, 4))),
    "sqrt": lambda r: (lambda p: p[0].sqrt().sum(), _points(r, (3, 4), positive=True)),
    "square": lambda r: (lambda p: p[0].square().sum(), _points(r, (3, 4))),
    "softmax": lambda r: (lambda p: (softmax(p[0], axis=-1, tau=1.7) * softmax(p[0], axis=-1, tau=1.7)).sum(), _points(r, (3, 4))),
    "sum_axis": lambda r: (lambda p: p[0].sum(axis=0).square().sum(), _points(r, (3, 4))),
    "mean_keepdims": lambda r: (lambda p: (p[0] - p[0].mean(axis=1, keepdims=True)).square().sum(), _points(r, (3, 4))),
    # rank_contrast's two stages one at a time, then together: the suffix sums
    # over tie groups (generic rows), the distances at d = 0 (no ties), both
    "suffix_sum": lambda r: (lambda p: rank_contrast(p[0], TIED_KEYS, 1.3), _points(r, (5, 3))),
    "pairwise_dist": lambda r: (lambda p: rank_contrast(p[0], DISTINCT_KEYS, 1.3), _coincident_rows(r)),
    "rank_contrast": lambda r: (lambda p: rank_contrast(p[0], TIED_KEYS, 1.3), _coincident_rows(r)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(3):
        f, point = PRIMITIVE_CASES[name](rng)
        assert grad_check(f, point) < GRAD_TOL, f"{name}, trial {trial}"


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays)
def test_composite_gradient_property(x):
    def f(p):
        return (softmax(p[0].tanh(), axis=-1) @ p[0].transpose()).square().sum()

    assert grad_check(f, [Tensor(x)]) < GRAD_TOL


def test_grad_check_rejects_bad_h():
    with pytest.raises(ValueError):
        grad_check(lambda p: p[0].sum(), [Tensor(np.ones(2))], h=0.0)
