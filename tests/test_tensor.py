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
    pairwise_dist,
    softmax,
    suffix_sum,
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
        lambda: suffix_sum(Tensor(np.ones((2, 3))), np.zeros((3, 2))),
        lambda: pairwise_dist(Tensor(np.ones(3))),
    ],
)
def test_shape_errors(build):
    with pytest.raises(ShapeError):
        build()


def test_log_domain_error():
    with pytest.raises(DomainError):
        Tensor(np.array([1.0, 0.0])).log()


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        Tensor(np.array([-0.1])).sqrt()


def test_softmax_rejects_non_positive_temperature():
    with pytest.raises(DomainError):
        softmax(Tensor(np.ones((1, 2))), tau=0.0)


def test_suffix_sum_matches_masked_loop(rng):
    a = rng.normal(size=TIED_KEYS.shape)
    got = suffix_sum(Tensor(a), TIED_KEYS).values
    for i, row in enumerate(TIED_KEYS):
        for j, key in enumerate(row):
            assert abs(got[i, j] - a[i][row >= key].sum()) < 1e-12


def test_suffix_sum_nan_key_domain_error():
    keys = np.zeros((2, 3))
    keys[1, 1] = np.nan
    with pytest.raises(DomainError):
        suffix_sum(Tensor(np.ones((2, 3))), keys)


def test_pairwise_dist_precise_for_close_rows_at_large_norm(rng):
    # the Gram form |a|^2 + |b|^2 - 2 a.b loses all digits of this distance
    a = rng.normal(size=(1, 4))
    a *= 1e3 / np.linalg.norm(a)
    step = rng.normal(size=(1, 4))
    step *= 1e-6 / np.linalg.norm(step)
    pts = np.concatenate([a, a + step])
    want = np.linalg.norm(pts[1] - pts[0])
    d = pairwise_dist(Tensor(pts)).values
    assert d[0, 0] == 0.0 and d[1, 1] == 0.0
    assert abs(d[0, 1] - want) <= 1e-9 * want
    assert d[1, 0] == d[0, 1]


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


# tie groups of two and three, a -inf key, and an all-equal row
TIED_KEYS = np.array([[0.5, 2.0, 0.5, -np.inf, 1.0], [1.0, 1.0, 3.0, 1.0, 0.0], [2.0, 2.0, 2.0, 2.0, 2.0]])


def _coincident_rows(rng):
    """Four points in 3-D whose rows 0 and 2 coincide, and a weight per pair."""
    a = rng.normal(size=(4, 3))
    a[2] = a[0]
    return [Tensor(a), Tensor(rng.normal(size=(4, 4)))]


PRIMITIVE_CASES = {
    "matmul": lambda r: (lambda p: (p[0] @ p[1]).sum(), _points(r, (3, 4), (4, 2))),
    "matmul_batched": lambda r: (lambda p: (p[0] @ p[1]).sum(), _points(r, (2, 3, 4), (4, 2))),
    "matmul_3d_by_2d": lambda r: (lambda p: (p[0] @ p[1]).square().sum(), _points(r, (2, 3, 4), (4, 2))),
    "transpose": lambda r: (lambda p: (p[0].transpose() @ p[0]).sum(), _points(r, (3, 4))),
    "add": lambda r: (lambda p: (p[0] + p[1]).square().sum(), _points(r, (3, 4), (4,))),
    "sub": lambda r: (lambda p: (p[0] - p[1]).square().sum(), _points(r, (3, 4), (3, 4))),
    "mul": lambda r: (lambda p: (p[0] * p[1]).sum(), _points(r, (3, 4), (3, 1))),
    "div": lambda r: (lambda p: (p[0] / p[1]).sum(), [_points(r, (3, 4))[0], Tensor(np.abs(r.normal(size=(3, 4))) + 1.0)]),
    "scale": lambda r: (lambda p: (p[0] * 2.5).square().sum(), _points(r, (3, 4))),
    "concat": lambda r: (lambda p: concat(p, axis=1).square().sum(), _points(r, (2, 3), (2, 2))),
    "slice": lambda r: (lambda p: p[0].narrow(1, 1, 3).square().sum(), _points(r, (3, 4))),
    "reshape": lambda r: (lambda p: p[0].reshape((4, 3)).tanh().sum(), _points(r, (3, 4))),
    "tanh": lambda r: (lambda p: p[0].tanh().sum(), _points(r, (3, 4))),
    "exp": lambda r: (lambda p: p[0].exp().sum(), _points(r, (3, 4))),
    "log": lambda r: (lambda p: p[0].log().sum(), _points(r, (3, 4), positive=True)),
    "sqrt": lambda r: (lambda p: p[0].sqrt().sum(), _points(r, (3, 4), positive=True)),
    "square": lambda r: (lambda p: p[0].square().sum(), _points(r, (3, 4))),
    "softmax": lambda r: (lambda p: (softmax(p[0], axis=-1, tau=1.7) * softmax(p[0], axis=-1, tau=1.7)).sum(), _points(r, (3, 4))),
    "sum_axis": lambda r: (lambda p: p[0].sum(axis=0).square().sum(), _points(r, (3, 4))),
    "mean_keepdims": lambda r: (lambda p: (p[0] - p[0].mean(axis=1, keepdims=True)).square().sum(), _points(r, (3, 4))),
    "suffix_sum": lambda r: (lambda p: suffix_sum(p[0], TIED_KEYS).square().sum(), _points(r, (3, 5))),
    "pairwise_dist": lambda r: (lambda p: (pairwise_dist(p[0]) * p[1]).sum(), _coincident_rows(r)),
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
