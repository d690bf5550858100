import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from builders import (
    assert_fused_matches_composed,
    composed_cross_attention,
    composed_imagine,
    composed_mse,
    composed_rmse_halves,
    composed_subset_sum,
    composed_weighted_sum,
)
from modalflow.tensor import (
    _RNC_NEAR,
    DomainError,
    ShapeError,
    Tensor,
    _row_distances,
    affine,
    ancestors,
    attend,
    backward,
    concat,
    cross_attention,
    grad_check,
    imagine,
    mse,
    narrow,
    rank_contrast,
    rmse_halves,
    softmax,
    subset_sum,
    weighted_sum,
)

finite_arrays = arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(1, 4)),
    elements=st.floats(-5, 5, allow_nan=False),
)


def naive_attend(q, k, v, tau):
    """Per-row loop oracle for softmax(q k^T / tau) v on plain 2-D arrays."""
    out = np.zeros((len(q), v.shape[1]))
    for i, row in enumerate(q):
        scores = [sum(row[l] * key[l] for l in range(len(row))) / tau for key in k]
        weights = [np.exp(s - max(scores)) for s in scores]
        for w, value in zip(weights, v):
            out[i] += w / sum(weights) * value
    return out


# -- forward oracles ----------------------------------------------------------------


@pytest.mark.parametrize(
    "q_shape, kv_shape",
    [
        ((4, 5), (6, 5)),
        ((3, 4, 5), (3, 6, 5)),
        # stage 1: one [1, D] query row against each sample's sequence
        ((1, 5), (3, 6, 5)),
        # two flows share the keys and values: query row f * 3 + i reads row i
        ((6, 4, 5), (3, 6, 5)),
    ],
    ids=["2d", "batched", "stage1", "shared"],
)
def test_attend_matches_naive_loop(rng, q_shape, kv_shape):
    q, k = rng.normal(size=q_shape), rng.normal(size=kv_shape)
    v = rng.normal(size=kv_shape[:-1] + (3,))
    got = attend(Tensor(q), Tensor(k), Tensor(v), 1.7).values
    if got.ndim == 2:
        want = naive_attend(q, k, v, 1.7)
    else:
        n = len(k)
        want = np.stack([naive_attend(q[i] if q.ndim == 3 else q, k[i % n], v[i % n], 1.7) for i in range(len(got))])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_softmax_uniform_on_constant_rows():
    out = softmax(Tensor(np.zeros((2, 3)))).values
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_rows_sum_to_one_and_positive(rng):
    x = rng.normal(scale=50, size=(5, 7))
    out = softmax(Tensor(x)).values
    assert np.all(out > 0)
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(x=finite_arrays, shift=st.floats(-100, 100, allow_nan=False))
def test_softmax_shift_invariance(x, shift):
    a = softmax(Tensor(x)).values
    b = softmax(Tensor(x + shift)).values
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_temperature_flattens(rng):
    # attend's softmax over the scores q k^T; an identity V reads its weights
    q, k = rng.normal(size=(1, 3)), rng.normal(size=(4, 3))
    sharp = attend(Tensor(q), Tensor(k), np.eye(4), 0.1).values
    flat = attend(Tensor(q), Tensor(k), np.eye(4), 10.0).values
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
        lambda: attend(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones((4, 2))), 1.0),
        lambda: attend(Tensor(np.ones(3)), Tensor(np.ones((4, 3))), Tensor(np.ones((4, 3))), 1.0),
        lambda: Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5))),
        lambda: attend(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))), Tensor(np.ones((5, 3))), 1.0),
        lambda: Tensor(np.ones(6)).reshape((4, 2)),
        lambda: narrow(Tensor(np.ones((2, 3))), 1, 2, 5),
        lambda: concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1),
        lambda: attend(Tensor(np.ones((5, 2, 3))), Tensor(np.ones((2, 4, 3))), Tensor(np.ones((2, 4, 3))), 1.0),
        lambda: rank_contrast(Tensor(np.ones((2, 3))), np.zeros(3), 1.0),
        lambda: rank_contrast(Tensor(np.ones(3)), np.zeros(3), 1.0),
        lambda: rank_contrast(Tensor(np.ones((1, 3))), np.zeros(1), 1.0),
        lambda: affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2))),
        lambda: affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2)))),
        lambda: affine(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3, 2))), Tensor(np.ones(2))),
        # E's last axis is not Wv's input size; 5 query rows against 2 key rows
        lambda: cross_attention(*[Tensor(np.ones(s)) for s in ((1, 3), (2, 3, 2), (3, 3), (3,), (3, 3), (3,))], 1.0),
        lambda: cross_attention(*[Tensor(np.ones(s)) for s in ((5, 1, 3), (2, 3, 2), (2, 3), (3,), (3, 3), (3,))], 1.0),
        # two weights for three tensors; an index past the tensors
        lambda: subset_sum(Tensor(np.ones((2, 1, 2))), [Tensor(np.ones((2, 1, 3)))] * 3, VIEWS),
        lambda: subset_sum(Tensor(np.ones((2, 1, 3))), [Tensor(np.ones((2, 1, 3)))] * 3, ((0, 3),)),
        # 3 context rows for 6 text rows gated from row 2; a gate past the last row
        lambda: imagine(*_imagine_point(np.random.default_rng(0), 3, 6, q=1, d=2), gate_from=2),
        lambda: imagine(*_imagine_point(np.random.default_rng(0), 2, 2, q=1, d=2), gate_from=2),
        lambda: rmse_halves(Tensor(np.ones((3, 2)))),
        lambda: mse(Tensor(np.ones(3)), Tensor(np.ones(4))),
        lambda: weighted_sum([Tensor(np.ones(2)), Tensor(np.ones(3))], (1.0, 1.0)),
    ],
)
def test_shape_errors(build):
    with pytest.raises(ShapeError):
        build()


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        Tensor(np.array([-0.1])).sqrt()


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
def test_attend_rejects_non_positive_temperature(tau):
    with pytest.raises(DomainError):
        attend(Tensor(np.ones((1, 2))), Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))), tau)


def _masked_loop_loss(a, labels, tau):
    """The loss over a mask per anchor: candidates k != i with a label
    distance at least the positive's."""
    n = len(a)
    e = np.exp(-np.linalg.norm(a[:, None, :] - a[None, :, :], axis=-1) / tau)
    keys = np.abs(labels[:, None] - labels[None, :])
    total = 0.0
    for i, row in enumerate(keys):
        others = np.arange(n) != i
        for j, key in enumerate(row):
            if j != i:
                total += np.log(e[i, j] / e[i][(row >= key) & others].sum())
    return total * (-1.0 / (n * (n - 1)))


def test_rank_contrast_matches_masked_loop(rng):
    a = _coincident_rows(rng)[0].values
    want = _masked_loop_loss(a, TIED_LABELS, 1.3)
    assert abs(rank_contrast(Tensor(a), TIED_LABELS, 1.3).item() - want) < 1e-12


def test_rank_contrast_matches_masked_loop_across_blocks(rng):
    a, labels = _multi_block_case(rng)
    want = _masked_loop_loss(a.values, labels, 1.3)
    assert abs(rank_contrast(a, labels, 1.3).item() - want) < 1e-12


def test_rank_contrast_memory_below_one_difference_array(rng):
    n, dim = 256, 256
    a = Tensor(rng.normal(size=(n, dim)), requires_grad=True)
    labels = rng.uniform(-3, 3, n)
    tracemalloc.start()
    try:
        backward(rank_contrast(a, labels, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * dim * 8 / 8, f"forward+backward peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "labels, tau",
    [(np.array([0.0, np.nan, 1.0, 1.0]), 1.0), (np.ones(4), 0.0), (np.ones(4), np.nan)],
    ids=["nan_key", "zero_tau", "nan_tau"],
)
def test_rank_contrast_domain_errors(labels, tau):
    # a NaN label makes NaN keys |y_i - y_k| in its row and column
    with pytest.raises(DomainError):
        rank_contrast(Tensor(np.ones((4, 2))), labels, tau)


def test_rank_contrast_underflow_domain_error():
    # at tau = 2, exp(-1600 / 2) is 0 in float64: a numerator and its whole
    # denominator vanish, which the log of their ratio cannot take
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(DomainError, match="underflows"):
        rank_contrast(Tensor(np.array([[0.0], [1600.0], [0.5], [1600.5]])), labels, 2.0)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]]),
        np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]),
        np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]]),
    ],
    ids=["inf_row", "nan_row", "d2_overflows"],
)
def test_rank_contrast_non_finite_distance_domain_error(rows):
    # rows ~1e200 apart are finite, but their squared distance is not
    with pytest.raises(DomainError, match="distance is not finite"):
        rank_contrast(Tensor(rows), np.array([0.0, 1.0, 2.0]), 2.0)


def _distance_case(kind, seed, n, dim):
    """Rows whose pairwise distances the Gram form alone gets wrong."""
    rng = np.random.default_rng(seed)
    if kind == "norms":  # row norms from 1e-6 to 1e6
        return rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
    if kind == "clusters":  # two clusters far apart, each within 1e-6: centring alone fails
        centre = rng.normal(size=dim) * 10.0 ** rng.uniform(0, 6)
        steps = rng.normal(size=(n, dim))
        steps *= 4e-7 / np.linalg.norm(steps, axis=1, keepdims=True)
        return np.where(np.arange(n)[:, None] % 2 == 0, centre, -centre) + steps
    a = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-6, 6)  # coincident rows
    a[rng.integers(0, n, n // 2)] = a[0]
    return a


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["norms", "clusters", "coincident"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    dim=st.integers(1, 6),
)
def test_row_distances_within_the_stated_bound(kind, seed, n, dim):
    a = _distance_case(kind, seed, n, dim)
    d = _row_distances(a)
    want = np.sqrt(((a[:, None, :] - a[None, :, :]) ** 2).sum(axis=-1))
    assert (d == d.T).all() and not np.diag(d).any()
    bound = (dim + 2) * 2.0**-53 / _RNC_NEAR
    assert (np.abs(d - want) <= bound * want).all(), np.max(np.abs(d - want) / np.where(want > 0, want, 1))


@pytest.mark.parametrize(
    "labels",
    [np.random.default_rng(3).integers(-9, 10, 256) / 3, np.full(256, 1 / 3)],
    ids=["third_grid", "all_equal"],
)
def test_rank_contrast_matches_masked_loop_for_coarse_labels(rng, labels):
    # a MOSEI-like grid of at most 19 values, and one label (m = 1)
    a = rng.normal(size=(256, 4))
    want = _masked_loop_loss(a, labels, 1.3)
    assert abs(rank_contrast(Tensor(a), labels, 1.3).item() - want) < 1e-12


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
        loss = (affine(ta, tb, np.zeros(2)).tanh().square()).sum()
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


# label distances |y_i - y_k| with tie groups of two and three and an
# all-equal row: row 0 is 1 everywhere, row 1 ties its two label-1 peers at 0,
# row 2 ties three columns at 2, and label 0's plan ties labels -1 and 1
TIED_LABELS = np.array([0.0, 1.0, -1.0, 1.0, 1.0])


# distinct label distances in every row: no tie groups
DISTINCT_LABELS = np.array([0.0, 1.0, 3.0, 7.0, 15.0])


def _coincident_rows(rng):
    """Five points in 3-D whose rows 0 and 2 coincide."""
    a = rng.normal(size=(5, 3))
    a[2] = a[0]
    return [Tensor(a)]


def _multi_block_case(rng):
    """19 points in 3-D with labels on a 3-value grid, so each label holds
    several rows and rank_contrast sums them over more than one pairwise
    pass. Rows 1 and 17, and rows 3 and 9, coincide."""
    n = 19
    a = rng.normal(size=(n, 3))
    a[17] = a[1]
    a[9] = a[3]
    labels = rng.choice([-1.0, 0.0, 1.5], n)
    return Tensor(a), labels


def _rank_contrast_across_blocks(rng):
    a, labels = _multi_block_case(rng)
    return (lambda p: rank_contrast(p[0], labels, 1.3)), [a]


def _attend_stage(rng, q_shape, kv_shape, vary):
    """attend with the operands named in `vary` (of "qkv") as the checked
    point and the others held constant, so one stage's gradient at a time."""
    operands = dict(zip("qkv", _points(rng, q_shape, kv_shape, kv_shape[:-1] + (2,))))

    def f(p):
        ops = dict(operands, **dict(zip(vary, p)))
        return attend(ops["q"], ops["k"], ops["v"], 1.7).square().sum()

    return f, [operands[c] for c in vary]


# multi-view subsets of three modalities, as fusion.SUBSETS orders them
VIEWS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def _cross_attention_point(rng, q_shape, n, seq=3, din=2, d=3):
    """Q, E [n, seq, din] and the value and key maps' W and b."""
    return _points(rng, q_shape, (n, seq, din), (din, d), (d,), (d, d), (d,))


def _subset_point(rng, rows, n=2, d=3):
    """w [n, rows, 3] and three [n, rows, d] tensors."""
    return _points(rng, (n, rows, 3), *[(n, rows, d)] * 3)


def _imagine_point(rng, ctx_rows, rows, q=2, d=2, hidden=3):
    return _points(rng, (ctx_rows, q, d), (ctx_rows, q, d), (rows, q, d), (3 * d, hidden), (hidden,), (hidden, d), (d,))


def _rmse_detached_case(rng):
    teacher = Tensor(rng.normal(size=(2, 3)))
    return (lambda p: rmse_halves(concat([teacher, p[0]], axis=0), detach_first=True)), _points(rng, (2, 3))


PRIMITIVE_CASES = {
    # attend's stages one at a time under the names of the ops it replaced:
    # the product with V, the product with K^T, the query path over batches,
    # and a 2-D K and V broadcast over Q's batch axis
    "matmul": lambda r: _attend_stage(r, (3, 4), (5, 4), "v"),
    "transpose": lambda r: _attend_stage(r, (3, 4), (5, 4), "k"),
    "matmul_batched": lambda r: _attend_stage(r, (2, 3, 4), (2, 5, 4), "q"),
    "matmul_3d_by_2d": lambda r: _attend_stage(r, (2, 3, 4), (5, 4), "qkv"),
    "attend_stage1": lambda r: _attend_stage(r, (1, 4), (3, 5, 4), "qkv"),
    "attend_shared": lambda r: _attend_stage(r, (4, 3, 4), (2, 5, 4), "qkv"),
    "affine_1d": lambda r: (lambda p: affine(p[0], p[1], p[2]).square().sum(), _points(r, (4,), (4, 2), (2,))),
    "affine_2d": lambda r: (lambda p: affine(p[0], p[1], p[2]).square().sum(), _points(r, (3, 4), (4, 2), (2,))),
    "affine_3d": lambda r: (lambda p: affine(p[0], p[1], p[2]).square().sum(), _points(r, (2, 3, 4), (4, 2), (2,))),
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
    "softmax": lambda r: (lambda p: (softmax(p[0]) * softmax(p[0])).sum(), _points(r, (3, 4))),
    "sum_axis": lambda r: (lambda p: p[0].sum(axis=0).square().sum(), _points(r, (3, 4))),
    "mean_keepdims": lambda r: (lambda p: (p[0] - p[0].mean(axis=1, keepdims=True)).square().sum(), _points(r, (3, 4))),
    # rank_contrast's two stages one at a time, then together: the suffix sums
    # over tie groups (generic rows), the distances at d = 0 (no ties), both
    "suffix_sum": lambda r: (lambda p: rank_contrast(p[0], TIED_LABELS, 1.3), _points(r, (5, 3))),
    "pairwise_dist": lambda r: (lambda p: rank_contrast(p[0], DISTINCT_LABELS, 1.3), _coincident_rows(r)),
    "rank_contrast": lambda r: (lambda p: rank_contrast(p[0], TIED_LABELS, 1.3), _coincident_rows(r)),
    "rank_contrast_blocks": _rank_contrast_across_blocks,
    # the fused blocks, at the layouts the training step uses them in
    "cross_attention": lambda r: (
        lambda p: cross_attention(*p, 1.7).square().sum(), _cross_attention_point(r, (1, 3), 2)
    ),
    "cross_attention_shared": lambda r: (
        lambda p: cross_attention(*p, 1.7).square().sum(), _cross_attention_point(r, (4, 2, 3), 2)
    ),
    "subset_sum": lambda r: (lambda p: subset_sum(p[0], p[1:], VIEWS).square().sum(), _subset_point(r, 1)),
    "subset_sum_mean": lambda r: (
        lambda p: subset_sum(p[0], p[1:], (VIEWS[-1],), mean=True).square().sum(), _subset_point(r, 3)
    ),
    "imagine": lambda r: (lambda p: imagine(*p).square().sum(), _imagine_point(r, 2, 2)),
    "imagine_gated": lambda r: (lambda p: imagine(*p, gate_from=2).square().sum(), _imagine_point(r, 4, 4)),
    "imagine_shared_context": lambda r: (lambda p: imagine(*p, gate_from=2).square().sum(), _imagine_point(r, 2, 4)),
    "rmse_halves": lambda r: (lambda p: rmse_halves(p[0]), _points(r, (4, 3))),
    # the detached half held constant: its AD gradient is zero by design
    "rmse_halves_detached": _rmse_detached_case,
    "mse": lambda r: (lambda p: mse(p[0], p[1]), _points(r, (5,), (5,))),
    "weighted_sum": lambda r: (lambda p: weighted_sum(p, (1.0, 0.3, -2.0)).square(), _points(r, (), (), ())),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # str hash() is salted per process
    for trial in range(3):
        f, point = PRIMITIVE_CASES[name](rng)
        assert grad_check(f, point) < GRAD_TOL, f"{name}, trial {trial}"


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays)
def test_composite_gradient_property(x):
    def f(p):
        return attend(p[0].tanh(), p[0], p[0], 1.3).square().sum()

    assert grad_check(f, [Tensor(x)]) < GRAD_TOL


# -- fused ops against the composed graphs they replace ---------------------------------

FUSED_CASES = {
    # name: (fused op, its composed graph, point builder), both called as f(*point)
    "cross_attention_stage1": (
        lambda *p: cross_attention(*p, 1.7), lambda *p: composed_cross_attention(*p, 1.7),
        lambda r: _cross_attention_point(r, (1, 4), 3, seq=5, din=3, d=4),
    ),
    "cross_attention_shared": (
        lambda *p: cross_attention(*p, 1.7), lambda *p: composed_cross_attention(*p, 1.7),
        lambda r: _cross_attention_point(r, (6, 7, 4), 3, seq=5, din=4, d=4),
    ),
    "cross_attention_2d": (
        lambda *p: cross_attention(*p, 0.9), lambda *p: composed_cross_attention(*p, 0.9),
        lambda r: _points(r, (3, 4), (5, 2), (2, 4), (4,), (4, 4), (4,)),
    ),
    "subset_sum_views": (
        lambda w, *R: subset_sum(w, R, VIEWS), lambda w, *R: composed_subset_sum(w, R, VIEWS),
        lambda r: _subset_point(r, 1, n=4, d=5),
    ),
    "subset_sum_mean": (
        lambda w, *R: subset_sum(w, R, (VIEWS[-1],), mean=True),
        lambda w, *R: composed_subset_sum(w, R, (VIEWS[-1],), mean=True),
        lambda r: _subset_point(r, 7, n=4, d=5),
    ),
    "imagine": (imagine, composed_imagine, lambda r: _imagine_point(r, 3, 3, q=7, d=4)),
    "imagine_gated": (
        lambda *p: imagine(*p, gate_from=3), lambda *p: composed_imagine(*p, gate_from=3),
        lambda r: _imagine_point(r, 6, 6, q=7, d=4),
    ),
    "imagine_shared_context": (
        lambda *p: imagine(*p, gate_from=3), lambda *p: composed_imagine(*p, gate_from=3),
        lambda r: _imagine_point(r, 3, 6, q=1, d=4),
    ),
    "rmse_halves": (rmse_halves, composed_rmse_halves, lambda r: _points(r, (6, 7, 4))),
    "rmse_halves_detached": (
        lambda x: rmse_halves(x, detach_first=True), lambda x: composed_rmse_halves(x, detach_first=True),
        lambda r: _points(r, (6, 1, 4)),
    ),
    "mse": (mse, composed_mse, lambda r: _points(r, (8,), (8,))),
    "weighted_sum": (
        lambda *p: weighted_sum(p, (1.0, 0.3, 0.3, 1.0, 0.1)),
        lambda *p: composed_weighted_sum(p, (1.0, 0.3, 0.3, 1.0, 0.1)),
        lambda r: _points(r, (), (), (), (), ()),
    ),
}


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_fused_op_matches_composed_graph(name):
    fused, composed, build = FUSED_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(3):
        assert_fused_matches_composed(lambda p: fused(*p), lambda p: composed(*p), build(rng), rng)


def test_grad_check_rejects_bad_h():
    with pytest.raises(ValueError):
        grad_check(lambda p: p[0].sum(), [Tensor(np.ones(2))], h=0.0)
