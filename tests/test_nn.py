import numpy as np
import pytest

from modalflow.nn import (
    INIT_STD,
    AdamState,
    AffineLayer,
    ParamStore,
    adam_step,
    gaussian_leaf,
    init_affine,
    zeros_leaf,
)
from modalflow.tensor import Tensor, backward, grad_check


# -- initialization -------------------------------------------------------------------


def test_init_deterministic_per_seed():
    a = gaussian_leaf(np.random.default_rng(7), (5, 5))
    b = gaussian_leaf(np.random.default_rng(7), (5, 5))
    c = gaussian_leaf(np.random.default_rng(8), (5, 5))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_init_statistics_within_five_sigma():
    w = gaussian_leaf(np.random.default_rng(0), (100, 100)).values
    n = w.size
    # sample mean ~ N(0, std/sqrt(n)); sample std has sd ~ std/sqrt(2n)
    assert abs(w.mean()) < 5 * INIT_STD / np.sqrt(n)
    assert abs(w.std(ddof=1) - INIT_STD) < 5 * INIT_STD / np.sqrt(2 * n)


def test_init_affine_zero_bias_and_registration():
    store = ParamStore()
    layer = init_affine(np.random.default_rng(0), store, "lin", 4, 3)
    assert np.array_equal(layer.b.values, np.zeros(3))
    assert set(store) == {"lin.W", "lin.b"}
    assert store["lin.W"] is layer.W


def test_store_rejects_duplicates_and_constants():
    store = ParamStore()
    store.register("w", gaussian_leaf(np.random.default_rng(0), (2,)))
    with pytest.raises(ValueError, match="duplicate"):
        store.register("w", gaussian_leaf(np.random.default_rng(0), (2,)))
    with pytest.raises(ValueError, match="requires_grad"):
        store.register("c", Tensor(np.ones(2)))


def test_store_snapshot_and_load_roundtrip():
    store = ParamStore()
    store.register("w", gaussian_leaf(np.random.default_rng(3), (2, 2)))
    snap = store.snapshot()
    store["w"].values = store["w"].values * 0.0
    store.load_values(snap)
    assert np.array_equal(store["w"].values, snap["w"])
    with pytest.raises(ValueError, match="shape"):
        store.load_values({"w": np.zeros(5)})


def test_zeros_leaf_rejects_bad_shape():
    with pytest.raises(ValueError):
        zeros_leaf((0, 3))


# -- layers ------------------------------------------------------------------------------


def test_affine_matches_numpy(rng):
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    x = rng.normal(size=(5, 4))
    layer = AffineLayer(Tensor(W), Tensor(b))
    assert np.max(np.abs(layer(Tensor(x)).values - (x @ W + b))) < 1e-14


def test_affine_shape_validation():
    with pytest.raises(ValueError, match="affine"):
        AffineLayer(Tensor(np.ones((4, 3))), Tensor(np.ones(4)))


# -- adam ---------------------------------------------------------------------------------


def _single_param_store(value):
    store = ParamStore()
    store.register("w", Tensor(np.asarray(value, dtype=np.float64), requires_grad=True))
    return store


def test_adam_zero_gradient_leaves_params_unchanged():
    store = _single_param_store([1.0, -2.0])
    before = store.snapshot()
    adam_step(AdamState(), store, {"w": np.zeros(2)})
    assert np.array_equal(store["w"].values, before["w"])


def test_adam_first_step_magnitude_is_lr():
    # with bias correction the first update is exactly lr * sign(g) (eps aside)
    store = _single_param_store([0.0, 0.0])
    adam_step(AdamState(lr=1e-3), store, {"w": np.array([1.0, -4.0])})
    assert np.allclose(np.abs(store["w"].values), 1e-3, rtol=1e-6)
    assert store["w"].values[0] < 0 < store["w"].values[1]


def test_adam_update_magnitude_bounded_by_lr():
    store = _single_param_store(np.zeros(4))
    state = AdamState(lr=0.01)
    rng = np.random.default_rng(0)
    for _ in range(50):
        before = store["w"].values.copy()
        adam_step(state, store, {"w": rng.normal(size=4) * 100.0})
        assert np.max(np.abs(store["w"].values - before)) <= 0.01 * 1.2


def test_adam_converges_on_quadratic():
    store = _single_param_store([0.0])
    state = AdamState(lr=0.05)
    for _ in range(400):
        w = store["w"]
        loss = (w - Tensor(np.array([3.0]))).square().sum()
        adam_step(state, store, backward(loss))
    assert abs(store["w"].values[0] - 3.0) < 1e-2


def test_adam_missing_grad_means_zero():
    store = ParamStore()
    store.register("a", Tensor(np.ones(2), requires_grad=True))
    store.register("b", Tensor(np.ones(2), requires_grad=True))
    adam_step(AdamState(), store, {"a": np.ones(2)})
    assert np.array_equal(store["b"].values, np.ones(2))
    assert not np.array_equal(store["a"].values, np.ones(2))


def test_adam_rejects_non_finite_gradient_before_mutation():
    store = _single_param_store([1.0])
    state = AdamState()
    with pytest.raises(FloatingPointError, match="'w'"):
        adam_step(state, store, {"w": np.array([np.nan])})
    assert store["w"].values[0] == 1.0
    assert state.step == 0


def test_adam_state_snapshot_roundtrip():
    store = _single_param_store([0.0])
    state = AdamState(lr=0.01)
    adam_step(state, store, {"w": np.array([1.0])})
    snap = state.snapshot()
    adam_step(state, store, {"w": np.array([1.0])})
    state.load(snap)
    assert state.step == 1
    assert np.array_equal(state.m["w"], snap["m"]["w"])
