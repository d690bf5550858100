import numpy as np
import pytest

from modalflow.fusion import INIT_STD, ModelConfig, init_model
from modalflow.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    ParamStore,
    adam_step,
)
from modalflow.tensor import GradMap, ShapeError, Tensor, affine, backward


# -- initialization and the store ----------------------------------------------------


def test_init_deterministic_per_seed():
    cfg, dims = ModelConfig(dim=5, mia_hidden=2), {"a": 5, "v": 3, "t": 4}
    a, b, c = (init_model(cfg, dims, seed=seed) for seed in (7, 7, 8))
    assert np.array_equal(a.flat, b.flat)
    assert not np.array_equal(a.flat, c.flat)


def test_init_statistics_within_five_sigma():
    # the first parameter drawn is proj.a.W, [raw_dim, dim]
    store = init_model(ModelConfig(dim=100, mia_hidden=2), {"a": 100, "v": 2, "t": 2}, seed=0)
    w = store["proj.a.W"].values
    n = w.size
    # sample mean ~ N(0, std/sqrt(n)); sample std has sd ~ std/sqrt(2n)
    assert abs(w.mean()) < 5 * INIT_STD / np.sqrt(n)
    assert abs(w.std(ddof=1) - INIT_STD) < 5 * INIT_STD / np.sqrt(2 * n)


def test_init_model_rejects_a_non_positive_dimension():
    # a dataset file may hold [n, S, 0] features: no zero-width projection
    with pytest.raises(ValueError, match=r"non-positive dimension in \(0, 4\)"):
        init_model(ModelConfig(dim=4, mia_hidden=2), {"a": 3, "v": 0, "t": 3}, seed=0)


def test_store_lays_parameters_end_to_end_as_views():
    arrays = {"W": np.arange(6.0).reshape(2, 3), "b": np.array([6.0, 7.0])}
    store = ParamStore(arrays)
    assert np.array_equal(store.flat, np.arange(8.0))
    assert store["W"].requires_grad and store["b"].requires_grad
    assert store["W"].shape == (2, 3) and store["b"].shape == (2,)
    store.flat[6] = -1.0
    assert store["b"].values[0] == -1.0
    arrays["W"][0, 0] = 99.0  # the store holds its own copy
    assert store["W"].values[0, 0] == 0.0


def test_store_snapshot_copies_values():
    store = ParamStore({"w": np.random.default_rng(3).normal(size=(2, 2))})
    snap = store.snapshot()
    expected = store["w"].values.copy()
    store["w"].values[:] = 0.0
    assert np.array_equal(snap["w"], expected)


# -- the affine primitive every model layer calls -----------------------------------------


def test_affine_matches_numpy(rng):
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    x = rng.normal(size=(5, 4))
    assert np.max(np.abs(affine(Tensor(x), Tensor(W), Tensor(b)).values - (x @ W + b))) < 1e-14


def test_affine_shape_validation():
    with pytest.raises(ShapeError, match="affine"):
        affine(Tensor(np.ones((5, 4))), Tensor(np.ones((4, 3))), Tensor(np.ones(4)))


# -- adam ---------------------------------------------------------------------------------


def _single_param_store(value):
    return ParamStore({"w": np.asarray(value, dtype=np.float64)})


def _grads(store, **named):
    """A GradMap as `backward` returns it, from gradients by parameter name."""
    return GradMap({store[name]: np.asarray(g, dtype=np.float64) for name, g in named.items()})


def test_adam_zero_gradient_leaves_params_unchanged():
    store = _single_param_store([1.0, -2.0])
    before = store.snapshot()
    adam_step(AdamState(), store, _grads(store, w=np.zeros(2)))
    assert np.array_equal(store["w"].values, before["w"])


def test_adam_first_step_magnitude_is_lr():
    # with bias correction the first update is exactly lr * sign(g) (eps aside)
    store = _single_param_store([0.0, 0.0])
    adam_step(AdamState(lr=1e-3), store, _grads(store, w=[1.0, -4.0]))
    assert np.allclose(np.abs(store["w"].values), 1e-3, rtol=1e-6)
    assert store["w"].values[0] < 0 < store["w"].values[1]


def test_adam_update_magnitude_bounded_by_lr():
    store = _single_param_store(np.zeros(4))
    state = AdamState(lr=0.01)
    rng = np.random.default_rng(0)
    for _ in range(50):
        before = store["w"].values.copy()
        adam_step(state, store, _grads(store, w=rng.normal(size=4) * 100.0))
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
    store = ParamStore({"a": np.ones(2), "b": np.ones(2)})
    adam_step(AdamState(), store, _grads(store, a=np.ones(2)))
    assert np.array_equal(store["b"].values, np.ones(2))
    assert not np.array_equal(store["a"].values, np.ones(2))


def test_adam_rejects_non_finite_gradient_before_mutation():
    store = _single_param_store([1.0])
    state = AdamState()
    with pytest.raises(FloatingPointError, match="'w'"):
        adam_step(state, store, _grads(store, w=[np.nan]))
    assert store["w"].values[0] == 1.0
    assert state.step == 0


def test_adam_rejects_wrong_shape_gradient_before_mutation():
    store = _single_param_store(np.zeros(4))
    state = AdamState()
    with pytest.raises(ValueError, match="'w'"):
        adam_step(state, store, _grads(store, w=[1.0]))
    assert np.array_equal(store["w"].values, np.zeros(4))
    assert state.step == 0 and state.m is None


def test_adam_rejects_state_of_another_store_before_mutation():
    state = AdamState()
    first = _single_param_store(np.zeros(3))
    adam_step(state, first, _grads(first, w=np.ones(3)))
    store = _single_param_store(np.zeros(4))
    m = state.m.copy()
    with pytest.raises(ValueError, match="moments for 3 values, the store has 4"):
        adam_step(state, store, _grads(store, w=np.ones(4)))
    assert np.array_equal(store["w"].values, np.zeros(4))
    assert state.step == 1 and np.array_equal(state.m, m)


def _reference_adam_step(lr, step, moments, values, grads):
    """Per-parameter Adam loop over name -> array dicts, the form the flat
    update must reproduce bit for bit."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    m_all, v_all = moments
    for name, value in values.items():
        g = grads.get(name, np.zeros(value.shape))
        m = m_all.get(name, np.zeros(value.shape))
        v = v_all.get(name, np.zeros(value.shape))
        m_all[name] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v_all[name] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        update = lr * (m_all[name] / bc1) / (np.sqrt(v_all[name] / bc2) + ADAM_EPS)
        values[name] = value - update


def test_adam_flat_update_matches_per_parameter_loop(rng):
    shapes = {"W": (4, 3), "b": (3,), "q": (1, 3), "skipped": (2, 2)}
    initial = {name: np.random.default_rng(5).normal(size=shape) for name, shape in shapes.items()}
    store, reference = ParamStore(initial), dict(initial)
    state, ref_moments = AdamState(lr=0.01), ({}, {})
    for step in range(1, 6):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items() if name != "skipped"}
        adam_step(state, store, _grads(store, **grads))
        _reference_adam_step(0.01, step, ref_moments, reference, grads)
    assert state.step == 5
    for name in shapes:
        assert np.array_equal(store[name].values, reference[name]), name
    # the flat moments are the per-name ones laid end to end in store order, "skipped"'s zeros included
    for flat, ref in zip((state.m, state.v), ref_moments):
        assert flat.shape == (sum(int(np.prod(shape)) for shape in shapes.values()),)
        assert np.array_equal(flat, np.concatenate([ref[name].ravel() for name in shapes]))
    assert not state.m[-4:].any() and not state.v[-4:].any()
    assert np.array_equal(store["skipped"].values, np.random.default_rng(5).normal(size=(2, 2)))
