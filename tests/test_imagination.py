import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from builders import make_mia
from modalflow.imagination import MIAParams, mia_forward
from modalflow.fusion import init_model
from modalflow.nn import AdamState, adam_step
from modalflow.tensor import Tensor, backward, grad_check

from builders import tiny_model_config


def test_param_shape_validation():
    with pytest.raises(ValueError, match="W1"):
        MIAParams(
            W1=Tensor(np.zeros((5, 2))), b1=Tensor(np.zeros(2)),
            W2=Tensor(np.zeros((2, 3))), b2=Tensor(np.zeros(3)),
        )
    with pytest.raises(ValueError, match="inconsistent"):
        MIAParams(
            W1=Tensor(np.zeros((9, 2))), b1=Tensor(np.zeros(4)),
            W2=Tensor(np.zeros((2, 3))), b2=Tensor(np.zeros(3)),
        )


def test_zero_weights_pass_input_through_exactly(rng):
    mia = make_mia(rng, dim=3, zero_residual=True)
    R_t = Tensor(rng.normal(size=(2, 7, 3)))
    out = mia_forward(Tensor(rng.normal(size=(2, 7, 3))), Tensor(rng.normal(size=(2, 7, 3))), R_t, mia)
    assert np.array_equal(out.values, R_t.values)


def test_all_zero_inputs_and_params():
    dim, hidden = 3, 2
    mia = MIAParams(
        W1=Tensor(np.zeros((3 * dim, hidden))), b1=Tensor(np.zeros(hidden)),
        W2=Tensor(np.zeros((hidden, dim))), b2=Tensor(np.zeros(dim)),
    )
    z = Tensor(np.zeros((1, dim)))
    assert np.array_equal(mia_forward(z, z, z, mia).values, np.zeros((1, dim)))


def test_scalar_hand_oracle():
    # S' = 1, D = 2, D' = 2, simple integer-ish weights
    W1 = np.arange(12.0).reshape(6, 2) * 0.1
    b1 = np.array([0.1, -0.2])
    W2 = np.array([[0.5, -0.5], [0.25, 0.75]])
    b2 = np.array([0.0, 0.3])
    mia = MIAParams(Tensor(W1), Tensor(b1), Tensor(W2), Tensor(b2))
    R_v = np.array([[1.0, -1.0]])
    R_a = np.array([[0.5, 2.0]])
    R_t = np.array([[-0.3, 0.7]])
    h = np.tanh(np.concatenate([R_v, R_a, R_t], axis=-1) @ W1 + b1)
    expected = R_t + np.tanh(h @ W2 + b2)
    out = mia_forward(Tensor(R_v), Tensor(R_a), Tensor(R_t), mia)
    assert np.max(np.abs(out.values - expected)) < 1e-14


bounded = arrays(np.float64, (2, 3), elements=st.floats(-10, 10, allow_nan=False))


@settings(max_examples=40, deadline=None)
@given(rv=bounded, ra=bounded, rt=bounded)
def test_residual_is_tanh_bounded(rv, ra, rt):
    mia = make_mia(np.random.default_rng(0), dim=3)
    out = mia_forward(Tensor(rv), Tensor(ra), Tensor(rt), mia)
    assert np.max(np.abs(out.values - rt)) <= 1.0


@pytest.mark.parametrize("rows", [1, 7])
def test_row_counts(rng, rows):
    mia = make_mia(rng, dim=3)
    shape = (4, rows, 3)
    out = mia_forward(
        Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape)),
        Tensor(rng.normal(size=shape)), mia,
    )
    assert out.shape == shape


def test_weight_sharing_across_rows(rng):
    # stacking the same row S' times must give S' identical outputs
    mia = make_mia(rng, dim=3)
    row = rng.normal(size=(1, 3))
    stacked = np.tile(row, (7, 1))
    out = mia_forward(Tensor(stacked), Tensor(stacked), Tensor(stacked), mia).values
    assert np.max(np.abs(out - out[0])) == 0.0


def test_input_validation(rng):
    mia = make_mia(rng, dim=3)
    a = Tensor(rng.normal(size=(2, 3)))
    with pytest.raises(ValueError, match="share shape"):
        mia_forward(a, a, Tensor(rng.normal(size=(3, 3))), mia)
    b = Tensor(rng.normal(size=(2, 4)))
    with pytest.raises(ValueError, match="parameter dim"):
        mia_forward(b, b, b, mia)


def test_gradients_reach_all_inputs_and_params(rng):
    mia = make_mia(rng, dim=3, grad=True)
    inputs = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3)]
    out = mia_forward(*inputs, mia)
    grads = backward(out.square().sum())
    for t in inputs + [mia.W1, mia.b1, mia.W2, mia.b2]:
        assert t in grads
        assert np.any(grads.get(t) != 0.0)


def test_gradient_check(rng):
    def f(p):
        mia = MIAParams(p[3], p[4], p[5], p[6])
        return mia_forward(p[0], p[1], p[2], mia).square().sum()

    dim, hidden = 2, 2
    point = [Tensor(rng.normal(size=(2, dim))) for _ in range(3)] + [
        Tensor(rng.normal(size=(3 * dim, hidden))), Tensor(rng.normal(size=hidden)),
        Tensor(rng.normal(size=(hidden, dim))), Tensor(rng.normal(size=dim)),
    ]
    assert grad_check(f, point) < 1e-5


def test_two_instances_are_disjoint(rng):
    """Updating one imagination module never moves the other's weights."""
    cfg = tiny_model_config()
    store = init_model(cfg, seed=0)
    mia1_names = [n for n in store if n.startswith("mia1.")]
    mia2_names = [n for n in store if n.startswith("mia2.")]
    assert len(mia1_names) == len(mia2_names) == 4
    assert not any(store[a] is store[b] for a in mia1_names for b in mia2_names)

    mia1 = MIAParams(store["mia1.W1"], store["mia1.b1"], store["mia1.W2"], store["mia1.b2"])
    x = Tensor(rng.normal(size=(2, cfg.dim)))
    loss = mia_forward(x, x, x, mia1).square().sum()
    before = store.snapshot()
    adam_step(AdamState(), store, backward(loss))
    for name in mia2_names:
        assert np.array_equal(store[name].values, before[name])
    assert any(not np.array_equal(store[n].values, before[n]) for n in mia1_names)
