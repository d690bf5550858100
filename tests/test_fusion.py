from dataclasses import fields

import numpy as np
import pytest

from builders import TINY_RAW_DIMS, TINY_ZERO_RESIDUAL, make_params, tiny_model_config
from modalflow.fusion import (
    MODALITIES,
    SUBSETS,
    FlowOutputs,
    ModelConfig,
    afg_weights,
    cross_attend,
    init_model,
    multiview_queries,
    param_shapes,
    project_modality,
    regress,
    stage2_fuse,
    umca_forward,
)
from modalflow.tensor import ShapeError, Tensor, attend, backward, grad_check, subset_sum


def identity_params(rng, dim, prefixes=("s1.a",), **overrides):
    """make_params with identity key and value maps (W = I, b = 0) under each
    attention prefix."""
    eye = {f"{prefix}.{k}.W": np.eye(dim) for prefix in prefixes for k in ("key", "val")}
    zero = {f"{prefix}.{k}.b": np.zeros(dim) for prefix in prefixes for k in ("key", "val")}
    return make_params(rng, tiny_model_config(dim=dim), TINY_RAW_DIMS, **eye, **zero, **overrides)


def random_inputs(rng, dim=3, batch=2, seq=3):
    return {m: Tensor(rng.normal(size=(batch, seq, dim))) for m in MODALITIES}


# -- configuration -------------------------------------------------------------------


def test_model_config_defaults():
    cfg = ModelConfig()
    assert cfg.dim == 32 and cfg.mia_hidden == 16
    assert cfg.tau_attn == pytest.approx(np.sqrt(32))


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(dim=0)
    with pytest.raises(ValueError):
        ModelConfig(dim=4, mia_hidden=12)
    with pytest.raises(ValueError):
        ModelConfig(tau_attn=-1.0)


def test_init_model_deterministic_and_complete():
    cfg = tiny_model_config()
    a = init_model(cfg, TINY_RAW_DIMS, seed=5)
    b = init_model(cfg, TINY_RAW_DIMS, seed=5)
    c = init_model(cfg, TINY_RAW_DIMS, seed=6)
    assert list(a) == list(b)
    assert {m: a[f"proj.{m}.W"].shape for m in MODALITIES} == {m: (d, cfg.dim) for m, d in TINY_RAW_DIMS.items()}
    assert all(np.array_equal(a[k].values, b[k].values) for k in a)
    assert any(not np.array_equal(a[k].values, c[k].values) for k in a)
    assert a["head.W"].shape == (cfg.dim, 1)
    assert a["mia1.W1"] is not a["mia2.W1"]


def test_init_model_follows_the_shape_table():
    """init_model registers the parameters of param_shapes in its order,
    with those shapes; the biases (the 1-D ones) start at zero."""
    cfg = tiny_model_config()
    store = init_model(cfg, TINY_RAW_DIMS, seed=0)
    shapes = param_shapes(cfg, TINY_RAW_DIMS)
    assert [(name, p.shape) for name, p in store.items()] == list(shapes.items())
    assert len(shapes) == 47
    for name, p in store.items():
        assert p.requires_grad
        assert (not p.values.any()) == (p.ndim == 1), name


# -- projection -----------------------------------------------------------------------


def test_project_modality_shape_and_error(rng):
    p = make_params(rng, tiny_model_config(), {"a": 4, "v": 5, "t": 6})
    out = project_modality(Tensor(rng.normal(size=(2, 7, 4))), "a", p)
    assert out.shape == (2, 7, 3)
    with pytest.raises(ValueError, match="raw dim"):
        project_modality(Tensor(rng.normal(size=(2, 7, 5))), "a", p)


# -- cross attention ---------------------------------------------------------------------


def test_cross_attend_single_row_recovers_value(rng):
    # S = 1: softmax over one key is 1, so R equals the (identity-mapped) value row
    dim = 3
    p = identity_params(rng, dim)
    E = Tensor(rng.normal(size=(1, dim)))
    Q = Tensor(rng.normal(size=(1, dim)))
    out = cross_attend(Q, E, p, "s1.a", tau=1.0)
    assert np.array_equal(out.values, E.values)


def test_cross_attend_identical_values_collapse(rng):
    dim = 3
    p = identity_params(rng, dim)
    row = rng.normal(size=dim)
    E = Tensor(np.tile(row, (4, 1)))
    Q = Tensor(rng.normal(size=(2, dim)))
    out = cross_attend(Q, E, p, "s1.a", tau=1.0)
    assert np.max(np.abs(out.values - row)) < 1e-12


def test_cross_attend_scalar_hand_oracle(rng):
    # q = 1 row, S = 2, D = 2, identity maps: straight-line recomputation
    E = np.array([[1.0, 0.0], [0.0, 2.0]])
    Q = np.array([[1.0, 1.0]])
    tau = 0.7
    K = np.tanh(E)
    scores = (Q @ K.T) / tau
    w = np.exp(scores - scores.max())
    w = w / w.sum()
    expected = w @ E
    got = cross_attend(Tensor(Q), Tensor(E), identity_params(rng, 2), "s1.a", tau=tau)
    assert np.max(np.abs(got.values - expected)) < 1e-12


def test_cross_attend_rows_in_convex_hull_of_values(rng):
    # identity value map: every output row is a convex combination of E's rows
    dim = 4
    p = identity_params(rng, dim)
    E = rng.normal(size=(6, dim))
    out = cross_attend(Tensor(rng.normal(size=(3, dim))), Tensor(E), p, "s1.a", tau=2.0).values
    lo, hi = E.min(axis=0), E.max(axis=0)
    assert np.all(out >= lo - 1e-12)
    assert np.all(out <= hi + 1e-12)


def test_cross_attend_batched_matches_per_sample(rng):
    p = make_params(rng, tiny_model_config(), TINY_RAW_DIMS)
    E = rng.normal(size=(4, 5, 3))
    Q = rng.normal(size=(4, 2, 3))
    batched = cross_attend(Tensor(Q), Tensor(E), p, "s1.a", tau=1.3).values
    for i in range(4):
        single = cross_attend(Tensor(Q[i]), Tensor(E[i]), p, "s1.a", tau=1.3).values
        assert np.max(np.abs(batched[i] - single)) < 1e-12


def test_attention_weights_sum_to_one(rng):
    # internal invariant exposed through an identity V: y @ I is y exactly,
    # so the output rows are the attention weight rows
    Q, K = Tensor(rng.normal(size=(2, 7, 3))), Tensor(rng.normal(size=(2, 5, 3)))
    w = attend(Q, K, np.eye(5), np.sqrt(3)).values
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12


# -- attention-gathering weights -----------------------------------------------------------


def test_afg_uniform_for_zero_map(rng):
    dim = 3
    afg = {"afg1.W": Tensor(np.zeros((3 * dim, 3))), "afg1.b": Tensor(np.zeros(3))}
    R = [Tensor(rng.normal(size=(2, 1, dim))) for _ in range(3)]
    w = afg_weights(*R, afg, "afg1").values
    assert np.allclose(w, 1.0 / 3.0, atol=1e-15)


def test_afg_rows_sum_to_one(rng):
    p = make_params(rng, tiny_model_config(), TINY_RAW_DIMS)
    R = [Tensor(rng.normal(size=(2, 7, 3))) for _ in range(3)]
    w = afg_weights(*R, p, "afg2").values
    assert w.shape == (2, 7, 3)
    assert np.all(w > 0)
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12


@pytest.mark.parametrize(
    "shapes",
    [((1, 1, 3), (1, 1, 3), (1, 2, 3)), ((1, 1, 2), (1, 1, 3), (1, 1, 4))],
    ids=["leading_axis", "last_axes_summing_to_the_gate_input"],
)
def test_afg_shape_mismatch(rng, shapes):
    p = make_params(rng, tiny_model_config(), TINY_RAW_DIMS)  # dim 3: a (9, 3) gate
    with pytest.raises(ShapeError, match="afg: representations must share one shape"):
        afg_weights(*(Tensor(np.zeros(shape)) for shape in shapes), p, "afg1")


# -- multi-view queries -----------------------------------------------------------------------


def test_multiview_rows_are_unrenormalized_weighted_sums(rng):
    dim = 3
    R = {m: Tensor(rng.normal(size=(1, dim))) for m in MODALITIES}
    w = Tensor(rng.normal(size=(1, 3)))
    q = multiview_queries(R, w).values
    assert q.shape == (7, dim)
    wv = w.values[0]
    parts = {m: wv[i] * R[m].values[0] for i, m in enumerate(MODALITIES)}
    for row, subset in zip(q, SUBSETS):
        expected = sum(parts[m] for m in subset)
        assert np.max(np.abs(row - expected)) < 1e-14


def test_multiview_uniform_weights_identity(rng):
    # w = (1/3, 1/3, 1/3) over a shared representation u: rows are u/3, 2u/3, u
    dim = 4
    u = rng.normal(size=(1, dim))
    R = {m: Tensor(u) for m in MODALITIES}
    w = Tensor(np.full((1, 3), 1.0 / 3.0))
    q = multiview_queries(R, w).values
    sizes = [len(s) for s in SUBSETS]
    for row, k in zip(q, sizes):
        assert np.max(np.abs(row - k * u[0] / 3.0)) < 1e-14


def test_multiview_trimodal_row_is_full_sum(rng):
    dim = 3
    R = {m: Tensor(rng.normal(size=(2, 1, dim))) for m in MODALITIES}
    w = Tensor(rng.normal(size=(2, 1, 3)))
    q = multiview_queries(R, w).values
    full = sum(w.values[..., i : i + 1] * R[m].values for i, m in enumerate(MODALITIES))
    assert np.max(np.abs(q[:, 6:7, :] - full)) < 1e-14


# -- stage 2 and regression ---------------------------------------------------------------------


def test_stage2_shapes(rng):
    p = make_params(rng, tiny_model_config(), TINY_RAW_DIMS)
    E = random_inputs(rng, batch=2, seq=4)
    q = Tensor(rng.normal(size=(2, 7, 3)))
    R_seq, r = stage2_fuse(q, E, p, None, 1.0)
    assert all(R_seq[m].shape == (2, 7, 3) for m in MODALITIES)
    assert r.shape == (2, 3)


def test_stage2_scalar_oracle(rng):
    # straight-line numpy recomputation of stage 2 with identity attention maps
    dim = 2
    afg_W = rng.normal(size=(3 * dim, 3))
    afg_b = rng.normal(size=3)
    p = identity_params(rng, dim, [f"s2.{m}" for m in MODALITIES], **{"afg2.W": afg_W, "afg2.b": afg_b})

    E = {m: rng.normal(size=(3, dim)) for m in MODALITIES}
    q = rng.normal(size=(7, dim))

    def np_softmax(x, tau=1.0):
        z = x / tau
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    R = {}
    for m in MODALITIES:
        K = np.tanh(E[m])
        R[m] = np_softmax(q @ K.T) @ E[m]
    w = np_softmax(np.concatenate([R["a"], R["v"], R["t"]], axis=-1) @ afg_W + afg_b)
    fused = sum(w[:, i : i + 1] * R[m] for i, m in enumerate(MODALITIES))
    expected_r = fused.mean(axis=0)

    _, r = stage2_fuse(Tensor(q), {m: Tensor(E[m]) for m in MODALITIES}, p, None, 1.0)
    assert np.max(np.abs(r.values - expected_r)) < 1e-12


def test_regress_is_dot_product(rng):
    dim = 4
    W = rng.normal(size=(dim, 1))
    b = rng.normal(size=1)
    head = {"head.W": Tensor(W), "head.b": Tensor(b)}
    r = rng.normal(size=(5, dim))
    out = regress(Tensor(r), head)
    assert out.shape == (5,)
    assert np.max(np.abs(out.values - (r @ W[:, 0] + b[0]))) < 1e-14


# -- full pipeline ------------------------------------------------------------------------------


def test_umca_forward_shapes(rng):
    p = make_params(rng, tiny_model_config(), TINY_RAW_DIMS)
    E = random_inputs(rng, batch=4, seq=5)
    out = umca_forward(E, p, None, 1.0)
    assert out.stage1["a"].shape == (4, 1, 3)
    assert out.afg1_w.shape == (4, 1, 3)
    assert out.q_multv.shape == (4, 7, 3)
    assert out.seq["t"].shape == (4, 7, 3)
    assert out.r.shape == (4, 3)
    assert out.y_hat.shape == (4,)


def test_umca_gate_off_bit_identical_to_mia_free_pipeline(rng):
    """gate_from=None must reproduce a pipeline with no imagination code path at all."""
    p = make_params(rng, tiny_model_config(), TINY_RAW_DIMS)
    E = random_inputs(rng, batch=2, seq=4)

    R = {m: cross_attend(p[f"query.{m}"], E[m], p, f"s1.{m}", 1.0) for m in MODALITIES}
    w1 = afg_weights(R["a"], R["v"], R["t"], p, "afg1")
    q = multiview_queries(R, w1)
    R_seq = {m: cross_attend(q, E[m], p, f"s2.{m}", 1.0) for m in MODALITIES}
    w2 = afg_weights(R_seq["a"], R_seq["v"], R_seq["t"], p, "afg2")
    r = subset_sum(w2, [R_seq[m] for m in MODALITIES], ((0, 1, 2),), mean=True)
    y = regress(r, p)

    out = umca_forward(E, p, None, 1.0)
    assert np.array_equal(out.r.values, r.values)
    assert np.array_equal(out.y_hat.values, y.values)


def test_umca_zero_residual_mia_matches_gate_off(rng):
    p = make_params(rng, tiny_model_config(), TINY_RAW_DIMS, **TINY_ZERO_RESIDUAL)
    E = random_inputs(rng)
    gated = umca_forward(E, p, 0, 1.0)
    plain = umca_forward(E, p, None, 1.0)
    assert np.array_equal(gated.y_hat.values, plain.y_hat.values)
    assert np.array_equal(gated.r.values, plain.r.values)


def test_umca_gate_changes_text_representation_only_through_mia(rng):
    p = make_params(rng, tiny_model_config(), TINY_RAW_DIMS)
    E = random_inputs(rng)
    gated = umca_forward(E, p, 0, 1.0)
    plain = umca_forward(E, p, None, 1.0)
    assert not np.array_equal(gated.stage1["t"].values, plain.stage1["t"].values)
    assert np.array_equal(gated.stage1["a"].values, plain.stage1["a"].values)
    assert np.array_equal(gated.stage1["v"].values, plain.stage1["v"].values)


def test_shared_audio_vision_rows_match_the_duplicated_layout(rng):
    """Audio and vision over n rows against text over 2n rows (two flows
    sharing them) give bit-identical outputs to the same audio and vision
    duplicated to 2n rows, and the same parameter gradients up to the order
    in which the two flows' shares are summed."""
    cfg = tiny_model_config()
    store = init_model(cfg, TINY_RAW_DIMS, seed=2)
    for t in store.values():
        t.values *= 30.0  # at init scale some gradients are all cancellation noise
    n = 5
    raws = {m: rng.normal(size=(n, 3, TINY_RAW_DIMS[m])) for m in ("a", "v")}
    raws["t"] = rng.normal(size=(2 * n, 3, TINY_RAW_DIMS["t"]))
    layouts = {
        "shared": raws,
        "duplicated": {m: raws[m] if m == "t" else np.concatenate([raws[m]] * 2) for m in MODALITIES},
    }
    outs, grads = {}, {}
    for name, layout in layouts.items():
        E = {m: project_modality(Tensor(layout[m]), m, store) for m in MODALITIES}
        out = umca_forward(E, store, n, cfg.tau_attn)
        g = backward(out.y_hat.square().sum() + out.seq["t"].square().sum())
        outs[name], grads[name] = out, {p: g.get(t) for p, t in store.items()}

    for f in fields(FlowOutputs):
        shared, duplicated = getattr(outs["shared"], f.name), getattr(outs["duplicated"], f.name)
        pairs = [(shared[m], duplicated[m]) for m in MODALITIES] if isinstance(shared, dict) else [(shared, duplicated)]
        assert all(np.array_equal(x.values, y.values) for x, y in pairs), f.name
    for p in store:  # relative to each parameter's largest gradient entry
        g, ref = grads["shared"][p], grads["duplicated"][p]
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), p


def test_umca_gradient_check_end_to_end(rng):
    cfg = tiny_model_config()
    store = init_model(cfg, TINY_RAW_DIMS, seed=0)
    raws = {m: rng.normal(size=(2, 2, TINY_RAW_DIMS[m])) for m in MODALITIES}
    names = list(store)

    def f(p):
        view = dict(zip(names, p))
        E = {m: project_modality(Tensor(raws[m]), m, view) for m in MODALITIES}
        out = umca_forward(E, view, 0, cfg.tau_attn)
        return out.y_hat.square().sum()

    point = [Tensor(store[n].values * 10.0) for n in names]  # scale up so grads are non-trivial
    assert grad_check(f, point, h=1e-5) < 1e-5


def test_umca_all_params_receive_gradient(rng):
    cfg = tiny_model_config()
    store = init_model(cfg, TINY_RAW_DIMS, seed=1)
    E = {
        m: project_modality(Tensor(rng.normal(size=(3, 2, TINY_RAW_DIMS[m]))), m, store)
        for m in MODALITIES
    }
    out = umca_forward(E, store, 0, cfg.tau_attn)
    grads = backward(out.y_hat.square().sum())
    for name, p in store.items():
        assert p in grads, f"no gradient reached '{name}'"
