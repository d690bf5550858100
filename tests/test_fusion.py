from dataclasses import fields

import numpy as np
import pytest

from builders import TINY_RAW_DIMS, make_mia, make_umca, tiny_model_config
from modalflow.fusion import (
    MODALITIES,
    SUBSETS,
    AttentionMaps,
    FlowOutputs,
    ModelConfig,
    afg_weights,
    cross_attend,
    init_model,
    multiview_queries,
    param_shapes,
    param_views,
    project_modality,
    regress,
    stage2_fuse,
    umca_forward,
)
from modalflow.nn import AffineLayer
from modalflow.tensor import Tensor, attend, backward, grad_check


def identity_maps(dim):
    eye = AffineLayer(Tensor(np.eye(dim)), Tensor(np.zeros(dim)))
    return AttentionMaps(key=eye, value=AffineLayer(Tensor(np.eye(dim)), Tensor(np.zeros(dim))))


def random_inputs(rng, umca, batch=2, seq=3):
    return {
        m: Tensor(rng.normal(size=(batch, seq, umca.proj[m].out_dim)))
        for m in MODALITIES
    }


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
    umca, mia1, mia2 = param_views(a, cfg)
    assert umca.head.out_dim == 1
    assert mia1.W1 is a["mia1.W1"] and mia2.W1 is a["mia2.W1"]


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
    umca = make_umca(rng, dim=3, raw_dims=(4, 5, 6))
    out = project_modality(Tensor(rng.normal(size=(2, 7, 4))), "a", umca)
    assert out.shape == (2, 7, 3)
    with pytest.raises(ValueError, match="raw dim"):
        project_modality(Tensor(rng.normal(size=(2, 7, 5))), "a", umca)


# -- cross attention ---------------------------------------------------------------------


def test_cross_attend_single_row_recovers_value(rng):
    # S = 1: softmax over one key is 1, so R equals the (identity-mapped) value row
    dim = 3
    maps = identity_maps(dim)
    E = Tensor(rng.normal(size=(1, dim)))
    Q = Tensor(rng.normal(size=(1, dim)))
    out = cross_attend(Q, E, maps, tau=1.0)
    assert np.array_equal(out.values, E.values)


def test_cross_attend_identical_values_collapse(rng):
    dim = 3
    maps = identity_maps(dim)
    row = rng.normal(size=dim)
    E = Tensor(np.tile(row, (4, 1)))
    Q = Tensor(rng.normal(size=(2, dim)))
    out = cross_attend(Q, E, maps, tau=1.0)
    assert np.max(np.abs(out.values - row)) < 1e-12


def test_cross_attend_scalar_hand_oracle():
    # q = 1 row, S = 2, D = 2, identity maps: straight-line recomputation
    E = np.array([[1.0, 0.0], [0.0, 2.0]])
    Q = np.array([[1.0, 1.0]])
    tau = 0.7
    K = np.tanh(E)
    scores = (Q @ K.T) / tau
    w = np.exp(scores - scores.max())
    w = w / w.sum()
    expected = w @ E
    got = cross_attend(Tensor(Q), Tensor(E), identity_maps(2), tau=tau)
    assert np.max(np.abs(got.values - expected)) < 1e-12


def test_cross_attend_rows_in_convex_hull_of_values(rng):
    # identity value map: every output row is a convex combination of E's rows
    dim = 4
    maps = identity_maps(dim)
    E = rng.normal(size=(6, dim))
    out = cross_attend(Tensor(rng.normal(size=(3, dim))), Tensor(E), maps, tau=2.0).values
    lo, hi = E.min(axis=0), E.max(axis=0)
    assert np.all(out >= lo - 1e-12)
    assert np.all(out <= hi + 1e-12)


def test_cross_attend_batched_matches_per_sample(rng):
    umca = make_umca(rng, dim=3)
    E = rng.normal(size=(4, 5, 3))
    Q = rng.normal(size=(4, 2, 3))
    batched = cross_attend(Tensor(Q), Tensor(E), umca.stage1["a"], tau=1.3).values
    for i in range(4):
        single = cross_attend(Tensor(Q[i]), Tensor(E[i]), umca.stage1["a"], tau=1.3).values
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
    afg = AffineLayer(Tensor(np.zeros((3 * dim, 3))), Tensor(np.zeros(3)))
    R = [Tensor(rng.normal(size=(2, 1, dim))) for _ in range(3)]
    w = afg_weights(*R, afg).values
    assert np.allclose(w, 1.0 / 3.0, atol=1e-15)


def test_afg_rows_sum_to_one(rng):
    umca = make_umca(rng, dim=3)
    R = [Tensor(rng.normal(size=(2, 7, 3))) for _ in range(3)]
    w = afg_weights(*R, umca.afg2).values
    assert w.shape == (2, 7, 3)
    assert np.all(w > 0)
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12


def test_afg_shape_mismatch(rng):
    umca = make_umca(rng, dim=3)
    with pytest.raises(ValueError, match="share shape"):
        afg_weights(
            Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 2, 3))),
            umca.afg1,
        )


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
    umca = make_umca(rng, dim=3)
    E = random_inputs(rng, umca, batch=2, seq=4)
    q = Tensor(rng.normal(size=(2, 7, 3)))
    R_seq, r = stage2_fuse(q, E, umca)
    assert all(R_seq[m].shape == (2, 7, 3) for m in MODALITIES)
    assert r.shape == (2, 3)


def test_stage2_scalar_oracle(rng):
    # straight-line numpy recomputation of stage 2 with identity attention maps
    dim = 2
    umca = make_umca(rng, dim=dim, identity_values=True, tau=1.0)
    for m in MODALITIES:
        umca.stage2[m] = identity_maps(dim)
    afg_W = rng.normal(size=(3 * dim, 3))
    afg_b = rng.normal(size=3)
    umca.afg2 = AffineLayer(Tensor(afg_W), Tensor(afg_b))

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

    _, r = stage2_fuse(Tensor(q), {m: Tensor(E[m]) for m in MODALITIES}, umca)
    assert np.max(np.abs(r.values - expected_r)) < 1e-12


def test_regress_is_dot_product(rng):
    dim = 4
    W = rng.normal(size=(dim, 1))
    b = rng.normal(size=1)
    head = AffineLayer(Tensor(W), Tensor(b))
    r = rng.normal(size=(5, dim))
    out = regress(Tensor(r), head)
    assert out.shape == (5,)
    assert np.max(np.abs(out.values - (r @ W[:, 0] + b[0]))) < 1e-14


# -- full pipeline ------------------------------------------------------------------------------


def test_umca_forward_shapes(rng):
    umca = make_umca(rng, dim=3)
    E = random_inputs(rng, umca, batch=4, seq=5)
    out = umca_forward(E, umca)
    assert out.stage1["a"].shape == (4, 1, 3)
    assert out.afg1_w.shape == (4, 1, 3)
    assert out.q_multv.shape == (4, 7, 3)
    assert out.seq["t"].shape == (4, 7, 3)
    assert out.r.shape == (4, 3)
    assert out.y_hat.shape == (4,)


def test_umca_gate_off_bit_identical_to_mia_free_pipeline(rng):
    """mia=None must reproduce a pipeline with no imagination code path at all."""
    from modalflow.fusion import _pool_seq, cross_attend as ca

    umca = make_umca(rng, dim=3)
    E = random_inputs(rng, umca, batch=2, seq=4)

    R = {m: ca(umca.query[m], E[m], umca.stage1[m], umca.tau) for m in MODALITIES}
    w1 = afg_weights(R["a"], R["v"], R["t"], umca.afg1)
    q = multiview_queries(R, w1)
    R_seq = {m: ca(q, E[m], umca.stage2[m], umca.tau) for m in MODALITIES}
    r = _pool_seq(R_seq, umca.afg2)
    y = regress(r, umca.head)

    out = umca_forward(E, umca, mia=None)
    assert np.array_equal(out.r.values, r.values)
    assert np.array_equal(out.y_hat.values, y.values)


def test_umca_zero_residual_mia_matches_gate_off(rng):
    umca = make_umca(rng, dim=3)
    mia = (make_mia(rng, dim=3, zero_residual=True), make_mia(rng, dim=3, zero_residual=True))
    E = random_inputs(rng, umca)
    gated = umca_forward(E, umca, mia=mia)
    plain = umca_forward(E, umca)
    assert np.array_equal(gated.y_hat.values, plain.y_hat.values)
    assert np.array_equal(gated.r.values, plain.r.values)


def test_umca_gate_changes_text_representation_only_through_mia(rng):
    umca = make_umca(rng, dim=3)
    mia = (make_mia(rng, dim=3), make_mia(rng, dim=3))
    E = random_inputs(rng, umca)
    gated = umca_forward(E, umca, mia=mia)
    plain = umca_forward(E, umca)
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
    umca, mia1, mia2 = param_views(store, cfg)
    n = 5
    raws = {m: rng.normal(size=(n, 3, TINY_RAW_DIMS[m])) for m in ("a", "v")}
    raws["t"] = rng.normal(size=(2 * n, 3, TINY_RAW_DIMS["t"]))
    layouts = {
        "shared": raws,
        "duplicated": {m: raws[m] if m == "t" else np.concatenate([raws[m]] * 2) for m in MODALITIES},
    }
    outs, grads = {}, {}
    for name, layout in layouts.items():
        E = {m: project_modality(Tensor(layout[m]), m, umca) for m in MODALITIES}
        out = umca_forward(E, umca, mia=(mia1, mia2), gate_from=n)
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
        umca, mia1, mia2 = param_views(view, cfg)
        E = {m: project_modality(Tensor(raws[m]), m, umca) for m in MODALITIES}
        out = umca_forward(E, umca, mia=(mia1, mia2))
        return out.y_hat.square().sum()

    point = [Tensor(store[n].values * 10.0) for n in names]  # scale up so grads are non-trivial
    assert grad_check(f, point, h=1e-5) < 1e-5


def test_umca_all_params_receive_gradient(rng):
    cfg = tiny_model_config()
    store = init_model(cfg, TINY_RAW_DIMS, seed=1)
    umca, mia1, mia2 = param_views(store, cfg)
    E = {
        m: project_modality(Tensor(rng.normal(size=(3, 2, TINY_RAW_DIMS[m]))), m, umca)
        for m in MODALITIES
    }
    out = umca_forward(E, umca, mia=(mia1, mia2))
    grads = backward(out.y_hat.square().sum())
    for name, p in store.items():
        assert p in grads, f"no gradient reached '{name}'"
