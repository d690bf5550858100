import gc
import json
import multiprocessing
import os
import threading
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import modalflow.fusion as fusion
import modalflow.tensor as tensor
import modalflow.training as training
from builders import TINY_RAW_DIMS, tiny_model_config
from modalflow.data import DatasetError, SynthConfig, batch_iter, generate_dataset, save_dataset, write_tensor
from modalflow.fusion import MODALITIES, ModelConfig, init_model
from modalflow.losses import LossWeights
from modalflow.nn import AdamState
from modalflow.tensor import Tensor, ancestors, backward, profile
from modalflow.training import (
    ABLATION_COLUMNS,
    DEFAULT_ABLATION_GRID,
    HISTORY_COLUMNS,
    MODES,
    AblationSpec,
    Checkpoint,
    TrainConfig,
    _predict,
    compute_metrics,
    derive_run_seed,
    evaluate,
    fit,
    load_checkpoint,
    performance_gap,
    run_ablation,
    run_double_flow,
    save_checkpoint,
    similarity_matrix,
    train_step,
    write_similarity_csv,
)
from test_tensor import PRIMITIVE_CASES

MODEL = tiny_model_config()
SYNTH = dict(
    n_train=60, n_val=20, n_test=20, seq_len=2,
    raw_dim_a=TINY_RAW_DIMS["a"], raw_dim_v=TINY_RAW_DIMS["v"], raw_dim_t=TINY_RAW_DIMS["t"],
    latent_dim=4, seed=2,
)


@pytest.fixture(scope="module")
def tiny_data():
    return generate_dataset(SynthConfig(**SYNTH))


@pytest.fixture(scope="module")
def tiny_train_config():
    return TrainConfig(epochs=3, patience=3, batch_size=16, seed=0)


def first_batch(dataset, size=16):
    return next(iter(batch_iter(dataset, size)))


def halves(values, n):
    """(complete rows, missing rows) of a stacked double-flow output."""
    assert len(values) == 2 * n
    return values[:n], values[n:]


# -- config validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"epochs": 0},
        {"patience": -1},
        {"epochs": 3, "patience": 5},
        {"batch_size": 1},
        {"lr": 0.0},
        {"eval_acc_rule": "argmax"},
    ],
)
def test_train_config_validation(kw):
    with pytest.raises(ValueError):
        TrainConfig(**kw)


# -- double flow -------------------------------------------------------------------------


def test_flows_collapse_when_sim_text_is_real(tiny_data):
    """rho = 0 data plus a zero-residual imagination module makes both flows identical."""
    cfg = SynthConfig(**{**SYNTH, "text_degradation": 0.0})
    data = generate_dataset(cfg)
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    for tag in ("mia1", "mia2"):
        store[f"{tag}.W2"].values[:] = 0.0
        store[f"{tag}.b2"].values[:] = 0.0
    flow = run_double_flow(first_batch(data["train"]), store, MODEL)
    assert np.array_equal(*halves(flow.y_hat.values, 16))
    assert np.array_equal(*halves(flow.r.values, 16))


def test_gate_off_bypass_bit_identical(tiny_data):
    """With imagination ablated, perturbing the module weights cannot move the output."""
    batch = first_batch(tiny_data["train"])
    store = init_model(MODEL, TINY_RAW_DIMS, seed=1)
    spec = AblationSpec(use_mia=False)
    _, m1 = halves(run_double_flow(batch, store, MODEL, spec).y_hat.values, batch.n)
    for tag in ("mia1", "mia2"):
        store[f"{tag}.W1"].values[:] += 100.0
        store[f"{tag}.W2"].values[:] += 100.0
    _, m2 = halves(run_double_flow(batch, store, MODEL, spec).y_hat.values, batch.n)
    assert np.array_equal(m1, m2)


def test_sim_text_off_feeds_zeros(tiny_data):
    batch = first_batch(tiny_data["train"])
    store = init_model(MODEL, TINY_RAW_DIMS, seed=1)
    def missing_y_hat(b, spec):
        return halves(run_double_flow(b, store, MODEL, spec).y_hat.values, b.n)[1]

    with_sim = missing_y_hat(batch, AblationSpec())
    no_sim = missing_y_hat(batch, AblationSpec(use_sim_text=False))
    batch_zeroed = first_batch(tiny_data["train"])
    batch_zeroed.sim_text = np.zeros_like(batch_zeroed.sim_text)
    manual = missing_y_hat(batch_zeroed, AblationSpec())
    assert np.array_equal(no_sim, manual)
    assert not np.array_equal(no_sim, with_sim)


def test_flows_finite_on_random_batches(tiny_data):
    store = init_model(MODEL, TINY_RAW_DIMS, seed=3)
    rng = np.random.default_rng(0)
    n = 16
    for _ in range(100):
        batch = first_batch(tiny_data["train"], n)
        batch.audio = rng.normal(scale=3.0, size=batch.audio.shape)
        batch.vision = rng.normal(scale=3.0, size=batch.vision.shape)
        batch.text = rng.normal(scale=3.0, size=batch.text.shape)
        batch.sim_text = rng.normal(scale=3.0, size=batch.sim_text.shape)
        flow = run_double_flow(batch, store, MODEL)
        assert flow.y_hat.shape == (2 * n,)
        assert np.all(np.isfinite(flow.y_hat.values))


@pytest.mark.parametrize(
    "spec", [AblationSpec(), AblationSpec(use_sim_text=False), AblationSpec(use_mia=False)]
)
def test_inference_feeds_the_training_flows(tiny_data, spec):
    """Per mode, prediction on one batch is bit-identical to the matching training flow."""
    val = tiny_data["val"]
    store = init_model(MODEL, TINY_RAW_DIMS, seed=4)
    flow = run_double_flow(first_batch(val), store, MODEL, spec)
    y_hats = dict(zip(MODES, halves(flow.y_hat.values, 16)))
    reps = dict(zip(MODES, halves(flow.r.values, 16)))
    values = {name: t.values for name, t in store.items()}
    for mode in MODES:
        (y_hat,), (r,) = _predict(val, values, MODEL, (mode,), spec, batch_size=16)
        assert np.array_equal(y_hat[:16], y_hats[mode]), mode
        assert np.array_equal(r[:16], reps[mode]), mode
    assert not np.array_equal(y_hats["complete"], y_hats["missing"])


def test_audio_and_vision_run_once_per_step(monkeypatch):
    """A default-config step projects audio and vision, and computes their
    stage-1 and stage-2 keys and values, over the batch's n rows shared by
    both flows; text runs over 2n rows."""
    model = ModelConfig()
    synth = SynthConfig(n_train=32, n_val=1, n_test=1)
    batch = first_batch(generate_dataset(synth)["train"], 32)
    store = init_model(model, {m: synth.raw_dim(m) for m in MODALITIES}, seed=0)
    projected, attended = {}, {}
    real_project, real_attend = training.project_modality, fusion.cross_attend

    def project(raw, m, p):
        projected[m] = raw.shape[0]
        return real_project(raw, m, p)

    def attend(Q, E, p, prefix, *args):
        attended[tuple(prefix.split("."))] = E.shape[0]
        return real_attend(Q, E, p, prefix, *args)

    monkeypatch.setattr(training, "project_modality", project)
    monkeypatch.setattr(fusion, "cross_attend", attend)
    train_step(batch, store, model, AdamState(), LossWeights())
    rows = {"a": batch.n, "v": batch.n, "t": 2 * batch.n}
    assert projected == rows
    assert attended == {(s, m): rows[m] for s in ("s1", "s2") for m in MODALITIES}


def test_distillation_detach_contract(tiny_data):
    """Backprop of the distillation terms alone must not reach the complete flow's rows."""
    from modalflow.losses import mkd_loss

    batch = first_batch(tiny_data["train"])
    n = batch.n
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    flow = run_double_flow(batch, store, MODEL)

    def mkd_terms(stage1_t, seq_t):
        """The two MKD terms as train_step takes them: teacher rows [:n], student rows [n:]."""
        return mkd_loss(stage1_t) + mkd_loss(seq_t)

    grads = backward(mkd_terms(flow.stage1["t"], flow.seq["t"]))
    for name in ("mia1.W1", "mia1.W2", "mia2.W1", "mia2.W2"):
        assert np.any(grads.get(store[name]) != 0.0), name

    leaves = [Tensor(flow.stage1["t"].values, requires_grad=True), Tensor(flow.seq["t"].values, requires_grad=True)]
    leaf_grads = backward(mkd_terms(*leaves))
    for leaf in leaves:
        g = leaf_grads.get(leaf)
        assert np.all(g[:n] == 0.0)
        assert np.any(g[n:] != 0.0)


# -- train step --------------------------------------------------------------------------------


def test_train_step_report_identity(tiny_data):
    batch = first_batch(tiny_data["train"])
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    weights = LossWeights()
    report = train_step(batch, store, MODEL, AdamState(), weights)
    recomputed = (
        report.task + weights.alpha * report.mkd1 + weights.beta * report.mkd2
        + weights.gamma * report.rs + weights.delta * report.rnc
    )
    assert abs(report.total - recomputed) < 1e-12
    assert all(np.isfinite(report.as_row()))


def test_train_step_ablated_terms_zero(tiny_data):
    batch = first_batch(tiny_data["train"])
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    spec = AblationSpec(use_mkd=False, use_rs=False, use_rnc=False)
    report = train_step(batch, store, MODEL, AdamState(), LossWeights(), spec)
    assert report.mkd1 == report.mkd2 == report.rs == report.rnc == 0.0
    assert report.total == report.task


@pytest.mark.parametrize("rnc, named", [(np.nan, "rnc, total"), (np.finfo(np.float64).max, "total")])
def test_train_step_names_each_non_finite_term(tiny_data, monkeypatch, rnc, named):
    """A non-finite loss term stops the step before backward and Adam, and
    the error names every non-finite term: a total that overflows from
    finite terms names the total alone."""
    monkeypatch.setattr(training, "rnc_loss", lambda *args: Tensor(rnc))
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    before = store.flat.copy()
    optimizer = AdamState()
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=rf"loss term\(s\): {named}$"):
        train_step(first_batch(tiny_data["train"]), store, MODEL, optimizer, LossWeights(delta=10.0))
    assert np.array_equal(store.flat, before)
    assert optimizer.step == 0 and optimizer.m is None


def test_train_step_decreases_loss_on_repeated_batch(tiny_data):
    batch = first_batch(tiny_data["train"])
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    opt = AdamState(lr=1e-2)
    weights = LossWeights()
    first = train_step(batch, store, MODEL, opt, weights)
    for _ in range(30):
        last = train_step(batch, store, MODEL, opt, weights)
    assert last.total < first.total


def test_train_step_short_final_batch(tiny_data):
    """The last batch of an epoch is short (60 = 3 x 16 + 12); its halves split at its own n."""
    train = tiny_data["train"]
    batch = list(batch_iter(train, 16))[-1]
    assert batch.n == 12
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    values = {name: t.values for name, t in store.items()}
    y, r = _predict(train, values, MODEL, MODES, AblationSpec(), batch_size=16)
    report = train_step(batch, store, MODEL, AdamState(), LossWeights())
    (y_c, y_m), (r_c, r_m) = y[:, -12:], r[:, -12:]
    task = np.mean(np.concatenate([(batch.labels - y_c) ** 2, (batch.labels - y_m) ** 2]))
    rs = np.sqrt(np.mean((r_c - r_m) ** 2))
    assert report.task == pytest.approx(task, rel=1e-12, abs=0)
    assert report.rs == pytest.approx(rs, rel=1e-12, abs=0)
    assert all(np.isfinite(report.as_row()))


def test_train_steps_update_the_store_in_place_and_free_each_graph(tiny_data, monkeypatch):
    """Adam writes into the store's flat array: every parameter keeps its
    `values` array, a view of `store.flat` at its offset. No step's graph
    outlives the step (`Tensor` takes no weakref, so the loss's backward
    closure stands for its graph)."""
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    views = {name: t.values for name, t in store.items()}
    before = store.flat.copy()
    closures = []

    def recording(loss):
        closures.append(weakref.ref(loss._backward_fn))
        return backward(loss)

    monkeypatch.setattr(training, "backward", recording)
    optimizer = AdamState()
    for batch in list(batch_iter(tiny_data["train"], 16))[:3]:
        train_step(batch, store, MODEL, optimizer, LossWeights())
        gc.collect()
        assert closures[-1]() is None
    assert len(closures) == 3 and not np.array_equal(store.flat, before)
    offset = 0
    for name, t in store.items():
        assert t.values is views[name], name
        assert t.values.base is store.flat, name
        assert t.values.ctypes.data == store.flat[offset:].ctypes.data, name
        offset += t.size
    assert offset == store.flat.size


def _default_step_graph(monkeypatch, before_sweep=None):
    """Every node of one default-config batch-32 step's loss graph, loss
    first; `before_sweep`, if given, sees that list before the backward sweep."""
    model = ModelConfig()
    synth = SynthConfig(n_train=32, n_val=1, n_test=1)
    data = generate_dataset(synth)
    batch = first_batch(data["train"], 32)
    graphs = []

    def recording(loss):
        graphs.append([loss] + ancestors(loss))
        if before_sweep is not None:
            before_sweep(graphs[-1])
        return backward(loss)

    monkeypatch.setattr(training, "backward", recording)
    store = init_model(model, {m: synth.raw_dim(m) for m in MODALITIES}, seed=0)
    train_step(batch, store, model, AdamState(), LossWeights())
    assert len(graphs) == 1
    return graphs[0]


def test_default_config_step_graph_size(monkeypatch):
    """One default-config step is one stacked forward with one node per
    block: 80 graph nodes, 29 ops and 51 leaves (47 parameters, 3 raw inputs,
    the labels). Each of the 6 cross-attention calls is one `cross_attention`
    node, the multi-view queries and the stage-2 pooling one `subset_sum`
    each, each imagination rewrite with its row gate one `imagine`, the task
    loss one `mse`, each MKD/RS loss one `rmse_halves` over its stacked
    tensor, RNC one `rank_contrast` and the weighted total one
    `weighted_sum`. Earlier layouts took 303 nodes (two separate flow graphs),
    213 (a composed RNC), 204 (matmul+add layers), 182 (audio and vision
    duplicated to 2n rows), 188 (attention composed from transpose, matmul,
    softmax and matmul) and 166 (before one node per block). Audio and vision
    run over n rows shared by both flows: 2 `concat`s repeat their stage-1
    outputs for the two flows, and the stage-2 `cross_attention` nodes view
    their 2n query rows as [2, n, 7, D], so the n-row keys and values
    broadcast over the flow axis. A change that splits the flows again fails
    here."""
    nodes = _default_step_graph(monkeypatch)
    assert len(nodes) == 80
    ops = [n.op for n in nodes]
    assert ops.count("cross_attention") == 6 and ops.count("softmax") == 2
    assert ops.count("imagine") == 2 and ops.count("concat") == 4


def test_backward_closures_write_only_their_own_buffers(monkeypatch):
    """The fused ops work in place, so in one default step every backward
    closure must leave alone its incoming gradient, the gradients that
    closures before it returned (`concat` and `reshape` hand views of one
    gradient to several parents) and every node's forward values."""
    returned = []  # (array a closure returned, its copy)
    called = []

    def guard(nodes):
        values = [(n, n.values.copy()) for n in nodes]

        def wrap(node, fn):
            def run(g):
                incoming = g.copy()
                grads = fn(g)
                assert np.array_equal(g, incoming), f"{node.op} wrote into its incoming gradient"
                for arr, copy in returned:
                    assert np.array_equal(arr, copy), f"{node.op} wrote into a gradient an earlier closure returned"
                for n, copy in values:
                    where = f"the forward values of a node ({n.op or 'leaf'})"
                    assert np.array_equal(n.values, copy), f"{node.op} wrote into {where}"
                returned.extend((pg, pg.copy()) for pg in grads if pg is not None)
                called.append(node.op)
                return grads

            return run

        for n in nodes:
            if n._backward_fn is not None:
                n._backward_fn = wrap(n, n._backward_fn)

    nodes = _default_step_graph(monkeypatch, guard)
    assert sorted(called) == sorted(n.op for n in nodes if n.op is not None)


def test_profile_names_every_op_of_the_default_step(monkeypatch):
    with profile() as prof:
        nodes = _default_step_graph(monkeypatch)
    ops = {n.op for n in nodes if n.op is not None}
    assert ops <= set(prof.forward) and ops <= set(prof.backward)
    assert {op for op, *_ in prof.rows()} == set(prof.forward)
    assert prof.sweep > 0
    assert tensor._profile is None


def test_profile_totals_match_the_step_wall_time():
    """Forward, backward and sweep time add up to the wall time of a run of
    default steps, less the last step's Adam update and the loss reports."""
    model = ModelConfig()
    synth = SynthConfig(n_train=192, n_val=1, n_test=1)
    batches = list(batch_iter(generate_dataset(synth)["train"], 32))
    store = init_model(model, {m: synth.raw_dim(m) for m in MODALITIES}, seed=0)
    optimizer = AdamState()
    train_step(batches[0], store, model, optimizer, LossWeights())  # warm-up
    start = time.perf_counter()
    with profile() as prof:
        for batch in batches[1:]:
            train_step(batch, store, model, optimizer, LossWeights())
    wall = time.perf_counter() - start
    assert abs(prof.total() - wall) <= 0.1 * wall, (prof.total(), wall)


def test_profile_leaves_fit_unchanged(tiny_data, tiny_train_config, fitted):
    with profile():
        checkpoint, history = fit(tiny_data, MODEL, tiny_train_config)
    assert history == fitted[1]
    assert all(np.array_equal(checkpoint.params[k], fitted[0].params[k]) for k in checkpoint.params)


def test_profile_does_not_nest():
    with profile():
        with pytest.raises(RuntimeError, match="already on"):
            with profile():
                pass
    assert tensor._profile is None


def test_every_step_op_has_a_primitive_grad_case(monkeypatch):
    """Each op in the default step graph also occurs in the graph of some
    PRIMITIVE_CASES entry, so a new primitive or fused op cannot reach the
    training step without a finite-difference check."""
    step_ops = {n.op for n in _default_step_graph(monkeypatch) if n.op is not None}
    checked = set()
    for build in PRIMITIVE_CASES.values():
        f, point = build(np.random.default_rng(0))
        out = f([Tensor(p.values, requires_grad=True) for p in point])
        checked |= {n.op for n in [out] + ancestors(out)}
    assert step_ops - checked == set()


# -- metrics -----------------------------------------------------------------------------------


def test_compute_metrics_perfect():
    y = np.array([1.0, -2.0, 0.5])
    mae, acc = compute_metrics(y, y.copy())
    assert mae == 0.0 and acc == 100.0


def test_compute_metrics_constant_zero_predictor():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    mae, acc = compute_metrics(y, np.zeros(4))
    assert mae == 1.0
    assert acc == 50.0  # 0 > 0 is False, matching only the negative labels


def test_compute_metrics_sign_nonzero_rule():
    y = np.array([0.0, 2.0, -2.0, 0.0])
    preds = np.array([5.0, 1.0, -1.0, -5.0])
    _, acc = compute_metrics(y, preds, acc_rule="sign_nonzero")
    assert acc == 100.0
    with pytest.raises(ValueError):
        compute_metrics(y, preds, acc_rule="other")


def test_compute_metrics_matches_independent_recomputation(rng):
    y = rng.uniform(-3, 3, 50)
    p = rng.normal(size=50)
    mae, acc = compute_metrics(y, p)
    assert abs(mae - np.abs(y - p).mean()) < 1e-12
    assert abs(acc - 100.0 * np.mean(np.sign(p) == np.sign(y))) < 1e-12 or np.any(y == 0)


def test_performance_gap_paper_fixture():
    gap = performance_gap((0.506, 87.6), (0.550, 84.2))
    assert gap[0] == pytest.approx(0.044, abs=1e-12)
    assert gap[1] == pytest.approx(3.4, abs=1e-12)
    assert performance_gap((0.550, 84.2), (0.506, 87.6)) == gap  # symmetric


# -- fit ----------------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted(tiny_data, tiny_train_config):
    return fit(tiny_data, MODEL, tiny_train_config)


def test_fit_returns_history_with_expected_columns(fitted, tiny_train_config):
    checkpoint, history = fitted
    assert 1 <= len(history) <= tiny_train_config.epochs
    assert set(history[0]) == set(HISTORY_COLUMNS)
    assert [row["epoch"] for row in history] == list(range(1, len(history) + 1))
    assert isinstance(checkpoint, Checkpoint)


def test_fit_bit_exact_reproduction(tiny_data, tiny_train_config, fitted):
    checkpoint, history = fitted
    checkpoint2, history2 = fit(tiny_data, MODEL, tiny_train_config)
    assert history == history2  # exact float equality, not approximate
    assert set(checkpoint.params) == set(checkpoint2.params)
    for name in checkpoint.params:
        assert np.array_equal(checkpoint.params[name], checkpoint2.params[name])


def test_fit_seed_changes_outcome(tiny_data, tiny_train_config, fitted):
    from dataclasses import replace

    checkpoint, _ = fitted
    other, _ = fit(tiny_data, MODEL, replace(tiny_train_config, seed=99))
    assert any(not np.array_equal(checkpoint.params[n], other.params[n]) for n in checkpoint.params)


def test_fit_checkpoint_is_best_epoch(fitted):
    checkpoint, history = fitted
    maes = [row["val_mae_complete"] for row in history]
    assert checkpoint.best_val_mae == min(maes)
    assert checkpoint.epoch == int(np.argmin(maes)) + 1


def test_stacked_validation_matches_evaluate(tiny_data, tiny_train_config, monkeypatch):
    """fit validates both modes in one stacked _predict call per epoch, and
    its MAEs equal single-mode evaluate bitwise, on a 300-sample val split
    that fit cuts into 128 + 128 + 44 samples and evaluate into 256 + 44."""
    data = {**tiny_data, "val": generate_dataset(SynthConfig(**{**SYNTH, "n_val": 300}))["val"]}
    calls = []
    real_predict = training._predict

    def predict(dataset, values, model_config, modes, *args, **kwargs):
        calls.append(modes)
        return real_predict(dataset, values, model_config, modes, *args, **kwargs)

    monkeypatch.setattr(training, "_predict", predict)
    checkpoint, history = fit(data, MODEL, tiny_train_config)
    assert calls == [MODES] * len(history)
    monkeypatch.undo()
    val = data["val"]
    assert checkpoint.best_val_mae == evaluate(val, checkpoint, "complete")[0]
    assert history[checkpoint.epoch - 1]["val_mae_missing"] == evaluate(val, checkpoint, "missing")[0]


def test_fit_patience_zero_stops_after_one_epoch(tiny_data):
    cfg = TrainConfig(epochs=10, patience=0, batch_size=16, seed=0)
    checkpoint, history = fit(tiny_data, MODEL, cfg)
    assert len(history) == 1
    assert checkpoint.epoch == 1


def test_fit_early_stopping_triggers(tiny_data):
    # updates this small vanish below float64 resolution, so the validation
    # MAE never strictly improves after epoch 1 and patience must kick in
    cfg = TrainConfig(epochs=50, patience=2, batch_size=16, lr=1e-300, seed=0)
    _, history = fit(tiny_data, MODEL, cfg)
    assert len(history) == 3  # epoch 1 improves from inf, then 2 stale epochs


def test_fit_writes_outputs(tiny_data, tiny_train_config, tmp_path):
    out = tmp_path / "run"
    fit(tiny_data, MODEL, tiny_train_config, out_dir=out)
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == ",".join(HISTORY_COLUMNS)
    assert (out / "checkpoint" / "manifest.json").exists()


# -- evaluation and exports -----------------------------------------------------------------------


def test_evaluate_both_modes(tiny_data, fitted):
    checkpoint, _ = fitted
    for mode in ("complete", "missing"):
        mae, acc = evaluate(tiny_data["test"], checkpoint, mode)
        assert np.isfinite(mae) and 0.0 <= acc <= 100.0


def test_evaluate_rejects_empty_split_and_bad_mode(tiny_data, fitted):
    checkpoint, _ = fitted
    empty = replace(tiny_data["test"], **{f: a[:0] for f, a in tiny_data["test"].tensors().items()})
    with pytest.raises(ValueError, match="split 'test' has no samples"):
        evaluate(empty, checkpoint, "complete")
    with pytest.raises(ValueError, match="mode must be one of"):
        evaluate(empty, checkpoint, "partial")


def test_evaluate_warns_without_recovery_components(tiny_data):
    spec = AblationSpec(use_mia=False, use_mkd=False)
    cfg = TrainConfig(epochs=1, patience=1, batch_size=16, seed=0)
    checkpoint, _ = fit(tiny_data, MODEL, cfg, ablation=spec)
    with pytest.warns(UserWarning, match="missing-mode"):
        evaluate(tiny_data["test"], checkpoint, "missing")
    # a call that fails validation raises before it warns
    empty = replace(tiny_data["test"], **{f: a[:0] for f, a in tiny_data["test"].tensors().items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no samples"):
            evaluate(empty, checkpoint, "missing")


# -- inference on two threads -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_test():
    """A 300-sample test split: evaluate cuts it into 256 + 44 samples, one
    batch per thread."""
    return generate_dataset(SynthConfig(**{**SYNTH, "n_test": 300}))["test"]


@pytest.fixture
def helper_up():
    training._helper.submit(int).result(timeout=60)  # the helper thread is up before threads are counted


def log_flows(monkeypatch, before_forward=None):
    """Wrap training._flow: record (first sample, thread id) per batch and
    call before_forward(batch) ahead of each forward."""
    log = []
    real_flow = training._flow

    def flow(batch, *args):
        log.append((int(batch.indices[0]), threading.get_ident()))
        if before_forward is not None:
            before_forward(batch)
        return real_flow(batch, *args)

    monkeypatch.setattr(training, "_flow", flow)
    return log


def serial_predict(dataset, checkpoint, modes, batch_size):
    """The one-thread per-batch loop that _predict splits between two threads."""
    params = {k: Tensor(v) for k, v in checkpoint.params.items()}
    preds, reps = [], []
    for batch in batch_iter(dataset, batch_size // len(modes)):
        out = training._flow(batch, params, checkpoint.model_config, modes, checkpoint.ablation)
        preds.append(out.y_hat.values.reshape(len(modes), batch.n))
        reps.append(out.r.values.reshape(len(modes), batch.n, -1))
    return np.concatenate(preds, axis=1), np.concatenate(reps, axis=1)


@pytest.mark.parametrize("modes, batch_size", [(("complete",), 128), (("missing",), 128), (MODES, 256)])
def test_threaded_predict_bitwise_equals_serial_loop(wide_test, fitted, helper_up, monkeypatch, modes, batch_size):
    """300 samples in 128 + 128 + 44: an odd batch count with a ragged last
    batch; the caller runs batches 0 and 2, the helper batch 1."""
    checkpoint, _ = fitted
    log = log_flows(monkeypatch)
    preds, reps = _predict(wide_test, checkpoint.params, checkpoint.model_config, modes, checkpoint.ablation, batch_size)
    threads = dict(log)
    assert sorted(threads) == [0, 128, 256]
    assert threads[0] == threads[256] == threading.get_ident() != threads[128]
    monkeypatch.undo()
    want_preds, want_reps = serial_predict(wide_test, checkpoint, modes, batch_size)
    assert preds.shape == (len(modes), 300) and reps.shape[:2] == (len(modes), 300)
    assert np.array_equal(preds, want_preds)
    assert np.array_equal(reps, want_reps)


def test_evaluate_starts_no_thread_per_call(wide_test, fitted, helper_up, monkeypatch):
    """Every call's odd batch runs on the one helper thread, which outlives the call."""
    checkpoint, _ = fitted
    log = log_flows(monkeypatch)
    before = threading.active_count()
    for mode in ("complete", "missing", "complete"):
        evaluate(wide_test, checkpoint, mode)
    assert threading.active_count() == before
    helpers = {thread for start, thread in log if start == 256}
    assert len(helpers) == 1 and threading.get_ident() not in helpers


@pytest.mark.parametrize("failing, runs_on", [(0, "caller"), (32, "helper")])
def test_predict_raises_a_batch_error_from_either_thread(wide_test, fitted, helper_up, monkeypatch, failing, runs_on):
    """300 samples in ten batches of 32 (the last ragged), five per thread.
    The failing thread raises on its first batch; the other, slowed to at
    least 20 ms a batch, starts at most one more batch after that."""
    checkpoint, _ = fitted
    caller = threading.get_ident()
    armed = [True]
    failed_at = []

    def fail_or_slow(batch):
        if not armed[0]:
            return
        if batch.indices[0] == failing:
            assert (threading.get_ident() == caller) == (runs_on == "caller")
            failed_at.append(len(log))
            raise RuntimeError(f"forward of the batch at sample {failing} failed")
        time.sleep(0.02)

    log = log_flows(monkeypatch, fail_or_slow)
    before = threading.active_count()
    args = (wide_test, checkpoint.params, checkpoint.model_config, ("missing",), checkpoint.ablation, 32)
    with pytest.raises(RuntimeError, match=f"forward of the batch at sample {failing} failed"):
        _predict(*args)
    assert threading.active_count() == before
    failing_thread = dict(log)[failing]
    assert sum(thread != failing_thread for _, thread in log[failed_at[0]:]) <= 1
    armed[0] = False  # the helper still serves the next call
    assert np.isfinite(evaluate(wide_test, checkpoint, "missing")[0])


def test_a_runtime_warning_on_the_helper_thread_fails_the_call(wide_test, fitted, helper_up, monkeypatch):
    """pyproject.toml's error::RuntimeWarning filter is process-wide, so the
    suite's warning gate also covers the helper's forwards."""
    assert any(action == "error" and category is RuntimeWarning for action, _, category, *_ in warnings.filters)
    checkpoint, _ = fitted
    caller = threading.get_ident()

    def overflow_on_helper(batch):
        if threading.get_ident() != caller:
            np.exp(np.array([1000.0]))

    log = log_flows(monkeypatch, overflow_on_helper)
    with pytest.raises(RuntimeWarning, match="overflow"):
        evaluate(wide_test, checkpoint, "complete")
    assert [start for start, thread in log if thread != caller] == [256]


def _predict_in_child(queue, args):
    queue.put(_predict(*args))


def test_a_forked_child_gets_a_helper_of_its_own(wide_test, fitted, helper_up):
    """A child forked after the helper thread started does not have that
    thread; a submit to the parent's executor would never run."""
    checkpoint, _ = fitted
    args = (wide_test, checkpoint.params, checkpoint.model_config, MODES, checkpoint.ablation)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_predict_in_child, args=(queue, args))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
    assert child.exitcode == 0
    assert all(np.array_equal(a, b) for a, b in zip(got, _predict(*args)))


def test_similarity_matrix_properties(tiny_data, fitted):
    checkpoint, _ = fitted
    matrix, labels = similarity_matrix(checkpoint, tiny_data["test"])
    n = tiny_data["test"].n
    assert matrix.shape == (n, n)
    assert np.all(matrix >= 0.0)
    assert np.array_equal(labels, np.sort(tiny_data["test"].labels))


def test_similarity_matrix_equals_direct_formula_bitwise(tiny_data, fitted):
    checkpoint, _ = fitted
    test = tiny_data["test"]
    assert test.n > training._SIM_BLOCK and test.n % training._SIM_BLOCK  # a ragged last block
    _, (reps_c, reps_m) = _predict(test, checkpoint.params, checkpoint.model_config, MODES, checkpoint.ablation)
    order = np.argsort(test.labels, kind="stable")
    diff = reps_c[order][:, None, :] - reps_m[order][None, :, :]
    matrix, _ = similarity_matrix(checkpoint, test)
    assert np.array_equal(matrix, np.sqrt(np.sum(diff * diff, axis=-1)))


def test_similarity_matrix_memory_below_one_difference_array(fitted, monkeypatch):
    checkpoint, _ = fitted
    n, dim = 256, 256
    rng = np.random.default_rng(0)
    reps = rng.normal(size=(2, n, dim))
    dataset = SimpleNamespace(n=n, labels=rng.uniform(-3, 3, n))
    monkeypatch.setattr(training, "_predict", lambda *args: (None, reps))
    tracemalloc.start()
    try:
        similarity_matrix(checkpoint, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * dim * 8 / 8, f"similarity_matrix peaked at {peak / 1e6:.1f} MB"


def test_similarity_matrix_diagonal_zero_for_identical_flows():
    """rho = 0 data and a zero-residual module give r_i^c == r_i^m, so diag == 0."""
    cfg = SynthConfig(**{**SYNTH, "text_degradation": 0.0})
    data = generate_dataset(cfg)
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    for tag in ("mia1", "mia2"):
        store[f"{tag}.W2"].values[:] = 0.0
        store[f"{tag}.b2"].values[:] = 0.0
    checkpoint = Checkpoint(
        params=store.snapshot(), epoch=0,
        best_val_mae=np.inf, model_config=MODEL,
        train_config=TrainConfig(epochs=1, patience=0, batch_size=16),
        ablation=AblationSpec(),
    )
    matrix, _ = similarity_matrix(checkpoint, data["test"])
    assert np.array_equal(np.diag(matrix), np.zeros(data["test"].n))


def test_write_similarity_csv(tmp_path, tiny_data, fitted):
    checkpoint, _ = fitted
    matrix, labels = similarity_matrix(checkpoint, tiny_data["test"])
    path = tmp_path / "sim.csv"
    write_similarity_csv(path, matrix, labels)
    lines = path.read_text().splitlines()
    assert len(lines) == len(labels) + 1
    header = lines[0].split(",")
    assert header[0] == "label"
    assert [float(v) for v in header[1:]] == list(labels)
    first_row = lines[1].split(",")
    assert float(first_row[0]) == labels[0]
    assert np.allclose([float(v) for v in first_row[1:]], matrix[0], atol=0)


# -- checkpoint persistence --------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(fitted, tmp_path):
    checkpoint, _ = fitted
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.epoch == checkpoint.epoch
    assert loaded.best_val_mae == checkpoint.best_val_mae
    assert loaded.model_config == checkpoint.model_config
    assert loaded.train_config == checkpoint.train_config
    assert loaded.ablation == checkpoint.ablation
    assert list(loaded.params) == list(checkpoint.params)
    for name in checkpoint.params:
        assert np.array_equal(loaded.params[name], checkpoint.params[name])


def test_default_checkpoint_holds_only_the_model_parameters(tmp_path):
    synth = SynthConfig()
    raw_dims = {m: synth.raw_dim(m) for m in MODALITIES}
    store = init_model(ModelConfig(), raw_dims, seed=0)
    checkpoint = Checkpoint(
        params=store.snapshot(), epoch=1, best_val_mae=0.5, model_config=ModelConfig(),
        train_config=TrainConfig(), ablation=AblationSpec(),
    )
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert manifest["format"] == "modalflow-checkpoint-v4"
    assert "optimizer_step" not in manifest
    assert manifest["raw_dims"] == raw_dims
    assert list(manifest["tensors"]) == ["params"]
    assert manifest["tensors"]["params"]["shape"] == [19_591]
    # the store's layout, byte for byte, in the v4 order: reordering param_shapes fails here and needs a new tag
    assert (tmp_path / "ckpt" / "params.bin").read_bytes() == store.flat.tobytes()
    v4_order = [
        *(f"proj.{m}.{p}" for m in MODALITIES for p in "Wb"),
        *(f"query.{m}" for m in MODALITIES),
        *(f"{stage}.{m}.{role}.{p}" for stage in ("s1", "s2") for m in MODALITIES
          for role in ("val", "key") for p in "Wb"),
        *(f"{block}.{p}" for block in ("afg1", "afg2", "head") for p in "Wb"),
        *(f"{tag}.{p}" for tag in ("mia1", "mia2") for p in ("W1", "b1", "W2", "b2")),
    ]
    assert list(store) == v4_order
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["manifest.json", "params.bin"]


def test_interrupted_resave_leaves_no_loadable_checkpoint(fitted, tmp_path, monkeypatch):
    checkpoint, _ = fitted
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    other = replace(checkpoint, params={name: arr + 1.0 for name, arr in checkpoint.params.items()})

    def failing_write(directory, fname, arr):
        raise OSError("disk full")

    monkeypatch.setattr(training, "write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(other, tmp_path / "ckpt")
    with pytest.raises(DatasetError, match="no manifest.json"):
        load_checkpoint(tmp_path / "ckpt")
    monkeypatch.undo()
    save_checkpoint(other, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert all(np.array_equal(loaded.params[n], other.params[n]) for n in other.params)
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir() if p.suffix != ".bin") == ["manifest.json"]


def test_load_checkpoint_accepts_run_directory(tiny_data, tiny_train_config, tmp_path):
    out = tmp_path / "run"
    checkpoint, _ = fit(tiny_data, MODEL, tiny_train_config, out_dir=out)
    loaded = load_checkpoint(out)
    assert np.array_equal(loaded.params["head.W"], checkpoint.params["head.W"])


def test_load_checkpoint_missing(tmp_path):
    with pytest.raises(DatasetError, match="no manifest.json"):
        load_checkpoint(tmp_path / "nothing")


def test_manifests_list_format_dtype_fields_then_tensor_table(tiny_data, fitted, tmp_path):
    """Both record kinds keep one key order, so their manifests stay byte-identical."""
    save_dataset(tiny_data, tmp_path / "ds")
    save_checkpoint(fitted[0], tmp_path / "ckpt")
    dataset = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    checkpoint = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert list(dataset) == ["format", "dtype", "config", "splits"]
    assert list(checkpoint) == [
        "format", "dtype", "epoch", "best_val_mae", "model_config", "train_config", "ablation", "raw_dims", "tensors",
    ]
    assert (dataset["format"], dataset["dtype"]) == ("modalflow-dataset-v1", "<f8")
    assert (checkpoint["format"], checkpoint["dtype"]) == ("modalflow-checkpoint-v4", "<f8")


# the tiny model's parameter count, and the counts with its dim or its mia_hidden one larger
N_PARAMS = 311
N_PARAMS_DIM_4 = 459
N_PARAMS_MIA_HIDDEN_3 = 337


@pytest.mark.parametrize(
    "kind, match",
    [
        ("truncated_file", r"tensor 'params' file holds"),
        ("declared_bytes", r"tensor 'params' manifest shape"),
        ("params_2d", rf"tensor 'params' has shape \(1, {N_PARAMS}\), {N_PARAMS} values; .* give {N_PARAMS} values"),
        ("unknown_group", r"'tensors' must hold exactly one entry, 'params', got \['foo'\]"),
        ("adam_group", r"'tensors' must hold exactly one entry, 'params', got \['params', 'adam_m'\]"),
        ("tensor_missing", r"'tensors' must hold exactly one entry, 'params', got \[\]"),
        ("v1_manifest", r"format 'modalflow-checkpoint-v1'"),
        ("v2_manifest", r"format 'modalflow-checkpoint-v2'"),
        ("v3_manifest", r"format 'modalflow-checkpoint-v3'"),
        ("raw_dims_missing", r"'raw_dims' must hold exactly the keys \('a', 'v', 't'\), got \('a', 'v'\)"),
        ("raw_dims_extra", r"'raw_dims' must hold exactly the keys \('a', 'v', 't'\), got \('a', 'v', 't', 'x'\)"),
        ("raw_dims_zero", r"'raw_dims' 'a' must be a positive int, got 0"),
        ("raw_dims_true", r"'raw_dims' 'a' must be a positive int, got True"),
        ("raw_dims_float", r"'raw_dims' 'a' must be a positive int, got 2\.5"),
        ("dim_edited", rf"tensor 'params' has shape \({N_PARAMS},\), .* give {N_PARAMS_DIM_4} values"),
        ("mia_hidden_edited", rf"tensor 'params' has shape \({N_PARAMS},\), .* give {N_PARAMS_MIA_HIDDEN_3} values"),
        ("epochs_zero", r"'train_config': train config: epochs must be >= 1"),
        ("dim_zero", r"'model_config': model config: dim must be positive"),
        ("alpha_negative", r"'train_config': loss weight alpha must be finite and non-negative"),
        ("batch_size_float", r"'train_config': train config: batch_size must be an int, got 2\.5"),
        ("weights_list", r"'train_config': train config: weights must be an object of loss weights, got \[1, 2\]"),
        ("weights_null", r"'train_config': train config: weights must be an object of loss weights, got None"),
        ("weights_str", r"'train_config': train config: weights must be an object of loss weights, got 'x'"),
    ],
    ids=["truncated_file", "declared_bytes", "params_2d", "unknown_group", "adam_group", "tensor_missing",
         "v1_manifest", "v2_manifest", "v3_manifest", "raw_dims_missing", "raw_dims_extra", "raw_dims_zero",
         "raw_dims_true", "raw_dims_float", "dim_edited", "mia_hidden_edited", "epochs_zero", "dim_zero",
         "alpha_negative", "batch_size_float", "weights_list", "weights_null", "weights_str"],
)
def test_load_checkpoint_rejects_corruption(fitted, tmp_path, kind, match):
    save_checkpoint(fitted[0], tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    entry = manifest["tensors"]["params"]
    assert entry["shape"] == [N_PARAMS]
    if kind == "truncated_file":
        f = tmp_path / "ckpt" / entry["file"]
        f.write_bytes(f.read_bytes()[:-8])
    elif kind == "declared_bytes":
        entry["bytes"] += 8
    elif kind == "params_2d":  # the same bytes, declared as one row
        entry["shape"] = [1, N_PARAMS]
    elif kind == "unknown_group":
        manifest["tensors"]["foo"] = manifest["tensors"].pop("params")
    elif kind == "adam_group":  # the v2 moment groups are no longer read
        manifest["tensors"]["adam_m"] = dict(entry)
    elif kind == "tensor_missing":
        manifest["tensors"].pop("params")
    elif kind == "v2_manifest":  # a v4 manifest dressed as v2: still refused, there is no v2 reader
        manifest["format"] = "modalflow-checkpoint-v2"
        manifest["optimizer_step"] = 1
    elif kind == "v3_manifest":  # nor a v3 reader: v3 held one tensor per parameter
        manifest["format"] = "modalflow-checkpoint-v3"
    elif kind == "raw_dims_missing":
        manifest["raw_dims"].pop("t")
    elif kind == "raw_dims_extra":
        manifest["raw_dims"]["x"] = 1
    elif kind.startswith("raw_dims_"):
        manifest["raw_dims"]["a"] = {"raw_dims_zero": 0, "raw_dims_true": True, "raw_dims_float": 2.5}[kind]
    elif kind == "dim_edited":  # a valid config of another model: only the length shows it
        manifest["model_config"]["dim"] += 1
    elif kind == "mia_hidden_edited":
        manifest["model_config"]["mia_hidden"] += 1
    elif kind == "epochs_zero":  # a stored config that its class's checks refuse
        manifest["train_config"]["epochs"] = 0
    elif kind == "dim_zero":
        manifest["model_config"]["dim"] = 0
    elif kind == "alpha_negative":
        manifest["train_config"]["weights"]["alpha"] = -1
    elif kind == "batch_size_float":
        manifest["train_config"]["batch_size"] = 2.5
    elif kind.startswith("weights_"):  # once loaded and evaluated as if valid
        manifest["train_config"]["weights"] = {"weights_list": [1, 2], "weights_null": None, "weights_str": "x"}[kind]
    else:  # a manifest written before the model's shape settings were dropped
        manifest["format"] = "modalflow-checkpoint-v1"
        manifest["model_config"].update(seq_len=2, raw_dim_a=3, raw_dim_v=2, raw_dim_t=4)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=match):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda m: [], "manifest.json"),
        (lambda m: m.update(tensors=[]), "'tensors'"),
        (lambda m: m["tensors"].update({"params": "params.bin"}), r"tensor 'params' manifest entry"),
        (lambda m: m.update(raw_dims=[3, 2, 4]), "'raw_dims'"),
    ],
    ids=["manifest", "tensors", "tensor_entry", "raw_dims"],
)
def test_load_checkpoint_rejects_a_manifest_part_that_is_not_an_object(fitted, tmp_path, edit, where):
    save_checkpoint(fitted[0], tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    replaced = edit(manifest)
    mpath.write_text(json.dumps(manifest if replaced is None else replaced))
    with pytest.raises(DatasetError, match=f"{where} must be a JSON object"):
        load_checkpoint(tmp_path / "ckpt")


def _relay(ckpt, params):
    """Rewrite the one tensor of a saved checkpoint as the arrays of `params`
    end to end, as a save without its checks would lay them."""
    mpath = ckpt / "manifest.json"
    manifest = json.loads(mpath.read_text())
    flat = np.concatenate([a.ravel() for a in params.values()])
    manifest["tensors"]["params"] = write_tensor(ckpt, "params.bin", flat)
    mpath.write_text(json.dumps(manifest))


D = MODEL.dim


@pytest.mark.parametrize(
    "shapes, match",
    [
        (
            {f"query.{m}": (2, D) for m in MODALITIES},
            r"'query\.a' has shape \(2, 3\), the model config gives \(1, 3\)",
        ),
        ({"mia1.W1": (MODEL.mia_hidden, 3 * D)}, r"'mia1\.W1' has shape \(2, 9\)"),
        ({"s2.t.key.b": (D + 1,)}, r"'s2\.t\.key\.b' has shape \(4,\)"),
        ({"proj.v.W": (TINY_RAW_DIMS["v"], D + 1)}, r"'proj\.v\.W' has shape \(2, 4\)"),
        ({"proj.a.b": (D + 1,)}, r"'proj\.a\.b' has shape \(4,\)"),
        ({"proj.t.W": (TINY_RAW_DIMS["t"],)}, r"'proj\.t\.W' has shape \(4,\)"),
        ({"extra": (1,)}, r"'extra' is not a model parameter"),
        ({"head.W": None}, r"'head\.W' is missing"),
    ],
    ids=["query_rows", "mia_transposed", "key_bias", "proj_out", "proj_bias", "proj_1d", "extra", "missing_head"],
)
def test_load_checkpoint_checks_every_parameter_shape(fitted, tmp_path, shapes, match):
    """A parameter mapping other than the model's, by name or by shape (None
    drops the parameter), is refused by save_checkpoint naming the parameter,
    before anything is written. Laid out past that check, it fails the load
    by the one tensor's length, unless it keeps the length, as a transposed
    weight does: only the save can see that one."""
    checkpoint = fitted[0]
    params = dict(checkpoint.params)
    for name, shape in shapes.items():
        if shape is None:
            del params[name]
        else:
            params[name] = np.zeros(shape)
    with pytest.raises(ValueError, match=match):
        save_checkpoint(replace(checkpoint, params=params), tmp_path / "refused")
    assert not (tmp_path / "refused").exists()

    save_checkpoint(checkpoint, tmp_path / "ckpt")
    _relay(tmp_path / "ckpt", params)
    n_values = sum(a.size for a in params.values())
    if n_values == N_PARAMS:
        load_checkpoint(tmp_path / "ckpt")
    else:
        with pytest.raises(DatasetError, match=rf"has shape \({n_values},\), .* give {N_PARAMS} values"):
            load_checkpoint(tmp_path / "ckpt")


def test_resave_over_a_larger_checkpoint_leaves_only_its_files(fitted, tmp_path):
    """A checkpoint directory that held more tensors (as a v3 one held one
    per parameter, and a v2 one Adam moments too) keeps only the re-save's
    files."""
    save_checkpoint(fitted[0], tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    for i, name in enumerate(fitted[0].params):
        manifest["tensors"][f"adam_m:{name}"] = write_tensor(tmp_path / "ckpt", f"m{i:04d}.bin", np.zeros(1))
    mpath.write_text(json.dumps(manifest))
    save_checkpoint(fitted[0], tmp_path / "ckpt")
    named = {e["file"] for e in json.loads(mpath.read_text())["tensors"].values()}
    assert {p.name for p in (tmp_path / "ckpt").iterdir()} == named | {"manifest.json"}
    assert named == {"params.bin"}


def test_loaded_checkpoint_evaluates_identically(tiny_data, fitted, tmp_path):
    checkpoint, _ = fitted
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert evaluate(tiny_data["test"], loaded, "missing") == evaluate(tiny_data["test"], checkpoint, "missing")


# -- ablation runner --------------------------------------------------------------------------------


def test_derive_run_seed_is_injective_on_grid():
    seeds = {derive_run_seed(0, si, ki) for si in range(7) for ki in range(3)}
    assert len(seeds) == 21
    assert derive_run_seed(5, 0, 0) == 5


def test_run_ablation_identity_spec_matches_plain_fit(tiny_data):
    """Spec index 0, seed index 0 must reproduce a plain fit bit-exactly."""
    cfg = TrainConfig(epochs=2, patience=2, batch_size=16, seed=7)
    spec = AblationSpec()
    rows = run_ablation(tiny_data, MODEL, cfg, specs=(spec,), n_seeds=1)
    checkpoint, _ = fit(tiny_data, MODEL, cfg, ablation=spec)
    missing = evaluate(tiny_data["test"], checkpoint, "missing")
    complete = evaluate(tiny_data["test"], checkpoint, "complete")
    assert rows[0]["missing_mae"] == missing[0]
    assert rows[0]["missing_acc"] == missing[1]
    assert rows[0]["complete_mae"] == complete[0]
    assert rows[0]["complete_acc"] == complete[1]
    assert rows[0]["n_seeds"] == 1


def test_run_ablation_grid_outputs(tiny_data, tmp_path):
    cfg = TrainConfig(epochs=1, patience=1, batch_size=16, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_ablation(
            tiny_data, MODEL, cfg, specs=DEFAULT_ABLATION_GRID, n_seeds=1, out_dir=tmp_path
        )
    assert len(rows) == len(DEFAULT_ABLATION_GRID)
    header = (tmp_path / "ablation.csv").read_text().splitlines()
    assert header[0] == ",".join(ABLATION_COLUMNS)
    assert len(header) == len(DEFAULT_ABLATION_GRID) + 1
    runs = (tmp_path / "runs.csv").read_text().splitlines()
    assert len(runs) == len(DEFAULT_ABLATION_GRID) + 1
    # full model row has every toggle on
    assert rows[-1]["llm_g"] == rows[-1]["mia"] == rows[-1]["l_mkd"] == rows[-1]["l_rs"] == rows[-1]["l_rnc"] == 1


def test_run_ablation_pool_matches_serial(tiny_data, tmp_path):
    """jobs=2 runs the grid on a worker pool; its rows, runs.csv and
    ablation.csv equal jobs=1's byte for byte."""
    cfg = TrainConfig(epochs=1, patience=1, batch_size=16, seed=0)
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        rows = run_ablation(tiny_data, MODEL, cfg, specs=DEFAULT_ABLATION_GRID[-2:], n_seeds=2, out_dir=out, jobs=jobs)
        outputs.append((rows, (out / "runs.csv").read_bytes(), (out / "ablation.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) == 1 + 2 * 2


def test_run_ablation_rejects_bad_seed_count(tiny_data):
    with pytest.raises(ValueError):
        run_ablation(tiny_data, MODEL, TrainConfig(), n_seeds=0)
