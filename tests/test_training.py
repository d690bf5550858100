import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

import modalflow.training as training
from builders import TINY_RAW_DIMS, tiny_model_config
from modalflow.data import SynthConfig, batch_iter, generate_dataset
from modalflow.fusion import MODALITIES, ModelConfig, init_model
from modalflow.losses import LossWeights
from modalflow.nn import AdamState
from modalflow.tensor import Tensor, ancestors, backward
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
        y_hat, r = _predict(val, values, MODEL, mode, spec, batch_size=16)
        assert np.array_equal(y_hat[:16], y_hats[mode]), mode
        assert np.array_equal(r[:16], reps[mode]), mode
    assert not np.array_equal(y_hats["complete"], y_hats["missing"])


def test_distillation_detach_contract(tiny_data):
    """Backprop of the distillation terms alone must not reach the complete flow's rows."""
    from modalflow.losses import mkd_loss

    batch = first_batch(tiny_data["train"])
    n = batch.n
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    flow = run_double_flow(batch, store, MODEL)

    def mkd_terms(stage1_t, seq_t):
        """The two MKD terms as train_step takes them: teacher rows [:n], student rows [n:]."""
        teachers = [t.narrow(0, 0, n) for t in (stage1_t, seq_t)]
        students = [t.narrow(0, n, 2 * n) for t in (stage1_t, seq_t)]
        return mkd_loss(teachers[0], students[0]) + mkd_loss(teachers[1], students[1]), teachers, students

    loss, teachers, students = mkd_terms(flow.stage1["t"], flow.seq["t"])
    up = ancestors(loss)
    assert not any(node is t for node in up for t in teachers)
    assert all(any(node is s for node in up) for s in students)
    grads = backward(loss)
    for name in ("mia1.W1", "mia1.W2", "mia2.W1", "mia2.W2"):
        assert np.any(grads.get(store[name]) != 0.0), name

    leaves = [Tensor(flow.stage1["t"].values, requires_grad=True), Tensor(flow.seq["t"].values, requires_grad=True)]
    leaf_grads = backward(mkd_terms(*leaves)[0])
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
    preds = {mode: _predict(train, values, MODEL, mode, AblationSpec(), batch_size=16) for mode in MODES}
    report = train_step(batch, store, MODEL, AdamState(), LossWeights())
    (y_c, r_c), (y_m, r_m) = ((y[-12:], r[-12:]) for y, r in preds.values())
    task = np.mean(np.concatenate([(batch.labels - y_c) ** 2, (batch.labels - y_m) ** 2]))
    rs = np.sqrt(np.mean((r_c - r_m) ** 2))
    assert report.task == pytest.approx(task, rel=1e-12, abs=0)
    assert report.rs == pytest.approx(rs, rel=1e-12, abs=0)
    assert all(np.isfinite(report.as_row()))


def test_default_config_step_graph_size(monkeypatch):
    """One default-config step is one stacked forward with RNC as one node:
    204 graph nodes (two separate flow graphs took 303, a composed RNC 213).
    A change that splits the flows again fails here."""
    model = ModelConfig()
    synth = SynthConfig(n_train=32, n_val=1, n_test=1)
    data = generate_dataset(synth)
    batch = first_batch(data["train"], 32)
    counted = []

    def counting(loss):
        counted.append(len(ancestors(loss)) + 1)
        return backward(loss)

    monkeypatch.setattr(training, "backward", counting)
    store = init_model(model, {m: synth.raw_dim(m) for m in MODALITIES}, seed=0)
    train_step(batch, store, model, AdamState(), LossWeights())
    assert counted == [204]


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


def test_similarity_matrix_properties(tiny_data, fitted):
    checkpoint, _ = fitted
    matrix, labels = similarity_matrix(checkpoint, tiny_data["test"])
    n = tiny_data["test"].n
    assert matrix.shape == (n, n)
    assert np.all(matrix >= 0.0)
    assert np.array_equal(labels, np.sort(tiny_data["test"].labels))


def test_similarity_matrix_diagonal_zero_for_identical_flows():
    """rho = 0 data and a zero-residual module give r_i^c == r_i^m, so diag == 0."""
    cfg = SynthConfig(**{**SYNTH, "text_degradation": 0.0})
    data = generate_dataset(cfg)
    store = init_model(MODEL, TINY_RAW_DIMS, seed=0)
    for tag in ("mia1", "mia2"):
        store[f"{tag}.W2"].values[:] = 0.0
        store[f"{tag}.b2"].values[:] = 0.0
    checkpoint = Checkpoint(
        params=store.snapshot(), optimizer=AdamState().snapshot(), epoch=0,
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
    assert loaded.ablation == checkpoint.ablation
    for name in checkpoint.params:
        assert np.array_equal(loaded.params[name], checkpoint.params[name])
    for group in ("m", "v"):
        for name in checkpoint.optimizer[group]:
            assert np.array_equal(loaded.optimizer[group][name], checkpoint.optimizer[group][name])
    assert loaded.optimizer["step"] == checkpoint.optimizer["step"]


def test_load_checkpoint_accepts_run_directory(tiny_data, tiny_train_config, tmp_path):
    out = tmp_path / "run"
    checkpoint, _ = fit(tiny_data, MODEL, tiny_train_config, out_dir=out)
    loaded = load_checkpoint(out)
    assert np.array_equal(loaded.params["head.W"], checkpoint.params["head.W"])


def test_load_checkpoint_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nothing")


@pytest.mark.parametrize(
    "kind, match",
    [
        ("truncated_file", r"tensor 'param:head\.W' file holds"),
        ("declared_bytes", r"tensor 'param:head\.W' manifest shape"),
        ("unknown_group", r"'foo:head\.W'"),
        ("v1_manifest", r"format 'modalflow-checkpoint-v1'"),
    ],
    ids=["truncated_file", "declared_bytes", "unknown_group", "v1_manifest"],
)
def test_load_checkpoint_rejects_corruption(fitted, tmp_path, kind, match):
    save_checkpoint(fitted[0], tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    entry = manifest["tensors"]["param:head.W"]
    if kind == "truncated_file":
        f = tmp_path / "ckpt" / entry["file"]
        f.write_bytes(f.read_bytes()[:-8])
    elif kind == "declared_bytes":
        entry["bytes"] += 8
    elif kind == "unknown_group":
        manifest["tensors"]["foo:head.W"] = manifest["tensors"].pop("param:head.W")
    else:  # a manifest written before the model's shape settings were dropped
        manifest["format"] = "modalflow-checkpoint-v1"
        manifest["model_config"].update(seq_len=2, raw_dim_a=3, raw_dim_v=2, raw_dim_t=4)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=match):
        load_checkpoint(tmp_path / "ckpt")


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


def test_run_ablation_rejects_bad_seed_count(tiny_data):
    with pytest.raises(ValueError):
        run_ablation(tiny_data, MODEL, TrainConfig(), n_seeds=0)
