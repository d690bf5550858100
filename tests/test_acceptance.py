"""Acceptance suite: nine gate criteria, one pass/fail line each.

Criteria 5-7 share a module-scoped set of trainings (three configurations,
three seeds each, on identical default-config data, run on up to two worker
processes), so this module takes a few minutes; everything else is fast.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.stats import spearmanr

from modalflow.data import SynthConfig, generate_dataset, load_dataset, save_dataset
from modalflow.fusion import (
    MODALITIES,
    ModelConfig,
    afg_weights,
    cross_attend,
    init_model,
    mia_forward,
    multiview_queries,
    project_modality,
    regress,
    stage2_fuse,
    umca_forward,
)
from modalflow.losses import LOSS_TERMS, LossWeights, mkd_loss, rnc_loss, rnc_oracle, rs_loss, task_loss, total_loss
from modalflow.tensor import (
    Tensor,
    affine,
    attend,
    backward,
    concat,
    grad_check,
    rank_contrast,
    softmax,
    subset_sum,
)
from modalflow.training import (
    AblationSpec,
    TrainConfig,
    evaluate,
    fit,
    load_checkpoint,
    performance_gap,
    save_checkpoint,
    similarity_matrix,
)

SEEDS = (0, 1, 2)
SPECS = {
    "full": AblationSpec(),
    "no_recovery": AblationSpec(use_mia=False, use_mkd=False),
    "no_recovery_no_rnc": AblationSpec(use_mia=False, use_mkd=False, use_rnc=False),
}


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared trainings for criteria 5, 6, 7 ----------------------------------------------


def _timed_fit(datasets, name, seed):
    """One default-config fit of SPECS[name], timed in the process that runs it."""
    start = time.perf_counter()
    checkpoint, _ = fit(datasets, ModelConfig(), TrainConfig(seed=seed), ablation=SPECS[name])
    return checkpoint, time.perf_counter() - start


@pytest.fixture(scope="module")
def trained():
    """Default-config data; full / no-recovery / no-recovery-no-rnc x 3 seeds.

    The nine fits are independent, so they run on a pool of up to two worker
    processes; each one is timed inside its worker for criterion 5's budget.
    """
    datasets = generate_dataset(SynthConfig())
    jobs = [(name, seed) for name in SPECS for seed in SEEDS]
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        results = list(pool.map(_timed_fit, [datasets] * len(jobs), *zip(*jobs)))
    runs = {name: [] for name in SPECS}
    for (name, _), result in zip(jobs, results):
        runs[name].append(result)
    return datasets, runs


# -- criterion 1: gradient correctness ------------------------------------------------------


def _affine_point(rng, din, dout):
    return [Tensor(rng.normal(size=(din, dout))), Tensor(rng.normal(size=dout))]


def _umca_stage2_case(rng):
    d, s = 2, 3
    point = [Tensor(rng.normal(size=(7, d)))]
    point += [Tensor(rng.normal(size=(s, d))) for _ in range(3)]
    for _ in range(3):
        point += _affine_point(rng, d, d) + _affine_point(rng, d, d)
    point += _affine_point(rng, 3 * d, 3)

    names = [f"s2.{m}.{k}.{x}" for m in MODALITIES for k in ("key", "val") for x in ("W", "b")]
    names += ["afg2.W", "afg2.b"]

    def f(p):
        q = p[0]
        E = {m: p[1 + i] for i, m in enumerate(MODALITIES)}
        _, r = stage2_fuse(q, E, dict(zip(names, p[4:])), None, 1.3)
        return r.square().sum()

    return f, point


def _grad_cases(rng):
    """name -> (f, point) builders; sizes within D<=8, S<=4, N<=4."""
    pos = lambda s: Tensor(np.abs(rng.normal(size=s)) + 0.5)
    t = lambda s: Tensor(rng.normal(size=s))

    def coincident(s):
        x = rng.normal(size=s)
        x[-1] = x[0]
        return Tensor(x)

    # label distances with tie groups of two and three and an all-equal row
    tied_labels = np.array([0.0, 1.0, -1.0, 1.0, 1.0])

    def attend_stage(q_shape, kv_shape, vary):
        # operands not named in `vary` (of "qkv") are held constant
        operands = dict(zip("qkv", [t(q_shape), t(kv_shape), t(kv_shape[:-1] + (2,))]))

        def f(p):
            ops = dict(operands, **dict(zip(vary, p)))
            return attend(ops["q"], ops["k"], ops["v"], 1.9).square().sum()

        return f, [operands[c] for c in vary]

    cases = {
        # attend's product with V, and its product with K^T
        "matmul": lambda: attend_stage((3, 4), (5, 4), "v"),
        "transpose": lambda: attend_stage((3, 4), (5, 4), "k"),
        "add": lambda: (lambda p: (p[0] + p[1]).square().sum(), [t((3, 4)), t((4,))]),
        "sub": lambda: (lambda p: (p[0] - p[1]).square().sum(), [t((3, 4)), t((3, 4))]),
        "mul": lambda: (lambda p: (p[0] * p[1]).sum(), [t((3, 4)), t((3, 1))]),
        "scale": lambda: (lambda p: (p[0] * -1.7).square().sum(), [t((3, 4))]),
        "concat": lambda: (lambda p: concat(p, axis=1).square().sum(), [t((2, 3)), t((2, 2))]),
        "slice": lambda: (lambda p: p[0].narrow(1, 1, 3).square().sum(), [t((3, 4))]),
        "reshape": lambda: (lambda p: p[0].reshape((4, 3)).tanh().sum(), [t((3, 4))]),
        "tanh": lambda: (lambda p: p[0].tanh().sum(), [t((3, 4))]),
        "sqrt": lambda: (lambda p: p[0].sqrt().sum(), [pos((3, 4))]),
        "square": lambda: (lambda p: p[0].square().sum(), [t((3, 4))]),
        "softmax": lambda: (lambda p: softmax(p[0]).square().sum(), [t((3, 4))]),
        "sum": lambda: (lambda p: p[0].sum(axis=0).square().sum(), [t((3, 4))]),
        "mean": lambda: (lambda p: (p[0] - p[0].mean(axis=1, keepdims=True)).square().sum(), [t((3, 4))]),
        "rank_contrast": lambda: (lambda p: rank_contrast(p[0], tied_labels, 1.3), [coincident((5, 3))]),
    }

    def cross_attend_case():
        d, s = 3, 4
        point = [t((2, d)), t((s, d))] + _affine_point(rng, d, d) + _affine_point(rng, d, d)

        names = ("s1.a.key.W", "s1.a.key.b", "s1.a.val.W", "s1.a.val.b")

        def f(p):
            return cross_attend(p[0], p[1], dict(zip(names, p[2:])), "s1.a", tau=1.4).square().sum()

        return f, point

    def afg_case():
        d = 3
        point = [t((1, d)) for _ in range(3)] + _affine_point(rng, 3 * d, 3)

        def f(p):
            w = afg_weights(p[0], p[1], p[2], {"afg1.W": p[3], "afg1.b": p[4]}, "afg1")
            return (w * w).sum()

        return f, point

    def multiview_case():
        d = 4
        point = [t((1, d)) for _ in range(3)] + [t((1, 3))]

        def f(p):
            R = {m: p[i] for i, m in enumerate(MODALITIES)}
            return multiview_queries(R, p[3]).square().sum()

        return f, point

    def mia_case(ctx_rows=2, rows=2, gate_from=0):
        d, hidden = 3, 2
        point = [t((ctx_rows, d)) for _ in range(2)] + [t((rows, d))]
        point += [t((3 * d, hidden)), t((hidden,)), t((hidden, d)), t((d,))]

        names = ("mia1.W1", "mia1.b1", "mia1.W2", "mia1.b2")

        def f(p):
            return mia_forward(p[0], p[1], p[2], dict(zip(names, p[3:])), "mia1", gate_from).square().sum()

        return f, point

    labels = rng.uniform(-3, 3, 4)
    teacher = Tensor(rng.normal(size=(2, 3)))
    rnc_labels = np.concatenate([rng.uniform(-3, 3, 4)] * 2)
    cases.update(
        {
            "cross_attend": cross_attend_case,
            "afg_weights": afg_case,
            "multiview_queries": multiview_case,
            "stage2_fuse": lambda: _umca_stage2_case(rng),
            "mia_forward": mia_case,
            # the stage-1 layout: 2 context rows shared by 4 text rows, the last 2 gated
            "mia_forward_gated": lambda: mia_case(ctx_rows=2, rows=4, gate_from=2),
            "loss_task": lambda: (lambda p: task_loss(labels, p[0]), [t((4,))]),
            # the teacher half is a held constant: its detach makes the AD
            # gradient zero by design, which finite differences would not reproduce
            "loss_mkd": lambda: (lambda p: mkd_loss(concat([teacher, p[0]], axis=0)), [t((2, 3))]),
            "loss_rs": lambda: (lambda p: rs_loss(p[0]), [t((4, 3))]),
            "loss_total": lambda: (
                lambda p: total_loss(dict(zip(LOSS_TERMS, p)), LossWeights()).square(),
                [t(()) for _ in range(5)],
            ),
            "loss_rnc": lambda: (lambda p: rnc_loss(p[0], rnc_labels, 2.0), [t((8, 3))]),
            # attend with a 2-D K and V broadcast over a 3-D Q's batch axis
            "matmul_3d_by_2d": lambda: attend_stage((2, 3, 4), (5, 4), "qkv"),
            "affine": lambda: (lambda p: affine(p[0], p[1], p[2]).square().sum(), [t((2, 3, 4)), t((4, 2)), t((2,))]),
        }
    )
    return cases


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = _grad_cases(rng)
    worst = 0.0
    worst_name = ""
    for name, builder in cases.items():
        for _ in range(20):
            f, point = builder()
            err = grad_check(f, point, h=1e-5)
            if err > worst:
                worst, worst_name = err, name
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 60.0
    report(1, ok, f"{len(cases)} functions x 20 instances, max rel err {worst:.2e} "
                  f"(worst: {worst_name}), {elapsed:.1f}s")


# -- criterion 2: rank-contrast oracle equivalence ---------------------------------------------


def test_criterion_2_rnc_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in range(1, 9):
        for i in range(100):
            reps = rng.normal(size=(2 * n, 4))
            base = rng.uniform(-3, 3, n)
            if i % 3 == 0 and n > 1:
                base[rng.integers(0, n)] = base[0]  # force a tied label
            labels = np.concatenate([base, base])
            tau = float(rng.uniform(0.5, 4.0))
            got = rnc_loss(Tensor(reps), labels, tau).item()
            if n == 1:
                worst = max(worst, abs(got))
                continue
            worst = max(worst, abs(got - rnc_oracle(reps, labels, tau)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report(2, ok, f"100 instances per N in 1..8 incl. ties, max |loss - oracle| {worst:.2e}, "
                  f"{elapsed:.1f}s")


# -- criterion 3: distillation detach contract ----------------------------------------------------


def test_criterion_3_detach_contract():
    """Give each flow its own parameter copy; only the missing flow's copy may move."""
    model = ModelConfig(dim=4, mia_hidden=3)
    raw_dims = {"a": 5, "v": 4, "t": 6}
    rng = np.random.default_rng(303)
    store_teacher = init_model(model, raw_dims, seed=0)
    store_student = init_model(model, raw_dims, seed=0)

    def flow(store, text, gate):
        raws = {**rng_inputs, "t": text}
        E = {m: project_modality(Tensor(raws[m]), m, store) for m in MODALITIES}
        return umca_forward(E, store, 0 if gate else None, model.tau_attn)

    rng_inputs = {
        "a": rng.normal(size=(4, 3, 5)),
        "v": rng.normal(size=(4, 3, 4)),
        "t": rng.normal(size=(4, 3, 6)),
    }
    sim_text = rng.normal(size=(4, 3, 6))

    flow_c = flow(store_teacher, rng_inputs["t"], gate=False)
    flow_m = flow(store_student, sim_text, gate=True)
    # each MKD loss takes the teacher rows stacked over the student rows
    loss = mkd_loss(concat([flow_c.stage1["t"], flow_m.stage1["t"]], axis=0)) + mkd_loss(
        concat([flow_c.seq["t"], flow_m.seq["t"]], axis=0)
    )
    grads = backward(loss)

    teacher_leak = [n for n, p in store_teacher.items() if np.any(grads.get(p) != 0.0)]
    mia_names = [n for n in store_student if n.startswith(("mia1.", "mia2."))]
    dead_mia = [n for n in mia_names if not np.any(grads.get(store_student[n]) != 0.0)]
    ok = not teacher_leak and not dead_mia
    report(3, ok, f"teacher-path params with nonzero grad: {teacher_leak or 'none'}; "
                  f"imagination params without grad: {dead_mia or 'none'}")


# -- criterion 4: structural identities -----------------------------------------------------------


def test_criterion_4_structural_identities():
    rng = np.random.default_rng(404)
    model = ModelConfig(dim=4, mia_hidden=3)
    raw_dims = {"a": 5, "v": 4, "t": 6}
    store = init_model(model, raw_dims, seed=0)
    tau = model.tau_attn
    E = {m: project_modality(Tensor(rng.normal(size=(3, 4, raw_dims[m]))), m, store) for m in MODALITIES}
    checks = {}

    # (a) zero-residual imagination bypass is bit-exact
    zero = {
        "W1": Tensor(rng.normal(size=(12, 3))), "b1": Tensor(rng.normal(size=3)),
        "W2": Tensor(np.zeros((3, 4))), "b2": Tensor(np.zeros(4)),
    }
    zeroed = {**store, **{f"{tag}.{name}": t for tag in ("mia1", "mia2") for name, t in zero.items()}}
    gated = umca_forward(E, zeroed, 0, tau)
    plain = umca_forward(E, store, None, tau)
    checks["mia_zero_residual_bit_exact"] = np.array_equal(gated.y_hat.values, plain.y_hat.values)

    # (b) seven multi-view rows equal their explicit weighted sums exactly
    R = {m: Tensor(rng.normal(size=(1, 4))) for m in MODALITIES}
    w = Tensor(rng.normal(size=(1, 3)))
    q = multiview_queries(R, w).values
    from modalflow.fusion import SUBSETS

    parts = {m: w.values[0, i] * R[m].values[0] for i, m in enumerate(MODALITIES)}
    checks["multiview_rows_exact"] = all(
        np.array_equal(q[k], sum(parts[m] for m in subset)) for k, subset in enumerate(SUBSETS)
    )

    # (c) attention rows sum to 1 within 1e-12, read through an identity V
    # (y @ I is y exactly)
    V = affine(E["a"], store["s1.a.val.W"], store["s1.a.val.b"])
    K = affine(V, store["s1.a.key.W"], store["s1.a.key.b"]).tanh()
    attn = attend(store["query.a"], K, np.eye(K.shape[-2]), tau).values
    checks["attention_rows_sum_to_one"] = np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-12

    # (d) gate-off pipeline is bit-identical to a pipeline with no imagination code path
    R1 = {m: cross_attend(store[f"query.{m}"], E[m], store, f"s1.{m}", tau) for m in MODALITIES}
    w1 = afg_weights(R1["a"], R1["v"], R1["t"], store, "afg1")
    qm = multiview_queries(R1, w1)
    R_seq = {m: cross_attend(qm, E[m], store, f"s2.{m}", tau) for m in MODALITIES}
    w2 = afg_weights(R_seq["a"], R_seq["v"], R_seq["t"], store, "afg2")
    r = subset_sum(w2, [R_seq[m] for m in MODALITIES], ((0, 1, 2),), mean=True)
    y = regress(r, store)
    out = umca_forward(E, store, None, tau)
    checks["gate_off_bit_identical"] = np.array_equal(out.y_hat.values, y.values) and np.array_equal(
        out.r.values, r.values
    )

    failed = [k for k, v in checks.items() if not v]
    report(4, not failed, f"failed identities: {failed or 'none'}")


# -- criterion 5: end-to-end learning beats the mean baseline ----------------------------------------


def test_criterion_5_end_to_end_learning(trained):
    datasets, runs = trained
    baseline = float(np.mean(np.abs(datasets["test"].labels - datasets["train"].labels.mean())))
    maes = [evaluate(datasets["test"], ckpt, "complete")[0] for ckpt, _ in runs["full"]]
    times = [t for _, t in runs["full"]]
    mean_mae = float(np.mean(maes))
    ok = mean_mae <= 0.6 * baseline and max(times) < 600.0
    report(5, ok, f"mean complete-mode test MAE {mean_mae:.4f} vs 0.6 x baseline "
                  f"{0.6 * baseline:.4f} (baseline {baseline:.4f}); "
                  f"slowest seed {max(times):.0f}s of 600s budget")


# -- criterion 6: recovery components help under missing text ----------------------------------------


def test_criterion_6_missing_modality_robustness(trained):
    import warnings

    datasets, runs = trained
    full = [evaluate(datasets["test"], ckpt, "missing")[0] for ckpt, _ in runs["full"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ablated = [evaluate(datasets["test"], ckpt, "missing")[0] for ckpt, _ in runs["no_recovery"]]
    ok = float(np.mean(full)) < float(np.mean(ablated))
    report(6, ok, f"mean missing-mode test MAE: full {np.mean(full):.4f} "
                  f"vs no-imagination-no-distillation {np.mean(ablated):.4f} "
                  f"(per-seed full {[round(v, 4) for v in full]}, "
                  f"ablated {[round(v, 4) for v in ablated]})")


# -- criterion 7: representation geometry tracks labels ----------------------------------------------


def _label_distance_spearman(checkpoint, dataset):
    matrix, labels = similarity_matrix(checkpoint, dataset)
    label_dist = np.abs(labels[:, None] - labels[None, :])
    rho, _ = spearmanr(matrix.ravel(), label_dist.ravel())
    return float(rho)


def test_criterion_7_representation_geometry(trained):
    import warnings

    datasets, runs = trained
    test = datasets["test"]
    full = [_label_distance_spearman(ckpt, test) for ckpt, _ in runs["full"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ablated = [_label_distance_spearman(ckpt, test) for ckpt, _ in runs["no_recovery_no_rnc"]]
    mean_full = float(np.mean(full))
    mean_ablated = float(np.mean(ablated))
    ok = mean_full > 0.3 and mean_full > mean_ablated
    report(7, ok, f"Spearman(cross-flow distance, label distance): full {mean_full:.4f} "
                  f"(> 0.3 required) vs ablated {mean_ablated:.4f}")


# -- criterion 8: determinism and persistence ---------------------------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    synth = SynthConfig(n_train=96, n_val=32, n_test=32, seq_len=3,
                        raw_dim_a=6, raw_dim_v=5, raw_dim_t=7, latent_dim=4, seed=5)
    model = ModelConfig(dim=4, mia_hidden=3)
    train = TrainConfig(epochs=4, patience=4, batch_size=16, seed=11)
    datasets = generate_dataset(synth)
    checks = {}

    fit(datasets, model, train, out_dir=tmp_path / "run1")
    fit(datasets, model, train, out_dir=tmp_path / "run2")
    checks["history_csv_bit_exact"] = (
        (tmp_path / "run1" / "history.csv").read_bytes() == (tmp_path / "run2" / "history.csv").read_bytes()
    )

    save_dataset(datasets, tmp_path / "data")
    loaded = load_dataset(tmp_path / "data")
    checks["dataset_roundtrip_bit_exact"] = all(loaded[s].equal(datasets[s]) for s in datasets)

    checkpoint, _ = fit(datasets, model, train)
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    reloaded = load_checkpoint(tmp_path / "ckpt")
    # every field a checkpoint holds: the parameters and the run's metadata
    checks["checkpoint_roundtrip_bit_exact"] = (
        list(reloaded.params) == list(checkpoint.params)
        and all(np.array_equal(reloaded.params[n], checkpoint.params[n]) for n in checkpoint.params)
        and reloaded.epoch == checkpoint.epoch
        and reloaded.best_val_mae == checkpoint.best_val_mae
        and reloaded.model_config == checkpoint.model_config
        and reloaded.train_config == checkpoint.train_config
        and reloaded.ablation == checkpoint.ablation
    )

    failed = [k for k, v in checks.items() if not v]
    report(8, not failed, f"failed round-trips: {failed or 'none'}")


# -- criterion 9: gap metric arithmetic fixture ---------------------------------------------------------


def test_criterion_9_gap_metric_fixture():
    gap = performance_gap((0.506, 87.6), (0.550, 84.2))
    ok = abs(gap[0] - 0.044) < 1e-12 and abs(gap[1] - 3.4) < 1e-12
    report(9, ok, f"performance_gap((0.506, 87.6), (0.550, 84.2)) = "
                  f"({gap[0]:.3f}, {gap[1]:.1f}), expected (0.044, 3.4)")
