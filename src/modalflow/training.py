"""Double-flow self-distillation training, evaluation, ablations, and exports.

Each training step runs two flows of the shared-parameter network: the
complete flow sees real text with imagination off; the missing flow sees the
simulated text with imagination on. Both run as one forward over 2n rows
(complete rows first, then missing rows), and each half gives the same values
as its flow run alone. The complete rows' text representations act as
detached distillation targets for the missing rows. Early stopping monitors
the complete-mode validation MAE and the best-MAE parameters are returned.

The model's input sizes are not configured: `fit` reads each modality's raw
feature size from the train split. Checkpoints are stored with the dataset
tensor codec (`data.write_tensor`/`data.read_tensor`); this module picks only
their file names and manifest keys.
"""

from __future__ import annotations

import csv
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import TENSOR_DTYPE, batch_iter, check_dtype, read_tensor, write_tensor
from .fusion import MODALITIES, ModelConfig, init_model, param_views, project_modality, umca_forward
from .losses import LossWeights, make_report, mkd_loss, rnc_loss, rs_loss, task_loss, total_loss
from .nn import AdamState, adam_step
from .tensor import Tensor, backward

HISTORY_COLUMNS = (
    "epoch", "task", "mkd1", "mkd2", "rs", "rnc", "total",
    "val_mae_complete", "val_mae_missing",
)

ACC_RULES = ("sign", "sign_nonzero")


@dataclass
class TrainConfig:
    epochs: int = 50
    patience: int = 8
    batch_size: int = 32
    lr: float = 1e-3
    weights: LossWeights = field(default_factory=LossWeights)
    eval_acc_rule: str = "sign"
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.weights, dict):
            self.weights = LossWeights(**self.weights)
        if self.epochs < 1:
            raise ValueError("train config: epochs must be >= 1")
        if self.patience < 0 or self.patience > self.epochs:
            raise ValueError("train config: need 0 <= patience <= epochs")
        if self.batch_size < 2:
            raise ValueError("train config: batch_size must be >= 2 (rank contrast needs pairs)")
        if self.lr <= 0:
            raise ValueError("train config: lr must be positive")
        if self.eval_acc_rule not in ACC_RULES:
            raise ValueError(f"train config: eval_acc_rule must be one of {ACC_RULES}")


@dataclass
class AblationSpec:
    """Independent component toggles mirroring the ablation grid."""

    use_sim_text: bool = True  # off: missing flow sees zeros instead of simulated text
    use_mia: bool = True
    use_mkd: bool = True
    use_rs: bool = True
    use_rnc: bool = True


@dataclass
class Checkpoint:
    params: dict  # name -> ndarray
    optimizer: dict  # AdamState snapshot
    epoch: int
    best_val_mae: float
    model_config: ModelConfig
    train_config: TrainConfig
    ablation: AblationSpec


# -- forward flows -----------------------------------------------------------------

MODES = ("complete", "missing")


def _flow(batch, umca, mia, modes, ablation):
    """One forward pass over the given modes stacked on the batch axis, in
    MODES order; the only place the two modes differ.

    complete: real text, imagination off. missing: simulated text (zeros when
    use_sim_text is off), imagination gated by `mia` unless use_mia is off.
    Each mode's rows see the same graph as that mode alone.
    """
    texts = []
    for mode in modes:
        if mode == "complete":
            texts.append(batch.text)
        else:
            texts.append(batch.sim_text if ablation.use_sim_text else np.zeros_like(batch.sim_text))
    gate = mia if "missing" in modes and ablation.use_mia else None
    gate_from = batch.n * modes.index("missing") if gate is not None else 0

    def stack(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    raws = {"a": stack([batch.audio] * len(modes)), "v": stack([batch.vision] * len(modes)), "t": stack(texts)}
    E = {m: project_modality(Tensor(raws[m]), m, umca) for m in MODALITIES}
    return umca_forward(E, umca, gate, gate_from=gate_from)


def run_double_flow(batch, params, model_config, ablation=None):
    """Both flows as one forward over 2n rows of one shared parameter mapping:
    rows [:n] are the complete flow (real text, imagination off), rows [n:]
    the missing flow (simulated text, imagination on unless ablated)."""
    ablation = ablation or AblationSpec()
    umca, mia1, mia2 = param_views(params, model_config)
    return _flow(batch, umca, (mia1, mia2), MODES, ablation)


def train_step(batch, store, model_config, optimizer, weights, ablation=None):
    """One optimization step over the summed weighted loss; returns the per-term report."""
    ablation = ablation or AblationSpec()
    flow = run_double_flow(batch, store, model_config, ablation)
    n = batch.n
    labels2 = np.concatenate([batch.labels, batch.labels])

    def halves(t):
        return t.narrow(0, 0, n), t.narrow(0, n, 2 * n)

    # Both flows feed the task loss (2n rows, labels duplicated) so one head
    # stays competent in both modes.
    task = task_loss(labels2, flow.y_hat)
    mkd1 = mkd2 = rs = rnc = None
    if ablation.use_mkd:
        mkd1 = mkd_loss(*halves(flow.stage1["t"]))
        mkd2 = mkd_loss(*halves(flow.seq["t"]))
    if ablation.use_rs:
        rs = rs_loss(*halves(flow.r))
    if ablation.use_rnc and weights.delta > 0:
        rnc = rnc_loss(flow.r, labels2, weights.tau_rnc)

    total = total_loss(task, weights, mkd1=mkd1, mkd2=mkd2, rs=rs, rnc=rnc)
    report = make_report(total, task, mkd1=mkd1, mkd2=mkd2, rs=rs, rnc=rnc)
    if not np.isfinite(report.total):
        bad = [name for name, v in zip(("task", "mkd1", "mkd2", "rs", "rnc"), report.as_row()) if not np.isfinite(v)]
        raise FloatingPointError(f"train_step: non-finite loss term(s): {', '.join(bad)}")
    grads = backward(total)
    adam_step(optimizer, store, grads)
    return report


# -- evaluation ---------------------------------------------------------------------


def _predict(dataset, params_values, model_config, mode, ablation, batch_size=256):
    """Predictions and final representations for one mode, gradient-free."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r} (split '{dataset.split}')")
    if dataset.n < 1:
        raise ValueError(f"split '{dataset.split}' has no samples to predict")
    umca, mia1, mia2 = param_views({name: Tensor(arr) for name, arr in params_values.items()}, model_config)
    mia = (mia1, mia2)
    preds = []
    reps = []
    for batch in batch_iter(dataset, batch_size):
        out = _flow(batch, umca, mia, (mode,), ablation)
        preds.append(out.y_hat.values)
        reps.append(out.r.values)
    return np.concatenate(preds), np.concatenate(reps)


def compute_metrics(labels, preds, acc_rule="sign"):
    """MAE plus binary sign accuracy in percent."""
    labels = np.asarray(labels, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    mae = float(np.mean(np.abs(labels - preds)))
    if acc_rule == "sign":
        keep = np.ones(len(labels), dtype=bool)
    elif acc_rule == "sign_nonzero":
        keep = labels != 0
    else:
        raise ValueError(f"unknown acc rule {acc_rule!r}")
    acc = float(np.mean((preds[keep] > 0) == (labels[keep] > 0)) * 100.0)
    return mae, acc


def evaluate(dataset, checkpoint, mode):
    """(MAE, ACC) of a checkpoint on one dataset in one inference mode, with
    the checkpoint's accuracy rule."""
    preds, _ = _predict(dataset, checkpoint.params, checkpoint.model_config, mode, checkpoint.ablation)
    if mode == "missing" and not (checkpoint.ablation.use_mia or checkpoint.ablation.use_mkd):
        warnings.warn(
            "checkpoint was trained without imagination or distillation; "
            "missing-mode evaluation may be degraded",
            stacklevel=2,
        )
    return compute_metrics(dataset.labels, preds, checkpoint.train_config.eval_acc_rule)


def performance_gap(metrics_complete, metrics_missing):
    """Absolute (MAE, ACC) differences between the two inference modes."""
    mae_c, acc_c = metrics_complete
    mae_m, acc_m = metrics_missing
    return abs(mae_m - mae_c), abs(acc_c - acc_m)


def similarity_matrix(checkpoint, dataset):
    """Cross-flow L2 distances sorted by label: entry (i, j) = ||r_i^c - r_j^m||.

    Returns (matrix [n, n], labels sorted ascending).
    """
    if dataset.n < 2:
        raise ValueError("similarity_matrix: need at least 2 samples")
    _, reps_c = _predict(dataset, checkpoint.params, checkpoint.model_config, "complete", checkpoint.ablation)
    _, reps_m = _predict(dataset, checkpoint.params, checkpoint.model_config, "missing", checkpoint.ablation)
    order = np.argsort(dataset.labels, kind="stable")
    rc = reps_c[order]
    rm = reps_m[order]
    diff = rc[:, None, :] - rm[None, :, :]
    matrix = np.sqrt(np.sum(diff * diff, axis=-1))
    return matrix, dataset.labels[order]


def write_similarity_csv(path, matrix, labels):
    """First row and first column carry the sorted labels."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [repr(float(y)) for y in labels])
        for y, row in zip(labels, matrix):
            writer.writerow([repr(float(y))] + [repr(float(v)) for v in row])


# -- training loop -------------------------------------------------------------------


def fit(datasets, model_config, train_config, ablation=None, out_dir=None):
    """Train with early stopping on complete-mode validation MAE.

    Returns (Checkpoint at the best epoch, history rows). Serial and
    bit-reproducible per seed. With `out_dir`, writes history.csv and the
    checkpoint directory there.
    """
    ablation = ablation or AblationSpec()
    train = datasets["train"]
    val = datasets["val"]
    if train.n == 0 or val.n == 0:
        raise ValueError("fit: empty dataset split")

    raw_dims = {"a": train.audio.shape[-1], "v": train.vision.shape[-1], "t": train.text.shape[-1]}
    store = init_model(model_config, raw_dims, train_config.seed)
    optimizer = AdamState(lr=train_config.lr)

    best_mae = np.inf
    best_state = None
    no_improve = 0
    history = []
    for epoch in range(1, train_config.epochs + 1):
        sums = np.zeros(6)
        n_batches = 0
        shuffle_seed = [train_config.seed, epoch, 0x5EED]
        for batch in batch_iter(train, train_config.batch_size, shuffle_seed=shuffle_seed):
            report = train_step(batch, store, model_config, optimizer, train_config.weights, ablation)
            sums += np.array(report.as_row())
            n_batches += 1
        means = sums / n_batches

        current = {name: t.values for name, t in store.items()}
        preds_c, _ = _predict(val, current, model_config, "complete", ablation)
        preds_m, _ = _predict(val, current, model_config, "missing", ablation)
        val_mae_c = compute_metrics(val.labels, preds_c)[0]
        val_mae_m = compute_metrics(val.labels, preds_m)[0]
        history.append(
            {
                "epoch": epoch,
                "task": means[0], "mkd1": means[1], "mkd2": means[2],
                "rs": means[3], "rnc": means[4], "total": means[5],
                "val_mae_complete": val_mae_c,
                "val_mae_missing": val_mae_m,
            }
        )
        if val_mae_c < best_mae:
            best_mae = val_mae_c
            best_state = (store.snapshot(), optimizer.snapshot(), epoch)
            no_improve = 0
        else:
            no_improve += 1
        if no_improve >= train_config.patience:
            break

    params, opt_snap, best_epoch = best_state
    checkpoint = Checkpoint(
        params=params,
        optimizer=opt_snap,
        epoch=best_epoch,
        best_val_mae=best_mae,
        model_config=model_config,
        train_config=train_config,
        ablation=ablation,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_history_csv(out_dir / "history.csv", history)
        save_checkpoint(checkpoint, out_dir / "checkpoint")
    return checkpoint, history


def write_history_csv(path, history):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow([row["epoch"]] + [repr(float(row[c])) for c in HISTORY_COLUMNS[1:]])


# -- checkpoint persistence ------------------------------------------------------------


def save_checkpoint(checkpoint, path):
    """Directory with manifest.json plus per-tensor .bin (the dataset codec)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "modalflow-checkpoint-v2",
        "dtype": TENSOR_DTYPE,
        "epoch": checkpoint.epoch,
        "best_val_mae": checkpoint.best_val_mae,
        "optimizer_step": checkpoint.optimizer["step"],
        "model_config": asdict(checkpoint.model_config),
        "train_config": asdict(checkpoint.train_config),
        "ablation": asdict(checkpoint.ablation),
        "tensors": {},
    }
    groups = {"param": checkpoint.params, "adam_m": checkpoint.optimizer["m"], "adam_v": checkpoint.optimizer["v"]}
    items = [(f"{group}:{name}", arr) for group, tensors in groups.items() for name, arr in tensors.items()]
    for i, (key, arr) in enumerate(items):
        manifest["tensors"][key] = write_tensor(path, f"t{i:04d}.bin", arr)
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_checkpoint(path):
    path = Path(path)
    if (path / "checkpoint" / "manifest.json").exists() and not (path / "manifest.json").exists():
        path = path / "checkpoint"  # accept a run directory
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no checkpoint manifest under {path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "modalflow-checkpoint-v2":
        raise ValueError(f"unrecognized checkpoint format {manifest.get('format')!r}")
    check_dtype(manifest, manifest_path)

    groups = {"param": {}, "adam_m": {}, "adam_v": {}}
    for key, entry in manifest["tensors"].items():
        group, sep, name = key.partition(":")
        if not sep or group not in groups:
            raise ValueError(f"checkpoint tensor '{key}': group must be one of {tuple(groups)}")
        groups[group][name] = read_tensor(path, entry, key)
    model_config = ModelConfig(**manifest["model_config"])
    try:
        param_views(groups["param"], model_config)
    except KeyError as exc:
        raise ValueError(f"checkpoint at {path} lacks model parameter 'param:{exc.args[0]}'") from None
    return Checkpoint(
        params=groups["param"],
        optimizer={"step": int(manifest["optimizer_step"]), "m": groups["adam_m"], "v": groups["adam_v"]},
        epoch=int(manifest["epoch"]),
        best_val_mae=float(manifest["best_val_mae"]),
        model_config=model_config,
        train_config=TrainConfig(**manifest["train_config"]),
        ablation=AblationSpec(**manifest["ablation"]),
    )


# -- ablation runner --------------------------------------------------------------------


ABLATION_COLUMNS = (
    "llm_g", "mia", "l_mkd", "l_rs", "l_rnc",
    "missing_mae", "missing_acc", "complete_mae", "complete_acc", "n_seeds",
)

# Grid mirroring the module-toggle table: each component off once, plus the full model.
DEFAULT_ABLATION_GRID = (
    AblationSpec(use_sim_text=False),
    AblationSpec(use_mia=False, use_mkd=False),
    AblationSpec(use_mia=False),
    AblationSpec(use_mkd=False),
    AblationSpec(use_rs=False),
    AblationSpec(use_rnc=False),
    AblationSpec(),
)


def derive_run_seed(base_seed, spec_index, seed_index):
    """Stable per-run seed; (0, 0) reproduces a plain fit at the base seed."""
    return int(base_seed) + 100003 * int(spec_index) + 7919 * int(seed_index)


def _ablation_run(payload):
    datasets, model_config, train_config, spec, spec_index, seed_index = payload
    run_cfg = replace(train_config, seed=derive_run_seed(train_config.seed, spec_index, seed_index))
    checkpoint, _ = fit(datasets, model_config, run_cfg, ablation=spec)
    test = datasets["test"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        missing = evaluate(test, checkpoint, "missing")
        complete = evaluate(test, checkpoint, "complete")
    return spec_index, seed_index, missing, complete


def run_ablation(datasets, model_config, train_config, specs=DEFAULT_ABLATION_GRID, n_seeds=3, out_dir=None, jobs=1):
    """Train every spec with n_seeds derived seeds; report per-spec test means.

    Per-run rows are persisted as they complete (runs.csv) so partial results
    survive interruption; the summary table lands in ablation.csv.
    """
    if n_seeds < 1:
        raise ValueError("run_ablation: n_seeds must be >= 1")
    out_dir = Path(out_dir) if out_dir is not None else None
    runs_fh = None
    runs_writer = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        runs_fh = (out_dir / "runs.csv").open("w", newline="")
        runs_writer = csv.writer(runs_fh)
        runs_writer.writerow(
            ("spec_index", "seed_index", "llm_g", "mia", "l_mkd", "l_rs", "l_rnc",
             "missing_mae", "missing_acc", "complete_mae", "complete_acc")
        )

    payloads = [
        (datasets, model_config, train_config, spec, si, ki)
        for si, spec in enumerate(specs)
        for ki in range(n_seeds)
    ]
    results = {}

    def record(spec_index, seed_index, missing, complete):
        results.setdefault(spec_index, []).append((missing, complete))
        if runs_writer is not None:
            spec = specs[spec_index]
            runs_writer.writerow(
                [spec_index, seed_index,
                 int(spec.use_sim_text), int(spec.use_mia), int(spec.use_mkd),
                 int(spec.use_rs), int(spec.use_rnc),
                 repr(missing[0]), repr(missing[1]), repr(complete[0]), repr(complete[1])]
            )
            runs_fh.flush()

    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for res in pool.map(_ablation_run, payloads):
                    record(*res)
        else:
            for payload in payloads:
                record(*_ablation_run(payload))
    finally:
        if runs_fh is not None:
            runs_fh.close()

    rows = []
    for si, spec in enumerate(specs):
        runs = results[si]
        missing_mae = float(np.mean([m[0] for m, _ in runs]))
        missing_acc = float(np.mean([m[1] for m, _ in runs]))
        complete_mae = float(np.mean([c[0] for _, c in runs]))
        complete_acc = float(np.mean([c[1] for _, c in runs]))
        rows.append(
            {
                "llm_g": int(spec.use_sim_text), "mia": int(spec.use_mia),
                "l_mkd": int(spec.use_mkd), "l_rs": int(spec.use_rs), "l_rnc": int(spec.use_rnc),
                "missing_mae": missing_mae, "missing_acc": missing_acc,
                "complete_mae": complete_mae, "complete_acc": complete_acc,
                "n_seeds": len(runs),
            }
        )
    if out_dir is not None:
        with (out_dir / "ablation.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ABLATION_COLUMNS)
            for row in rows:
                writer.writerow([row[c] if isinstance(row[c], int) else repr(row[c]) for c in ABLATION_COLUMNS])
    return rows
