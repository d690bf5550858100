"""Double-flow self-distillation training, evaluation, ablations, and exports.

Each training step runs two flows of the shared-parameter network: the
complete flow sees real text with imagination off; the missing flow sees the
simulated text with imagination on. Both run as one forward: text over 2n
rows (complete rows first, then missing rows), audio and vision over n rows
shared by both flows. Each flow's half gives the same values as that flow run
alone, and validation runs both inference modes stacked in the same way. The
complete rows' text representations act as detached distillation targets for
the missing rows. Early stopping monitors the complete-mode validation MAE and
the best-MAE parameters are returned. A forward reads the `ParamStore` in a
training step, and constant Tensors over the arrays in `_predict`.

The model's input sizes are not configured: `fit` reads each modality's raw
feature size from the train split. A checkpoint holds what inference reads:
the parameters, as one array, and the run's metadata, not the optimizer
state. Checkpoints are records of the dataset's envelope and codec
(`data.save_record`/`data.open_record`, `data.write_tensor`/
`data.read_tensor`); this module picks only their format tag and fields.
"""

from __future__ import annotations

import csv
import math
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    SPLITS,
    DatasetError,
    batch_iter,
    config_from,
    open_record,
    read_tensor,
    require_object,
    require_splits,
    save_record,
    write_tensor,
)
from .fusion import MODALITIES, ModelConfig, init_model, param_shapes, project_modality, umca_forward
from .losses import LOSS_TERMS, LossWeights, make_report, mkd_loss, rnc_loss, rs_loss, task_loss, total_loss
from .nn import AdamState, adam_step, check_field_types, require_positive
from .tensor import Tensor, backward

HISTORY_COLUMNS = ("epoch", *LOSS_TERMS, "val_mae_complete", "val_mae_missing")

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
        elif not isinstance(self.weights, LossWeights):
            raise TypeError(f"train config: weights must be an object of loss weights, got {self.weights!r}")
        require_positive("train config: lr", self.lr)  # first, so a non-number names the whole rule
        check_field_types(self, "train config")
        if self.epochs < 1:
            raise ValueError("train config: epochs must be >= 1")
        if self.patience < 0 or self.patience > self.epochs:
            raise ValueError("train config: need 0 <= patience <= epochs")
        if self.batch_size < 2:
            raise ValueError("train config: batch_size must be >= 2 (rank contrast needs pairs)")
        if self.seed < 0:
            raise ValueError(f"train config: seed must be >= 0, got {self.seed}")
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

    def __post_init__(self):
        check_field_types(self, "ablation")


@dataclass
class Checkpoint:
    params: dict  # name -> ndarray
    epoch: int
    best_val_mae: float
    model_config: ModelConfig
    train_config: TrainConfig
    ablation: AblationSpec


# -- forward flows -----------------------------------------------------------------

MODES = ("complete", "missing")


def _flow(batch, params, model_config, modes, ablation):
    """One forward pass of the parameter mapping `params` over the given
    modes' text stacked on the batch axis, in MODES order, against one shared
    audio and vision input; the only place the two modes differ.

    complete: real text, imagination off. missing: simulated text (zeros when
    use_sim_text is off), imagination on its rows unless use_mia is off.
    Each mode's rows see the same graph as that mode alone.
    """
    texts = []
    for mode in modes:
        if mode == "complete":
            texts.append(batch.text)
        else:
            texts.append(batch.sim_text if ablation.use_sim_text else np.zeros_like(batch.sim_text))
    gate_from = batch.n * modes.index("missing") if "missing" in modes and ablation.use_mia else None

    # audio and vision are the same in every mode: umca_forward shares their n rows
    raws = {"a": batch.audio, "v": batch.vision, "t": texts[0] if len(texts) == 1 else np.concatenate(texts)}
    E = {m: project_modality(Tensor(raws[m]), m, params) for m in MODALITIES}
    return umca_forward(E, params, gate_from, model_config.tau_attn)


def run_double_flow(batch, params, model_config, ablation=None):
    """Both flows as one forward of one shared parameter mapping, with outputs
    over 2n rows: rows [:n] are the complete flow (real text, imagination off),
    rows [n:] the missing flow (simulated text, imagination on unless
    ablated). Audio and vision run once, over n rows."""
    return _flow(batch, params, model_config, MODES, ablation or AblationSpec())


def train_step(batch, store, model_config, optimizer, weights, ablation=None):
    """One optimization step over the summed weighted loss; returns the per-term report."""
    ablation = ablation or AblationSpec()
    flow = run_double_flow(batch, store, model_config, ablation)
    labels2 = np.concatenate([batch.labels, batch.labels])

    # Both flows feed the task loss (2n rows, labels duplicated) so one head
    # stays competent in both modes.
    terms = {"task": task_loss(labels2, flow.y_hat)}
    if ablation.use_mkd:
        terms["mkd1"] = mkd_loss(flow.stage1["t"])
        terms["mkd2"] = mkd_loss(flow.seq["t"])
    if ablation.use_rs:
        terms["rs"] = rs_loss(flow.r)
    if ablation.use_rnc and weights.delta > 0:
        terms["rnc"] = rnc_loss(flow.r, labels2, weights.tau_rnc)

    total = total_loss(terms, weights)
    report = make_report(terms, total)
    if not np.isfinite(report.total):
        bad = [name for name, v in zip(LOSS_TERMS, report.as_row()) if not np.isfinite(v)]
        raise FloatingPointError(f"train_step: non-finite loss term(s): {', '.join(bad)}")
    grads = backward(total)
    adam_step(optimizer, store, grads)
    return report


# -- evaluation ---------------------------------------------------------------------


def _new_helper():
    """The one helper thread of `_predict`, started by its first submit. A
    forked child makes its own, as it has none of its parent's threads."""
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1)


_new_helper()
os.register_at_fork(after_in_child=_new_helper)


def _predict(dataset, params_values, model_config, modes, ablation, batch_size=256):
    """Predictions [F, n] and final representations [F, n, D] for the F modes
    in `modes` (MODES order), gradient-free. Each forward stacks all F modes
    over batch_size // F samples, so it holds batch_size text rows whatever F
    is (more rows per forward measured slower: the arrays outgrow the cache).

    The batches are independent and build no graph: the calling thread runs
    the even-indexed ones and one helper thread the odd ones, with the same
    numpy calls per batch, so the outputs keep their bits. If either thread
    raises, the other stops after its current batch. It is one helper that
    lives as long as the process, beside a working caller, because each
    further thread and its malloc arena cost peak RSS."""
    if not modes or tuple(m for m in MODES if m in modes) != tuple(modes):
        raise ValueError(f"each mode must be one of {MODES}, in that order, got {modes!r} (split '{dataset.split}')")
    if dataset.n < 1:
        raise ValueError(f"split '{dataset.split}' has no samples to predict")
    params = {name: Tensor(arr) for name, arr in params_values.items()}
    batches = list(batch_iter(dataset, batch_size // len(modes)))
    preds = [None] * len(batches)
    reps = [None] * len(batches)
    stop = threading.Event()

    def run(first):
        try:
            for i in range(first, len(batches), 2):
                if stop.is_set():
                    return
                out = _flow(batches[i], params, model_config, modes, ablation)
                preds[i] = out.y_hat.values.reshape(len(modes), batches[i].n)
                reps[i] = out.r.values.reshape(len(modes), batches[i].n, -1)
                del out  # the rest of the flow's outputs need not outlive the batch
        except BaseException:
            stop.set()
            raise

    odd = _helper.submit(run, 1)
    try:
        run(0)
    finally:
        wait([odd])  # the helper's batches are done before this call returns or raises
    odd.result()
    return np.concatenate(preds, axis=1), np.concatenate(reps, axis=1)


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
    (preds,), _ = _predict(dataset, checkpoint.params, checkpoint.model_config, (mode,), checkpoint.ablation)
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


_SIM_BLOCK = 8  # rows of similarity_matrix per block of differences


def similarity_matrix(checkpoint, dataset):
    """Cross-flow L2 distances sorted by label: entry (i, j) = ||r_i^c - r_j^m||.

    Returns (matrix [n, n], labels sorted ascending).
    """
    if dataset.n < 2:
        raise ValueError("similarity_matrix: need at least 2 samples")
    _, (reps_c, reps_m) = _predict(dataset, checkpoint.params, checkpoint.model_config, MODES, checkpoint.ablation)
    order = np.argsort(dataset.labels, kind="stable")
    rc = reps_c[order]
    rm = reps_m[order]
    # a block of rows at a time: the same per-entry sums as one [n, n, D] difference
    matrix = np.empty((len(rc), len(rm)))
    for i in range(0, len(rc), _SIM_BLOCK):
        diff = rc[i : i + _SIM_BLOCK, None, :] - rm[None, :, :]
        diff *= diff
        matrix[i : i + _SIM_BLOCK] = np.sqrt(np.sum(diff, axis=-1))
    return matrix, dataset.labels[order]


def write_similarity_csv(path, matrix, labels):
    """First row and first column carry the sorted labels."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", *_csv_cells(labels)])
        for y, row in zip(labels, matrix):
            writer.writerow(_csv_cells([y, *row]))


def _csv_cells(values):
    """The one cell rule of every CSV this module writes: ints as they are,
    any other number as repr(float(v)), which round-trips exactly."""
    return [v if isinstance(v, int) else repr(float(v)) for v in values]


# -- training loop -------------------------------------------------------------------


def fit(datasets, model_config, train_config, ablation=None, out_dir=None):
    """Train with early stopping on complete-mode validation MAE.

    Returns (Checkpoint at the best epoch, history rows). The training steps
    run serially; with validation (see `_predict`) the fit is bit-reproducible
    per seed. With `out_dir`, writes history.csv and the checkpoint directory
    there.
    """
    ablation = ablation or AblationSpec()
    require_splits(datasets, ("train", "val"))
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
        sums = np.zeros(len(LOSS_TERMS))
        n_batches = 0
        shuffle_seed = [train_config.seed, epoch, 0x5EED]
        for batch in batch_iter(train, train_config.batch_size, shuffle_seed=shuffle_seed):
            report = train_step(batch, store, model_config, optimizer, train_config.weights, ablation)
            sums += np.array(report.as_row())
            n_batches += 1
        means = sums / n_batches

        current = {name: t.values for name, t in store.items()}
        (preds_c, preds_m), _ = _predict(val, current, model_config, MODES, ablation)
        val_mae_c = compute_metrics(val.labels, preds_c)[0]
        val_mae_m = compute_metrics(val.labels, preds_m)[0]
        history.append(
            {"epoch": epoch, **dict(zip(LOSS_TERMS, means)),
             "val_mae_complete": val_mae_c, "val_mae_missing": val_mae_m}
        )
        if val_mae_c < best_mae:
            best_mae = val_mae_c
            best_state = (store.snapshot(), epoch)
            no_improve = 0
        else:
            no_improve += 1
        if no_improve >= train_config.patience:
            break

    params, best_epoch = best_state
    checkpoint = Checkpoint(
        params=params,
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
            writer.writerow(_csv_cells(row[c] for c in HISTORY_COLUMNS))


# -- checkpoint persistence ------------------------------------------------------------


CHECKPOINT_FORMAT = "modalflow-checkpoint-v4"
CHECKPOINT_KEYS = ("epoch", "best_val_mae", "model_config", "train_config", "ablation", "raw_dims", "tensors")


def save_checkpoint(checkpoint, path):
    """Directory with manifest.json and one tensor, `params` (the dataset
    codec): every parameter end to end in `fusion.param_shapes` order, the
    `ParamStore` layout. A load checks only that tensor's length, which a
    transposed weight keeps, so any parameter that is missing, extra or of
    another shape raises ValueError naming it, before anything is written."""
    params = checkpoint.params
    got = {name: np.shape(a) for name, a in params.items()}
    raw_dims = {m: (got.get(f"proj.{m}.W") or (None,))[0] for m in MODALITIES}  # a bad W fails the check below
    shapes = param_shapes(checkpoint.model_config, raw_dims)
    if got != shapes:
        name = next(name for name in [*shapes, *got] if got.get(name) != shapes.get(name))
        what = ("is not a model parameter" if name not in shapes else "is missing" if name not in got
                else f"has shape {got[name]}, the model config gives {shapes[name]}")
        raise ValueError(f"save: checkpoint parameter '{name}' {what}")
    flat = np.concatenate([params[name] for name in shapes], axis=None)
    meta = {"epoch": checkpoint.epoch, "best_val_mae": checkpoint.best_val_mae}
    meta.update({key: asdict(getattr(checkpoint, key)) for key in ("model_config", "train_config", "ablation")})
    with save_record(path, CHECKPOINT_FORMAT, **meta, raw_dims=raw_dims) as (path, manifest):
        manifest["tensors"] = {"params": write_tensor(path, "params.bin", flat)}


def load_checkpoint(path):
    path = Path(path)
    if (path / "checkpoint" / "manifest.json").exists() and not (path / "manifest.json").exists():
        path = path / "checkpoint"  # accept a run directory
    manifest = open_record(path, CHECKPOINT_FORMAT, CHECKPOINT_KEYS)
    where = f"checkpoint at {path}"
    epoch, best_val_mae = manifest["epoch"], manifest["best_val_mae"]
    # type(), not isinstance: JSON true and false load as bool, a subclass of int
    if type(epoch) is not int or epoch < 1:
        raise DatasetError(f"load: {where} 'epoch' must be a positive int, got {epoch!r}")
    if type(best_val_mae) not in (int, float):
        raise DatasetError(f"load: {where} 'best_val_mae' must be a number, got {best_val_mae!r}")
    raw_dims = require_object(manifest["raw_dims"], f"{where} 'raw_dims'")
    if sorted(raw_dims) != sorted(MODALITIES):
        raise DatasetError(f"load: {where} 'raw_dims' must hold exactly the keys {MODALITIES}, got {tuple(raw_dims)}")
    for m, size in raw_dims.items():
        if type(size) is not int or size < 1:
            raise DatasetError(f"load: {where} 'raw_dims' '{m}' must be a positive int, got {size!r}")
    tensors = require_object(manifest["tensors"], f"{where} 'tensors'")
    if list(tensors) != ["params"]:
        raise DatasetError(f"load: {where} 'tensors' must hold exactly one entry, 'params', got {list(tensors)}")
    flat = read_tensor(path, tensors["params"], "params")
    model_config = config_from(ModelConfig, manifest, "model_config", where)
    shapes = param_shapes(model_config, raw_dims)
    total = sum(math.prod(shape) for shape in shapes.values())
    if flat.shape != (total,):
        raise DatasetError(
            f"load: {where} tensor 'params' has shape {flat.shape}, {flat.size} values; "
            f"the stored model config and raw_dims give {total} values in one axis"
        )
    params, end = {}, 0
    for name, shape in shapes.items():  # views into the one array, as a ParamStore lays them
        start, end = end, end + math.prod(shape)
        params[name] = flat[start:end].reshape(shape)
    return Checkpoint(
        params=params,
        epoch=epoch,
        best_val_mae=float(best_val_mae),
        model_config=model_config,
        train_config=config_from(TrainConfig, manifest, "train_config", where),
        ablation=config_from(AblationSpec, manifest, "ablation", where),
    )


# -- ablation runner --------------------------------------------------------------------


# The grid's toggle columns, each with the AblationSpec field it reads.
ABLATION_FLAGS = (
    ("llm_g", "use_sim_text"), ("mia", "use_mia"), ("l_mkd", "use_mkd"), ("l_rs", "use_rs"), ("l_rnc", "use_rnc"),
)
_ABLATION_MODES = ("missing", "complete")  # each run's test metrics, in column order
ABLATION_COLUMNS = (
    *(column for column, _ in ABLATION_FLAGS),
    *(f"{mode}_{metric}" for mode in _ABLATION_MODES for metric in ("mae", "acc")),
    "n_seeds",
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
    """(spec_index, seed_index, test metrics in column order) of one grid cell."""
    datasets, model_config, train_config, spec, spec_index, seed_index = payload
    run_cfg = replace(train_config, seed=derive_run_seed(train_config.seed, spec_index, seed_index))
    checkpoint, _ = fit(datasets, model_config, run_cfg, ablation=spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics = [v for mode in _ABLATION_MODES for v in evaluate(datasets["test"], checkpoint, mode)]
    return spec_index, seed_index, metrics


def _flag_values(spec):
    return [int(getattr(spec, name)) for _, name in ABLATION_FLAGS]


def run_ablation(datasets, model_config, train_config, specs=DEFAULT_ABLATION_GRID, n_seeds=3, out_dir=None, jobs=1):
    """Train every spec with n_seeds derived seeds; report per-spec test means.

    Runs go to a pool of `jobs` worker processes when jobs > 1, and results
    are taken in grid order either way. Per-run rows are persisted as they
    complete (runs.csv) so partial results survive interruption; the summary
    table lands in ablation.csv.
    """
    if n_seeds < 1:
        raise ValueError("run_ablation: n_seeds must be >= 1")
    if jobs < 1:
        raise ValueError(f"run_ablation: jobs must be >= 1, got {jobs}")
    require_splits(datasets, SPLITS)
    out_dir = Path(out_dir) if out_dir is not None else None
    payloads = [
        (datasets, model_config, train_config, spec, si, ki)
        for si, spec in enumerate(specs)
        for ki in range(n_seeds)
    ]
    results = [[] for _ in specs]
    with ExitStack() as stack:
        runs_writer = None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            runs_fh = stack.enter_context((out_dir / "runs.csv").open("w", newline=""))
            runs_writer = csv.writer(runs_fh)
            runs_writer.writerow(("spec_index", "seed_index", *ABLATION_COLUMNS[:-1]))
        run_map = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map if jobs > 1 else map
        for si, ki, metrics in run_map(_ablation_run, payloads):
            results[si].append(metrics)
            if runs_writer is not None:
                runs_writer.writerow(_csv_cells([si, ki, *_flag_values(specs[si]), *metrics]))
                runs_fh.flush()

    rows = []
    for spec, runs in zip(specs, results):
        means = [float(np.mean(column)) for column in zip(*runs)]
        rows.append(dict(zip(ABLATION_COLUMNS, [*_flag_values(spec), *means, len(runs)])))
    if out_dir is not None:
        with (out_dir / "ablation.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ABLATION_COLUMNS)
            for row in rows:
                writer.writerow(_csv_cells(row.values()))
    return rows
