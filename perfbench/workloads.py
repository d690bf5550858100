"""The benchmark's workloads: set-up, rounds of timed work, correctness checks, metrics.

Every workload is a closed loop with one client in one process. It builds its
inputs from the workload seed alone (the library sees only the generated
`SynthConfig`/`TrainConfig`; see run_config) and calls the library the way
`modalflow gen-data`, `modalflow train` and `modalflow eval` do:

- set-up (SETUP_REPEATS times, median reported as `setup_s`): build the run
  config, generate the dataset, save it, load it back; the eval workload also
  trains and saves its checkpoint here;
- fits: whole `training.fit` calls (patience = epochs, so early stopping never
  cuts a fit short), each writing its run directory;
- eval calls: `load_checkpoint` + `load_dataset` + `evaluate` on the test split
  in complete and missing mode.

Every workload reports every end-to-end metric. A run is a series of rounds,
so that the figures of both kinds sample the host over the whole run rather
than over one stretch of it (the host's speed drifts in phases):

- train-b32, train-b128: set-up, then rounds of one fit and
  EVAL_CALLS_PER_ROUND eval calls on its checkpoint;
- eval-both-modes: SETUP_REPEATS rounds of one set-up and `--seconds` /
  SETUP_REPEATS of eval calls; its train figures come from the set-up fits.

Rounds go on until `--seconds` have passed, and until at least 10 samples lie
above each reported p90 (unless an operation has failed). In a traced run,
odd rounds are traced.

A failed operation is counted, never raised: a metric whose samples are
missing (say every fit failed) is left out of the result, which then reads
`correct: false`.
"""

from __future__ import annotations

import bisect
import math
import resource
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from modalflow import config as mf_config
from modalflow import data, fusion, losses, tensor, training

from rules import count_above, nearest_rank, tail_resolved
from spans import Tracer, summarize

TRAIN_UNIT = "training.train_step"
EVAL_UNIT = "bench.eval_call"

SETUP_REPEATS = 3
WARMUP_STEPS = 3  # first steps of a run, excluded from the step statistics
EVAL_CALLS_PER_ROUND = 50  # train workloads: eval calls after each fit
RUN_CAP_S = 130.0  # no round starts that would end past this
RNC_PROBE_MIN_S = 1.0
RNC_PROBE_MIN_REPS = 3
REF_TICK_S = 0.1  # at most one reference tick per this many seconds
REF_NOMINAL_MS = 1.0  # end-to-end times are reported at this reference speed
REF_WINDOW_S = 1.5  # a timed sample is scaled by the ticks within this many seconds of it
REF_WINDOW_MIN = 3  # fewer ticks than this in the window: scale by every tick of the run

# Train workloads fit four epochs at a time, so both MAEs are past the first
# steep epochs; across ten training seeds the batch-32 validation MAE spread
# (IQR / median) measured 7-12%. The eval workload's set-up fits only two, to
# keep its three set-ups short; its test MAE spread 2-5%.
WORKLOADS = {
    # the default config users and the tier-1 suite run; per-op overhead rules
    "train-b32": {"primary": "train", "batch_size": 32, "epochs": 4},
    # same config at batch 128; the [2N,2N,2N] rank-contrast mask dominates
    "train-b128": {"primary": "train", "batch_size": 128, "epochs": 4},
    # forward-only eval calls on a checkpoint trained during set-up
    "eval-both-modes": {"primary": "eval", "batch_size": 32, "epochs": 2},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "epoch_s": "s",
    "eval_samples_per_s": "samples/s",
    "eval_call_ms_p50": "ms",
    "eval_call_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "mae_complete": "valence",
    "mae_missing": "valence",
    "ok_ratio": "ratio",
}

# (metric, span name, summary field, unit). A metric reads its span in the
# workload's own unit kind when the span runs there, else in the other unit
# kind, else outside units (per call); see WorkloadRun.span_row.
SPAN_METRICS = (
    ("tensor.backward.ms", "tensor.backward", "ms", "ms"),
    ("fusion.umca_forward.complete_ms", "fusion.umca_forward.complete", "ms", "ms"),
    ("fusion.umca_forward.missing_ms", "fusion.umca_forward.missing", "ms", "ms"),
    ("fusion.project_modality.ms", "fusion.project_modality", "ms", "ms"),
    ("fusion.project_modality.calls", "fusion.project_modality", "calls_per_basis", "count"),
    ("fusion.cross_attend.stage1_ms", "fusion.cross_attend.stage1", "ms", "ms"),
    ("fusion.cross_attend.stage1_calls", "fusion.cross_attend.stage1", "calls_per_basis", "count"),
    ("fusion.cross_attend.stage2_ms", "fusion.cross_attend.stage2", "ms", "ms"),
    ("fusion.afg_weights.ms", "fusion.afg_weights", "ms", "ms"),
    ("fusion.multiview_queries.ms", "fusion.multiview_queries", "ms", "ms"),
    ("fusion.regress.ms", "fusion.regress", "ms", "ms"),
    ("imagination.mia_forward.ms", "imagination.mia_forward", "ms", "ms"),
    ("losses.task_loss.ms", "losses.task_loss", "ms", "ms"),
    ("losses.mkd_loss.ms", "losses.mkd_loss", "ms", "ms"),
    ("losses.rs_loss.ms", "losses.rs_loss", "ms", "ms"),
    ("losses.rnc_loss.ms", "losses.rnc_loss", "ms", "ms"),
    ("nn.adam_step.ms", "nn.adam_step", "ms", "ms"),
    ("data.load_dataset.ms", "data.load_dataset", "ms", "ms"),
    ("training.run_double_flow.ms", "training.run_double_flow", "ms", "ms"),
    ("training.train_step.self_ms", TRAIN_UNIT, "self_ms", "ms"),
    ("training.evaluate.ms", "training.evaluate", "ms", "ms"),
    ("training.load_checkpoint.ms", "training.load_checkpoint", "ms", "ms"),
    ("training.save_checkpoint.ms", "training.save_checkpoint", "ms", "ms"),
)

PER_LAYER_UNITS = {name: unit for name, _, _, unit in SPAN_METRICS}
PER_LAYER_UNITS.update({
    "data.batch_iter.ms": "ms",
    "tensor.graph_nodes": "count",
    "tensor.graph_mb": "MB",
    "losses.rnc_loss.bwd_ms": "ms",
    "data.generate_dataset.s": "s",
    "training.fit.self_ms_per_epoch": "ms",
    "trace_overhead_pct": "%",
    "trace.unit_covered_pct": "%",
})


def _umca_span(parent, args, kwargs):
    mia = kwargs.get("mia", args[2] if len(args) > 2 else None)
    return "fusion.umca_forward.complete" if mia is None else "fusion.umca_forward.missing"


def _cross_attend_span(parent, args, kwargs):
    return "fusion.cross_attend.stage2" if parent == "fusion.stage2_fuse" else "fusion.cross_attend.stage1"


def _batch_iter_span(parent, args, kwargs):
    # fit's training loop shuffles; validation and evaluate (via _predict) do not
    return "data.batch_iter.train" if kwargs.get("shuffle_seed") is not None else "data.batch_iter.predict"


def traced_bindings():
    """(module, attribute, span name, kind): each function is rebound in the
    namespace its callers look it up in."""
    t, f, d = training, fusion, data
    return [
        (t, "fit", "training.fit", "call"),
        (t, "train_step", TRAIN_UNIT, "call"),
        (t, "run_double_flow", "training.run_double_flow", "call"),
        (t, "evaluate", "training.evaluate", "call"),
        (t, "save_checkpoint", "training.save_checkpoint", "call"),
        (t, "load_checkpoint", "training.load_checkpoint", "call"),
        (t, "batch_iter", _batch_iter_span, "iter"),
        (t, "project_modality", "fusion.project_modality", "call"),
        (t, "umca_forward", _umca_span, "call"),
        (t, "task_loss", "losses.task_loss", "call"),
        (t, "mkd_loss", "losses.mkd_loss", "call"),
        (t, "rs_loss", "losses.rs_loss", "call"),
        (t, "rnc_loss", "losses.rnc_loss", "call"),
        (t, "backward", "tensor.backward", "call"),
        (t, "adam_step", "nn.adam_step", "call"),
        (f, "cross_attend", _cross_attend_span, "call"),
        (f, "stage2_fuse", "fusion.stage2_fuse", "call"),
        (f, "afg_weights", "fusion.afg_weights", "call"),
        (f, "multiview_queries", "fusion.multiview_queries", "call"),
        (f, "regress", "fusion.regress", "call"),
        (f, "mia_forward", "imagination.mia_forward", "call"),
        (d, "generate_dataset", "data.generate_dataset", "call"),
        (d, "save_dataset", "data.save_dataset", "call"),
        (d, "load_dataset", "data.load_dataset", "call"),
    ]


def run_config(spec, seed):
    """The run config the CLI would build from `--set` overrides.

    The workload seed is the training seed (weight init and batch order). The
    dataset is the default config's: a data seed redraws the label scale and
    signal strength and moves MAE by ~40% between seeds, which would leave
    mae_* with no usable bound.
    """
    epochs = spec["epochs"]
    overrides = [
        f"train.seed={seed}",
        f"train.batch_size={spec['batch_size']}",
        f"train.epochs={epochs}",
        f"train.patience={epochs}",
    ]
    return mf_config.build_config(mf_config.apply_overrides({}, overrides))


def mean_baseline_mae(train_labels, labels):
    """MAE of predicting the train-label mean for every sample."""
    return float(np.mean(np.abs(labels - np.mean(train_labels))))


class Reference:
    """A fixed numpy + Python kernel shaped like the engine's per-op work
    (small batched matmuls, tanh, reductions), timed between units of work.

    The host's CPU speed drifts in phases of seconds to minutes, by up to
    ~60%, so runs of identical code can differ more than any usable bound.
    The median tick within REF_WINDOW_S of a timed sample measures the host's
    speed while that sample ran, and the sample is scaled by it (see
    `factor`). The kernel uses nothing from the library, so a change to the
    library cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0xCA1B)
        self.x0 = rng.normal(size=(32, 8, 32))
        self.w = rng.normal(size=(32, 32)) * 0.1
        self.tick_ends = []  # perf_counter at the end of each tick, increasing
        self.ticks = []  # seconds per tick
        self._last = -math.inf

    def kernel(self):
        x = self.x0
        for _ in range(15):
            x = np.tanh(x @ self.w) + self.x0
            x = x - x.mean(axis=-1, keepdims=True)
        return float(x.sum())

    def maybe_tick(self):
        if time.perf_counter() - self._last >= REF_TICK_S:
            t0 = time.perf_counter()
            self.kernel()
            self._last = time.perf_counter()
            self.tick_ends.append(self._last)
            self.ticks.append(self._last - t0)

    def factor(self, end, seconds):
        """Scale for a sample of `seconds` that ended at `end`: REF_NOMINAL_MS
        over the median tick (ms) within REF_WINDOW_S of the sample, or over
        every tick when fewer than REF_WINDOW_MIN lie there."""
        lo = bisect.bisect_left(self.tick_ends, end - seconds - REF_WINDOW_S)
        hi = bisect.bisect_right(self.tick_ends, end + REF_WINDOW_S)
        near = self.ticks[lo:hi] if hi - lo >= REF_WINDOW_MIN else self.ticks
        return REF_NOMINAL_MS / (1000.0 * statistics.median(near))


def unscaled(end, seconds):
    return 1.0


class WorkloadRun:
    """One run of one workload; collects samples, failures and spans."""

    def __init__(self, name, seed, seconds, work_dir, traced):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = Path(work_dir)
        self.tracer = Tracer(unit_names=(TRAIN_UNIT, EVAL_UNIT)) if traced else None
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # every timed sample starts with the perf_counter at its end
        self.setups = []  # (end, seconds)
        self.steps = []  # (end, seconds, samples, traced) per train step
        self.fits = []  # (end, wall seconds, epochs, traced) per completed fit
        self.eval_calls = []  # (end, call seconds, evaluate seconds, samples, traced)
        self.maes = {}  # "fit"/"eval" -> (complete, missing) of the first of each
        self.graph = []  # (nodes, bytes) per probed train step
        self.rnc_bwd_s = []
        self._probe_graph = False
        self.reference = Reference()

    # -- bookkeeping ---------------------------------------------------------------

    def _op(self, what, checks):
        """Count one operation; it fails if any (ok, message) check fails."""
        self.attempted += 1
        bad = [msg for ok, msg in checks if not ok]
        if bad:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(bad)}")
        return not bad

    def _same_maes(self, kind, maes):
        """Check that every fit (or eval call) of the run gives bit-identical MAEs."""
        first = self.maes.setdefault(kind, maes)
        return maes == first, f"MAE {maes} differs from the first {kind} {first}"

    @contextmanager
    def _round(self, traced=False):
        """Time the block's train steps, and trace the block when this is a
        traced run and `traced` is set. The step timer wraps the tracer's
        wrappers, so its checks and the reference tick stay out of the spans."""
        if self.tracer is None or not traced:
            with self._step_timer():
                yield
            return
        self.tracing = True
        try:
            with self.tracer.installed(traced_bindings()), self._graph_probe(), self._step_timer():
                yield
        finally:
            self.tracing = False

    @contextmanager
    def _step_timer(self):
        inner = training.train_step

        def timed(batch, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                report = inner(batch, *args, **kwargs)
            except Exception as exc:
                self._op("train step", [(False, f"raised {type(exc).__name__}: {exc}")])
                raise
            finally:
                end = time.perf_counter()
                self.steps.append((end, end - t0, batch.n, self.tracing))
            terms = report.as_row()
            self._op("train step", [(all(math.isfinite(v) for v in terms), f"non-finite loss terms {terms}")])
            self.reference.maybe_tick()
            return report

        training.train_step = timed
        try:
            yield
        finally:
            training.train_step = inner

    @contextmanager
    def _graph_probe(self):
        """Counts the step graph on the first backward of each traced fit; the
        probe is its own span, so it is not charged to tensor.backward."""
        inner = training.backward

        def probing(loss):
            if self._probe_graph:
                self._probe_graph = False
                with self.tracer.span("bench.graph_probe"):
                    nodes = tensor.ancestors(loss)
                    self.graph.append((len(nodes) + 1, loss.values.nbytes + sum(n.values.nbytes for n in nodes)))
            return inner(loss)

        training.backward = probing
        try:
            yield
        finally:
            training.backward = inner

    # -- set-up --------------------------------------------------------------------

    def setup_once(self, i):
        root = self.work / f"setup-{i}"
        t0 = time.perf_counter()
        cfg = run_config(self.spec, self.seed)
        datasets = data.generate_dataset(cfg.synth)
        data.save_dataset(datasets, root / "data")
        mf_config.write_config_echo(cfg, root / "data")
        datasets = data.load_dataset(root / "data")
        if self.spec["primary"] == "eval":
            self._fit(cfg, datasets, root / "run")
        end = time.perf_counter()
        self.setups.append((end, end - t0))
        self.reference.maybe_tick()
        self.cfg, self.datasets, self.root, self.run_dir = cfg, datasets, root, root / "run"
        self.test_baseline = mean_baseline_mae(datasets["train"].labels, datasets["test"].labels)

    # -- fits ----------------------------------------------------------------------

    def _fit(self, cfg, datasets, out_dir):
        """One `modalflow train`-style fit, checked as one operation; returns
        its checkpoint, or None when it raised."""
        epochs = cfg.train.epochs
        self._probe_graph = self.tracing
        t0 = time.perf_counter()
        try:
            checkpoint, history = training.fit(datasets, cfg.model, cfg.train, out_dir=out_dir)
            mf_config.write_config_echo(cfg, out_dir)
        except Exception as exc:  # boundary: record the failure and keep measuring
            self._op("fit", [(False, f"raised {type(exc).__name__}: {exc}")])
            return None
        end = time.perf_counter()
        base = mean_baseline_mae(datasets["train"].labels, datasets["val"].labels)
        terms = [row[c] for row in history for c in ("task", "mkd1", "mkd2", "rs", "rnc", "total")]
        maes = (checkpoint.best_val_mae, history[checkpoint.epoch - 1]["val_mae_missing"])
        ok = self._op("fit", [
            (len(history) == epochs, f"history has {len(history)} rows, expected {epochs}"),
            (all(math.isfinite(v) for v in terms), "non-finite loss term in history"),
            (maes[0] < base, f"val MAE {maes[0]} does not beat the train-mean baseline {base}"),
            self._same_maes("fit", maes),
        ])
        if ok:
            self.fits.append((end, end - t0, epochs, self.tracing))
        return checkpoint

    # -- eval calls ----------------------------------------------------------------

    def eval_call(self):
        span = self.tracer.span(EVAL_UNIT) if self.tracing else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                checkpoint = training.load_checkpoint(self.run_dir)
                test = data.load_dataset(self.root / "data", split="test")
                t1 = time.perf_counter()
                mae_c, _ = training.evaluate(test, checkpoint, "complete")
                mae_m, _ = training.evaluate(test, checkpoint, "missing")
            t2 = time.perf_counter()
        except Exception as exc:  # boundary: record the failure and keep measuring
            self._op("eval call", [(False, f"raised {type(exc).__name__}: {exc}")])
            return
        self.eval_calls.append((t2, t2 - t0, t2 - t1, 2 * test.n, self.tracing))
        self._op("eval call", [
            (math.isfinite(mae_c) and math.isfinite(mae_m), f"non-finite test MAE {mae_c}, {mae_m}"),
            (mae_c < self.test_baseline, f"test MAE {mae_c} does not beat the train-mean baseline {self.test_baseline}"),
            self._same_maes("eval", (mae_c, mae_m)),
        ])
        self.reference.maybe_tick()

    def eval_block(self, calls=0, seconds=0.0):
        t0 = time.perf_counter()
        done = 0
        while done < calls or time.perf_counter() - t0 < seconds:
            self.eval_call()
            done += 1

    def check_round_trip(self, checkpoint):
        """The checkpoint read back from disk equals the fitted one bit for bit."""
        try:
            saved = training.load_checkpoint(self.run_dir).params
        except Exception as exc:  # boundary: record the failure and keep measuring
            self._op("checkpoint round trip", [(False, f"raised {type(exc).__name__}: {exc}")])
            return
        fitted = checkpoint.params
        same = saved.keys() == fitted.keys() and all(np.array_equal(saved[k], v) for k, v in fitted.items())
        self._op("checkpoint round trip", [(same, "checkpoint on disk differs from the fitted one")])

    # -- probes --------------------------------------------------------------------

    def rnc_backward_probe(self):
        """backward of rnc_loss alone, on leaf representations at the train batch."""
        n = self.cfg.train.batch_size
        rng = np.random.default_rng([self.seed, 0xB3])
        labels = self.datasets["train"].labels[:n]
        labels2 = np.concatenate([labels, labels])
        t_start = time.perf_counter()
        while len(self.rnc_bwd_s) < RNC_PROBE_MIN_REPS or time.perf_counter() - t_start < RNC_PROBE_MIN_S:
            reps = tensor.Tensor(rng.normal(size=(2 * n, self.cfg.model.dim)), requires_grad=True)
            loss = losses.rnc_loss(reps, labels2, self.cfg.loss.tau_rnc)
            with self.tracer.span("losses.rnc_loss.bwd") as s:
                tensor.backward(loss)
            self.rnc_bwd_s.append(s.duration)

    # -- driving -------------------------------------------------------------------

    def train_round(self, i, traced):
        with self._round(traced):
            checkpoint = self._fit(self.cfg, self.datasets, self.run_dir)
            if i == 0 and checkpoint is not None:
                self.check_round_trip(checkpoint)
            self.eval_block(calls=EVAL_CALLS_PER_ROUND)

    def eval_round(self, i, traced):
        if i < SETUP_REPEATS:
            with self._round(traced=True):
                self.setup_once(i)
        with self._round(traced):
            self.eval_block(seconds=self.seconds / SETUP_REPEATS)

    def run(self):
        if self.spec["primary"] == "train":
            do_round, min_rounds = self.train_round, 2
            with self._round(traced=True):
                for i in range(SETUP_REPEATS):
                    self.setup_once(i)
        else:
            do_round, min_rounds = self.eval_round, SETUP_REPEATS
        alternate = self.tracer is not None
        t0 = time.perf_counter()
        i = 0
        while True:
            t_round = time.perf_counter()
            do_round(i, traced=alternate and i % 2 == 1)
            i += 1
            now = time.perf_counter()
            if now - t0 + (now - t_round) >= RUN_CAP_S:
                break
            # a failed run is not lengthened to resolve its tails
            resolved = alternate or self.failed or (tail_resolved(self.step_times())
                                                    and tail_resolved(self.call_times()))
            if now - t0 >= self.seconds and i >= min_rounds and resolved:
                break
        if alternate:
            self.rnc_backward_probe()

    # -- results -------------------------------------------------------------------

    def step_times(self, traced=False, factor=unscaled):
        return [x * factor(end, x) for end, x, _, t in self.steps[WARMUP_STEPS:] if t == traced]

    def call_times(self, traced=False, factor=unscaled):
        return [x * factor(end, x) for end, x, _, _, t in self.eval_calls if t == traced]

    def _timings(self, factor):
        """Time and rate metrics of the untraced samples, each sample's seconds
        multiplied by factor(end, seconds). A metric with no samples (every
        fit or eval call failed) is left out."""
        steps = [(x * factor(end, x), n) for end, x, n, t in self.steps[WARMUP_STEPS:] if not t]
        calls = []  # (call seconds, evaluate seconds, samples), both at the call's scale
        for end, c, e, n, t in self.eval_calls:
            if not t:
                f = factor(end, c)
                calls.append((c * f, e * f, n))
        epochs = [w * factor(end, w) / e for end, w, e, t in self.fits if not t]
        out = {"setup_s": statistics.median(x * factor(end, x) for end, x in self.setups)}
        if steps:
            step_ms = [1000.0 * x for x, _ in steps]
            out["train_samples_per_s"] = sum(n for _, n in steps) / sum(x for x, _ in steps)
            out["step_ms_p50"] = statistics.median(step_ms)
            out["step_ms_p90"] = nearest_rank(step_ms, 90)
        if epochs:
            out["epoch_s"] = statistics.median(epochs)
        if calls:
            calls_ms = [1000.0 * c for c, _, _ in calls]
            out["eval_samples_per_s"] = sum(n for _, _, n in calls) / sum(e for _, e, _ in calls)
            out["eval_call_ms_p50"] = statistics.median(calls_ms)
            out["eval_call_ms_p90"] = nearest_rank(calls_ms, 90)
        return out

    def end_to_end(self):
        """(metrics, raw metrics, sample counts). Times and rates in the metrics
        are scaled, sample by sample, to a host on which the reference kernel
        takes REF_NOMINAL_MS (Reference.factor); the raw metrics are the
        wall-clock figures."""
        raw = self._timings(unscaled)
        values = self._timings(self.reference.factor)
        common = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }
        # train workloads report best validation MAE, eval-both-modes test MAE
        maes = self.maes.get("fit" if self.spec["primary"] == "train" else "eval")
        if maes is not None:
            common["mae_complete"], common["mae_missing"] = maes
        raw.update(common)
        values.update(common)
        step_ms = [1000.0 * x for x in self.step_times()]
        calls_ms = [1000.0 * x for x in self.call_times()]
        samples = {"steps": len(step_ms), "steps_above_p90": count_above(step_ms, raw.get("step_ms_p90", math.inf)),
                   "eval_calls": len(calls_ms),
                   "eval_calls_above_p90": count_above(calls_ms, raw.get("eval_call_ms_p90", math.inf)),
                   "fits": sum(1 for *_, t in self.fits if not t), "setups": len(self.setups),
                   "reference_ms": 1000.0 * statistics.median(self.reference.ticks),
                   "reference_ticks": len(self.reference.ticks)}
        return values, raw, samples

    def per_layer(self):
        """(metrics, span rows). A metric whose spans or probes are missing
        (say every fit failed) is left out."""
        rows = summarize(self.tracer.spans, self.tracer.unit_counts)
        primary = TRAIN_UNIT if self.spec["primary"] == "train" else EVAL_UNIT
        order = (primary, EVAL_UNIT if primary == TRAIN_UNIT else TRAIN_UNIT, "-")

        def span_row(name, scopes=order):
            return next((rows[name, scope] for scope in scopes if (name, scope) in rows), None)

        values = {}
        for metric, span, field, _ in SPAN_METRICS:
            row = span_row(span)
            if row is not None:
                values[metric] = row[field]
        # per batch of fit's shuffled training loop; validation batches are data.batch_iter.predict
        train_batch = span_row("data.batch_iter.train", ("-",))
        if train_batch is not None:
            values["data.batch_iter.ms"] = train_batch["ms"]
        if self.graph:
            values["tensor.graph_nodes"] = statistics.median(n for n, _ in self.graph)
            values["tensor.graph_mb"] = statistics.median(b for _, b in self.graph) / 1e6
        if self.rnc_bwd_s:
            values["losses.rnc_loss.bwd_ms"] = 1000.0 * statistics.median(self.rnc_bwd_s)
        generate = span_row("data.generate_dataset")
        if generate is not None:
            values["data.generate_dataset.s"] = generate["ms"] / 1000.0
        fit_row = span_row("training.fit")
        if fit_row is not None:
            values["training.fit.self_ms_per_epoch"] = fit_row["self_ms"] / self.cfg.train.epochs
        unit_row = span_row(primary)
        if unit_row is not None:
            values["trace.unit_covered_pct"] = 100.0 * (1.0 - unit_row["self_ms"] / unit_row["ms"])
        # both sides scaled to the reference speed, so that host drift between rounds cancels
        unit_times = self.step_times if self.spec["primary"] == "train" else self.call_times
        plain = unit_times(False, self.reference.factor)
        traced = unit_times(True, self.reference.factor)
        if plain and traced:
            values["trace_overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        return values, rows


def run_workload(name, seed, seconds, work_dir, traced):
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    run = WorkloadRun(name, seed, seconds, work_dir, traced)
    try:
        run.run()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return run
