"""A failing library call is counted in `failed` and the run still reports."""

import argparse
import time

import pytest

import run as bench_run
import workloads
from modalflow import config as mf_config
from modalflow import training


def tiny_config(spec, seed):
    overrides = [
        "synth.n_train=512", "synth.n_val=64", "synth.n_test=64",
        f"train.seed={seed}", "train.batch_size=32", "train.epochs=2", "train.patience=2",
    ]
    return mf_config.build_config(mf_config.apply_overrides({}, overrides))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "run_config", tiny_config)
    monkeypatch.setattr(workloads, "EVAL_CALLS_PER_ROUND", 30)
    for name, spec in workloads.WORKLOADS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, {**spec, "epochs": 2})


def raising_fit(*args, **kwargs):
    raise FloatingPointError("non-finite loss")


def report(name, tmp_path, traced=False):
    args = argparse.Namespace(seed=1, seconds=0.1, trace=int(traced))
    return bench_run.run_one(workloads, name, args, tmp_path, header={})


@pytest.mark.parametrize("name", ["train-b32", "eval-both-modes"])
@pytest.mark.parametrize("traced", [False, True])
def test_a_fit_that_raises_is_counted_not_raised(tiny, monkeypatch, tmp_path, name, traced):
    monkeypatch.setattr(training, "fit", raising_fit)
    result = report(name, tmp_path, traced)
    assert result["failed"] > 0
    assert any("FloatingPointError" in p for p in result["problems"])
    if not traced:
        assert result["metrics"]["ok_ratio"]["value"] < 1.0
        assert "epoch_s" in result["missing_metrics"]
        assert "mae_complete" in result["missing_metrics"]


def test_a_fit_that_misses_its_baseline_is_counted(tiny, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "mean_baseline_mae", lambda train_labels, labels: -1.0)
    result = report("train-b32", tmp_path)
    assert result["failed"] > 0
    assert any("baseline" in p for p in result["problems"])
    assert "epoch_s" in result["missing_metrics"]


def test_a_healthy_tiny_run_reports_every_metric(tiny, tmp_path):
    result = report("train-b32", tmp_path)
    assert result["failed"] == 0, result["problems"]
    assert result["missing_metrics"] == []


def test_traced_step_spans_leave_out_the_benchmarks_own_work(tiny, monkeypatch, tmp_path):
    # a slow reference kernel would show in the step's self time if it ran inside the span
    monkeypatch.setattr(workloads.Reference, "kernel", lambda self: time.sleep(0.2))
    result = report("train-b32", tmp_path, traced=True)
    assert result["failed"] == 0, result["problems"]
    assert result["missing_metrics"] == []
    assert result["metrics"]["training.train_step.self_ms"]["value"] < 5.0
    spans = {row["span"] for row in result["spans"]}
    assert {"data.batch_iter.train", "data.batch_iter.predict"} <= spans
