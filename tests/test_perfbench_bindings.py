"""The benchmark's traced run (`perfbench/workloads.py`) rebinds library
functions by module and attribute name, and names some spans from the
arguments of the call: `umca_forward`'s third positional argument (the gate)
and `cross_attend`'s parent span (the stage). These tests pin that contract
from the library's side."""

import sys
from collections import Counter
from pathlib import Path

import pytest

from builders import tiny_model_config
from modalflow.data import SynthConfig, batch_iter, generate_dataset
from modalflow.fusion import MODALITIES, init_model
from modalflow.losses import LossWeights
from modalflow.nn import AdamState
from modalflow.training import AblationSpec, Checkpoint, TrainConfig, evaluate, train_step

# the benchmark's modules import each other by name, as in perfbench/tests/conftest.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import Tracer  # noqa: E402
from workloads import traced_bindings  # noqa: E402

MODEL = tiny_model_config()
SYNTH = SynthConfig(n_train=8, n_val=2, n_test=6, seq_len=2, raw_dim_a=3, raw_dim_v=2, raw_dim_t=4, latent_dim=2)


@pytest.fixture(scope="module")
def tiny():
    data = generate_dataset(SYNTH)
    store = init_model(MODEL, {m: SYNTH.raw_dim(m) for m in MODALITIES}, seed=0)
    return data, store


def traced_span_counts(call):
    tracer = Tracer()
    with tracer.installed(traced_bindings()):
        call()
    return Counter(s.name for s in tracer.spans)


def test_every_traced_binding_resolves():
    for module, attr, _, _ in traced_bindings():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_a_traced_train_step_records_every_block(tiny):
    """One step: one stacked forward of both flows, so one gated
    `umca_forward`; three stage-1 and three stage-2 attention calls, one per
    modality; both imagination rewrites; three projections."""
    data, store = tiny
    batch = next(batch_iter(data["train"], SYNTH.n_train))
    counts = traced_span_counts(lambda: train_step(batch, store, MODEL, AdamState(), LossWeights()))
    assert counts["fusion.umca_forward.missing"] == 1
    assert counts["fusion.umca_forward.complete"] == 0
    assert counts["fusion.cross_attend.stage1"] == 3
    assert counts["fusion.cross_attend.stage2"] == 3
    assert counts["imagination.mia_forward"] == 2
    assert counts["fusion.project_modality"] == 3


@pytest.mark.parametrize("mode, other", [("complete", "missing"), ("missing", "complete")])
def test_a_traced_evaluation_labels_its_forwards_by_mode(tiny, mode, other):
    data, store = tiny
    checkpoint = Checkpoint(params=store.snapshot(), epoch=1, best_val_mae=0.0, model_config=MODEL,
                            train_config=TrainConfig(), ablation=AblationSpec())
    counts = traced_span_counts(lambda: evaluate(data["test"], checkpoint, mode))
    assert counts[f"fusion.umca_forward.{mode}"] >= 1
    assert counts[f"fusion.umca_forward.{other}"] == 0
