import pytest

from spans import Tracer, covered_length, self_times, summarize


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def nest(tracer, shape):
    """Open and close spans as described by nested (name, children) tuples."""
    name, children = shape
    with tracer.span(name):
        for child in children:
            nest(tracer, child)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered_length([(1.0, 2.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_subtracts_only_direct_children():
    # step [0, 10] holds fwd [1, 3] and bwd [4, 8]; bwd holds adam [5, 6]
    clock = FakeClock([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(unit_names=("step",), clock=clock)
    nest(tracer, ("step", [("fwd", []), ("bwd", [("adam", [])])]))
    names = [s.name for s in tracer.spans]
    own = dict(zip(names, self_times(tracer.spans)))
    assert own == pytest.approx({"step": 4.0, "fwd": 2.0, "bwd": 3.0, "adam": 1.0})
    # self times of a unit and everything under it add up to the unit's duration
    assert sum(own.values()) == pytest.approx(tracer.spans[0].duration)


def test_units_number_spans_and_summary_is_per_unit():
    # two steps, each calling f twice (1 s each); one call outside any step
    ticks = [0, 1, 2, 3, 4, 5,  10, 11, 12, 13, 14, 15,  20, 21]
    tracer = Tracer(unit_names=("step",), clock=FakeClock([float(t) for t in ticks]))
    for _ in range(2):
        nest(tracer, ("step", [("f", []), ("f", [])]))
    nest(tracer, ("f", []))
    assert [s.unit for s in tracer.spans if s.name == "step"] == [("step", 0), ("step", 1)]
    assert tracer.spans[1].unit == ("step", 0)
    assert tracer.spans[-1].unit is None
    rows = summarize(tracer.spans, tracer.unit_counts)
    assert rows["f", "step"]["calls_per_basis"] == 2.0
    assert rows["f", "step"]["ms"] == pytest.approx(2000.0)
    assert rows["step", "step"]["ms"] == pytest.approx(5000.0)
    assert rows["step", "step"]["self_ms"] == pytest.approx(3000.0)
    assert rows["f", "-"] == {"calls": 1, "calls_per_basis": 1.0, "ms": pytest.approx(1000.0),
                              "self_ms": pytest.approx(1000.0), "failures": 0}


def test_wrappers_record_parent_names_failures_and_generator_steps():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    def gen(n):
        yield from range(n)

    named = tracer.wrap(lambda: None, lambda parent, args, kwargs: f"child-of-{parent}")
    with tracer.span("outer"):
        named()
    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    assert list(tracer.wrap_iter(gen, "gen")(2)) == [0, 1]
    assert list(tracer.wrap_iter(gen, lambda parent, args, kwargs: f"gen{args[0]}")(1)) == [0]
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "child-of-outer", "boom", "gen", "gen", "gen", "gen1", "gen1"]
    assert [s.failed for s in tracer.spans] == [False, False, True, False, False, False, False, False]
    assert tracer.spans[1].parent == 0


def test_installed_rebinds_and_restores():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer = Tracer()
    with tracer.installed([(mod, "f", "mod.f", "call")]):
        assert mod.f is not original and mod.f(1) == 2
    assert mod.f is original
    assert [s.name for s in tracer.spans] == ["mod.f"]
