import pytest

from workloads import REF_NOMINAL_MS, REF_WINDOW_S, Reference


def reference_with(ticks):
    """A Reference whose ticks are (end time, seconds) pairs."""
    ref = Reference()
    ref.tick_ends = [t for t, _ in ticks]
    ref.ticks = [s for _, s in ticks]
    return ref


def test_a_sample_is_scaled_by_the_ticks_around_it():
    # a slow phase (2 ms ticks) up to t = 10 s, then a fast one (0.5 ms)
    ticks = [(0.1 * i, 0.002) for i in range(100)] + [(10.0 + 0.1 * i, 0.0005) for i in range(100)]
    ref = reference_with(ticks)
    assert ref.factor(end=5.0, seconds=0.02) == pytest.approx(REF_NOMINAL_MS / 2.0)
    assert ref.factor(end=15.0, seconds=0.02) == pytest.approx(REF_NOMINAL_MS / 0.5)
    # a sample spanning both phases is scaled by the ticks of both (median 1.25 ms)
    assert ref.factor(end=20.0, seconds=20.0) == pytest.approx(REF_NOMINAL_MS / 1.25)


def test_the_window_reaches_past_both_ends_of_the_sample():
    assert REF_WINDOW_S == 1.5
    ref = reference_with([(0.0, 0.001), (1.0, 0.001), (2.0, 0.004), (2.5, 0.004), (3.0, 0.004)])
    # ticks at 0, 1 and 2 s lie within 1.5 s of an instant sample at 0.5 s: median 1 ms
    assert ref.factor(end=0.5, seconds=0.0) == pytest.approx(REF_NOMINAL_MS / 1.0)
    # a sample over [2, 3] s sees the ticks from 0.5 to 4.5 s: 1, 4, 4, 4 ms
    assert ref.factor(end=3.0, seconds=1.0) == pytest.approx(REF_NOMINAL_MS / 4.0)


def test_too_few_ticks_nearby_fall_back_to_every_tick():
    ref = reference_with([(0.0, 0.001), (0.1, 0.001), (100.0, 0.003)])
    # only one tick within the window of t = 100: the median of all three (1 ms) is used
    assert ref.factor(end=100.0, seconds=0.01) == pytest.approx(REF_NOMINAL_MS / 1.0)
