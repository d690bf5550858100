import pytest

from rules import TAIL_MIN, compare_metric, count_above, nearest_rank, spread, tail_resolved


def test_nearest_rank_picks_an_observed_sample():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 90) == 90
    assert nearest_rank(samples, 100) == 100
    assert nearest_rank([7.0], 90) == 7.0


def test_tail_needs_ten_samples_above_the_percentile():
    assert TAIL_MIN == 10
    hundred = [float(i) for i in range(100)]
    assert count_above(hundred, nearest_rank(hundred, 90)) == 10
    assert tail_resolved(hundred)
    ninety_nine = hundred[:99]
    assert count_above(ninety_nine, nearest_rank(ninety_nine, 90)) == 9
    assert not tail_resolved(ninety_nine)
    assert not tail_resolved([])


def test_ties_at_the_percentile_do_not_count_as_above():
    samples = [1.0] * 85 + [2.0] * 10 + [3.0] * 5  # p90 is 2.0; only the 3.0s lie above it
    assert nearest_rank(samples, 90) == 2.0
    assert not tail_resolved(samples)


def test_spread_is_the_interquartile_distance():
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(8.25 - 2.75)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_clear_improvement_is_a_gain():
    change = [x * 0.9 for x in PARENT]
    r = compare_metric(PARENT, change, "lower", 0.1)
    assert r["verdict"] == "gain" and r["wins"] == 10


def test_gain_needs_nine_of_ten_pair_wins():
    change = [x * 0.9 for x in PARENT]
    change[0] = change[1] = 200.0  # two lost pairs: 8/10 wins
    r = compare_metric(PARENT, change, "lower", 0.25)
    assert r["wins"] == 8
    assert r["verdict"] != "gain"


def test_gain_needs_median_shift_beyond_parent_spread():
    change = [x - 0.05 for x in PARENT]  # wins every pair by less than the parent's spread
    r = compare_metric(PARENT, change, "lower", 0.1)
    assert r["wins"] == 10
    assert r["verdict"] == "within bound"


def test_higher_is_better_direction():
    change = [x * 1.2 for x in PARENT]
    assert compare_metric(PARENT, change, "higher", 0.1)["verdict"] == "gain"
    assert compare_metric(PARENT, change, "lower", 0.1)["verdict"] == "regression"


def test_worse_beyond_bound_is_a_regression_and_within_is_not():
    assert compare_metric(PARENT, [x * 1.2 for x in PARENT], "lower", 0.1)["verdict"] == "regression"
    assert compare_metric(PARENT, [x * 1.05 for x in PARENT], "lower", 0.1)["verdict"] == "within bound"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    change = [x * 1.01 for x in noisy]
    assert compare_metric(noisy, change, "lower", 0.1)["verdict"] == "unresolved"


def test_unresolved_spread_is_overridden_when_every_change_run_wins():
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    change = [x / 10.0 for x in noisy]  # every change run beats every parent run
    assert compare_metric(noisy, change, "lower", 0.1)["verdict"] == "gain"


def test_more_failures_void_a_gain():
    change = [x * 0.9 for x in PARENT]
    r = compare_metric(PARENT, change, "lower", 0.1, parent_failed=0, change_failed=3)
    assert r["verdict"] == "no gain: more failures"


def test_gain_needs_ten_pairs():
    change = [x * 0.9 for x in PARENT]
    assert compare_metric(PARENT[:9], change[:9], "lower", 0.1)["verdict"] == "no gain: too few pairs"
    # a few pairs that every change run dominates are still not a gain
    assert compare_metric([0.22, 0.215], [0.19, 0.14], "lower", 0.25)["verdict"] == "no gain: too few pairs"


def test_compare_rejects_unpaired_input():
    with pytest.raises(ValueError):
        compare_metric([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        compare_metric([1.0, 2.0], [1.0, 2.0], "faster", 0.1)
