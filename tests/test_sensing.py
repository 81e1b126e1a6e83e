"""Detection model: step function, scan miss rates, availability, failures."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortrack import sensing
from ortrack.sensing import (
    DEFAULT_RANGE_M,
    InvalidParamError,
    SensorDownError,
    SensorModel,
    availability,
    detect_probability,
    med_scan,
    read_tags,
    sensor_failure_schedule,
)


def test_detect_inside_range():
    model = SensorModel(range_m=0.9, p_detect=0.95)
    assert detect_probability(0.0, model) == 0.95
    assert detect_probability(0.9, model) == 0.95  # boundary is inside


def test_detect_outside_range_is_zero():
    model = SensorModel(range_m=0.9, p_detect=0.95)
    assert detect_probability(2.0, model) == 0.0


def test_default_range_is_design_target():
    assert DEFAULT_RANGE_M == 0.9
    assert SensorModel().range_m == 0.9


def test_range_bounds_enforced():
    with pytest.raises(InvalidParamError):
        SensorModel(range_m=0.1)
    with pytest.raises(InvalidParamError):
        SensorModel(range_m=1.5)
    with pytest.raises(InvalidParamError):
        SensorModel(p_detect=0.0)


@pytest.mark.parametrize("param", ["range_m", "p_detect", "mtbf_s", "mttr_s"])
def test_nan_parameter_rejected(param):
    with pytest.raises(InvalidParamError):
        SensorModel(**{param: math.nan})


@given(st.floats(0, 3), st.floats(0, 3))
def test_detect_probability_nonincreasing(d1, d2):
    model = SensorModel(range_m=0.8, p_detect=0.9)
    lo, hi = sorted((d1, d2))
    assert detect_probability(lo, model) >= detect_probability(hi, model)


def test_read_tags_certainty():
    model = SensorModel(p_detect=1.0)
    cands = [f"T-{i}" for i in range(5)]
    assert read_tags("s", model, cands, random.Random(1), now_s=42, distance_m=0.5) == cands


def test_certain_reader_takes_no_draw():
    # p_detect 1: every draw would decide nothing, so none is taken and no stream is needed
    model = SensorModel(range_m=0.9, p_detect=1.0)
    cands = [f"T-{i}" for i in range(5)]
    assert read_tags("s", model, cands, None, distance_m=0.9) == cands
    assert read_tags("s", model, cands, None, distance_m=2.5) == []
    for passes in (1, 3):
        assert med_scan(cands, passes, model, None).detected == frozenset(cands)
    with pytest.raises(InvalidParamError):
        read_tags("s", model, cands, None, distance_m=-0.1)


@pytest.mark.parametrize("p_detect, distance_m, outages, probability_calls, down_calls", [
    (1.0, 0.5, (), 0, 0),  # certain, in range, no outage schedule: no helper
    (1.0, 0.9, (), 0, 0),  # the range's edge is in range
    (1.0, 2.5, (), 1, 0),  # out of range
    (0.8, 0.5, (), 1, 0),  # noisy
    (1.0, 0.5, [(40, 60)], 0, 1),  # has an outage schedule, up at t=10
    (0.8, 0.5, [(40, 60)], 1, 1),
])
def test_read_tags_calls_a_helper_only_where_it_can_change_the_read(
        monkeypatch, p_detect, distance_m, outages, probability_calls, down_calls):
    model = SensorModel(range_m=0.9, p_detect=p_detect)
    cands = [f"T-{i}" for i in range(5)]
    expected = read_tags("s", model, cands, random.Random(3), distance_m=distance_m)
    calls = []

    def counting(name):
        helper = getattr(sensing, name)
        return lambda *args: calls.append(name) or helper(*args)

    for name in ("detect_probability", "raise_if_down"):
        monkeypatch.setattr(sensing, name, counting(name))
    assert read_tags("s", model, cands, random.Random(3), now_s=10, outages=outages,
                     distance_m=distance_m) == expected
    assert (calls.count("detect_probability"), calls.count("raise_if_down")) == (
        probability_calls, down_calls)


def test_read_tags_empty():
    assert read_tags("s", SensorModel(), [], random.Random(1)) == []


def test_read_tags_binomial_fraction():
    # 10,000 in-range reads at p=0.9: detected fraction within 3 sigma
    model = SensorModel(p_detect=0.9)
    cands = [f"T-{i}" for i in range(10_000)]
    seen = read_tags("s", model, cands, random.Random(11))
    fraction = len(seen) / 10_000
    sigma = math.sqrt(0.9 * 0.1 / 10_000)
    assert abs(fraction - 0.9) <= 3 * sigma


def test_read_tags_deterministic_per_seed():
    model = SensorModel(p_detect=0.7)
    cands = [f"T-{i}" for i in range(100)]
    a = read_tags("s", model, cands, random.Random(5))
    b = read_tags("s", model, cands, random.Random(5))
    assert a == b


def test_read_tags_draws_once_per_candidate_in_range_or_not():
    model = SensorModel(range_m=0.9, p_detect=0.8)
    cands = [f"T-{i}" for i in range(20)]
    rng, twin = random.Random(7), random.Random(7)
    for distance in (0.0, 2.5, 0.9, 0.91, 1.0, 0.3):
        seen = read_tags("s", model, cands, rng, distance_m=distance)
        draws = [twin.random() for _ in cands]
        assert rng.getstate() == twin.getstate()
        assert seen == [tag for tag, r in zip(cands, draws) if distance <= 0.9 and r < 0.8]


def test_read_tags_rejects_negative_distance():
    with pytest.raises(InvalidParamError):
        read_tags("s", SensorModel(), ["T-1", "T-2"], random.Random(1), distance_m=-0.1)


def test_read_tags_raises_when_down():
    with pytest.raises(SensorDownError):
        read_tags("s", SensorModel(), ["T-1"], random.Random(1),
                  now_s=50, outages=[(40, 60)])


def test_a_sensor_is_down_from_an_outage_start_until_its_end():
    outages = [(40.0, 60.0)]
    with pytest.raises(SensorDownError, match=r"^s down during \[40.0, 60.0\)$"):
        sensing.raise_if_down("s", outages, 40)
    sensing.raise_if_down("s", outages, 39)
    sensing.raise_if_down("s", outages, 60)  # repaired at its end


def test_med_scan_certainty_single_pass():
    scan = med_scan(["T-7"], 1, SensorModel(p_detect=1.0), random.Random(1))
    assert scan.detected == frozenset({"T-7"})
    assert scan.passes == 1


def test_med_scan_empty_region():
    for passes in (1, 2, 5):
        scan = med_scan([], passes, SensorModel(p_detect=0.5), random.Random(1))
        assert scan.detected == frozenset()


def test_med_scan_draws_every_pass_in_range_or_not_even_after_a_hit():
    model = SensorModel(range_m=0.9, p_detect=0.8)
    cands = [f"T-{i}" for i in range(50)]
    rng, twin = random.Random(9), random.Random(9)
    scan = med_scan(cands, 3, model, rng)
    draws = [[twin.random() for _ in range(3)] for _ in cands]
    assert rng.getstate() == twin.getstate()
    assert scan.detected == {tag for tag, row in zip(cands, draws) if min(row) < 0.8}


def test_med_scan_miss_rate_three_passes():
    # miss probability (1 - 0.8)^3 = 0.008, cross-checked by Monte Carlo
    expected = (1 - 0.8) ** 3
    assert expected == pytest.approx(0.008)
    n = 1_000_000
    model = SensorModel(p_detect=0.8)
    cands = [f"T-{i}" for i in range(n)]
    scan = med_scan(cands, 3, model, random.Random(3))
    missed = n - len(scan.detected)
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(missed / n - expected) <= 3 * sigma


def test_availability_zero_repair():
    assert availability(5_184_000, 0) == 1.0


def test_availability_design_point():
    assert availability(5_184_000, 105_796) == pytest.approx(0.98, abs=1e-6)


def test_availability_symmetry():
    assert availability(4_320_000, 4_320_000) == 0.5


def test_availability_rejects_bad_mtbf():
    with pytest.raises(InvalidParamError):
        availability(0, 10)
    with pytest.raises(InvalidParamError):
        availability(-5, 10)


def test_failure_schedule_none_when_reliable():
    model = SensorModel()  # mtbf None: never fails
    assert sensor_failure_schedule(model, 1_000_000, random.Random(1)) == []


def test_failure_schedule_rare_failures_usually_empty():
    model = SensorModel(mtbf_s=1e18, mttr_s=100)
    empty = sum(
        not sensor_failure_schedule(model, 1_000_000, random.Random(seed))
        for seed in range(100))
    assert empty == 100


def test_failure_schedule_poisson_mean():
    # at horizon == mtbf (and mttr 0) the outage count is Poisson with mean 1
    model = SensorModel(mtbf_s=50_000.0, mttr_s=0.0)
    total = sum(len(sensor_failure_schedule(model, 50_000, random.Random(seed)))
                for seed in range(1000))
    assert abs(total / 1000 - 1.0) <= 0.1


@given(st.integers(0, 10_000))
@settings(max_examples=200)
def test_failure_schedule_sorted_disjoint(seed):
    model = SensorModel(mtbf_s=2000.0, mttr_s=500.0)
    schedule = sensor_failure_schedule(model, 20_000, random.Random(seed))
    for (s1, e1), (s2, e2) in zip(schedule, schedule[1:]):
        assert s1 < e1 <= s2 < e2


def test_a_sensor_model_needs_a_positive_mtbf():
    with pytest.raises(InvalidParamError, match="mtbf_s must be positive"):
        SensorModel(mtbf_s=0)
    assert SensorModel(mtbf_s=1e-9).mtbf_s == 1e-9


def test_med_scan_needs_a_pass():
    with pytest.raises(InvalidParamError, match="passes must be >= 1"):
        med_scan(["T-1"], 0, SensorModel(p_detect=1.0), None)
    assert med_scan(["T-1"], 1, SensorModel(p_detect=1.0), None).passes == 1


def test_availability_rejects_a_negative_repair_time():
    with pytest.raises(InvalidParamError, match="mttr_s must be nonnegative"):
        availability(10, -0.5)


def test_failure_schedule_needs_a_positive_horizon():
    model = SensorModel(mtbf_s=1.0, mttr_s=0.0)
    with pytest.raises(InvalidParamError, match="horizon_s must be positive"):
        sensor_failure_schedule(model, 0, random.Random(1))
    assert sensor_failure_schedule(model, 1e-12, random.Random(1)) == []
