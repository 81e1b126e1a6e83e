"""Probabilistic RFID detection model.

All functions are pure given an explicit random stream, so independent
Monte Carlo runs can share nothing. The detection model is a step
function: a constant per-read success probability inside the detection
radius, zero outside; ``detect_probability`` is its only statement.
Reader outages are drawn from an exponential failure process and last a
fixed repair time.

A read answers one question per tag: seen or missed. ``read_tags`` takes
tag ids that all sit at one distance from the reader, ``med_scan`` tag ids
inside its radius, and each returns the tags seen; each candidate takes its
draws in order, whether it is in range or not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Detection radius bounds, meters. The hardware envelope under consideration
#: spans 0.2 m to 1.0 m with a 0.9 m design target.
RANGE_MIN_M = 0.2
RANGE_MAX_M = 1.0
DEFAULT_RANGE_M = 0.9

#: Per-read detection probability used when a scenario does not override it,
#: aligned with the 98% availability design target.
DEFAULT_P_DETECT = 0.98

#: Scan passes used by the closing cavity scan unless a case overrides it.
DEFAULT_SCAN_PASSES = 2


class InvalidParamError(ValueError):
    """A sensor parameter is outside its allowed bounds."""


class SensorDownError(Exception):
    """A read was attempted during a reader outage."""


@dataclass(frozen=True)
class SensorModel:
    """Reader characteristics: radius, per-read probability, failure process.

    ``mtbf_s`` of None means the reader never fails.
    """

    range_m: float = DEFAULT_RANGE_M
    p_detect: float = DEFAULT_P_DETECT
    mtbf_s: float | None = None
    mttr_s: float = 0.0

    def __post_init__(self) -> None:
        if not RANGE_MIN_M <= self.range_m <= RANGE_MAX_M:
            raise InvalidParamError(
                f"range_m must be within [{RANGE_MIN_M}, {RANGE_MAX_M}] m, got {self.range_m}")
        if not 0.0 < self.p_detect <= 1.0:
            raise InvalidParamError(f"p_detect must be in (0, 1], got {self.p_detect}")
        if self.mtbf_s is not None and not self.mtbf_s > 0:
            raise InvalidParamError(f"mtbf_s must be positive, got {self.mtbf_s}")
        if not self.mttr_s >= 0:
            raise InvalidParamError(f"mttr_s must be nonnegative, got {self.mttr_s}")


@dataclass(frozen=True)
class ScanResult:
    """A patient-cavity scan: the tags detected and the passes made."""

    detected: frozenset[str]
    passes: int

    def to_json(self) -> dict:
        return {"region": "PatientCavity",
                "detected": sorted(self.detected),
                "passes": self.passes}


def detect_probability(distance_m: float, model: SensorModel) -> float:
    """Per-read success probability at a given distance (step model)."""
    if distance_m < 0:
        raise InvalidParamError(f"distance_m must be nonnegative, got {distance_m}")
    return model.p_detect if distance_m <= model.range_m else 0.0


def raise_if_down(sensor_id: str, outages: list[tuple[float, float]], now_s: float) -> None:
    """Raise SensorDownError if ``now_s`` falls inside a scheduled outage."""
    for start, end in outages:
        if start <= now_s < end:
            raise SensorDownError(f"{sensor_id} down during [{start}, {end})")


def read_tags(sensor_id: str,
              model: SensorModel,
              candidates: list[str],
              rng: random.Random | None,
              now_s: int = 0,
              outages: list[tuple[float, float]] = (),
              distance_m: float = 0.0,
              ) -> list[str]:
    """One read cycle: the tags seen, in candidate order.

    Every candidate is ``distance_m`` from the reader and takes one draw,
    in order, in range or not; with ``model.p_detect`` 1 none is drawn and
    ``rng`` may be None. Raises SensorDownError if ``now_s`` falls inside
    a scheduled outage. A certain reader with every candidate in range
    calls no helper.
    """
    if outages:
        raise_if_down(sensor_id, outages, now_s)
    if model.p_detect == 1.0 and 0 <= distance_m <= model.range_m:
        return list(candidates)
    p = detect_probability(distance_m, model)
    if model.p_detect == 1.0:
        return list(candidates) if p else []
    draw = rng.random
    return [tag_id for tag_id in candidates if draw() < p]


def med_scan(candidates: list[str],
             passes: int,
             model: SensorModel,
             rng: random.Random | None) -> ScanResult:
    """Sweep the patient cavity with the handheld detector, held over it.

    Every candidate is inside the detection radius. A tag is detected iff
    at least one of ``passes`` independent reads succeeds, so the per-tag
    miss probability is (1 - p) ** passes. Every pass is drawn even after
    a hit, keeping the stream consumption independent of outcomes. With
    ``model.p_detect`` 1 no draw is taken and ``rng`` may be None.
    """
    if passes < 1:
        raise InvalidParamError("passes must be >= 1")
    if model.p_detect == 1.0:
        return ScanResult(frozenset(candidates), passes)
    draw, p = rng.random, model.p_detect
    # the list takes every pass's draw before any() looks at it
    detected = frozenset(tag_id for tag_id in candidates
                         if any([draw() < p for _ in range(passes)]))
    return ScanResult(detected=detected, passes=passes)


def availability(mtbf_s: float, mttr_s: float) -> float:
    """Steady-state fraction of time a reader is up: MTBF / (MTBF + MTTR)."""
    if mtbf_s <= 0:
        raise InvalidParamError(f"mtbf_s must be positive, got {mtbf_s}")
    if mttr_s < 0:
        raise InvalidParamError(f"mttr_s must be nonnegative, got {mttr_s}")
    return mtbf_s / (mtbf_s + mttr_s)


def sensor_failure_schedule(model: SensorModel,
                            horizon_s: float,
                            rng: random.Random) -> list[tuple[float, float]]:
    """Outage intervals over a horizon.

    Failure onsets are exponential with mean ``mtbf_s``; each outage lasts
    ``mttr_s``. The next onset is drawn after the previous repair, so
    intervals are sorted and disjoint.
    """
    if horizon_s <= 0:
        raise InvalidParamError(f"horizon_s must be positive, got {horizon_s}")
    if model.mtbf_s is None:
        return []
    schedule = []
    t = 0.0
    while True:
        t += rng.expovariate(1.0 / model.mtbf_s)
        if t >= horizon_s:
            break
        down_end = t + model.mttr_s
        schedule.append((t, down_end))
        t = down_end
    return schedule
