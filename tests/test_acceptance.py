"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are fixed here, not tuned elsewhere.
"""

import dataclasses
import math
import random
import time
from contextlib import contextmanager
from importlib import resources

import pytest

from helpers import full_sensor_suite, load_bundled, random_scenario
from ortrack import kernel
from ortrack.cli import batch_summary
from ortrack.decision import (
    QfdInput,
    pugh_rank,
    pugh_rank_from_csv,
    pugh_screen,
    qfd_from_csv,
    qfd_weights,
    select_top_k,
)
from ortrack.kernel import BusConfig, CaseSpec, ItemSpec, Scenario, StaffEvent, run
from ortrack.model import ItemKind
from ortrack.protocol import CasePhase, InvalidPhaseError, MtcState
from ortrack.reconcile import persist
from ortrack.sensing import (
    DEFAULT_RANGE_M,
    SensorModel,
    availability,
    med_scan,
)
from ortrack.trace import read_trace

GOLDENS = ("clean_case", "sponge_in_cavity", "sponge_in_cavity_recovered",
           "pocket_carry", "new_equipment", "dropped_link", "cavity_retention")


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    print(f"\n[acceptance] {label}: PASS")


def test_1_rsb_safety_under_perfect_sensing():
    with criterion("1 retention safety, 1000 scenarios, perfect sensing"):
        started = time.perf_counter()
        completes = retention_attempts = 0
        for seed in range(1000):
            scenario = random_scenario(seed, p_detect=1.0, drop_rate=0.0)
            trace = run(scenario)
            retained_at = read_trace(trace).retained_at
            assert CasePhase.COMPLETE.value not in retained_at, f"seed {seed}"
            assert CasePhase.RECONCILED.value not in retained_at, f"seed {seed}"
            for record in trace.records:
                if record["type"] == "phase" and record["to"] == "Complete":
                    completes += 1
                if record["type"] == "alert" and record["kind"] == "RsbSuspected":
                    retention_attempts += 1
                    break
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        # the guarantee must not be vacuous: both paths really occur
        assert completes >= 50, completes
        assert retention_attempts >= 50, retention_attempts


def test_2_scan_miss_rate_calibration():
    with criterion("2 scan miss rate vs (1-p)^k, 3 sigma, N=100000 per cell"):
        n = 100_000
        rng = random.Random(20_24)
        for p in (0.8, 0.9, 0.95):
            for k in (1, 2, 3):
                expected = (1 - p) ** k
                model = SensorModel(p_detect=p)
                candidates = [f"T-{i}" for i in range(n)]
                scan = med_scan(candidates, k, model, rng)
                miss = (n - len(scan.detected)) / n
                sigma = math.sqrt(expected * (1 - expected) / n)
                assert abs(miss - expected) <= 3 * sigma, \
                    f"p={p} k={k}: miss {miss:.6f} vs {expected:.6f}"


# Exhaustive oracle: all event sequences of length <= 8 over a fixed
# alphabet (three items, one operating room). Per-item states: home (E),
# tray (T), cavity (C), bin (B); carrying out returns the item home and
# re-entry is allowed.

_TAGS = ("T-1", "T-2", "T-3")
_ITEMS = [ItemSpec(tag_id=t, kind=ItemKind.SPONGE) for t in _TAGS]
_SENSORS = full_sensor_suite(1.0)
_CASES = [CaseSpec(case_id="C-1", room_id="OR-1")]
_BUS = BusConfig(latency_s=1, drop_rate=0.0)

_MOVES = {
    "E": (("bring_in", "T", "OnTray"),),
    "T": (("place", "C", "InUse"), ("discard", "B", "Discarded"),
          ("carry_out", "E", "RemovedFromOR")),
    "C": (("remove", "T", "OnTray"),),
    "B": (),
}


def _staff_event(op, tag, t):
    if op == "bring_in":
        return StaffEvent(time_s=t, kind="move", tag=tag, to_site="OR-1",
                          to_sub="ToolTray")
    if op == "place":
        return StaffEvent(time_s=t, kind="place_in_cavity", tag=tag)
    if op == "remove":
        return StaffEvent(time_s=t, kind="remove_from_cavity", tag=tag)
    if op == "discard":
        return StaffEvent(time_s=t, kind="discard", tag=tag)
    return StaffEvent(time_s=t, kind="carry_out", tag=tag, to_site="EquipmentRoom")


def _final_checklist(events):
    scenario = Scenario(name="enum", seed=1, horizon_s=10 * len(events) + 10,
                        rooms=["OR-1"], items=_ITEMS, sensors=_SENSORS,
                        cases=_CASES, events=list(events), bus=_BUS)
    record = kernel.run(scenario).records[-1]
    assert record["type"] == "case"
    return {tag: entry["status"] for tag, entry in record["entries"].items()}


@pytest.mark.slow
def test_3_exhaustive_small_instance_oracle():
    with criterion("3 exhaustive <=8-event scenarios vs ground-truth fold"):
        checked = 0

        def dfs(states, events, fold, depth):
            nonlocal checked
            # the fold is the independent oracle: a straight-line walk over
            # the ground-truth event list, no kernel, no messages
            assert _final_checklist(events) == fold, \
                [(e.kind, e.tag) for e in events]
            checked += 1
            if depth == 8:
                return
            t = 10 * (len(events) + 1)
            for i, tag in enumerate(_TAGS):
                for op, nxt, status in _MOVES[states[i]]:
                    fold2 = dict(fold)
                    fold2[tag] = status
                    events.append(_staff_event(op, tag, t))
                    dfs(states[:i] + (nxt,) + states[i + 1:], events, fold2,
                        depth + 1)
                    events.pop()

        dfs(("E", "E", "E"), [], {}, 0)
        assert checked == 177_721  # every sequence of length 0..8, none skipped


def test_4_determinism_byte_identical(tmp_path):
    with criterion("4 determinism: traces and batch summaries reproduce"):
        for name in GOLDENS:
            scenario = load_bundled(name)
            first, second = run(scenario), run(scenario)
            assert first.to_ndjson() == second.to_ndjson(), name
            p1, p2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
            persist(first, str(p1))
            persist(second, str(p2))
            assert p1.read_bytes() == p2.read_bytes(), name
        scenario = load_bundled("cavity_retention")
        assert batch_summary(scenario, 10, 5) == batch_summary(scenario, 10, 5)


def test_5_characteristic_table_arithmetic():
    with criterion("5 availability 0.98 +/- 1e-6; default range 0.9 m"):
        assert availability(5_184_000, 105_796) == pytest.approx(0.98, abs=1e-6)
        assert DEFAULT_RANGE_M == 0.9
        assert SensorModel().range_m == 0.9


def test_6_simulated_behaviors():
    with criterion("6 golden behaviors: arrival alert, exit removal, ack gate"):
        # (a) un-carted equipment entering the room joins the checklist
        trace = run(load_bundled("new_equipment"))
        alerts = [r for r in trace.records if r["type"] == "alert"]
        arrival = [a for a in alerts if a["kind"] == "NewEquipmentDetected"]
        assert arrival and arrival[0]["severity"] == "Info"
        assert arrival[0]["tags"] == ["T-9"]
        case = next(r for r in trace.records if r["type"] == "case")
        assert "T-9" in case["entries"]

        # (b) equipment leaving in a pocket is removed and staff notified
        trace = run(load_bundled("pocket_carry"))
        alerts = [r for r in trace.records if r["type"] == "alert"]
        exits = [a for a in alerts if a["kind"] == "EquipmentLeftOR"]
        assert exits and exits[0]["tags"] == ["T-7"]
        case = next(r for r in trace.records if r["type"] == "case")
        assert case["entries"]["T-7"]["status"] == "RemovedFromOR"

        # (c) completion is gated on the SPD acknowledgment
        scenario = load_bundled("clean_case")
        without_ack = dataclasses.replace(
            scenario, events=[e for e in scenario.events if e.kind != "spd_ack"])
        case = next(r for r in run(without_ack).records if r["type"] == "case")
        assert case["phase"] == "AwaitingSpd" and not case["spd_acked"]

        records = run(scenario).records
        ack_at = next(r["t"] for r in records
                      if r["type"] == "msg" and r["status"] == "delivered"
                      and r["msg"]["payload"]["kind"] == "SpdReadyAck")
        complete_at = next(r["t"] for r in records
                           if r["type"] == "phase" and r["to"] == "Complete")
        assert ack_at <= complete_at

        unacked = MtcState(case_id="C", room_id="OR-1")
        unacked.phase = CasePhase.AWAITING_SPD
        with pytest.raises(InvalidPhaseError):
            unacked.advance(CasePhase.COMPLETE)


def test_7_decision_pipeline_properties():
    with criterion("7 decision properties over 10000 random matrices"):
        rng = random.Random(1729)
        for trial in range(10_000):
            n_needs = rng.randint(1, 5)
            n_chars = rng.randint(2, 6)
            needs = [(f"n{i}", rng.randint(1, 9)) for i in range(n_needs)]
            correlation = [[rng.choice((0, 1, 3, 9)) for _ in range(n_chars)]
                           for _ in range(n_needs)]
            if all(v == 0 for row in correlation for v in row):
                correlation[0][0] = 3
            qfd = QfdInput(needs=needs, characteristics=[f"c{j}" for j in range(n_chars)],
                           correlation=correlation)
            weights = qfd_weights(qfd)
            assert abs(sum(weights.values()) - 1.0) <= 1e-12

            scale = rng.uniform(0.1, 20)
            scaled = qfd_weights(QfdInput(
                needs=[(n, imp * scale) for n, imp in needs],
                characteristics=qfd.characteristics, correlation=correlation))
            # scaling preserves every strict ordering (ties may settle either way)
            names = list(weights)
            for a in names:
                for b in names:
                    if weights[a] < weights[b]:
                        assert scaled[a] < scaled[b]

            k = rng.randint(1, n_chars - 1)
            assert select_top_k(weights, k) == select_top_k(weights, k + 1)[:k]

            n_concepts = rng.randint(1, 4)
            concepts = [f"k{i}" for i in range(n_concepts)]
            w = [rng.uniform(0.1, 5) for _ in range(n_chars)]
            scores = {c: [rng.randint(-5, 5) for _ in range(n_chars)]
                      for c in concepts}
            base = rng.choice(concepts)
            scores["dominator"] = list(scores[base])
            scores["dominator"][rng.randrange(n_chars)] += 1
            totals = pugh_rank(scores, w)
            ranking = [c for c, _ in totals]
            assert ranking.index("dominator") < ranking.index(base)

            if totals[0][1] - totals[1][1] > 1e-9:  # decisive winner
                assert pugh_rank(scores, [x * scale for x in w])[0][0] == totals[0][0]

            screen_scores = {"datum": [0] * n_chars}
            for c in concepts:
                screen_scores[c] = [rng.choice((-1, 0, 1)) for _ in range(n_chars)]
            assert "datum" in dict(pugh_screen(screen_scores, "datum"))

        # the bundled CSVs rank as published, read as `ortrack eval` reads them
        bundled = resources.files("ortrack").joinpath("data/concept_eval")
        needs, correlation, scores = (bundled.joinpath(f"{name}.csv").read_text(encoding="utf-8")
                                      for name in ("needs", "correlation", "scores"))
        weights = qfd_weights(qfd_from_csv(needs, correlation))
        assert select_top_k(weights, 5) == [
            "Availability", "Detection Range", "Reliability - MTBF",
            "Charging Time", "Screen Size"]
        assert pugh_rank_from_csv(scores, weights)[0][0] == "Dr. Tool"


def test_8_fault_injection_divergence():
    with criterion("8 dropped-link divergence equals dropped tag set"):
        lossy_scenario = load_bundled("dropped_link")
        lossless = dataclasses.replace(
            lossy_scenario, bus=BusConfig(latency_s=1, drop_rate=0.0))
        lossy_trace, clean_trace = run(lossy_scenario), run(lossless)

        def active_checklist(trace):
            record = next(r for r in trace.records if r["type"] == "case")
            return {tag for tag, entry in record["entries"].items()
                    if entry["status"] != "RemovedFromOR"}

        dropped_tags = {r["msg"]["payload"]["tag"] for r in lossy_trace.records
                        if r["type"] == "msg" and r["status"] == "dropped"
                        and r["msg"]["payload"]["kind"] == "NewEquipmentInOR"}
        diff = active_checklist(clean_trace) - active_checklist(lossy_trace)
        assert diff, "belief must diverge from ground truth when the link drops"
        assert diff == dropped_tags == {"T-9"}
