"""The three benchmark workloads, driven through ortrack's public API.

Each workload is built from the benchmark seed during set-up and then runs
one *unit* of work at a time:

* ``montecarlo``: one ``ortrack montecarlo`` invocation of 1,000 runs on
  the bundled ``cavity_retention`` scenario;
* ``oracle``: one pass over acceptance test 3's event sequences (three
  items, one operating room) up to ``ORACLE_DEPTH`` events, each built as
  a ``Scenario`` and run with ``kernel.run``;
* ``hospital_day``: one ``ortrack simulate`` of the generated 10-room,
  1,000-item day, which loads the scenario, runs it, persists the NDJSON
  trace and writes per-case JSON and CSV reports.

A unit returns the host seconds spent inside the program, the number of
kernel runs it made, and a digest of its outputs. The checks on those
outputs run after the clock stops, so they never count as program time.
Module attributes (``kernel.run``, ``cli.main``) are looked up at call
time so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

from ortrack import cli, kernel
from ortrack.kernel import BusConfig, CaseSpec, ItemSpec, Scenario, StaffEvent
from ortrack.model import ItemKind
from ortrack.sensing import SensorModel

import hospital_day

SCENARIO_DIR = os.path.join(os.path.dirname(kernel.__file__), "data", "scenarios")

GOLDENS = ("clean_case", "sponge_in_cavity", "sponge_in_cavity_recovered",
           "pocket_carry", "new_equipment", "dropped_link", "cavity_retention")

MONTECARLO_RUNS = 1000
#: Analytic miss rate of cavity_retention: the 2.0 m entrance read is out of
#: range and one MED pass at p=0.8 misses the sponge 20% of the time.
MONTECARLO_MISS_RATE = 0.2

ORACLE_DEPTH = 5

SAFE_PHASES = {"Reconciled", "AwaitingSpd", "Complete"}
CRITICAL_ALERTS = {"RsbSuspected", "CountMismatch", "ManualOverride"}


class Checks:
    """Counts output checks; a failed one is reported on standard error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr, flush=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, float]:
    """Call the ``ortrack`` entry point in-process; returns code, stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def expected_exit_code(trace: kernel.Trace) -> int:
    """``simulate``'s exit code, worked out from the trace alone.

    2 when a case raised a critical alert and ended outside the safe phases.
    """
    critical = {r.get("case") for r in trace.records
                if r["type"] == "alert" and r["kind"] in CRITICAL_ALERTS}
    unsafe = [r for r in trace.records if r["type"] == "case"
              and r["case_id"] in critical and r["phase"] not in SAFE_PHASES]
    return 2 if unsafe else 0


def simulate(scenario_path: str, out_dir: str, checks: Checks,
             what: str) -> tuple[float, bytes, bytes, list[dict]]:
    """Run ``ortrack simulate`` and check its trace and exit code.

    Returns program seconds, trace bytes, report bytes (files in name
    order) and the final ``case`` records.
    """
    code, _, elapsed = _cli(["simulate", scenario_path, "--out", out_dir])
    with open(os.path.join(out_dir, "trace.ndjson"), "rb") as handle:
        trace_bytes = handle.read()
    trace = kernel.Trace.from_ndjson(trace_bytes.decode())
    checks.check(kernel.validate_trace(trace) == [], f"{what}: validate_trace")
    checks.check(code == expected_exit_code(trace), f"{what}: exit code {code}")
    cases = [r for r in trace.records if r["type"] == "case"]
    reports = b""
    for record in cases:
        for suffix in ("json", "csv"):
            name = f"report_{record['case_id']}.{suffix}"
            with open(os.path.join(out_dir, name), "rb") as handle:
                reports += name.encode() + b"\0" + handle.read()
    return elapsed, trace_bytes, reports, cases


def check_goldens(out_dir: str, pins: dict | None, checks: Checks) -> None:
    """Simulate the 7 bundled goldens and check their traces; pins are NDJSON digests."""
    for name in GOLDENS:
        _, trace_bytes, _, _ = simulate(os.path.join(SCENARIO_DIR, f"{name}.json"),
                                        os.path.join(out_dir, name), checks, name)
        if pins is not None:
            checks.check(_sha256(trace_bytes) == pins[name], f"{name}: trace digest")


def warm_up(out_dir: str, checks: Checks) -> None:
    """Run each entry point once on small inputs before timing.

    A 20-run Monte Carlo twice (its summary must repeat) and a 2-room,
    40-item hospital day, so every layer the traced run measures has run.
    """
    path = os.path.join(SCENARIO_DIR, "cavity_retention.json")
    argv = ["montecarlo", path, "--runs", "20", "--seed-base", "5"]
    first, second = _cli(argv), _cli(argv)
    checks.check(first[0] == 0 and first[1] == second[1], "warm-up montecarlo repeats")
    small = os.path.join(out_dir, "warmup_day.json")
    with open(small, "w") as handle:
        handle.write(hospital_day.generate(1, rooms=2, items=40))
    simulate(small, os.path.join(out_dir, "warmup_day"), checks, "warm-up day")


class Workload:
    """Set-up state for one workload; ``unit`` runs one unit of work."""

    def __init__(self, pin: str | None, checks: Checks):
        self.pin = pin
        self.checks = checks
        self.first: str | None = None

    def unit(self) -> tuple[float, int, str]:
        raise NotImplementedError

    def check_digest(self, digest: str, what: str) -> None:
        """Every unit of a run gives the same outputs; at the default seed, the pinned ones."""
        if self.first is None:
            self.first = digest
            if self.pin is not None:
                self.checks.check(digest == self.pin, f"{what}: pinned digest")
        self.checks.check(digest == self.first, f"{what}: repeats within the run")


class Montecarlo(Workload):
    def __init__(self, seed: int, out_dir: str, pin: str | None, checks: Checks):
        super().__init__(pin, checks)
        self.path = os.path.join(SCENARIO_DIR, "cavity_retention.json")
        with open(self.path) as handle:
            kernel.load_scenario(handle.read())
        self.seed_base = seed * MONTECARLO_RUNS

    def unit(self) -> tuple[float, int, str]:
        code, text, elapsed = _cli(["montecarlo", self.path, "--runs",
                                    str(MONTECARLO_RUNS), "--seed-base",
                                    str(self.seed_base)])
        digest = _sha256(text.encode())
        summary = json.loads(text)
        runs = summary["runs"]
        # 5 binomial standard deviations around the analytic miss rate.
        sigma = (MONTECARLO_MISS_RATE * (1 - MONTECARLO_MISS_RATE) / runs) ** 0.5
        self.checks.check(
            code == 0 and runs == MONTECARLO_RUNS
            and summary["seed_base"] == self.seed_base
            and sum(summary["outcome_counts"].values()) == runs
            and summary["retained_at_reconcile_runs"] == round(summary["miss_rate"] * runs)
            and abs(summary["miss_rate"] - MONTECARLO_MISS_RATE) <= 5 * sigma,
            f"montecarlo summary {summary}")
        self.check_digest(digest, "montecarlo summary")
        return elapsed, runs, digest


_TAGS = ("T-1", "T-2", "T-3")

#: Per-item states: home (E), tray (T), cavity (C), bin (B). Each move is
#: (operation, next state, checklist status the fold expects).
_MOVES = {
    "E": (("bring_in", "T", "OnTray"),),
    "T": (("place", "C", "InUse"), ("discard", "B", "Discarded"),
          ("carry_out", "E", "RemovedFromOR")),
    "C": (("remove", "T", "OnTray"),),
    "B": (),
}


def _staff_event(op: str, tag: str, t: int) -> StaffEvent:
    if op == "bring_in":
        return StaffEvent(time_s=t, kind="move", tag=tag, to_site="OR-1", to_sub="ToolTray")
    if op == "carry_out":
        return StaffEvent(time_s=t, kind="carry_out", tag=tag, to_site="EquipmentRoom")
    kind = {"place": "place_in_cavity", "remove": "remove_from_cavity",
            "discard": "discard"}[op]
    return StaffEvent(time_s=t, kind=kind, tag=tag)


def oracle_cases(seed: int, depth: int) -> list[tuple[Scenario, dict]]:
    """Every event sequence up to ``depth``, paired with its ground-truth fold.

    The fold is a straight-line walk over the sequence, with no kernel and
    no messages: each move sets the status the checklist must end with.
    """
    items = [ItemSpec(tag_id=t, kind=ItemKind.SPONGE) for t in _TAGS]
    sensors = {sid: SensorModel(p_detect=1.0)
               for sid in ("entrance:EquipmentRoom", "entrance:SPD", "entrance:OR-1",
                           "tray:OR-1", "bin:OR-1", "med:OR-1")}
    cases = [CaseSpec(case_id="C-1", room_id="OR-1")]
    bus = BusConfig(latency_s=1, drop_rate=0.0)
    out = []

    def walk(states: tuple, events: list, fold: dict) -> None:
        out.append((Scenario(name="oracle", seed=seed, horizon_s=10 * len(events) + 10,
                             rooms=["OR-1"], items=items, sensors=sensors, cases=cases,
                             events=list(events), bus=bus), fold))
        if len(events) == depth:
            return
        t = 10 * (len(events) + 1)
        for i, tag in enumerate(_TAGS):
            for op, nxt, status in _MOVES[states[i]]:
                events.append(_staff_event(op, tag, t))
                walk(states[:i] + (nxt,) + states[i + 1:], events, {**fold, tag: status})
                events.pop()

    walk(("E", "E", "E"), [], {})
    return out


class Oracle(Workload):
    def __init__(self, seed: int, out_dir: str, pin: str | None, checks: Checks):
        super().__init__(pin, checks)
        self.cases = oracle_cases(seed, ORACLE_DEPTH)

    def unit(self) -> tuple[float, int, str]:
        elapsed = 0.0
        digest = hashlib.sha256()
        for scenario, fold in self.cases:
            start = time.perf_counter()
            trace = kernel.run(scenario)
            elapsed += time.perf_counter() - start
            case = trace.records[-1]
            statuses = {tag: e["status"] for tag, e in case["entries"].items()}
            self.checks.check(case["type"] == "case" and statuses == fold
                              and kernel.validate_trace(trace) == [],
                              f"oracle {[(e.kind, e.tag) for e in scenario.events]}")
            digest.update(json.dumps(case, sort_keys=True).encode() + b"\n")
        digest = digest.hexdigest()
        self.check_digest(digest, "oracle checklists")
        return elapsed, len(self.cases), digest


class HospitalDay(Workload):
    def __init__(self, seed: int, out_dir: str, pin: str | None, checks: Checks):
        super().__init__(pin, checks)
        text = hospital_day.generate(seed)
        self.path = os.path.join(out_dir, "hospital_day.json")
        with open(self.path, "w") as handle:
            handle.write(text)
        kernel.load_scenario(text)
        self.out_dir = os.path.join(out_dir, "hospital_day")
        self.phases: dict[str, int] = {}

    def unit(self) -> tuple[float, int, str]:
        elapsed, trace_bytes, reports, cases = simulate(self.path, self.out_dir,
                                                        self.checks, "hospital day")
        self.checks.check(len(cases) == 10, "hospital day: one case record per room")
        self.phases = {}
        for record in cases:
            self.phases[record["phase"]] = self.phases.get(record["phase"], 0) + 1
        digest = _sha256(_sha256(trace_bytes).encode() + _sha256(reports).encode())
        self.check_digest(digest, "hospital day trace and reports")
        return elapsed, 1, digest


WORKLOADS = {"montecarlo": Montecarlo, "oracle": Oracle, "hospital_day": HospitalDay}
