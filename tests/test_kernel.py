"""Scheduler and scenario machinery: loading, determinism, bus, fault injection."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import random
import sys

import pytest

from helpers import OR, load_bundled, one_room, random_scenario, scenario_text
from ortrack import kernel, sensing
from ortrack.cli import run_summary
from ortrack.kernel import (
    BusConfig,
    ItemSpec,
    LinkConfig,
    ParseError,
    Scenario,
    StaffEvent,
    Trace,
    ValidationError,
    deliver,
    load_scenario,
    rng_stream,
    run,
    validate_trace,
)
from ortrack.model import ItemKind
from ortrack.protocol import ProtocolMessage
from ortrack.reconcile import TraceIOError

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import hospital_day  # noqa: E402

MINIMAL = {
    "name": "minimal", "seed": 1, "horizon_s": 50, "rooms": ["OR-1"],
    "items": [], "sensors": {}, "cases": [], "events": [],
    "bus": {"latency_s": 1, "drop_rate": 0.0},
}


def scenario_json(**overrides):
    obj = {**MINIMAL, **overrides}
    return json.dumps(obj)


def test_minimal_scenario_runs_empty():
    scenario = load_scenario(scenario_json())
    trace = run(scenario)
    assert [r["type"] for r in trace.records] == ["meta"]
    assert validate_trace(trace) == []


def test_unknown_item_rejected():
    text = scenario_json(events=[{"t": 5, "kind": "discard", "tag": "T-404"}])
    with pytest.raises(ValidationError, match="unknown item"):
        load_scenario(text)


def test_unsorted_events_rejected():
    text = scenario_json(
        items=[{"tag_id": "T-1", "kind": "Sponge"}],
        events=[
            {"t": 9, "kind": "move", "tag": "T-1", "to_site": "OR-1", "to_sub": "ToolTray"},
            {"t": 3, "kind": "discard", "tag": "T-1"},
        ])
    with pytest.raises(ValidationError, match="out of order"):
        load_scenario(text)


def test_exact_top_level_keys_required():
    missing = {k: v for k, v in MINIMAL.items() if k != "bus"}
    with pytest.raises(ValidationError, match="missing"):
        load_scenario(json.dumps(missing))
    with pytest.raises(ValidationError, match="unknown"):
        load_scenario(scenario_json(extra_key=1))


def test_parse_error_carries_location():
    with pytest.raises(ParseError, match="line"):
        load_scenario("{\n  \"name\": oops\n}")


def test_inconsistent_movement_rejected_at_load():
    text = scenario_json(
        items=[{"tag_id": "T-1", "kind": "Sponge"}],
        events=[{"t": 5, "kind": "remove_from_cavity", "tag": "T-1"}])
    with pytest.raises(ValidationError, match="not in a cavity"):
        load_scenario(text)


def test_move_to_where_the_item_already_is_rejected():
    # kernel.destination is the one check on a move: at load, and in a run of a
    # scenario built in Python, which run does not validate
    event = {"t": 5, "kind": "move", "tag": "T-1", "to_site": "EquipmentRoom"}
    text = scenario_json(items=[{"tag_id": "T-1", "kind": "Sponge"}], events=[event])
    with pytest.raises(ValidationError, match="already is"):
        load_scenario(text)
    scenario = Scenario(name="stay", seed=0, horizon_s=10, rooms=[OR],
                        items=[ItemSpec("T-1", ItemKind.SPONGE)], sensors={}, cases=[],
                        events=[StaffEvent(5, "move", tag="T-1", to_site="EquipmentRoom")])
    with pytest.raises(ValueError, match="already is"):
        run(scenario)


def test_unknown_case_rejected():
    text = scenario_json(events=[{"t": 5, "kind": "announce_closing", "case": "C-404"}])
    with pytest.raises(ValidationError, match="unknown case"):
        load_scenario(text)


def test_room_cannot_shadow_fixed_site():
    with pytest.raises(ValidationError, match="fixed site"):
        load_scenario(scenario_json(rooms=["SPD"]))


def mutated(*changes):
    """clean_case's JSON text with each (path, value) change applied."""
    obj = json.loads(scenario_text("clean_case"))
    for path, value in changes:
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return json.dumps(obj)


NAN, INF = float("nan"), float("inf")
LINK = ("bus", "links")

# Malformed inputs, one row per kind of fault: each must be rejected at
# load, never crash the loader or reach the run and break or hang it.
BAD_INPUTS = [
    ("items-entry-not-object", [(("items", 0), 1)], ValidationError),
    ("cases-entry-not-object", [(("cases", 0), "C-1")], ValidationError),
    ("events-entry-not-object", [(("events", 0), [10, "move"])], ValidationError),
    ("sensors-list", [(("sensors",), [])], ValidationError),
    ("bus-list", [(("bus",), [])], ValidationError),
    ("link-not-object", [(LINK, {"RS->CMS": 3})], ValidationError),
    ("scan_passes-string", [(("cases", 0, "scan_passes"), "2")], ValidationError),
    ("scan_passes-float", [(("cases", 0, "scan_passes"), 1.5)], ValidationError),
    ("max_rescans-float", [(("cases", 0, "max_rescans"), 1.5)], ValidationError),
    ("scan_passes-over-cap", [(("cases", 0, "scan_passes"), kernel.MAX_SCAN_PASSES + 1)],
     ValidationError),
    ("max_rescans-over-cap", [(("cases", 0, "max_rescans"), kernel.MAX_RESCANS + 1)],
     ValidationError),
    ("bus-latency-string", [(("bus", "latency_s"), "1")], ValidationError),
    ("p_detect-string", [(("sensors", "med:OR-1", "p_detect"), "x")], ValidationError),
    ("link-drop_rate-above-one", [(LINK, {"CMS->MTC": {"drop_rate": 2.0}})], ValidationError),
    ("link-unknown-nodes", [(LINK, {"FOO->BAR": {"drop_rate": 0.5}})], ValidationError),
    ("link-negative-latency", [(LINK, {"RS->CMS": {"latency_s": -5}})], ValidationError),
    ("distance-negative", [(("events", 0, "distance_m"), -1)], ValidationError),
    ("horizon-bool", [(("horizon_s",), True), (("events",), [])], ValidationError),
    ("t-bool", [(("events", 0, "t"), True)], ValidationError),
    ("seed-string", [(("seed",), "abc")], ValidationError),
    ("name-number", [(("name",), 5)], ValidationError),
    ("sterile-is-unknown", [(("items", 0, "sterile"), True)], ValidationError),
    ("item_id-number", [(("items", 0, "item_id"), 5)], ValidationError),
    ("item_id-duplicate", [(("items", 0, "item_id"), "X"), (("items", 1, "item_id"), "X")],
     ValidationError),
    ("tag_id-list", [(("items", 0, "tag_id"), ["T-1"])], ValidationError),
    ("case_id-slash", [(("cases", 0, "case_id"), "x/../y"), (("events", 6, "case"), "x/../y"),
                       (("events", 7, "case"), "x/../y")], ValidationError),
    ("case_id-backslash", [(("cases", 0, "case_id"), "x\\y"), (("events", 6, "case"), "x\\y"),
                           (("events", 7, "case"), "x\\y")], ValidationError),
    ("case_id-list", [(("cases", 0, "case_id"), ["C-1"])], ValidationError),
    ("to_site-list", [(("events", 0, "to_site"), ["OR-1"])], ValidationError),
    ("kind-list", [(("events", 0, "kind"), ["move"])], ValidationError),
    ("event-unknown-key", [(("events", 0, "colour"), "red")], ValidationError),
    ("outages-over-cap", [(("horizon_s",), 1_000_000),
                          (("sensors", "med:OR-1", "mtbf_s"), 1e-3)], ValidationError),
    ("mtbf-nan", [(("sensors", "med:OR-1", "mtbf_s"), NAN)], ParseError),
    ("mtbf-infinity", [(("sensors", "med:OR-1", "mtbf_s"), INF)], ParseError),
    ("mttr-nan", [(("sensors", "med:OR-1", "mttr_s"), NAN)], ParseError),
    ("distance-infinity", [(("events", 0, "distance_m"), INF)], ParseError),
    ("drop_rate-nan", [(("bus", "drop_rate"), NAN)], ParseError),
]


@pytest.mark.parametrize("changes, error", [pytest.param(c, e, id=name)
                                            for name, c, e in BAD_INPUTS])
def test_bad_input_rejected(changes, error):
    with pytest.raises(error):
        load_scenario(mutated(*changes))


@pytest.mark.parametrize("text, error", [
    pytest.param("[" * 100_000, ParseError, id="nested-too-deep"),
    pytest.param("9" * 5_000, ParseError, id="integer-too-long"),
    pytest.param(mutated((("events", 0, "distance_m"), 12.5)).replace("12.5", "1e400"),
                 ValidationError, id="float-overflows-to-infinity"),
])
def test_edge_of_json_rejected(text, error):
    with pytest.raises(error):
        load_scenario(text)


def test_clean_case_mutation_baseline_loads():
    # the table above fails only through its own change
    assert load_scenario(mutated()).name == "clean-case"


def test_run_rejects_a_repeated_tag_in_a_scenario_built_in_python():
    # run does not validate, so setup checks the tags the world is keyed by
    scenario = Scenario(name="dup", seed=0, horizon_s=10, rooms=[OR],
                        items=[ItemSpec("T-1", ItemKind.SPONGE), ItemSpec("T-1", ItemKind.BLADE)],
                        sensors={}, cases=[], events=[])
    with pytest.raises(ValidationError, match="tag_id"):
        run(scenario)


def test_run_rejects_an_empty_tag_in_a_scenario_built_in_python():
    scenario = Scenario(name="empty", seed=0, horizon_s=10, rooms=[OR],
                        items=[ItemSpec("", ItemKind.SPONGE)], sensors={}, cases=[], events=[])
    with pytest.raises(ValidationError, match="tag_id"):
        run(scenario)


@pytest.mark.parametrize("item_ids", [("I-1", "I-1"), (None, "item-1"), ("", None)],
                         ids=["repeated", "repeats-a-default", "empty"])
def test_run_rejects_a_bad_item_id_in_a_scenario_built_in_python(item_ids):
    # run does not validate, so setup checks the ids it writes into the trace
    scenario = Scenario(name="dup", seed=0, horizon_s=10, rooms=[OR],
                        items=[ItemSpec(f"T-{i}", ItemKind.SPONGE, item_id=item_id)
                               for i, item_id in enumerate(item_ids)],
                        sensors={}, cases=[], events=[])
    with pytest.raises(ValidationError):
        run(scenario)


def test_delivery_to_a_node_without_a_handler_is_recorded_each_time():
    engine = kernel._Engine(kernel.plan(load_bundled("clean_case")), 0)  # one cart, in OR-1
    for node in ("SPD", "RS:OR-1", "MTC:OR-9", "MED:OR-9"):
        for now in (3, 4):
            engine._on_deliver(ProtocolMessage(time_s=now, from_node="CMS", to_node=node,
                                               payload={"kind": "Ping"}), now, now)
            assert engine.trace.records[-1] == {"t": now, "type": "error", "op": "deliver",
                                                "detail": f"no handler for node {node}"}


def test_engine_bug_is_not_recorded_as_an_error(monkeypatch):
    def broken(state, message):
        raise ValueError("engine bug")

    monkeypatch.setattr(kernel, "cms_handle", broken)
    with pytest.raises(ValueError, match="engine bug"):
        run(load_bundled("clean_case"))


# -- delivery


def test_deliver_reliable_link():
    rng = random.Random(1)
    for now in (0, 5, 99):
        outcome = deliver(3, 0.0, now, rng)
        assert outcome.delivered and outcome.at_time == now + 3


def test_deliver_total_loss():
    rng = random.Random(1)
    assert all(not deliver(1, 1.0, 0, rng).delivered for _ in range(100))


def test_deliver_binomial_drop_fraction():
    rng = random.Random(12)
    n = 10_000
    dropped = sum(not deliver(1, 0.25, 0, rng).delivered for _ in range(n))
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(dropped / n - 0.25) <= 3 * sigma


def test_per_link_override():
    bus = BusConfig(latency_s=1, drop_rate=0.0,
                    links={"CMS->MTC": LinkConfig(drop_rate=1.0)})
    assert bus.link_params("CMS", "MTC") == (1, 1.0)
    assert bus.link_params("MTC", "CMS") == (1, 0.0)


@pytest.mark.parametrize("scenario", [
    pytest.param(lambda: load_bundled("dropped_link"), id="dropped_link"),
    pytest.param(lambda: kernel.load_scenario(hospital_day.generate(0, rooms=3, items=150)),
                 id="noisy-3-room-day"),
])
def test_each_link_is_resolved_once_per_run(scenario, monkeypatch):
    # and once in total over the runs of one plan
    calls = []
    link_params = BusConfig.link_params
    monkeypatch.setattr(BusConfig, "link_params",
                        lambda bus, *ends: calls.append(ends) or link_params(bus, *ends))
    plan = kernel.plan(scenario())
    for seed in range(5):
        plan.run(seed)
    assert len(calls) == len(plan.links) > 1


# -- run determinism and golden traces


def test_same_seed_identical_traces():
    scenario = load_bundled("sponge_in_cavity")
    assert run(scenario).to_ndjson() == run(scenario).to_ndjson()


def test_different_seed_allowed_same_structure():
    base = load_bundled("clean_case")
    other = dataclasses.replace(base, seed=99)
    # perfect sensors: a different seed draws differently but sees the same world
    assert run(base).records[-1]["entries"] == run(other).records[-1]["entries"]


def test_golden_retention_alert_before_reconciled():
    trace = run(load_bundled("sponge_in_cavity"))
    kinds = []
    for record in trace.records:
        if record["type"] == "alert":
            kinds.append(("alert", record["kind"], record["severity"]))
        elif record["type"] == "phase":
            kinds.append(("phase", record["to"]))
    assert ("alert", "RsbSuspected", "Critical") in kinds
    assert ("phase", "Reconciled") not in kinds


GOLDENS = ("clean_case", "sponge_in_cavity", "sponge_in_cavity_recovered",
           "pocket_carry", "new_equipment", "dropped_link", "cavity_retention")


def test_all_goldens_validate():
    for name in GOLDENS:
        trace = run(load_bundled(name))
        assert validate_trace(trace) == [], name


def _plan_cases():
    """(scenario, seeds): the goldens over 20 seeds, and lossy, noisy random
    surgeries, whose bus and reader streams a run makes on first use."""
    for name in GOLDENS:
        yield load_bundled(name), range(20)
    for latency_s in (1, 3):
        for seed in range(100):
            yield (random_scenario(seed, p_detect=0.8, drop_rate=0.1, latency_s=latency_s),
                   range(seed, seed + 3))


def test_one_plan_run_over_many_seeds_gives_fresh_runs():
    # a run that changed the plan, or kept a list the plan or an earlier trace
    # holds, would show in a later run of the same plan
    for scenario, seeds in _plan_cases():
        fresh = {seed: run(dataclasses.replace(scenario, seed=seed)).to_ndjson()
                 for seed in seeds}
        plan = kernel.plan(scenario)
        for seed in [*seeds, *reversed(seeds)]:
            trace = plan.run(seed)
            assert trace.to_ndjson() == fresh[seed], (scenario.name, seed)
            meta = trace.records[0]
            meta["rooms"].append("OR-9")
            meta["items"][0]["tag"] = "T-mutated"
            meta["items"].append({"tag": "T-extra"})
            meta["cases"].clear()


@pytest.mark.parametrize("records", [
    [{}],
    [{"t": 0}],
    [{"t": 0, "type": "meta"}, {"t": "x", "type": "meta"}],
    [{"t": 0, "type": "phase", "case": "C-1", "from": "Nope", "to": "InProgress"}],
    [{"t": 0, "type": "msg", "status": "dropped", "sent_at": 0, "msg": {}}],
    [{"t": 0, "type": "msg", "status": "dropped", "sent_at": 0, "msg": 3}],
], ids=["empty", "no-type", "tick-not-a-number", "unknown-phase", "msg-without-id",
        "msg-not-an-object"])
def test_validate_trace_reports_a_malformed_record_as_a_problem(records):
    problems = validate_trace(Trace(records=records))
    assert len(problems) == 1 and problems[0].startswith(f"record {len(records) - 1}: ")


@pytest.mark.parametrize("records", [
    [{}],
    [{"t": 0}],
    [{"t": 0, "type": "meta"}, {"t": "x", "type": "meta"}],
    [{"t": 0, "type": "msg", "status": "dropped", "sent_at": 0, "msg": {}}],
    [{"t": 0, "type": "msg", "status": "dropped", "sent_at": 0, "msg": 3}],
    [3],
], ids=["empty", "no-type", "meta-without-cases", "msg-without-payload", "msg-not-an-object",
        "record-not-an-object"])
def test_read_trace_reports_a_malformed_record_as_a_trace_error(records):
    with pytest.raises(TraceIOError, match=r"^record 0: malformed \("):
        kernel.read_trace(Trace(records=records))


def test_trace_round_trips_through_ndjson():
    trace = run(load_bundled("clean_case"))
    assert Trace.from_ndjson(trace.to_ndjson()) == trace


@pytest.mark.parametrize("records", [
    [],
    [{"t": 0, "type": "meta", "name": "Salle d\u2019op\u00e9ration \u00e9t\u00e9", "seed": 3,
      "rooms": ["OR-1"], "items": [{"tag": "T-1", "kind": "Sponge", "item_id": "I-1"}]},
     {"t": 7, "type": "msg", "msg": {"payload": {"scan": {"detected": ["T-1"], "passes": 3},
                                                 "kind": "CavityScanResult"}, "msg_id": 0},
      "ratio": 0.1, "big": 1e300, "none": None, "flag": True}],
], ids=["empty", "non-ascii-nested-float"])
def test_to_ndjson_is_json_dumps_per_record(records):
    text = Trace(records=records).to_ndjson()
    assert text == "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                           for r in records)
    assert text.isascii()
    if records:
        assert "\\u00e9" in text


def test_from_ndjson_rejects_torn_and_blank_lines():
    text = run(load_bundled("clean_case")).to_ndjson()
    for torn in (text[:-1], text + "\n", text.replace("\n", "\n{", 1)):
        with pytest.raises(TraceIOError, match="truncated record"):
            Trace.from_ndjson(torn)


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
def test_from_ndjson_ends_a_record_only_at_newline(separator):
    record = {"t": 0, "type": "meta", "name": f"a{separator}b"}
    text = json.dumps(record, ensure_ascii=False) + "\n"
    assert separator in text
    assert Trace.from_ndjson(text).records == [record]
    assert Trace.from_ndjson(text.replace("\n", "\r\n")).records == [record]
    for torn in (text[:-1], text + "\n"):
        with pytest.raises(TraceIOError, match="truncated record"):
            Trace.from_ndjson(torn)


def test_dropped_link_diverges_from_zero_loss_replay():
    lossy = load_bundled("dropped_link")
    lossless = dataclasses.replace(lossy, bus=BusConfig(latency_s=1, drop_rate=0.0))
    lossy_trace, clean_trace = run(lossy), run(lossless)

    def checklist(trace):
        record = next(r for r in trace.records if r["type"] == "case")
        return set(record["entries"])

    dropped_tags = {r["msg"]["payload"]["tag"] for r in lossy_trace.records
                    if r["type"] == "msg" and r["status"] == "dropped"
                    and r["msg"]["payload"]["kind"] == "NewEquipmentInOR"}
    diff = checklist(clean_trace) - checklist(lossy_trace)
    assert diff == dropped_tags == {"T-9"}
    alert_kinds = {r["kind"] for r in lossy_trace.records if r["type"] == "alert"}
    assert "NewEquipmentDetected" not in alert_kinds


def test_rng_streams_independent_of_each_other():
    # same name, same seed: identical; different names: unrelated draws
    assert rng_stream(7, "a").random() == rng_stream(7, "a").random()
    assert rng_stream(7, "a").random() != rng_stream(7, "b").random()


def test_adding_a_sensor_does_not_perturb_other_streams():
    # the cavity scan draw decides this scenario's outcome; configuring an
    # unrelated sensor must not change it (named streams, not one shared rng)
    from ortrack.sensing import SensorModel

    base = load_bundled("cavity_retention")
    extra = dataclasses.replace(
        base, sensors={**base.sensors, "entrance:SPD": SensorModel(p_detect=0.5)})
    for seed in range(30):
        t1 = run(dataclasses.replace(base, seed=seed))
        t2 = run(dataclasses.replace(extra, seed=seed))
        outcome1 = [r for r in t1.records if r["type"] in ("alert", "phase")]
        outcome2 = [r for r in t2.records if r["type"] in ("alert", "phase")]
        assert outcome1 == outcome2


@pytest.mark.parametrize("name, streams", [
    ("cavity_retention", {"sensor:med:OR-1"}),  # the one reader with p_detect < 1
    ("dropped_link", {"bus:CMS->MTC"}),  # the one link with drop_rate > 0
    ("clean_case", set()),  # three items, every reader at p=1, a lossless bus
])
def test_streams_only_for_sources_whose_draws_can_change_the_outcome(name, streams):
    engines = []
    run(load_bundled(name), observer=lambda time_s, world, engine: engines.append(engine))
    assert engines and set(engines[-1].rngs) == streams


@pytest.mark.parametrize("sensor, schedules", [
    ("entrance:SPD", 0),  # nothing in clean_case crosses the SPD entrance
    ("entrance:OR-1", 1),
])
def test_a_reader_draws_its_outage_schedule_on_first_read(sensor, schedules, monkeypatch):
    calls = []
    schedule = sensing.sensor_failure_schedule
    monkeypatch.setattr(sensing, "sensor_failure_schedule",
                        lambda *args: calls.append(args) or schedule(*args))
    base = load_bundled("clean_case")
    scenario = dataclasses.replace(base, sensors={
        **base.sensors, sensor: sensing.SensorModel(p_detect=1.0, mtbf_s=1e9, mttr_s=1.0)})
    assert run(scenario).to_ndjson() == run(base).to_ndjson()
    assert len(calls) == schedules


def test_a_run_leaves_no_cyclic_garbage():
    # an engine that referenced itself (say, through a table of its bound
    # methods) would live on until the cyclic collector ran
    scenarios = [load_bundled(name) for name in GOLDENS]
    scenarios.append(kernel.load_scenario(hospital_day.generate(3, rooms=3, items=60)))
    scenarios += [random_scenario(seed) for seed in range(20)]
    gc.collect()
    gc.disable()
    try:
        for scenario in scenarios:
            for offset in range(3):
                run_summary(run(dataclasses.replace(scenario, seed=scenario.seed + offset)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_final_cavity_occupancy_from_trace():
    trace = run(load_bundled("sponge_in_cavity"))
    assert kernel.read_trace(trace).cavity == {"OR-1": {"T-4"}}
    trace = run(load_bundled("sponge_in_cavity_recovered"))
    assert kernel.read_trace(trace).cavity == {"OR-1": set()}


def test_read_trace_first_seen_counts_every_record_naming_a_tag():
    scan = {"kind": "CavityScanResult", "case": "C-1", "scan": {"detected": ["C"], "passes": 2}}
    reading = kernel.read_trace(Trace(records=[
        {"t": 1, "type": "msg", "status": "dropped", "msg": {"payload": {"kind": "K", "tag": "A"}}},
        {"t": 2, "type": "alert", "case": None, "kind": "K", "tags": ["B", "A"]},
        {"t": 3, "type": "msg", "status": "delivered", "msg": {"payload": scan}},
        {"t": 4, "type": "gt", "tag": "D", "from": {"site": "SPD", "sub": "None"},
         "to": {"site": "OR-1", "sub": "ToolTray"}}]))
    assert reading.first_seen == {"A": 1, "B": 2, "C": 3, "D": 4}
    assert reading.scan_passes == {"C-1": 2}
    assert reading.alerts == {None: [{"t": 2, "type": "alert", "case": None, "kind": "K",
                                      "tags": ["B", "A"]}]}


def test_belief_matches_ground_truth_under_perfect_sensing():
    # zero latency, perfect reads, no loss: after every tick the active
    # checklist equals the set of tags physically inside the room
    checked = 0
    for seed in range(60):
        scenario = random_scenario(seed, latency_s=0)

        def observer(time_s, world, engine):
            nonlocal checked
            for room, mtc in engine.mtcs.items():
                truth = {tag for tag, loc in world.placements.items() if loc.site == room}
                assert mtc.active_tags() == truth, \
                    f"seed {seed} t={time_s}"
                checked += 1

        run(scenario, observer=observer)
    assert checked > 100


def test_generated_scenarios_pass_validation():
    for seed in range(40):
        kernel.validate_scenario(random_scenario(seed))


def _final_entry(events, latency_s, tag="T-1"):
    """``tag``'s checklist entry in the final case record of a ``one_room`` run."""
    return run(one_room(events, BusConfig(latency_s=latency_s))).records[-1]["entries"][tag]


def test_a_sweep_after_a_reconcile_status_change_is_read():
    # The scan made at t=11 saw T-1 in the cavity, so at t=12 reconciliation
    # marks it InCavityBelief although the tray already holds it again; the
    # tray is unchanged at t=20, but its sweep must still set OnTray.
    entry = _final_entry([
        StaffEvent(1, "move", tag="T-1", to_site=OR, to_sub="ToolTray"),
        StaffEvent(2, "place_in_cavity", tag="T-1"),
        StaffEvent(10, "announce_closing", case="C-1"),
        StaffEvent(12, "remove_from_cavity", tag="T-1"),
        StaffEvent(20, "move", tag="T-2", to_site=OR, to_sub="RoomSpace")], latency_s=1)
    assert entry == {"status": "OnTray", "last_seen_s": 20}


def test_a_sweep_after_a_late_removal_is_read():
    # T-1 leaves and is back on the tray before its EquipmentLeftOR arrives at
    # t=30; the tray is unchanged at t=40, but its sweep must reactivate T-1.
    entry = _final_entry([
        StaffEvent(1, "move", tag="T-1", to_site=OR, to_sub="ToolTray"),
        StaffEvent(20, "carry_out", tag="T-1"),
        StaffEvent(21, "move", tag="T-1", to_site=OR, to_sub="ToolTray"),
        StaffEvent(40, "move", tag="T-2", to_site=OR, to_sub="RoomSpace")], latency_s=5)
    assert entry == {"status": "OnTray", "last_seen_s": 40}


def test_a_message_for_a_completed_case_is_recorded_as_an_error():
    # T-2 enters and T-1 leaves after the SPD ack completed the case at t=22
    trace = run(one_room([
        StaffEvent(1, "move", tag="T-1", to_site=OR, to_sub="ToolTray"),
        StaffEvent(10, "announce_closing", case="C-1"),
        StaffEvent(20, "spd_ack", case="C-1"),
        StaffEvent(30, "move", tag="T-2", to_site=OR, to_sub="ToolTray"),
        StaffEvent(40, "carry_out", tag="T-1")]))
    stale = "case C-1 already complete"
    assert [r for r in trace.records if r["type"] == "error"] == [
        {"t": 32, "type": "error", "op": "NewEquipmentInOR", "detail": stale},
        {"t": 42, "type": "error", "op": "EquipmentLeftOR", "detail": stale}]
    assert validate_trace(trace) == []


def test_a_skipped_sweep_leaves_the_trace_a_read_sweep_leaves(monkeypatch):
    # with messages arriving a move or two later, a move can meet a cart whose
    # entries changed since its last sweep; skipping must still match reading
    scenarios = [random_scenario(seed, latency_s=latency_s)
                 for latency_s in (5, 10, 20) for seed in range(300)]
    skipping = [run(scenario).to_ndjson() for scenario in scenarios]
    resolve = kernel._Engine._antenna
    # an antenna that is not certain is never skipped
    monkeypatch.setattr(kernel._Engine, "_antenna",
                        lambda engine, room, which: resolve(engine, room, which)[:5] + (None,))
    assert [run(scenario).to_ndjson() for scenario in scenarios] == skipping


def test_a_bin_holding_its_last_set_is_not_read_again(monkeypatch):
    # The reconciliation at t=12 reads the bin itself; at t=20 the bin still
    # holds exactly that set, all Discarded, so the sweep is skipped.
    scenario = one_room([
        StaffEvent(1, "move", tag="T-1", to_site=OR, to_sub="ToolTray"),
        StaffEvent(2, "move", tag="T-2", to_site=OR, to_sub="ToolTray"),
        StaffEvent(3, "discard", tag="T-2"),
        StaffEvent(10, "announce_closing", case="C-1"),
        StaffEvent(20, "move", tag="T-1", to_site=OR, to_sub="RoomSpace")])
    bin_reads = []
    read_tags = sensing.read_tags

    def counting(sensor_id, *args):
        if sensor_id == f"bin:{OR}":
            bin_reads.append(args[3])
        return read_tags(sensor_id, *args)

    monkeypatch.setattr(sensing, "read_tags", counting)
    trace = run(scenario).to_ndjson()
    assert bin_reads == [1, 3, 12]
    # the trace a read at t=20 leaves
    assert hashlib.sha256(trace.encode()).hexdigest() == \
        "26bd0ca256acc6b7f63849cc8af6f7304974ee94f7185aea3412f7fd36b1f782"
