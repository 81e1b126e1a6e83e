"""Scheduler and scenario machinery: loading, determinism, bus, fault injection."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OR, load_bundled, one_room, random_scenario, scenario_text
from ortrack import kernel, protocol, sensing
from ortrack.cli import run_summary
from ortrack.kernel import (
    BusConfig,
    ItemSpec,
    LinkConfig,
    ParseError,
    Scenario,
    StaffEvent,
    ValidationError,
    deliver,
    load_scenario,
    rng_stream,
    run,
    validate_trace,
)
from ortrack.model import ItemKind
from ortrack.protocol import CasePhase, ProtocolMessage, med_on_request
from ortrack.trace import Trace, TraceIOError, read_trace

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
    ("items-entry-not-object", [(("items", 0), 1)], ValidationError,
     "items[0] must be an object"),
    ("cases-entry-not-object", [(("cases", 0), "C-1")], ValidationError,
     "cases[0] must be an object"),
    ("events-entry-not-object", [(("events", 0), [10, "move"])], ValidationError,
     "events[0] must be an object"),
    ("sensors-list", [(("sensors",), [])], ValidationError, "scenario.sensors must be dict"),
    ("bus-list", [(("bus",), [])], ValidationError, "scenario.bus must be dict"),
    ("link-not-object", [(LINK, {"RS->CMS": 3})], ValidationError,
     "links['RS->CMS'] must be an object"),
    ("scan_passes-string", [(("cases", 0, "scan_passes"), "2")], ValidationError,
     "scan_passes must be int"),
    ("scan_passes-float", [(("cases", 0, "scan_passes"), 1.5)], ValidationError,
     "scan_passes must be int"),
    ("max_rescans-float", [(("cases", 0, "max_rescans"), 1.5)], ValidationError,
     "max_rescans must be int"),
    ("scan_passes-over-cap", [(("cases", 0, "scan_passes"), kernel.MAX_SCAN_PASSES + 1)],
     ValidationError, "scan_passes = 101 is outside [1, 100]"),
    ("max_rescans-over-cap", [(("cases", 0, "max_rescans"), kernel.MAX_RESCANS + 1)],
     ValidationError, "max_rescans = 101 is outside [0, 100]"),
    ("bus-latency-string", [(("bus", "latency_s"), "1")], ValidationError,
     "bus.latency_s must be int"),
    ("p_detect-string", [(("sensors", "med:OR-1", "p_detect"), "x")], ValidationError,
     "p_detect must be number"),
    ("link-drop_rate-above-one", [(LINK, {"CMS->MTC": {"drop_rate": 2.0}})], ValidationError,
     "drop_rate = 2.0 is outside [0, 1]"),
    ("link-unknown-nodes", [(LINK, {"FOO->BAR": {"drop_rate": 0.5}})], ValidationError,
     "a link is <from>-><to>"),
    ("link-negative-latency", [(LINK, {"RS->CMS": {"latency_s": -5}})], ValidationError,
     "latency_s = -5 is outside"),
    ("distance-negative", [(("events", 0, "distance_m"), -1)], ValidationError,
     "distance_m = -1 is outside"),
    ("horizon-bool", [(("horizon_s",), True), (("events",), [])], ValidationError,
     "horizon_s must be int"),
    ("t-bool", [(("events", 0, "t"), True)], ValidationError, "events[0].t must be int"),
    ("seed-string", [(("seed",), "abc")], ValidationError, "seed must be int"),
    ("name-number", [(("name",), 5)], ValidationError, "name must be str"),
    ("sterile-is-unknown", [(("items", 0, "sterile"), True)], ValidationError,
     "unknown keys ['sterile']"),
    ("item_id-number", [(("items", 0, "item_id"), 5)], ValidationError, "item_id must be str"),
    ("item_id-duplicate", [(("items", 0, "item_id"), "X"), (("items", 1, "item_id"), "X")],
     ValidationError, "duplicate item_id"),
    ("tag_id-list", [(("items", 0, "tag_id"), ["T-1"])], ValidationError, "tag_id must be str"),
    ("case_id-slash", [(("cases", 0, "case_id"), "x/../y"), (("events", 6, "case"), "x/../y"),
                       (("events", 7, "case"), "x/../y")], ValidationError,
     "case_id may not contain"),
    ("case_id-backslash", [(("cases", 0, "case_id"), "x\\y"), (("events", 6, "case"), "x\\y"),
                           (("events", 7, "case"), "x\\y")], ValidationError,
     "case_id may not contain"),
    ("case_id-list", [(("cases", 0, "case_id"), ["C-1"])], ValidationError,
     "case_id must be str"),
    ("to_site-list", [(("events", 0, "to_site"), ["OR-1"])], ValidationError,
     "to_site must be str"),
    ("kind-list", [(("events", 0, "kind"), ["move"])], ValidationError, "kind must be str"),
    ("event-unknown-key", [(("events", 0, "colour"), "red")], ValidationError,
     "unknown keys ['colour']"),
    ("outages-over-cap", [(("horizon_s",), 1_000_000),
                          (("sensors", "med:OR-1", "mtbf_s"), 1e-3)], ValidationError,
     "expected outages"),
    ("mtbf-nan", [(("sensors", "med:OR-1", "mtbf_s"), NAN)], ParseError,
     "NaN is not a JSON number"),
    ("mtbf-infinity", [(("sensors", "med:OR-1", "mtbf_s"), INF)], ParseError,
     "Infinity is not a JSON number"),
    ("mttr-nan", [(("sensors", "med:OR-1", "mttr_s"), NAN)], ParseError,
     "NaN is not a JSON number"),
    ("distance-infinity", [(("events", 0, "distance_m"), INF)], ParseError,
     "Infinity is not a JSON number"),
    ("drop_rate-nan", [(("bus", "drop_rate"), NAN)], ParseError, "NaN is not a JSON number"),
    ("event-after-horizon", [(("events", 0, "t"), 101)], ValidationError,
     "event after horizon"),
    ("to_sub-not-a-sub-location", [(("events", 0, "to_sub"), "Ceiling")], ValidationError,
     "bad sub-location"),
    ("to_site-unknown", [(("events", 0, "to_site"), "OR-9")], ValidationError, "unknown site"),
    ("to_sub-outside-a-room", [(("events", 0, "to_site"), "SPD")], ValidationError,
     "sub-location outside an operating room"),
    ("discard-from-the-equipment-room", [(("events", 0, "kind"), "discard")], ValidationError,
     "cannot discard from"),
    ("item-kind-unknown", [(("items", 0, "kind"), "Scalpel")], ValidationError, "unknown kind"),
    ("event-kind-unknown", [(("events", 0, "kind"), "teleport")], ValidationError,
     "unknown kind"),
    ("p_detect-zero", [(("sensors", "med:OR-1", "p_detect"), 0)], ValidationError,
     "p_detect must be in"),
]


@pytest.mark.parametrize("changes, error, fragment",
                         [pytest.param(c, e, f, id=name) for name, c, e, f in BAD_INPUTS])
def test_bad_input_rejected(changes, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
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


def test_the_loader_accepts_each_cap_and_a_drop_rate_of_one():
    scenario = load_scenario(mutated((("cases", 0, "scan_passes"), kernel.MAX_SCAN_PASSES),
                                     (("cases", 0, "max_rescans"), kernel.MAX_RESCANS),
                                     (("bus", "drop_rate"), 1),
                                     (LINK, {"MTC->MED": {"drop_rate": 1}})))
    case = scenario.cases[0]
    assert (case.scan_passes, case.max_rescans) == (kernel.MAX_SCAN_PASSES, kernel.MAX_RESCANS)
    assert scenario.bus.drop_rate == 1 and scenario.bus.link_params("MTC", "MED") == (1, 1)


def test_an_omitted_latency_is_one_tick():
    obj = json.loads(mutated((LINK, {"MTC->MED": {"drop_rate": 0.5}})))
    del obj["bus"]["latency_s"]
    bus = load_scenario(json.dumps(obj)).bus
    assert bus.latency_s == 1 and bus.link_params("MTC", "MED") == (1, 0.5)


def test_run_rejects_a_repeated_tag_in_a_scenario_built_in_python():
    # run does not validate, so setup checks the tags the world is keyed by
    scenario = Scenario(name="dup", seed=0, horizon_s=10, rooms=[OR],
                        items=[ItemSpec("T-1", ItemKind.SPONGE), ItemSpec("T-1", ItemKind.BLADE)],
                        sensors={}, cases=[], events=[])
    with pytest.raises(ValidationError, match="tag_id"):
        run(scenario)


def test_run_rejects_two_cases_in_one_room_in_a_scenario_built_in_python():
    # run does not validate, so setup checks the rooms the carts are keyed by: a second
    # case in a room would take over the first case's cart
    scenario = one_room([])
    scenario.cases.append(kernel.CaseSpec("C-2", OR))
    with pytest.raises(ValidationError, match="room with a case"):
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


def test_messages_due_at_one_tick_are_delivered_med_then_mtc_then_cms():
    # the receiver's NODE_PRIORITY breaks the tie, whatever order they were sent in
    receivers = ["MED:OR-1", "MTC:OR-1", "CMS"]
    for sends in itertools.permutations(receivers):
        plan = kernel.Plan(one_room([]))
        delivered = []
        plan.dispatch = dict.fromkeys(receivers, (
            lambda _, __, message, now: delivered.append((now, message.to_node)), OR))
        engine = kernel._Engine(plan, 0)
        for node in sends:
            engine._send(ProtocolMessage(5, "SPD", node, {"kind": "Ping"}), 5)
        engine.run()
        assert delivered == [(6, node) for node in receivers], sends


def test_a_scan_result_for_a_complete_cart_is_recorded_as_an_error():
    engine = kernel._Engine(kernel.Plan(one_room([])), 0)
    cart = engine.mtcs[OR]
    cart.phase = CasePhase.COMPLETE
    med_on_request(cart, sensing.ScanResult(frozenset(), 1), 5, engine.out)
    engine._emit(cart.case_id, 5)
    records = engine.run().records
    assert [r for r in records if r["type"] in ("error", "alert", "phase")] == [
        {"t": 6, "type": "error", "op": "CavityScanResult",
         "detail": "case C-1 already complete"}]


def test_engine_bug_is_not_recorded_as_an_error(monkeypatch):
    def broken(state, message, out):
        raise ValueError("engine bug")

    monkeypatch.setattr(kernel, "cms_handle", broken)
    with pytest.raises(ValueError, match="engine bug"):
        run(load_bundled("clean_case"))


@pytest.mark.parametrize("kind", ["announce_closing", "spd_ack"])
def test_a_staff_event_for_an_unknown_case_is_recorded_as_an_error(kind):
    # Plan does not validate a scenario built in Python, so the event reaches the engine
    scenario = load_bundled("clean_case")
    scenario.events.append(StaffEvent(scenario.horizon_s, kind, case="C-404"))
    trace = run(scenario)
    assert [r for r in trace.records if r["type"] == "error"] == [
        {"t": scenario.horizon_s, "type": "error", "op": kind, "detail": "unknown case: C-404"}]
    assert validate_trace(trace) == []


@pytest.mark.parametrize("event, message", [
    (StaffEvent(1, "move", tag="NOPE", to_site=OR), "unknown item: NOPE"),
    (StaffEvent(1, "discard"), "unknown item: None"),
    (StaffEvent(1, "teleport", tag="T-1", to_site=OR), "unknown kind 'teleport'"),
], ids=["unknown-tag", "no-tag", "unknown-kind"])
def test_an_unknown_item_or_kind_raises_a_value_error_in_the_loaders_words(event, message):
    # Plan does not validate a scenario built in Python, so the move reaches the engine
    scenario = load_bundled("clean_case")
    scenario.events.insert(0, event)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(scenario)
    with pytest.raises(ValidationError, match=f"^{re.escape(f'events[0]: {message}')}$"):
        kernel.validate_scenario(scenario)


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


def test_deliver_outcomes_on_lossless_lossy_and_dead_links():
    # a drop is decided by one draw against the drop rate, and only on a lossy link
    for drop_rate in (0.0, 0.3, 1.0):
        rng, twin = random.Random(5), random.Random(5)
        for now in range(200):
            outcome = deliver(4, drop_rate, now, rng)
            dropped = drop_rate > 0.0 and twin.random() < drop_rate
            assert type(outcome) is kernel.DeliveryOutcome
            assert (outcome.delivered, outcome.at_time) == (
                (False, None) if dropped else (True, now + 4)), (drop_rate, now)
        assert rng.getstate() == twin.getstate()


def test_per_link_override():
    bus = BusConfig(latency_s=1, drop_rate=0.0,
                    links={"CMS->MTC": LinkConfig(drop_rate=1.0)})
    assert bus.link_params("CMS", "MTC") == (1, 1.0)
    assert bus.link_params("MTC", "CMS") == (1, 0.0)


def _lossless_rule_cases():
    """The goldens, random one-room cases at drop rates 0 and 0.1, and random cases
    whose links mix latency overrides with lossless, lossy and dead links."""
    yield from (load_bundled(name) for name in GOLDENS)
    for seed in range(100):
        yield from (random_scenario(seed, drop_rate=rate) for rate in (0.0, 0.1))
    mixed = BusConfig(latency_s=1, drop_rate=0.0, links={
        "CMS->MTC": LinkConfig(latency_s=3), "RS->CMS": LinkConfig(latency_s=2, drop_rate=0.1),
        "SPD->CMS": LinkConfig(drop_rate=1.0)})
    for seed in range(10):
        yield dataclasses.replace(random_scenario(seed), bus=mixed)


def _link_params(bus: BusConfig, from_node: str, to_node: str) -> tuple[int, float]:
    return bus.link_params(from_node.partition(":")[0], to_node.partition(":")[0])


def test_only_a_lossy_link_asks_deliver_and_every_message_waits_its_latency(monkeypatch):
    # a lossless link has no stream and no drop to decide: its message goes straight
    # onto the heap, due after the link's latency, with no call to deliver
    calls, lossy_sends = [], []
    send, deliver_ = kernel._Engine._send, kernel.deliver
    monkeypatch.setattr(kernel, "deliver", lambda *args: calls.append(args) or deliver_(*args))

    def counting_send(engine, message, now):
        bus = engine.scenario.bus
        lossy_sends.append(_link_params(bus, message.from_node, message.to_node)[1] > 0.0)
        send(engine, message, now)

    monkeypatch.setattr(kernel._Engine, "_send", counting_send)
    total = 0
    for scenario in _lossless_rule_cases():
        del calls[:], lossy_sends[:]
        trace = run(scenario)
        for record in trace.records:
            if record["type"] == "msg" and record["status"] == "delivered":
                msg = record["msg"]
                latency = _link_params(scenario.bus, msg["from"], msg["to"])[0]
                assert record["t"] == record["sent_at"] + latency, (scenario.name, record)
        assert len(calls) == sum(lossy_sends), scenario.name
        assert all(drop_rate > 0.0 for _, drop_rate, _, _ in calls), scenario.name
        total += len(calls)
    assert total > 0


@pytest.mark.parametrize("scenario", [
    pytest.param(lambda: load_bundled("dropped_link"), id="dropped_link"),
    pytest.param(lambda: kernel.load_scenario(hospital_day.generate(0, rooms=3, items=150)),
                 id="noisy-3-room-day"),
])
def test_each_link_is_resolved_once_per_run(scenario, monkeypatch):
    # and once in total over the runs of one plan; a link is a (from type, to type)
    # pair, which the nodes of every room share
    calls = []
    link_params = BusConfig.link_params
    monkeypatch.setattr(BusConfig, "link_params",
                        lambda bus, *ends: calls.append(ends) or link_params(bus, *ends))
    plan = kernel.Plan(scenario())
    for seed in range(5):
        plan.run(seed)
    assert sorted(calls) == sorted(plan.links) and len(calls) > 1
    assert len(plan.routes) >= len(plan.links)


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


def _outage_golden():
    """cavity_retention with a failing detector: its outage schedule is drawn at the
    first cavity scan."""
    scenario = load_bundled("cavity_retention")
    return dataclasses.replace(scenario, sensors={
        **scenario.sensors, "med:OR-1": sensing.SensorModel(p_detect=1.0, mtbf_s=20.0,
                                                            mttr_s=15.0)})


def _plan_cases():
    """(scenario, seeds): the goldens over 20 seeds, a golden with an outage schedule,
    all-certain random surgeries, which draw nothing, and lossy, noisy ones, whose bus
    and reader streams a run makes on first use."""
    for name in GOLDENS:
        yield load_bundled(name), range(20)
    yield _outage_golden(), range(20)
    for seed in range(50):
        yield random_scenario(seed), range(seed, seed + 3)
    for latency_s in (1, 3):
        for seed in range(100):
            yield (random_scenario(seed, p_detect=0.8, drop_rate=0.1, latency_s=latency_s),
                   range(seed, seed + 3))


def _scribble(tree) -> None:
    """Change every dict and list of a JSON tree in place."""
    for child in list(tree.values() if isinstance(tree, dict) else tree):
        if isinstance(child, (dict, list)):
            _scribble(child)
    if isinstance(tree, dict):
        tree.update(dict.fromkeys(tree, "scribbled"))
    else:
        tree.append("scribbled")


def test_one_plan_run_over_many_seeds_gives_fresh_runs():
    # a run that changed the plan, or kept a dict or list the plan or an earlier
    # trace holds, would show in a later run
    for scenario, seeds in _plan_cases():
        fresh = {seed: run(dataclasses.replace(scenario, seed=seed)).to_ndjson()
                 for seed in seeds}
        plan = kernel.Plan(scenario)
        for seed in [*seeds, *reversed(seeds)]:
            trace = plan.run(seed)
            assert trace.to_ndjson() == fresh[seed], (scenario.name, seed)
            for record in trace.records:
                _scribble(record)


def test_the_outage_golden_draws_outages_that_hit():
    hits = sum(r["type"] == "alert" and r["kind"] == "SensorDown"
               for seed in range(20)
               for r in run(dataclasses.replace(_outage_golden(), seed=seed)).records)
    assert hits > 0


def _counted_grafts(monkeypatch) -> list:
    """The paths ``Plan.fold_runs`` adds to its tree from here on."""
    grafts, graft = [], kernel._graft
    monkeypatch.setattr(kernel, "_graft", lambda tree, path, summary: grafts.append(path)
                        or graft(tree, path, summary))
    return grafts


def _memo_cases():
    """(scenario, seeds, most paths fold_runs may add): the goldens, the outage golden, which
    may add none, and noisy random surgeries, lossy or not."""
    for name in GOLDENS:
        yield load_bundled(name), range(100), 2
    yield _outage_golden(), range(20), 0
    for seed in range(20):
        for p_detect, drop_rate in ((0.8, 0.1), (0.95, 0.0)):
            yield random_scenario(seed, p_detect=p_detect, drop_rate=drop_rate), range(100), 100


def test_fold_runs_gives_each_seed_the_summary_of_its_own_run(monkeypatch):
    grafts = _counted_grafts(monkeypatch)
    for scenario, seeds, most in _memo_cases():
        plan, grafts[:] = kernel.Plan(scenario), []
        assert list(plan.fold_runs(seeds, run_summary)) == [
            run_summary(plan.run(seed)) for seed in seeds], scenario.name
        assert len(grafts) <= most, scenario.name
        if scenario.name == "cavity_retention":  # the detector's one pass hits or misses
            assert [[hit for _, _, hit in path] for path in grafts] == [[True], [False]]


@pytest.mark.parametrize("p_detect, problem", [
    (0.5, "tested sensor:med:OR-1 < 0.5"),
    (1.0, "ended where another run with the same outcomes went on"),
], ids=["another-threshold", "no-draw"])
def test_a_run_whose_tests_disagree_with_the_tree_raises(p_detect, problem, monkeypatch):
    # from the second recorded run on, the detector draws against another threshold, or
    # not at all: runs with the same outcomes then differ, and the memo must not hide it
    scans, med_scan = itertools.count(), sensing.med_scan
    monkeypatch.setattr(sensing, "med_scan", lambda cavity, passes, model, rng: med_scan(
        cavity, passes, dataclasses.replace(model, p_detect=p_detect) if next(scans) else model,
        rng))
    plan = kernel.Plan(load_bundled("cavity_retention"))
    with pytest.raises(RuntimeError, match=re.escape(problem)):
        list(plan.fold_runs(range(100), run_summary))


def test_the_stop_rule_runs_the_rest_of_a_many_path_batch_directly(monkeypatch):
    # every seed of this surgery takes a path of its own
    grafts = _counted_grafts(monkeypatch)
    plan = kernel.Plan(random_scenario(0, p_detect=0.8, drop_rate=0.1))
    seeds = range(3 * kernel._MEMO_WINDOW)
    assert list(plan.fold_runs(seeds, run_summary)) == [run_summary(plan.run(seed))
                                                        for seed in seeds]
    assert len(grafts) == kernel._MEMO_WINDOW


def test_a_plan_with_an_outage_schedule_records_no_run(monkeypatch):
    # an outage schedule's draws are onsets, not tests, so every seed runs as plan.run does
    monkeypatch.setattr(kernel, "_Recorder", None)
    plan = kernel.Plan(_outage_golden())
    assert list(plan.fold_runs(range(100), run_summary)) == [run_summary(plan.run(seed))
                                                             for seed in range(100)]


_META = {"t": 0, "type": "meta", "items": [], "cases": [], "horizon_s": 60}


@pytest.mark.parametrize("records", [
    [{}],
    [{"t": 0}],
    [_META, {**_META, "t": "x"}],
    [{"t": 0, "type": "phase", "case": "C-1", "from": "Nope", "to": "InProgress"}],
    [{"t": 0, "type": "msg", "status": "dropped", "sent_at": 0, "msg": {"payload": {}}}],
    [{"t": 0, "type": "msg", "status": "dropped", "sent_at": 0, "msg": 3}],
    [{"t": 0, "type": "gt", "tag": "T-1"}],
    [{"t": 0, "type": "alert"}],
    [{"t": 0, "type": "meta"}],
], ids=["empty", "no-type", "tick-not-a-number", "unknown-phase", "msg-without-id",
        "msg-not-an-object", "gt-with-only-a-tag", "alert-without-fields", "meta-without-items"])
def test_validate_trace_reports_a_malformed_record_as_a_problem(records):
    problems = validate_trace(Trace(records=records))
    assert len(problems) == 1 and problems[0].startswith(f"record {len(records) - 1}: ")


def _msg_record(msg_id: int, t: int = 0, status: str = "dropped", sent_at: int = 0) -> dict:
    return {"t": t, "type": "msg", "status": status, "sent_at": sent_at,
            "msg": {"msg_id": msg_id, "payload": {}}}


@pytest.mark.parametrize("records, problems", [
    ([{"t": 0, "type": "phase", "case": "C-1", "from": "Setup", "to": "Complete"}],
     ["record 0: illegal transition Setup -> Complete"]),
    ([_msg_record(0), _msg_record(0)], ["record 1: duplicate msg_id 0"]),
    ([_msg_record(0, t=0, status="delivered", sent_at=5)], ["record 0: delivered before sent"]),
    ([_msg_record(0, t=5, status="delivered", sent_at=5)], []),
    ([_msg_record(0, status="bogus")], ["record 0: unknown msg status 'bogus'"]),
    ([_META, {"t": 0, "type": "bogus"}], ["record 1: unknown type 'bogus'"]),
    ([_META, {"t": 0, "type": "gt", "tag": "T-1", "from": {"site": OR, "sub": "RoomSpace"},
              "to": {"site": OR, "sub": "ToolTray"}},
      {"t": 0, "type": "alert", "case": None, "kind": "K", "severity": "Info", "tags": [],
       "text": ""}, {"t": 0, "type": "error"},
      {"t": 0, "type": "case", "case_id": "C-1", "phase": "Setup", "outcomes": [],
       "entries": {}}], []),
    # a malformed record moves no check: its tick is not the one later records follow
    ([{"t": 100, "type": "msg", "status": "dropped", "sent_at": 0, "msg": {"payload": {}}},
      _msg_record(0, t=50)], ["record 0: malformed (KeyError('msg_id'))"]),
], ids=["phase-skips-ahead", "msg-id-repeated", "delivered-before-sent",
        "delivered-in-its-send-tick", "unknown-msg-status", "unknown-type",
        "well-formed-types", "malformed-then-earlier-tick"])
def test_validate_trace_checks_phase_paths_msg_ids_and_causality(records, problems):
    assert validate_trace(Trace(records=records)) == problems


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
        read_trace(Trace(records=records))


def test_trace_round_trips_through_ndjson():
    trace = run(load_bundled("clean_case"))
    assert Trace.from_ndjson(trace.to_ndjson()) == trace


def _dumps_per_record(records: list) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


_MEMBERS = [member for enum in (protocol.CasePhase, protocol.TagStatus, ItemKind)
            for member in enum]
_KEYS = st.text(max_size=6) | st.sampled_from(_MEMBERS)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | st.sampled_from(_MEMBERS)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12)
_RECORDS = st.lists(st.dictionaries(_KEYS, _VALUES, max_size=5), max_size=4)


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
    assert text == _dumps_per_record(records)
    assert text.isascii()
    if records:
        assert "\\u00e9" in text


@given(records=_RECORDS, shared=st.dictionaries(_KEYS, _VALUES, max_size=3))
@settings(max_examples=150, deadline=None)
def test_to_ndjson_is_json_dumps_per_generated_record(records, shared):
    """Records of every JSON type, escaped strings and state members, and one
    sub-dict shared by two records, serialize as ``json.dumps`` does each one."""
    records = [*records, {"a": shared}, {"b": [shared]}]
    text = Trace(records=records).to_ndjson()
    assert text == _dumps_per_record(records)
    assert text.isascii()


def test_to_ndjson_of_every_golden_is_json_dumps_per_record():
    for name in GOLDENS:
        trace = run(load_bundled(name))
        assert trace.to_ndjson() == _dumps_per_record(trace.records), name


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


@pytest.mark.parametrize("mtbf_s, checks", [
    (None, []),  # no outage schedule: the cavity scan checks none
    (30.0, [("med:OR-1", 51)]),
])
def test_a_cavity_scan_checks_for_an_outage_only_with_a_schedule(mtbf_s, checks, monkeypatch):
    calls = []
    check = sensing.raise_if_down
    monkeypatch.setattr(sensing, "raise_if_down",
                        lambda *args: calls.append(args) or check(*args))
    scenario = load_bundled("clean_case")
    scenario = dataclasses.replace(scenario, sensors={
        **scenario.sensors, "med:OR-1": sensing.SensorModel(mtbf_s=mtbf_s, mttr_s=1.0)})
    run(scenario)
    assert [(sensor_id, now) for sensor_id, _, now in calls] == checks


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
    assert read_trace(trace).cavity == {"OR-1": {"T-4"}}
    trace = run(load_bundled("sponge_in_cavity_recovered"))
    assert read_trace(trace).cavity == {"OR-1": set()}


def test_read_trace_first_seen_counts_every_record_naming_a_tag():
    scan = {"kind": "CavityScanResult", "case": "C-1", "scan": {"detected": ["C"], "passes": 2}}
    reading = read_trace(Trace(records=[
        {"t": 1, "type": "msg", "status": "dropped", "sent_at": 1,
         "msg": {"msg_id": 0, "payload": {"kind": "K", "tag": "A"}}},
        {"t": 2, "type": "alert", "case": None, "kind": "K", "severity": "Info",
         "tags": ["B", "A"], "text": ""},
        {"t": 3, "type": "msg", "status": "delivered", "sent_at": 2,
         "msg": {"msg_id": 1, "payload": scan}},
        {"t": 4, "type": "gt", "tag": "D", "from": {"site": "SPD", "sub": "None"},
         "to": {"site": "OR-1", "sub": "ToolTray"}}]))
    assert reading.first_seen == {"A": 1, "B": 2, "C": 3, "D": 4}
    assert reading.scan_passes == {"C-1": 2}
    assert reading.alerts == {None: [{"t": 2, "type": "alert", "case": None, "kind": "K",
                                      "severity": "Info", "tags": ["B", "A"], "text": ""}]}


def test_read_trace_counts_only_the_passes_of_a_delivered_cavity_scan():
    scenario = load_scenario(mutated((LINK, {"MED->MTC": {"drop_rate": 1}})))
    records = run(scenario).records
    dropped = [r["msg"]["payload"]["scan"]["passes"] for r in records if r["type"] == "msg"
               and r["status"] == "dropped" and r["msg"]["payload"]["kind"] == "CavityScanResult"]
    assert dropped and all(dropped)
    assert read_trace(Trace(records)).scan_passes == {}


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
    # A cart starts with empty sweep sets, so the empty bin at t=1 is not read.
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
    assert bin_reads == [3, 12]
    # the trace a read at t=20 leaves
    assert hashlib.sha256(trace.encode()).hexdigest() == \
        "26bd0ca256acc6b7f63849cc8af6f7304974ee94f7185aea3412f7fd36b1f782"


def test_a_removal_from_the_cavity_with_no_retention_alert_asks_for_no_scan():
    # T-1 leaves the cavity while the scan asked for at closing is in flight;
    # no retention alert is pending, so only that one scan is asked for
    trace = run(one_room([
        StaffEvent(1, "move", tag="T-1", to_site=OR, to_sub="ToolTray"),
        StaffEvent(2, "place_in_cavity", tag="T-1"),
        StaffEvent(10, "announce_closing", case="C-1"),
        StaffEvent(10, "remove_from_cavity", tag="T-1")]))
    requests = [r["t"] for r in trace.records if r["type"] == "msg"
                and r["msg"]["payload"]["kind"] == "RequestCavityScan"]
    assert requests == [11]
    assert trace.records[-1]["outcomes"] == ["Clean"]


@pytest.mark.parametrize("down", ["tray", "bin"])
def test_a_scan_result_with_one_cart_antenna_down_does_not_reconcile(down, monkeypatch):
    # the scan result arrives at t=12, the one tick the antenna is down
    monkeypatch.setattr(sensing, "sensor_failure_schedule", lambda *args: [(12.0, 13.0)])
    scenario = one_room([StaffEvent(1, "move", tag="T-1", to_site=OR, to_sub="ToolTray"),
                         StaffEvent(10, "announce_closing", case="C-1")])
    scenario.sensors[f"{down}:{OR}"] = sensing.SensorModel(p_detect=1.0, mtbf_s=1e9, mttr_s=1.0)
    trace = run(scenario)
    alerts = [(r["t"], r["kind"]) for r in trace.records if r["type"] == "alert"]
    assert alerts == [(12, "SensorDown")]
    case = trace.records[-1]
    assert (case["phase"], case["scans_done"], case["outcomes"]) == ("ClosingAnnounced", 0, [])


def test_an_event_and_a_delivery_at_the_horizon_tick_are_processed():
    # T-1's move at t=59 sends messages that are delivered at the horizon, t=60
    scenario = one_room([StaffEvent(59, "move", tag="T-1", to_site=OR, to_sub="ToolTray"),
                         StaffEvent(60, "move", tag="T-2", to_site=OR, to_sub="ToolTray")])
    assert scenario.horizon_s == 60
    at_horizon = [r for r in run(scenario).records if r["t"] == 60]
    assert any(r["type"] == "gt" and r["tag"] == "T-2" for r in at_horizon)
    assert any(r["type"] == "msg" and r["status"] == "delivered" for r in at_horizon)


def test_the_engine_outbox_is_empty_at_the_end_of_every_tick():
    scenarios = [load_bundled(name) for name in GOLDENS]
    scenarios += [random_scenario(seed, p_detect=0.8, drop_rate=0.1) for seed in range(50)]
    for scenario in scenarios:
        ticks = []

        def observe(time_s, world, engine):
            ticks.append(time_s)
            assert engine.out == protocol.Outputs(), (scenario.name, time_s)

        run(scenario, observe)
        assert ticks, scenario.name
