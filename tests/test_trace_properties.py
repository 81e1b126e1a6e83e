"""Reading a trace is total, and one walk decides whether a trace is valid.

A golden trace's NDJSON with one record mutated, dropped, added, swapped with
another or replaced by arbitrary bytes ends, through ``trace.load``,
``validate_trace`` and ``read_trace``, in a trace, a problem list and a
reading, or in a ``TraceIOError``; nothing else escapes. ``read_trace`` raises
exactly when ``validate_trace`` finds a problem, and names the first one.
``locate`` on any reading gives a belief for a tag the reading registers and
``UnknownTagError`` for any other, and a report or run summary of a readable
foreign trace whose case, alert or meta record lacks a field they read, or has
a phase, outcomes or alert kind of the wrong type, ends in a ``TraceIOError``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDENS, load_bundled, mutate_one_field
from ortrack.cli import run_summary
from ortrack.kernel import run, validate_trace
from ortrack.reconcile import generate_report
from ortrack.trace import Trace, TraceIOError, UnknownTagError, load, locate, read_trace

TRACES = {name: run(load_bundled(name)).records for name in GOLDENS}
NDJSON = {name: Trace(records).to_ndjson() for name, records in TRACES.items()}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_golden_trace_with_one_record_changed_is_read_or_rejected(tmp_path_factory, data):
    name = data.draw(st.sampled_from(GOLDENS))
    records = [json.loads(line) for line in NDJSON[name].splitlines()]
    action = data.draw(st.sampled_from(["field", "swap", "bytes"]))
    i, j = (data.draw(st.integers(0, len(records) - 1)) for _ in range(2))
    if action == "field":
        mutate_one_field(data, records)  # a field of a record, or a whole record
    elif action == "swap":
        records[i], records[j] = records[j], records[i]
    lines = [json.dumps(r, sort_keys=True).encode() + b"\n" for r in records]
    if action == "bytes":
        lines[i] = data.draw(st.binary(max_size=16))  # may tear the record or not be UTF-8
    path = tmp_path_factory.getbasetemp() / "mutated.ndjson"
    path.write_bytes(b"".join(lines))
    try:
        trace = load(str(path))
    except TraceIOError:
        return
    assert isinstance(validate_trace(trace), list)
    try:
        reading = read_trace(trace)
    except TraceIOError:
        return
    for tag in [*reading.kinds, "T-404"]:
        try:
            assert len(locate(reading, tag)) == 2
        except UnknownTagError:
            assert tag not in reading.kinds


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_read_trace_raises_exactly_when_validate_trace_finds_a_problem(data):
    # one field changed, or two records swapped, so ticks and phase paths go wrong too
    records = json.loads(json.dumps(TRACES[data.draw(st.sampled_from(GOLDENS))]))
    if data.draw(st.booleans()):
        mutate_one_field(data, records)
    else:
        i, j = (data.draw(st.integers(0, len(records) - 1)) for _ in range(2))
        records[i], records[j] = records[j], records[i]
    trace = Trace(records)
    try:
        read_trace(trace)
    except TraceIOError as exc:
        assert validate_trace(trace)[:1] == [str(exc)]
    else:
        assert validate_trace(trace) == []


@pytest.mark.parametrize("meta", [
    {"t": 0, "type": "meta", "cases": []},
    {"t": 0, "type": "meta", "cases": [], "items": [{"tag": ["T-1"], "kind": "Sponge"}]},
    {"t": 0, "type": "meta", "cases": [], "items": "T-1"},
], ids=["no-items", "unhashable-tag", "items-not-a-list"])
def test_locate_on_a_readable_foreign_trace_raises_only_trace_errors(meta):
    with pytest.raises((TraceIOError, UnknownTagError)):
        locate(read_trace(Trace([meta])), "T-1")


_CASE = {"t": 0, "type": "case", "case_id": "C-1", "phase": "Setup", "outcomes": [],
         "entries": {}}  # completed_s None: a report's duration is the meta's horizon_s
_META = {"t": 0, "type": "meta", "items": [], "cases": [], "horizon_s": 60}
_ALERT = {"t": 0, "type": "alert", "case": "C-1", "kind": "CountMismatch",
          "severity": "Critical", "tags": [], "text": "count"}


@pytest.mark.parametrize("records", [
    [{"t": 0, "type": "case", "case_id": "C-1"}],
    [{**_CASE, "entries": {"T-1": {"status": "OnTray"}}}],
    [{**_CASE, "entries": []}],
    [{**_CASE, "phase": ["x"]}],
    [{**_CASE, "outcomes": [["x"]]}],
    [{**_CASE, "outcomes": {"a": 1}}],
    *([_META, _CASE, {key: value for key, value in _ALERT.items() if key != field}]
      for field in ("kind", "severity", "text")),
    [_META, _CASE, {**_ALERT, "kind": ["CountMismatch"]}],
    [_CASE, {key: value for key, value in _META.items() if key != "horizon_s"}],
], ids=["no-entries", "entry-without-last-seen", "entries-not-an-object", "phase-not-a-str",
        "outcome-not-a-str", "outcomes-not-a-list", "alert-without-kind",
        "alert-without-severity", "alert-without-text", "alert-kind-not-a-str",
        "meta-without-horizon"])
@pytest.mark.parametrize("consumer", [
    lambda trace: generate_report(read_trace(trace), "C-1"),
    run_summary,
], ids=["generate_report", "run_summary"])
def test_a_report_or_summary_of_a_readable_foreign_trace_raises_only_trace_errors(records,
                                                                                  consumer):
    # the record missing a field, or holding one of the wrong type, is the last
    with pytest.raises(TraceIOError, match=rf"^record {len(records) - 1}: malformed \("):
        consumer(Trace(records))
