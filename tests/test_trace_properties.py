"""Reading a trace is total.

A golden trace's NDJSON with one record mutated, dropped, added, swapped with
another or replaced by arbitrary bytes ends, through ``trace.load``,
``validate_trace`` and ``read_trace``, in a trace, a problem list and a
reading, or in a ``TraceIOError``; nothing else escapes, and ``validate_trace``
finds a problem in every trace ``read_trace`` rejects. ``locate`` on any
reading gives a belief for a tag the reading registers and ``UnknownTagError``
for any other, and a report or run summary of a readable foreign trace whose
case record lacks a field they read, or has a phase or outcomes of the wrong
type, ends in a ``TraceIOError``.
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
def test_validate_trace_reports_a_problem_in_every_trace_read_trace_rejects(data):
    # validate_trace asks read_trace which records it rejects, so a trace that cannot be
    # read is never reported clean
    records = json.loads(json.dumps(TRACES[data.draw(st.sampled_from(GOLDENS))]))
    mutate_one_field(data, records)
    trace = Trace(records)
    try:
        read_trace(trace)
    except TraceIOError:
        assert validate_trace(trace) != []


@pytest.mark.parametrize("meta", [
    {"t": 0, "type": "meta", "cases": []},
    {"t": 0, "type": "meta", "cases": [], "items": [{"tag": ["T-1"], "kind": "Sponge"}]},
    {"t": 0, "type": "meta", "cases": [], "items": "T-1"},
], ids=["no-items", "unhashable-tag", "items-not-a-list"])
def test_locate_on_a_readable_foreign_trace_raises_only_trace_errors(meta):
    with pytest.raises((TraceIOError, UnknownTagError)):
        locate(read_trace(Trace([meta])), "T-1")


@pytest.mark.parametrize("case", [
    {"t": 0, "type": "case", "case_id": "C-1"},
    {"t": 0, "type": "case", "case_id": "C-1", "phase": "Setup", "outcomes": [],
     "entries": {"T-1": {"status": "OnTray"}}},
    {"t": 0, "type": "case", "case_id": "C-1", "phase": "Setup", "outcomes": [], "entries": []},
    {"t": 0, "type": "case", "case_id": "C-1", "phase": ["x"], "outcomes": [], "entries": {}},
    {"t": 0, "type": "case", "case_id": "C-1", "phase": "Setup", "outcomes": [["x"]],
     "entries": {}},
    {"t": 0, "type": "case", "case_id": "C-1", "phase": "Setup", "outcomes": {"a": 1},
     "entries": {}},
], ids=["no-entries", "entry-without-last-seen", "entries-not-an-object", "phase-not-a-str",
        "outcome-not-a-str", "outcomes-not-a-list"])
@pytest.mark.parametrize("consumer", [
    lambda trace: generate_report(read_trace(trace), "C-1"),
    run_summary,
], ids=["generate_report", "run_summary"])
def test_a_report_or_summary_of_a_readable_foreign_trace_raises_only_trace_errors(case, consumer):
    with pytest.raises(TraceIOError, match=r"^record 0: malformed \("):
        consumer(Trace([case]))
