"""Reading a trace is total.

A golden trace's NDJSON with one record mutated, dropped, added, swapped with
another or replaced by arbitrary bytes ends, through ``reconcile.load``,
``validate_trace`` and ``read_trace``, in a trace, a problem list and a
reading, or in a ``TraceIOError``; nothing else escapes.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDENS, load_bundled, mutate_one_field
from ortrack.kernel import read_trace, run, validate_trace
from ortrack.reconcile import TraceIOError, load

NDJSON = {name: run(load_bundled(name)).to_ndjson() for name in GOLDENS}


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
        read_trace(trace)
    except TraceIOError:
        pass
