"""The benchmark's tracing hooks still resolve, count and leave outputs unchanged.

``bench/tracing.py`` wraps ortrack functions by module attribute name and
counts read candidates and hits from their arguments and results. A rename,
a call that bypasses the module attribute, or a read that changes its
arguments or its draws would break the benchmark's per-layer run; these
tests fail first.
"""

import os
import sys

from helpers import load_bundled
from ortrack import kernel

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import tracing  # noqa: E402

#: Layers the engine calls directly while running ``cavity_retention`` (which
#: draws from a random stream), ``clean_case`` (whose discard makes a bin sweep read)
#: and ``dropped_link`` (whose lossy link is the only kind that asks ``deliver``).
ENGINE_CALLS = ("kernel.rng_stream", "kernel.deliver",
                "sensing.read_tags", "sensing.med_scan", "model.WorldState.tags_at",
                "protocol.room_sensor_on_reads", "protocol.cms_handle",
                "protocol.mtc_handle", "protocol.mtc_tray_sweep",
                "protocol.mtc_bin_sweep", "reconcile.apply_scan_outcome")


def test_traced_run_matches_untraced_and_uninstall_restores():
    scenarios = [load_bundled(name)
                 for name in ("cavity_retention", "clean_case", "dropped_link")]
    originals = [(owner, attr, owner.__dict__[attr])
                 for places in tracing.TARGETS.values() for owner, attr in places]
    plain = [kernel.run(scenario).to_ndjson() for scenario in scenarios]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, deliver_calls = [], []
        for scenario in scenarios:
            traced.append(kernel.run(scenario).to_ndjson())
            deliver_calls.append(tracer.snapshot()["kernel.deliver.calls"])
    finally:
        tracer.uninstall()

    assert traced == plain
    # the first two scenarios' links are all lossless, so their messages skip deliver
    assert deliver_calls[:2] == [0, 0] and deliver_calls[2] > 0
    called_by_run = {name for parent, name in tracer.edges if parent == "kernel.run"}
    assert [name for name in ENGINE_CALLS if name not in called_by_run] == []
    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)


def test_traced_run_counts_reads():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kernel.run(load_bundled("cavity_retention"))
    finally:
        tracer.uninstall()

    def calls(name):
        return sum(edge[0] for (_, callee), edge in tracer.edges.items() if callee == name)

    # The tray and bin readers are certain: of the engine's 8 cart sweeps, the 7
    # that meet an unchanged antenna, handed set and status take no read (a new
    # cart's sweep sets start empty, so its first sweep of an empty bin is one).
    counts = tracer.counts
    assert (calls("sensing.read_tags"), counts["sensing.read_tags.candidates"],
            counts["sensing.read_tags.hits"], counts["sensing.read_tags.down"]) == (7, 6, 4, 0)
    assert (calls("sensing.med_scan"), counts["sensing.med_scan.detected"]) == (1, 1)


def test_traced_drop_count_matches_the_dropped_messages():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        trace = kernel.run(load_bundled("dropped_link"))
    finally:
        tracer.uninstall()

    dropped = sum(r["type"] == "msg" and r["status"] == "dropped" for r in trace.records)
    assert dropped > 0
    assert tracer.counts["kernel.deliver.dropped"] == dropped
