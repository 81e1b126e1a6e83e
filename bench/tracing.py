"""Outside-in tracing: timed wrappers around ortrack's public functions.

``Tracer.install`` replaces each traced name with a wrapper that opens a
span on entry and closes it on exit. Spans nest through a stack, so each
one knows its parent; a layer's self time is its span's duration minus
the time its child spans cover. Spans are folded into one aggregate per
(parent, name) edge as they close, which keeps memory bounded on long
runs, and the edges are written out when the benchmark ends.

Some names are imported by value into another module, so they are wrapped
where they are used (``kernel.cms_handle``, ``reconcile.mtc_tray_sweep``).
The wrappers return exactly what the wrapped function returns, so a traced
run computes the same outputs as an untraced one.
"""

from __future__ import annotations

import json
import time

from ortrack import cli, kernel, model, protocol, reconcile, sensing

#: Layer name -> every (owner, attribute) it is reachable through.
TARGETS = {
    "kernel.load_scenario": ((kernel, "load_scenario"),),
    "kernel.run": ((kernel, "run"),),
    "kernel.rng_stream": ((kernel, "rng_stream"),),
    "kernel.deliver": ((kernel, "deliver"),),
    "kernel.Trace.to_ndjson": ((kernel.Trace, "to_ndjson"),),
    "sensing.SensorModel.init": ((sensing.SensorModel, "__post_init__"),),
    "sensing.read_tags": ((sensing, "read_tags"),),
    "sensing.med_scan": ((sensing, "med_scan"),),
    "sensing.sensor_failure_schedule": ((sensing, "sensor_failure_schedule"),),
    "model.WorldState.tags_at": ((model.WorldState, "tags_at"),),
    "model.WorldState.apply_ground_truth": ((model.WorldState, "apply_ground_truth"),),
    "protocol.room_sensor_on_reads": ((kernel, "room_sensor_on_reads"),),
    "protocol.cms_handle": ((kernel, "cms_handle"),),
    "protocol.mtc_handle": ((kernel, "mtc_handle"),),
    "protocol.mtc_tray_sweep": ((protocol, "mtc_tray_sweep"), (reconcile, "mtc_tray_sweep")),
    "protocol.mtc_bin_sweep": ((protocol, "mtc_bin_sweep"), (reconcile, "mtc_bin_sweep")),
    "reconcile.apply_scan_outcome": ((reconcile, "apply_scan_outcome"),),
    "reconcile.generate_report": ((reconcile, "generate_report"),),
    "reconcile.persist": ((reconcile, "persist"),),
    "cli.run_summary": ((cli, "run_summary"),),
    "cli.safety_findings": ((cli, "safety_findings"),),
}

RECORD_TYPES = ("meta", "gt", "msg", "alert", "phase", "error", "case")


def _tags_at(counts, args, kwargs, result):
    counts["model.WorldState.tags_at.returned"] += len(result)


def _read_tags(counts, args, kwargs, result):
    candidates = args[2] if len(args) > 2 else kwargs["candidates"]
    counts["sensing.read_tags.candidates"] += len(candidates)
    counts["sensing.read_tags.hits"] += len(result)


def _med_scan(counts, args, kwargs, result):
    counts["sensing.med_scan.detected"] += len(result.detected)


def _deliver(counts, args, kwargs, result):
    counts["kernel.deliver.dropped"] += not result.delivered


def _to_ndjson(counts, args, kwargs, result):
    counts["kernel.Trace.to_ndjson.bytes"] += len(result)


def _run(counts, args, kwargs, result):
    for record in result.records:
        counts[f"kernel.records.{record['type']}"] += 1
        if record["type"] == "alert" and record["kind"] == "SensorDown":
            counts["kernel.outages_hit"] += 1


#: Deterministic counts taken from a traced call's arguments and result.
COUNTERS = {
    "model.WorldState.tags_at": _tags_at,
    "sensing.read_tags": _read_tags,
    "sensing.med_scan": _med_scan,
    "kernel.deliver": _deliver,
    "kernel.Trace.to_ndjson": _to_ndjson,
    "kernel.run": _run,
}

COUNT_NAMES = (["model.WorldState.tags_at.returned", "sensing.read_tags.candidates",
                "sensing.read_tags.hits", "sensing.read_tags.down",
                "sensing.med_scan.detected", "kernel.deliver.dropped",
                "kernel.Trace.to_ndjson.bytes", "kernel.outages_hit"]
               + [f"kernel.records.{t}" for t in RECORD_TYPES])


class Tracer:
    """Spans kept in memory as (parent, name) edges: calls, seconds, self seconds."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str | None, str], list] = {}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, edges, counts = self._stack, self.edges, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        by_parent: dict[str | None, list] = {}  # this name's edges, by parent name

        def traced(*args, **kwargs):
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except sensing.SensorDownError:
                counts["sensing.read_tags.down"] += name == "sensing.read_tags"
                raise
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                    parent = parent[0]
                edge = by_parent.get(parent)
                if edge is None:
                    edge = by_parent[parent] = edges.setdefault((parent, name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, places in TARGETS.items():
            owner, attr = places[0]
            wrapper = self._wrap(name, owner.__dict__[attr])
            for owner, attr in places:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Per layer: calls, inclusive seconds and self seconds, plus the counts."""
        totals: dict[str, float] = dict(self.counts)
        for name in TARGETS:
            for stat in ("calls", "s", "self_s"):
                totals[f"{name}.{stat}"] = 0
        for (_, name), (calls, seconds, self_s) in self.edges.items():
            totals[f"{name}.calls"] += calls
            totals[f"{name}.s"] += seconds
            totals[f"{name}.self_s"] += self_s
        return totals

    def write(self, path: str) -> None:
        """Write the span edges and counts as one JSON document."""
        edges = [{"parent": parent, "name": name, "calls": calls, "s": seconds,
                  "self_s": self_s}
                 for (parent, name), (calls, seconds, self_s) in sorted(
                     self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))]
        with open(path, "w") as handle:
            json.dump({"edges": edges, "counts": self.counts}, handle, indent=1)
            handle.write("\n")
