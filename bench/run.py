"""ortrack benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload montecarlo|oracle|hospital_day \\
        --seed N --seconds S --trace 0|1

The benchmark imports ortrack from the checkout's ``src`` directory and
drives it in this one process as a closed loop: the next unit of work
starts when the previous one has finished, and no thread or process is
started. It writes only under ``.bench_out/`` in the checkout.

Set-up (imports, the golden checks, a warm-up of every entry point, and
this workload's input generation and loading) runs several times, and
``setup_s`` is the import time plus the median pass. Then units of work
run for ``--seconds``; no unit starts that would end after it. Every output is checked; the checks
feed ``attempted`` and ``failed`` in the result line.

With ``--trace 0`` the result carries the end-to-end metrics named in
``BENCHMARK.json``. Their times are host-normalised: a ``hostspeed.Sampler``
times a fixed reference snippet every 25 ms from a ``SIGALRM`` handler,
and each phase's seconds are scaled by how fast the host ran that snippet
during the phase. With ``--trace 1`` set-up runs traced, then untraced
and traced units alternate, at least two of each; the result carries the per-layer metrics:
one traced set-up plus the median traced unit, the counts checked to
repeat exactly from unit to unit, and the tracing overhead. The span
edges are written to ``.bench_out/spans-<workload>-<seed>.json``.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 0
SETUP_PASSES = 3
MIN_TRACED_UNITS = 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("montecarlo", "oracle", "hospital_day"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; digests are pinned at {DEFAULT_SEED}")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to run units of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_unit(workload, checks):
    """One unit of work; a unit that raises counts as a failed output."""
    try:
        return workload.unit()
    except Exception:  # the loop must go on and report the failure
        traceback.print_exc()
        checks.check(False, "unit raised")
        return None


def setup(args, workloads, pins, out_dir, checks):
    """Repeated set-up passes; returns the workload and each pass's seconds."""
    seconds = []
    for _ in range(SETUP_PASSES):
        start = time.perf_counter()
        workloads.check_goldens(out_dir, pins and pins["goldens"], checks)
        workloads.warm_up(out_dir, checks)
        workload = workloads.WORKLOADS[args.workload](
            args.seed, out_dir, pins and pins[args.workload], checks)
        seconds.append(time.perf_counter() - start)
    return workload, seconds


def untraced_metrics(units, scales, setup_s):
    # Each unit's seconds scaled by the host's speed during it (hostspeed.py),
    # then averaged over the run.
    seconds = [u[0] * scale for u, scale in zip(units, scales)]
    return {
        "setup_s": setup_s,
        "norm_wall_s": sum(seconds) / len(units),
        "norm_runs_per_s": sum(u[1] for u in units) / sum(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(tracing, setup_totals, deltas, untraced, traced, checks):
    """One traced set-up plus the median traced unit; counts must repeat exactly."""
    metrics = {}
    for name, value in setup_totals.items():
        per_unit = [d[name] for d in deltas]
        if name.endswith(".calls") or name in tracing.COUNT_NAMES:
            checks.check(len(set(per_unit)) == 1,
                         f"counter {name} differs between traced units: {per_unit}")
            metrics[name] = value + per_unit[0]
        else:
            metrics[name] = value + statistics.median(per_unit)
    records = sum(metrics[f"kernel.records.{t}"] for t in tracing.RECORD_TYPES)
    metrics["kernel.run.us_per_record"] = metrics["kernel.run.s"] / records * 1e6
    metrics["trace.overhead_s"] = (statistics.median(u[0] for u in traced)
                                   - statistics.median(u[0] for u in untraced))
    checks.check({u[2] for u in traced} == {u[2] for u in untraced},
                 "traced outputs equal untraced outputs")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "ortrack")):
        print(f"error: no ortrack package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    sampler = hostspeed.Sampler()
    if not args.trace:
        sampler.start()
    try:
        return measure(args, spec, sampler)
    finally:
        sampler.stop()


def measure(args: argparse.Namespace, spec: dict, sampler: hostspeed.Sampler) -> int:
    """Set-up, then units of work until the deadline; prints the result line."""
    since_setup = sampler.mark()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import ortrack
    import tracing
    import workloads
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(ortrack.__file__)) != os.path.join(SRC, "ortrack"):
        print(f"error: imported ortrack from {ortrack.__file__}", file=sys.stderr)
        return 2
    os.environ.pop("ORTRACK_OUT", None)  # would redirect the program's outputs

    pins = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "pins.json")) as handle:
            pins = json.load(handle)
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    checks = workloads.Checks()
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        try:
            workload, setup_seconds = setup(args, workloads, pins, out_dir, checks)
        finally:
            if tracer:
                tracer.uninstall()
        setup_scale = sampler.scale(since_setup)
        deadline = time.perf_counter() + args.seconds
        units, scales, traced, deltas, lengths = [], [], [], [], []
        if tracer:
            setup_totals = tracer.snapshot()
        while True:
            start = time.perf_counter()
            since_unit = sampler.mark()
            units.append(run_unit(workload, checks))
            scales.append(sampler.scale(since_unit))
            if tracer:
                before = tracer.snapshot()
                tracer.install()
                try:
                    traced.append(run_unit(workload, checks))
                finally:
                    tracer.uninstall()
                after = tracer.snapshot()
                deltas.append({k: after[k] - before[k] for k in after})
            lengths.append(time.perf_counter() - start)
            # Start no unit that would end after the deadline.
            if (len(traced) >= MIN_TRACED_UNITS or not tracer) and \
                    time.perf_counter() + statistics.median(lengths) > deadline:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if None in units or None in traced:
        print("error: a unit of work raised", file=sys.stderr)
        return 1

    if tracer:
        metrics = traced_metrics(tracing, setup_totals, deltas, units, traced, checks)
        listed = spec["per_layer"]
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
    else:
        metrics = untraced_metrics(
            units, scales, (import_s + statistics.median(setup_seconds)) * setup_scale)
        listed = spec["end_to_end"]

    print(f"# {args.workload} seed {args.seed}: {len(units)} untraced and "
          f"{len(traced)} traced units, {checks.attempted} checks, "
          f"error_rate {checks.failed / checks.attempted}")
    print(f"# program seconds per unit: {[round(u[0], 3) for u in units]}")
    if not tracer:
        print(f"# host-normalised seconds per unit: "
              f"{[round(u[0] * k, 3) for u, k in zip(units, scales)]}")
    if args.workload == "hospital_day":
        print(f"# final phases: {json.dumps(workload.phases, sort_keys=True)}")
    for m in listed:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
