"""Command-line entry point: simulate, montecarlo, eval, validate.

Exit codes: 0 success, 1 tool or input error, 2 unresolved safety finding
(a case that raised a critical retention or count alert and never made it
through reconciliation, or whose close stalled before reconciliation). The
split lets CI distinguish "the tool broke" from "the protocol found something".

All file outputs are written atomically (temp file + rename) and all
diagnostics go to standard error; standard output carries result JSON only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import decision, kernel, reconcile
from .protocol import CasePhase, Severity
from .trace import Trace, TraceReading, read_trace

SAFE_PHASES = {CasePhase.RECONCILED, CasePhase.AWAITING_SPD, CasePhase.COMPLETE}
STALLED_PHASES = {CasePhase.CLOSING_ANNOUNCED, CasePhase.CAVITY_SCAN}


def _load_scenario_file(path: str, seed: int | None) -> kernel.Scenario:
    with open(path, encoding="utf-8") as handle:
        scenario = kernel.load_scenario(handle.read())
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    return scenario


def safety_findings(reading: TraceReading) -> list[str]:
    """Cases whose close stalled, or that raised a critical alert and never reconciled."""
    return [case_id for case_id, record in reading.cases.items()
            if record["phase"] in STALLED_PHASES or (record["phase"] not in SAFE_PHASES and (
                Severity.CRITICAL in (a["severity"] for a in reading.alerts.get(case_id, ()))))]


def run_summary(trace: Trace) -> dict:
    """Order-independent statistics for one run."""
    reading = read_trace(trace)
    alert_counts: dict[str, int] = {}
    for alerts in reading.alerts.values():
        for alert in alerts:
            alert_counts[alert["kind"]] = alert_counts.get(alert["kind"], 0) + 1
    outcome_counts: dict[str, int] = {}
    for record in reading.cases.values():
        outcome = record["outcomes"][-1] if record["outcomes"] else "NeverReconciled"
        outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1
    return {
        "alert_counts": alert_counts,
        "outcome_counts": outcome_counts,
        "retained_at_reconcile": CasePhase.RECONCILED in reading.retained_at,
        "retained_at_complete": CasePhase.COMPLETE in reading.retained_at,
        "safety_findings": safety_findings(reading),
    }


def _merge_counts(into: dict, add: dict) -> None:
    for key, value in add.items():
        into[key] = into.get(key, 0) + value


def batch_summary(scenario: kernel.Scenario, runs: int, seed_base: int) -> dict:
    """Run independent seeds and reduce their statistics in seed order."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    alert_counts: dict[str, int] = {}
    outcome_counts: dict[str, int] = {}
    retained = 0
    retained_complete = 0
    finding_runs = 0
    plan = kernel.Plan(scenario)  # the seed-free set-up, shared by every run
    for summary in plan.fold_runs(range(seed_base, seed_base + runs), run_summary):
        _merge_counts(alert_counts, summary["alert_counts"])
        _merge_counts(outcome_counts, summary["outcome_counts"])
        retained += summary["retained_at_reconcile"]
        retained_complete += summary["retained_at_complete"]
        finding_runs += bool(summary["safety_findings"])
    return {
        "scenario": scenario.name,
        "runs": runs,
        "seed_base": seed_base,
        "miss_rate": retained / runs,
        "retained_at_reconcile_runs": retained,
        "retained_at_complete_runs": retained_complete,
        "runs_with_safety_finding": finding_runs,
        "alert_counts": alert_counts,
        "outcome_counts": outcome_counts,
    }


# --------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario_file(args.scenario, args.seed)
    trace = kernel.run(scenario)
    reconcile.persist(trace, os.path.join(args.out, "trace.ndjson"))
    reading = read_trace(trace)
    for spec in scenario.cases:
        report = reconcile.generate_report(reading, spec.case_id)
        reconcile.write_atomic(os.path.join(args.out, f"report_{spec.case_id}.json"),
                               json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
        reconcile.write_atomic(os.path.join(args.out, f"report_{spec.case_id}.csv"),
                               report.to_csv())
    findings = safety_findings(reading)
    if findings:
        print(f"unresolved safety finding in: {', '.join(findings)}", file=sys.stderr)
        return 2
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    scenario = _load_scenario_file(args.scenario, None)
    seed_base = args.seed_base if args.seed_base is not None else scenario.seed
    summary = batch_summary(scenario, args.runs, seed_base)
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if args.out:
        reconcile.write_atomic(os.path.join(args.out, "summary.json"), text)
    sys.stdout.write(text)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    with open(args.needs, encoding="utf-8") as handle:
        needs_text = handle.read()
    with open(args.correlation, encoding="utf-8") as handle:
        correlation_text = handle.read()
    with open(args.scores, encoding="utf-8") as handle:
        scores_text = handle.read()

    qfd = decision.qfd_from_csv(needs_text, correlation_text)
    weights = decision.qfd_weights(qfd)
    top = decision.select_top_k(weights, min(args.top_k, len(weights)))

    ranking = decision.pugh_rank_from_csv(scores_text, weights)

    plot = None
    if args.qualitative:
        with open(args.qualitative, encoding="utf-8") as handle:
            qualitative = decision.qualitative_totals_from_csv(handle.read())
        plot = [[c, x, y] for c, x, y
                in decision.two_axis_plot_data(dict(ranking), qualitative)]

    result = {
        "weights": weights,
        "top_k": top,
        "flagged_characteristics": qfd.flagged_characteristics(),
        "ranking": [[concept, total] for concept, total in ranking],
        "plot": plot,
    }
    text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if args.out:
        reconcile.write_atomic(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    _load_scenario_file(args.scenario, None)
    print(f"{args.scenario}: ok", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortrack",
        description="Surgical-equipment tracking simulator and concept evaluator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario, write trace and reports")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sim.add_argument("--out", default="out", help="output directory (default ./out)")
    p_sim.set_defaults(func=cmd_simulate)

    p_mc = sub.add_parser("montecarlo", help="run many seeds, emit aggregate statistics")
    p_mc.add_argument("scenario")
    p_mc.add_argument("--runs", type=int, required=True)
    p_mc.add_argument("--seed-base", type=int, default=None)
    p_mc.add_argument("--out", default=None)
    p_mc.set_defaults(func=cmd_montecarlo)

    p_eval = sub.add_parser("eval", help="run the concept-evaluation pipeline")
    p_eval.add_argument("needs", help="needs CSV (need,importance)")
    p_eval.add_argument("correlation", help="needs x characteristics CSV")
    p_eval.add_argument("scores", help="concepts x characteristics CSV")
    p_eval.add_argument("--qualitative", default=None,
                        help="concepts x qualitative criteria CSV")
    p_eval.add_argument("--top-k", type=int, default=5)
    p_eval.add_argument("--out", default=None, help="output JSON file")
    p_eval.set_defaults(func=cmd_eval)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (kernel.ParseError, kernel.ValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except (decision.DimensionMismatchError, decision.DegenerateInputError,
            decision.KeyMismatchError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
