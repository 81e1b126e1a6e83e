"""Command-line behavior: exit codes, outputs, reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from helpers import load_bundled
from ortrack import kernel
from ortrack.cli import batch_summary, main, run_summary

from importlib import resources

SCENARIOS = resources.files("ortrack").joinpath("data/scenarios")
CONCEPTS = resources.files("ortrack").joinpath("data/concept_eval")


def scenario_path(name):
    return str(SCENARIOS.joinpath(f"{name}.json"))


def concept_path(name):
    return str(CONCEPTS.joinpath(name))


def test_simulate_clean_scenario_exits_zero(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", scenario_path("clean_case"), "--out", str(out)])
    assert code == 0
    assert (out / "trace.ndjson").exists()
    assert (out / "report_C-1.json").exists()
    assert (out / "report_C-1.csv").exists()
    assert not [p for p in out.iterdir() if p.name.startswith(".")]  # no temp litter


def test_simulate_writes_the_same_bytes_under_an_ascii_locale(tmp_path):
    text = (SCENARIOS.joinpath("clean_case.json").read_text(encoding="utf-8")
            .replace('"T-1"', '"T-\u00e9"'))
    path = tmp_path / "accented.json"
    path.write_bytes(text.encode("utf-8"))
    assert main(["simulate", str(path), "--out", str(tmp_path / "utf8")]) == 0

    src = os.path.dirname(os.path.dirname(kernel.__file__))
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONIOENCODING", "LANG", "LC_CTYPE")}
    env.update(PYTHONPATH=src, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    done = subprocess.run([sys.executable, "-m", "ortrack.cli", "simulate", str(path),
                           "--out", str(tmp_path / "ascii")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    csv = (tmp_path / "ascii" / "report_C-1.csv").read_bytes()
    assert "T-\u00e9".encode("utf-8") in csv
    assert csv == (tmp_path / "utf8" / "report_C-1.csv").read_bytes()


def test_simulate_unresolved_retention_exits_two(tmp_path, capsys):
    code = main(["simulate", scenario_path("sponge_in_cavity"),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "C-1" in capsys.readouterr().err


def test_simulate_recovered_retention_exits_zero(tmp_path):
    code = main(["simulate", scenario_path("sponge_in_cavity_recovered"),
                 "--out", str(tmp_path / "run")])
    assert code == 0


def test_simulate_missing_file_exits_one(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err


def test_simulate_invalid_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\"}")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_simulate_rejects_a_case_id_that_leaves_the_out_dir(tmp_path, capsys):
    obj = json.loads(SCENARIOS.joinpath("clean_case.json").read_text(encoding="utf-8"))
    obj["rooms"] = ["OR-1", "OR-2"]
    obj["cases"] = [{"case_id": "x/y", "room_id": "OR-1"},
                    {"case_id": "x/../../../esc/pwn", "room_id": "OR-2"}]
    for ev in obj["events"]:
        if "case" in ev:
            ev["case"] = "x/y"
    path = tmp_path / "in" / "escape.json"
    path.parent.mkdir()
    path.write_text(json.dumps(obj))
    out = tmp_path / "out" / "run"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("scenario error:")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                  if p.is_file()) == ["in/escape.json"]


def test_simulate_seed_override_changes_trace(tmp_path):
    seeded, default = tmp_path / "seeded", tmp_path / "default"
    main(["simulate", scenario_path("cavity_retention"), "--seed", "1", "--out", str(seeded)])
    main(["simulate", scenario_path("cavity_retention"), "--out", str(default)])
    trace = (seeded / "trace.ndjson").read_bytes()
    assert json.loads(trace.split(b"\n", 1)[0])["seed"] == 1  # the scenario's seed is 7
    assert trace != (default / "trace.ndjson").read_bytes()


def test_validate_ok_and_bad(tmp_path):
    assert main(["validate", scenario_path("clean_case")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["validate", str(bad)]) == 1


@pytest.mark.parametrize("old, new", [
    pytest.param('"items": [', '"items": [1, ', id="item-not-object"),
    pytest.param('"med:OR-1": {"p_detect": 1.0}', '"med:OR-1": {"p_detect": 1.0, "mtbf_s": NaN}',
                 id="mtbf-nan"),
])
def test_validate_malformed_field_is_a_scenario_error(tmp_path, capsys, old, new):
    text = SCENARIOS.joinpath("clean_case.json").read_text()
    assert old in text
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace(old, new))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "Traceback" not in err


# -- montecarlo


def test_montecarlo_single_run_equals_single_statistics(capsys):
    code = main(["montecarlo", scenario_path("cavity_retention"),
                 "--runs", "1", "--seed-base", "42"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    scenario = load_bundled("cavity_retention")
    single = run_summary(kernel.run(dataclasses.replace(scenario, seed=42)))
    assert summary["runs"] == 1
    assert summary["alert_counts"] == single["alert_counts"]
    assert summary["outcome_counts"] == single["outcome_counts"]
    assert summary["miss_rate"] == float(single["retained_at_reconcile"])


def test_montecarlo_repeatable(tmp_path, capsys):
    args = ["montecarlo", scenario_path("cavity_retention"),
            "--runs", "25", "--seed-base", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_montecarlo_writes_summary_file(tmp_path, capsys):
    out = tmp_path / "mc"
    code = main(["montecarlo", scenario_path("cavity_retention"),
                 "--runs", "5", "--seed-base", "3", "--out", str(out)])
    assert code == 0
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_montecarlo_rejects_runs_below_one(runs, capsys):
    code = main(["montecarlo", scenario_path("cavity_retention"), "--runs", runs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "runs must be >= 1" in captured.err


@pytest.mark.slow
def test_montecarlo_miss_rate_matches_binomial():
    # single-pass scan at p=0.8 against an unmonitored cavity item: each run
    # misses with probability 0.2; 100,000 runs pin the rate within 3 sigma
    scenario = load_bundled("cavity_retention")
    n = 100_000
    summary = batch_summary(scenario, runs=n, seed_base=0)
    sigma = math.sqrt(0.2 * 0.8 / n)
    assert abs(summary["miss_rate"] - 0.2) <= 3 * sigma
    assert summary["retained_at_complete_runs"] == summary["retained_at_reconcile_runs"]
    caught = summary["alert_counts"]["RsbSuspected"]
    assert caught + summary["retained_at_reconcile_runs"] == n


# -- eval


def test_eval_bundled_instance(tmp_path, capsys):
    out_file = tmp_path / "ranking.json"
    code = main(["eval", concept_path("needs.csv"), concept_path("correlation.csv"),
                 concept_path("scores.csv"),
                 "--qualitative", concept_path("qualitative.csv"),
                 "--out", str(out_file)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result == json.loads(out_file.read_text())
    assert result["ranking"][0][0] == "Dr. Tool"
    assert [name for name, _ in result["ranking"]] == ["Dr. Tool", "Blue Tool", "Ultra Tool"]
    assert result["top_k"] == ["Availability", "Detection Range",
                               "Reliability - MTBF", "Charging Time", "Screen Size"]
    assert sum(result["weights"].values()) == pytest.approx(1.0)
    points = {name: (x, y) for name, x, y in result["plot"]}
    assert points["Dr. Tool"] == (1.0, 1.0)


def test_eval_single_concept(tmp_path, capsys):
    needs = tmp_path / "needs.csv"
    needs.write_text("need,importance\nsafety,5\n")
    corr = tmp_path / "correlation.csv"
    corr.write_text("need,c1,c2\nsafety,9,3\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("concept,c1,c2\nsolo,4,2\n")
    code = main(["eval", str(needs), str(corr), str(scores), "--top-k", "2"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert len(result["ranking"]) == 1
    assert result["ranking"][0][0] == "solo"
    assert result["plot"] is None


def test_eval_mismatched_columns_exits_one(tmp_path, capsys):
    needs = tmp_path / "needs.csv"
    needs.write_text("need,importance\nsafety,5\n")
    corr = tmp_path / "correlation.csv"
    corr.write_text("need,c1,c2\nsafety,9,3\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("concept,c1\nsolo,4\n")  # missing a column
    code = main(["eval", str(needs), str(corr), str(scores)])
    assert code == 1
    assert "error" in capsys.readouterr().err


_OK_NEEDS, _OK_CORR, _OK_SCORES = ("need,importance\nsafety,5\n", "need,c1\nsafety,9\n",
                                   "concept,c1\nsolo,4\n")


def _eval_inputs(tmp_path, needs, correlation, scores):
    """Write the three required ``eval`` CSVs and return their paths."""
    paths = []
    for name, text in (("needs", needs), ("correlation", correlation), ("scores", scores)):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("needs, correlation, scores, qualitative", [
    pytest.param("need,importance\nsafety\n", "need,c1\nsafety,9\n", "concept,c1\nsolo,4\n",
                 None, id="needs-row-without-importance"),
    pytest.param("need,importance\nsafety,1,000\n", "need,c1\nsafety,9\n",
                 "concept,c1\nsolo,4\n", None, id="needs-row-with-extra-cell"),
    pytest.param("need,importance\nsafety,5\n", "need,c1\nsafety,9.7\n", "concept,c1\nsolo,4\n",
                 None, id="fractional-correlation"),
    pytest.param("need,importance\nsafety,nan\n", "need,c1\nsafety,9\n", "concept,c1\nsolo,4\n",
                 None, id="nan-importance"),
    pytest.param("need,importance\nsafety,inf\n", "need,c1\nsafety,9\n", "concept,c1\nsolo,4\n",
                 None, id="inf-importance"),
    pytest.param("need,importance\nsafety,5\n", "need,c1\nsafety,9\n", "concept,c1\nsolo,nan\n",
                 None, id="nan-score"),
    pytest.param("need,importance\nsafety,5\n", "need,c1\nsafety,9\n", "concept,c1\nsolo,inf\n",
                 None, id="inf-score"),
    pytest.param("need,importance\nsafety,5\nsafety,3\n", "need,c1\nsafety,9\n",
                 _OK_SCORES, None, id="repeated-need"),
    pytest.param(_OK_NEEDS, "need,c1,c2\nsafety,9,0\nsafety,0,3\n", "concept,c1,c2\nsolo,4,2\n",
                 None, id="repeated-correlation-row"),
    pytest.param(_OK_NEEDS, "need,c1,c1\nsafety,9,3\n", "concept,c1\nsolo,4\n",
                 None, id="repeated-correlation-column"),
    pytest.param(_OK_NEEDS, _OK_CORR, "concept,c1\nX,4\nX,2\n", None,
                 id="repeated-score-row"),
    pytest.param(_OK_NEEDS, _OK_CORR, "concept,c1\nX,4\nY,2\n",
                 "concept,q1\nX,1\nY,2\nX,3\n", id="repeated-qualitative-row"),
    pytest.param(_OK_NEEDS, "need,,c1\nsafety,9,3\n", "concept,,c1\nsolo,4,2\n", None,
                 id="empty-correlation-column"),
    pytest.param(_OK_NEEDS, _OK_CORR, "concept,c1\nsolo,4\n,5\n", None,
                 id="unnamed-scores-row"),
    pytest.param(_OK_NEEDS, "name,c1\nsafety,9\n", _OK_SCORES, None,
                 id="correlation-corner-not-need"),
    pytest.param("needs,importance\nsafety,5\n", _OK_CORR, _OK_SCORES, None,
                 id="needs-corner-not-need"),
    pytest.param(_OK_NEEDS, "need,c1\nsafety,x\n", _OK_SCORES, None, id="non-numeric-cell"),
    pytest.param(_OK_NEEDS, "need,c1,c2\nsafety,9,0\n", "concept,c1,c2\nsolo,4,2\n", None,
                 id="zero-weight-characteristic"),
    pytest.param(_OK_NEEDS, _OK_CORR, "concept,c1\n", None, id="header-only-scores"),
    pytest.param(_OK_NEEDS, _OK_CORR, "concept,c1\n", "concept,q\n",
                 id="header-only-scores-and-qualitative"),
])
def test_eval_malformed_csv_is_an_input_error(tmp_path, capsys, needs, correlation, scores,
                                              qualitative):
    paths = _eval_inputs(tmp_path, needs, correlation, scores)
    if qualitative is not None:
        path = tmp_path / "qualitative.csv"
        path.write_text(qualitative)
        paths += ["--qualitative", str(path)]
    assert main(["eval", *paths]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_eval_top_k_below_one_is_an_input_error(tmp_path, capsys, top_k):
    paths = _eval_inputs(tmp_path, _OK_NEEDS, _OK_CORR, _OK_SCORES)
    assert main(["eval", *paths, "--top-k", top_k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


def test_eval_reproducible(tmp_path, capsys):
    args = ["eval", concept_path("needs.csv"), concept_path("correlation.csv"),
            concept_path("scores.csv")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert first == capsys.readouterr().out
