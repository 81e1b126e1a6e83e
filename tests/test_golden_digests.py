"""Byte-level pins: golden traces, reports, run summaries, a noisy day, Monte Carlo and eval.

A refactor must leave these digests alone. A change that alters a trace or
a summary on purpose re-pins the affected digests here and names them in
CHANGES.md.
"""

import dataclasses
import hashlib
import json
import os
import sys

import pytest

from helpers import load_bundled, random_scenario
from ortrack import kernel
from ortrack.cli import batch_summary, main, run_summary

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import hospital_day  # noqa: E402
import workloads  # noqa: E402

#: sha256 of ``run(scenario).to_ndjson()`` per (golden, seed offset 0, 1, 2).
TRACE_DIGESTS = {
    "clean_case": (
        "462217da0832023350d3efaa285934e1eecdb31423c7b857491e121530f15023",
        "0404592c41c47af88957348417508b6866d051d7faf37176e148937eedf2d9f7",
        "0f0b119e3ff52c0ed88199c2170d03505558504be5efd2b549243c439bfc81e4"),
    "sponge_in_cavity": (
        "4bad902304aacdeb3d923a6f2d3d525b587f0693e36e7016c9a142c14dd112a3",
        "281e2a5a2ee965c8b1cd7df467ef0ec0d11a913ecb01336566bf2502777d721a",
        "080f4b08596b253cbf4d5ba8d1948f08c8560034ff3bbe6414def4874a2ae92f"),
    "sponge_in_cavity_recovered": (
        "cf51a80e4e6588ab9a288dd3abb8cc3a79568949a19dc47d1b5356e2dd1ab2cc",
        "040e5d06a41f6a0221220981573c1253fcf7da18911e9d1b6b58508f8d145844",
        "3f0472ba68922ab58a7e383f054cfbd5597303affd5bae2bd0a717a784f0c33a"),
    "pocket_carry": (
        "1f81ae70e036d8dd91cdd5f1e7dd980c0adb312fcc0a787249a863afe4fb7166",
        "1b3a5f3fa2a96776ad3ee9704283df6d05ed2a6d8ee508e8ceb3ee370d258a2d",
        "9f4d3ae5f6dea0e375a9b9603de895dfefdcbd1af7b2c582ccec2bcbccbe0493"),
    "new_equipment": (
        "79fdd98010e0ac6213996ca7d95b214ead2f4ee55713af5c6969a16115135616",
        "93d1b4f320652e189fedfa75c8ef6eb8d04dcae545e7dba3da3925333614244a",
        "76a1c48ef1ab5e7d57f24b66232dce1f49ddf6cf820a70143d2e9315081538a9"),
    "dropped_link": (
        "855e71f669598116b3ca7c66d6c367ee9afb50caf0bf1bc835ee5ab2c1201805",
        "f793e96c65260506a969295190d7c68be35676b13f1accf5c633728f1e3a7b67",
        "9550470b25dd390e0983bffaf7648f0890bb87b735c5241b5cb6015ee5f4083b"),
    "cavity_retention": (
        "9ba16a2770508dce642738e3cab2a12382c6ad73f7a36e22ad7831ee9980837e",
        "39dc0b25ca96438e0cdcdae87a9363e23a8c9c0990da6feabd8f10cdaf619812",
        "c43377677dd795d411ffc877f176fdb0436bc485fbf0e0a85da824b660b16679"),
}

#: sha256 of the canonical JSON of ``batch_summary(cavity_retention, 1000, 0)``.
BATCH_DIGEST = "9a032d3a042c66e01c18778d7d3fc8d473bf75aea859062bddc4eb338f05990b"

#: Per golden at its own seed: sha256 of the ``simulate`` report JSON files and
#: of the CSV files (each set concatenated in case order), and of the canonical
#: JSON of ``run_summary``.
REPORT_DIGESTS = {
    "clean_case": (
        "c895a4389985ca33c54211974e91c4038a69164d67272cdb8d43c9ddebca579b",
        "c6c7cbce3888a6a28dd90517622cd8e9cc0f7e18f70728d38d91e3be346b1298",
        "4192a36af463299df31b438f5254dcc3c01773db7bc27f44c0bb161b8f989a3b"),
    "sponge_in_cavity": (
        "692988dbe2a10363c9e99727241fae69ef8b1ce066479e9d9ce074a090e5bfc9",
        "00719767cf2554549a9ddb02e02a5646611cdf325ceb3fa493b9d4f41659e329",
        "3c73a5acf4df02ec1aa5b03fbbaf18c132a73b8697e2454870865ef6dc17d9d5"),
    "sponge_in_cavity_recovered": (
        "cd03b6e8f264bc87f046b9e19aa9b46c3284d429163238a4f3c21cbfa90e2ef1",
        "7ed3b088181cd6483ddb5eaadd6b8856eedf3e8f575f62675e0575296e5ca328",
        "676d7fb75ba160a98cdbd96e3a7dbff5aaf8d21f49d73750596f09e8899b9fa3"),
    "pocket_carry": (
        "15877eb526507db8136390fdce0cd5e2db0043558eb0f7cd7415ddc0f2d8cfc3",
        "dd150ea7ae583ec1c1ce050f60777af2b0c566f07a9f32d97b76e893a2705eca",
        "5174f08e61eac261dd2f4d178a1238f3a2dd487c5ba2d5e662d7792cffb0185b"),
    "new_equipment": (
        "33b93441c87cd77f068dcf5a27332771e57d76425fea001f2baa84671f27a5a8",
        "fb9ce3fdfef52d62c87f50f92ab9ec9edc0bee5712ba1a17da000341f6d343aa",
        "c948dc9adecd0937593e1a4170bd0bba7bc063364bbd8f4e733ad4f2502223fd"),
    "dropped_link": (
        "c9c9e3c5179f3cc9b7456e73e887490b3bd2969d6d27fb88123dbcf6f52684f0",
        "2bdfc32e5b996f31c79fd10a8f08cee32ffb99a60ec57be5b8588f168a8db2b2",
        "5e23b8798c9be6a04103f871f2e703e61903f957ae449ef9741f8f8767c2dba2"),
    "cavity_retention": (
        "257f2f14d09eae3d863d7a9ddfd3a9048c79727ab98b51bae9bf7bf5e2277f2a",
        "90bfa06d6d64dc4ecd11736db66a480a1ba389ff58be7dff3b695577a72a5580",
        "3c73a5acf4df02ec1aa5b03fbbaf18c132a73b8697e2454870865ef6dc17d9d5"),
}

#: sha256 of the NDJSON trace and of the canonical JSON of ``run_summary`` for
#: ``bench/hospital_day.generate(0, rooms=3, items=150)``: noisy readers, reads
#: from out of range, a lossy bus and reader outages in one run.
NOISY_DAY_DIGESTS = ("d6943e755c549948551c3286f5ae09cf88460bcb1cc9f2e40606905a24f17e56",
                     "4dabdf34f605c681b06762f10d78d1fc801b86533de495cae87c2b1d857f7e7f")

#: sha256 of the NDJSON traces of ``helpers.random_scenario(seed, latency_s=L)`` for
#: seeds 0..299, at L=1 and then at L=0, concatenated: every cart state a sweep
#: can meet, with and without a tick between a move and the messages it causes.
RANDOM_TRACES_DIGEST = "fdb53b104c7ec39c86dfdf26a5e820c57fe490bb85707b22ef3a31cc260c1b22"

#: sha256 of ``eval``'s stdout on the bundled needs, correlation, scores and
#: qualitative CSVs.
EVAL_DIGEST = "833c0b067511c94540033cd2fea6c1402b2387d7b997f9f355dc58933e73a6ec"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("offset", range(3))
@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_golden_trace_digest(name, offset):
    scenario = load_bundled(name)
    trace = kernel.run(dataclasses.replace(scenario, seed=scenario.seed + offset))
    assert _sha256(trace.to_ndjson()) == TRACE_DIGESTS[name][offset]


def test_montecarlo_summary_digest():
    summary = batch_summary(load_bundled("cavity_retention"), 1000, 0)
    assert _sha256(json.dumps(summary, sort_keys=True)) == BATCH_DIGEST


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_golden_report_and_summary_digests(name, tmp_path):
    scenario = load_bundled(name)
    json_digest, csv_digest, summary_digest = REPORT_DIGESTS[name]
    summary = run_summary(kernel.run(scenario))
    assert _sha256(json.dumps(summary, sort_keys=True)) == summary_digest
    path = os.path.join(os.path.dirname(kernel.__file__), "data", "scenarios", f"{name}.json")
    code = main(["simulate", path, "--out", str(tmp_path)])
    assert code == (2 if summary["safety_findings"] else 0)
    for suffix, digest in (("json", json_digest), ("csv", csv_digest)):
        text = "".join((tmp_path / f"report_{spec.case_id}.{suffix}").read_text()
                       for spec in scenario.cases)
        assert _sha256(text) == digest, suffix


def test_noisy_day_digests():
    text = hospital_day.generate(0, rooms=3, items=150)
    trace = kernel.run(kernel.load_scenario(text))
    records = trace.records
    assert sum(r["type"] == "alert" and r["kind"] == "SensorDown" for r in records) == 20
    assert sum(r["type"] == "msg" and r["status"] == "dropped" for r in records) == 2
    summary = run_summary(trace)
    assert (_sha256(trace.to_ndjson()),
            _sha256(json.dumps(summary, sort_keys=True))) == NOISY_DAY_DIGESTS


def test_random_scenario_traces_digest():
    digest = hashlib.sha256()
    for latency_s in (1, 0):
        for seed in range(300):
            trace = kernel.run(random_scenario(seed, latency_s=latency_s))
            digest.update(trace.to_ndjson().encode())
    assert digest.hexdigest() == RANDOM_TRACES_DIGEST


def test_oracle_checklists_match_the_benchmark_pin():
    # the benchmark's oracle workload at its default seed and depth, digested as it does
    with open(os.path.join(os.path.dirname(workloads.__file__), "pins.json")) as handle:
        pin = json.load(handle)["oracle"]
    digest = hashlib.sha256()
    for scenario, fold in workloads.oracle_cases(0, workloads.ORACLE_DEPTH):
        case = kernel.run(scenario).records[-1]
        assert {tag: e["status"] for tag, e in case["entries"].items()} == fold
        digest.update(json.dumps(case, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == pin


def test_eval_output_digest(capsys):
    concepts = os.path.join(os.path.dirname(kernel.__file__), "data", "concept_eval")
    paths = [os.path.join(concepts, f"{name}.csv")
             for name in ("needs", "correlation", "scores", "qualitative")]
    assert main(["eval", *paths[:3], "--qualitative", paths[3]]) == 0
    assert _sha256(capsys.readouterr().out) == EVAL_DIGEST
