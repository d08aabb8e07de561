"""Smoke test of the benchmark itself: short runs of every workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed=1, trace=0, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _result(_run(w, trace=t)) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(runs, workload, trace, group):
    lines, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} ") and f" {unit} " in line
                   for line in lines), name
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    assert printed["failed_frac"] == "frac"
    assert len(printed) == (7 if trace == 0 else 77)
    if trace == 1:      # printed, though absent from the JSON line
        for name in ("cli.self_ms_per_req", "matrixio.load_json.ms_per_req",
                     "generators.instance_for.self_ms_per_trial",
                     "theorems.run_check.self_ms_per_op",
                     "inverses.pseudo_core.n16.ms_p50", "kernel.qr.ms_per_op"):
            assert printed[name] == "ms", name
    if trace == 0:
        assert result["metrics"]["req_ms_tail"]["value"] > 0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_keeps_verdicts_and_restores_names(runs):
    lines, _ = runs["verify-instances", 1]
    assert any(line.startswith("# spans:") and "absent: none" in line
               for line in lines)
    assert any("traced run_check saw" in line for line in lines)


def test_workloads_correct_and_scale_defect_counted_apart(runs):
    for workload in WORKLOADS:
        assert runs[workload, 0][1]["correct"], workload
    lines, result = runs["verify-instances", 1]
    assert result["correct"]
    assert any(line.startswith("# scale probe: ") for line in lines)
    assert "theorems.scaled_mismatch_frac" in result["metrics"]


def _inputs_digest(lines):
    (line,) = [l for l in lines if "inputs_sha256=" in l]
    return line.split("inputs_sha256=")[1]


def test_seed_changes_inputs_not_metric_names(runs):
    lines1, result1 = runs["inverse-kinds", 0]
    lines2, result2 = _result(_run("inverse-kinds", seed=2))
    assert _inputs_digest(lines1) != _inputs_digest(lines2)
    assert set(result1["metrics"]) == set(result2["metrics"])


def test_failed_counts_mismatches_against_expected_outcomes(runs):
    for workload in WORKLOADS:
        lines, result = runs[workload, 0]
        (line,) = [l for l in lines if l.startswith("metric failed_frac ")]
        assert f"({result['failed']} of {result['attempted']} ops)" in line
        assert result["correct"] == (result["failed"] == 0)


def test_judges_use_constructed_outcomes():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
        from geninv import generators
    finally:
        del sys.path[:2]

    A = generators.gen_with_index(4, 2, 1, 5)
    right = workloads.InverseCall("group_inverse", A, 4, 2, 1.0)
    wrong = workloads.InverseCall("group_inverse", A, 4, 1, 1.0)
    assert right.judge(right.run())[0] == 0     # index 2: must not exist
    assert wrong.judge(wrong.run())[0] == 1     # claimed index 1: must exist
    index = workloads.InverseCall("index", A, 4, 3, 1.0)
    assert index.judge(index.run())[0] == 1

    verify = workloads.VerifyCall("L2_1", "x.json", "hypotheses_not_met", 1.0)
    text = json.dumps({"report": {"verdict": "fail"}})
    assert verify.judge((1, text))[0] == 1
    assert verify.judge((2, ""))[0] == 1
    fuzz = workloads.FuzzCampaign("L2_1", ("--dim", "4"), 3)
    verdicts = ["fail"] + ["pass"] * (workloads.FUZZ_TRIALS - 1)
    text = json.dumps({"results": [{"verdict": v} for v in verdicts]})
    assert fuzz.judge((1, text))[0] == 1
    assert fuzz.judge((2, ""))[0] == workloads.FUZZ_TRIALS


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_restores_originals_and_skips_absent_names(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy
        import spans
        from geninv import generators, inverses, theorems
    finally:
        del sys.path[:2]

    before = (inverses.index, theorems.pseudo_core, generators.pseudo_core,
              numpy.linalg.svd)
    monkeypatch.delattr(inverses, "is_star_dmp")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert theorems.pseudo_core is not before[1]
        tracer.request(0, lambda: inverses.pseudo_core(numpy.eye(3)))
    finally:
        tracer.restore()
    assert (inverses.index, theorems.pseudo_core, generators.pseudo_core,
            numpy.linalg.svd) == before
    assert tracer.absent == ["inverses.is_star_dmp"]
    names = {s[0] for s in tracer.spans}
    assert {"request", "inverses.pseudo_core", "inverses.index",
            "kernel.svd"} <= names
