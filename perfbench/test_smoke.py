"""Tests of the benchmark itself: smoke runs of every workload, its oracles
and checks, and its span accounting.

Run with: python -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared(kind):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_run_is_correct_and_complete(workload):
    p = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, p.stdout
    assert sorted(result["metrics"]) == sorted(_declared("per_layer"))
    assert "overhead" in p.stdout and "machine " in p.stdout


def test_smoke_untraced_run_prints_end_to_end_metrics():
    p = _bench("--workload", "pd-mc", "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 6
    assert sorted(result["metrics"]) == sorted(_declared("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in p.stdout


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _bench("--workload", "pd-mc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_member_counts_match_brute_force():
    for x in (1, 2, 3, 64, 300):
        assert checks.thue_morse_count(x) == sum(bin(n).count("1") % 2 == 0 for n in range(1, x + 1))
    assert checks.prime_count(100) == 25
    assert checks.expected_members("x2p1", 10**6) == sum(1 for n in range(1, 1001) if n * n + 1 <= 10**6)


def test_pd_oracles():
    assert checks.rho(3.0) == pytest.approx(0.0486083882911316, abs=1e-14)
    assert checks.pd_corr([[0.1, 0.5]]) == pytest.approx(math.log(5.0))
    # L2 <= 1/2 always, and L2 <= c tends to L1 <= c as c rises to L1's bound
    assert checks.pd_joint_cdf([1.0, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert checks.pd_joint_cdf([0.5, 0.4999999]) == pytest.approx(checks.rho(2.0), abs=1e-5)


def test_checks_reject_wrong_reports():
    refs = json.loads((HERE / "refs" / "smoke" / "dense-spectra.json").read_text())
    op = workloads.ops("dense-spectra", 1, "smoke")[0]
    good = dict(refs[op["id"]], config=dict(refs[op["id"]]["config"], seed=7))
    assert checks.check_report(op, json.dumps(good), refs) is None
    assert "reference" in checks.check_report(op, json.dumps(dict(good, estimate=0.5)), refs)
    bad_count = dict(good, extras=dict(good["extras"], n_members=1))
    assert "n_members" in checks.check_report(op, json.dumps(bad_count), refs)
    pd_op = workloads.ops("pd-mc", 1, "smoke")[1]
    far = {"estimate": math.log(5.0) + 0.01, "std_error": 0.001, "extras": {}}
    assert "corr" in checks.check_report(pd_op, json.dumps(far), refs)


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["pdprocess.corr_mc", 1.0, 9.0, 0, {"samples": 4}],
        # two worker-thread children overlapping in time
        ["boxes.tuple_sum_per_item", 2.0, 6.0, 1, None],
        ["boxes.tuple_sum_per_item", 4.0, 8.0, 1, None],
    ]
    m = tracer.metrics()
    assert m["cli.run.self_s"] == pytest.approx(2.0)
    assert m["pdprocess.corr_mc.self_s"] == pytest.approx(2.0)
    assert m["boxes.tuple_sum_per_item.self_s"] == pytest.approx(8.0)
    assert m["boxes.tuple_sum_per_item.calls"] == 2
    assert m["pdprocess.corr_mc.samples"] == 4
