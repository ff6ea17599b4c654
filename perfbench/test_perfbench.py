"""Tests of the benchmark itself: python -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _suite_result(overrides=()):
    """A default-suite result as the child reports it: everything passes
    except the recorded Remark-mult-B failure, with overrides applied."""
    pos_n = ("Thm2", "Thm5", "Prop8", "Eq11")  # these sweep n = 1..12, the rest n = 0..12
    plan = {token: 12 if token in pos_n else 13 for token in tracer.IDENTITY_TOKENS}
    passed = dict(plan, **workloads.RECORDED)
    passed.update(overrides)
    return {"plan": plan, "reports": [[t, plan[t], passed[t], 0.1] for t in plan]}


def _fail_frac(ops):
    return sum(not ok for _, ok in ops) / len(ops)


def test_verify_gate_passes_the_recorded_suite_and_flags_a_flipped_status():
    job = {"kind": "verify"}
    assert _fail_frac(workloads.gate(job, _suite_result())) == 0
    assert _fail_frac(workloads.gate(job, _suite_result({"Thm5": 11}))) > 0
    # expecting Remark-mult-B to pass flips its recorded status
    assert _fail_frac(workloads.gate(job, _suite_result(), recorded={})) > 0


def test_tables_gate_flags_a_wrong_digest_or_exit_code():
    job = workloads.jobs("tables", 0)[0]
    good = {"exit": 0, "sha256": workloads.TABLE_SHA256[job["name"]]}
    assert _fail_frac(workloads.gate(job, good)) == 0
    assert _fail_frac(workloads.gate(job, dict(good, exit=2))) > 0
    wrong = dict(workloads.TABLE_SHA256, **{job["name"]: "0" * 64})
    assert _fail_frac(workloads.gate(job, good, digests=wrong)) > 0


def test_seed_changes_only_the_order_of_the_table_calls():
    orders = set()
    for seed in range(50):
        assert workloads.jobs("verify", seed) == workloads.jobs("verify", seed + 1)
        tables = workloads.jobs("tables", seed)
        assert tables == workloads.jobs("tables", seed)
        assert sorted(job["name"] for job in tables) == sorted(workloads.TABLE_SHA256)
        orders.add(tuple(job["name"] for job in tables))
    assert len(orders) > 3


def test_isolation_flags_series_or_rational_function_calls_on_tables():
    layers = {name: 0 for name, unit in tracer.metric_names() if unit == "count"}
    assert all(ok for _, ok in workloads.isolation("tables", layers))
    for name in ("series.mul.calls", "exactcore.poly_gcd.calls"):
        assert not all(ok for _, ok in workloads.isolation("tables", dict(layers, **{name: 1})))


def test_declared_metrics_match_the_benchmark_description():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.metric_names()
    assert len(SPEC["per_layer"]) == 98


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import degenbern
    import degenbern.bernoulli as bernoulli
    import degenbern.cli  # noqa: F401
    import degenbern.triangles as triangles
    from degenbern import PolyLambda, TruncatedSeries

    original = triangles.stirling2_deg
    t = tracer.Tracer()
    t.install()
    try:
        assert bernoulli.stirling2_deg is triangles.stirling2_deg is not original
        assert PolyLambda.__rmul__ is PolyLambda.__mul__
        assert TruncatedSeries.__mul__ is TruncatedSeries.mul
        degenbern.carlitz_beta_gf(6)
        stats = t.metrics()
    finally:
        t.uninstall()
    assert triangles.stirling2_deg is bernoulli.stirling2_deg is original
    assert stats["bernoulli.carlitz_beta_gf.calls"] == 1
    assert stats["series.div.calls"] == 1
    assert stats["exactcore.pl_mul.calls"] > 0 and stats["exactcore.pl_mul.scalar_ops"] > 0
    own = [n for n, _ in tracer.metric_names() if not n.endswith(".elapsed_s")]
    assert set(stats) == set(own) - {tracer.OUTPUT_BYTES}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_result_names_every_declared_metric(trace, section):
    out = _run("--workload", "tables", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    out = _run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
