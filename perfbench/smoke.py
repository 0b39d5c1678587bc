"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/smoke.py -q

Runs every workload for half a second in both modes and checks that each
metric BENCHMARK.json names is printed with its unit, that the trace
accounts for the op time, and that every oracle rejects a deliberately
perturbed solution. The file name keeps it out of the repository's own
test collection.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if trace:
        values = {k: v["value"] for k, v in res["metrics"].items()}
        assert values["trace.covered_frac"] >= 0.9
        if workload == "scenario_lp":
            for layer in ("reformulate.assemble", "reformulate.recset",
                          "shapes.fit", "shapes.calibrate", "calibrate.size"):
                assert values[f"{layer}.self_ms"] == 0.0, layer


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("union_ro", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_union_ro_oracle_rejects_scaled_solution():
    wl = workloads.UnionRo(seed=3)
    inp = wl.inputs[0]
    sol, pset, viol = wl.op(inp)
    assert wl.check(inp, (sol, pset, viol)) is None
    bad = dataclasses.replace(sol, x=sol.x * 1.5)
    assert wl.check(inp, (bad, pset, viol))[0] == "wrong"
    stuck = dataclasses.replace(sol, status=workloads.conic.SolveStatus.ITER_LIMIT)
    assert wl.check(inp, (stuck, pset, viol))[0] == "status"


def test_scenario_lp_oracle_rejects_perturbed_solutions():
    wl = workloads.ScenarioLp(seed=3)
    inp = wl.inputs[0]
    sol, viol = wl.op(inp)
    assert wl.check(inp, (sol, viol)) is None
    # infeasible for the scenario rows
    assert wl.check(inp, (dataclasses.replace(sol, x=sol.x * 1.5), viol))[0] == "wrong"
    # feasible but suboptimal against the reference LP
    assert wl.check(inp, (dataclasses.replace(sol, x=sol.x * 0.99), viol))[0] == "wrong"


def test_replicate_oracle_rejects_broken_guarantee():
    wl = workloads.Replicate(seed=3)
    inp = wl.inputs[0]
    rec, viol = wl.op(inp)
    assert wl.check(inp, (rec, viol)) is None
    worse = dataclasses.replace(rec, rho=-1.0, obj_tilde=rec.obj_hat + 1e-3)
    assert wl.check(inp, (worse, viol))[0] == "wrong"
    assert wl.check(inp, (rec, 1.5))[0] == "wrong"
    skipped = dataclasses.replace(rec, status_reconstructed="skipped")
    assert wl.check(inp, (skipped, viol))[0] == "status"
