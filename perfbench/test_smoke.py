"""Smoke test of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_smoke.py

One short pass of each workload at seeds 0 and 1 must pass the correctness
gate and print every metric named in BENCHMARK.json with its unit.  Takes
about two minutes on two cores.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_outputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, seed, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("seed,trace", [(0, 0), (1, 0), (1, 1)])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_pass_passes_the_gate_and_reports_every_metric(workload, seed, trace):
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[workload]) * (1 + trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("profiles", 0, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_times_each_layer_of_a_direct_path_run():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nlwave.experiments as experiments
    from nlwave import StudyConfig
    from nlwave.problems import rosenau_problem
    from tracer import Tracer, layer_metrics

    cfg = StudyConfig(problem=rosenau_problem(x0=0.0), domain_half_width=4.0,
                      h=0.2, t_end=0.5, fast_mode="off")
    original = experiments.run_single
    tracer = Tracer()
    with tracer.hooks():
        experiments.run_single(cfg, cfg.grid())
    assert experiments.run_single is original
    m = layer_metrics(tracer.drain())
    assert m["experiments.runs"] == 1
    assert m["system.rhs_calls"] > 0
    assert m["backend.conv_direct_calls"] == m["system.rhs_calls"]
    assert m["system.fft_share"] == 0.0 and m["system.fft_points"] == 0
    assert m["integrator.accepted_steps"] > 0
    assert 6.0 <= m["integrator.rhs_per_step"] < 7.0
    assert m["system.rhs_s"] >= m["backend.poly_s"] + m["backend.conv_direct_s"]


def _write(outdir, files):
    os.makedirs(outdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def test_gate_rejects_an_error_off_the_golden_value(tmp_path):
    rows = ["h,N,linf_error,rho_vs_previous,accepted_steps,wall_seconds",
            "0.2,60,0.4110781,,10,0.1",
            "0.1,120,0.1682023,1.2,10,0.1",
            "0.05,240,0.04966584,1.7,10,0.1"]
    summary = json.dumps({"command": "converge", "errors": [0.4110781]})
    _write(tmp_path / "good", {"convergence.csv": "\n".join(rows) + "\n",
                               "summary.json": summary})
    problems, facts = check_outputs("converge", "rosenau", False, tmp_path / "good")
    assert problems == []
    assert facts["shared_error"] == 0.04966584

    rows[3] = "0.05,240,0.0501,1.7,10,0.1"  # 0.9% off: within 1e-2 only
    _write(tmp_path / "bad", {"convergence.csv": "\n".join(rows) + "\n",
                              "summary.json": summary})
    assert check_outputs("converge", "rosenau", False, tmp_path / "bad")[0]
    assert check_outputs("converge", "rosenau", True, tmp_path / "bad")[0] == []


def test_gate_rejects_non_finite_output(tmp_path):
    _write(tmp_path, {"truncation.csv": "N,domain_half_width,linf_error,delta,"
                                        "eps_delta\n120,6.0,nan,0.1,0.1\n",
                      "summary.json": json.dumps({"n_list": [120]})})
    problems, _ = check_outputs("truncation", "rosenau", False, tmp_path)
    assert problems
