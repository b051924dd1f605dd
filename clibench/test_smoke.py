"""Smoke test of the benchmark at its smallest size: one round of each workload.

Run from the repository root with ``python3 -m pytest -q clibench/test_smoke.py``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _package_bindings() -> dict:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "qconstel" or name.startswith("qconstel.")}


@pytest.mark.parametrize("workload", list(workloads.TEMPLATES))
def test_traced_run_writes_same_bytes_and_repeats_counts(workload, tmp_path):
    cli = importlib.import_module("qconstel.cli")
    inputs = tmp_path / "inputs"
    workloads.write_inputs(workload, inputs, cli.main)
    jobs = next(workloads.rounds(workload, 3, inputs))
    speed = hostspeed.HostSpeed()
    plain = harness.run_batch(cli, jobs, tmp_path / "plain", speed)

    counts = []
    for k in range(2):
        tracer = spans.Tracer()
        with tracer:
            traced = harness.run_batch(cli, jobs, tmp_path / f"traced{k}", speed)
        summary = harness.check_batch(plain, REFERENCE, traced)
        assert summary.failed == 0, summary.messages
        # every span nests inside cli.main, so the self times add up to its total
        self_total = sum(stat[2] for stat in tracer.stats.values())
        assert self_total == pytest.approx(tracer.stats["cli.main"][1], rel=1e-9)
        metrics = harness.layer_metrics(tracer, len(jobs), summary.trials)
        counts.append({name: value for name, value in metrics.items()
                       if name.endswith(".calls") or name == "simulate.prob_evals_per_trial"})
    assert counts[0] == counts[1]
    if workload == "circuit":
        assert counts[0]["linalg.eig_hermitian.calls"] == 0
    if workload == "sweep":
        assert counts[0]["simulate.mle_1d.calls"] == 0
        assert summary.closed_form_mismatch > 0


def test_failed_job_counts_once_per_run(tmp_path):
    job = next(workloads.rounds("circuit", 1, tmp_path))[0]
    plain, traced = (harness.Batch(tmp_path / d, jobs=[job], codes=[1], errors=["boom"])
                     for d in ("plain", "traced"))
    assert harness.check_batch(plain, REFERENCE, traced).failed == 2
    traced.codes = [0]  # no output file: the traced job is checked on its own and fails
    assert harness.check_batch(plain, REFERENCE, traced).failed == 2


def test_paired_run_alternates_and_restores_bindings(tmp_path):
    cli = importlib.import_module("qconstel.cli")
    inputs = tmp_path / "inputs"
    workloads.write_inputs("circuit", inputs, cli.main)
    jobs = next(workloads.rounds("circuit", 2, inputs))[:4]
    before = _package_bindings()
    tracer = spans.Tracer()
    plain, traced = harness.paired(cli, jobs, tmp_path, hostspeed.HostSpeed(), tracer)
    assert plain.jobs == traced.jobs == jobs
    assert tracer.stats["cli.main"][0] == len(jobs)
    assert harness.check_batch(plain, REFERENCE, traced).failed == 0
    after = _package_bindings()
    for name, attrs in before.items():
        assert all(after[name][attr] is obj for attr, obj in attrs.items()), name


def test_tracer_binds_every_import_site_and_restores_them():
    qconstel = importlib.import_module("qconstel")
    estimation = importlib.import_module("qconstel.estimation")
    simulate = importlib.import_module("qconstel.simulate")
    original = estimation.outcome_probabilities
    before = _package_bindings()
    tracer = spans.Tracer()
    with tracer:
        assert estimation.outcome_probabilities is not original
        assert simulate.outcome_probabilities is estimation.outcome_probabilities
        assert qconstel.outcome_probabilities is estimation.outcome_probabilities
        estimation.ring_model(4, 1.0).rho([0.3])  # builder looks names up at call time
    assert tracer.stats["constellation.make_ring"][0] == 2  # factory template + builder
    assert tracer.stats["states.density_matrix"][0] == 1
    after = _package_bindings()
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        assert all(after[name][attr] is obj for attr, obj in attrs.items()), name


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.TEMPLATES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "crb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
