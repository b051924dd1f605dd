"""Set-up, the timed batch, the paired traced run, output checks and metrics.

The batch is a closed loop with one job in flight: each job is one
in-process ``qconstel.cli.main(argv)`` call, its output file written
inside the timed region.  Rounds of the seeded job stream run until the
measuring time is over and at least ``MIN_JOBS`` jobs are done, so that
ten or more samples lie beyond the 90th percentile.  Set-up is timed in
fresh interpreters (``setup_once.py``), so that imports count in full.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from checks import check_output
from hostspeed import REFERENCE_S, HostSpeed
from spans import Tracer
from workloads import Job, rounds, warmup_job, write_inputs

HERE = Path(__file__).resolve().parent
WORK_DIR = ".clibench_work"
SETUP_REPEATS = 15
MIN_JOBS = 100
MAX_BATCH_S = 60.0

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Traced functions summed into one metric prefix; any other prefix is either
# a module (all its traced functions) or a single ``module.function``.
GROUPS = {
    "constellation.build": ("constellation.make_pair", "constellation.make_ring",
                            "constellation.make_rectangle"),
}
MODULES = ("linalg", "constellation", "states", "symmetry", "estimation", "simulate",
           "circuit", "cli")
FUNCTION_METRICS = (
    "linalg.eig_hermitian.calls", "linalg.eig_hermitian.self_s",
    "linalg.unitary_distance.calls", "linalg.unitary_distance.self_s",
    "constellation.build.calls", "constellation.build.self_s",
    "states.density_matrix.calls", "states.density_matrix.self_s",
    "states.source_state.calls",
    "estimation.outcome_probabilities.calls", "estimation.outcome_probabilities.self_s",
    "estimation.check_basis.self_s",
    "estimation.qfim.calls", "estimation.qfim.self_s",
    "estimation.drho.self_s", "estimation.sld.self_s",
    "estimation.character_basis.calls", "estimation.character_basis.self_s",
    "symmetry.symmetric_eigenbasis.self_s", "symmetry.qft_matrix.calls",
    "simulate.crb_study.self_s", "simulate.mle_1d.calls", "simulate.mle_1d.self_s",
    "simulate.sample_outcomes.self_s",
    "circuit.reck_decompose.calls", "circuit.reck_decompose.self_s",
    "circuit.netlist_unitary.self_s", "circuit.relabeling_distance.self_s",
    "circuit.load_unitary.self_s", "circuit.from_text.self_s",
) + tuple(f"{m}.self_s" for m in MODULES)
PER_LAYER = {
    **{name: "calls/job" if name.endswith(".calls") else "s/job" for name in FUNCTION_METRICS},
    "simulate.prob_evals_per_trial": "calls/trial",
    "simulate.estimator_failure_ratio": "fraction",
    "check.closed_form_mismatch": "jobs",
    "trace.overhead": "ratio",
}


@dataclass
class Batch:
    """Jobs run in one batch with their wall times, exit codes and errors.

    ``scaled`` holds the job times in reference-host seconds (see ``hostspeed``);
    ``ticks`` the host-speed sample each job is scaled by.
    """

    out_dir: Path
    jobs: list[Job] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    ticks: list[int] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    wall: float = 0.0

    def output(self, i: int) -> Path:
        return self.out_dir / f"{i}{self.jobs[i].suffix}"

    def add(self, cli, job: Job, tick: int) -> None:
        """Run ``job`` as the batch's next job."""
        i = len(self.jobs)
        self.jobs.append(job)
        elapsed, code, err = run_job(cli, job, self.output(i))
        self.seconds.append(elapsed)
        self.codes.append(code)
        self.errors.append(err)
        self.ticks.append(tick)

    def finish(self, speed: HostSpeed) -> None:
        self.scaled = [t * speed.scale(k) for t, k in zip(self.seconds, self.ticks)]


def run_job(cli, job: Job, out: Path) -> tuple[float, int, str]:
    """One ``cli.main`` call; returns (wall seconds, exit code, stderr).

    ``main`` is looked up on the module at each call, so a tracer installed
    after set-up sees it.
    """
    argv = [*job.argv, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, and the batch goes on
            code = -1
            stderr.write(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
    return elapsed, code, stderr.getvalue()


def prepare(cli, workload: str, work: Path, tag: str) -> None:
    """Write the workload's inputs and run its warm-up job."""
    write_inputs(workload, work / "inputs", cli.main)
    warm = warmup_job(workload, work / "inputs")
    (work / "warmup").mkdir(parents=True, exist_ok=True)
    _, code, err = run_job(cli, warm, work / "warmup" / f"{tag}{warm.suffix}")
    if code != 0:
        raise RuntimeError(f"warm-up job {warm.key} exited {code}: {err.strip()}")


def setup(workload: str, work: Path, speed: HostSpeed):
    """Time ``SETUP_REPEATS`` set-ups, each in a fresh interpreter, then set up here.

    A set-up imports ``qconstel.cli`` (numpy included), writes the inputs and
    runs the warm-up job.  Returns the ``qconstel.cli`` module and the set-up
    times as (seconds, reference seconds) pairs.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        k = speed.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload, str(work), str(rep)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {rep} exited {proc.returncode}: {proc.stderr.strip()}")
        times.append((float(proc.stdout.split()[-1]), k))
    cli = importlib.import_module("qconstel.cli")
    prepare(cli, workload, work, "here")
    return cli, [(t, t * speed.scale(k)) for t, k in times]


def job_stream(workload: str, seed: int, work: Path, seconds: float):
    """Whole rounds until ``seconds`` have passed and ``MIN_JOBS`` jobs are dealt."""
    stream = rounds(workload, seed, work / "inputs")
    start = time.perf_counter()
    dealt = 0
    while True:
        jobs = next(stream)
        yield from jobs
        dealt += len(jobs)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (dealt >= MIN_JOBS or elapsed >= MAX_BATCH_S):
            return


def run_batch(cli, jobs, out_dir: Path, speed: HostSpeed) -> Batch:
    """Run ``jobs`` in order, one in flight."""
    batch = Batch(out_dir)
    batch.out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    for job in jobs:
        batch.add(cli, job, speed.tick())
    batch.wall = time.perf_counter() - start
    batch.finish(speed)
    return batch


def paired(cli, jobs, work: Path, speed: HostSpeed, tracer: Tracer) -> tuple[Batch, Batch]:
    """Run each job untraced and traced, alternating which goes first.

    Returns the untraced and the traced batch.  Alternating the order
    cancels what the first run of a job leaves warm for the second.
    """
    plain, traced = Batch(work / "untraced"), Batch(work / "traced")
    for batch in (plain, traced):
        batch.out_dir.mkdir(parents=True, exist_ok=True)
    for i, job in enumerate(jobs):
        tick = speed.tick()
        for batch in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            with (tracer if batch is traced else contextlib.nullcontext()):
                batch.add(cli, job, tick)
    for batch in (plain, traced):
        batch.finish(speed)
    return plain, traced


@dataclass
class CheckSummary:
    failed: int = 0
    closed_form_mismatch: int = 0
    trials: int = 0
    failed_trials: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, job: Job, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"{job.key}: {message}")


def _job_problem(batch: Batch, i: int, reference: dict | None, summary: CheckSummary):
    """Why job ``i`` of ``batch`` failed, or None; counts its trials and mismatches."""
    if batch.codes[i] != 0:
        return f"exit code {batch.codes[i]}: {batch.errors[i].strip()[-300:]}"
    verdict = check_output(batch.jobs[i], batch.output(i), reference)
    summary.closed_form_mismatch += verdict.closed_form_mismatch
    summary.trials += verdict.trials
    summary.failed_trials += verdict.failed_trials
    return "; ".join(verdict.problems[:3]) or None


def check_batch(batch: Batch, reference: dict | None, twin: Batch | None = None) -> CheckSummary:
    """Exit codes, oracles and references of every job.

    With ``twin`` (the traced run of the same jobs) each twin job counts as
    a job of its own: it fails if it exits non-zero or its output differs
    from a passing untraced output, and is checked on its own otherwise.
    Trials and closed-form mismatches are counted over ``batch`` only.
    """
    summary = CheckSummary()
    for i, job in enumerate(batch.jobs):
        problem = _job_problem(batch, i, reference, summary)
        if problem:
            summary.fail(job, problem)
        if twin is None:
            continue
        if problem is None:
            same = twin.codes[i] == 0 and twin.output(i).read_bytes() == batch.output(i).read_bytes()
            twin_problem = None if same else "traced run differs from the untraced one"
        else:
            twin_problem = _job_problem(twin, i, reference, CheckSummary())
        if twin_problem:
            summary.fail(job, f"traced: {twin_problem}")
    return summary


def layer_metrics(tracer: Tracer, jobs: int, trials: int) -> dict[str, float]:
    """Per-job calls and self seconds for every ``FUNCTION_METRICS`` entry."""
    out = {}
    for metric in FUNCTION_METRICS:
        prefix, _, what = metric.rpartition(".")
        if prefix in GROUPS:
            names = GROUPS[prefix]
        elif prefix in MODULES:
            names = [n for n in tracer.stats if n.startswith(prefix + ".")]
        else:
            names = [prefix]
        col = 0 if what == "calls" else 2
        out[metric] = sum(tracer.stats.get(n, (0, 0.0, 0.0))[col] for n in names) / jobs
    evals = tracer.calls_within.get("estimation.outcome_probabilities", 0)
    out["simulate.prob_evals_per_trial"] = evals / trials if trials else 0.0
    return out


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    env = {
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "seed": seed,
    }
    for dist in ("numpy", "scipy"):
        try:
            env[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            env[dist] = None
    backend = getattr(sys.modules.get("qconstel"), "backend_name", None)
    if callable(backend):
        env["backend"] = backend()
    return env


def _quantiles(values: list[float]) -> tuple[float, float]:
    p50, p90 = np.percentile(np.asarray(values), [50.0, 90.0])
    return float(p50), float(p90)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    reference = json.loads((HERE / "reference.json").read_text())
    work = root / WORK_DIR / f"{workload}-{os.getpid()}"
    speed = HostSpeed()
    try:
        cli, setup_times = setup(workload, work, speed)
        jobs = job_stream(workload, seed, work, seconds)
        twin = None
        if trace:
            tracer = Tracer()
            batch, twin = paired(cli, jobs, work, speed, tracer)
        else:
            batch = run_batch(cli, jobs, work / "untraced", speed)
        checks = check_batch(batch, reference, twin)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n = len(batch.jobs)
    attempted = n * (2 if trace else 1)
    print(f"# clibench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# env " + json.dumps(environment(root, seed), sort_keys=True))
    if trace:
        values = layer_metrics(tracer, n, checks.trials)
        values["simulate.estimator_failure_ratio"] = (
            checks.failed_trials / checks.trials if checks.trials else 0.0)
        values["check.closed_form_mismatch"] = checks.closed_form_mismatch
        values["trace.overhead"] = sum(twin.seconds) / sum(batch.seconds)
        units = PER_LAYER
        notes = {k: f"over {n} traced jobs" for k in units}
    else:
        p50, p90 = _quantiles(batch.scaled)
        raw50, raw90 = _quantiles(batch.seconds)
        raw_setup = [t for t, _ in setup_times]
        values = {
            "jobs_per_s": n / sum(batch.scaled),
            "job_s.p50": p50,
            "job_s.p90": p90,
            "setup_s": statistics.median(t for _, t in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = {
            "jobs_per_s": n / sum(batch.seconds),
            "job_s.p50": raw50,
            "job_s.p90": raw90,
            "setup_s": statistics.median(raw_setup),
        }
        units = END_TO_END
        notes = {
            "jobs_per_s": f"samples={n} in {batch.wall:.1f} s",
            "job_s.p50": f"samples={n}",
            "job_s.p90": f"samples={n}, {sum(t > p90 for t in batch.scaled)} beyond",
            "setup_s": f"samples={len(setup_times)}",
            "peak_rss_mb": "samples=1",
        }
        for name, value in raw.items():
            notes[name] += f", unscaled {value:.6g}"
    host = statistics.median(speed.samples)
    print(f"# host speed: calibration kernel median {host:.6g} s over {len(speed.samples)} "
          f"samples; reference {REFERENCE_S} s")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.6g} {unit:10s} {notes[name]}")
    print(f"{'error_rate':40s} {checks.failed / attempted:14.6g} {'fraction':10s} "
          f"{checks.failed} failed of {attempted} attempted")
    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    if not trace:
        print("# unscaled " + json.dumps({k: {"value": v, "unit": units[k]}
                                         for k, v in raw.items()}, sort_keys=True))
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {"correct": checks.failed == 0, "attempted": attempted,
            "failed": checks.failed, "metrics": metrics}
