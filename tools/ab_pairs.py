"""Run the clibench benchmark from two checkouts in alternating pairs, and judge the change.

Usage, from the repository root::

    python3 tools/ab_pairs.py --parent ../parent --change . --workload crb \\
        --seeds 1-10 --out crb_pairs.json

Pair i runs ``clibench/run.py --workload W --seed S_i --seconds T --trace 0``
once from each checkout, one process at a time, the parent first in even
pairs and the change first in odd ones.  T is ``run_seconds`` from
``BENCHMARK.json``.  The tool refuses to start unless both checkouts hold
the same ``clibench/`` files and the same ``BENCHMARK.json``, so that the
two sides differ only in the program.

It prints every run's metrics, then per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles
(``statistics.quantiles(values, n=4)``, as ``clibench/repeat.py``), the
number of pairs the change wins (ties count for neither side), the ratio
change/parent of the medians against the metric's bound, and the verdict:

- ``gain`` when the change wins at least nine tenths of the pairs and the
  medians differ, in the better direction, by more than the parent's
  interquartile distance;
- ``WORSE`` when the change's median is worse than the parent's by more
  than the bound;
- ``unresolved`` when it is not, but the parent's own quartiles lie further
  apart than the bound allows and some change run reads worse than some
  parent run;
- ``ok`` otherwise.

A median can hide single pairs past the bound, so it also counts, per
metric, the pairs whose own ratio change/parent is worse than the bound
(``worse_pairs``), and prints ``k/n pairs past the bound`` after the
verdict when k > 0.

Beside ``peak_rss_mb`` it prints each side's median job count
(``attempted``): clibench keeps records of every finished job, so a faster
program runs more jobs and reads as using more memory.  So it also fits
``peak_rss_mb = a + b * attempted + c * [change side]`` over all runs by
least squares, and prints b in KB per job and c, the change's memory at an
equal job count, in MB ("n/a" when the fit is rank-deficient, as when each
side runs one job count).  Beside the fit it prints the headroom
1 + bound * R / (b * J), with R the parent's median ``peak_rss_mb``, J its
median job count and b in MB per job: the ratio of job counts, change over
parent, at which the job records alone reach the metric's bound ("n/a" when
b <= 0, as then the records do not grow).  It also prints each side's share
of failed jobs.  It exits 1 if a run fails, if a metric reads ``WORSE``, or
if the change fails a larger share of jobs than the parent, and 2 if the
benchmarks differ.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts}


def benchmark_differences(a: Path, b: Path) -> list[str]:
    """Files of ``clibench/`` and ``BENCHMARK.json`` that differ between two checkouts."""
    fa, fb = _files(a / "clibench"), _files(b / "clibench")
    names = sorted(f"clibench/{f}" for f in fa ^ fb)
    for name in ["BENCHMARK.json"] + sorted(f"clibench/{f}" for f in fa & fb):
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file() and filecmp.cmp(pa, pb, shallow=False)):
            names.append(name)
    return names


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rss_fit(pairs: list[dict], bound: float) -> dict | None:
    """Least-squares ``peak_rss_mb = a + b * attempted + c * [change side]`` over all runs.

    Returns b in KB per job, c in MB and the ``headroom`` 1 + bound * R /
    (b * J) of the module docstring (None when b <= 0), or None when the
    fit is rank-deficient.
    """
    runs = [(p[side]["attempted"], side == "change", p[side]["metrics"]["peak_rss_mb"]["value"])
            for p in pairs for side in SIDES]
    x = np.array([[1.0, jobs, change] for jobs, change, _ in runs])
    (_, b, c), _, rank, _ = np.linalg.lstsq(x, np.array([r[2] for r in runs]), rcond=None)
    if rank < 3:
        return None
    parent = [(jobs, rss) for jobs, change, rss in runs if not change]
    jobs, rss = (statistics.median(v) for v in zip(*parent))
    return {"kb_per_job": float(b) * 1024.0, "change_mb": float(c),
            "headroom": float(1.0 + bound * rss / (b * jobs)) if b > 0 else None}


def summarise(pairs: list[dict], spec: dict) -> dict:
    """Judge the change from paired results.

    ``pairs`` holds one ``{"parent": result, "change": result}`` per pair,
    each result as ``clibench/run.py`` prints it (``attempted``, ``failed``,
    ``metrics``: name -> {"value"}); ``spec`` is ``BENCHMARK.json``.  Returns
    per end-to-end metric the quartiles of both sides, the change's wins, the
    pairs past the bound, the median ratio change/parent, its bound and the
    verdict, per side the share of failed jobs and median job count, and
    ``rss_fit``.
    """
    n = len(pairs)
    rss_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_rss_mb")
    summary = {"pairs": n, "metrics": {}, "failed_share": {}, "median_attempted": {},
               "rss_fit": rss_fit(pairs, rss_bound)}
    for side in SIDES:
        attempted = [p[side]["attempted"] for p in pairs]
        summary["failed_share"][side] = sum(p[side]["failed"] for p in pairs) / sum(attempted)
        summary["median_attempted"][side] = statistics.median(attempted)
    for m in spec["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (_quartiles(values[s]) for s in SIDES)
        sign = 1.0 if higher else -1.0  # sign * (change - parent) > 0 is better
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        ratio = cmed / pmed
        worse = ratio < 1.0 - bound if higher else ratio > 1.0 + bound
        worse_pairs = sum(c / p < 1.0 - bound if higher else c / p > 1.0 + bound
                          for p, c in zip(values["parent"], values["change"]))
        if wins >= 0.9 * n and sign * (cmed - pmed) > pq3 - pq1:
            verdict = "gain"
        elif worse:
            verdict = "WORSE"
        elif (pq3 - pq1) / abs(pmed) > bound and not all(
                sign * (c - p) > 0 for c in values["change"] for p in values["parent"]):
            verdict = "unresolved"
        else:
            verdict = "ok"
        summary["metrics"][name] = {
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "wins": wins, "worse_pairs": worse_pairs, "ratio": ratio, "bound": bound,
            "better": m["better"], "verdict": verdict,
        }
    return summary


def report(summary: dict) -> list[str]:
    n = summary["pairs"]
    lines = [f"{'metric':14s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} "
             f"{'wins':>6s} {'ratio':>7s} {'bound':>6s}  verdict"]
    for name, s in summary["metrics"].items():
        sides = ["/".join(f"{s[side][k]:.4g}" for k in ("q1", "median", "q3")) for side in SIDES]
        line = (f"{name:14s} {sides[0]:>32s} {sides[1]:>32s} {s['wins']:>3d}/{n:<2d} "
                f"{s['ratio']:7.4f} {s['bound']:6.2f}  {s['verdict']}")
        if s["worse_pairs"]:
            line += f", {s['worse_pairs']}/{n} pairs past the bound"
        if name == "peak_rss_mb":
            jobs = summary["median_attempted"]
            fit = summary["rss_fit"]
            fit = ("n/a" if fit is None else
                   f"{fit['kb_per_job']:+.3g} KB/job, change {fit['change_mb']:+.3g} MB, "
                   "records reach the bound at jobs x"
                   + ("n/a" if fit["headroom"] is None else f"{fit['headroom']:.3g}"))
            line += (f"  (median jobs: parent {jobs['parent']:g}, change {jobs['change']:g};"
                     f" fit: {fit})")
        lines.append(line)
    shares = summary["failed_share"]
    lines.append(f"failed share: parent {shares['parent']:.4g}, change {shares['change']:.4g}")
    return lines


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(checkout / "clibench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} seed {seed}: clibench exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=("crb", "sweep", "circuit"))
    ap.add_argument("--seeds", default="1-10", help="one seed per pair: 'a-b' or a comma list")
    ap.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    differ = benchmark_differences(checkouts["parent"], checkouts["change"])
    if differ:
        print("the checkouts run different benchmarks: " + ", ".join(differ), file=sys.stderr)
        return 2
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    pairs = []
    for i, seed in enumerate(_seeds(args.seeds)):
        pair = {"seed": seed}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            try:
                pair[side] = _run(checkouts[side], args.workload, seed, spec["run_seconds"])
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            print(f"pair {i} seed {seed} {side:6s} " + " ".join(
                f"{k}={pair[side]['metrics'][k]['value']:.6g}" for k in names), flush=True)
        pairs.append(pair)
    summary = summarise(pairs, spec)
    print("\n".join(report(summary)))
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "pairs": pairs,
                                        "summary": summary}, indent=1) + "\n", encoding="utf-8")
    shares = summary["failed_share"]
    worse = any(s["verdict"] == "WORSE" for s in summary["metrics"].values())
    return 1 if worse or shares["change"] > shares["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
