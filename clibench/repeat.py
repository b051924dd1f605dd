"""Run the benchmark on several seeds and summarise each metric's spread.

From the repository root::

    python3 clibench/repeat.py --workloads crb,sweep,circuit --seeds 1-10 --out summary.json

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  Runs are sequential, one process at a time.
Unscaled times (before the host-speed scaling) are kept and summarised
too, under ``unscaled`` and with the workload marked ``*``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(label: str, metrics: list[dict], bounds: dict) -> dict:
    """Median, quartiles and spread of each metric over the runs; printed as well."""
    summary = {}
    for name in metrics[0]:
        values = [m[name]["value"] for m in metrics]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None,
                         "bound": bounds.get(name), "values": values}
        spread = "n/a" if summary[name]["spread"] is None else f"{summary[name]['spread']:.4f}"
        print(f"  {label:8s} {name:40s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread} bound={bounds.get(name)}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="crb,sweep,circuit")
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the per-run results and summary as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            env = next((json.loads(ln[6:]) for ln in lines if ln.startswith("# env ")), None)
            unscaled = next((json.loads(ln[11:]) for ln in lines
                             if ln.startswith("# unscaled ")), None)
            ok &= result["correct"]
            runs.append({"seed": seed, "env": env, "unscaled": unscaled, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = summarise(workload, [r["metrics"] for r in runs], bounds)
        if all(r["unscaled"] for r in runs):
            summary["unscaled"] = summarise(workload + "*", [r["unscaled"] for r in runs], bounds)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
