"""Print the benchmark trajectory: per workload and metric, each BENCH file's medians and ratio.

Usage, from the repository root::

    python3 tools/trajectory.py

Each change that runs ``tools/ab_pairs.py`` commits its ``--out`` file as
``bench/BENCH_<parent short sha>_<workload>.json``.  This tool reads the
committed files in the order of the commits that added them (files not yet
committed follow, by name), and prints one table per workload: a column per
file, labelled by its parent's short sha, and three rows per end-to-end
metric.  The first holds the change side's median; the second the ratio
change/parent of the file's medians; the third the running product of those
ratios along the file order.  The same code can read different medians in
two sessions on a shared host, but each ratio compares two sides run in
alternating pairs in one session, so the product follows the code and not
the session.  A file that lacks a metric shows "-", and leaves the product
as it was.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
PATTERN = "BENCH_*_*.json"


def commit_order(bench: Path) -> list[Path]:
    """The BENCH files in ``bench``, in the order of the commits that added them.

    Files that no commit added (or outside a git checkout) follow, by name.
    """
    if not bench.is_dir():
        return []
    proc = subprocess.run(
        ["git", "log", "--reverse", "--diff-filter=A", "--format=", "--name-only", "--", "."],
        cwd=bench, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    present = {p.name: p for p in bench.glob(PATTERN)}
    ordered = []
    for line in proc.stdout.splitlines() if proc.returncode == 0 else []:
        name = Path(line).name
        if name in present and present[name] not in ordered:
            ordered.append(present[name])
    return ordered + sorted(p for p in present.values() if p not in ordered)


def label(path: Path) -> str:
    """The parent's short sha in ``BENCH_<sha>_<workload>.json``."""
    return path.stem.split("_")[1]


def trajectory(files: list[Path]) -> dict[str, dict]:
    """Per workload: its files' labels and, per metric, each file's (change, parent) medians."""
    out: dict[str, dict] = {}
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        w = out.setdefault(doc["workload"], {"labels": [], "metrics": {}})
        for name in doc["summary"]["metrics"]:
            w["metrics"].setdefault(name, [None] * len(w["labels"]))
        w["labels"].append(label(path))
        for name, series in w["metrics"].items():
            m = doc["summary"]["metrics"].get(name)
            series.append(None if m is None else (m["change"]["median"], m["parent"]["median"]))
    return out


def _row(name: str, values) -> str:
    return f"  {name:16s}" + "".join(
        f" {'-' if v is None else format(v, '.4g'):>10s}" for v in values)


def report(traj: dict[str, dict]) -> list[str]:
    lines = []
    for workload, w in traj.items():
        lines.append(f"{workload}: change-side median, change/parent and its running product, "
                     "oldest first")
        lines.append(f"  {'metric':16s}" + "".join(f" {lab:>10s}" for lab in w["labels"]))
        for name, series in w["metrics"].items():
            ratios = [None if m is None or m[1] == 0 else m[0] / m[1] for m in series]
            products, product = [], 1.0
            for r in ratios:
                product = product if r is None else product * r
                products.append(None if r is None else product)
            lines.append(_row(name, [None if m is None else m[0] for m in series]))
            lines.append(_row("  change/parent", ratios))
            lines.append(_row("  product", products))
    return lines


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    files = commit_order(BENCH)
    if not files:
        print(f"no {PATTERN} files in {BENCH}", file=sys.stderr)
        return 1
    print("\n".join(report(trajectory(files))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
