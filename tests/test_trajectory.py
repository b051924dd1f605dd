"""``tools/trajectory.py`` on hand-written BENCH files; no benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_file(directory, sha, workload, medians, parents=None):
    """An ``ab_pairs --out`` file whose summary holds the given change-side medians.

    ``parents`` maps a metric to its parent-side median, 1.0 where it is absent.
    """
    parents = parents or {}
    metrics = {name: {"parent": {"q1": parents.get(name, 1.0), "median": parents.get(name, 1.0),
                                 "q3": parents.get(name, 1.0)},
                      "change": {"q1": v, "median": v, "q3": v}, "verdict": "ok"}
               for name, v in medians.items()}
    path = directory / f"BENCH_{sha}_{workload}.json"
    path.write_text(json.dumps({"workload": workload, "pairs": [],
                                "summary": {"pairs": 0, "metrics": metrics}}))
    return path


def test_change_side_medians_per_workload_in_file_order(trajectory, tmp_path):
    old = bench_file(tmp_path, "71ce9d9", "circuit", {"jobs_per_s": 219.5, "peak_rss_mb": 48.25},
                     {"jobs_per_s": 175.6, "peak_rss_mb": 50.0})
    new = bench_file(tmp_path, "0abc123", "circuit", {"jobs_per_s": 401.0, "setup_s": 0.125},
                     {"jobs_per_s": 320.8, "setup_s": 0.1})
    mid = bench_file(tmp_path, "5d6e7f8", "circuit", {"jobs_per_s": 300.0, "setup_s": 0.11},
                     {"jobs_per_s": 375.0, "setup_s": 0.1})
    crb = bench_file(tmp_path, "0abc123", "crb", {"jobs_per_s": 122.0}, {"jobs_per_s": 122.0})
    traj = trajectory.trajectory([old, crb, mid, new])
    assert traj == {
        "circuit": {"labels": ["71ce9d9", "5d6e7f8", "0abc123"],
                    "metrics": {"jobs_per_s": [(219.5, 175.6), (300.0, 375.0), (401.0, 320.8)],
                                "peak_rss_mb": [(48.25, 50.0), None, None],
                                "setup_s": [None, (0.11, 0.1), (0.125, 0.1)]}},
        "crb": {"labels": ["0abc123"], "metrics": {"jobs_per_s": [(122.0, 122.0)]}},
    }
    # the ratio is change/parent of one file's medians; a file that lacks the
    # metric shows "-" and keeps the running product
    assert trajectory.report(traj) == [
        "circuit: change-side median, change/parent and its running product, oldest first",
        "  metric              71ce9d9    5d6e7f8    0abc123",
        "  jobs_per_s            219.5        300        401",
        "    change/parent        1.25        0.8       1.25",
        "    product              1.25          1       1.25",
        "  peak_rss_mb           48.25          -          -",
        "    change/parent       0.965          -          -",
        "    product             0.965          -          -",
        "  setup_s                   -       0.11      0.125",
        "    change/parent           -        1.1       1.25",
        "    product                 -        1.1      1.375",
        "crb: change-side median, change/parent and its running product, oldest first",
        "  metric              0abc123",
        "  jobs_per_s              122",
        "    change/parent           1",
        "    product                 1",
    ]


def test_files_follow_the_commits_that_added_them(trajectory, tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    bench_file(tmp_path, "fff0000", "crb", {"jobs_per_s": 1.0})
    git("add", ".")
    git("commit", "-q", "-m", "first")
    bench_file(tmp_path, "aaa0000", "crb", {"jobs_per_s": 2.0})
    git("add", ".")
    git("commit", "-q", "-m", "second")
    bench_file(tmp_path, "0000000", "crb", {"jobs_per_s": 3.0})  # not committed: last
    assert [trajectory.label(p) for p in trajectory.commit_order(tmp_path)] == [
        "fff0000", "aaa0000", "0000000"]
    assert trajectory.commit_order(tmp_path / "missing") == []
