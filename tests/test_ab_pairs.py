"""``tools/ab_pairs.py`` summary and benchmark comparison on synthetic results; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
SPEC = {"end_to_end": [
    {"name": "jobs_per_s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]}


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(jobs_per_s, peak_rss_mb, failed=0, attempted=100):
    """One run as ``clibench/run.py`` prints it."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
                        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


def pairs(parent, change):
    return [{"parent": result(*p), "change": result(*c)} for p, c in zip(parent, change)]


def test_clear_gain_within_the_rss_bound(ab_pairs):
    parent = [(70.0 + i, 44.0 + 0.01 * i) for i in range(10)]
    change = [(105.0 + i, 45.5 + 0.01 * i) for i in range(10)]
    s = ab_pairs.summarise(pairs(parent, change), SPEC)
    jobs, rss = s["metrics"]["jobs_per_s"], s["metrics"]["peak_rss_mb"]
    assert jobs["parent"]["median"] == 74.5 and jobs["change"]["median"] == 109.5
    assert jobs["wins"] == 10 and jobs["ratio"] == pytest.approx(109.5 / 74.5)
    assert jobs["verdict"] == "gain"
    # 3.4 % more memory: lost every pair, but inside the 5 % bound
    assert rss["wins"] == 0 and rss["verdict"] == "ok"
    assert s["failed_share"] == {"parent": 0.0, "change": 0.0}
    lines = ab_pairs.report(s)
    assert lines[1].split()[0] == "jobs_per_s" and lines[1].endswith("gain")
    assert " 10/10 " in lines[1] and " 0/10 " in lines[2]
    assert jobs["worse_pairs"] == rss["worse_pairs"] == 0 and "past the bound" not in lines[2]


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr(ab_pairs):
    parent = [(70.0 + i, 44.0) for i in range(10)]
    # medians 6 apart, beyond the parent's IQR of 5.5, but the change wins only 8 of 10
    change = [(78.0 + i, 44.0) for i in range(8)] + [(60.0, 44.0), (61.0, 44.0)]
    jobs = ab_pairs.summarise(pairs(parent, change), SPEC)["metrics"]["jobs_per_s"]
    assert jobs["wins"] == 8 and jobs["verdict"] == "ok"
    # wins every pair, but by less than the parent's IQR
    change = [(70.5 + i, 44.0) for i in range(10)]
    jobs = ab_pairs.summarise(pairs(parent, change), SPEC)["metrics"]["jobs_per_s"]
    assert jobs["wins"] == 10 and jobs["verdict"] == "ok"
    # ties count for neither side
    jobs = ab_pairs.summarise(pairs(parent, parent), SPEC)["metrics"]["jobs_per_s"]
    assert jobs["wins"] == 0 and jobs["ratio"] == 1.0


def test_worse_and_unresolved_verdicts(ab_pairs):
    parent = [(100.0, 44.0 + 0.01 * i) for i in range(10)]
    change = [(100.0, 46.5 + 0.01 * i) for i in range(10)]  # +5.7 % memory
    s = ab_pairs.summarise(pairs(parent, change), SPEC)
    assert s["metrics"]["peak_rss_mb"]["verdict"] == "WORSE"
    assert s["metrics"]["peak_rss_mb"]["worse_pairs"] == 10
    assert "  WORSE, 10/10 pairs past the bound  (median jobs" in ab_pairs.report(s)[2]
    # the parent's own runs spread wider than the 20 % bound: a 10 % loss is unresolved
    parent = [(v, 44.0) for v in (60.0, 80.0, 100.0, 120.0, 140.0) * 2]
    change = [(0.9 * v, 44.0) for v, _ in parent]
    s = ab_pairs.summarise(pairs(parent, change), SPEC)
    assert s["metrics"]["jobs_per_s"]["verdict"] == "unresolved"
    assert s["metrics"]["jobs_per_s"]["worse_pairs"] == 0  # each pair -10 %, inside 20 %
    assert ab_pairs.report(s)[1].endswith("unresolved")


def test_pairs_past_the_bound_behind_an_ok_median(ab_pairs):
    # 2 of 4 pairs read more than 5 % more memory, but the median ratio is x1.042:
    # "ok", and the line says how many pairs were past the bound
    parent = [(100.0, 44.0)] * 4
    change = [(100.0, 44.0 * r) for r in (1.03, 1.034, 1.055, 1.06)]
    s = ab_pairs.summarise(pairs(parent, change), SPEC)
    rss = s["metrics"]["peak_rss_mb"]
    assert rss["ratio"] == pytest.approx(1.0445) and rss["verdict"] == "ok"
    assert rss["worse_pairs"] == 2 and s["metrics"]["jobs_per_s"]["worse_pairs"] == 0
    lines = ab_pairs.report(s)
    assert "  ok, 2/4 pairs past the bound  (median jobs: parent 100, change 100;" in lines[2]
    assert lines[1].endswith("  ok")
    # a faster side past the bound in the better direction is not counted
    s = ab_pairs.summarise(pairs(parent, [(130.0, 40.0)] * 4), SPEC)
    assert s["metrics"]["jobs_per_s"]["worse_pairs"] == s["metrics"]["peak_rss_mb"]["worse_pairs"] == 0
    # a slower side is, per pair
    s = ab_pairs.summarise(pairs(parent, [(79.0, 44.0), (81.0, 44.0)] * 2), SPEC)
    assert s["metrics"]["jobs_per_s"]["worse_pairs"] == 2
    assert ab_pairs.report(s)[1].endswith(", 2/4 pairs past the bound")


def test_failed_share_per_side(ab_pairs):
    runs = pairs([(70.0, 44.0)] * 2, [(70.0, 44.0)] * 2)
    runs[1]["change"] = result(70.0, 44.0, failed=3)
    assert ab_pairs.summarise(runs, SPEC)["failed_share"] == {"parent": 0.0, "change": 0.015}


def test_median_job_count_beside_peak_rss(ab_pairs):
    # a faster change runs more jobs in the same time, and its memory rises with them
    runs = [{"parent": result(70.0, 44.0, attempted=2100 + 10 * i),
             "change": result(105.0, 45.8, attempted=3150 + 10 * i)} for i in range(5)]
    runs[0]["change"] = result(105.0, 45.8, failed=5, attempted=3100)
    s = ab_pairs.summarise(runs, SPEC)
    assert s["median_attempted"] == {"parent": 2120, "change": 3170}
    assert s["failed_share"]["change"] == pytest.approx(5 / (3100 + 3160 + 3170 + 3180 + 3190))
    lines = ab_pairs.report(s)
    assert lines[2].split()[0] == "peak_rss_mb"
    assert lines[2].endswith("ok  (median jobs: parent 2120, change 3170; fit: "
                             f"{s['rss_fit']['kb_per_job']:+.3g} KB/job, change "
                             f"{s['rss_fit']['change_mb']:+.3g} MB, records reach the bound "
                             f"at jobs x{s['rss_fit']['headroom']:.3g})")
    assert "median jobs" not in lines[1]
    even = ab_pairs.summarise(pairs([(70.0, 44.0)] * 2, [(70.0, 44.0)] * 2), SPEC)
    assert even["median_attempted"] == {"parent": 100, "change": 100}


def test_rss_fit_separates_job_count_from_the_change(ab_pairs):
    # peak_rss_mb = a + b * attempted + c * [change], with b in MB per job
    a, b, c = 40.0, 0.78 / 1024, 0.05
    runs = [{side: result(100.0, a + b * jobs + c * (side == "change"), attempted=jobs)
             for side, jobs in (("parent", 3600 + 40 * i), ("change", 6400 + 90 * (i % 3)))}
            for i in range(8)]
    s = ab_pairs.summarise(runs, SPEC)
    # parent medians: 3740 jobs and a + b * 3740 MB
    headroom = 1.0 + 0.05 * (a + b * 3740) / (b * 3740)
    assert s["rss_fit"] == pytest.approx({"kb_per_job": 0.78, "change_mb": c,
                                          "headroom": headroom})
    assert ab_pairs.report(s)[2].endswith(
        f"fit: +0.78 KB/job, change +0.05 MB, records reach the bound at jobs x{headroom:.3g})")
    # the change runs read x1.047 to x1.053 of their pair's parent: pairs 0, 1, 2 and 5
    # are past the 5 % bound
    assert s["metrics"]["peak_rss_mb"]["worse_pairs"] == 4
    assert ", 4/8 pairs past the bound  (median jobs" in ab_pairs.report(s)[2]
    # more jobs alone: the change pays nothing at an equal job count
    runs = [{side: result(100.0, a + b * jobs, attempted=jobs)
             for side, jobs in (("parent", 3600 + 40 * i), ("change", 6400 - 40 * i))}
            for i in range(5)]
    fit = ab_pairs.summarise(runs, SPEC)["rss_fit"]
    assert fit["kb_per_job"] == pytest.approx(0.78) and fit["change_mb"] == pytest.approx(0.0, abs=1e-9)


def test_rss_headroom_is_the_job_ratio_at_which_records_reach_the_bound(ab_pairs):
    # 1.35 KB per job at the parent's 4,830 jobs and 48.63 MB: the change may run
    # x1.38 the parent's jobs before its records alone cost the 5 % bound
    b, jobs, rss = 1.35 / 1024, 4830, 48.63
    runs = [{"parent": result(100.0, rss + b * 10 * k, attempted=jobs + 10 * k),
             "change": result(130.0, rss + b * (1800 + 20 * (k % 3)) + 0.03,
                              attempted=jobs + 1800 + 20 * (k % 3))} for k in range(-2, 3)]
    s = ab_pairs.summarise(runs, SPEC)
    fit = s["rss_fit"]
    assert fit["kb_per_job"] == pytest.approx(1.35) and fit["change_mb"] == pytest.approx(0.03)
    assert fit["headroom"] == pytest.approx(1.0 + 0.05 * rss / (b * jobs))
    assert round(fit["headroom"], 2) == 1.38
    assert ab_pairs.report(s)[2].endswith("records reach the bound at jobs x1.38)")
    # memory that falls as the job count grows leaves no bound for records to reach
    runs = [{side: result(100.0, rss - 1e-4 * (j - jobs), attempted=j)
             for side, j in (("parent", jobs + 10 * k), ("change", jobs + 900 + 30 * k))}
            for k in range(4)]
    s = ab_pairs.summarise(runs, SPEC)
    assert s["rss_fit"]["headroom"] is None
    assert ab_pairs.report(s)[2].endswith("records reach the bound at jobs xn/a)")


def test_rss_fit_is_not_available_when_rank_deficient(ab_pairs):
    # one job count per side: the count and the side cannot be told apart
    runs = [{"parent": result(70.0, 44.0 + 0.01 * i, attempted=2000),
             "change": result(105.0, 45.0, attempted=3000)} for i in range(4)]
    s = ab_pairs.summarise(runs, SPEC)
    assert s["rss_fit"] is None
    assert ab_pairs.report(s)[2].endswith("; fit: n/a)")


def test_benchmark_differences(ab_pairs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "clibench" / "__pycache__").mkdir(parents=True)
        (root / "clibench" / "run.py").write_text("print(1)\n")
        (root / "BENCHMARK.json").write_text("{}\n")
    (a / "clibench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    assert ab_pairs.benchmark_differences(a, b) == []
    (b / "clibench" / "run.py").write_text("print(2)\n")
    (b / "clibench" / "extra.py").write_text("")
    (b / "BENCHMARK.json").write_text('{"run_seconds": 5}\n')
    assert ab_pairs.benchmark_differences(a, b) == [
        "clibench/extra.py", "BENCHMARK.json", "clibench/run.py"]
