"""CSV emission, sweep axes and run comparison."""

import dataclasses

import pytest

from dianasched.baselines import SchedulerKind
from dianasched.engine import run_scenario
from dianasched.report import (JOBS_COLUMNS, SUMMARY_COLUMNS, CompareError,
                               apply_axis, compare, fmt_value, jobs_rows,
                               read_csv, run_sweep, summary_row, write_run)
from dianasched.scenario import parse_scenario

SMALL = """
site s1 nodes=2 power=1.0
site s2 nodes=2 power=1.0
default_link bandwidth=1000
user u quota=1
burst time=0 user=u site=s1 count=4 demand=2:8 procs=1 data_site=s1
"""


def small_scenario():
    return parse_scenario(SMALL)


class TestFormatting:
    def test_six_significant_digits(self):
        assert fmt_value(1234567.89) == "1.23457e+06"
        assert fmt_value(0.123456789) == "0.123457"
        assert fmt_value(80.0) == "80"

    def test_none_is_empty(self):
        assert fmt_value(None) == ""

    def test_ints_and_strings_pass_through(self):
        assert fmt_value(42) == "42"
        assert fmt_value("diana") == "diana"


class TestWriteRun:
    def test_files_and_headers(self, tmp_path):
        result = run_scenario(small_scenario(), seed=0)
        paths = write_run(result, str(tmp_path))
        jobs = read_csv(paths["jobs"])
        assert list(jobs[0]) == JOBS_COLUMNS
        assert len(jobs) == 4
        summary = read_csv(paths["summary"])
        assert list(summary[0]) == SUMMARY_COLUMNS
        assert summary[0]["completed"] == "4"

    def test_jobs_rows_are_streamed(self):
        # write_run and run_sweep never hold every jobs.csv row at once.
        result = run_scenario(small_scenario(), seed=0)
        rows = jobs_rows(result)
        assert iter(rows) is rows
        assert next(rows)[0] == "j00001"
        assert len(list(rows)) == 3

    def test_empty_workload_headers_only(self, tmp_path):
        scenario = dataclasses.replace(small_scenario(), bursts=[])
        paths = write_run(run_scenario(scenario, seed=0), str(tmp_path))
        with open(paths["jobs"]) as fh:
            lines = fh.read().splitlines()
        assert lines == [",".join(JOBS_COLUMNS)]


class TestApplyAxis:
    def test_bandwidth_rewrites_links(self):
        out = apply_axis(small_scenario(), "bandwidth", "50")
        assert out.default_link.bandwidth == 50.0

    def test_scheduler_axis_downgrades_priority_queue(self):
        out = apply_axis(small_scenario(), "scheduler", "round_robin")
        assert out.scheduler is SchedulerKind.ROUND_ROBIN
        assert out.queue.value == "fcfs"

    def test_sites_axis_requires_template(self):
        with pytest.raises(ValueError, match="site_template"):
            apply_axis(small_scenario(), "sites", "10")

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            apply_axis(small_scenario(), "color", "blue")

    def test_original_untouched(self):
        s = small_scenario()
        apply_axis(s, "bandwidth", "10")
        assert s.default_link.bandwidth == 1000.0


class TestSweepAndCompare:
    def test_scheduler_sweep_shares_workload(self, tmp_path):
        results = run_sweep(small_scenario(), "scheduler",
                            ["diana", "round_robin"], seed=3, out_dir=str(tmp_path))
        assert len({r.workload_hash for r in results}) == 1
        rows = read_csv(str(tmp_path / "summary.csv"))
        assert [r["axis_value"] for r in rows] == ["diana", "round_robin"]

    def test_compare_emits_ratio_rows(self, tmp_path):
        run_sweep(small_scenario(), "scheduler", ["diana", "round_robin"],
                  seed=3, out_dir=str(tmp_path))
        rows = read_csv(str(tmp_path / "summary.csv"))
        table = compare(rows)
        assert "mean_exec_time ratio" in table
        assert "diana/priority" in table

    def test_compare_three_runs(self, tmp_path):
        run_sweep(small_scenario(), "scheduler",
                  ["diana", "round_robin", "flop_greedy"], seed=3,
                  out_dir=str(tmp_path))
        rows = read_csv(str(tmp_path / "summary.csv"))
        header = compare(rows).splitlines()[0]
        assert header.split().count("round_robin/fcfs") == 1
        assert len(header.split()) == 4  # metric column plus three runs

    def test_compare_rejects_hash_mismatch(self):
        r1 = run_scenario(small_scenario(), seed=1)
        scenario = small_scenario()
        scenario = dataclasses.replace(scenario, bursts=[
            dataclasses.replace(scenario.bursts[0], count=5),
            *scenario.bursts[1:]])
        r2 = run_scenario(scenario, seed=1)
        with pytest.raises(CompareError, match="hash mismatch"):
            compare([dict(zip(SUMMARY_COLUMNS, summary_row(r1))),
                     dict(zip(SUMMARY_COLUMNS, summary_row(r2)))])

    def test_compare_needs_two(self):
        r1 = run_scenario(small_scenario(), seed=1)
        with pytest.raises(CompareError):
            compare([dict(zip(SUMMARY_COLUMNS, summary_row(r1)))])
