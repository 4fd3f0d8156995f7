"""CSV emission for runs and sweeps, plus run comparison.

Numeric fields are printed with six significant digits and no locale
dependence, so identical runs serialize to identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .baselines import QueueDiscipline, SchedulerKind
from .engine import RunResult, run_scenario
from .scenario import Scenario, ScenarioError

JOBS_COLUMNS = ["job_id", "user", "site", "submit", "scheduled", "started",
                "completed", "queue_time", "exec_time", "migrations", "status"]

SUMMARY_COLUMNS = ["scheduler", "queue", "seed", "axis", "axis_value",
                   "submitted", "completed", "failed_unreachable",
                   "rejected_unschedulable", "pending", "mean_exec_time",
                   "total_exec_time", "mean_queue_time", "total_queue_time",
                   "mean_transfer_time", "message_count", "messages_per_job",
                   "makespan", "mean_utilization", "workload_hash"]

SWEEP_AXES = ("bandwidth", "sites", "scheduler")


def fmt_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


def jobs_rows(result: RunResult) -> Iterator[List[str]]:
    """One jobs.csv row per job, produced as the writer asks for it."""
    for job in result.records():
        yield [
            job.job_id,
            job.user_id,
            job.exec_site or "",
            fmt_value(job.submit_time),
            fmt_value(job.scheduled),
            fmt_value(job.started),
            fmt_value(job.completed),
            fmt_value(job.queue_time),
            fmt_value(job.exec_time),
            str(job.migrations),
            job.status.value,
        ]


def summary_row(result: RunResult, axis: str = "",
                axis_value: str = "") -> List[str]:
    s = result.summary()
    s["axis"] = axis
    s["axis_value"] = axis_value
    return [fmt_value(s[col]) for col in SUMMARY_COLUMNS]


def _write_csv(path: str, header: List[str],
               rows: Iterable[List[str]]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_csv(path: str) -> List[Dict[str, str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def write_run(result: RunResult, out_dir: str) -> Dict[str, str]:
    """Write jobs.csv and summary.csv for a single run."""
    os.makedirs(out_dir, exist_ok=True)
    jobs_path = os.path.join(out_dir, "jobs.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    summary = [summary_row(result)]  # may raise; then nothing is written
    _write_csv(jobs_path, JOBS_COLUMNS, jobs_rows(result))
    _write_csv(summary_path, SUMMARY_COLUMNS, summary)
    return {"jobs": jobs_path, "summary": summary_path}


def apply_axis(scenario: Scenario, axis: str, value: str) -> Scenario:
    """Return the scenario with one sweep axis applied, as a new Scenario.

    A value the axis cannot take raises ScenarioError naming both.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; use one of {SWEEP_AXES}")
    try:
        if axis == "bandwidth":
            bw = float(value)
            link = scenario.default_link
            changes = dict(
                default_link=link if link is None
                else dataclasses.replace(link, bandwidth=bw),
                links=[dataclasses.replace(l, bandwidth=bw) for l in scenario.links])
        elif axis == "sites":
            if scenario.site_template is None:
                raise ValueError("sites axis needs a site_template in the scenario")
            changes = dict(site_count=int(value))
        else:
            changes = dict(scheduler=SchedulerKind(value))
            if (changes["scheduler"] is not SchedulerKind.DIANA
                    and scenario.queue is QueueDiscipline.PRIORITY_MULTIQUEUE):
                changes["queue"] = QueueDiscipline.FCFS
        return dataclasses.replace(scenario, **changes)
    except ValueError as exc:  # ScenarioError included
        raise ScenarioError(f"sweep {axis} value {value!r}: {exc}") from exc


def run_sweep(scenario: Scenario, axis: str, values: Sequence[str], seed: int,
              out_dir: Optional[str] = None) -> List[RunResult]:
    """One run per axis value; summary.csv gets one row per point."""
    results = []
    rows = []
    for value in values:
        result = run_scenario(apply_axis(scenario, axis, value), seed)
        results.append(result)
        rows.append(summary_row(result, axis=axis, axis_value=str(value)))
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            _write_csv(os.path.join(out_dir, f"jobs_{axis}_{value}.csv"),
                       JOBS_COLUMNS, jobs_rows(result))
    if out_dir is not None:
        _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, rows)
    return results


class CompareError(ValueError):
    pass


COMPARE_METRICS = ["mean_exec_time", "total_exec_time", "mean_queue_time",
                   "total_queue_time", "message_count", "messages_per_job",
                   "makespan"]


def read_summaries(paths: Sequence[str]) -> List[Dict[str, str]]:
    """The rows of summary.csv files, for `compare`.

    A compared metric that is not a number raises CompareError naming
    the file, the line and the column.
    """
    rows = []
    for path in paths:
        for lineno, row in enumerate(read_csv(path), start=2):
            for column in COMPARE_METRICS:
                value = row.get(column)
                if value is None:
                    continue  # compare names the missing column
                try:
                    float(value)
                except ValueError:
                    raise CompareError(
                        f"{path} line {lineno}: {column} is not a number: "
                        f"{value!r}") from None
            rows.append(row)
    return rows


def compare(summaries: Sequence[Dict[str, str]]) -> str:
    """Side-by-side table of runs over the same workload, with ratios.

    Refuses to compare summaries whose workload hashes differ.
    """
    if len(summaries) < 2:
        raise CompareError("need at least two summaries to compare")
    for column in ["workload_hash", "scheduler", "queue"] + COMPARE_METRICS:
        if any(s.get(column) is None for s in summaries):
            raise CompareError(f"summary lacks the {column} column")
    hashes = {s["workload_hash"] for s in summaries}
    if len(hashes) != 1:
        raise CompareError(f"workload hash mismatch: {sorted(hashes)}")
    labels = [f"{s['scheduler']}/{s['queue']}" for s in summaries]
    width = max(18, *(len(l) + 2 for l in labels))
    out = io.StringIO()
    out.write("metric".ljust(22))
    for label in labels:
        out.write(label.rjust(width))
    out.write("\n")
    for metric in COMPARE_METRICS:
        out.write(metric.ljust(22))
        for s in summaries:
            out.write(s[metric].rjust(width))
        out.write("\n")
        base = float(summaries[0][metric])
        out.write((metric + " ratio").ljust(22))
        for s in summaries:
            ratio = float(s[metric]) / base if base else float("nan")
            out.write(format(ratio, ".4g").rjust(width))
        out.write("\n")
    return out.getvalue()
