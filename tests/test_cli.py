"""Command line interface: run, sweep, compare."""

import pytest

from dianasched import cli
from dianasched.cli import main
from dianasched.engine import SimulationError

SCENARIO = """
site s1 nodes=2 power=1.0
site s2 nodes=2 power=1.0
default_link bandwidth=1000
user u quota=1
burst time=0 user=u site=s1 count=6 demand=2:9 procs=1 data_site=s1
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    return str(path)


class TestRun:
    def test_writes_csvs(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", scenario_file, "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        assert (out / "jobs.csv").exists()
        assert (out / "summary.csv").exists()
        assert "completed 6/6" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, scenario_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--scenario", scenario_file, "--seed", "11",
                         "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("jobs.csv", "summary.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_missing_scenario_is_diagnosed(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.txt"),
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_is_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("thrs 7\nsite s1 nodes=1 power=1\n")
        code = main(["run", "--scenario", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "thrs" in capsys.readouterr().err


class TestDiagnostics:
    """Bad numbers end in exit 2 and one line naming the line, not a traceback.

    Covers burst and fault numbers, site, link, user and weight values,
    and scalar settings.
    """

    @pytest.mark.parametrize("line,field", [
        ("burst time=-5 user=u site=s1 count=1 demand=2 procs=1 data_site=s1",
         "time"),
        ("burst time=nan user=u site=s1 count=1 demand=2 procs=1 data_site=s1",
         "time"),
        ("burst time=0 user=u site=s1 count=1 demand=nan procs=1 data_site=s1",
         "demand"),
        ("burst time=0 user=u site=s1 count=1 demand=-1 procs=1 data_site=s1",
         "demand"),
        ("burst time=0 user=u site=s1 count=1 demand=1:inf procs=1 data_site=s1",
         "demand"),
        ("burst time=0 user=u site=s1 count=1 demand=2 procs=1 data=-1 "
         "data_site=s1", "data"),
        ("fault crash s2 -1", "time"),
        ("fault crash s2 nan", "time"),
        ("fault register s2 inf", "time"),
        ("burst time=0 user=u site=s1 count=0 demand=2 procs=1 data_site=s1",
         "count"),
        ("burst time=0 user=u site=s1 count=1 demand=2 procs=0 data_site=s1",
         "procs"),
        ("fault explode s2 1", "action"),
        ("site s3 nodes=0 power=1", "nodes"),
        ("site s3 nodes=1 power=0", "power"),
        ("site s3 nodes=1 power=-1", "power"),
        ("site s3 nodes=1 power=nan", "power"),
        ("site s3 nodes=1 power=inf", "power"),
        ("site_template prefix=t nodes=0 power=1", "nodes"),
        ("site_template prefix=t nodes=1 power=nan", "power"),
        ("link s1 s2 bandwidth=inf", "bandwidth"),
        ("link s1 s2 bandwidth=nan", "bandwidth"),
        ("link s1 s2 bandwidth=10 latency=nan", "latency"),
        ("default_link bandwidth=inf", "bandwidth"),
        ("default_link bandwidth=10 latency=inf", "latency"),
        ("default_link bandwidth=10 load=nan", "load"),
        ("user v quota=nan", "quota"),
        ("user v quota=inf", "quota"),
        ("weights mixed nan 1 1", "weights"),
        ("weights compute_intensive 1 1 inf", "weights"),
        ("thrs 1.5", "thrs"),
        ("poll_interval nan", "poll_interval"),
        ("migration_cutoff nan", "migration_cutoff"),
        ("duration_cap nan", "duration_cap"),
        ("duration_cap -3", "duration_cap"),
        ("rate_interval inf", "rate_interval")])
    def test_negative_or_non_finite_number(self, tmp_path, capsys, line, field):
        bad = tmp_path / "bad.txt"
        bad.write_text(SCENARIO.lstrip() + line + "\n")
        code = main(["run", "--scenario", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error: line 6: ") and field in err

    @pytest.mark.parametrize("line", ["link s1 s2 bandwidth=1000",
                                      "link s2 s1 bandwidth=1000"])
    def test_duplicate_link(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(SCENARIO.lstrip() + "link s1 s2 bandwidth=10\n"
                       + line + "\n")
        code = main(["run", "--scenario", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        a, b = line.split()[1:3]
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line 7: duplicate link between {a} and {b} "
            f"(first on line 6)\n")

    def test_self_link(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(SCENARIO.lstrip() + "link s1 s1 bandwidth=1\n")
        code = main(["run", "--scenario", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 6: link from s1 to itself\n")

    # Deleted settings stay rejected rather than silently ignored.
    @pytest.mark.parametrize("line", ["echo_timeout nan", "echo_timeout 5",
                                      "bands 0.5 0"])
    def test_deleted_setting_is_unknown_key(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(SCENARIO.lstrip() + line + "\n")
        code = main(["run", "--scenario", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line 6: unknown key {line.split()[0]!r}\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sweep_rejects_non_finite_bandwidth(self, scenario_file, tmp_path,
                                                capsys, value):
        code = main(["sweep", "--scenario", scenario_file, "--axis",
                     "bandwidth", "--values", value, "--seed", "1",
                     "--out", str(tmp_path / "sweep")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "bandwidth" in err
        assert not (tmp_path / "sweep" / "summary.csv").exists()

    @pytest.mark.parametrize("axis,value,reason", [
        ("bandwidth", "fast", "could not convert string to float: 'fast'"),
        ("sites", "3", "sites axis needs a site_template in the scenario"),
        ("scheduler", "greedy", "'greedy' is not a valid SchedulerKind")])
    def test_sweep_names_axis_and_value(self, scenario_file, tmp_path, capsys,
                                        axis, value, reason):
        code = main(["sweep", "--scenario", scenario_file, "--axis", axis,
                     "--values", value, "--seed", "1",
                     "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: sweep {axis} value {value!r}: {reason}\n")

    # Finite inputs whose run would reach an infinite time or total.
    @pytest.mark.parametrize("text,reason", [
        ("site s1 nodes=2 power=1e-320\nuser u quota=1\n"
         "burst time=0 user=u site=s1 count=1 demand=1e308 procs=1 data_site=s1\n",
         "event time inf is not finite (now 0.0)"),
        ("site s1 nodes=2 power=1\nuser u quota=1\n"
         "burst time=1e308 user=u site=s1 count=1 demand=1e308 procs=1 "
         "data_site=s1\n",
         "event time inf is not finite (now 1e+308)"),
        ("site s1 nodes=2 power=1\nuser u quota=1\n"
         "burst time=0 user=u site=s1 count=2 demand=1e308 procs=1 data_site=s1\n",
         "run's mean_exec_time is not finite: inf")])
    def test_non_finite_run(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code = main(["run", "--scenario", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_simulation_error_exits_2(self, scenario_file, tmp_path, capsys,
                                      monkeypatch):
        def broken(scenario, seed):
            raise SimulationError("event scheduled in the past: 1.0 < now 2.0")

        monkeypatch.setattr(cli, "run_scenario", broken)
        code = main(["run", "--scenario", scenario_file, "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: event scheduled in the past: 1.0 < now 2.0\n")


class TestSweepAndCompare:
    def test_sweep_then_compare(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", scenario_file,
                     "--axis", "scheduler", "--values", "diana,round_robin",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        code = main(["compare", str(out / "summary.csv")])
        assert code == 0
        table = capsys.readouterr().out
        assert "mean_queue_time ratio" in table

    @pytest.mark.parametrize("column", ["workload_hash", "mean_exec_time"])
    def test_compare_names_a_missing_column(self, scenario_file, tmp_path,
                                            capsys, column):
        out = tmp_path / "run"
        assert main(["run", "--scenario", scenario_file, "--seed", "2",
                     "--out", str(out)]) == 0
        # Two copies of a real summary row with one column cut out.
        header, row = ((out / "summary.csv").read_text().splitlines())
        drop = header.split(",").index(column)
        header, row = (",".join(c for i, c in enumerate(line.split(","))
                                if i != drop) for line in (header, row))
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{row}\n{row}\n")
        capsys.readouterr()
        code = main(["compare", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: summary lacks the {column} column\n")

    def test_compare_names_a_non_numeric_cell(self, scenario_file, tmp_path,
                                              capsys):
        out = tmp_path / "run"
        assert main(["run", "--scenario", scenario_file, "--seed", "2",
                     "--out", str(out)]) == 0
        header, row = ((out / "summary.csv").read_text().splitlines())
        cells = row.split(",")
        cells[header.split(",").index("makespan")] = "fast"
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{row}\n{','.join(cells)}\n")
        capsys.readouterr()
        code = main(["compare", str(out / "summary.csv"), str(bad)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad} line 3: makespan is not a number: 'fast'\n")

    def test_sweep_rejects_empty_values(self, scenario_file, tmp_path, capsys):
        code = main(["sweep", "--scenario", scenario_file, "--axis",
                     "bandwidth", "--values", "", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "values" in capsys.readouterr().err
