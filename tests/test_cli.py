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
BURST = "burst time=0 user=u site=s1 count=1 demand=2 procs=1 data_site=s1"


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
    """Bad input ends in exit 2 and one line naming the line, not a traceback.

    Covers burst and fault numbers, site, link, user and weight values,
    scalar settings, and the rules that relate lines to each other.
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
        # A negative zero would print as -0 and hash unlike 0.
        ("burst time=-0 user=u site=s1 count=1 demand=2 procs=1 data_site=s1",
         "time"),
        ("burst time=0 user=u site=s1 count=1 demand=-0 procs=1 data_site=s1",
         "demand"),
        ("burst time=0 user=u site=s1 count=1 demand=-0:2 procs=1 data_site=s1",
         "demand"),
        ("burst time=0 user=u site=s1 count=1 demand=0:-0 procs=1 data_site=s1",
         "demand"),
        ("burst time=0 user=u site=s1 count=1 demand=2 procs=1 data=-0 "
         "data_site=s1", "data"),
        ("fault crash s2 -0", "time"),
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

    # Each rule that relates lines to each other, each deleted setting
    # and each size ceiling ends in exactly this line on stderr.
    @pytest.mark.parametrize("lines,err", [
        ("site s1 nodes=1 power=1",
         "line 6: duplicate site id 's1' (first on line 1)"),
        ("site_template prefix=s nodes=1 power=1\nsite_count 2\n"
         "site s002 nodes=1 power=1",
         "line 8: duplicate site id 's002' (first on line 6)"),
        ("site_count 2", "line 6: site_count needs a site_template"),
        ("scheduler round_robin",
         "line 6: priority queue discipline requires the diana scheduler"),
        ("link s1 s2 bandwidth=10\nlink s1 s2 bandwidth=1000",
         "line 7: duplicate link between s1 and s2 (first on line 6)"),
        ("link s1 s2 bandwidth=10\nlink s2 s1 bandwidth=1000",
         "line 7: duplicate link between s2 and s1 (first on line 6)"),
        ("link s1 s1 bandwidth=1", "line 6: link from s1 to itself"),
        ("link s1 ghost bandwidth=1",
         "line 6: link references undefined site 'ghost'"),
        ("user u quota=2", "line 6: duplicate user id 'u' (first on line 4)"),
        (BURST.replace("user=u", "user=v"),
         "line 6: burst references undefined user 'v'"),
        (BURST.replace("site=s1 count", "site=ghost count"),
         "line 6: burst references undefined site 'ghost'"),
        (BURST.replace("data_site=s1", "data_site=ghost"),
         "line 6: burst data_site 'ghost' is undefined"),
        ("fault crash ghost 1",
         "line 6: fault references undefined site 'ghost'"),
        ("site s3 nodes=1 nodes=2 power=1", "line 6: field 'nodes' given twice"),
        ("echo_timeout nan", "line 6: unknown key 'echo_timeout'"),
        ("echo_timeout 5", "line 6: unknown key 'echo_timeout'"),
        ("bands 0.5 0", "line 6: unknown key 'bands'"),
        ("migration_enabled false",
         "line 6: unknown key 'migration_enabled'"),
        ("thrs 0.5\nthrs 0.7", "line 7: thrs given twice (first on line 6)"),
        ("site_template prefix=a nodes=1 power=1\n"
         "site_template prefix=b nodes=1 power=1",
         "line 7: site_template given twice (first on line 6)"),
        ("default_link bandwidth=10",
         "line 6: default_link given twice (first on line 3)"),
        ("weights mixed 1 1 1\nweights mixed 1 2 1",
         "line 7: weights mixed given twice (first on line 6)"),
        (BURST.replace("count=1", "count=100000000"),
         "line 6: burst brings the workload to 100000006 jobs, "
         "over the ceiling of 1000000"),
        ("site_template prefix=t nodes=1 power=1\nsite_count 2000\n"
         + BURST.replace("count=1", "count=500 per_site=true"),
         "line 8: burst brings the workload to 1001006 jobs (500 x 2002 sites), "
         "over the ceiling of 1000000"),
        ("site_template prefix=t nodes=1 power=1\nsite_count 100000000",
         "line 7: site_count must be in [0, 2000], got 100000000")],
        ids=["twin site", "template site", "stray site_count",
             "priority without diana", "twin link", "twin link reversed",
             "self link", "link site", "twin user", "burst user", "burst site",
             "burst data_site", "fault site", "twin field",
             "deleted echo_timeout nan", "deleted echo_timeout 5",
             "deleted bands", "deleted migration_enabled", "twin setting",
             "twin site_template", "twin default_link", "twin weights",
             "huge count", "huge per_site count", "huge site_count"])
    def test_exact_diagnostic(self, tmp_path, capsys, lines, err):
        bad = tmp_path / "bad.txt"
        bad.write_text(SCENARIO.lstrip() + lines + "\n")
        code = main(["run", "--scenario", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {err}\n"

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
