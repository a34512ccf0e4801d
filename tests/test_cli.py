"""CLI subcommands, exit codes, and flag values."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

import kinoplan
from kinoplan import cli
from kinoplan.cli import EXIT_ERROR, EXIT_NO_PATH, EXIT_OK, EXIT_SCENARIO_FAILED
from kinoplan.collision import footprint_circles
from kinoplan.geometry import CurveLibrary, Pose
from kinoplan.rrt import PlannerConfig
from kinoplan.scenarios import get_scenario, save_scenario
from kinoplan.svg import SvgCanvas

TINY_CONFIG = """\
# single straight cell
r_min = 2.0
r_max = 2.0
n_r = 1
beta_min = 0.0
beta_max = 0.0
n_beta = 1
"""


class TestGenLibrary:
    def test_tiny_config_and_regeneration(self, tmp_path, capsys):
        cfg = tmp_path / "lib.cfg"
        cfg.write_text(TINY_CONFIG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["gen-library", "--config", str(cfg),
                         "--out", str(out1)]) == EXIT_OK
        assert cli.main(["gen-library", "--config", str(cfg),
                         "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lib = CurveLibrary.load_csv(out1)
        assert len(lib.entries) == 1
        assert lib.entries[(0, 0)].params.s_f == pytest.approx(2.0, abs=1e-3)
        assert "entries 1" in capsys.readouterr().out

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "lib.cfg"
        cfg.write_text("r_min = 1.0\nwhat is this\n")
        assert cli.main(["gen-library", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")]) == EXIT_ERROR
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("r_min = 1.0\nn_r = 2.5\n", "lib.cfg:2: n_r: invalid literal for int()"),
        ("r_min = 3\nr_max = 1\n", "lib.cfg: r_min (3.0) must be below r_max (1.0)"),
        ("kappa_max = inf\n", "lib.cfg:1: kappa_max must be positive and finite, got inf"),
        ("r_max = inf\n", "lib.cfg:1: r_max must be finite, got inf"),
        ("beta_max = inf\n", "lib.cfg:1: beta_max must be finite, got inf"),
        ("dtheta_factors = nan\n", "lib.cfg:1: dtheta_factors must be finite, got (nan,)"),
        ("max_arc_length = inf\n",
         "lib.cfg:1: max_arc_length must be positive and finite, got inf"),
    ])
    def test_bad_config_value(self, tmp_path, capsys, text, message):
        """A bad value fails on its line, and values bad together name the
        file; either way no library is written."""
        cfg = tmp_path / "lib.cfg"
        cfg.write_text(text)
        out = tmp_path / "x.csv"
        assert cli.main(["gen-library", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestPlan:
    def test_deterministic_output(self, tmp_path, library_csv):
        out1 = tmp_path / "p1"
        out2 = tmp_path / "p2"
        args = ["plan", "--start", "0,0,0", "--goal", "10,0,0",
                "--library", str(library_csv), "--seed", "4"]
        assert cli.main(args + ["--out", str(out1)]) == EXIT_OK
        assert cli.main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()
        header = (out1 / "path.csv").read_text().splitlines()[0]
        assert header == "i,x,y,theta,a,b,c,s_f"
        ET.parse(out1 / "path.svg")

    def test_missing_endpoints(self, capsys):
        assert cli.main(["plan"]) == EXIT_ERROR
        assert "--start" in capsys.readouterr().err

    def test_goal_inside_obstacle(self, tmp_path, library_csv):
        sc = tmp_path / "world.txt"
        sc.write_text("name trap\nbounds -5 -5 15 5\nstart 0 0 0\n"
                      "goal 10 0 0\ndisk 10 0 2\n")
        code = cli.main(["plan", "--scenario", str(sc),
                         "--library", str(library_csv),
                         "--out", str(tmp_path / "o")])
        assert code == EXIT_NO_PATH

    def test_svg_draws_footprint_obstacles(self, tmp_path, library_csv):
        out = tmp_path / "bypass"
        assert cli.main(["plan", "--scenario", "bypass", "--library", library_csv,
                         "--out", str(out)]) == EXIT_OK
        svg = (out / "path.svg").read_text()
        scenario = get_scenario("bypass")
        cars = [o for o in scenario.static_obstacles if o.kind == "footprint"]
        assert cars
        expected = SvgCanvas(scenario.bounds)
        for car in cars:
            for cx, cy in footprint_circles(car.footprint, car.pose):
                expected.circle(cx, cy, car.footprint.radius, fill="#888888")
        for element in expected.elements:
            assert element in svg

    def test_prints_the_endpoints_it_plans_between(self, tmp_path, library_csv, capsys):
        """With --scenario, the printed start and goal are the scenario's
        poses unless a flag replaces one; they used to print as None."""
        scenario = get_scenario("cross")
        assert cli.main(["plan", "--scenario", "cross", "--goal", "20,1,0",
                         "--library", library_csv, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert f"start = {scenario.start}" in out
        assert f"goal = {Pose(20.0, 1.0, 0.0)}" in out
        path = (tmp_path / "path.csv").read_text().splitlines()
        assert [float(v) for v in path[1].split(",")[1:4]] == [
            scenario.start.x, scenario.start.y, scenario.start.theta]

    @pytest.mark.parametrize("command", [["plan", "--start", "0,0,0", "--goal", "10,0,0"],
                                         ["simulate", "--scenario", "cross"]])
    def test_bad_library_file(self, tmp_path, library_csv, capsys, command):
        bad = tmp_path / "bad.csv"
        lines = open(library_csv).read().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(command + ["--library", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "bad.csv:6: 10 fields, expected 11" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["plan", "--start", "0,0,0", "--goal", "20,5,0"],
                                         ["simulate", "--scenario", "cross"]])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_library_row_breaking_a_rule(self, tmp_path, library_csv, capsys, command, repeat):
        """A nan in a library row, or a second row for a cell, fails at its
        line; the nan used to reach the cell lookup as 'cannot convert float
        NaN to integer', and the second row to replace the first."""
        bad = tmp_path / "bad.csv"
        lines = open(library_csv).read().splitlines()
        row = lines[5].split(",")
        row[6 if repeat else 7] = "9.5" if repeat else "nan"  # s_f or dx
        if repeat:
            lines.append(",".join(row))
            message = (f"bad.csv:{len(lines)}: bad row: cell ({row[0]}, {row[1]}) "
                       "already set on line 6")
        else:
            lines[5] = ",".join(row)
            message = "bad.csv:6: bad row: dx must be finite, got nan"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = cli.main(command + ["--library", str(bad), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["plan", "--start", "0,0,0", "--goal", "10,0,0"],
                                         ["simulate", "--scenario", "cross"]])
    @pytest.mark.parametrize("line", ["collision_ds = -0.5", "collision_ds = 0",
                                      "max_iterations = -3", "static_margin = -5",
                                      "extend_candidates = 0", "extend_candidates = -1",
                                      "goal_bias = 2", "gmm_sigma = nan",
                                      "connect_radius = -1"])
    def test_bad_planner_config(self, tmp_path, library_csv, capsys, command, line):
        """A value that would weaken or misreport planning fails with the file's
        name; so does a key that is now a constant in ``rrt``."""
        cfg = tmp_path / "planner.cfg"
        cfg.write_text(line + "\n")
        code = cli.main(command + ["--config", str(cfg), "--library", str(library_csv),
                                   "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        key = line.split()[0]
        if key in {f.name for f in fields(PlannerConfig)}:
            assert f"planner.cfg:1: {key} must be" in err
        else:
            assert f"planner.cfg:1: unknown key {key!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,text,message", [
        (["plan", "--start", "0,0,0", "--goal", "10,0,0"], "max_iterations = 100\np_th = 2\n",
         "planner.cfg:2: p_th must be in [0, 1], got 2.0"),
        (["simulate", "--scenario", "cross"],
         "p_th = 0.5\ngoal_bias = 0.1\nworld_bounds = 30 20 -6 -8\n",
         "planner.cfg:3: world_bounds must be finite xmin ymin xmax ymax"),
    ])
    def test_bad_planner_value_names_its_line(self, tmp_path, library_csv, capsys, command,
                                              text, message):
        cfg = tmp_path / "planner.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        code = cli.main(command + ["--config", str(cfg), "--library", str(library_csv),
                                   "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", [["plan", "--scenario", "cross"],
                                         ["simulate", "--scenario", "cross"]])
    def test_removed_planner_key(self, tmp_path, library_csv, capsys, command):
        """A key that is now a constant in ``rrt`` is an unknown key, even
        with a valid value, and fails before any planning."""
        cfg = tmp_path / "planner.cfg"
        cfg.write_text("gmm_sigma = 0.5\n")
        out = tmp_path / "o"
        code = cli.main(command + ["--config", str(cfg), "--library", str(library_csv),
                                   "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "planner.cfg:1: unknown key 'gmm_sigma'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_pose_argument(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["plan", "--start", "1,2", "--goal", "3,4,0",
                      "--out", str(tmp_path)])
        assert exc.value.code == EXIT_ERROR
        assert "argument --start: invalid Pose value: '1,2'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,start,goal", [
        ("--start", "0,0,nan", "10,0,0"),
        ("--goal", "0,0,0", "inf,0,0"),
        ("--goal", "0,0,0", "1,-inf,0"),
    ])
    def test_non_finite_pose(self, tmp_path, capsys, flag, start, goal):
        """A non-finite pose is a usage error naming its flag and the field's
        rule, before any library is built."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["plan", "--start", start, "--goal", goal, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_ERROR
        err = capsys.readouterr().err
        got = tuple(float(v) for v in (start if flag == "--start" else goal).split(","))
        assert f"argument {flag}: {flag[2:]} must be finite, got {got}" in err
        assert not any(tmp_path.iterdir())


class TestSimulate:
    def test_requires_scenario(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate"])
        assert exc.value.code == EXIT_ERROR
        assert "the following arguments are required: --scenario" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert cli.main(["simulate", "--scenario", "nonesuch"]) == EXIT_ERROR
        assert "nonesuch" in capsys.readouterr().err

    def test_malformed_scenario_file(self, tmp_path, capsys):
        sc = tmp_path / "bad.txt"
        sc.write_text("name x\ndisk 1 2\n")
        assert cli.main(["simulate", "--scenario", str(sc)]) == EXIT_ERROR
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize("lines,where", [
        (["sim_dt 0"], "bad.txt:5: sim_dt"),
        (["obstacle 0 4 2", "waypoint 0 2 0 0", "waypoint 0 1 1 0"], "bad.txt:5: waypoint times"),
        (["obstacle 0 4 2"], "bad.txt:5: waypoints"),
        (["obs_noise nan"], "bad.txt:5: obs_noise must be finite and non-negative, got nan"),
        (["obs_noise inf"], "bad.txt:5: obs_noise must be finite and non-negative, got inf"),
        (["obs_noise -0.5"], "bad.txt:5: obs_noise must be finite and non-negative, got -0.5"),
    ])
    def test_bad_scenario_value(self, tmp_path, capsys, lines, where):
        sc = tmp_path / "bad.txt"
        sc.write_text("name x\nbounds -5 -5 15 5\nstart 0 0 0\ngoal 10 0 0\n"
                      + "\n".join(lines) + "\n")
        assert cli.main(["simulate", "--scenario", str(sc)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err

    def test_inverted_bounds(self, tmp_path, capsys):
        """A saved ``cross`` with its bounds turned around fails on that line
        and writes nothing."""
        sc = tmp_path / "cross.txt"
        save_scenario(get_scenario("cross"), sc)
        lines = sc.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("bounds "))
        lines[k] = "bounds 30 20 -6 -8"
        sc.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--scenario", str(sc), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"cross.txt:{k + 1}: bounds must be" in err
        assert "Traceback" not in err and not out.exists()

    def test_cross_run_exports(self, tmp_path, library_csv):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--scenario", "cross", "--seed", "0",
                         "--library", str(library_csv), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "metrics.txt").exists()


class TestBenchSampling:
    def test_single_run_table(self, tmp_path, library_csv, capsys):
        out = tmp_path / "bench"
        code = cli.main(["bench-sampling", "--runs", "1", "--seed", "1",
                         "--library", str(library_csv), "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "stats.csv").read_text().strip().splitlines()
        assert lines[0] == ("heading,mode,runs,nodes_mean,nodes_ci95,"
                            "time_mean,time_ci95,length_mean,length_ci95")
        assert len(lines) == 1 + 10 * 2  # headings 0..90 by 10, two modes
        for svg in ("bench_length.svg", "bench_nodes.svg"):
            ET.parse(out / svg)


    @pytest.mark.parametrize("failing", ["gmm", "random"])
    def test_mode_solving_no_run(self, tmp_path, library_csv, monkeypatch, failing):
        """A mode that solves no run at a heading keeps ``runs 0`` and nan in
        stats.csv, and the plots leave its points out: a nan used to reach
        the SVG as a coordinate, or as 'cannot convert float NaN to integer'
        when it set the plot's box."""
        plan_path = cli.plan_path

        def plan_or_fail(start, goal, disks, pcfg, *rest):
            mode = "random" if pcfg.p_th == 0.0 else "gmm"
            return None if mode == failing else plan_path(start, goal, disks, pcfg, *rest)

        monkeypatch.setattr(cli, "plan_path", plan_or_fail)
        out = tmp_path / "bench"
        assert cli.main(["bench-sampling", "--runs", "1", "--library", library_csv,
                         "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in
                (out / "stats.csv").read_text().strip().splitlines()[1:]]
        failed = [row for row in rows if row[1] == failing]
        assert len(failed) == 10
        assert all(row[2] == "0" and row[3] == "nan" for row in failed)
        for svg in ("bench_length.svg", "bench_nodes.svg"):
            ET.parse(out / svg)
            assert "nan" not in (out / svg).read_text()


def _trace_with_nan(column: str) -> str:
    """A two-tick trace with one obstacle whose second row has nan in ``column``."""
    header = "t,x,y,theta,v,a,flag,obs_id,obs_x,obs_y"
    row = dict(zip(header.split(","), "0.1,0.2,0,0,2,0,executing,0,5,5".split(",")))
    row[column] = "nan"
    return f"{header}\n0,0,0,0,0,0,planning,0,5,5\n{','.join(row.values())}\n"


class TestExportPlots:
    def test_roundtrip_from_trace(self, tmp_path, library_csv):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--scenario", "cross", "--seed", "0",
                         "--library", str(library_csv),
                         "--out", str(run_dir)]) == EXIT_OK
        plots = tmp_path / "plots"
        code = cli.main(["export-plots", "--trace", str(run_dir / "trace.csv"),
                         "--scenario", "cross", "--out", str(plots)])
        assert code == EXIT_OK
        ET.parse(plots / "trace.svg")
        # The scenario's scripts and goal restore the clearances and success.
        assert (plots / "metrics.txt").read_bytes() == (run_dir / "metrics.txt").read_bytes()
        assert (plots / "trace.csv").read_bytes() == (run_dir / "trace.csv").read_bytes()
        bare = tmp_path / "bare"
        assert cli.main(["export-plots", "--trace", str(run_dir / "trace.csv"),
                         "--out", str(bare)]) == EXIT_OK
        assert (bare / "trace.svg").exists()
        assert not (bare / "metrics.txt").exists()

    def test_time_limit_run(self, tmp_path, library_csv):
        """A run cut by its time limit fails with exit 3, and the re-export of
        its trace writes the same metrics."""
        world = tmp_path / "short.txt"
        world.write_text("name short\nbounds -6 -8 18 8\nstart 0 0 0\ngoal 12 0 0\n"
                         "time_limit 2\n")
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--scenario", str(world), "--library", str(library_csv),
                         "--out", str(run_dir)]) == EXIT_SCENARIO_FAILED
        assert "success False" in (run_dir / "metrics.txt").read_text().splitlines()
        plots = tmp_path / "plots"
        assert cli.main(["export-plots", "--trace", str(run_dir / "trace.csv"),
                         "--scenario", str(world), "--out", str(plots)]) == EXIT_OK
        assert (plots / "metrics.txt").read_bytes() == (run_dir / "metrics.txt").read_bytes()

    def test_scenario_must_match_trace_obstacles(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("t,x,y,theta,v,a,flag,obs_id,obs_x,obs_y\n"
                         "0,0,0,0,0,0,planning,0,5,5\n")
        world = tmp_path / "empty.txt"
        world.write_text("name empty\nbounds -5 -5 15 5\nstart 0 0 0\ngoal 10 0 0\n")
        assert cli.main(["export-plots", "--trace", str(trace), "--scenario", str(world),
                         "--out", str(tmp_path / "p")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "t.csv: obstacle ids [0], but scenario empty has []" in err
        assert "Traceback" not in err

    def test_missing_trace(self, tmp_path, capsys):
        assert cli.main(["export-plots", "--trace", str(tmp_path / "no.csv"),
                         "--out", str(tmp_path / "p")]) == EXIT_ERROR

    @pytest.mark.parametrize("text,where", [
        ("", "t.csv:1: expected the header"),
        ("t,x,y,theta,v,a,flag\n0,0,0,0,0,0,planning\n0.1,0,zero,0,0,0,planning\n",
         "t.csv:3: could not convert"),
        *((_trace_with_nan(column), f"t.csv:3: {column} must be finite, got nan")
          for column in ("t", "x", "y", "theta", "v", "a", "obs_x", "obs_y")),
    ])
    def test_bad_trace(self, tmp_path, capsys, text, where):
        trace = tmp_path / "t.csv"
        trace.write_text(text)
        assert cli.main(["export-plots", "--trace", str(trace),
                         "--out", str(tmp_path / "p")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err
        assert not (tmp_path / "p").exists()

    def test_non_finite_trace_number_with_scenario(self, tmp_path, capsys):
        """With a scenario, a nan pose used to give a metrics.txt with
        'total_length nan' before the plot failed."""
        trace = tmp_path / "t.csv"
        trace.write_text("t,x,y,theta,v,a,flag\n0,0,0,0,0,0,planning\n"
                         "0.05,nan,0,0,0,0,executing\n")
        world = tmp_path / "empty.txt"
        world.write_text("name empty\nbounds -5 -5 15 5\nstart 0 0 0\ngoal 10 0 0\n")
        out = tmp_path / "p"
        assert cli.main(["export-plots", "--trace", str(trace), "--scenario", str(world),
                         "--out", str(out)]) == EXIT_ERROR
        assert "t.csv:3: x must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()


class TestFlagValues:
    @pytest.mark.parametrize("argv,message", [
        (["bench-sampling", "--runs", "0"],
         "argument --runs: runs must be an integer >= 1, got 0"),
        (["bench-sampling", "--runs", "-2"],
         "argument --runs: runs must be an integer >= 1, got -2"),
        (["simulate", "--scenario", "cross", "--seed", "-3"],
         "argument --seed: seed must be a non-negative integer, got -3"),
        (["plan", "--seed", "-1"], "argument --seed: seed must be a non-negative integer, got -1"),
        (["plan", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["bench-sampling", "--runs", "2.5"], "argument --runs: invalid int value: '2.5'"),
    ])
    def test_bad_count_flag(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--replan-timeout", "2"], ["--ground-truth-tracks"]])
    def test_constant_is_not_a_flag(self, tmp_path, capsys, flags):
        """The replan timeout is ``simulator.REPLAN_TIMEOUT`` and observations
        carry the scenario's ``obs_noise``, so neither is a flag."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--scenario", "blocked", "--out", str(tmp_path), *flags])
        assert exc.value.code == EXIT_ERROR
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("argv", [
        ["gen-library", "--seed", "1"],
        ["export-plots", "--trace", "t.csv", "--seed", "1"],
        ["bench-sampling", "--mode", "gmm"],
    ])
    def test_removed_flag(self, tmp_path, capsys, argv):
        """Neither gen-library nor export-plots draws a random number, and
        bench-sampling always runs both modes, so none takes these flags."""
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == EXIT_ERROR
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["gen-library"],
        ["plan", "--start", "0,0,0", "--goal", "10,0,0"],
        ["simulate", "--scenario", "cross"],
        ["bench-sampling", "--runs", "1"],
        ["export-plots", "--trace", "t.csv"],
    ])
    def test_empty_out(self, tmp_path, monkeypatch, capsys, argv):
        """An empty --out is a usage error before any work: no configuration
        is printed and nothing is written."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", ""])
        assert exc.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert "argument --out: out must be a non-empty path" in captured.err
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    def test_out_path_keeps_its_commas(self, tmp_path):
        cfg = tmp_path / "lib.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "a,b.csv"
        assert cli.main(["gen-library", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(CurveLibrary.load_csv(out).entries) == 1

    def test_environment_sets_no_default(self, tmp_path, library_csv, monkeypatch, capsys):
        """A value comes from its flag alone: ``KINOPLAN_SEED`` is not read."""
        monkeypatch.setenv("KINOPLAN_SEED", "9")
        assert cli.main(["plan", "--start", "0,0,0", "--goal", "10,0,0",
                         "--library", str(library_csv), "--out", str(tmp_path)]) == EXIT_OK
        assert "seed = 0\n" in capsys.readouterr().out


def _subprocess_env(**extra):
    """The environment with this checkout's package first on the import path."""
    src = str(Path(kinoplan.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


class TestRuntime:
    def test_no_scipy_at_run_time(self):
        code = ("import sys, kinoplan, kinoplan.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_trace_independent_of_blas_threads(self, tmp_path, library_csv):
        """``trace.csv`` has the same bytes with one and with two BLAS threads."""
        traces = []
        for threads in ("1", "2"):
            env = _subprocess_env(**{var: threads for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
            out = tmp_path / f"threads{threads}"
            run = subprocess.run([sys.executable, "-m", "kinoplan.cli", "simulate",
                                  "--scenario", "overtake", "--seed", "0",
                                  "--library", library_csv, "--out", str(out)],
                                 env=env, capture_output=True, text=True)
            assert run.returncode == EXIT_OK, run.stderr
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]
