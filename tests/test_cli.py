"""CLI subcommands, exit codes, and environment-variable defaults."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import kinoplan
from kinoplan import cli
from kinoplan.cli import EXIT_ERROR, EXIT_NO_PATH, EXIT_OK, EXIT_SCENARIO_FAILED
from kinoplan.collision import footprint_circles
from kinoplan.geometry import CurveLibrary
from kinoplan.scenarios import get_scenario
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
    ])
    def test_bad_config_value(self, tmp_path, capsys, text, message):
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

    @pytest.mark.parametrize("command", [["plan", "--start", "0,0,0", "--goal", "10,0,0"],
                                         ["simulate", "--scenario", "cross"]])
    @pytest.mark.parametrize("line", ["collision_ds = -0.5", "collision_ds = 0",
                                      "max_iterations = -3", "static_margin = -5",
                                      "extend_candidates = 0", "extend_candidates = -1",
                                      "goal_bias = 2", "gmm_sigma = nan",
                                      "connect_radius = -1"])
    def test_bad_planner_config(self, tmp_path, library_csv, capsys, command, line):
        """A value that would weaken or misreport planning fails with the file's name."""
        cfg = tmp_path / "planner.cfg"
        cfg.write_text(line + "\n")
        code = cli.main(command + ["--config", str(cfg), "--library", str(library_csv),
                                   "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"planner.cfg: {line.split()[0]} must be" in err
        assert "Traceback" not in err

    def test_config_that_fails_every_plan(self, tmp_path, library_csv, capsys):
        """An ellipse with no minor axis used to make every plan raise inside
        the sampler, which the runner counted as a failed plan: 60 s of
        simulated time, exit 3 and no message."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eccentricity = 0.5\nellipse_margin = -20\n")
        out = tmp_path / "o"
        code = cli.main(["simulate", "--scenario", "cross", "--config", str(cfg),
                         "--library", str(library_csv), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "bad.cfg: eccentricity must be at least 1 when ellipse_margin is negative" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["plan", "--scenario", "cross"],
                                         ["simulate", "--scenario", "cross"]])
    def test_collision_ds_beyond_cover_radius(self, tmp_path, library_csv, capsys, command):
        """Samples farther apart than the robot's cover radius fail before any
        planning, naming the file."""
        cfg = tmp_path / "planner.cfg"
        cfg.write_text("collision_ds = 2.0\n")
        out = tmp_path / "o"
        code = cli.main(command + ["--config", str(cfg), "--library", str(library_csv),
                                   "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "planner.cfg: collision_ds = 2.0 exceeds the robot's cover radius 1.2" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_pose_argument(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["plan", "--start", "1,2", "--goal", "3,4,0",
                      "--out", str(tmp_path)])
        assert exc.value.code == EXIT_ERROR
        assert "pose must be 'x,y,theta'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,start,goal", [
        ("--start", "0,0,nan", "10,0,0"),
        ("--goal", "0,0,0", "inf,0,0"),
        ("--goal", "0,0,0", "1,-inf,0"),
    ])
    def test_non_finite_pose(self, tmp_path, capsys, flag, start, goal):
        """A non-finite pose is a usage error naming its flag, before any
        library is built."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["plan", "--start", start, "--goal", goal, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"argument {flag}: pose values must be finite" in err
        assert not any(tmp_path.iterdir())


class TestSimulate:
    def test_requires_scenario(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate"])
        assert exc.value.code == EXIT_ERROR

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
    ])
    def test_bad_trace(self, tmp_path, capsys, text, where):
        trace = tmp_path / "t.csv"
        trace.write_text(text)
        assert cli.main(["export-plots", "--trace", str(trace),
                         "--out", str(tmp_path / "p")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err


class TestEnvironmentDefaults:
    def test_seed_env_override(self, tmp_path, library_csv, monkeypatch, capsys):
        monkeypatch.setenv("KINOPLAN_SEED", "9")
        out = tmp_path / "env"
        assert cli.main(["plan", "--start", "0,0,0", "--goal", "10,0,0",
                         "--library", str(library_csv),
                         "--out", str(out)]) == EXIT_OK
        assert "seed = 9" in capsys.readouterr().out

    def test_explicit_flag_beats_env(self, tmp_path, library_csv, monkeypatch,
                                     capsys):
        monkeypatch.setenv("KINOPLAN_SEED", "9")
        out = tmp_path / "env2"
        assert cli.main(["plan", "--start", "0,0,0", "--goal", "10,0,0",
                         "--seed", "3", "--library", str(library_csv),
                         "--out", str(out)]) == EXIT_OK
        assert "seed = 3" in capsys.readouterr().out

    @pytest.mark.parametrize("var,value,message", [
        ("KINOPLAN_SEED", "abc", "argument --seed: invalid int value: 'abc'"),
        ("KINOPLAN_SEED", "-3", "argument --seed: expected a non-negative integer, got -3"),
        ("KINOPLAN_RUNS", "2.5", "argument --runs: invalid int value: '2.5'"),
        ("KINOPLAN_RUNS", "0", "argument --runs: expected a positive integer, got 0"),
        ("KINOPLAN_MODE", "gauss", "--mode must be one of gmm, random, both"),
    ])
    def test_bad_env_value(self, tmp_path, monkeypatch, capsys, var, value, message):
        monkeypatch.setenv(var, value)
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench-sampling", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestFlagValues:
    @pytest.mark.parametrize("argv,message", [
        (["bench-sampling", "--runs", "0"], "argument --runs: expected a positive integer, got 0"),
        (["bench-sampling", "--runs", "-2"], "argument --runs: expected a positive integer, got -2"),
        (["simulate", "--scenario", "cross", "--seed", "-3"],
         "argument --seed: expected a non-negative integer, got -3"),
        (["plan", "--seed", "-1"], "argument --seed: expected a non-negative integer, got -1"),
    ])
    def test_bad_count_flag(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_replan_timeout(self, tmp_path, monkeypatch, capsys, source, value):
        # nan and inf never replan (blocked seed 0 would sit until its time
        # limit); a negative timeout would replan at every perception tick.
        argv = ["simulate", "--scenario", "blocked", "--out", str(tmp_path)]
        if source == "flag":
            argv += [f"--replan-timeout={value}"]
        else:
            monkeypatch.setenv("KINOPLAN_REPLAN_TIMEOUT", value)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_ERROR
        assert (f"argument --replan-timeout: expected a positive finite number, got {value!r}"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_replan_timeout_from_env(self, monkeypatch):
        monkeypatch.setenv("KINOPLAN_REPLAN_TIMEOUT", "2.5")
        args = cli.build_parser().parse_args(["simulate", "--scenario", "blocked"])
        assert args.replan_timeout == 2.5


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
