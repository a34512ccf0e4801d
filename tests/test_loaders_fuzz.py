"""Every input-file loader, fed mutated copies of valid files.

A mutation deletes or duplicates a line, drops a field, or replaces a token
with junk, ``nan`` or nothing.  The only allowed outcomes are success or a
ValueError whose message begins with the file's path, followed by a line
number of the file where one line is at fault, and says what is wrong in the
file's terms: a message from deep inside the arithmetic, such as ``math
domain error`` or ``cannot convert float NaN to integer``, fails.
"""

import re
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinoplan.geometry import CurveLibrary, LibraryConfig, build_curve_library
from kinoplan.rrt import PlannerConfig
from kinoplan.scenarios import get_scenario, load_scenario, save_scenario
from kinoplan.simulator import TraceLog

JUNK = ["", "nan", "-nan", "inf", "-1", "0", "2.5", "1e999", "x", "#", ",", "="]
SEPARATORS = re.compile(r"([\s,=]+)")
INTERNAL = re.compile(r"(math domain error|cannot convert float .*)$")


def _config_text(cfg) -> str:
    """``cfg`` as ``key = value`` lines, a tuple's values space-separated."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        lines.append(f"{f.name} = " + (" ".join(map(str, value))
                                       if isinstance(value, tuple) else str(value)))
    return "\n".join(lines) + "\n"


def _library_config_text(tmp) -> None:
    cfg = LibraryConfig(r_min=1.5, r_max=3.0, n_r=2, beta_min=-0.3, beta_max=0.3, n_beta=3)
    tmp.write_text("# a small grid\n" + _config_text(cfg))


def _planner_config_text(tmp) -> None:
    tmp.write_text(_config_text(PlannerConfig(world_bounds=(-1.0, -2.0, 30.0, 12.5),
                                              max_iterations=300)))


def _scenario(tmp) -> None:
    save_scenario(get_scenario("bypass"), tmp)
    tmp.write_text(tmp.read_text() + "disk 3 4 1\npolygon 0 5 1 5 1 6\n")


def _library(tmp) -> None:
    config = LibraryConfig(r_min=1.5, r_max=3.0, n_r=2, beta_min=-0.3, beta_max=0.3, n_beta=3)
    build_curve_library(config).save_csv(tmp)


def _trace(tmp) -> None:
    trace = TraceLog(obstacle_ids=[0, 4], obstacle_poses={0: [], 4: []})
    for k in range(4):
        trace.times.append(0.1 * k)
        trace.poses.append((0.5 * k, 0.1, 0.0))
        trace.velocities.append(1.0)
        trace.accelerations.append(0.0)
        trace.flags.append("executing")
        trace.obstacle_poses[0].append((5.0, -k, 0.0))
        trace.obstacle_poses[4].append((k, 3.0, 0.0))
    trace.to_csv(tmp)


LOADERS = {
    "planner-config": (_planner_config_text, PlannerConfig.from_file),
    "library-config": (_library_config_text, LibraryConfig.from_file),
    "scenario": (_scenario, load_scenario),
    "library-csv": (_library, CurveLibrary.load_csv),
    "trace-csv": (_trace, TraceLog.from_csv),
}


# One mutation: (what, line, token, junk); line and token wrap around the file.
MUTATIONS = st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "drop-field", "replace"]),
                               st.integers(0, 99), st.integers(0, 99), st.sampled_from(JUNK)),
                     min_size=1, max_size=3)


def mutate(lines, mutations):
    lines = list(lines)
    for op, i, k, junk in mutations:
        if not lines:
            break
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            parts = SEPARATORS.split(lines[i])  # tokens at even indices
            k = 2 * (k % (len(parts) // 2 + 1))
            if op == "drop-field":
                del parts[max(k - 1, 0):k + 1]
            else:
                parts[k] = junk
            lines[i] = "".join(parts)
    return lines


@pytest.fixture(scope="module", params=sorted(LOADERS))
def valid_file(request, tmp_path_factory):
    write, load = LOADERS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "input.txt"
    write(path)
    load(path)  # the unmutated file loads
    return path, path.read_text().splitlines(), load


@given(mutations=MUTATIONS)
@example(mutations=[("replace", 1, 3, "inf")])  # the scenario's start heading
@settings(max_examples=250, deadline=None, derandomize=True)
def test_mutated_file_loads_or_names_file_and_line(valid_file, mutations):
    path, lines, load = valid_file
    mutated = mutate(lines, mutations)
    path.write_text("\n".join(mutated) + "\n")
    try:
        load(path)
    except ValueError as exc:
        match = re.match(rf"{re.escape(str(path))}(?::(\d+))?: \S", str(exc))
        assert match, str(exc)
        assert not INTERNAL.search(str(exc)), str(exc)
        if match.group(1):
            assert 1 <= int(match.group(1)) <= max(len(mutated), 1), str(exc)
