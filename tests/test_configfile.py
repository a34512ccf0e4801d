"""The field rules of ``configfile.FIELD_RULES``: one rule per field name,
applied by every config class and scenario and at the line of a file."""

import math
import re
from dataclasses import fields, replace

import pytest

from kinoplan.configfile import FIELD_RULES, check
from kinoplan.geometry import LibraryConfig, Pose
from kinoplan.rrt import PlannerConfig
from kinoplan.scenarios import get_scenario
from kinoplan.temporal import TemporalConfig

CONFIGS = [PlannerConfig(), TemporalConfig(), LibraryConfig(), get_scenario("cross")]
CHECKED_BY_TYPE = {"name", "robot", "static_obstacles", "moving"}
NUMERIC = [(cfg, f.name) for cfg in CONFIGS for f in fields(cfg)
           if f.name not in CHECKED_BY_TYPE]


def _with_first(value, number):
    """``value`` with its first number (a Pose's x, a tuple's first entry)
    replaced by ``number``."""
    if isinstance(value, Pose):
        return Pose(number, value.y, value.theta)
    return (number, *value[1:]) if isinstance(value, tuple) else number


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cfg,name", NUMERIC,
                         ids=[f"{type(cfg).__name__}.{name}" for cfg, name in NUMERIC])
def test_non_finite_value_is_refused(cfg, name, number):
    value = getattr(cfg, name)
    if value is None:  # world_bounds
        value = (0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        replace(cfg, **{name: _with_first(value, number)})


@pytest.mark.parametrize("name,good,bad", [
    ("v_max", 1e-9, 0.0),
    ("obs_noise", 0.0, -1e-9),
    ("p_th", 1.0, 1.0 + 1e-9),
    ("goal_bias", 0.0, -1e-9),
    ("max_iterations", 1, 0),
    ("max_iterations", 2, 2.0),
    ("rng_seed", 0, -1),
    ("dtheta_factors", (2.0,), ()),
    ("bounds", (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0, 2.0)),
    ("world_bounds", (0.0, 0.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0)),
])
def test_rule_edges(name, good, bad):
    check(name, good)
    rule = re.escape(FIELD_RULES[name][0])
    with pytest.raises(ValueError, match=rf"^{name} must be {rule}, got "):
        check(name, bad)


def test_a_name_with_no_rule_passes():
    check("name", None)


def test_world_bounds_may_be_none_but_bounds_may_not():
    assert PlannerConfig(world_bounds=None).world_bounds is None
    with pytest.raises(ValueError, match="^bounds must be"):
        replace(get_scenario("cross"), bounds=None)
