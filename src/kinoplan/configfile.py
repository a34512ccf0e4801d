"""kinoplan's text files: each is read by ``read_lines`` and written by
``write_lines``; an error in parsing a line, wrapped by ``at_line``, reads
``file:line: message``.  ``FIELD_RULES`` gives each name of a value that
enters from outside (a config or scenario field, a CLI flag, a library or
trace CSV cell) its one rule, which ``check`` applies in code, at a file's
line and to a flag."""

from __future__ import annotations

import dataclasses
import math
import typing
from contextlib import contextmanager
from functools import partial
from numbers import Integral


def _finite(value) -> bool:
    """``value`` (a Pose's x, y, theta, a tuple or a number) holds numbers, all finite."""
    nums = ((value.x, value.y, value.theta) if hasattr(value, "theta")
            else value if isinstance(value, tuple) else (value,))
    return len(nums) > 0 and all(math.isfinite(v) for v in nums)


# What each value must be: (rule, its test, the names it governs).  A name has
# one rule wherever it appears: a config field, a flag or a CSV column.
_RULES = (
    ("positive and finite", lambda v: 0.0 < v < math.inf,
     "v_max a_max horizon sim_dt perception_dt time_limit goal_pos_tol goal_heading_tol "
     "kappa_max max_arc_length"),
    ("finite and non-negative", lambda v: 0.0 <= v < math.inf, "obs_noise"),
    ("in [0, 1]", lambda v: 0.0 <= v <= 1.0, "p_th goal_bias"),
    ("an integer >= 1", lambda v: isinstance(v, Integral) and v >= 1,
     "max_iterations n_r n_beta runs"),
    ("a non-negative integer", lambda v: isinstance(v, Integral) and v >= 0, "rng_seed seed"),
    ("finite", _finite,
     "start goal r_min r_max beta_min beta_max dtheta_factors r beta dx dy dtheta "
     "t x y theta v a obs_x obs_y"),
    ("finite xmin ymin xmax ymax with xmin < xmax and ymin < ymax",
     lambda v: v is not None and len(v) == 4 and _finite(v) and v[0] < v[2] and v[1] < v[3],
     "bounds world_bounds"),
)
FIELD_RULES = {name: (rule, test) for rule, test, names in _RULES for name in names.split()}


def check(name: str, value) -> None:
    """Raise ValueError ``<name> must be <rule>, got <value>`` unless ``value``
    keeps the rule of field ``name``; a name with no rule passes."""
    if name in FIELD_RULES:
        rule, test = FIELD_RULES[name]
        if not test(value):
            raise ValueError(f"{name} must be {rule}, got {value}")


def check_fields(obj) -> None:
    """``check`` each field of the dataclass ``obj``; one that defaults to None may be None."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            check(f.name, value)


def read_lines(path, sep=None, comment="#"):
    """Yield ``(lineno, fields)`` per non-blank line of ``path``: text from
    ``comment`` on dropped (unless None), split on ``sep`` (whitespace when
    None), each field stripped."""
    with at_line(path), open(path) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.split("\n"), 1):
        line = (line.split(comment, 1)[0] if comment else line).strip()
        if line:
            yield lineno, [f.strip() for f in line.split(sep)] if sep else line.split()


def write_lines(path, lines) -> None:
    """Write ``lines`` to ``path``, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@contextmanager
def at_line(path, lineno=None):
    """Re-raise a ValueError or IndexError as a ValueError prefixed
    ``path:lineno:``, or ``path:`` when no line is at fault."""
    try:
        yield
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}{'' if lineno is None else f':{lineno}'}: {exc}") from None


def cast(tp, tokens):
    """The value of type hint ``tp`` written as ``tokens``: one token for int,
    float or str; any number of floats for any other hint (a tuple)."""
    if tp not in (int, float, str):
        return tuple(float(t) for t in tokens)
    if len(tokens) != 1:
        raise ValueError(f"expected one value, got {len(tokens)}")
    return tp(tokens[0])


def parse_field(readers, key, tokens):
    """``readers[key](tokens)``, naming ``key`` in any error, and ``check``ed."""
    if key not in readers:
        raise ValueError(f"unknown key {key!r}")
    try:
        value = readers[key](tokens)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{key}: {exc}") from None
    check(key, value)
    return value


def load_config(cls, path):
    """Build the dataclass ``cls`` from the ``key = value`` lines of ``path``.

    ``#`` starts a comment.  Each value is cast by its field's type
    (``cast``) and checked by its rule (``parse_field``).  A line without one
    ``=``, an unknown key, a key already set on an earlier line or a value
    that does not cast or breaks its rule raises ValueError naming
    ``file:line``; values that the dataclass rejects together raise
    ValueError naming the file.
    """
    readers = {name: partial(cast, tp) for name, tp in typing.get_type_hints(cls).items()}
    kwargs, lines = {}, {}
    for lineno, fields in read_lines(path, sep="="):
        with at_line(path, lineno):
            if len(fields) != 2:
                raise ValueError("expected 'key = value'")
            key = fields[0]
            if key in lines:
                raise ValueError(f"{key} already set on line {lines[key]}")
            kwargs[key] = parse_field(readers, key, fields[1].split())
            lines[key] = lineno
    with at_line(path):
        return cls(**kwargs)
