"""kinoplan's text files: each is read by ``read_lines`` and written by
``write_lines``; an error in parsing a line, wrapped by ``at_line``, reads
``file:line: message``."""

from __future__ import annotations

import typing
from contextlib import contextmanager
from functools import partial


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
    """``readers[key](tokens)``, naming ``key`` in any error."""
    if key not in readers:
        raise ValueError(f"unknown key {key!r}")
    try:
        return readers[key](tokens)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def load_config(cls, path):
    """Build the dataclass ``cls`` from the ``key = value`` lines of ``path``.

    ``#`` starts a comment.  Each value is cast by its field's type
    (``cast``).  A line without one ``=``, an unknown key, a key already set
    on an earlier line or a value that does not cast raises ValueError naming
    ``file:line``; a value the dataclass itself rejects raises ValueError
    naming the file.
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
