"""Typed ``key = value`` configuration files for the config dataclasses."""

from __future__ import annotations

import typing


def load_config(cls, path):
    """Build the dataclass ``cls`` from the ``key = value`` lines of ``path``.

    ``#`` starts a comment.  Each value is cast by its field's type: int,
    float, or, for a tuple field, space-separated floats.  A line without
    ``=``, an unknown key or a value that does not cast raises ValueError
    naming ``file:line``; a value the dataclass itself rejects raises
    ValueError naming the file.
    """
    types = typing.get_type_hints(cls)
    kwargs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if types[key] in (int, float):
                    kwargs[key] = types[key](val)
                else:
                    kwargs[key] = tuple(float(x) for x in val.split())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
