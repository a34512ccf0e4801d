"""The benchmark's trace mode still finds every kinoplan function it wraps.

``perfbench/run.py --trace 1`` wraps kinoplan functions by name, and
``Tracer.patch`` raises LookupError for a name no kinoplan module binds, so a
rename or deletion in ``src/`` would break that mode.  This test imports the
benchmark's modules and leaves its files alone.
"""

import sys
from pathlib import Path

from kinoplan import collision

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_mode_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "kinoplan" or name.startswith("kinoplan."))]
    before = [dict(vars(m)) for m in modules]
    curve_check = collision.curve_in_collision
    t = tracer.Tracer()
    try:
        layers.instrument(t)
        assert collision.curve_in_collision is not curve_check
    finally:
        t.restore()
    for mod, names in zip(modules, before):
        assert all(getattr(mod, k) is v for k, v in names.items()), mod.__name__
