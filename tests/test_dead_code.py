"""Dead code in ``src/kinoplan``: imports a module never uses, private
module-level names that nothing in the package refers to, public ones that no
program refers to, and config fields that no program sets.

The checks read the source with ``ast``, so a name that only a docstring or a
comment mentions counts as unused.  A name counts as used where the code loads
it (``name``), reads it as an attribute (``module.name``) or imports it from
another module.  The package's ``__init__`` only re-exports, and
``from __future__`` imports are directives, so neither is checked.

A public module-level name is dead when no code in ``src/`` (outside the
package's ``__init__``, whose re-export is not a use), ``perfbench/`` or
``tools/`` refers to it: only the tests would run it, so it is a second path
beside the one the program takes.  ``UNREFERENCED_BY_DESIGN`` names the
exceptions, each with its reason.

A public method is dead when no code in ``src/``, ``perfbench/`` or
``tools/`` reads its name, bar ``METHODS_KEPT_BY_DESIGN``.  A method that
overrides one of a base class from outside the package counts as read: that
class's own code calls it (argparse calls ``ArgumentParser.error``).

A parameter with a default, of a function or method of ``src/kinoplan``, is a
dead knob when no call in ``src/``, ``perfbench/`` or ``tools/`` to a name it
goes by passes it, by position or by keyword: every program run takes the
default, so it belongs in a module constant.  ``PARAMETERS_KEPT_BY_DESIGN``
names the exceptions, each with its reason.

A field of ``PlannerConfig`` or ``TemporalConfig`` is a dead knob when no call
in ``src/``, ``perfbench/`` or ``tools/`` passes it by keyword, to the class or
to ``dataclasses.replace``: only a config file or a test could set it, so it
belongs in a module constant.  ``LibraryConfig`` and ``Scenario`` are the
schemas of saved files, so they are not checked.

Each flag a CLI subcommand adds is a dead knob when the command function that
``set_defaults(func=...)`` names never reads it as ``args.<dest>``; printing
the whole namespace does not count as a read.  No code in ``src/kinoplan``
reads the environment (``os.environ``, ``os.getenv``): a value the program
uses comes from its flag, config file or scenario file.

Every field of the four config classes has a rule in
``configfile.FIELD_RULES``, so a new field cannot skip validation; a field
whose own type checks it is exempt.  Every rule governs a name: a config
field, a name that ``src/`` passes to ``check`` as a literal (directly, or
to a function that passes its first parameter on to ``check``), a field of a
class whose ``__post_init__`` is or calls ``check_fields``, or a number column
of the trace CSV, which ``TraceLog.from_csv`` checks cell by cell.
"""

import ast
import math
import pydoc
import re
from pathlib import Path

import kinoplan
from kinoplan.configfile import FIELD_RULES
from kinoplan.simulator import _trace_header

SRC = Path(kinoplan.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
PROGRAM_FILES = {path: ast.parse(path.read_text(), str(path))
                 for folder in ("src", "perfbench", "tools")
                 for path in sorted((ROOT / folder).rglob("*.py"))}
PROGRAMS = list(PROGRAM_FILES.values())
KNOBS = {"rrt": "PlannerConfig", "temporal": "TemporalConfig"}  # module: config class
CONFIGS = {**KNOBS, "geometry": "LibraryConfig", "scenarios": "Scenario"}
CHECKED_BY_TYPE = {"name", "robot", "static_obstacles", "moving"}
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}
DUNDER = re.compile(r"^__\w+__$")
UNREFERENCED_BY_DESIGN = {
    "heading_change": "the quadrature tests compare the Simpson headings against "
                      "its closed form",
    "save_scenario": "it writes the scenario schema, and the tests round-trip every "
                     "built-in world through it",
}
METHODS_KEPT_BY_DESIGN = {
    "TimingProblem.objective": "the SLSQP comparison tests minimise it",
}
PARAMETERS_KEPT_BY_DESIGN = {
    "main(argv)": "the console entry point calls it with no arguments",
    "circles_hit_obstacle(margin)": "the function exists only for perfbench's span patch, "
                                    "and ROADMAP item 3 deletes it",
}


def _uses(tree: ast.AST) -> set[str]:
    """Every name ``tree`` loads, reads as an attribute or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the imports of ``tree`` bind, with their line numbers."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _definitions(tree: ast.Module) -> dict[str, int]:
    """The module-level functions, classes and assigned names of ``tree``,
    dunders aside, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not DUNDER.match(name):
                names[name] = node.lineno
    return names


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """The names of ``_definitions`` that start with an underscore."""
    return {name: line for name, line in _definitions(tree).items() if name.startswith("_")}


def _dead_public(modules: dict[str, ast.Module], users) -> list[str]:
    """``module.py:line: name`` of each public name that ``modules`` (but
    ``__init__``) define and no tree of ``users`` refers to, bar
    ``UNREFERENCED_BY_DESIGN``."""
    used = set().union(*(_uses(tree) for tree in users))
    return [f"{module}.py:{line}: {name}" for module, tree in modules.items()
            if module != "__init__" for name, line in _definitions(tree).items()
            if not name.startswith("_") and name not in used
            and name not in UNREFERENCED_BY_DESIGN]


def _outside_base_names(tree: ast.Module, cls: ast.ClassDef) -> set[str]:
    """The attribute names of the bases of ``cls`` that come from outside the
    package: a builtin, or a name an absolute import of ``tree`` binds."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    names = set()
    for base in cls.bases:
        head, dot, rest = ast.unparse(base).partition(".")
        found = pydoc.locate(imported.get(head, head) + dot + rest)
        if isinstance(found, type):
            names.update(dir(found))
    return names


def _dead_methods(modules: dict[str, ast.Module], users) -> list[str]:
    """``module.py:line: Class.method`` of each public method of the classes
    of ``modules`` whose name no tree of ``users`` reads and that overrides no
    method of a base from outside the package, bar ``METHODS_KEPT_BY_DESIGN``."""
    used = set().union(*(_uses(tree) for tree in users))
    return [f"{module}.py:{item.lineno}: {node.name}.{item.name}"
            for module, tree in modules.items() for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            and item.name not in used | _outside_base_names(tree, node)
            and f"{node.name}.{item.name}" not in METHODS_KEPT_BY_DESIGN]


def _defaulted(tree: ast.Module):
    """``(name, parameter, position, line)`` of each parameter with a default
    of the module-level functions and methods of ``tree``.  A method goes by
    its own name, ``__init__`` by its class's; ``position`` counts the
    arguments a call passes (``self`` and ``cls`` aside), and is None for a
    keyword-only parameter."""
    functions = [(node, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [(item, cls.name if item.name == "__init__" else item.name,
                       0 if any(getattr(d, "id", None) == "staticmethod"
                                for d in item.decorator_list) else 1)
                      for item in cls.body if isinstance(item, ast.FunctionDef)]
    found = []
    for fn, name, skip in functions:
        positional = (fn.args.posonlyargs + fn.args.args)[skip:]
        first = len(positional) - len(fn.args.defaults)
        found += [(name, arg.arg, i, fn.lineno)
                  for i, arg in enumerate(positional) if i >= first]
        found += [(name, arg.arg, None, fn.lineno)
                  for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default]
    return found


def _dead_parameters(modules: dict[str, ast.Module], callers) -> list[str]:
    """``module.py:line: name(parameter)`` of each parameter of
    ``_defaulted`` that no call in ``callers`` passes, bar
    ``PARAMETERS_KEPT_BY_DESIGN``.  A call passes the parameters at the
    positions it fills (all of them after a ``*args``) and those it names (all
    of them after a ``**kwargs``)."""
    positions, keywords = {}, {}
    for tree in callers:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = _callee(call)
                filled = math.inf if any(isinstance(a, ast.Starred) for a in call.args) \
                    else len(call.args)
                positions[name] = max(positions.get(name, 0), filled)
                keywords.setdefault(name, set()).update(kw.arg for kw in call.keywords)
    dead = []
    for module, tree in modules.items():
        for name, param, i, line in _defaulted(tree):
            passed = keywords.get(name, set())
            if not ((i is not None and positions.get(name, 0) > i) or param in passed
                    or None in passed or f"{name}({param})" in PARAMETERS_KEPT_BY_DESIGN):
                dead.append(f"{module}.py:{line}: {name}({param})")
    return dead


def _unread_flags(tree: ast.Module) -> list[str]:
    """``subcommand --flag`` of each flag that ``build_parser`` in ``tree``
    adds to a subcommand, directly or through a helper it defines and calls,
    and that the command function ``set_defaults(func=...)`` names never
    reads as an attribute of its first parameter."""
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_parser")
    helpers = {fn.name: _calls(fn, "add_argument")
               for fn in build.body if isinstance(fn, ast.FunctionDef)}
    added, funcs, command = {}, {}, None
    for stmt in build.body:
        if isinstance(stmt, ast.FunctionDef):
            continue
        for call in (node for node in ast.walk(stmt) if isinstance(node, ast.Call)):
            name = _callee(call)
            if name == "add_parser":
                command = call.args[0].value
                added[command] = []
            elif name == "set_defaults":
                funcs[command] = next(kw.value.id for kw in call.keywords if kw.arg == "func")
            elif command is not None and (name == "add_argument" or name in helpers):
                added[command] += [call] if name == "add_argument" else helpers[name]
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    unread = []
    for command, calls in added.items():
        fn = functions[funcs[command]]
        param = fn.args.args[0].arg
        read = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == param}
        for call in calls:
            flag = call.args[0].value
            dest = next((kw.value.value for kw in call.keywords if kw.arg == "dest"),
                        flag.lstrip("-").replace("-", "_"))
            if dest not in read:
                unread.append(f"{command} {flag}")
    return unread


def _environment_reads(modules: dict[str, ast.Module]) -> list[str]:
    """``module.py:line: name`` of each ``environ`` or ``getenv`` that
    ``modules`` read, as an attribute or as an imported name."""
    reads = []
    for module, tree in modules.items():
        found = {(node.lineno, node.attr if isinstance(node, ast.Attribute) else node.id)
                 for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
        reads += [f"{module}.py:{line}: {name}" for line, name in sorted(found)
                  if name in ("environ", "getenv")]
    return reads


def _fields(tree: ast.Module, cls: str) -> list[str]:
    """The annotated fields of class ``cls`` in ``tree``."""
    body = next(node.body for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == cls)
    return [node.target.id for node in body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _keywords_set(trees, classes) -> set[str]:
    """The keywords that calls in ``trees`` pass to one of ``classes`` or to
    ``replace``, by name or as an attribute."""
    names = set(classes) | {"replace"}
    set_ = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    set_.update(kw.arg for kw in node.keywords if kw.arg)
    return set_


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) == name]


def _checks_its_fields(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` sets ``__post_init__ = check_fields`` or calls
    ``check_fields`` in its ``__post_init__``."""
    for item in cls.body:
        if isinstance(item, ast.Assign) and any(
                getattr(t, "id", None) == "__post_init__" for t in item.targets):
            return getattr(item.value, "id", None) == "check_fields"
        if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
            return bool(_calls(item, "check_fields"))
    return False


def _checked_names(trees) -> set[str]:
    """The names ``check`` governs in ``trees``: each string literal passed
    first to ``check`` or to a function that passes its first parameter on to
    ``check``, and each field of a class that ``_checks_its_fields``."""
    trees = list(trees)
    checkers = {"check"} | {
        fn.name for tree in trees for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.args.args
        and any(call.args and getattr(call.args[0], "id", None) == fn.args.args[0].arg
                for call in _calls(fn, "check"))}
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) in checkers and node.args \
                    and isinstance(node.args[0], ast.Constant):
                names.add(node.args[0].value)
            elif isinstance(node, ast.ClassDef) and _checks_its_fields(node):
                names.update(item.target.id for item in node.body
                             if isinstance(item, ast.AnnAssign))
    return names


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}.py:{line}: {name}" for name, line in _imported(tree).items()
                   if name not in used]
    assert not unused, "imported and never used:\n" + "\n".join(unused)


def test_every_private_name_is_referenced():
    used = set().union(*(_uses(tree) for tree in MODULES.values()))
    dead = [f"{module}.py:{line}: {name}" for module, tree in MODULES.items()
            for name, line in _private_definitions(tree).items() if name not in used]
    assert not dead, "defined and never referenced in src/kinoplan:\n" + "\n".join(dead)


def test_every_public_name_is_referenced_by_a_program():
    users = [tree for path, tree in PROGRAM_FILES.items() if path != SRC / "__init__.py"]
    dead = _dead_public(MODULES, users)
    assert not dead, ("defined and never referenced in src/, perfbench/ or tools/ "
                      "(delete it, or call the code the program runs):\n" + "\n".join(dead))


def test_the_checks_see_dead_code():
    """Each check flags a planted case and passes its used twin."""
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\n"
                     "_DEAD = 1\n_LIVE = 2\ndef _gone(): pass\n"
                     "def f():\n    '''_DEAD and tau, in a docstring only.'''\n"
                     "    return sys.argv, pi, _LIVE\n")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {n for n in _imported(tree) if n not in used} == {"os", "tau"}
    assert {n for n in _private_definitions(tree) if n not in _uses(tree)} == {"_DEAD", "_gone"}


def test_the_public_check_sees_dead_code():
    """Imported, called as an attribute, used only by its own module, kept by
    design, re-exported only, and unreferenced: the last two are dead."""
    module = ast.parse("def imported(): pass\ndef attribute(): pass\nHELPER = 1\n"
                       "def own(): return HELPER\ndef heading_change(): pass\n"
                       "class Exported: pass\nDEAD = 2\n_PRIVATE = 3\n")
    init = ast.parse("from .m import Exported, imported\n")
    user = ast.parse("from kinoplan.m import imported\nm.attribute()\nm.own()\n")
    assert _dead_public({"m": module, "__init__": init}, [module, user]) == [
        "m.py:6: Exported", "m.py:7: DEAD"]


def test_every_public_method_is_read_by_a_program():
    users = [tree for path, tree in PROGRAM_FILES.items() if path != SRC / "__init__.py"]
    dead = _dead_methods(MODULES, users)
    assert not dead, ("methods whose name no code in src/, perfbench/ or tools/ reads "
                      "(delete them):\n" + "\n".join(dead))


def test_the_method_check_sees_a_dead_method():
    """Called, read as a property, private, kept by design, and unread: the
    last is dead."""
    module = ast.parse("class TimingProblem:\n    def called(self): pass\n"
                       "    def read(self): pass\n    def _private(self): pass\n"
                       "    def objective(self): pass\n    def unread(self): pass\n")
    user = ast.parse("p.called()\nx = p.read\n")
    assert _dead_methods({"m": module}, [user]) == ["m.py:6: TimingProblem.unread"]


def test_the_method_check_counts_an_outside_override():
    """A method that overrides one of a base from outside the package, named
    by module or imported by name, is read by that base; the same name on a
    class with no such base, or on one whose base is in the package, is not."""
    module = ast.parse("import argparse\nfrom argparse import ArgumentParser as AP\n"
                       "from .m import Base\n"
                       "class P(argparse.ArgumentParser):\n    def error(self, m): pass\n"
                       "    def unread(self): pass\n"
                       "class Q(AP):\n    def error(self, m): pass\n"
                       "class R(Base):\n    def error(self, m): pass\n"
                       "class E(ValueError):\n    def with_traceback(self, tb): pass\n"
                       "class S:\n    def error(self): pass\n")
    assert _dead_methods({"m": module}, []) == [
        "m.py:6: P.unread", "m.py:10: R.error", "m.py:14: S.error"]


def test_every_flag_is_read_by_its_command():
    unread = _unread_flags(MODULES["cli"])
    assert not unread, ("flags that their command function never reads "
                        "(delete them):\n" + "\n".join(unread))


def test_the_flag_check_sees_an_unread_flag():
    """Flags added directly, through a helper and with ``dest``, read by the
    command or only printed: the printed one and the one no function reads
    are dead, and a read in another command does not count."""
    tree = ast.parse(
        "def show(args):\n    print(args.quiet)\n"
        "def cmd_a(args):\n    show(args)\n    return args.out, args.seed\n"
        "def cmd_b(ns):\n    return ns.level, ns.out\n"
        "def build_parser():\n"
        "    sub = Parser().add_subparsers()\n"
        "    def common(p):\n        p.add_argument('--out')\n"
        "    p = sub.add_parser('a')\n    common(p)\n"
        "    p.add_argument('--seed')\n    p.add_argument('--quiet')\n"
        "    p.set_defaults(func=cmd_a)\n"
        "    p = sub.add_parser('b')\n    common(p)\n"
        "    p.add_argument('--log-level', dest='level')\n    p.add_argument('--seed')\n"
        "    p.set_defaults(func=cmd_b)\n"
        "    return sub\n")
    assert _unread_flags(tree) == ["a --quiet", "b --seed"]


def test_no_code_reads_the_environment():
    reads = _environment_reads(MODULES)
    assert not reads, ("environment reads in src/kinoplan (take the value from a flag "
                       "or a file):\n" + "\n".join(reads))


def test_the_environment_check_sees_a_read():
    """``os.environ``, ``os.getenv`` and an imported ``environ`` are reads;
    ``os.path`` and the import itself are not."""
    tree = ast.parse("import os\nfrom os import environ\nos.path.join('a')\n"
                     "a = os.environ.get('A')\nb = os.getenv('B')\nc = environ['C']\n")
    assert _environment_reads({"m": tree}) == [
        "m.py:4: environ", "m.py:5: getenv", "m.py:6: environ"]


def test_every_parameter_with_a_default_is_passed_by_a_program():
    dead = _dead_parameters(MODULES, PROGRAMS)
    assert not dead, ("parameters that no call in src/, perfbench/ or tools/ passes "
                      "(make them module constants):\n" + "\n".join(dead))


def test_the_parameter_check_sees_a_dead_knob():
    """Passed by position (``b``, ``x``: ``self`` is not counted), by keyword
    (``d``, ``z``), through ``*args`` (``g``) or ``**kwargs`` (``h``), and kept
    by design (``main``); ``c``, ``e``, ``y`` and the staticmethod's ``w``,
    which no call passes, are dead."""
    module = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(a=1): pass\n"
        "def h(a=1): pass\n"
        "def main(argv=None): pass\n"
        "class C:\n    def __init__(self, x=0, y=0): pass\n"
        "    def m(self, z=0): pass\n"
        "    @staticmethod\n    def s(w=0): pass\n")
    user = ast.parse("f(0, 1, d=2)\ng(*args)\nh(**kw)\nC(1)\nobj.m(z=1)\nC.s()\n")
    assert _dead_parameters({"m": module}, [user]) == [
        "m.py:1: f(c)", "m.py:1: f(e)", "m.py:6: C(y)", "m.py:9: s(w)"]


def test_every_config_field_is_set_by_a_program():
    set_ = _keywords_set(PROGRAMS, KNOBS.values())
    dead = [f"{cls}.{name}" for module, cls in KNOBS.items()
            for name in _fields(MODULES[module], cls) if name not in set_]
    assert not dead, ("config fields that no call in src/, perfbench/ or tools/ sets "
                      "(make them module constants):\n" + "\n".join(dead))


def test_the_knob_check_sees_a_dead_knob():
    """A field set only through ``replace``, one set by the constructor and
    one set nowhere; another class's keywords do not count."""
    tree = ast.parse("class Cfg:\n    a: int = 0\n    b: int = 1\n    c: int = 2\n"
                     "x = dataclasses.replace(Cfg(b=2), a=1)\nOther(c=3)\n")
    assert [f for f in _fields(tree, "Cfg") if f not in _keywords_set([tree], ["Cfg"])] == ["c"]


def test_every_config_field_has_a_rule():
    names = {f"{cls}.{name}": name for module, cls in CONFIGS.items()
             for name in _fields(MODULES[module], cls) if name not in CHECKED_BY_TYPE}
    unruled = [field for field, name in names.items() if name not in FIELD_RULES]
    assert not unruled, "config fields with no rule in configfile.FIELD_RULES:\n" + "\n".join(
        unruled)
    columns = set(_trace_header(1)) - {"flag", "obs_id"}
    governed = set(names.values()) | _checked_names(MODULES.values()) | columns
    idle = sorted(set(FIELD_RULES) - governed)
    assert not idle, "rules in configfile.FIELD_RULES that govern no name:\n" + "\n".join(idle)


def test_the_rule_check_sees_an_idle_rule():
    """Literals passed to ``check`` directly or through a function that
    forwards its first parameter, and the fields of classes that check their
    fields, are governed; a literal in another parameter, and the fields of a
    class that does not check them, are not."""
    tree = ast.parse(
        "check('direct', 1)\n"
        "def flag(name, tp):\n    def read(text):\n        check(name, tp(text))\n"
        "    return read\n"
        "flag('forwarded', int)\n"
        "def other(value, name):\n    check(name, value)\n"
        "other(3, 'missed')\n"
        "class Row:\n    cell: float\n    __post_init__ = check_fields\n"
        "class Cfg:\n    knob: float\n    def __post_init__(self):\n"
        "        configfile.check_fields(self)\n"
        "class Loose:\n    loose: float\n    def __post_init__(self):\n        pass\n")
    assert _checked_names([tree]) == {"direct", "forwarded", "cell", "knob"}
