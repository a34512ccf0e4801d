"""Dead code in ``src/kinoplan``: imports a module never uses, and private
module-level names that nothing in the package refers to.

Both checks read the source with ``ast``, so a name that only a docstring or a
comment mentions counts as unused.  A name counts as used where the code loads
it (``name``), reads it as an attribute (``module.name``) or imports it from
another module.  The package's ``__init__`` only re-exports, and
``from __future__`` imports are directives, so neither is checked.
"""

import ast
import re
from pathlib import Path

import kinoplan

SRC = Path(kinoplan.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}
DUNDER = re.compile(r"^__\w+__$")


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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """The module-level functions, classes and assigned names of ``tree``
    that start with one underscore, with their line numbers."""
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
            if name.startswith("_") and not DUNDER.match(name):
                names[name] = node.lineno
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


def test_the_checks_see_dead_code():
    """Each check flags a planted case and passes its used twin."""
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\n"
                     "_DEAD = 1\n_LIVE = 2\ndef _gone(): pass\n"
                     "def f():\n    '''_DEAD and tau, in a docstring only.'''\n"
                     "    return sys.argv, pi, _LIVE\n")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {n for n in _imported(tree) if n not in used} == {"os", "tau"}
    assert {n for n in _private_definitions(tree) if n not in _uses(tree)} == {"_DEAD", "_gone"}
