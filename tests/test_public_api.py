"""Every public function and class of the package is reached by a CLI command
or listed in the README's "Library-only API" section, with its reason.

The scan parses the public modules of ``src/jumplab`` with ``ast``; private
modules (a leading underscore) and ``__init__`` are left out.  Its roots are
the statements at module level of these modules, ``cli.py``'s call of
``main`` among them.  From there it takes the closure over names: each
identifier and attribute name in a reached statement is reached, and a
definition (function, class or method, at any depth) whose name is reached
adds its body, decorators and defaults included.  Names are matched without
their module, so definitions that share a name are reached together: a name
collision can only make the closure reach more names, never fewer.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumplab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if not path.stem.startswith("_")}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _reached(modules: dict) -> set:
    definitions = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                definitions.setdefault(node.name, []).append(node)
    todo = [name for tree in modules.values() for stmt in tree.body
            if not isinstance(stmt, DEFINITIONS) for name in _names(stmt)]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in definitions.get(name, ()):
                todo.extend(_names(node))
    return reached


def _public_definitions(modules: dict) -> set:
    """(module, name) of each public top-level function and class."""
    return {(module, stmt.name) for module, tree in modules.items() for stmt in tree.body
            if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_")}


def _library_only() -> list:
    """(module, name) of each line of the README's "Library-only API" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library-only API\n", 1)[1].split("\n## ", 1)[0]
    return [tuple(m.groups()) for m in re.finditer(r"^- `(\w+)\.(\w+)`:", section, re.M)]


MODULES = _modules()
REACHED = _reached(MODULES)


def test_the_closure_reaches_what_the_commands_run():
    assert "cli" in MODULES and "__init__" not in MODULES
    assert {"main", "run_scenario", "harnack_ensemble", "resolvent_convergence",
            "kernel_from_config", "assemble"} <= REACHED


def test_every_public_name_no_command_reaches_is_listed():
    unreached = {(m, n) for m, n in _public_definitions(MODULES) if n not in REACHED}
    missing = sorted(unreached - set(_library_only()))
    assert not missing, ("public, reached by no command and not in the README's "
                         f"Library-only API list: {missing}")


def test_every_listed_name_exists_and_no_command_reaches_it():
    listed = _library_only()
    assert listed and len(listed) == len(set(listed))
    unknown = sorted(set(listed) - _public_definitions(MODULES))
    assert not unknown, f"listed, but no public top-level definition: {unknown}"
    reached = sorted((m, n) for m, n in listed if n in REACHED)
    assert not reached, f"listed as library-only, but a command reaches them: {reached}"
