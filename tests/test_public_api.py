"""Every public function, class, method and property of the package is reached
by a CLI command or listed in the README's "Library-only API" section, with
its reason.

The scan parses the public modules of ``src/jumplab`` with ``ast``; private
modules (a leading underscore) and ``__init__`` are left out.  Its roots are
the statements at module level of these modules, ``cli.py``'s call of
``main`` among them.  From there it takes the closure over names: each
identifier and attribute name in a reached statement is reached, and a
definition (function, class or method, at any depth) whose name is reached
adds its body, decorators and defaults included.  Names are matched without
their module, so definitions that share a name are reached together: a name
collision can only make the closure reach more names, never fewer.

A public method or property of a public class is reached only when its name
is reached as an attribute (``obj.name``): a local variable of the same name
does not reach it.  Its closure also starts from the listed names, so a
method that only library-only code calls counts as reached.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumplab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if not path.stem.startswith("_")}


def _reached(modules: dict, roots=()) -> tuple:
    """(names, attributes): each name the closure reaches from the module
    statements and roots, and those of them it reaches as an attribute."""
    definitions = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                definitions.setdefault(node.name, []).append(node)
    attributes = set()

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                attributes.add(sub.attr)
                yield sub.attr

    todo = [name for tree in modules.values() for stmt in tree.body
            if not isinstance(stmt, DEFINITIONS) for name in names(stmt)]
    todo.extend(roots)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in definitions.get(name, ()):
                todo.extend(names(node))
    return reached, attributes


def _public_definitions(modules: dict) -> set:
    """(module, name) of each public top-level function and class, and
    (module, "Class.method") of each public method and property of those classes."""
    out = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_"):
                out.add((module, stmt.name))
                if isinstance(stmt, ast.ClassDef):
                    out.update((module, f"{stmt.name}.{sub.name}") for sub in stmt.body
                               if isinstance(sub, FUNCTIONS) and not sub.name.startswith("_"))
    return out


def _is_reached(name: str, reached: tuple) -> bool:
    names, attributes = reached
    cls, _, method = name.partition(".")
    return method in attributes if method else cls in names


def _library_only() -> list:
    """(module, name) of each line of the README's "Library-only API" section;
    a method is listed as ``module.Class.method``."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library-only API\n", 1)[1].split("\n## ", 1)[0]
    entry = r"^- `(\w+)\.(\w+(?:\.\w+)?)`:"
    return [tuple(m.groups()) for m in re.finditer(entry, section, re.M)]


MODULES = _modules()
LISTED = _library_only()
BY_COMMANDS = _reached(MODULES)
WITH_LISTED = _reached(MODULES, [n for _, name in LISTED for n in name.split(".")])


def test_the_closure_reaches_what_the_commands_run():
    assert "cli" in MODULES and "__init__" not in MODULES
    assert {"main", "run_scenario", "harnack_ensemble", "resolvent_convergence",
            "kernel_from_config", "assemble"} <= BY_COMMANDS[0]
    assert {"early_box", "late_box", "ralpha", "ks_matrix", "kernel"} <= BY_COMMANDS[1]


def test_every_public_name_no_command_reaches_is_listed():
    unreached = {(m, n) for m, n in _public_definitions(MODULES)
                 if not _is_reached(n, WITH_LISTED)}
    missing = sorted(unreached - set(LISTED))
    assert not missing, ("public, reached by no command and not in the README's "
                         f"Library-only API list: {missing}")


def test_a_method_is_reached_as_an_attribute_only():
    tree = ast.parse("class Box:\n    def D(self):\n        return 1\n\nD = Box()\n")
    reached = _reached({"box": tree})
    assert {"Box", "D"} <= reached[0] and "D" not in reached[1]
    assert ("box", "Box.D") in _public_definitions({"box": tree})
    assert not _is_reached("Box.D", reached) and _is_reached("Box", reached)


def test_every_listed_name_exists_and_no_command_reaches_it():
    assert LISTED and len(LISTED) == len(set(LISTED))
    unknown = sorted(set(LISTED) - _public_definitions(MODULES))
    assert not unknown, f"listed, but no public definition: {unknown}"
    reached = sorted((m, n) for m, n in LISTED if _is_reached(n, BY_COMMANDS))
    assert not reached, f"listed as library-only, but a command reaches them: {reached}"
