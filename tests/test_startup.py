"""Start-up cost: a command loads only the package modules it runs, scipy's
compiled routines load by file path on first use without any scipy package,
and configs are checked without jsonschema (which serves here as the oracle of
the check)."""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from _oracles import CountingLinalg
from hypothesis import given, settings, strategies as st

import jumplab
from jumplab import ParabolicProblem, resolvent_solve, solve_parabolic
from jumplab import _lapack
from jumplab import solve as solve_module
from jumplab._lazy import lazy_module
from jumplab.cli import _RUNNERS, SCHEMA, ConfigError, _check, _default_config, _validate

jsonschema = pytest.importorskip("jsonschema")

SRC = Path(jumplab.__file__).resolve().parent.parent
HEAVY = ("scipy.linalg._basic", "scipy._lib._array_api", "scipy.special._ufuncs")
LINALG = HEAVY[:2] + ("importlib.metadata",)   # what importing scipy.linalg loads
# the scipy modules a command may load: the compiled ones, by file path
BY_PATH = {"scipy.linalg._flapack", "scipy.special._special_ufuncs"}


def _falls_back(command):
    """Whether the command may import a scipy package through the fallback of
    _lapack on the installed scipy.  Of the README commands only mosco takes
    gamma (for its stable kernels), and an older scipy may lack gamma's
    compiled module."""
    return command == "mosco" and not isinstance(_lapack.gamma, np.ufunc)


_PROBE = """
import json, sys, types
import jumplab, jumplab.cli
from jumplab import solve
from jumplab.cli import main

heavy = {heavy!r}
seen = {{}}
for cmd in ("assemble", "algebra-tests"):
    assert main([cmd, "--out", sys.argv[1] + "/" + cmd]) == 0
seen["presets"] = [m for m in heavy + ("jsonschema",) if m in sys.modules]
seen["sla_loaded"] = type(solve.sla) is types.ModuleType
assert main(["harnack", "--ensemble", "1", "--out", sys.argv[1] + "/harnack"]) == 0
seen["harnack"] = [m for m in heavy + ("jsonschema",) if m in sys.modules]
seen["sla_is_module"] = solve.sla is sys.modules["jumplab._lapack"]
seen["flapack"] = "scipy.linalg._flapack" in sys.modules
seen["sla_loaded_after"] = type(solve.sla) is types.ModuleType
print(json.dumps(seen))
"""


def test_presets_run_without_scipy_linalg_special_or_jsonschema(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _PROBE.format(heavy=HEAVY), str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert seen["presets"] == [] and not seen["sla_loaded"]
    # harnack factors a matrix: scipy's LAPACK wrapper loads on that first
    # use, and the scipy.linalg package does not
    assert seen["harnack"] == []
    assert seen["sla_is_module"] and seen["sla_loaded_after"] and seen["flapack"]


_RAN = """
import json, sys, types
linalg = {linalg!r}
from jumplab.cli import main

try:
    code = main(sys.argv[1:])
except SystemExit as exc:       # --help
    code = exc.code
names = ("solve", "estimates", "assumptions", "mosco", "algebra")
print(json.dumps({{"code": code, "linalg": [m for m in linalg if m in sys.modules],
                  "ma": "numpy.ma" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
                  "ran": sorted(n for n in names
                                if type(sys.modules.get("jumplab." + n)) is types.ModuleType)}}))
"""

# the README command lines, ensembles cut to one member (the modules a command
# runs do not depend on it) -> the package modules the command runs, and
# whether it may import scipy's packages (scipy.linalg, and with it
# importlib.metadata): only check-kernel's eigh does; every other command
# loads scipy's compiled routines through _lapack, which imports no package
README_COMMANDS = [
    (["--help"], [], False),
    (["check-kernel", "--assumption", "K1"], ["assumptions"], True),
    (["harnack", "--ensemble", "1", "--seed", "7"], ["estimates", "solve"], False),
    (["hoelder", "--ensemble", "1"], ["estimates", "solve"], False),
    (["caccioppoli", "--ensemble", "1"], ["estimates", "solve"], False),
    (["algebra-tests"], ["algebra"], False),
    (["mosco", "--alphas", "1.5,1.8,1.9,1.95"], ["mosco", "solve"], False),
    (["assemble", "--dump-form", "form.csv"], [], False),
    (["solve"], ["solve"], False),
]


@pytest.mark.parametrize("argv, ran, linalg", README_COMMANDS,
                         ids=[argv[0] for argv, _, _ in README_COMMANDS])
def test_a_command_loads_only_the_modules_it_runs(argv, ran, linalg, tmp_path):
    out = [] if argv == ["--help"] else ["--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _RAN.format(linalg=LINALG), *argv, *out],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["code"] == 0 and seen["ran"] == ran
    if argv[0] in ("harnack", "hoelder", "caccioppoli"):
        # their medians skip np.median, whose nan check imports numpy.ma
        assert not seen["ma"]
    if not linalg and not _falls_back(argv[0]):
        assert seen["linalg"] == [] and set(seen["scipy"]) <= BY_PATH
        assert not {"scipy", "scipy.linalg", "scipy.special"} & set(seen["scipy"])
    if out:
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["env"]["scipy"] == scipy.__version__


def test_package_names_resolve_from_their_home_modules(monkeypatch):
    from jumplab import discretize

    assert jumplab.assemble is discretize.assemble and "assemble" in jumplab.__all__
    # no copy is kept in the package: a patch of the home module is what it returns
    monkeypatch.setattr(discretize, "assemble", len)
    assert jumplab.assemble is len and "assemble" not in vars(jumplab)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        jumplab.nope


def test_lazy_module_returns_an_imported_module_itself():
    assert lazy_module("json") is json
    assert lazy_module("jumplab._lapack") is sys.modules["jumplab._lapack"] is solve_module.sla
    # the getrs every step solves with is scipy's own f2py routine
    assert solve_module.sla.getrs is sys.modules["scipy.linalg._flapack"].dgetrs


def _five_steps(form):
    n = form.grid.n_nodes
    return ParabolicProblem(form, np.ones(n), 0.0, 0.05, 0.01, collar=0.5)


def test_patched_sla_sees_every_factorisation_and_solve(stable_form_1d, monkeypatch):
    # a form of its own: the fixture's shared system may hold factors of earlier tests
    form = replace(stable_form_1d)
    counting = CountingLinalg(solve_module.sla)
    monkeypatch.setattr(solve_module, "sla", counting)
    sol = solve_parabolic(_five_steps(form))
    assert counting.calls["lu_factor"] == 1
    # every step solves with the system's getrs; none misses, so none refines
    assert counting.calls["getrs"] == sol.meta["n_steps"] == 5
    assert counting.calls["lu_solve"] == 0
    resolvent_solve(form, 2.0, np.ones(form.grid.n_nodes))
    assert counting.calls["lu_factor"] == 2 and counting.calls["lu_solve"] >= 1
    assert counting.calls["getrs"] == 5


def test_patched_sla_sees_the_steps_on_a_form_factored_before(stable_form_1d, monkeypatch):
    # the form's system is factored before the patch; its steps still solve through solve.sla
    form = replace(stable_form_1d)
    plain = solve_parabolic(_five_steps(form))
    counting = CountingLinalg(solve_module.sla)
    monkeypatch.setattr(solve_module, "sla", counting)
    patched = solve_parabolic(_five_steps(form))
    assert counting.calls == {"lu_factor": 0, "lu_solve": 0, "getrs": 5}
    assert np.array_equal(patched.snapshots, plain.snapshots)
    assert np.array_equal(patched.residuals, plain.residuals)


def test_patched_sla_changes_no_bit(stable_form_1d, monkeypatch):
    # each run on a form of its own, so that the patched run factors and solves
    plain = solve_parabolic(_five_steps(replace(stable_form_1d)))
    counting = CountingLinalg(solve_module.sla)
    monkeypatch.setattr(solve_module, "sla", counting)
    patched = solve_parabolic(_five_steps(replace(stable_form_1d)))
    assert counting.calls["lu_factor"] == 1 and counting.calls["getrs"] == 5
    assert np.array_equal(patched.times, plain.times)
    assert np.array_equal(patched.snapshots, plain.snapshots)
    assert np.array_equal(patched.residuals, plain.residuals)


# --- the config check against jsonschema --------------------------------------

def _schema_nodes(schema, path=()):
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_nodes(sub, path + (key,))
    if "items" in schema:
        yield from _schema_nodes(schema["items"], path + (0,))


# the schema's own paths, and keys it does not know (additionalProperties)
SCHEMA_PATHS = [p for p, _ in _schema_nodes(SCHEMA) if p] + [
    ("kernels",), ("harness", "ensemlbe"), ("grid", "omega", "halfwidht"), ("problem", "D")]
ENUM_WORDS = sorted({e for _, s in _schema_nodes(SCHEMA) for e in s.get("enum", ())}
                    | {"inf", "", "Stable"})
EDGES = [0, 0.0, -0.0, 0.5, 0.4999999999999999, 1, 1.0, 1.5, 2, 2.0, 1.9999999999999998,
         3, -1, 1e-300, math.inf, -math.inf, math.nan, True, False, None, [], {},
         [1.0, 2], [True], ["a"], [1.9, 1.9], {"axis": [1.0]}]
VALUES = st.one_of(st.sampled_from(EDGES), st.sampled_from(ENUM_WORDS),
                   st.integers(-3, 6), st.floats(-3.0, 3.0),
                   st.lists(st.one_of(st.floats(-2, 2), st.booleans(), st.text(max_size=2)),
                            max_size=3))
MUTATIONS = st.lists(st.tuples(st.sampled_from(SCHEMA_PATHS),
                               st.one_of(st.just("delete"), VALUES.map(lambda v: ("set", v)))),
                     max_size=3)


def _mutate(config, path, action):
    node = config
    for key in path[:-1]:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        elif isinstance(node, list) and node:
            node = node[0]
        else:
            return
    last = path[-1]
    if isinstance(node, list):
        if node and action != "delete":
            node[0] = action[1]
    elif isinstance(node, dict):
        if action == "delete":
            node.pop(last, None)
        else:
            node[last] = action[1]


def _assert_agrees(config, schema=SCHEMA):
    validator = jsonschema.Draft202012Validator(schema)
    errors = {"$" + "".join(f"[{p!r}]" for p in e.absolute_path) + f": {e.message}"
              for e in validator.iter_errors(config)}
    try:
        _check(config, schema)
    except ConfigError as exc:
        assert str(exc) in errors          # a real error, worded and placed as jsonschema does
    else:
        assert not errors


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(_RUNNERS)), mutations=MUTATIONS)
def test_config_check_agrees_with_jsonschema(kind, mutations):
    config = json.loads(json.dumps(_default_config(kind)))
    for path, action in mutations:
        _mutate(config, path, action)
    _assert_agrees(config)


@pytest.mark.parametrize("value", [{}, {"a": 1}, {"a": "x"}, {"b": 1}, {"b": 1, "a": 2, "B": 3}])
def test_additional_properties_as_jsonschema_words_them(value):
    _assert_agrees(value, {"type": "object", "properties": {"a": {"type": "integer"}},
                           "additionalProperties": False})


@pytest.mark.parametrize("value", [True, False, 1, 1.0, 2, 0, 1.5, "a", None, [1]])
@pytest.mark.parametrize("schema", [
    {"enum": [1, "a"]},
    {"enum": [True]},
    {"type": "integer", "minimum": 1, "exclusiveMaximum": 2},
    {"type": ["number", "null"], "exclusiveMinimum": 0},
    {"type": "array", "items": {"type": "integer"}},
    SCHEMA["properties"]["harness"]["properties"]["R"],
])
def test_json_schema_rules_for_bools_and_integers(schema, value):
    try:
        _check(value, schema)
        ours = True
    except ConfigError:
        ours = False
    assert ours == jsonschema.Draft202012Validator(schema).is_valid(value)


@pytest.mark.parametrize("value", [[], [1.5], [1.5, 1.5], [1, 1.0], [1, True], [True, True],
                                   [math.nan, math.nan], [0.5, 2.5], [1.0, 1.0, 2.5],
                                   [[1], [1]], ["a", "a"]])
@pytest.mark.parametrize("name", ["alphas", "p_list"])
def test_array_rules_as_jsonschema_words_them(name, value):
    # minItems and uniqueItems, before or with the rules of the items
    _assert_agrees(value, SCHEMA["properties"]["harness"]["properties"][name])


def test_error_keeps_the_field_path():
    config = _default_config("harnack")
    config["kernel"]["alpha"] = 2
    with pytest.raises(ConfigError, match=r"^\$\['kernel'\]\['alpha'\]: 2 is greater than or "
                                          r"equal to the maximum of 2$"):
        _validate(config)
    del config["kernel"]["alpha"]
    with pytest.raises(ConfigError, match=r"^\$\['kernel'\]: 'alpha' is a required property$"):
        _validate(config)
