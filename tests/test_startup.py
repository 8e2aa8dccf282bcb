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
from _oracles import K1_DRIFT_09
from hypothesis import given, settings, strategies as st

import jumplab
from jumplab import ParabolicProblem, resolvent_solve, solve_parabolic
from jumplab import _lapack
from jumplab import solve as solve_module
from jumplab._lazy import lazy_module
from jumplab.cli import _RUNNERS, SCHEMA, ConfigError, _check, _default_config, _validate

try:
    import jsonschema
except ImportError:     # the oracle of the config check; the tables below run without it
    jsonschema = None
needs_jsonschema = pytest.mark.skipif(jsonschema is None, reason="jsonschema is not installed")

SRC = Path(jumplab.__file__).resolve().parent.parent
HEAVY = ("scipy.linalg._basic", "scipy._lib._array_api", "scipy.special._ufuncs")
LINALG = HEAVY[:2] + ("importlib.metadata",)   # what importing scipy.linalg loads
# the scipy modules a command may load: the compiled ones, by file path
BY_PATH = {"scipy.linalg._flapack", "scipy.special._special_ufuncs"}


def _falls_back(argv):
    """Whether the command may import a scipy package through the fallback of
    _lapack on the installed scipy: an older scipy may lack gamma's compiled
    module.  Of the commands below mosco and coercivity take gamma (for their
    stable kernels), and so does a drift kernel (the only config passed)."""
    takes_gamma = argv[0] == "mosco" or "coercivity" in argv or isinstance(argv[-1], dict)
    return takes_gamma and not isinstance(_lapack.gamma, np.ufunc)


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
except SystemExit as exc:       # --help and usage errors
    code = exc.code
names = ("solve", "estimates", "assumptions", "mosco", "algebra", "kernels", "discretize",
         "quadrature")
print(json.dumps({{"code": code, "linalg": [m for m in linalg if m in sys.modules],
                  "numpy": type(sys.modules.get("numpy")) is types.ModuleType,
                  "ma": "numpy.ma" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
                  "ran": sorted(n for n in names
                                if type(sys.modules.get("jumplab." + n)) is types.ModuleType)}}))
"""

# the README command lines, ensembles cut to one member (the modules a command
# runs do not depend on it), and two check-kernel runs that take eigenvalues
# -> the package modules the command runs; a config is passed as a file.  A
# command that builds a kernel runs kernels and quadrature, and one that builds
# a grid discretize; --help runs none of them, and algebra-tests only kernels
# (its sample stream) and quadrature, which kernels imports
BUILT = ["discretize", "kernels", "quadrature"]
README_COMMANDS = [
    (["--help"], []),
    (["check-kernel", "--assumption", "K1"], ["assumptions", *BUILT]),
    (["check-kernel", "--assumption", "coercivity"], ["assumptions", *BUILT]),
    (["check-kernel", "--config", K1_DRIFT_09], ["assumptions", *BUILT]),
    (["harnack", "--ensemble", "1", "--seed", "7"], ["estimates", "solve", *BUILT]),
    (["hoelder", "--ensemble", "1"], ["estimates", "solve", *BUILT]),
    (["caccioppoli", "--ensemble", "1"], ["estimates", "solve", *BUILT]),
    (["algebra-tests"], ["algebra", "kernels", "quadrature"]),
    (["mosco", "--alphas", "1.5,1.8,1.9,1.95"], ["mosco", "solve", *BUILT]),
    (["assemble", "--dump-form", "form.csv"], BUILT),
    (["solve"], ["solve", *BUILT]),
]


@pytest.mark.parametrize("argv, ran", README_COMMANDS, ids=[
    "--help", "check-kernel", "check-kernel-coercivity", "check-kernel-K1-drift", "harnack",
    "hoelder", "caccioppoli", "algebra-tests", "mosco", "assemble", "solve"])
def test_a_command_loads_only_the_modules_it_runs(argv, ran, tmp_path):
    # scipy's compiled routines load through _lapack, which imports no scipy package
    command = argv
    if isinstance(argv[-1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(argv[-1]))
        command = [*argv[:-1], str(config)]
    out = [] if argv == ["--help"] else ["--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _RAN.format(linalg=LINALG), *command, *out],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["code"] == 0 and seen["ran"] == sorted(ran)
    # no command imports numpy.ma: the medians skip np.median's nan check and
    # algebra-tests dedupes its p values without np.unique
    assert not seen["ma"]
    if not _falls_back(argv):
        assert seen["linalg"] == [] and set(seen["scipy"]) <= BY_PATH
        assert not {"scipy", "scipy.linalg", "scipy.special"} & set(seen["scipy"])
    if out:
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["env"]["scipy"] == scipy.__version__


# what the CLI does before a command builds its kernel: (argv, exit code, last
# line of stderr); a config is passed as a file
STARTUP_COMMANDS = [
    (["--help"], 0, None),
    *[([kind, "--help"], 0, None) for kind in _RUNNERS],
    (["harnack", "--ensemble", "two"], 2,
     "jumplab harnack: error: argument --ensemble: invalid int value: 'two'"),
    (["harnack", "--config", {"harness": {"ensemlbe": 2}}], 2,
     "config error: $['harness']: Additional properties are not allowed ('ensemlbe' was "
     "unexpected)"),
    (["mosco", "--config", {"harness": {"delta": math.nan}}], 2,
     "config error: $['harness']['delta']: NaN is not a finite number"),
]


@pytest.mark.parametrize("argv, code, error", STARTUP_COMMANDS, ids=[
    "--help", *(f"{kind}--help" for kind in _RUNNERS), "usage-error", "unknown-harness-key",
    "nan-delta"])
def test_help_usage_errors_and_config_refusals_load_nothing_numerical(argv, code, error,
                                                                      tmp_path):
    command = argv
    if isinstance(argv[-1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(argv[-1]))
        command = [*argv[:-1], str(config)]
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", _RAN.format(linalg=LINALG), *command,
                           "--out", str(out)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    # numpy and every package module but cli stay unexecuted
    assert seen["code"] == code and not seen["numpy"] and seen["ran"] == []
    if error is None:
        assert proc.stdout.startswith("usage: jumplab") and proc.stderr == ""
    else:
        assert proc.stderr.splitlines()[-1] == error
    assert not out.exists()


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


def _counts(sla_calls):
    return tuple(len(calls) for calls in (sla_calls.lu_factor_calls, sla_calls.lu_solve_calls,
                                          sla_calls.getrs_calls))


def test_patched_sla_sees_every_factorisation_and_solve(stable_form_1d, sla_calls):
    # a form of its own: the fixture's shared system may hold factors of earlier tests
    form = replace(stable_form_1d)
    sol = solve_parabolic(_five_steps(form))
    # every step solves with the system's getrs; none misses, so none refines
    assert _counts(sla_calls) == (1, 0, sol.meta["n_steps"]) == (1, 0, 5)
    resolvent_solve(form, 2.0, np.ones(form.grid.n_nodes))
    assert len(sla_calls.lu_factor_calls) == 2 and len(sla_calls.lu_solve_calls) >= 1
    assert len(sla_calls.getrs_calls) == 5


def test_patched_sla_sees_the_steps_on_a_form_factored_before(stable_form_1d, sla_calls,
                                                              monkeypatch):
    # the form's system is factored before the patch; its steps still solve through solve.sla
    form = replace(stable_form_1d)
    with monkeypatch.context() as m:
        m.setattr(solve_module, "sla", sla_calls.real)
        plain = solve_parabolic(_five_steps(form))
    patched = solve_parabolic(_five_steps(form))
    assert _counts(sla_calls) == (0, 0, 5)
    assert np.array_equal(patched.snapshots, plain.snapshots)
    assert np.array_equal(patched.residuals, plain.residuals)


def test_patched_sla_changes_no_bit(stable_form_1d, sla_calls, monkeypatch):
    # each run on a form of its own, so that the patched run factors and solves
    with monkeypatch.context() as m:
        m.setattr(solve_module, "sla", sla_calls.real)
        plain = solve_parabolic(_five_steps(replace(stable_form_1d)))
    patched = solve_parabolic(_five_steps(replace(stable_form_1d)))
    assert _counts(sla_calls) == (1, 0, 5)
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


def _error(value, schema):
    """The message of _check's ConfigError on value, or None where value passes."""
    try:
        _check(value, schema)
    except ConfigError as exc:
        return str(exc)
    return None


def _assert_agrees(config, schema=SCHEMA):
    validator = jsonschema.Draft202012Validator(schema)
    errors = {"$" + "".join(f"[{p!r}]" for p in e.absolute_path) + f": {e.message}"
              for e in validator.iter_errors(config)}
    ours = _error(config, schema)
    if ours is None:
        assert not errors
    else:
        assert ours in errors              # a real error, worded and placed as jsonschema does


@needs_jsonschema
@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(_RUNNERS)), mutations=MUTATIONS)
def test_config_check_agrees_with_jsonschema(kind, mutations):
    config = json.loads(json.dumps(_default_config(kind)))
    for path, action in mutations:
        _mutate(config, path, action)
    _assert_agrees(config)


# The tables below write out what JSON Schema (draft 2020-12) says of each
# case, so that they check the config walker without jsonschema installed;
# where it is installed, jsonschema must agree with the walker as well.

# (value, the error of an object schema with one integer property "a" and no others)
ADDITIONAL_CASES = [
    ({}, None),
    ({"a": 1}, None),
    ({"a": "x"}, "$['a']: 'x' is not of type 'integer'"),
    ({"b": 1}, "$: Additional properties are not allowed ('b' was unexpected)"),
    ({"b": 1, "a": 2, "B": 3}, "$: Additional properties are not allowed ('B', 'b' were "
                               "unexpected)"),
]


@pytest.mark.parametrize("value, error", [pytest.param(v, e, id=f"value{i}")
                                          for i, (v, e) in enumerate(ADDITIONAL_CASES)])
def test_additional_properties_as_jsonschema_words_them(value, error):
    schema = {"type": "object", "properties": {"a": {"type": "integer"}},
              "additionalProperties": False}
    assert _error(value, schema) == error
    if jsonschema is not None:
        _assert_agrees(value, schema)


BOOL_INT_VALUES = [True, False, 1, 1.0, 2, 0, 1.5, "a", None, [1]]
# each schema with its verdict on each of BOOL_INT_VALUES in turn, T where
# the value is valid: a bool is neither a number nor equal to one, 1.0 is an
# integer and equals 1
BOOL_INT_SCHEMAS = [
    ({"enum": [1, "a"]}, "FFTTFFFTFF"),
    ({"enum": [True]}, "TFFFFFFFFF"),
    ({"type": "integer", "minimum": 1, "exclusiveMaximum": 2}, "FFTTFFFFFF"),
    ({"type": ["number", "null"], "exclusiveMinimum": 0}, "FFTTTFTFTF"),
    ({"type": "array", "items": {"type": "integer"}}, "FFFFFFFFFT"),
    (SCHEMA["properties"]["harness"]["properties"]["R"], "FFTTFFFFFF"),
]


@pytest.mark.parametrize("value", BOOL_INT_VALUES)
@pytest.mark.parametrize("schema, verdicts", BOOL_INT_SCHEMAS,
                         ids=[f"schema{i}" for i in range(len(BOOL_INT_SCHEMAS))])
def test_json_schema_rules_for_bools_and_integers(schema, verdicts, value):
    # by identity: True == 1 would find the column of True for 1
    column = next(i for i, v in enumerate(BOOL_INT_VALUES) if v is value)
    valid = verdicts[column] == "T"
    assert (_error(value, schema) is None) == valid
    if jsonschema is not None:
        assert jsonschema.Draft202012Validator(schema).is_valid(value) == valid


# (value, its error under harness.alphas, under harness.p_list): minItems and
# uniqueItems come before the rules of the items
ARRAY_CASES = [
    ([], *2 * ["$: [] should be non-empty"]),
    ([1.5], None, None),
    ([1.5, 1.5], *2 * ["$: [1.5, 1.5] has non-unique elements"]),
    ([1, 1.0], *2 * ["$: [1, 1.0] has non-unique elements"]),
    ([1, True], *2 * ["$[1]: True is not of type 'number'"]),
    ([True, True], *2 * ["$: [True, True] has non-unique elements"]),
    ([math.nan, math.nan], *2 * ["$: [nan, nan] has non-unique elements"]),
    ([0.5, 2.5], "$[1]: 2.5 is greater than or equal to the maximum of 2", None),
    ([1.0, 1.0, 2.5], *2 * ["$: [1.0, 1.0, 2.5] has non-unique elements"]),
    ([[1], [1]], *2 * ["$: [[1], [1]] has non-unique elements"]),
    (["a", "a"], *2 * ["$: ['a', 'a'] has non-unique elements"]),
]


@pytest.mark.parametrize("value, errors", [pytest.param(v, e, id=f"value{i}")
                                           for i, (v, *e) in enumerate(ARRAY_CASES)])
@pytest.mark.parametrize("name", ["alphas", "p_list"])
def test_array_rules_as_jsonschema_words_them(name, value, errors):
    schema = SCHEMA["properties"]["harness"]["properties"][name]
    assert _error(value, schema) == errors[["alphas", "p_list"].index(name)]
    if jsonschema is not None:
        _assert_agrees(value, schema)


def test_error_keeps_the_field_path():
    config = _default_config("harnack")
    config["kernel"]["alpha"] = 2
    with pytest.raises(ConfigError, match=r"^\$\['kernel'\]\['alpha'\]: 2 is greater than or "
                                          r"equal to the maximum of 2$"):
        _validate(config)
    del config["kernel"]["alpha"]
    with pytest.raises(ConfigError, match=r"^\$\['kernel'\]: 'alpha' is a required property$"):
        _validate(config)
