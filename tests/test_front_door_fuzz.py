"""Fuzz the front door: mutated configs end in ConfigError or are valid.

A mutation replaces one node of a config with a value of another kind,
deletes a key or list entry, or adds an unknown key (appends an entry to a
list).  Problem objects are checked against schema/problem.v1.json; the
run-config sections against RUN_SCHEMA below, which restates the ranges
README "Configuration" documents.  In both, the parser may raise nothing
but ConfigError, and raises it whenever the schema rejects the object.
The parser is stricter than the schemas (table layouts, scale parameters,
s < t <= horizon), so acceptance is only checked one way.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest

from memdiff import cli
from memdiff.boundary_system import SolverConfig
from memdiff.errors import ConfigError
from memdiff.mc_oracle import SimConfig
from memdiff.problem import Problem

hypothesis = pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")
st = hypothesis.strategies

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
PROBLEM_SCHEMA = json.loads((REPO / "schema" / "problem.v1.json").read_text())


def _read(name):
    return json.loads((CONFIGS / name).read_text())


def _with_atom_and_window():
    problem = _read("moving_membrane.json")["problem"]
    problem["wentzell"]["measure"]["atoms"] = [
        {"position": {"kind": "linear", "params": [-1.0, 0.2]},
         "weight": {"kind": "constant", "params": [0.5]}}]
    problem["x_window"] = [-6.0, 6.0]
    return problem


PROBLEMS = [_read(name)["problem"] for name in
            ("symmetric_heat.json", "skew.json", "moving_membrane.json")]
PROBLEMS.append(_with_atom_and_window())

RUN_CONFIG = _read("skew.json")
RUN_CONFIG.update(solver={f.name: f.default for f in fields(SolverConfig)}, grid_resolution=65,
                  suite="semigroup")
RUN_SECTIONS = ("grid", "solver", "mc", "s", "t", "precision", "grid_resolution", "suite")


def _int(lo=None, hi=None):
    return {"type": "integer", **({"minimum": lo} if lo is not None else {}),
            **({"maximum": hi} if hi is not None else {})}


def _num(**bounds):
    return {"type": "number", **bounds}


def _object_schema(props, required=()):
    return {"type": "object", "properties": props, "required": list(required),
            "additionalProperties": False}


RUN_SCHEMA = _object_schema({
    "problem": {}, "phi": {},
    "suite": {"enum": ["semigroup", "conjugation", "generator", "parametrix"]},
    "s": _num(minimum=0),
    "t": _num(exclusiveMinimum=0, maximum=1.5),
    "grid": _object_schema({"min": _num(), "max": _num(), "n": _int(1, 100_000)},
                           ("min", "max", "n")),
    "solver": _object_schema({"mesh_n": _int(8, 4096), "n_kernel": _int(1, 1024),
                              "n_holmgren": _int(1, 1024), "k_max": _int(1)}),
    "mc": _object_schema({
        "paths": _int(1), "dt": _num(exclusiveMinimum=0), "seed": _int(0, 2 ** 64 - 1)}),
    "precision": _int(1, 17),
    "grid_resolution": _int(3, 2049),
}, ("t",))

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-100, 100),
    st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -0.5]),
    st.text(max_size=3), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2))


def _slots(node, path=()):
    """Every (path to a container, key in it) of a JSON tree."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


@st.composite
def mutated(draw, bases, sections=None):
    """One of bases with one node replaced, deleted or given a sibling."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    slots = [(p, k) for p, k in _slots(doc) if sections is None or (p + (k,))[0] in sections]
    path, key = draw(st.sampled_from(slots))
    parent = doc
    for step in path:
        parent = parent[step]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[key] = draw(VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent["unknown_key"] = draw(VALUES)
    else:
        parent.append(draw(VALUES))
    return doc


FUZZ = hypothesis.settings(max_examples=800, derandomize=True, deadline=None,
                           database=None)


@FUZZ
@hypothesis.given(mutated(PROBLEMS))
def test_problem_parser_refuses_what_the_schema_refuses(doc):
    try:
        problem = Problem.from_dict(doc)
    except ConfigError:
        return
    jsonschema.validate(doc, PROBLEM_SCHEMA)
    assert Problem.from_dict(problem.to_dict()).to_dict() == problem.to_dict()


class _Reached(Exception):
    """The command got past its front door to the solver."""


def _stop(*args, **kwargs):
    raise _Reached


@FUZZ
@hypothesis.given(mutated([RUN_CONFIG], RUN_SECTIONS))
def test_run_config_parsers_refuse_what_the_schema_refuses(doc):
    # every command parses the whole config before it runs: validate stops
    # after its audit, the others where they would build the operator.  So
    # all four refuse the same configs, except that check and compare-mc
    # also refuse more than one start time
    refused = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "SemigroupOperator", _stop)
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "solve", "check", "compare-mc"):
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", str(path), "--out", os.devnull])
            except _Reached:
                code = None
            refused[command] = code == 2
            if refused[command]:
                assert err.getvalue().startswith("config error:")
                assert err.getvalue().count("\n") == 1
            else:
                assert code in (None, 0)
    several_starts = isinstance(doc.get("s"), list) and len(doc["s"]) > 1
    assert refused["validate"] == refused["solve"]
    assert refused["check"] == refused["compare-mc"] == (refused["solve"] or several_starts)
    if not refused["solve"]:
        jsonschema.validate(doc, RUN_SCHEMA)


@pytest.mark.parametrize("overrides", [{"block_size": 0}, {"paths": 2.5}, {"seed": -1},
                                       {"crossing_risk_cap": "x"}, {"dt": math.nan}])
def test_sim_settings_are_refused_before_any_simulation(tmp_path, overrides):
    # an out-of-range setting is refused where the run config is parsed, and
    # block_size and crossing_risk_cap, constants of simulate(), as unknown keys
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(RUN_CONFIG, mc=overrides)))
    with pytest.raises(ConfigError, match="mc"):
        cli.parse_run(str(path))
    if set(overrides) <= {f.name for f in fields(SimConfig)}:
        with pytest.raises(ConfigError):
            SimConfig(**overrides)
