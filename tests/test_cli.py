"""Command-line interface tests: exit codes, report shapes, determinism."""

import importlib
import inspect
import json
import math
import pkgutil
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import memdiff
from memdiff import semigroup
from memdiff.boundary_system import SolverConfig
from memdiff.cli import fmt_sig, main
from memdiff.errors import ConvergenceFailureError, SingularIntegrandError
from memdiff.mc_oracle import SimConfig
from memdiff.problem import InitialFunction, Problem, validate
from memdiff.semigroup import SemigroupOperator

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_with(tmp_path, name, **updates):
    """configs/<name>.json with its top-level keys updated, written to tmp_path."""
    cfg = read_json(CONFIGS / f"{name}.json")
    cfg.update(updates)
    cfg_path = tmp_path / f"{name}-cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_fmt_sig_fixed_digits():
    assert fmt_sig(1.0) == "1"
    assert fmt_sig(0.30000000000000004, 12) == "0.3"
    assert fmt_sig(123456.789, 4) == "1.235e+05"


def test_validate_command(tmp_path):
    out = tmp_path / "report.json"
    code = run(["validate", "--config", CONFIGS / "symmetric_heat.json",
                "--out", out])
    assert code == 0
    payload = read_json(out)
    assert payload["passed"]
    names = [c["condition"] for c in payload["checks"]]
    assert names == ["I", "II", "III", "IV", "V"]


def test_solve_command_conserves_unit_datum(tmp_path):
    cfg = read_json(CONFIGS / "symmetric_heat.json")
    cfg["phi"] = {"kind": "constant-one", "params": [1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "field.csv"
    assert run(["solve", "--config", cfg_path, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,x,u,side"
    assert len(lines) == 22
    for line in lines[1:]:
        s, x, u, side = line.split(",")
        assert abs(float(u) - 1.0) < 1e-3
        assert side in ("left", "membrane", "right")


def test_solve_rows_do_not_depend_on_the_order_of_start_times(tmp_path):
    # one solve from the earliest start serves every s, in any order
    cfg = read_json(CONFIGS / "moving_membrane.json")
    rows = []
    for s in ([0.5, 0.1], [0.1, 0.5]):
        cfg["s"] = s
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "field.csv"
        assert run(["solve", "--config", cfg_path, "--out", out]) == 0
        rows.append(sorted(out.read_text().splitlines()[1:]))
    assert len(rows[0]) == 26 and rows[0] == rows[1]


def test_solve_command_heat_oracle(tmp_path):
    import math
    out = tmp_path / "field.csv"
    assert run(["solve", "--config", CONFIGS / "symmetric_heat.json",
                "--out", out]) == 0
    for line in out.read_text().strip().split("\n")[1:]:
        s, x, u, side = line.split(",")
        var = 0.36 + 1.0
        want = 0.6 / math.sqrt(var) * math.exp(-(float(x) - 0.3) ** 2 / (2 * var))
        assert abs(float(u) - want) < 1e-3


def test_solve_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["solve", "--config", CONFIGS / "skew.json", "--out", out1])
    run(["solve", "--config", CONFIGS / "skew.json", "--out", out2])
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_labels_a_point_with_the_side_its_value_comes_from(tmp_path):
    # the point lies 1.05e-12 left of the membrane at 0.05, just outside the
    # membrane band (half-width 1.05e-12): its label and its value must come
    # from one classifier, here both from the left side, not the left label
    # with the two-side average
    cfg = read_json(CONFIGS / "skew.json")
    cfg["problem"]["membrane"] = {"kind": "constant", "params": [0.05]}
    cfg["problem"]["right"]["diffusion"] = {"kind": "constant", "params": [4.0]}
    x = 0.04999999999895
    cfg["grid"] = {"min": x, "max": x, "n": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "field.csv"
    assert run(["solve", "--config", cfg_path, "--out", out]) == 0
    _, u, side = out.read_text().strip().split("\n")[1].split(",")[1:]
    assert side == "left"
    problem = Problem.from_dict(cfg["problem"])
    phi = InitialFunction.from_dict(cfg["phi"])
    op = SemigroupOperator(problem)
    dens = op.densities(0.0, cfg["t"], phi)
    left, right = (op.evaluator.field(i, 0.0, x, cfg["t"], phi, dens) for i in (1, 2))
    assert fmt_sig(left) != fmt_sig(0.5 * (left + right))
    assert u == fmt_sig(left)


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["solve", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_key_named_in_diagnostic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"left": {}, "right": {},
                                           "wentzell": {}, "horizon": 1.0}}))
    assert run(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "membrane" in err


def test_check_suites(tmp_path):
    for suite in ("semigroup", "conjugation", "parametrix"):
        out = tmp_path / f"{suite}.json"
        code = run(["check", "--config", config_with(tmp_path, "skew", suite=suite),
                    "--out", out])
        assert code == 0, suite
        payload = read_json(out)
        assert payload["passed"]
        assert payload["schema"] == "report.v1"
        for item in payload["checks"]:
            assert set(item) == {"check", "case", "statistic", "tolerance", "pass"}


def test_check_generator_suite(tmp_path):
    out = tmp_path / "gen.json"
    code = run(["check", "--config", config_with(tmp_path, "skew", suite="generator"),
                "--out", out])
    assert code == 0
    assert read_json(out)["passed"]


def test_reports_validate_against_shipped_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "report.json"
    run(["check", "--config", config_with(tmp_path, "symmetric_heat", suite="semigroup"),
         "--out", out])
    schema = read_json(REPO / "schema" / "report.v1.json")
    jsonschema.validate(read_json(out), schema)
    problem_schema = read_json(REPO / "schema" / "problem.v1.json")
    cfg = read_json(CONFIGS / "skew.json")
    jsonschema.validate(cfg["problem"], problem_schema)


def test_compare_mc_command(tmp_path):
    cfg = read_json(CONFIGS / "symmetric_heat.json")
    cfg["grid"] = {"min": -0.5, "max": 0.5, "n": 3}
    cfg["t"] = 0.5
    cfg["mc"] = {"paths": 8000, "dt": 0.002, "seed": 42}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "mc1.json", tmp_path / "mc2.json"
    assert run(["compare-mc", "--config", cfg_path, "--out", out1]) == 0
    payload = read_json(out1)
    assert payload["passed"]
    assert payload["seed"] == 42
    # identical seed: byte-identical report
    assert run(["compare-mc", "--config", cfg_path, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_mc_command_skew(tmp_path):
    cfg = read_json(CONFIGS / "skew.json")
    cfg["grid"] = {"min": -0.5, "max": 0.5, "n": 3}
    cfg["t"] = 0.5
    cfg["mc"] = {"paths": 8000, "dt": 0.001, "seed": 42}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "mc.json"
    assert run(["compare-mc", "--config", cfg_path, "--out", out]) == 0
    assert read_json(out)["passed"]


def test_compare_mc_reports_the_values_solve_writes(tmp_path, monkeypatch):
    # on a variable side a value depends on the other points of its call, so
    # compare-mc evaluates its grid in one call, as solve does (point by
    # point, the two differed by 6.6e-4 at x = -0.75)
    import memdiff.cli as cli
    from memdiff.parametrix import CorrectionQuadrature
    bench = CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6, n_space=6, depth=4)
    monkeypatch.setattr(cli, "SemigroupOperator",
                        lambda problem, solver: SemigroupOperator(problem, solver, bench))
    cfg = read_json(CONFIGS / "skew.json")
    cfg["problem"]["left"]["diffusion"] = {"kind": "sinusoidal-in-s-and-x",
                                           "params": [1.0, 0.25, 1.0, 0.0, 0.0]}
    cfg.update(t=0.5, precision=17, solver={"mesh_n": 10, "n_kernel": 6, "n_holmgren": 10},
               mc={"paths": 200, "dt": 0.002, "seed": 3})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csv, report = tmp_path / "field.csv", tmp_path / "mc.json"
    assert run(["solve", "--config", cfg_path, "--out", csv]) == 0
    assert run(["compare-mc", "--config", cfg_path, "--out", report]) in (0, 1)
    written = [float(line.split(",")[2]) for line in csv.read_text().splitlines()[1:]]
    reported = [r["solver_value"] for r in read_json(report)["results"]]
    assert len(written) == 13 and reported == written


@pytest.mark.parametrize("name", ["symmetric_heat", "skew", "moving_membrane"])
def test_solve_matches_golden_output(tmp_path, name):
    # the shipped configs' CSVs, to 12 digits, as committed in tests/golden
    out = tmp_path / "field.csv"
    assert run(["solve", "--config", CONFIGS / f"{name}.json", "--out", out]) == 0
    assert out.read_bytes() == (REPO / "tests" / "golden" / f"{name}.csv").read_bytes()


def test_compare_mc_matches_golden_report(tmp_path):
    # configs/skew.json on 3 points with 2000 paths: every estimate, standard
    # error and z-score to all digits, as committed in tests/golden
    cfg = read_json(CONFIGS / "skew.json")
    cfg["grid"] = {"min": -0.5, "max": 0.5, "n": 3}
    cfg["mc"] = {"paths": 2000, "dt": 0.002, "seed": 42}
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["compare-mc", "--config", cfg_path, "--out", out]) == 0
    assert out.read_bytes() == (REPO / "tests" / "golden" / "compare_mc_skew.json").read_bytes()


def test_check_with_atoms_on_a_variable_side_matches_golden_report(tmp_path):
    # configs/skew.json with b = 1 + 0.25 sin x on the left, unit atoms at
    # +-1 and reduced solver settings: the conjugation suite's report to all
    # digits, as committed in tests/golden
    cfg = read_json(CONFIGS / "skew.json")
    cfg["problem"]["left"]["diffusion"] = {"kind": "sinusoidal-in-s-and-x",
                                           "params": [1.0, 0.25, 1.0, 0.0, 0.0]}
    cfg["problem"]["wentzell"]["measure"]["atoms"] = [
        {"position": {"kind": "constant", "params": [y]},
         "weight": {"kind": "constant", "params": [1.0]}} for y in (-1.0, 1.0)]
    cfg.update(suite="conjugation", solver={"mesh_n": 8, "n_kernel": 8, "n_holmgren": 12})
    cfg_path = tmp_path / "variable-atoms.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["check", "--config", cfg_path, "--out", out]) == 0
    assert out.read_bytes() == (REPO / "tests" / "golden" /
                                "check_variable_atoms.json").read_bytes()


def test_parametrix_check_on_correction_sides_matches_golden_report(tmp_path):
    # configs/skew.json with drift 0.5 on the left and b = 1 + 0.25 sin x on
    # the right, at t = 0.5: both terms of K^(1), the space-time tables and
    # the drift moments, to all digits, as committed in tests/golden
    cfg = read_json(CONFIGS / "skew.json")
    cfg["problem"]["left"]["drift"] = {"kind": "constant", "params": [0.5]}
    cfg["problem"]["right"]["diffusion"] = {"kind": "sinusoidal-in-s-and-x",
                                            "params": [1.0, 0.25, 1.0, 0.0, 0.0]}
    cfg.update(t=0.5, suite="parametrix")
    cfg_path = tmp_path / "parametrix.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["check", "--config", cfg_path, "--out", out]) == 0
    assert out.read_bytes() == (REPO / "tests" / "golden" /
                                "check_parametrix.json").read_bytes()


def test_semigroup_check_on_the_moving_membrane_matches_golden_report(tmp_path):
    # configs/moving_membrane.json with suite semigroup: identical exact
    # sides, the solves of phi = 1, of phi and of the Chapman-Kolmogorov
    # midpoint field, to all digits, as committed in tests/golden
    cfg_path = config_with(tmp_path, "moving_membrane", suite="semigroup")
    out = tmp_path / "report.json"
    assert run(["check", "--config", cfg_path, "--out", out]) == 0
    assert out.read_bytes() == (REPO / "tests" / "golden" /
                                "check_moving_semigroup.json").read_bytes()


def test_two_scale_check_on_the_moving_membrane_matches_golden_report(tmp_path):
    # configs/moving_membrane.json with b = 4 on the right and phi centred at
    # 0.4: two distinct exact sides, both transformed numerically, and the
    # conjugation suite's report to all digits, as committed in tests/golden
    cfg = read_json(CONFIGS / "moving_membrane.json")
    cfg["problem"]["right"]["diffusion"]["params"] = [4.0]
    cfg.update(phi={"kind": "gaussian-bump", "params": [1.0, 0.4, 0.6]}, suite="conjugation")
    cfg_path = tmp_path / "two-scale-moving.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["check", "--config", cfg_path, "--out", out]) == 0
    assert out.read_bytes() == (REPO / "tests" / "golden" /
                                "check_two_scale_moving.json").read_bytes()


def test_semigroup_check_of_the_unit_datum_solves_once_per_datum(tmp_path, monkeypatch):
    # phi = 1 with no params is the conservation check's own datum: its
    # densities come from the memo, so the check solves twice (phi on
    # [s, t], and the re-ingested midpoint field on [s, mid]), not three times
    calls = []
    solve = semigroup.solve_densities

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(semigroup, "solve_densities", counted)
    cfg_path = config_with(tmp_path, "skew", phi={"kind": "constant-one"})
    assert run(["check", "--config", cfg_path, "--out", tmp_path / "report.json"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("case", ["constant-one", "unreached-gaussian", "one-path"])
def test_compare_mc_zero_variance_exits_3(tmp_path, capsys, case):
    # every path returns the same phi value: the estimate has no standard
    # error and so no z-score; the point is named and no report is written
    cfg = read_json(CONFIGS / "skew.json")
    cfg["grid"] = {"min": -0.5, "max": 0.5, "n": 3}
    cfg["mc"] = {"paths": 2000, "dt": 0.002, "seed": 42}
    if case == "constant-one":
        cfg["phi"] = {"kind": "constant-one", "params": [1.0]}
    elif case == "unreached-gaussian":
        cfg["phi"] = {"kind": "gaussian-bump", "params": [1.0, 30.0, 0.1]}
    else:
        cfg["mc"]["paths"] = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "mc.json"
    assert run(["compare-mc", "--config", cfg_path, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: x=-0.5:") and err.count("\n") == 1
    assert not out.exists()


def test_check_rejects_config_failing_validation(tmp_path, capsys):
    cfg = read_json(CONFIGS / "skew.json")
    cfg["problem"]["left"]["diffusion"] = {"kind": "constant", "params": [3.0]}
    cfg["problem"]["left"]["diffusion_max"] = 2.0
    cfg["suite"] = "semigroup"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["check", "--config", cfg_path, "--out", out]) == 2
    assert "failed validation" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "check", "solve", "compare-mc"])
@pytest.mark.parametrize("diffusion,message", [
    ({"kind": "constant", "params": [-1.0]}, "diffusion sample <= 0 on side 1 (min -1)"),
    ({"kind": "sinusoidal-in-s-and-x", "params": [1e308, 1e308, 1.0, 1e308, 1.0]},
     "diffusion sample not finite on side 1"),
], ids=["negative", "overflow"])
@pytest.mark.filterwarnings("error")
def test_nonparabolic_diffusion_on_both_sides_exits_2(tmp_path, capsys, command,
                                                      diffusion, message):
    # both sides nonparabolic: the sample window of validate must not fail first
    cfg = read_json(CONFIGS / "skew.json")
    for side in ("left", "right"):
        cfg["problem"][side]["diffusion"] = diffusion
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run([command, "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "check", "compare-mc"])
def test_phi_above_its_declared_sup_norm_exits_2(tmp_path, capsys, command):
    # condition III: the amplitude-1 Gaussian declares sup_norm 0.1; the
    # validate command reports the failed condition, the others refuse it
    cfg = read_json(CONFIGS / "skew.json")
    cfg["phi"]["sup_norm"] = 0.1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["validate", "--config", cfg_path, "--out", out]) == 1
    assert [c["condition"] for c in read_json(out)["checks"] if not c["passed"]] == ["III"]
    out.unlink()
    assert run([command, "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "condition III" in err
    assert not out.exists()


def test_readme_range_table_lists_every_run_setting():
    # the solver.* and mc.* rows of README's range table name exactly the
    # fields of SolverConfig and SimConfig
    rows = [line for line in (REPO / "README.md").read_text().splitlines()
            if line.startswith("| `")]
    for section, config in (("solver", SolverConfig), ("mc", SimConfig)):
        named = {m for row in rows for m in re.findall(rf"`{section}\.(\w+)`", row)}
        assert named == {f.name for f in fields(config)}


def readme_name_resolves(name: str) -> bool:
    """Whether a name the README writes in backticks resolves in memdiff: an
    ALL_CAPS constant of some module, or a dotted name headed by memdiff, one
    of its modules or one of its classes, whose last part may also be an
    instance attribute: a dataclass field or a self.<part> set in that
    class.  Other names resolve trivially."""
    modules = {m.name: importlib.import_module(f"memdiff.{m.name}")
               for m in pkgutil.iter_modules(memdiff.__path__)}
    classes = {k: v for mod in modules.values() for k, v in vars(mod).items()
               if inspect.isclass(v) and v.__module__.startswith("memdiff.")}
    if re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
        return any(name in vars(mod) for mod in modules.values())
    head, *parts = name.split(".")
    obj = memdiff if head == "memdiff" else modules.get(head, classes.get(head))
    if obj is None or not parts:
        return True
    for k, part in enumerate(parts):
        if not hasattr(obj, part):
            return (k == len(parts) - 1 and inspect.isclass(obj) and re.search(
                rf"^\s+{part}:|self\.{part}\s*=", inspect.getsource(obj), re.M) is not None)
        obj = getattr(obj, part)
    return True


def test_readme_names_resolve():
    # a rename or a removal in memdiff cannot leave the README naming it;
    # config keys such as `solver.k_max` and file names are not checked
    text = re.sub(r"^```.*?^```", "", (REPO / "README.md").read_text(), flags=re.S | re.M)
    names = {span for span in re.findall(r"`([^`]+)`", text)
             if re.fullmatch(r"\w+(\.\w+)*", span)}
    assert "CorrectionKernel.is_null" in names and "boundary_system.TOL_V" in names
    assert sorted(name for name in names if not readme_name_resolves(name)) == []
    assert readme_name_resolves("DensityPair.w1")
    assert not readme_name_resolves("CorrectionKernel.no_such_name")
    assert not readme_name_resolves("NO_SUCH_CONSTANT")


@pytest.mark.parametrize("case", ["invalid-problem", "zero-paths", "unknown-mc-key"])
def test_compare_mc_rejects_bad_config(tmp_path, capsys, case):
    # compare-mc shares the front door of check and solve: a problem that
    # fails validation or a bad Monte Carlo setting exits 2 before any solve
    cfg = read_json(CONFIGS / "skew.json")
    cfg["grid"] = {"min": -0.5, "max": 0.5, "n": 3}
    cfg["mc"] = {"paths": 100, "dt": 0.01, "seed": 42}
    if case == "invalid-problem":
        cfg["problem"]["left"]["diffusion"] = {"kind": "constant", "params": [3.0]}
        cfg["problem"]["left"]["diffusion_max"] = 2.0
    elif case == "zero-paths":
        cfg["mc"]["paths"] = 0
    else:
        cfg["mc"]["walkers"] = 10
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "mc.json"
    assert run(["compare-mc", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


def test_solver_override_keys(tmp_path, capsys):
    # the accepted override keys are the SolverConfig fields; n_theta and n_u
    # are node counts of a test oracle, not solver settings
    cfg = read_json(CONFIGS / "skew.json")
    cfg["grid"] = {"min": -0.5, "max": 0.5, "n": 3}
    out = tmp_path / "field.csv"
    for key, value, code in (("n_theta", 24, 2), ("n_u", 20, 2), ("mesh_n", 16, 0)):
        cfg["solver"] = {key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["solve", "--config", cfg_path, "--out", out]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "bad solver override" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ConvergenceFailureError, SingularIntegrandError])
def test_solver_failures_exit_3(tmp_path, capsys, monkeypatch, error):
    # a correction series that stops decreasing and a Holmgren integrand that
    # does not decay are solver failures, not config errors
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(SemigroupOperator, "apply", fail)
    out = tmp_path / "field.csv"
    assert run(["solve", "--config", CONFIGS / "skew.json", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1
    assert not out.exists()


def heat_with_atom(tmp_path, q, position, weight):
    """configs/symmetric_heat.json with q1 = q2 = q and one constant atom,
    written to tmp_path."""
    cfg = read_json(CONFIGS / "symmetric_heat.json")
    wentzell = cfg["problem"]["wentzell"]
    for key in ("q1", "q2"):
        wentzell[key]["params"] = [q]
    wentzell["measure"]["atoms"] = [{"position": {"kind": "constant", "params": [position]},
                                     "weight": {"kind": "constant", "params": [weight]}}]
    cfg_path = tmp_path / "heat-atom.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_solve_with_a_weight_6_atom_converges(tmp_path, capsys):
    # spectral radius 0.56: the iterates grow to 1.5e3 sup|phi| before they
    # decay, which a rule on rising iterate sups once refused with exit 3
    out = tmp_path / "field.csv"
    assert run(["solve", "--config", heat_with_atom(tmp_path, 0.5, 0.3, 6.0),
                "--out", out]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 21 and all(math.isfinite(float(r.split(",")[2])) for r in rows)


def test_solve_with_a_spectral_radius_above_1_exits_3(tmp_path, capsys):
    # criterion 11's heavy atom: radius 30.8, refused before any iteration
    out = tmp_path / "field.csv"
    assert run(["solve", "--config", heat_with_atom(tmp_path, 0.05, 0.05, 80.0),
                "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1
    assert "spectral radius 30.8" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "check"])
def test_a_non_finite_value_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                       command):
    # NaN is neither a CSV value nor JSON: solve and check refuse it with one
    # solver-error line instead of writing it
    monkeypatch.setattr(SemigroupOperator, "apply",
                        lambda self, s, t, phi: lambda x: np.full(np.shape(x), np.nan))
    out = tmp_path / "out"
    assert run([command, "--config", CONFIGS / "skew.json", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and "nan" in err and err.count("\n") == 1
    assert not out.exists()


def near_t_config(tmp_path, s, mesh_n, **updates):
    """configs/skew.json with a left diffusion 1 + 0.25 sin x, q1 = q2 = 1/2,
    t = 0.4, a grid of 5 points on [-0.5, 0.5] and the given updates,
    written to tmp_path."""
    cfg = read_json(CONFIGS / "skew.json")
    cfg["problem"]["left"]["diffusion"] = {"kind": "sinusoidal-in-s-and-x",
                                           "params": [1.0, 0.25, 1.0, 0.0, 0.0]}
    for q in ("q1", "q2"):
        cfg["problem"]["wentzell"][q]["params"] = [0.5]
    cfg.update(s=s, t=0.4, solver={"mesh_n": mesh_n},
               grid={"min": -0.5, "max": 0.5, "n": 5}, **updates)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


@pytest.mark.filterwarnings("error")
def test_variable_side_solve_near_t_is_finite(tmp_path, capsys):
    # a start time 1e-3 before t on a variable side: the membrane value once
    # came out NaN; it now lies within 1e-3 of the heat value 0.8816, and the
    # rows off the membrane keep their digits
    cfg_path = near_t_config(tmp_path, s=0.399, mesh_n=8)
    out = tmp_path / "field.csv"
    assert run(["solve", "--config", cfg_path, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()
    assert rows[:3] == ["s,x,u,side", "0.399,-0.5,0.411501034506,left",
                        "0.399,-0.25,0.656817161574,left"]
    assert rows[4:] == ["0.399,0.25,0.995162172846,right", "0.399,0.5,0.944793753577,right"]
    s, x, u, side = rows[3].split(",")
    assert (s, x, side) == ("0.399", "0", "membrane")
    assert math.isfinite(float(u)) and abs(float(u) - 0.8816) <= 1e-3


@pytest.mark.filterwarnings("error")
def test_variable_side_check_near_t_is_a_solver_error(tmp_path, capsys):
    # the conjugation suite at mesh_n 32 evaluates the layer potential on the
    # membrane up to 3.9e-4 before t, where a point-table lookup meets a time
    # that rounded onto its anchor: one solver-error line and exit 3, where
    # an IndexError traceback once ended the run with exit 1
    cfg_path = near_t_config(tmp_path, s=0.0, mesh_n=32, suite="conjugation")
    out = tmp_path / "report.json"
    assert run(["check", "--config", cfg_path, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("s", "zero"), ("t", "one")])
def test_non_numeric_times_exit_2(tmp_path, capsys, key, value):
    cfg = read_json(CONFIGS / "skew.json")
    cfg[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["check", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


def test_front_door_audits_on_validate_grid(tmp_path, capsys):
    # a diffusion that oscillates faster than a 33-point grid resolves: it
    # peaks at 1.5 above its declared maximum 1.2 between coarse samples
    cfg = read_json(CONFIGS / "skew.json")
    horizon = cfg["problem"]["horizon"]
    cfg["problem"]["left"]["diffusion"] = {
        "kind": "sinusoidal-in-s-and-x",
        "params": [1.0, 0.0, 0.0, 0.5, 32.0 * math.pi / horizon]}
    cfg["problem"]["left"]["diffusion_max"] = 1.2
    assert validate(Problem.from_dict(cfg["problem"]), 33).passed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["validate", "--config", cfg_path, "--out", out]) == 1
    assert run(["check", "--config", cfg_path, "--out", out]) == 2
    assert "failed validation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "check"])
def test_grid_resolution_below_three_exits_2(tmp_path, capsys, command):
    cfg = read_json(CONFIGS / "skew.json")
    cfg["grid_resolution"] = 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run([command, "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,path,value", [
    ("solve", ("grid", "n"), 2.5),
    ("check", ("t",), 5),
    ("check", ("solver", "delta"), -1),
    ("check", ("s",), -0.5),
    ("check", ("s",), [0.0, 1.2]),
    ("compare-mc", ("s",), [0.0, 1.2]),
    ("check", ("solver", "n_kernel"), 0),
    ("check", ("solver", "tol_v"), -1),
    ("check", ("solver", "k_max"), 0),
    ("check", ("solver", "mesh_gamma"), 0),
    ("check", ("solver", "mesh_gamma"), -1),
    ("compare-mc", ("mc", "paths"), 2.5),
    ("compare-mc", ("mc", "crossing_risk_cap"), "x"),
    ("check", ("problem", "horizon"), "a"),
    ("check", ("problem", "horizon"), math.nan),
    ("check", ("t",), True),
    ("check", ("phi", "sup_norm"), -1),
    ("check", ("problem", "x_window"), [3, -3]),
    ("validate", ("problem", "x_window"), ["a", 1]),
    ("validate", ("problem", "x_window"), [1.0, 2.0, 3.0]),
    ("validate", ("problem", "x_window"), "ab"),
    ("validate", ("problem", "left", "diffusion_min"), "a"),
    ("validate", ("grid_resolution",), 10.5),
    ("check", ("phi", "extra"), 1),
    ("check", ("problem", "left", "drift", "extra"), 1),
    ("check", ("problem", "left", "extra"), 1),
    ("check", ("problem", "wentzell", "extra"), 1),
    ("check", ("problem", "wentzell", "measure", "extra"), 1),
    ("check", ("problem", "extra"), 1),
    ("check", ("extra",), 1),
    ("check", ("solver", "delta"), None),
    ("check", ("solver", "delta"), 1.0),
    ("solve", ("grid", "n"), 10 ** 15),
    ("validate", ("grid_resolution",), 10 ** 15),
    ("solve", ("solver", "mesh_n"), 10 ** 15),
    ("solve", ("solver", "n_kernel"), 10 ** 15),
    ("solve", ("solver", "n_holmgren"), 10 ** 15),
    ("compare-mc", ("mc", "paths"), 10 ** 15),
    ("compare-mc", ("mc", "dt"), 1e-300),
    ("compare-mc", ("mc", "dt"), 1e-12),
    ("validate", ("problem_file",), 5),
    ("check", ("suite",), "nonsense"),
    ("check", ("s",), [0.0, 0.5]),
    ("solve", ("grid",), {"min": -1e308, "max": 1e308, "n": 3}),
    ("validate", ("s",), -0.5),
    ("validate", ("t",), 99),
    ("validate", ("grid", "n"), 0),
    ("validate", ("solver", "mesh_n"), 0),
    ("validate", ("mc", "paths"), 0),
    ("validate", ("mc", "dt"), 1e-9),
    ("validate", ("precision",), 99),
    ("validate", ("suite",), "nonsense"),
    ("solve", ("mc", "paths"), 0),
    ("solve", ("mc", "dt"), 1e-9),
    ("solve", ("suite",), "nonsense"),
    ("check", ("mc", "paths"), 0),
    ("check", ("mc", "dt"), 1e-9),
    ("check", ("precision",), 99),
    ("compare-mc", ("precision",), 99),
    ("compare-mc", ("suite",), "nonsense"),
])
@pytest.mark.filterwarnings("error")
def test_out_of_range_settings_exit_2(tmp_path, capsys, command, path, value):
    # a fractional grid size, a terminal time past the horizon (1.5), a
    # start time before 0, a second start time where the command runs from
    # one, an out-of-range or non-finite setting and an unknown key, such
    # as solver.delta at any value, are refused before any solve, by a
    # message that names the offending key; so is a size past its upper
    # bound (10^15 points would need 8 PB, and fail in any address space),
    # a Monte Carlo dt that takes more steps over (s, t) than its bound
    # (1e-300 overflowed NumPy's size limit, 1e-12 asked for 7.3 TiB), and
    # a grid whose span max - min overflows (its points were once NaN and
    # inf, and solve ended in RuntimeWarnings and a solver error).  Every
    # command checks every key, also those it does not read, so that a
    # config one command accepts, every command accepts
    cfg = read_json(CONFIGS / "skew.json")
    target = cfg
    for key in path[:-1]:
        target = target.setdefault(key, {})
    target[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run([command, "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert path[-1] in err
    assert not out.exists()


COMMANDS = ["validate", "solve", "check", "compare-mc"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag,value", [("--suite", "conjugation"), ("--seed", "3"),
                                        ("--paths", "5"), ("--dump-kernels", "kernels.json")])
def test_removed_flags_exit_2(tmp_path, capsys, command, flag, value):
    # the suite, the Monte Carlo paths and seed come from the config alone,
    # and there is no kernel dump: each flag is a usage error, where the
    # commands that ignored it once ran
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", CONFIGS / "skew.json", "--out", tmp_path / "out",
             flag, tmp_path / value if flag == "--dump-kernels" else value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", COMMANDS)
def test_problem_and_problem_file_together_exit_2(tmp_path, capsys, command):
    # an inline problem (b2 = 1) and a problem file (b2 = 4) in one config:
    # validate once audited the file's problem without a word
    problem = read_json(CONFIGS / "skew.json")["problem"]
    problem["right"]["diffusion"]["params"] = [4.0]
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    out = tmp_path / "out"
    assert run([command, "--config", config_with(tmp_path, "skew", problem_file="problem.json"),
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "problem_file" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "problem_file"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, where):
    # JSON's decoder recurses once per level: 200 000 nested lists once
    # ended in a RecursionError traceback and exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    cfg_path = deep
    if where == "problem_file":
        cfg = read_json(CONFIGS / "skew.json")
        del cfg["problem"]
        cfg["problem_file"] = deep.name
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["validate", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed JSON in {deep}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("settings,width", [
    ({"mesh_n": 4096, "n_kernel": 1024}, "3.5e-14"),
    ({"mesh_n": 64, "n_kernel": 1024, "n_holmgren": 1024}, "1.4e-10"),
])
@pytest.mark.filterwarnings("error")
def test_solver_settings_with_nodes_on_an_interval_end_exit_2(tmp_path, capsys, settings,
                                                              width):
    # each size is within its bound, but together they leave the narrowest
    # kernel interval so narrow that roundoff puts quadrature nodes on its
    # ends; refused before the right-hand side, where the first case ran
    # 63 s and ended in RuntimeWarnings and a kernel error
    cfg = read_json(CONFIGS / "moving_membrane.json")
    cfg["solver"] = settings
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "field.csv"
    start = time.perf_counter()
    assert run(["solve", "--config", cfg_path, "--out", out]) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert all(name in err for name in ("mesh_n", "n_kernel", "n_holmgren", width))
    assert not out.exists()


def test_output_into_a_missing_directory_exits_4(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run(["validate", "--config", CONFIGS / "skew.json", "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io error:") and err.count("\n") == 1


def test_problem_file_is_read_relative_to_the_config(tmp_path):
    cfg = read_json(CONFIGS / "skew.json")
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(cfg))
    (tmp_path / "problems").mkdir()
    (tmp_path / "problems" / "skew.json").write_text(json.dumps(cfg.pop("problem")))
    cfg["problem_file"] = "problems/skew.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    reports = [tmp_path / "inline-report.json", tmp_path / "report.json"]
    assert run(["validate", "--config", inline, "--out", reports[0]]) == 0
    assert run(["validate", "--config", cfg_path, "--out", reports[1]]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


@pytest.mark.parametrize("command,mutate", [
    ("check", lambda cfg: cfg["problem"]["membrane"].update(extra=1)),
    ("check", lambda cfg: cfg["problem"]["wentzell"]["measure"].update(
        atoms=[{"position": {"kind": "constant", "params": [0.5]}}])),
    ("solve", lambda cfg: cfg["grid"].update(min="a")),
    ("check", lambda cfg: cfg.update(solver={"mesh_n": "a"})),
    ("check", lambda cfg: cfg["problem"]["wentzell"]["q1"].update(params=["a"])),
    ("solve", lambda cfg: cfg.update(precision="x")),
    ("check", lambda cfg: cfg["problem"]["wentzell"]["measure"].update(atoms=[5])),
    ("check", lambda cfg: cfg.update(phi=[])),
    ("check", lambda cfg: cfg.update(phi={"kind": "tabulated", "params": [
        4, 1.0, 0.5, 0.0, -1.0, 0.0, 1.0, 1.0, 0.0]})),
    ("check", lambda cfg: cfg["problem"]["wentzell"]["q1"].update(params=["0.25"])),
    ("check", lambda cfg: cfg["problem"].update(membrane={"kind": "tabulated", "params": [
        3, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0]})),
    ("check", lambda cfg: cfg["problem"]["membrane"].update(kind=["constant"])),
    ("check", lambda cfg: cfg["problem"]["left"]["drift"].update(kind={"constant": 0})),
    ("check", lambda cfg: cfg.update(phi={"kind": "gaussian-bump", "params": [1, 0, 0]})),
    ("check", lambda cfg: cfg.update(phi={"kind": "gaussian-bump", "params": [1, 0, -1]})),
    ("check", lambda cfg: cfg.update(phi={"kind": "indicator-smoothed",
                                          "params": [-1, 1, 0]})),
    ("check", lambda cfg: cfg.update(phi={"kind": "polynomial-clamped",
                                          "params": [0, -1, 2, 1]})),
    ("check", lambda cfg: cfg.update(phi={"kind": "polynomial-clamped",
                                          "params": [0, 1, 1, 1]})),
], ids=["membrane-extra-key", "atom-without-weight", "grid-min-string",
        "mesh-n-string", "q1-string-param", "precision-string", "atom-not-object",
        "phi-list", "phi-decreasing-knots", "q1-param-numeric-string",
        "membrane-decreasing-knots", "kind-list", "kind-dict", "gaussian-zero-width",
        "gaussian-negative-width", "indicator-zero-eps", "polynomial-negative-r-in",
        "polynomial-empty-ramp"])
def test_malformed_config_values_exit_2(tmp_path, capsys, command, mutate):
    # each malformed value is refused where it is parsed, with one line
    cfg = read_json(CONFIGS / "skew.json")
    mutate(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run([command, "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()
