"""Batch front door: parse a run config whole, run one command on it, emit reports.

Usage: memdiff COMMAND --config PATH [--out PATH]; every other setting comes
from the config.  Every command parses and range-checks the whole config
before it runs, so a config that one command accepts, every command accepts,
except that check and compare-mc run from one start time only.

Commands
  validate     audit the problem and initial function, print the per-condition report
  solve        evaluate the field on a grid, write CSV (s,x,u,side)
  check        run the config's check suite, write a JSON report
  compare-mc   solver vs Monte Carlo z-scores per grid point

Exit codes: 0 success / all checks passed, 1 some check failed, 2 config or
validation error, 3 solver failure (a refused density iteration, a divergent
correction series, a non-decaying Holmgren integrand, a field value or
check statistic that is not finite), an unreliable simulation step or a
zero-variance Monte Carlo estimate, 4 I/O error.
Reports carry no timestamps, so reruns with identical inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .boundary_system import (  # noqa: F401  perfbench traces cli.solve_densities
    SolverConfig,
    first_kind_residual,
    solve_densities,
)
from .errors import (
    ConfigError,
    ConvergenceFailureError,
    MemdiffError,
    SeriesDivergenceError,
    SingularIntegrandError,
    StepTooLargeError,
    ZeroVarianceError,
)
from .mc_oracle import SimConfig, compare, simulate
from .parametrix import moment_residuals
from .problem import InitialFunction, Problem, require_number, require_object, validate
from .semigroup import SemigroupOperator

REPORT_SCHEMA = "report.v1"


def fmt_sig(value: float, precision: int = 12) -> str:
    """Locale-independent fixed-significant-digit decimal formatting."""
    return f"{value:.{precision}g}"


RUN_KEYS = ("problem", "problem_file", "s", "t", "grid", "phi", "solver", "mc",
            "precision", "grid_resolution", "suite")
SUITES = ("semigroup", "conjugation", "generator", "parametrix")


def read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # malformed, not UTF-8 or nested too deep
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


@dataclass(frozen=True)
class Run:
    """A run config, every key parsed and range-checked, whatever the command."""

    problem: Problem
    phi: InitialFunction
    s_values: list
    t: float
    grid: np.ndarray
    solver: SolverConfig
    sim: SimConfig
    precision: int
    suite: str
    grid_resolution: int  # range-checked by validate()


def parse_run(path: str) -> Run:
    """The run config at path; a ConfigError names the first bad or
    conflicting setting."""
    cfg = require_object(read_json(path, "config"), "config", optional=RUN_KEYS)
    if ("problem" in cfg) == ("problem_file" in cfg):
        raise ConfigError("config needs exactly one of 'problem' and 'problem_file'")
    if "problem_file" in cfg:
        if not isinstance(cfg["problem_file"], str):
            raise ConfigError(f"bad problem_file: expected a path, "
                              f"got {cfg['problem_file']!r}")
        cfg["problem"] = read_json(Path(path).parent / cfg["problem_file"], "problem file")
    problem = Problem.from_dict(cfg["problem"])
    phi = InitialFunction.from_dict(cfg.get("phi", {"kind": "constant-one", "params": [1.0]}))
    t = float(require_number(cfg.get("t"), "t", gt=0, le=problem.horizon))
    s = cfg.get("s", 0.0)
    s_values = [float(require_number(v, "s", ge=0, lt=t))
                for v in (s if isinstance(s, list) and s else [s])]
    grid = require_object(cfg.get("grid", {"min": -2.0, "max": 2.0, "n": 21}), "grid",
                          ("min", "max", "n"))
    lo = require_number(grid["min"], "grid min")
    hi = require_number(grid["max"], "grid max", ge=lo)
    n = require_number(grid["n"], "grid n", integer=True, ge=1, le=100_000)
    if not math.isfinite(float(hi) - float(lo)):
        raise ConfigError(f"bad grid: max - min = {hi!r} - {lo!r} overflows")
    solver = SolverConfig(**require_object(cfg.get("solver", {}), "solver override",
                                           optional=[f.name for f in fields(SolverConfig)]))
    sim = SimConfig(**require_object(cfg.get("mc", {}), "mc setting",
                                     optional=[f.name for f in fields(SimConfig)]))
    sim.steps(min(s_values), t)  # a dt too fine for (s, t) is refused before any solve
    precision = require_number(cfg.get("precision", 12), "precision",
                               integer=True, ge=1, le=17)
    suite = cfg.get("suite", "semigroup")
    if suite not in SUITES:
        raise ConfigError(f"bad suite: expected one of {', '.join(SUITES)}, got {suite!r}")
    return Run(problem, phi, s_values, t, np.linspace(lo, hi, n), solver, sim, precision,
               suite, cfg.get("grid_resolution", 65))


def audit(run: Run):
    """validate() of the run's problem and initial function, on the config's
    grid_resolution, else on validate's default."""
    return validate(run.problem, run.grid_resolution, run.phi)


def validated(run: Run) -> None:
    """Refuse a run whose problem or initial function fails the audit of the
    validate command; every command but validate calls this before any solve."""
    failed = ", ".join(c.condition for c in audit(run).checks if not c.passed)
    if failed:
        raise ConfigError(f"failed validation of condition {failed}; run the validate command")


def start_time(run: Run) -> float:
    """s for a command that runs from a single start time."""
    if len(run.s_values) > 1:
        raise ConfigError(f"this command takes one start time s, got {len(run.s_values)}")
    return run.s_values[0]


def write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def report_json(command: str, entries: list, extra: dict | None = None) -> str:
    payload = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "passed": all(e["pass"] for e in entries),
        "checks": entries,
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def require_finite(value, what: str) -> float:
    """value as a float when it is finite; else a solver error, so that no
    NaN or inf reaches a CSV or a report."""
    value = float(value)
    if not math.isfinite(value):
        raise SingularIntegrandError(f"{what} is {value}, not a finite number")
    return value


def entry(check: str, case: str, statistic: float, tolerance: float) -> dict:
    statistic = require_finite(statistic, f"{check} statistic ({case})")
    return {"check": check, "case": case, "statistic": statistic,
            "tolerance": float(tolerance), "pass": bool(statistic <= tolerance)}


# -- commands -------------------------------------------------------------------


def cmd_validate(run: Run, out: str | None) -> int:
    report = audit(run)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    write_text(out, text)
    return 0 if report.passed else 1


def cmd_solve(run: Run, out: str | None) -> int:
    validated(run)
    problem, phi, t, grid, precision = run.problem, run.phi, run.t, run.grid, run.precision
    op = SemigroupOperator(problem, run.solver)
    op.densities(min(run.s_values), t, phi)  # one solve serves every start time
    lines = ["s,x,u,side"]
    for s_val in run.s_values:
        field = op.apply(s_val, t, phi)
        values = field(grid)
        for x_val, u_val in zip(grid, np.atleast_1d(values)):
            side = problem.side_of(s_val, float(x_val))
            u_val = require_finite(u_val, f"u at s={fmt_sig(s_val, 6)}, "
                                          f"x={fmt_sig(float(x_val), 6)}")
            lines.append(",".join([fmt_sig(s_val, precision),
                                   fmt_sig(float(x_val), precision),
                                   fmt_sig(u_val, precision), side]))
    write_text(out, "\n".join(lines) + "\n")
    return 0


def cmd_check(run: Run, out: str | None) -> int:
    validated(run)
    s = start_time(run)
    problem, phi, t, grid, suite = run.problem, run.phi, run.t, run.grid, run.suite
    op = SemigroupOperator(problem, run.solver)
    entries = []

    if suite == "semigroup":
        one = InitialFunction.one()
        dev = float(np.max(np.abs(op.apply(s, t, one)(grid) - 1.0)))
        entries.append(entry("conservation", "constant-one", dev, 1e-3))
        mid = 0.5 * (s + t)
        gap = op.chapman_kolmogorov_gap(s, mid, t, phi, grid)
        entries.append(entry("chapman-kolmogorov", "midpoint", gap, 5e-3))
        mn, sup = op.positivity_contraction(s, t, phi, grid)
        entries.append(entry("positivity", "min-value", max(-mn, 0.0),
                             1e-4 * phi.sup_norm))
        entries.append(entry("contraction", "sup-norm",
                             max(sup - phi.sup_norm, 0.0), 1e-3 * phi.sup_norm))
    elif suite == "conjugation":
        for s_chk in np.linspace(s, 0.5 * (s + t), 3):
            b1, b2 = op.conjugation_residuals(float(s_chk), t, phi)
            entries.append(entry("continuity", f"s={fmt_sig(float(s_chk), 6)}",
                                 abs(b1), 1e-3 * phi.sup_norm))
            entries.append(entry("flux", f"s={fmt_sig(float(s_chk), 6)}",
                                 abs(b2), 5e-3 * phi.sup_norm))
        dens = op.densities(s, t, phi)
        resid = first_kind_residual(problem, phi, t, dens, op.evaluator)
        entries.append(entry("first-kind-residual", "mesh-max",
                             float(np.max(np.abs(resid))), 1e-3 * phi.sup_norm))
    elif suite == "generator":
        f = InitialFunction("polynomial-clamped", [float(problem.h(s)), 0.8, 2.0, 1.0])
        lhs, rhs = op.weak_generator_pairing(s, phi, f, [0.04, 0.02, 0.01])
        errs = [abs(v - rhs) for v in lhs]
        entries.append(entry("weak-generator", "dt=0.01", errs[-1],
                             5e-2 * (abs(rhs) + 1)))
        mono = 0.0 if errs[0] >= errs[1] >= errs[2] else 1.0
        entries.append(entry("weak-generator-monotone", "dt-sequence", mono, 0.5))
    else:  # parametrix
        for i in (1, 2):
            res = moment_residuals(op.evaluator.fs[i], s, float(problem.h(s)), t)
            for k, r in enumerate(res):
                entries.append(entry("moment-identity", f"side{i}-order{k}",
                                     r, 1e-3))

    write_text(out, report_json(f"check:{suite}", entries))
    return 0 if all(e["pass"] for e in entries) else 1


def cmd_compare_mc(run: Run, out: str | None) -> int:
    validated(run)
    s = start_time(run)
    problem, phi, t, grid, config = run.problem, run.phi, run.t, run.grid, run.sim
    # one array call, as in solve, so that both report the same values
    solver_values = SemigroupOperator(problem, run.solver).apply(s, t, phi)(grid)
    # the points' simulations are independent, each on its own seeded streams
    with ThreadPoolExecutor(max_workers=min(len(grid), os.cpu_count() or 1)) as pool:
        sims = list(pool.map(lambda x_val: simulate(problem, s, float(x_val), t, phi, config),
                             grid))
    for x_val, res in zip(grid, sims):
        if res.stderr <= 0:
            raise ZeroVarianceError(
                f"x={fmt_sig(float(x_val), 6)}: every path returned phi = "
                f"{fmt_sig(res.mean)}, so the estimate has no standard error and no z-score")
    comparisons = [compare(v, res.mean, res.stderr) for v, res in zip(solver_values, sims)]
    entries = [entry("mc-z-score", f"x={fmt_sig(float(x_val), 6)}", c.z_score, c.k_sigma)
               for x_val, c in zip(grid, comparisons)]
    write_text(out, report_json("compare-mc", entries,
                                {"results": [c.to_dict() for c in comparisons],
                                 "paths": config.paths, "seed": config.seed}))
    return 0 if all(e["pass"] for e in entries) else 1


COMMANDS = {"validate": cmd_validate, "solve": cmd_solve, "check": cmd_check,
            "compare-mc": cmd_compare_mc}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="memdiff",
                                description="membrane-diffusion semigroup solver")
    p.add_argument("command", choices=list(COMMANDS))
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](parse_run(args.config), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SeriesDivergenceError, ConvergenceFailureError, SingularIntegrandError,
            StepTooLargeError, ZeroVarianceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except MemdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
