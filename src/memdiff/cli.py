"""Batch front door: load a problem config, run solves and checks, emit reports.

Commands
  validate     audit the problem and initial function, print the per-condition report
  solve        evaluate the field on a grid, write CSV (s,x,u,side)
  check        run one named check suite, write a JSON report
  compare-mc   solver vs Monte Carlo z-scores per grid point

Exit codes: 0 success / all checks passed, 1 some check failed, 2 config or
validation error, 3 solver failure (a divergent density iteration or
correction series, a non-decaying Holmgren integrand), an unreliable
simulation step or a zero-variance Monte Carlo estimate, 4 I/O error.
Reports carry no timestamps, so reruns with identical inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from .boundary_system import (  # noqa: F401  perfbench traces cli.solve_densities
    KernelAssembler,
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
PROBLEM_SCHEMA = "problem.v1"


def fmt_sig(value: float, precision: int = 12) -> str:
    """Locale-independent fixed-significant-digit decimal formatting."""
    return f"{value:.{precision}g}"


RUN_KEYS = ("problem", "problem_file", "s", "t", "grid", "phi", "solver", "mc",
            "precision", "grid_resolution", "suite")


def read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def load_run_config(path: str) -> dict:
    cfg = require_object(read_json(path, "config"), "config", optional=RUN_KEYS)
    if "problem_file" in cfg:
        if not isinstance(cfg["problem_file"], str):
            raise ConfigError(f"bad problem_file: expected a path, "
                              f"got {cfg['problem_file']!r}")
        cfg["problem"] = read_json(Path(path).parent / cfg["problem_file"], "problem file")
    if "problem" not in cfg:
        raise ConfigError("config missing key 'problem' (or 'problem_file')")
    return cfg


def build_phi(cfg: dict) -> InitialFunction:
    return InitialFunction.from_dict(cfg.get("phi", {"kind": "constant-one", "params": [1.0]}))


def audit(cfg: dict) -> tuple:
    """The config's problem, its initial function and validate() of both, on
    the config's grid_resolution, else on validate's default."""
    problem, phi = Problem.from_dict(cfg["problem"]), build_phi(cfg)
    return problem, phi, validate(problem, cfg.get("grid_resolution", 65), phi)


def validated(cfg: dict) -> tuple:
    """The config's problem and initial function, audited on the grid of the
    validate command before any solve."""
    problem, phi, report = audit(cfg)
    failed = ", ".join(c.condition for c in report.checks if not c.passed)
    if failed:
        raise ConfigError(f"failed validation of condition {failed}; run the validate command")
    return problem, phi


def build_grid(cfg: dict) -> np.ndarray:
    grid = require_object(cfg.get("grid", {"min": -2.0, "max": 2.0, "n": 21}), "grid",
                          ("min", "max", "n"))
    lo = require_number(grid["min"], "grid min")
    hi = require_number(grid["max"], "grid max", ge=lo)
    return np.linspace(lo, hi, require_number(grid["n"], "grid n", integer=True,
                                              ge=1, le=100_000))


def build_solver(cfg: dict) -> SolverConfig:
    overrides = require_object(cfg.get("solver", {}), "solver override",
                               optional=[f.name for f in fields(SolverConfig)])
    return SolverConfig(**overrides)


def build_sim(cfg: dict, args) -> SimConfig:
    overrides = dict(require_object(cfg.get("mc", {}), "mc setting",
                                    optional=[f.name for f in fields(SimConfig)]))
    overrides.update((k, v) for k, v in (("paths", args.paths), ("seed", args.seed))
                     if v is not None)
    return SimConfig(**overrides)


def times(cfg: dict, problem: Problem) -> tuple:
    """(start times, t) with 0 <= s < t <= horizon; s is one number or a list."""
    t = float(require_number(cfg.get("t"), "t", gt=0, le=problem.horizon))
    s = cfg.get("s", 0.0)
    s_values = s if isinstance(s, list) and s else [s]
    return [float(require_number(v, "s", ge=0, lt=t)) for v in s_values], t


def start_time(cfg: dict, problem: Problem) -> tuple:
    """(s, t) for a command that runs from a single start time."""
    s_values, t = times(cfg, problem)
    if len(s_values) > 1:
        raise ConfigError(f"this command takes one start time s, got {len(s_values)}")
    return s_values[0], t


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


def entry(check: str, case: str, statistic: float, tolerance: float) -> dict:
    return {"check": check, "case": case, "statistic": float(statistic),
            "tolerance": float(tolerance), "pass": bool(statistic <= tolerance)}


# -- commands -------------------------------------------------------------------


def cmd_validate(cfg: dict, args) -> int:
    report = audit(cfg)[2]
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    write_text(args.out, text)
    return 0 if report.passed else 1


def cmd_solve(cfg: dict, args) -> int:
    problem, phi = validated(cfg)
    s_values, t = times(cfg, problem)
    grid = build_grid(cfg)
    precision = require_number(cfg.get("precision", 12), "precision",
                               integer=True, ge=1, le=17)
    op = SemigroupOperator(problem, build_solver(cfg))
    op.densities(min(s_values), t, phi)  # one solve serves every start time
    lines = ["s,x,u,side"]
    for s_val in s_values:
        field = op.apply(s_val, t, phi)
        values = field(grid)
        for x_val, u_val in zip(grid, np.atleast_1d(values)):
            side = problem.side_of(s_val, float(x_val))
            lines.append(",".join([fmt_sig(s_val, precision),
                                   fmt_sig(float(x_val), precision),
                                   fmt_sig(float(u_val), precision), side]))
    write_text(args.out, "\n".join(lines) + "\n")
    if args.dump_kernels:
        _dump_kernels(op, phi, t, min(s_values), args.dump_kernels)
    return 0


def _dump_kernels(op, phi, t, s_min, path):
    dens = op.densities(s_min, t, phi)
    assembler = KernelAssembler(op.problem, op.evaluator, op.solver)
    sample_s = dens.mesh[:: max(1, len(dens.mesh) // 8)]
    taus = np.linspace(sample_s, t, 6)[1:-1].T
    values = assembler.system_kernel_matrix(sample_s[:, None], taus)
    kernels = [{"s": float(sv), "tau": taus[k].tolist(),
                "values": values[:, :, k].reshape(4, -1).tolist()}
               for k, sv in enumerate(sample_s)]
    payload = {
        "schema": "kernel-dump.v1",
        "terminal_time": t,
        "mesh": [float(v) for v in dens.mesh],
        "w1": [float(v) for v in dens.w1],
        "w2": [float(v) for v in dens.w2],
        "kernels": kernels,
    }
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_check(cfg: dict, args) -> int:
    problem, phi = validated(cfg)
    s, t = start_time(cfg, problem)
    grid = build_grid(cfg)
    suite = cfg.get("suite", args.suite)
    if suite not in ("semigroup", "conjugation", "generator", "parametrix"):
        raise ConfigError(f"unknown check suite {suite!r}")
    op = SemigroupOperator(problem, build_solver(cfg))
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

    write_text(args.out, report_json(f"check:{suite}", entries))
    return 0 if all(e["pass"] for e in entries) else 1


def cmd_compare_mc(cfg: dict, args) -> int:
    problem, phi = validated(cfg)
    s, t = start_time(cfg, problem)
    grid = build_grid(cfg)
    config = build_sim(cfg, args)
    config.steps(s, t)  # a dt too fine for (s, t) is refused before the solve
    # one array call, as in solve, so that both report the same values
    solver_values = SemigroupOperator(problem, build_solver(cfg)).apply(s, t, phi)(grid)
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
    write_text(args.out, report_json("compare-mc", entries,
                                     {"results": [c.to_dict() for c in comparisons],
                                      "paths": config.paths, "seed": config.seed}))
    return 0 if all(e["pass"] for e in entries) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="memdiff",
                                description="membrane-diffusion semigroup solver")
    p.add_argument("command",
                   choices=["validate", "solve", "check", "compare-mc"])
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--dump-kernels", default=None,
                   help="write kernel tables and density mesh to this path")
    p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    p.add_argument("--paths", type=int, default=None, help="Monte Carlo paths")
    p.add_argument("--suite", default="semigroup",
                   help="check suite when not given in the config")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.command == "validate":
            return cmd_validate(cfg, args)
        if args.command == "solve":
            return cmd_solve(cfg, args)
        if args.command == "check":
            return cmd_check(cfg, args)
        return cmd_compare_mc(cfg, args)
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
