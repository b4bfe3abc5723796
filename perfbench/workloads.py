"""Seeded workloads of the memdiff benchmark.

A workload turns a seed into a stream of requests.  ``execute`` runs one
request and is the only timed part; ``verify`` checks the outputs against
the oracles of the acceptance suite, at its tolerances, and returns the
ratios statistic / tolerance.  A ratio above 1 fails the request.
``fingerprint`` gives the bytes of a request's outputs, so that two runs of
one request can be compared bitwise.

Continuous parameters come from ``Stratified`` draws: every block of K
draws visits each of K equal strata of the range once, in seeded order.
A run then covers each parameter range evenly, whatever the seed, which
keeps run-level medians and maxima steady from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from memdiff import cli, mc_oracle
from memdiff.boundary_system import SolverConfig, first_kind_residual
from memdiff.parametrix import CorrectionQuadrature
from memdiff.problem import (
    Atom,
    CoefficientField,
    InitialFunction,
    JumpMeasure,
    MembranePath,
    Problem,
    SideSpec,
    TimeFunction,
    WentzellData,
)
from memdiff.semigroup import SemigroupOperator

# acceptance-suite tolerances (tests/test_acceptance.py, tests/test_semigroup.py)
TOL_HEAT = 1e-3
TOL_SKEW = 1e-2
TOL_FIRST_KIND = 1e-3
TOL_CONSERVATION = 1e-3
TOL_VARCOEF_CONSERVATION = 5e-3
MC_K_SIGMA = 3.0


class CheckFailed(Exception):
    """A request's output broke an invariant that has no tolerance."""


class Stratified:
    """Uniform draws on [lo, hi): each block of K draws hits every stratum once."""

    K = 4

    def __init__(self, rng: np.random.Generator, lo: float, hi: float):
        self.rng = rng
        self.lo = lo
        self.hi = hi
        self._queue: list = []

    def __call__(self) -> float:
        if not self._queue:
            self._queue = [int(i) for i in self.rng.permutation(self.K)]
        u = (self._queue.pop() + self.rng.random()) / self.K
        return self.lo + (self.hi - self.lo) * u


def constant_problem(b1=1.0, b2=1.0, q1=0.5, q2=0.5, membrane=None, atoms=(),
                     horizon=1.5) -> Problem:
    """Constant coefficients per side, zero drift, optional moving membrane and atoms."""
    lo, hi = 0.5 * min(b1, b2), 2.0 * max(b1, b2)
    sides = [SideSpec(CoefficientField.constant(0.0), CoefficientField.constant(b),
                      diffusion_min=lo, diffusion_max=hi) for b in (b1, b2)]
    wentzell = WentzellData(TimeFunction.constant(q1), TimeFunction.constant(q2),
                            JumpMeasure(tuple(atoms)))
    return Problem(left=sides[0], right=sides[1],
                   membrane=membrane or MembranePath.constant(0.0),
                   wentzell=wentzell, horizon=horizon)


def unit_atom(position: float) -> Atom:
    return Atom(TimeFunction.constant(position), TimeFunction.constant(1.0))


def heat_closed_form(phi: InitialFunction, elapsed: float, x):
    """T_{s,t} of a Gaussian bump under the unit heat semigroup."""
    amp, c, w = phi.params
    var = w * w + elapsed
    return amp * w / math.sqrt(var) * np.exp(-((x - c) ** 2) / (2.0 * var))


# ---------------------------------------------------------------------------
# constant-coefficient problem families
# ---------------------------------------------------------------------------

# |centre| and width of phi for two-scale problems.  With phi concentrated
# at the membrane the first-kind residual of a two-scale solve exceeds its
# 1e-3 tolerance at this solver's default settings (2.8e-3 for b2 = 4,
# t = 1.25, phi centred at 0 with width 0.4), so two-scale draws keep phi
# off the membrane, where the worst residual is 0.57e-3.
TWO_SCALE_PHI = ((0.4, 0.5), (0.5, 0.8))


class ConstantFamilies:
    """Seeded draws from the constant-coefficient families.

    skew-moving: q = 0.25/0.75, h(s) = A sin 2s with A in [0.05, 0.15];
    two-scale: b1 = 1, b2 in [2, 4]; atoms: unit atoms at -a and +b with a,
    b in [0.8, 1.2]; heat and flat-skew have no parameter.  t lies in
    [0.5, 1.25]; phi is a unit Gaussian bump with centre in [-0.5, 0.5] and
    width in [0.4, 0.8], except for two-scale (see TWO_SCALE_PHI).
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._draws: dict = {}

    def _draw(self, family: str, what: str, lo: float, hi: float) -> float:
        key = (family, what)
        if key not in self._draws:
            self._draws[key] = Stratified(self.rng, lo, hi)
        return self._draws[key]()

    def problem(self, family: str) -> Problem:
        if family == "heat":
            return constant_problem()
        if family == "flat-skew":
            return constant_problem(q1=0.25, q2=0.75)
        if family == "skew-moving":
            amp = self._draw(family, "A", 0.05, 0.15)
            return constant_problem(q1=0.25, q2=0.75,
                                    membrane=MembranePath("sinusoidal", [0.0, amp, 2.0]))
        if family == "two-scale":
            return constant_problem(b2=self._draw(family, "b2", 2.0, 4.0))
        if family == "atoms":
            return constant_problem(atoms=(unit_atom(-self._draw(family, "a", 0.8, 1.2)),
                                           unit_atom(self._draw(family, "b", 0.8, 1.2))))
        raise ValueError(f"unknown family {family!r}")

    def t(self, family: str) -> float:
        return self._draw(family, "t", 0.5, 1.25)

    def phi(self, family: str) -> InitialFunction:
        if family == "two-scale":
            # off the membrane only: see TWO_SCALE_PHI
            side = -1.0 if self._draw(family, "side", 0.0, 1.0) < 0.5 else 1.0
            return InitialFunction.gaussian(
                1.0, side * self._draw(family, "centre", *TWO_SCALE_PHI[0]),
                self._draw(family, "width", *TWO_SCALE_PHI[1]))
        return InitialFunction.gaussian(1.0, self._draw(family, "centre", -0.5, 0.5),
                                        self._draw(family, "width", 0.4, 0.8))


class Workload:
    """Base: a deterministic request stream; subclasses run and check requests."""

    name = ""
    # requests in one pass of the stream.  A traced run runs one pass, so
    # that its call counts repeat exactly from run to run; a timed run runs
    # whole passes, so that its mix of requests is the same from run to run
    pass_requests = 1

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self._requests: list = []

    def warmup_request(self):
        """A fixed request, the same for every seed.  Where the inputs have a
        worst case for accuracy, it is that case, so that its check bounds
        accuracy_ratio_max from below in every run."""
        raise NotImplementedError

    def request(self, k: int):
        while len(self._requests) <= k:
            self._requests.append(self._generate(len(self._requests)))
        return self._requests[k]

    def _generate(self, k: int):
        raise NotImplementedError

    def execute(self, req):
        raise NotImplementedError

    def verify(self, req, result) -> list:
        raise NotImplementedError

    def fingerprint(self, req, result) -> bytes:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# const-solve
# ---------------------------------------------------------------------------

@dataclass
class SolveRequest:
    family: str
    problem: Problem
    t: float
    phi: InitialFunction


class ConstSolve(Workload):
    """Cold SemigroupOperator, apply(0, t, phi) on a 41-point grid."""

    name = "const-solve"
    # a cycle: three skew-moving, two two-scale, two atoms, and one cheap
    # closed-form problem that alternates between heat and flat-skew
    CYCLE = ("skew-moving", "two-scale", "atoms", "skew-moving", "two-scale",
             "atoms", "skew-moving", "closed-form")
    GRID = np.linspace(-2.0, 2.0, 41)
    pass_requests = len(CYCLE)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.families = ConstantFamilies(np.random.default_rng([seed, 1]))

    def _generate(self, k: int) -> SolveRequest:
        family = self.CYCLE[k % len(self.CYCLE)]
        if family == "closed-form":
            family = ("heat", "flat-skew")[(k // len(self.CYCLE)) % 2]
        return SolveRequest(family, self.families.problem(family),
                            self.families.t(family), self.families.phi(family))

    def warmup_request(self) -> SolveRequest:
        return SolveRequest("two-scale", constant_problem(b2=4.0), 1.25,
                            InitialFunction.gaussian(1.0, TWO_SCALE_PHI[0][0], 0.6))

    def execute(self, req: SolveRequest):
        op = SemigroupOperator(req.problem)
        return op, op.apply(0.0, req.t, req.phi)(self.GRID)

    def verify(self, req: SolveRequest, result) -> list:
        op, values = result
        grid = self.GRID
        if req.family == "heat":
            err = np.max(np.abs(values - heat_closed_form(req.phi, req.t, grid)))
            return [err / TOL_HEAT]
        if req.family == "flat-skew":
            params = mc_oracle.SkewParams.from_problem(req.problem)
            oracle = np.array([mc_oracle.skew_action(params, req.t, float(x), req.phi)
                               for x in grid])
            return [np.max(np.abs(values - oracle)) / TOL_SKEW]
        dens = op.densities(0.0, req.t, req.phi)
        resid = first_kind_residual(req.problem, req.phi, req.t, dens, op.evaluator)
        ones = op.apply(0.0, req.t, InitialFunction.one())(grid)
        return [np.max(np.abs(resid)) / (TOL_FIRST_KIND * req.phi.sup_norm),
                np.max(np.abs(ones - 1.0)) / TOL_CONSERVATION]

    def fingerprint(self, req, result) -> bytes:
        return result[1].tobytes()


# ---------------------------------------------------------------------------
# varcoef-solve
# ---------------------------------------------------------------------------

@dataclass
class VarcoefRequest:
    problem: Problem
    t: float
    points: np.ndarray


class VarcoefSolve(Workload):
    """One variable-diffusion side at reduced settings: the density solve of
    the constant-one datum, then its field at three points.

    The points lie on the constant side, where the field costs no
    correction table: a point on the variable side, or on the membrane,
    would add about 116 point tables and double the request, leaving only
    three or four requests per run.  The solve's own tables (one per mesh
    node and kernel node) stay the bulk of the time.
    """

    name = "varcoef-solve"
    SOLVER = SolverConfig(mesh_n=10, n_kernel=6, n_holmgren=10)
    CORRECTION = CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6, n_space=6, depth=4)
    ONE = InitialFunction.one()
    POINT_RANGES = ((0.05, 0.35), (0.35, 0.65), (0.65, 1.0))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        self._amp = Stratified(rng, 0.15, 0.25)
        self._t = Stratified(rng, 0.3, 0.5)
        self._points = [Stratified(rng, lo, hi) for lo, hi in self.POINT_RANGES]

    @staticmethod
    def _request(amp: float, t: float, points) -> VarcoefRequest:
        variable = SideSpec(CoefficientField.constant(0.0),
                            CoefficientField("sinusoidal-in-s-and-x",
                                             [1.0, amp, 1.0, 0.0, 0.0]))
        constant = SideSpec(CoefficientField.constant(0.0), CoefficientField.constant(1.0))
        problem = Problem(left=variable, right=constant,
                          membrane=MembranePath.constant(0.0),
                          wentzell=WentzellData(TimeFunction.constant(0.5),
                                                TimeFunction.constant(0.5)),
                          horizon=1.0)
        return VarcoefRequest(problem, t, np.asarray(points, dtype=float))

    def _generate(self, k: int) -> VarcoefRequest:
        return self._request(self._amp(), self._t(), [draw() for draw in self._points])

    def warmup_request(self) -> VarcoefRequest:
        return self._request(0.25, 0.5, [lo for lo, _ in self.POINT_RANGES])

    def execute(self, req: VarcoefRequest):
        op = SemigroupOperator(req.problem, solver=self.SOLVER,
                               correction_quad=self.CORRECTION)
        op.densities(0.0, req.t, self.ONE)
        return op.apply(0.0, req.t, self.ONE)(req.points)

    def verify(self, req, values) -> list:
        return [np.max(np.abs(values - 1.0)) / TOL_VARCOEF_CONSERVATION]

    def fingerprint(self, req, values) -> bytes:
        return values.tobytes()


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

@dataclass
class AuditRequest:
    slot: int
    config: Path


class Audit(Workload):
    """In-process ``memdiff check`` on generated configs that repeat.

    The pool holds one config per slot below; requests cycle through it,
    so every config after the first pass must reproduce its first report
    byte for byte.
    """

    name = "audit"
    SLOTS = (("skew-moving", "semigroup"), ("two-scale", "conjugation"),
             ("atoms", "semigroup"), ("heat", "semigroup"),
             ("skew-moving", "conjugation"), ("two-scale", "semigroup"),
             ("atoms", "conjugation"), ("flat-skew", "conjugation"))
    pass_requests = len(SLOTS)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        families = ConstantFamilies(np.random.default_rng([seed, 3]))
        self._first_reports: dict = {}
        self._configs = [
            self._write_config(f"audit-{slot}.json", families.problem(family),
                               families.t(family), families.phi(family), suite)
            for slot, (family, suite) in enumerate(self.SLOTS)]

    def _write_config(self, name: str, problem: Problem, t: float,
                      phi: InitialFunction, suite: str) -> Path:
        cfg = {"problem": problem.to_dict(), "s": 0.0, "t": t,
               "grid": {"min": -2.0, "max": 2.0, "n": 21},
               "phi": {"kind": phi.kind, "params": list(phi.params)},
               "suite": suite}
        path = self.workdir / name
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path

    def warmup_request(self) -> AuditRequest:
        phi = InitialFunction.gaussian(1.0, TWO_SCALE_PHI[0][0], 0.6)
        return AuditRequest(-1, self._write_config(
            "audit-warm-up.json", constant_problem(b2=4.0), 1.25, phi, "conjugation"))

    def _generate(self, k: int) -> AuditRequest:
        slot = k % len(self.SLOTS)
        return AuditRequest(slot, self._configs[slot])

    def execute(self, req: AuditRequest):
        """Exit code and report bytes of one check; the report file is removed."""
        report = self.workdir / f"audit-{req.slot}-report.json"
        code = cli.main(["check", "--config", str(req.config), "--out", str(report)])
        if not report.exists():
            return code, b""
        text = report.read_bytes()
        report.unlink()
        return code, text

    def verify(self, req: AuditRequest, result) -> list:
        code, text = result
        if code != 0:
            raise CheckFailed(f"check exited {code}")
        report = json.loads(text)
        if report["passed"] is not True:
            raise CheckFailed("report not passed")
        first = self._first_reports.setdefault(req.slot, text)
        if first != text:
            raise CheckFailed(f"report of slot {req.slot} differs from its first run")
        return [e["statistic"] / e["tolerance"] for e in report["checks"]]

    def fingerprint(self, req, result) -> bytes:
        code, text = result
        return bytes([code]) + text


# ---------------------------------------------------------------------------
# mc-compare
# ---------------------------------------------------------------------------

@dataclass
class MCRequest:
    case: int
    point: int


class MCCompare(Workload):
    """One simulate() grid point and its z-score against the solver.

    Flat membranes only, where the resolve step is exact: the heat and
    skew configs of configs/ and a two-scale problem (b2 = 4), each with the
    configs' phi, t = 1 and 13-point grid.  Every request uses the MC seed
    of configs/ (42), so a point's z-score is a fixed number; the seed
    orders the 39 points, one seeded permutation per pass.  The solver
    values are computed once, in set-up.
    """

    name = "mc-compare"
    PHI = InitialFunction.gaussian(1.0, 0.3, 0.6)
    GRID = np.linspace(-1.5, 1.5, 13)
    T = 1.0
    SIM = mc_oracle.SimConfig(paths=5000, dt=0.002, seed=42)
    pass_requests = 6

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._rng = np.random.default_rng([seed, 4])
        self.problems = [constant_problem(), constant_problem(q1=0.25, q2=0.75),
                         constant_problem(b2=4.0)]
        self.solver_values = [SemigroupOperator(p).apply(0.0, self.T, self.PHI)(self.GRID)
                              for p in self.problems]
        self._points = [(c, i) for c in range(len(self.problems))
                        for i in range(len(self.GRID))]

    def _generate(self, k: int) -> MCRequest:
        n = len(self._points)
        if k % n == 0:
            self._order = self._rng.permutation(n)
        case, i = self._points[self._order[k % n]]
        return MCRequest(case, i)

    def warmup_request(self) -> MCRequest:
        return MCRequest(0, len(self.GRID) - 1)  # the largest z-score at seed 42

    def execute(self, req: MCRequest):
        x = float(self.GRID[req.point])
        res = mc_oracle.simulate(self.problems[req.case], 0.0, x, self.T, self.PHI,
                                 self.SIM)
        return mc_oracle.compare(float(self.solver_values[req.case][req.point]),
                                 res.mean, res.stderr, MC_K_SIGMA)

    def verify(self, req, cmp) -> list:
        return [cmp.z_score / MC_K_SIGMA]

    def fingerprint(self, req, cmp) -> bytes:
        return np.array([cmp.mc_estimate, cmp.stderr, cmp.z_score]).tobytes()


WORKLOADS = {w.name: w for w in (ConstSolve, VarcoefSolve, Audit, MCCompare)}
