"""The two-parameter transition operators and their verification checks.

apply(s, t, phi) evaluates the solution field of the pasting problem as a
function of the space variable: the Poisson potential of the side the point
lies on plus that side's simple-layer potential, with the layer densities
solved once per (t, phi) and memoized: the first solve serves every later
start, and an earlier start gets a solve of its own that replaces nothing.
The remaining operations are the audits that `memdiff check` runs: the
semigroup laws (two-parameter composition, positivity, contraction), the
interface conditions, and the weak generator pairing, whose membrane term
carries the Dirac drift weight of EffectiveCoefficients.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ._quadrature import panel_rule
from .boundary_system import SolverConfig, flux_condition, solve_densities
from .errors import TimeOrderError
from .parametrix import CorrectionQuadrature
from .potentials import DensityPair, PotentialEvaluator
from .problem import InitialFunction, Problem


class SemigroupField:
    """Evaluable snapshot x -> u(s, x, t) of one transition operator."""

    def __init__(self, op: "SemigroupOperator", s: float, t: float,
                 phi: InitialFunction, densities: DensityPair | None):
        self.op = op
        self.s = s
        self.t = t
        self.phi = phi
        self.densities = densities

    def __call__(self, x):
        if self.densities is None:  # s == t: identity operator
            return self.phi(x)
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        ev = self.op.evaluator
        side = self.op.problem.side_index(self.s, x_arr)
        out = np.empty_like(x_arr)
        for i in (1, 2):
            mask = side == i
            if np.any(mask):
                out[mask] = ev.field(i, self.s, x_arr[mask], self.t, self.phi,
                                     self.densities)
        mem = side == 0
        if np.any(mem):
            vals = [ev.field(i, self.s, x_arr[mem], self.t, self.phi,
                             self.densities) for i in (1, 2)]
            out[mem] = 0.5 * (np.asarray(vals[0]) + np.asarray(vals[1]))
        return float(out[0]) if np.ndim(x) == 0 else out

    def derivative_limits(self):
        """One-sided x-derivative limits (left side, right side) at h(s)."""
        prob = self.op.problem
        ev = self.op.evaluator
        h = float(prob.h(self.s))
        if self.densities is None:
            d = self.phi.derivative(h, 1)
            return (d, d)
        out = []
        for i in (1, 2):
            smooth = ev.poisson(i, self.s, h, self.t, self.phi, p=1)
            left, right = ev.conormal_jump(i, self.s, self.t, self.densities)
            out.append(smooth + (left if i == 1 else right))
        return tuple(out)


class EffectiveCoefficients:
    """Generator coefficients of the pasted process when the measure is null:
    dirac_drift is the weight of the drift's point mass on the membrane."""

    def __init__(self, problem: Problem):
        self.problem = problem

    def dirac_drift(self, s: float) -> float:
        _, (d1, d2) = self.problem.membrane_weights(s)
        return 0.5 * (d1 + d2) * (float(self.problem.q(2, s))
                                  - float(self.problem.q(1, s)))


class SemigroupOperator:
    """Memoizing front end for the transition operators of one problem."""

    def __init__(self, problem: Problem, solver: SolverConfig | None = None,
                 correction_quad: CorrectionQuadrature | None = None):
        self.problem = problem
        self.solver = solver or SolverConfig()
        self.evaluator = PotentialEvaluator(problem, correction_quad=correction_quad)
        self._memo: dict = {}
        self._lock = threading.Lock()

    # -- core ------------------------------------------------------------------

    def densities(self, s: float, t: float, phi: InitialFunction) -> DensityPair:
        # keyed by value: equal initial functions share one solve, stored
        # only under a new key
        key = (t,) + phi.key
        with self._lock:
            hit = self._memo.get(key)
        if hit is not None and hit.s_min <= s + 1e-14:
            return hit
        dens = solve_densities(self.problem, phi, t, s_min=s, config=self.solver,
                               evaluator=self.evaluator)
        with self._lock:
            self._memo.setdefault(key, dens)
        return dens

    def apply(self, s: float, t: float, phi: InitialFunction) -> SemigroupField:
        """The operator at (s, t) as an evaluable field; identity when s == t."""
        if s > t:
            raise TimeOrderError("apply needs s <= t")
        if s == t:
            return SemigroupField(self, s, t, phi, None)
        return SemigroupField(self, s, t, phi, self.densities(s, t, phi))

    # -- semigroup-law checks ------------------------------------------------------

    def chapman_kolmogorov_gap(self, s: float, tau: float, t: float,
                               phi: InitialFunction, x_grid) -> float:
        """Sup discrepancy of T_st phi vs T_s,tau applied to T_tau,t phi.

        The intermediate field is re-ingested as a tabulated initial
        function on 481 points of a dense window, with cubic interpolation.
        """
        if not (s <= tau <= t):
            raise TimeOrderError("need s <= tau <= t")
        x_grid = np.asarray(x_grid, dtype=float)
        direct = self.apply(s, t, phi)(x_grid)
        inner = self.apply(tau, t, phi)
        b_max = self.problem.diffusion_bounds_rough()[1]
        pad = 8.0 * math.sqrt(b_max * max(t - s, 1e-12)) + 1.0
        x_dense = np.linspace(float(np.min(x_grid)) - pad,
                              float(np.max(x_grid)) + pad, 481)
        phi_mid = InitialFunction.from_samples(x_dense, inner(x_dense))
        outer = self.apply(s, tau, phi_mid)(x_grid)
        return float(np.max(np.abs(outer - direct)))

    def positivity_contraction(self, s: float, t: float, phi: InitialFunction,
                               x_grid):
        """(min value, sup norm) of the field over the audit grid."""
        vals = self.apply(s, t, phi)(np.asarray(x_grid, dtype=float))
        return float(np.min(vals)), float(np.max(np.abs(vals)))

    def conjugation_residuals(self, s: float, t: float, phi: InitialFunction):
        """Residuals of the two interface conditions at (s, t).

        First: the trace gap across the membrane.  Second: the weighted
        one-sided flux difference plus the jump-measure increments.
        """
        if s >= t:
            raise TimeOrderError("conjugation residuals need s < t")
        ev = self.evaluator
        dens = self.densities(s, t, phi)
        h = float(self.problem.h(s))
        traces = [ev.field(i, s, h, t, phi, dens) for i in (1, 2)]
        slopes = SemigroupField(self, s, t, phi, dens).derivative_limits()
        # the flux condition on the field, with its traces at h reused
        b2_res = -sum(flux_condition(self.problem, j, s, h, slopes[j - 1], lambda x, on: (
            traces[j - 1] if x == h else ev.field(j, s, x, t, phi, dens))) for j in (1, 2))
        return (float(traces[0] - traces[1]), float(b2_res))

    # -- generator-level checks -----------------------------------------------------

    def _generator_apply(self, s: float, phi: InitialFunction, x):
        """L_s phi pointwise, with membrane weights on the interface."""
        x = np.asarray(x, dtype=float)
        side = self.problem.side_index(s, x)
        (l1, l2), _ = self.problem.membrane_weights(s)
        gen1, gen2 = (self._side_generator(i, s, phi, x) for i in (1, 2))
        out = np.where(side == 1, gen1, np.where(side == 2, gen2, l1 * gen1 + l2 * gen2))
        return out if out.shape else float(out)

    def _side_generator(self, i: int, s: float, phi: InitialFunction, x):
        """(1/2) b_i phi'' + a_i phi' at the points x."""
        return (0.5 * self.problem.diffusion(i, s, x) * phi.derivative(x, 2)
                + self.problem.drift(i, s, x) * phi.derivative(x, 1))

    def _interface_term(self, s: float, phi: InitialFunction) -> float:
        """(q_2 - q_1) phi'(h) + sum of w_k (phi(y_k) - phi(h)) at time s."""
        h = float(self.problem.h(s))
        slope = phi.derivative(h, 1)
        return float(sum(flux_condition(self.problem, j, s, h, slope, lambda x, on: phi(x))
                         for j in (1, 2)))

    def _transition_quotients(self, s: float, phi: InitialFunction, dt_values, x):
        """(T_{s,s+dt} phi - phi)/dt at the points x, one array per dt."""
        return [(self.apply(s, s + dt, phi)(x) - phi(x)) / dt for dt in dt_values]

    def weak_generator_pairing(self, s: float, phi: InitialFunction,
                               f: InitialFunction, dt_values):
        """Pairing of the transition quotient against a test function.

        Returns (list of lhs values, rhs): lhs(dt) pairs f with the quotient
        (T_{s,s+dt} phi - phi)/dt by a 24-panel, 12-point Gauss rule over
        the support, split at the membrane; rhs pairs f with the
        generator plus the membrane term carrying the Dirac drift weight and
        the jump-measure increments.
        """
        prob = self.problem
        h = float(prob.h(s))
        if phi.kind == "polynomial-clamped" or f.kind == "polynomial-clamped":
            c, _, r = f.params[:3] if f.kind == "polynomial-clamped" else phi.params[:3]
            lo, hi = c - r, c + r
        else:
            lo, hi = h - 6.0, h + 6.0
        edges = np.linspace(lo, hi, 25)
        if lo < h < hi:
            edges = np.unique(np.concatenate([edges, [h]]))
        x, w = panel_rule(edges, 12)
        f_vals = f(x)
        lhs = [float(np.sum(f_vals * quot * w))
               for quot in self._transition_quotients(s, phi, dt_values, x)]
        rhs = float(np.sum(f_vals * self._generator_apply(s, phi, x) * w))
        _, (d1, d2) = prob.membrane_weights(s)
        rhs += 0.5 * (d1 + d2) * self._interface_term(s, phi) * float(f(h))
        return lhs, rhs
