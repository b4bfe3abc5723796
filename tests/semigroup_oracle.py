"""Generator-level references for the transition operators.

Quantities of the paper's generator characterization that no memdiff
command computes, built here from the operator and its generator terms: the
Dirac drift weight on the membrane, the effective coefficients of the pasted
process at one space-time point, the displacement moments of the transition
law, and the domain check of the ordinary generator with its pointwise
limit.  The coefficients and the
moments are defined for an empty jump measure only; the tests that call
them use such problems.
"""

from __future__ import annotations

import math

import numpy as np

from memdiff.problem import InitialFunction, Problem
from memdiff.semigroup import SemigroupOperator


class EffectiveCoefficients:
    """Generator coefficients of the pasted process when the measure is null:
    dirac_drift is the weight of the drift's point mass on the membrane."""

    def __init__(self, problem: Problem):
        self.problem = problem

    def dirac_drift(self, s: float) -> float:
        _, (d1, d2) = self.problem.membrane_weights(s)
        return 0.5 * (d1 + d2) * (float(self.problem.q(2, s))
                                  - float(self.problem.q(1, s)))


def effective_coefficients(problem: Problem, s: float, x: float):
    """(diffusion, drift, Dirac drift weight) at one space-time point.

    Off the membrane these are the side coefficients; on it, the convex
    combination with the membrane weights, plus the Dirac drift weight."""
    i = int(problem.side_index(s, x))
    if i == 0:
        (l1, l2), _ = problem.membrane_weights(s)
        h = float(problem.h(s))
        b = l1 * float(problem.diffusion(1, s, h)) + l2 * float(problem.diffusion(2, s, h))
        a = l1 * float(problem.drift(1, s, h)) + l2 * float(problem.drift(2, s, h))
        return (b, a, EffectiveCoefficients(problem).dirac_drift(s))
    return (float(problem.diffusion(i, s, x)), float(problem.drift(i, s, x)), 0.0)


def transition_moments(op: SemigroupOperator, s: float, x: float, t: float):
    """Displacement moments of order 1, 2 and 4 of the transition law.

    The operator applied to clamped monomials centred at x, supported in a
    6-standard-deviation window."""
    b_max = op.problem.diffusion_bounds_rough()[1]
    r_out = 6.0 * math.sqrt(b_max * (t - s))
    out = []
    for k in (1, 2, 4):
        phi_k = InitialFunction("polynomial-clamped", [x, 0.5 * r_out, r_out] + [0.0] * k + [1.0])
        out.append(float(op.apply(s, t, phi_k)(x)))
    return tuple(out)


def generator_domain_check(op: SemigroupOperator, s: float, phi: InitialFunction,
                           dt_values, x_grid):
    """Domain residuals of the ordinary generator and the pointwise limit.

    residual 1: mismatch of the two side generators at the membrane;
    residual 2: the interface term that must vanish on the domain.  The
    pointwise limit check runs only when both residuals are at most 1e-8.
    """
    h = float(op.problem.h(s))
    res1 = float(abs(op._side_generator(1, s, phi, h) - op._side_generator(2, s, phi, h)))
    res2 = abs(op._interface_term(s, phi))
    result = {"residual_generator_match": res1,
              "residual_interface_term": res2,
              "in_domain": bool(res1 <= 1e-8 and res2 <= 1e-8),
              "limit_deviations": None}
    if not result["in_domain"]:
        return result
    x_grid = np.asarray(x_grid, dtype=float)
    gen = op._generator_apply(s, phi, x_grid)
    result["limit_deviations"] = [float(np.max(np.abs(quot - gen))) for quot
                                  in op._transition_quotients(s, phi, dt_values, x_grid)]
    return result
