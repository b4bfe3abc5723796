"""Closed forms that serve only as test oracles.

The transition density of the two-scale problem, the oscillating Brownian
motion of Keilson and Wellner: a unit skew Brownian motion rescaled on each
side of the membrane by that side's own constant diffusion scale.  The skew
closed forms it builds on stay in memdiff.mc_oracle, where the benchmark
workloads reach them.
"""

from __future__ import annotations

import math

import numpy as np

from memdiff.mc_oracle import SkewParams, skew_density
from memdiff.problem import Problem


def two_scale_density(problem: Problem, dt: float, x, y):
    """Transition density of the two-scale problem after elapsed time dt.

    Constant diffusions b1 and b2, zero drifts, constant q, a flat membrane
    at h and no atoms.  X = h + sigma(Y) Y with Y a unit skew Brownian
    motion of parameter beta = q2 sqrt(b1) / (q1 sqrt(b2) + q2 sqrt(b1))
    and sigma = sqrt(b1) left, sqrt(b2) right (the oscillating Brownian
    motion of Keilson and Wellner), so

        p(dt, x, y) = p_skew^beta(dt, (x - h)/sigma(x), (y - h)/sigma(y)) / sigma(y).

    beta is written out here, apart from Problem.membrane_weights, so that
    the closed form stays an independent check of the solver.
    """
    left, right = problem.left, problem.right
    if not (left.diffusion.is_constant and right.diffusion.is_constant
            and all(f.is_constant and f.constant_value() == 0.0
                    for f in (left.drift, right.drift))
            and problem.membrane.is_constant and problem.wentzell.measure.is_null
            and problem.wentzell.q1.is_constant and problem.wentzell.q2.is_constant):
        raise ValueError("the two-scale closed form needs constant diffusions, zero "
                         "drifts, constant q, a flat membrane and no atoms")
    r1 = math.sqrt(left.diffusion.constant_value())
    r2 = math.sqrt(right.diffusion.constant_value())
    q1 = float(problem.q(1, 0.0))
    q2 = float(problem.q(2, 0.0))
    beta = q2 * r1 / (q1 * r2 + q2 * r1)
    h = float(problem.h(0.0))
    x = np.asarray(x, dtype=float) - h
    y = np.asarray(y, dtype=float) - h
    sigma_y = np.where(y >= 0.0, r2, r1)
    out = skew_density(SkewParams(beta), dt, x / np.where(x >= 0.0, r2, r1),
                       y / sigma_y) / sigma_y
    return float(out) if np.ndim(out) == 0 else out
