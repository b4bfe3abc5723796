"""Quadrature building blocks: Gauss-Legendre panels and Gauss-Jacobi product rules.

Every rule on an interval is made here, from one cached reference rule per
(n, left_exp, right_exp) on (0, 1) and one mapper (interval_nodes) that
places its nodes at a + (b - a) theta.  Rules are returned in "division"
form: nodes x and weights w such that integral(f) ~ sum(w * f(x)) for
integrands f that behave like (x-a)**left_exp * (b-x)**right_exp * smooth
near the interval ends.  The singular factors are folded into the weights,
taken on the mapped nodes, so call sites evaluate the raw integrand at
interior nodes only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import SingularIntegrandError

# rules kept per rule cache: over 30 requests the const-solve, varcoef-solve,
# audit and mc-compare benchmarks put 7, 11, 8 and 7 keys in reference_rule.
# The Jacobi exponents follow holder_exponent, so each new problem may add one
RULE_CACHE = 64


@lru_cache(maxsize=RULE_CACHE)
def reference_rule(n: int, left_exp: float, right_exp: float):
    """(theta, w): the n-point rule on (0, 1) with nodes theta = (xi + 1) / 2
    and the raw weights w of its reference rule on [-1, 1], Gauss-Legendre
    when both exponents are zero and else Gauss-Jacobi with weight
    (1 - xi)^right_exp (1 + xi)^left_exp."""
    if left_exp == 0.0 and right_exp == 0.0:
        xi, w = np.polynomial.legendre.leggauss(n)
    else:
        xi, w = roots_jacobi(n, right_exp, left_exp)
    return 0.5 * (xi + 1.0), w


def interval_nodes(a, b, theta):
    """The nodes a + (b - a) theta of increasing unit nodes theta; a and b
    broadcast against theta, one interval per row of its trailing axis.
    Raises SingularIntegrandError when an interval is empty or so narrow
    that a node rounds onto an end, where the integrand is singular or
    undefined."""
    x = (b - a) * theta
    x += a
    # theta increases, so the end nodes decide
    if not ((x[..., :1] > a).all() and (x[..., -1:] < b).all()):
        raise SingularIntegrandError("a quadrature node rounded onto an end of its interval")
    return x


def singular_rule(a, b, n: int, left_exp: float = 0.0, right_exp: float = 0.0):
    """Product rule on (a, b) for integrands ~ (x-a)^left * (b-x)^right * smooth.

    Returns nodes strictly inside (a, b) and weights applying to the raw
    integrand.  With both exponents zero this is plain Gauss-Legendre.  The
    ends a and b may be arrays that broadcast together: nodes and weights
    then carry one trailing axis of n points per interval.  Raises
    SingularIntegrandError as interval_nodes does.
    """
    if not (isinstance(a, float) and isinstance(b, float)):
        a = np.asarray(a, dtype=float)[..., None]
        b = np.asarray(b, dtype=float)[..., None]
    theta, wi = reference_rule(n, left_exp, right_exp)
    x = interval_nodes(a, b, theta)
    half = 0.5 * (b - a)
    if left_exp == 0.0 and right_exp == 0.0:
        return x, wi * half
    w = wi * half ** (1.0 + left_exp + right_exp)
    w = w * (x - a) ** (-left_exp) * (b - x) ** (-right_exp)
    return x, w


def panel_rule(edges, n: int):
    """Composite Gauss-Legendre rule over consecutive panels given by edges."""
    edges = np.asarray(edges, dtype=float)
    theta, wi = reference_rule(n, 0.0, 0.0)
    span = np.diff(edges)[:, None]
    return (edges[:-1, None] + span * theta).ravel(), (0.5 * span * wi).ravel()


# half-width, in units of the local Gaussian scale, of every space window:
# past 8 scales a Gaussian factor is below 1.3e-14 of its peak
R_CUT = 8.0


@lru_cache(maxsize=RULE_CACHE)
def unit_window(n_per_panel: int):
    """Fixed rule for integrals of a Gaussian-localized factor.

    Offsets u and weights omega such that, for a spike of scale sigma at
    center c, integral(f) ~ sigma * sum(omega * f(c + u * sigma)).  Panels
    cluster near the center where the spike lives.
    """
    edges = np.array([-R_CUT, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, R_CUT])
    return panel_rule(edges, n_per_panel)


def window_nodes(center, scale, n_per_panel: int):
    """Broadcast the unit window onto per-site centers and scales.

    center and scale may be arrays of equal shape; the returned nodes and
    weights have one extra trailing axis for the window points.
    """
    u, w = unit_window(n_per_panel)
    center = np.asarray(center, dtype=float)[..., None]
    scale = np.asarray(scale, dtype=float)[..., None]
    return center + u * scale, w * scale
