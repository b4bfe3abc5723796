"""Quadrature building blocks: Gauss-Legendre panels and Gauss-Jacobi product rules.

Every rule here is returned in "division" form: nodes x and weights w such
that integral(f) ~ sum(w * f(x)) for integrands f that behave like
(x-a)**left_exp * (b-x)**right_exp * smooth near the interval ends.  The
singular factors are folded into the weights so call sites evaluate the raw
integrand at interior nodes only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import SingularIntegrandError

# rules kept per reference cache (a benchmark workload uses at most 8): the
# Jacobi exponents follow holder_exponent, so each new problem may add one
RULE_CACHE = 64


@lru_cache(maxsize=RULE_CACHE)
def gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=RULE_CACHE)
def _jacobi(n: int, a: float, b: float):
    # weight (1-x)^a (1+x)^b on [-1, 1]
    x, w = roots_jacobi(n, a, b)
    return x, w


def singular_rule(a, b, n: int, left_exp: float = 0.0, right_exp: float = 0.0):
    """Product rule on (a, b) for integrands ~ (x-a)^left * (b-x)^right * smooth.

    Returns nodes strictly inside (a, b) and weights applying to the raw
    integrand.  With both exponents zero this is plain Gauss-Legendre.  The
    ends a and b may be arrays that broadcast together: nodes and weights
    then carry one trailing axis of n points per interval, each the affine
    image of the cached reference rule.  Raises SingularIntegrandError when
    an interval is empty or so narrow that a node rounds onto an end, where
    the integrand is singular or undefined.
    """
    scalar = isinstance(a, float) and isinstance(b, float)
    if not scalar:
        a = np.asarray(a, dtype=float)[..., None]
        b = np.asarray(b, dtype=float)[..., None]
    plain = left_exp == 0.0 and right_exp == 0.0
    xi, wi = gauss_legendre(n) if plain else _jacobi(n, right_exp, left_exp)
    half = 0.5 * (b - a)
    x = a + half * (xi + 1.0)
    # the reference nodes increase, so the end nodes decide
    if not (x[0] > a and x[-1] < b if scalar
            else (x[..., :1] > a).all() and (x[..., -1:] < b).all()):
        raise SingularIntegrandError("a quadrature node rounded onto an end of its interval")
    if plain:
        return x, wi * half
    w = wi * half ** (1.0 + left_exp + right_exp)
    w = w * (x - a) ** (-left_exp) * (b - x) ** (-right_exp)
    return x, w


def panel_rule(edges, n: int):
    """Composite Gauss-Legendre rule over consecutive panels given by edges."""
    edges = np.asarray(edges, dtype=float)
    xi, wi = gauss_legendre(n)
    nodes = edges[:-1, None] + 0.5 * np.diff(edges)[:, None] * (xi[None, :] + 1.0)
    weights = 0.5 * np.diff(edges)[:, None] * wi[None, :]
    return nodes.ravel(), weights.ravel()


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
