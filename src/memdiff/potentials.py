"""Parabolic potentials: Poisson part, simple-layer part, conormal jump.

The solution field of one side splits as u_i = u_i0 + u_i1 with

    u_i0(s,x,t) = integral of G_i(s,x,t,y) phi(y) dy          (Poisson)
    u_i1(s,x,t) = integral over (s,t) of G_i(s,x,tau,h(tau))
                  V_i(tau,t) dtau                              (simple layer)

where the layer density carries a built-in inverse-square-root terminal
singularity: V_i(s,t) = (t-s)^(-1/2) W_i(s,t) with W_i bounded.  Solving
for W_i instead of V_i removes the singular unknown; the quadratures below
absorb the (t-tau)^(-1/2) factor and the membrane-trace singularity of G_i
into product-integration weights.  Each part has one routine on every side:
u_i0 is FundamentalSolution.terminal_integral of phi (on an exact side phi
on the window against a cached Gaussian profile), and u_i1 integrates over
one fixed time rule, built on arrays of start times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import singular_rule
from .errors import MeshMismatchError, TimeOrderError
from .parametrix import CorrectionQuadrature, FundamentalSolution
from .problem import InitialFunction, Problem


# grading exponent of the density mesh: squared spacing toward t matches the
# sqrt(t - s) behaviour of the regularized densities there
MESH_GAMMA = 2.0


def graded_mesh(t: float, s_min: float, n: int = 64) -> np.ndarray:
    """Time nodes s_k = t - (t - s_min) (k/n)^MESH_GAMMA, ascending, clustered at t."""
    if not s_min < t:
        raise TimeOrderError("graded mesh needs s_min < t")
    k = np.arange(1, n + 1)
    return (t - (t - s_min) * (k / n) ** MESH_GAMMA)[::-1].copy()


@dataclass
class DensityPair:
    """Regularized layer densities of both sides on a graded time mesh.

    Stores W_i at the mesh nodes; the physical densities are
    V_i(s,t) = (t-s)^(-1/2) W_i(s,t).  Between nodes W_i is interpolated
    linearly; beyond the last node (toward t) it is extended as a constant.
    """

    t: float
    mesh: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        self.mesh = np.asarray(self.mesh, dtype=float)
        self.w1 = np.asarray(self.w1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        if not (len(self.mesh) == len(self.w1) == len(self.w2)):
            raise MeshMismatchError("mesh and density arrays differ in length")
        if self.mesh[-1] >= self.t:
            raise MeshMismatchError("mesh nodes must stay below the terminal time")

    @property
    def s_min(self) -> float:
        return float(self.mesh[0])

    def w(self, i: int, tau):
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < self.mesh[0] - 1e-12):
            raise MeshMismatchError("evaluation time below the mesh span")
        out = np.interp(tau, self.mesh, self.w1 if i == 1 else self.w2)
        return out if out.shape else float(out)

    def v(self, i: int, tau):
        tau = np.asarray(tau, dtype=float)
        return self.w(i, tau) * (self.t - tau) ** (-0.5)

    def max_w(self) -> float:
        return float(max(np.max(np.abs(self.w1)), np.max(np.abs(self.w2)), 0.0))


# the layer time rule: a micro-panel and GEO_LEVELS panels of GEO_NODES
# points, and N_TIME terminal points (also the direct value's rule), 116 in
# all.  Raising any one (to 20, 12, 64) moved no layer value by over 2.1e-6
# (of up to 0.63; two-scale moving problem, points up to 2 off the membrane)
GEO_LEVELS = 13
GEO_NODES = 6
N_TIME = 32


def layer_time_rule(s, t: float):
    """Composite rule for the layer-potential time integral, one row of
    nodes and weights per start time s (an array or a scalar).

    The integrand carries a (t-tau)^(-1/2) density factor at the right end
    and, near tau = s, either a (tau-s)^(-1/2) trace singularity (evaluation
    on the membrane) or a Gaussian boundary layer of width (x-h)^2/b
    (evaluation near it).  A fixed rule resolves every scale: one Jacobi
    micro-panel at the left end, Gauss panels between the edges
    s + (mid - s) 4^(k - GEO_LEVELS), k = 0 .. GEO_LEVELS, up to the
    midpoint mid, and a Jacobi half for the terminal singularity.
    """
    s = np.asarray(s, dtype=float)
    mid = 0.5 * (s + t)
    edges = s[..., None] + (mid - s)[..., None] * 4.0 ** np.arange(-GEO_LEVELS, 1)
    edges[..., -1] = mid
    rules = [singular_rule(s, edges[..., 0], GEO_NODES, left_exp=-0.5),
             singular_rule(edges[..., :-1], edges[..., 1:], GEO_NODES),
             singular_rule(mid, t, N_TIME, right_exp=-0.5)]
    return tuple(np.concatenate([a.reshape(s.shape + (-1,)) for a in part], axis=-1)
                 for part in zip(*rules))


def kernel_time_rule(problem: Problem, s, t, n: int):
    """The n-node rule over (s, t) of a kernel's membrane trace, exponent
    kernel_time_exponent at tau = s, times the density's (t - tau)^(-1/2):
    the solve's tau nodes (n_kernel) and the direct value's (N_TIME)."""
    return singular_rule(s, t, n, left_exp=problem.kernel_time_exponent(), right_exp=-0.5)


def _poisson_key(phi: InitialFunction) -> tuple:
    return ("phi",) + phi.key


class PotentialEvaluator:
    """Field evaluation for one problem: Poisson and layer parts per side."""

    def __init__(self, problem: Problem, correction_quad: CorrectionQuadrature | None = None):
        self.problem = problem
        self.fs = {i: FundamentalSolution(problem.side(i), correction_quad)
                   for i in (1, 2)}

    # -- Poisson potential --------------------------------------------------

    def poisson(self, i: int, s, x, t: float, phi: InitialFunction, p: int = 0):
        """u_i0 and its x-derivatives; s and x may be arrays that broadcast."""
        return self.fs[i].terminal_integral(s, x, t, phi, _poisson_key(phi), p)

    def reserve_poisson(self, phi: InitialFunction, t: float, s_min: float) -> None:
        """Store the Poisson correction tables of phi, sized once for the
        membrane and the atoms on [s_min, t], so that every evaluation there
        reads them: a table sized by a first request alone would not cover
        the rest, and the rest would get unstored tables of their own."""
        prob = self.problem
        paths = [prob.membrane] + [atom.position for atom in prob.wentzell.measure.atoms]
        lows, highs = zip(*(path.bounds(s_min, t) for path in paths))
        for fs in self.fs.values():
            if not fs.is_exact:
                fs.final_table(_poisson_key(phi), phi, t, s_min, min(lows), max(highs))

    # -- simple-layer potential ----------------------------------------------

    def layer(self, i: int, s, x, t: float, densities: DensityPair):
        """u_i1 at one start time s and points x (a scalar or an array), or
        at start times s and points x of one shape, one point per time.

        Product integration with weight (tau-s)^(-1/2) (t-tau)^(-1/2): the
        left factor covers the membrane trace of G_i, the right one the
        density singularity.
        """
        s, x = np.asarray(s, dtype=float), np.asarray(x, dtype=float)
        if np.any(s >= t):
            raise TimeOrderError("layer potential needs s < t")
        if np.any(s < densities.s_min - 1e-12):
            raise MeshMismatchError("layer evaluation before the density mesh span")
        # an anchor (tau, h(tau)) per start time and node, the points of that
        # start time along it (they share its table); transposed to contiguous
        # rows so that every side sums over tau in the same order
        tau, wt = layer_time_rule(s.reshape(-1), t)
        h_tau = np.asarray(self.problem.h(tau), dtype=float)
        g = self.fs[i].on_anchors(s.reshape(-1, 1, 1), x.reshape(tau.shape[0], 1, -1),
                                  tau[..., None], h_tau[..., None])
        out = np.sum(np.ascontiguousarray(np.swapaxes(g, -1, -2))
                     * (densities.v(i, tau) * wt)[:, None, :], axis=-1).reshape(x.shape)
        return out if out.ndim else float(out)

    # -- conormal derivative ----------------------------------------------------

    def direct_value(self, i: int, s: float, t: float, densities: DensityPair):
        """Direct value of the layer-potential derivative on the membrane.

        integral over (s,t) of dG_i/dx(s,h(s),tau,h(tau)) V_i(tau,t) dtau,
        with weight (tau-s)^(alpha/2-1) (t-tau)^(-1/2).
        """
        if s >= t:
            raise TimeOrderError("direct value needs s < t")
        tau, wt = kernel_time_rule(self.problem, s, t, N_TIME)
        h_s = float(self.problem.h(s))
        h_tau = np.asarray(self.problem.h(tau), dtype=float)
        g1 = self.fs[i].on_anchors(s, h_s, tau[:, None], h_tau[:, None], p=1)[:, 0]
        return float(np.sum(g1 * densities.v(i, tau) * wt))

    def conormal_jump(self, i: int, s: float, t: float, densities: DensityPair):
        """One-sided x-derivative limits of u_i1 at x = h(s).

        Approach from the left gives +V_i/b_i plus the direct value, from the
        right -V_i/b_i plus the direct value.
        """
        if s >= t:
            raise TimeOrderError("conormal jump needs s < t")
        v = float(densities.v(i, s))
        b_here = float(self.problem.diffusion(i, s, self.problem.h(s)))
        direct = self.direct_value(i, s, t, densities)
        return (v / b_here + direct, -v / b_here + direct)

    # -- combined field ------------------------------------------------------

    def field(self, i: int, s: float, x, t: float, phi: InitialFunction,
              densities: DensityPair):
        """u_i = Poisson part + layer part on side i."""
        return self.poisson(i, s, x, t, phi) + self.layer(i, s, x, t, densities)
