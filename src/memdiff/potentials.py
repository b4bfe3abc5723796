"""Parabolic potentials: Poisson part, simple-layer part, conormal jump.

The solution field of one side splits as u_i = u_i0 + u_i1 with

    u_i0(s,x,t) = integral of G_i(s,x,t,y) phi(y) dy          (Poisson)
    u_i1(s,x,t) = integral over (s,t) of G_i(s,x,tau,h(tau))
                  V_i(tau,t) dtau                              (simple layer)

where the layer density carries a built-in inverse-square-root terminal
singularity: V_i(s,t) = (t-s)^(-1/2) W_i(s,t) with W_i bounded.  Solving
for W_i instead of V_i removes the singular unknown; the quadratures below
absorb the (t-tau)^(-1/2) factor and the membrane-trace singularity of G_i
into product-integration weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import singular_rule
from .errors import MeshMismatchError, TimeOrderError
from .parametrix import CorrectionQuadrature, FundamentalSolution, slice_integral
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


def interpolate_w(tau, mesh: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Regularized densities at the times tau from their values w on the mesh
    nodes, one row of w per density and one entry of the result's trailing
    axis: linear between nodes, constant past the last node (and before the
    first)."""
    return np.stack([np.interp(tau, mesh, row) for row in np.atleast_2d(w)], axis=-1)


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

    @classmethod
    def zero(cls, t: float, mesh: np.ndarray) -> "DensityPair":
        z = np.zeros(len(mesh))
        return cls(t, mesh, z, z.copy())

    @property
    def s_min(self) -> float:
        return float(self.mesh[0])

    def w(self, i: int, tau):
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < self.mesh[0] - 1e-12):
            raise MeshMismatchError("evaluation time below the mesh span")
        out = interpolate_w(tau, self.mesh, self.w1 if i == 1 else self.w2)[..., 0]
        return out if out.shape else float(out)

    def v(self, i: int, tau):
        tau = np.asarray(tau, dtype=float)
        return self.w(i, tau) * (self.t - tau) ** (-0.5)

    def max_w(self) -> float:
        return float(max(np.max(np.abs(self.w1)), np.max(np.abs(self.w2)), 0.0))


@dataclass(frozen=True)
class PotentialQuadrature:
    """Node counts for the potential quadratures."""

    n_time: int = 32
    n_space: int = 16
    geo_levels: int = 13
    geo_nodes: int = 6


def layer_time_rule(s: float, t: float, quad: PotentialQuadrature):
    """Composite rule for the layer-potential time integral.

    The integrand carries a (t-tau)^(-1/2) density factor at the right end
    and, near tau = s, either a (tau-s)^(-1/2) trace singularity (evaluation
    on the membrane) or a Gaussian boundary layer of width (x-h)^2/b
    (evaluation near it).  A fixed rule resolves every scale: one Jacobi
    micro-panel at the left end, geometrically growing Gauss panels up to
    the midpoint, and a Jacobi half for the terminal singularity.
    """
    mid = 0.5 * (s + t)
    h0 = (mid - s) * 4.0 ** (-quad.geo_levels)
    xs = [singular_rule(s, s + h0, quad.geo_nodes, left_exp=-0.5)]
    lo = s + h0
    while lo < mid - 1e-300:
        hi = min(s + (lo - s) * 4.0, mid)
        xs.append(singular_rule(lo, hi, quad.geo_nodes))
        lo = hi
    xs.append(singular_rule(mid, t, quad.n_time, right_exp=-0.5))
    nodes, weights = zip(*xs)
    return np.concatenate(nodes), np.concatenate(weights)


def _poisson_key(phi: InitialFunction) -> tuple:
    return ("phi",) + phi.key


class PotentialEvaluator:
    """Field evaluation for one problem: Poisson and layer parts per side."""

    def __init__(self, problem: Problem, quad: PotentialQuadrature | None = None,
                 correction_quad: CorrectionQuadrature | None = None):
        self.problem = problem
        self.quad = quad or PotentialQuadrature()
        self.fs = {i: FundamentalSolution(problem.side(i), correction_quad)
                   for i in (1, 2)}

    # -- Poisson potential --------------------------------------------------

    def poisson(self, i: int, s, x, t: float, phi: InitialFunction, p: int = 0):
        """u_i0 and its x-derivatives; s and x may be arrays that broadcast."""
        if np.any(np.asarray(s) >= t):
            raise TimeOrderError("poisson potential needs s < t")
        fs = self.fs[i]
        s, x = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
        if fs.is_exact:
            b = fs.side.diffusion(t, self.problem.h(t))
            out = slice_integral(s, x, t, b,
                                 lambda y: fs.principal(s[..., None], x[..., None], t, y, p),
                                 phi, self.quad.n_space)
        else:
            out = np.asarray(fs.terminal_integral(s, x, t, phi, _poisson_key(phi), p))
        return out if out.ndim else float(out)

    def reserve_poisson(self, phi: InitialFunction, t: float, s_lo: float,
                        x_lo: float, x_hi: float) -> None:
        """Size the Poisson correction tables of phi once, for points (s, x)
        with s >= s_lo and x in [x_lo, x_hi], so that later evaluations in
        that range neither rebuild them nor depend on their order."""
        for fs in self.fs.values():
            if not fs.is_exact:
                fs.final_table(_poisson_key(phi), phi, t, s_lo, x_lo, x_hi)

    # -- simple-layer potential ----------------------------------------------

    def layer(self, i: int, s: float, x, t: float, densities: DensityPair):
        """u_i1 at (s, x); x may be an array.

        Product integration with weight (tau-s)^(-1/2) (t-tau)^(-1/2): the
        left factor covers the membrane trace of G_i, the right one the
        density singularity.
        """
        if s >= t:
            raise TimeOrderError("layer potential needs s < t")
        if s < densities.s_min - 1e-12:
            raise MeshMismatchError("layer evaluation before the density mesh span")
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        tau, wt = layer_time_rule(s, t, self.quad)
        h_tau = np.asarray(self.problem.h(tau), dtype=float)
        # one membrane anchor (tau, h(tau)) per row, the points x along it;
        # transposed to contiguous rows so that every side sums over tau in
        # the same order
        g = self.fs[i].on_anchors(s, x_arr[None, :], tau[:, None], h_tau[:, None])
        dens = densities.w(i, tau) * (t - tau) ** (-0.5)
        out = np.sum(np.ascontiguousarray(g.T) * (dens * wt)[None, :], axis=-1)
        return float(out[0]) if np.ndim(x) == 0 else out

    # -- conormal derivative ----------------------------------------------------

    def direct_value(self, i: int, s: float, t: float, densities: DensityPair):
        """Direct value of the layer-potential derivative on the membrane.

        integral over (s,t) of dG_i/dx(s,h(s),tau,h(tau)) V_i(tau,t) dtau,
        with weight (tau-s)^(alpha/2-1) (t-tau)^(-1/2).
        """
        if s >= t:
            raise TimeOrderError("direct value needs s < t")
        tau, wt = singular_rule(s, t, self.quad.n_time,
                                left_exp=self.problem.kernel_time_exponent(),
                                right_exp=-0.5)
        h_s = float(self.problem.h(s))
        h_tau = np.asarray(self.problem.h(tau), dtype=float)
        g1 = self.fs[i].on_anchors(s, h_s, tau[:, None], h_tau[:, None], p=1)[:, 0]
        dens = densities.w(i, tau) * (t - tau) ** (-0.5)
        return float(np.sum(g1 * dens * wt))

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
