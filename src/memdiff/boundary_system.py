"""Assembly and solution of the interface system of Volterra equations.

The two pasting conditions turn into a system for the layer densities: a
first-kind equation from continuity of the field across the membrane and a
second-kind equation from the flux condition q_2 u'(h+) - q_1 u'(h-) +
sum_k w_k (u(y_k) - u(h)) = 0.  flux_condition is one side's part of it
for any one-sided u (G_j, the Poisson potentials, and in the semigroup
checks the field and phi); eliminate carries the transformed continuity
equation into both equations.  The Holmgren transform

    Ef(s,t) = sqrt(2/pi) d/ds integral over (s,t) of (rho-s)^(-1/2) f(rho,t)

converts the first-kind equation into second kind; it is always evaluated
through its differentiated representation

    Ef(s,t) = (2 pi)^(-1/2) integral of (rho-s)^(-3/2) [f(rho)-f(s)] d rho
              - sqrt(2/pi) (t-s)^(-1/2) f(s),

never by numerical differentiation.  Substituting rho = s + (t-s) theta
makes its quadrature one fixed functional on (0, 1), built once per rule
order and exponent and scaled by (t-s)^(-1/2).  E is linear, so each
side takes its own route, picked in one place for both solve stages
(KernelAssembler.transform_sides): the trace gap of sides with one
generator is zero; on an exact side at a flat membrane the continuity
kernel vanishes and E[P_j](s) = -sqrt(b_j) integral of dZ0_j/dx(s, h; t, y)
sign(y - h) phi(y) dy is closed (RightHandSide.transformed_trace_gap); the
other sides' traces take one numerical transform per stage, of each distinct
trace once, in three trace calls.  A kernel trace is G's drop below Z0's
peak (FundamentalSolution.peak_drop), closed on an exact side.
After elimination the system reads

    V_i(s,t) = Psi_i(s,t) + sum_j integral N_ij(s,tau) V_j(tau,t) d tau

and is solved by successive approximations on the regularized unknowns
W_i = (t-s)^(1/2) V_i over a graded mesh.  The jump measure has finitely
many atoms, none on the membrane (validate refuses one there), so each atom
keeps a positive distance from it and enters the kernels through the plain
difference w_k (G(y_k) - G(h)), a regular kernel, taken on the atom's side
at the times where w_k != 0.

Everything is evaluated on arrays (product-integration Nystrom): the
kernels on the (mesh node, tau node) array with the Holmgren rho nodes as a
trailing axis, the right-hand side on the mesh nodes with the same trailing
axis, each in one array pass over the mesh (more only where the (node,
tau, rho) array would exceed PASS_POINTS nodes).  The weighted kernels and
the interpolation of the iterates at the tau nodes fold into one sparse
operator per solve (fold_interpolation), with the rule of interpolate_w that
the potentials use: linear between mesh nodes, constant past the last.  Each
successive approximation is one sparse product with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from ._quadrature import RULE_CACHE, interval_nodes, singular_rule
from .errors import (
    ConfigError,
    SeriesDivergenceError,
    SingularIntegrandError,
    TimeOrderError,
)
from .potentials import DensityPair, PotentialEvaluator, graded_mesh, kernel_time_rule
from .problem import InitialFunction, Problem, require_number

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration controls for the density solve."""

    mesh_n: int = 64
    n_kernel: int = 16
    n_holmgren: int = 24
    k_max: int = 200

    def __post_init__(self):
        require_number(self.mesh_n, "solver mesh_n", integer=True, ge=8, le=4096)
        require_number(self.n_kernel, "solver n_kernel", integer=True, ge=1, le=1024)
        require_number(self.n_holmgren, "solver n_holmgren", integer=True, ge=1, le=1024)
        require_number(self.k_max, "solver k_max", integer=True, ge=1)


# the iteration stops once an iterate's sup falls below TOL_V times the sup
# of the initial function, and is declared divergent when, past
# CONTRACTION_ONSET iterations, the sups rise three times in a row
TOL_V = 1e-8
CONTRACTION_ONSET = 10


# quadrature nodes per array pass of the solve: the kernels' (node, tau, rho)
# arrays over the whole default mesh, 64 x 16 x 48 nodes, take one pass
PASS_POINTS = 2 ** 16


# ---------------------------------------------------------------------------
# Holmgren transform
# ---------------------------------------------------------------------------

@lru_cache(maxsize=RULE_CACHE)
def _unit_holmgren(n: int, left_exp: float):
    """(theta, c) of each half of the Holmgren rule on (0, 1), split at the
    midpoint: a Jacobi rule with left exponent left_exp on the left half,
    plain Gauss on the right, with the transform's (rho - s)^(-3/2) folded
    in: c_k = w_k theta_k^(-3/2)."""
    halves = singular_rule(0.0, 0.5, n, left_exp), singular_rule(0.5, 1.0, n)
    return tuple((theta, w * theta ** -1.5) for theta, w in halves)


def holmgren_nodes(s, t, n: int, left_exp: float):
    """The Holmgren rule over (s, t), one half at a time: yields (rho, c) of
    the left half, then of the right half, rho = s + (t - s) theta on a new
    trailing axis with the unit weights c of _unit_holmgren.  Raises
    SingularIntegrandError where a node rounds onto s or t (interval_nodes)."""
    s_col = np.asarray(s, dtype=float)[..., None]
    t_col = np.asarray(t, dtype=float)[..., None]
    for theta, c in _unit_holmgren(n, left_exp):
        yield interval_nodes(s_col, t_col, theta), c


def holmgren_transform(f, s, t, n: int = 24, left_exp: float = -0.5):
    """Differentiated Holmgren transform of f over (s, t), elementwise.

    s and t are scalars or arrays that broadcast together.  f is called on
    arrays of interior times whose leading axes are those of s and t and
    whose trailing axis holds the points of one interval, and returns values
    of that shape, optionally behind leading component axes (one transform
    per component, every one of them decay-checked).  Each integral is
    split at the midpoint (_unit_holmgren): a Jacobi rule matched to the
    decay of f(rho) - f(s) on the left half, plain Gauss on the right.  The
    rule is one fixed functional on (0, 1), built once per (n, left_exp):
    with span = t - s and its nodes theta_k and weights c_k,

        Ef(s) = span^(-1/2) [(2 pi)^(-1/2) sum_k c_k (f(s + span theta_k) - f(s))
                             - sqrt(2/pi) f(s)],

    the product rule on (s, t) in exact arithmetic.  f is called once for
    f(s) and the two decay probes and once per half.  Returns a float for
    scalar s and t and a scalar f.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    if np.any(s >= t):
        raise TimeOrderError("holmgren transform needs s < t")

    span = t - s
    d_small, d_large = 1e-8 * span, 1e-4 * span
    fs_val, near, far = np.moveaxis(f(np.stack([s, s + d_small, s + d_large], axis=-1)), -1, 0)
    q_near = np.abs(near - fs_val) / np.sqrt(d_small)
    q_far = np.abs(far - fs_val) / np.sqrt(d_large)
    if np.any(q_near > 4.0 * q_far + 1e3 * (np.abs(fs_val) + 1.0)):
        raise SingularIntegrandError(
            "integrand increment does not decay at the left endpoint")

    fs_col = fs_val[..., None]
    integral = 0.0
    for rho, c in holmgren_nodes(s, t, n, left_exp):
        # f(rho) - f(s) stays inside the sum: taken out, large terms cancel
        vals = np.asarray(f(rho)) - fs_col
        vals *= c
        integral += np.sum(vals, axis=-1)
    out = (INV_SQRT_2PI * integral - SQRT_2_OVER_PI * fs_val) / np.sqrt(span)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class KernelAssembler:
    """The interface kernels of one problem on arrays of (s, tau) pairs."""

    def __init__(self, problem: Problem, evaluator: PotentialEvaluator | None = None,
                 config: SolverConfig | None = None):
        self.problem = problem
        self.config = config or SolverConfig()
        self.evaluator = evaluator or PotentialEvaluator(problem)
        self._flat_exact = {
            i: self.evaluator.fs[i].is_exact and problem.membrane.is_constant
            for i in (1, 2)
        }
        # one generator: equal Poisson traces; and one alpha (Z1 tables): equal kernel traces
        self._share_generator = problem.sides_share_generator
        self._same_traces = (self._share_generator and problem.left.holder_exponent
                             == problem.right.holder_exponent)
        # flat membrane, exact Gaussian kernels, no atoms: the reflection
        # term is a centered Gaussian derivative (identically zero) and the
        # transformed continuity kernel vanishes, so the whole system kernel
        # is exactly zero
        self.kernels_vanish = (all(self._flat_exact.values())
                               and problem.wentzell.measure.is_null)

    # -- the system kernel ------------------------------------------------------

    def transform_sides(self, traces, s, t, closed=None) -> np.ndarray:
        """(-1)^j E[f_j](s, t) over the sides j = 1, 2, stacked on a new
        first axis: the one place where each side's route is picked.

        traces(rho, sides) returns side j's membrane trace f_j(rho) for each
        j in sides, stacked on a leading axis.  Sides with one generator have
        equal Poisson traces: given closed (the Poisson stage), both rows
        are zero and nothing is evaluated.  A flat exact side takes its
        closed form: the row closed(j), and zero for the kernels, whose
        transformed continuity kernel vanishes there.  The other sides go
        through one holmgren_transform call, so they share its rho rule and
        its h(rho).  It transforms each distinct trace once: side 1's alone
        when both sides' traces are the same array, its E written as -E and +E.
        """
        out = np.zeros((2,) + np.shape(s))
        if closed is not None and self._share_generator:
            return out
        for j in (1, 2):
            if self._flat_exact[j] and closed is not None:
                out[j - 1] = closed(j)
        sides = [j for j in (1, 2) if not self._flat_exact[j]]
        if sides:
            distinct = sides[:1] if self._same_traces else sides
            signs = np.reshape([(-1.0) ** j for j in sides], (-1,) + (1,) * np.ndim(s))
            out[[j - 1 for j in sides]] = signs * holmgren_transform(
                lambda rho: traces(rho, distinct), s, t, n=self.config.n_holmgren,
                left_exp=self.problem.kernel_time_exponent())
        return out

    def system_kernel_matrix(self, s, tau) -> np.ndarray:
        """Full kernel values N_ij(s, tau), shape (2, 2) + broadcast shape.

        s and tau broadcast together.  N_ij is eliminate() of the kernels
        of side j: K_j, the flux condition on G_j, and R_j, the
        Holmgren-transformed continuity kernel.
        """
        s, tau = np.broadcast_arrays(np.asarray(s, dtype=float),
                                     np.asarray(tau, dtype=float))
        if np.any(s >= tau):
            raise TimeOrderError("system kernel needs s < tau")
        prob, fs = self.problem, self.evaluator.fs
        h_s = np.broadcast_to(prob.h(s), s.shape)
        h_tau = np.broadcast_to(prob.h(tau), s.shape)
        tau_col, h_col = tau[..., None], h_tau[..., None]

        def g(j, x, p=0):
            return fs[j].on_anchors(s[..., None], x[..., None], tau_col, h_col, p)[..., 0]

        # reflection term first: it opens every anchor of a correction side
        flux = np.stack([flux_condition(prob, j, s, h_s, g(j, h_s, p=1),
                                        lambda x: g(j, x)) for j in (1, 2)])

        def traces(rho, sides):
            # the three increments of the differentiated representation (the
            # correction part, the mixed time/space and the membrane-motion
            # increment) telescope to G(rho, h(rho)) - Z0(rho, h(tau)), both
            # anchored at (tau, h(tau)): G's drop below Z0's peak
            h_rho = prob.h(rho)
            drops = [fs[j].peak_drop(rho, h_rho, tau_col, h_col) for j in sides]
            # one trace is stacked as a view: a copy would cost fresh pages
            return drops[0][None] if len(drops) == 1 else np.stack(drops)

        return eliminate(prob, s, h_s, flux, self.transform_sides(traces, s, tau))


def flux_condition(problem: Problem, j: int, s, h, slope, value):
    """Side j's part of the flux condition at the times s, for slope =
    u_j'(h): (-1)^j q_j slope, plus w_k (value(y_k) - value(h)) at the
    times where atom k has w_k != 0 and lies on side j (the left when
    y_k < h).  value(x) gives u_j at points x broadcast to s; it is called
    only for an atom on side j at one of the times at least, at h once."""
    out = (-1.0) ** j * problem.q(j, s) * slope
    at_h = None
    for atom in problem.wentzell.measure.atoms:
        y = np.broadcast_to(atom.position(s), np.shape(s))
        w = np.broadcast_to(atom.weight(s), np.shape(s))
        on = (np.where(y < h, 1, 2) == j) & (w != 0.0)
        if np.any(on):
            at_y = value(y)
            at_h = value(h) if at_h is None else at_h
            out = out + np.where(on, w * (at_y - at_h), 0.0)
    return out


def eliminate(problem: Problem, s, h, flux, continuity) -> np.ndarray:
    """Equations i = 1, 2 of the eliminated system, stacked on a new first
    axis: d_i (flux + (-1)^i q_other / sqrt(b_other(s, h)) continuity),
    which carries the transformed continuity equation into equation i."""
    _, d = problem.membrane_weights(s)
    return np.stack([d[i - 1] * (flux + (-1.0) ** i * problem.q(3 - i, s)
                                 / np.sqrt(problem.diffusion(3 - i, s, h)) * continuity)
                     for i in (1, 2)])


def m_delta_witness(problem: Problem) -> float:
    """Sampled smallness witness of the measure mass, m_delta at delta =
    infinity since no atom is split off: (b_max/b_min)^2 pi/(2 q0) times
    the largest sum over the atoms of w_k |y_k - h|, at 65 times over the
    horizon."""
    measure = problem.wentzell.measure
    if measure.is_null:
        return 0.0
    b_min, b_max = problem.diffusion_bounds_rough()
    ss = np.linspace(0.0, problem.horizon, 65)
    gaps = np.abs(measure.positions(ss) - problem.membrane(ss))
    q0 = float(np.min(problem.wentzell.q1(ss) + problem.wentzell.q2(ss)))
    worst = float(np.max(np.sum(gaps * measure.weights(ss), axis=0)))
    return (b_max / b_min) ** 2 * math.pi / (2.0 * q0) * worst


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

class RightHandSide:
    """Trace gap, flux data and their combinations on arrays of mesh times.

    The Poisson correction table of a variable side is sized once, for the
    membrane and the atoms on [s_min, t], so the values do not depend on
    the order in which times are evaluated.
    """

    def __init__(self, assembler: KernelAssembler, phi: InitialFunction, t: float,
                 s_min: float = 0.0):
        self.assembler = assembler
        self.phi = phi
        self.t = t
        assembler.evaluator.reserve_poisson(phi, t, s_min)

    def flux_gap(self, s):
        """Flux data: the flux condition of both sides on the Poisson potentials."""
        s = np.asarray(s, dtype=float)
        ev, prob, t, phi = self.assembler.evaluator, self.assembler.problem, self.t, self.phi
        h = np.broadcast_to(prob.h(s), s.shape)
        out = sum(flux_condition(prob, j, s, h, ev.poisson(j, s, h, t, phi, p=1),
                                 lambda x: ev.poisson(j, s, x, t, phi)) for j in (1, 2))
        return out if np.shape(out) else float(out)

    def transformed_trace_gap(self, s):
        """E[P_2 - P_1](s, t), the Holmgren transform of the trace gap, at
        the times s: the sum over the sides of (-1)^j E[P_j], each side by
        its own route.

        On an exact side (G_j = Z0_j, variance b_j (t - s)) at a flat
        membrane h the transform is closed.  With a = (y - h)^2 / (2 b_j),

            integral over (s,t) of (rho-s)^(-1/2) Z0_j(rho, h; t, y) d rho
                = (2 pi b_j)^(-1/2) integral over (0,T) of
                  e^(-a/tau) (tau (T - tau))^(-1/2) d tau
                = (2 pi b_j)^(-1/2) pi erfc(sqrt(a/T)),     T = t - s,

        and sqrt(2/pi) d/ds of it is -|y - h| T^(-3/2) e^(-a/T) / (b_j sqrt(2 pi))
        = -sqrt(b_j) dZ0_j/dx(s, h; t, y) sign(y - h).  Integrated against
        phi (phi is bounded, so E and the y-integral commute):

            E[P_j](s) = -sqrt(b_j) integral of dZ0_j/dx(s, h; t, y)
                        sign(y - h) phi(y) dy,

        one terminal_integral of phi sign(. - h) with p = 1, whose window
        y = h + u sigma puts the sign kink on its u = 0 panel edge.
        KernelAssembler.transform_sides picks each side's route (zero on
        sides with one generator); the others share one numeric transform.
        """
        s = np.asarray(s, dtype=float)
        asm, t = self.assembler, self.t
        prob, ev = asm.problem, asm.evaluator

        def traces(rho, sides):
            rho = np.minimum(rho, t - 1e-14)
            h = prob.h(rho)
            return np.stack([ev.poisson(j, rho, h, t, self.phi) for j in sides])

        def closed(j):
            fs, h = ev.fs[j], prob.membrane.constant_value()
            # an exact side's window reads no table, so it needs no cache key
            return ((-1.0) ** (j + 1) * math.sqrt(fs.side.diffusion.constant_value())
                    * fs.terminal_integral(s, h, t, lambda y: self.phi(y) * np.sign(y - h),
                                           None, p=1))

        return np.sum(asm.transform_sides(traces, s, t, closed), axis=0)

    def combined(self, s) -> np.ndarray:
        """Right-hand sides (Psi_1, Psi_2) of the eliminated second-kind
        system at the times s, shape (2,) + shape of s."""
        s = np.asarray(s, dtype=float)
        prob = self.assembler.problem
        return eliminate(prob, s, prob.h(s), self.flux_gap(s), self.transformed_trace_gap(s))


# ---------------------------------------------------------------------------
# the solve
# ---------------------------------------------------------------------------

@dataclass
class SolveDiagnostics:
    """Iteration record of one solve.  m_delta, the measure smallness
    witness, is computed from the problem when first read: only the
    divergence messages need it."""

    problem: Problem = field(repr=False, compare=False)
    iterate_sups: list = field(default_factory=list)
    iterations: int = 0
    # numerical witness that the regularized densities stay bounded by a
    # multiple of the initial-function norm
    w_sup_ratio: float = 0.0

    @cached_property
    def m_delta(self) -> float:
        return m_delta_witness(self.problem)


def fold_interpolation(mesh: np.ndarray, tau_nodes: np.ndarray,
                       kern: np.ndarray) -> sparse.csr_array:
    """The successive-approximation map without its sqrt(t - s) factor, as
    a sparse operator on the stacked iterates (W_1, W_2) on the mesh.

    kern holds the weighted kernels, shape (2, 2, node, q), at each node's
    tau nodes tau_nodes[node, q].  Row (i, node) holds, per side j and tau
    node q, kern[i, j, node, q] split over the bracketing mesh nodes lo and
    lo + 1 by the rule of interpolate_w (linear between nodes, constant past
    the last): 8 mesh_n n_kernel entries, duplicates kept.
    """
    n, n_tau = tau_nodes.shape
    lo = np.clip(np.searchsorted(mesh, tau_nodes, side="right") - 1, 0, n - 2)
    frac = np.clip((tau_nodes - mesh[lo]) / (mesh[lo + 1] - mesh[lo]), 0.0, 1.0)
    # (i, node, j, q, bracket end)
    data = (kern.transpose(0, 2, 1, 3)[..., None]
            * np.stack([1.0 - frac, frac], axis=-1)[:, None])
    cols = (lo[:, None, :, None] + np.arange(2)) + n * np.arange(2)[:, None, None]
    indptr = np.arange(0, data.size + 1, 4 * n_tau)
    return sparse.csr_array((data.ravel(), np.broadcast_to(cols, data.shape).ravel(), indptr),
                            shape=(2 * n, 2 * n))


def solve_densities(problem: Problem, phi: InitialFunction, t: float,
                    s_min: float = 0.0, config: SolverConfig | None = None,
                    evaluator: PotentialEvaluator | None = None) -> DensityPair:
    """Solve the interface system by successive approximations.

    Returns the regularized densities W_i on a graded mesh over [s_min, t).
    Raises SeriesDivergenceError when the iterate sup norms stop decreasing
    past the contraction onset, and reports the measure smallness witness in
    the exception message and in the attached diagnostics.
    """
    config = config or SolverConfig()
    if not s_min < t:
        raise TimeOrderError("solve needs s_min < t")
    assembler = KernelAssembler(problem, evaluator, config)
    mesh = graded_mesh(t, s_min, config.mesh_n)
    # before any mesh-sized array, the rules of the narrowest (s, tau) pair, s
    # the last node: where a node rounds onto an end, the kernels are singular
    s, tau = float(mesh[-1]), t
    try:
        tau = float(kernel_time_rule(problem, s, t, config.n_kernel)[0][0])
        list(holmgren_nodes(s, tau, config.n_holmgren, problem.kernel_time_exponent()))
    except SingularIntegrandError:
        raise ConfigError(
            f"solver mesh_n {config.mesh_n}, n_kernel {config.n_kernel} and n_holmgren "
            f"{config.n_holmgren} put quadrature nodes on an end of the narrowest kernel "
            f"interval, {tau - s:.2g} wide; lower one of them or start further from t") from None
    rhs = RightHandSide(assembler, phi, t, float(mesh[0]))
    step = max(1, PASS_POINTS // (config.n_kernel * 2 * config.n_holmgren))
    passes = [slice(lo, lo + step) for lo in range(0, len(mesh), step)]
    sqrt_rem = np.sqrt(t - mesh)
    w = np.concatenate([rhs.combined(mesh[nodes]) for nodes in passes], axis=1) * sqrt_rem

    # the iteration operator: per node, quadrature times and weighted kernel
    # values, folded with the interpolation at those times; where the
    # kernels vanish it stores nothing
    operator = sparse.csr_array((2 * len(mesh), 2 * len(mesh)))
    if not assembler.kernels_vanish:
        tau_nodes, wt = kernel_time_rule(problem, mesh, t, config.n_kernel)
        kern = np.empty((2, 2) + tau_nodes.shape)
        for nodes in passes:
            kern[:, :, nodes] = assembler.system_kernel_matrix(mesh[nodes, None],
                                                               tau_nodes[nodes])
        kern *= wt * (t - tau_nodes) ** (-0.5)
        operator = fold_interpolation(mesh, tau_nodes, kern)

    diag = SolveDiagnostics(problem)
    scale = max(phi.sup_norm, 1e-300)
    total = w.copy()
    current = w
    sup = float(np.max(np.abs(current)))
    diag.iterate_sups.append(sup)
    rise_count = 0
    while sup > TOL_V * scale:
        if diag.iterations == config.k_max:
            raise SeriesDivergenceError(
                f"no convergence within k_max={config.k_max} iterations "
                f"(m_delta witness {diag.m_delta:.3g})")
        current = sqrt_rem * (operator @ current.ravel()).reshape(2, -1)
        total += current
        sup = float(np.max(np.abs(current)))
        diag.iterate_sups.append(sup)
        diag.iterations += 1
        if diag.iterations > CONTRACTION_ONSET and sup > diag.iterate_sups[-2]:
            rise_count += 1
            if rise_count >= 3:
                raise SeriesDivergenceError(
                    f"iterate sup norms not contracting (m_delta witness "
                    f"{diag.m_delta:.3g})")
        else:
            rise_count = 0
    densities = DensityPair(t, mesh, total[0], total[1])
    diag.w_sup_ratio = densities.max_w() / scale
    densities.diagnostics = diag
    return densities


def first_kind_residual(problem: Problem, phi: InitialFunction, t: float,
                        densities: DensityPair,
                        evaluator: PotentialEvaluator | None = None) -> np.ndarray:
    """Residual of the first-kind continuity equation at the mesh nodes: the
    field's jump u_1 - u_2 across the membrane at (s_k, h(s_k)).

    The solve uses only the Holmgren-transformed system, so this is an
    independent consistency witness of the equivalence.
    """
    ev = evaluator or PotentialEvaluator(problem)
    ev.reserve_poisson(phi, t, densities.s_min)
    mesh, h = densities.mesh, problem.h(densities.mesh)
    return ev.field(1, mesh, h, t, phi, densities) - ev.field(2, mesh, h, t, phi, densities)
