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

never by numerical differentiation.  After elimination the system reads

    V_i(s,t) = Psi_i(s,t) + sum_j integral N_ij(s,tau) V_j(tau,t) d tau

and is solved by successive approximations on the regularized unknowns
W_i = (t-s)^(1/2) V_i over a graded mesh.  The jump measure has finitely
many atoms, none on the membrane (validate refuses one there), so each atom
keeps a positive distance from it and enters the kernels through the plain
difference w_k (G(y_k) - G(h)), a regular kernel.

Everything is evaluated on arrays (product-integration Nystrom): the
kernels on the (mesh node, tau node) array with the Holmgren rho nodes as a
trailing axis, the right-hand side on the mesh nodes with the same trailing
axis, each in one array pass over the mesh (more only where the (node,
tau, rho) array would exceed PASS_POINTS nodes); each successive
approximation is one interpolation of the iterates at the tau nodes
(interpolate_w, as in the potentials) and one contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import singular_rule
from .errors import (
    ConfigError,
    SeriesDivergenceError,
    SingularIntegrandError,
    TimeOrderError,
)
from .potentials import DensityPair, PotentialEvaluator, graded_mesh, interpolate_w
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

def holmgren_transform(f, s, t, f_s=None, n: int = 24, left_exp: float = -0.5):
    """Differentiated Holmgren transform of f over (s, t), elementwise.

    s and t are scalars or arrays that broadcast together.  f is called on
    arrays of interior times whose leading axes are those of s and t and
    whose trailing axis holds the points of one interval, and returns values
    of the same shape.  f_s overrides the left endpoint values f(s) (useful
    when f has a removable definition there).  Each integral is split at the
    midpoint: the left half uses a Jacobi rule matched to the decay of
    f(rho) - f(s), the right half plain Gauss.  Returns a float for scalar
    s and t.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    if np.any(s >= t):
        raise TimeOrderError("holmgren transform needs s < t")

    def at(rho):
        return np.asarray(f(rho[..., None]), dtype=float)[..., 0]

    fs_val = at(s) if f_s is None else np.broadcast_to(np.asarray(f_s, dtype=float),
                                                       s.shape)
    mid = 0.5 * (s + t)
    scale = np.abs(fs_val) + 1.0

    span = t - s
    d_small, d_large = 1e-8 * span, 1e-4 * span
    q_near = np.abs(at(s + d_small) - fs_val) / np.sqrt(d_small)
    q_far = np.abs(at(s + d_large) - fs_val) / np.sqrt(d_large)
    if np.any(q_near > 4.0 * q_far + 1e3 * scale):
        raise SingularIntegrandError(
            "integrand increment does not decay at the left endpoint")

    s_col, fs_col = s[..., None], fs_val[..., None]
    rho_l, w_l = singular_rule(s, mid, n, left_exp=left_exp)
    vals_l = (np.asarray(f(rho_l)) - fs_col) * (rho_l - s_col) ** (-1.5)
    rho_r, w_r = singular_rule(mid, t, n)
    vals_r = (np.asarray(f(rho_r)) - fs_col) * (rho_r - s_col) ** (-1.5)
    integral = np.sum(vals_l * w_l, axis=-1) + np.sum(vals_r * w_r, axis=-1)
    out = INV_SQRT_2PI * integral - SQRT_2_OVER_PI * fs_val / np.sqrt(t - s)
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
        # flat membrane, exact Gaussian kernels, no atoms: the reflection
        # term is a centered Gaussian derivative (identically zero) and the
        # transformed continuity kernel vanishes, so the whole system kernel
        # is exactly zero
        self.kernels_vanish = (all(self._flat_exact.values())
                               and problem.wentzell.measure.is_null)

    # -- the system kernel ------------------------------------------------------

    def _side_kernel(self, j: int, s, tau, h_s, h_tau):
        """Side-j parts shared by both equations: (flux kernel, transformed
        continuity kernel)."""
        fs = self.evaluator.fs[j]

        def g(x, p=0, mask=None):
            return fs.on_anchors(s[..., None], x[..., None], tau[..., None],
                                 h_tau[..., None], p, mask)[..., 0]

        # reflection term first: it opens every anchor of a correction side
        return (flux_condition(self.problem, j, s, h_s, g(h_s, p=1),
                               lambda x, on: g(x, mask=on)),
                self._holmgren_kernel(j, s, tau, h_tau))

    def _holmgren_kernel(self, j: int, s, tau, h_tau):
        """Kernel produced by transforming the continuity equation.

        Evaluates the differentiated representation: the (rho-s)^(-3/2)
        integral of the three increments of the membrane-trace kernel (the
        correction-part increment, the mixed time/space increment, and the
        membrane-motion increment), split at the midpoint, plus the boundary
        term with the (tau-s)^(-1/2) factor.
        """
        if self._flat_exact[j]:
            return np.zeros(np.shape(s))
        fs = self.evaluator.fs[j]
        tau_col, h_col = tau[..., None], h_tau[..., None]

        def trace_f(rho):
            # the three increments of the representation telescope to
            # G(rho, h(rho)) - Z0(rho, h(tau)), both anchored at (tau, h(tau))
            g_moved = fs.on_anchors(rho, self.problem.h(rho), tau_col, h_col)
            return g_moved - fs.principal(rho, h_col, tau_col, h_col)

        value = holmgren_transform(trace_f, s, tau, n=self.config.n_holmgren,
                                   left_exp=self.problem.kernel_time_exponent())
        return (-1.0) ** j * value

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
        prob = self.problem
        h_s = np.broadcast_to(prob.h(s), s.shape)
        h_tau = np.broadcast_to(prob.h(tau), s.shape)
        sides = [self._side_kernel(j, s, tau, h_s, h_tau) for j in (1, 2)]
        flux, continuity = (np.stack(parts) for parts in zip(*sides))
        return eliminate(prob, s, h_s, flux, continuity)


def flux_condition(problem: Problem, j: int, s, h, slope, value):
    """Side j's part of the flux condition at the times s, for slope =
    u_j'(h): (-1)^j q_j slope, plus w_k (value(y_k, on) - value(h, on)) at
    the times on where atom k has w_k != 0 and lies on side j (the left
    when y_k < h).  value(x, on) gives u_j at points x broadcast to s; it
    is read only where on is set."""
    out = (-1.0) ** j * problem.q(j, s) * slope
    for atom in problem.wentzell.measure.atoms:
        y = np.broadcast_to(atom.position(s), np.shape(s))
        w = np.broadcast_to(atom.weight(s), np.shape(s))
        on = (np.where(y < h, 1, 2) == j) & (w != 0.0)
        if np.any(on):
            out = out + np.where(on, w * (value(y, on) - value(h, on)), 0.0)
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
        left, right = assembler.problem.left, assembler.problem.right
        # identical generators on both sides make the Poisson traces equal
        # for every initial function: the trace gap vanishes structurally
        self._identical_sides = (
            (left.drift.kind, left.drift.params)
            == (right.drift.kind, right.drift.params)
            and (left.diffusion.kind, left.diffusion.params)
            == (right.diffusion.kind, right.diffusion.params))

    def trace_gap(self, s):
        """Difference of the Poisson traces on the membrane (right minus left)."""
        s = np.asarray(s, dtype=float)
        if np.any(s >= self.t):
            raise TimeOrderError("trace gap needs s < t")
        ev = self.assembler.evaluator
        h = self.assembler.problem.h(s)
        return (ev.poisson(2, s, h, self.t, self.phi)
                - ev.poisson(1, s, h, self.t, self.phi))

    def flux_gap(self, s):
        """Flux data: the flux condition of both sides on the Poisson potentials."""
        s = np.asarray(s, dtype=float)
        ev = self.assembler.evaluator
        prob = self.assembler.problem
        h = np.broadcast_to(prob.h(s), s.shape)

        def poisson_on(j, x, on):  # side j's Poisson potential on the mask, zero elsewhere
            out = np.zeros(s.shape)
            out[on] = ev.poisson(j, s[on], x[on], self.t, self.phi)
            return out

        out = sum(flux_condition(prob, j, s, h, ev.poisson(j, s, h, self.t, self.phi, p=1),
                                 lambda x, on: poisson_on(j, x, on)) for j in (1, 2))
        return out if np.shape(out) else float(out)

    def combined(self, s) -> np.ndarray:
        """Right-hand sides (Psi_1, Psi_2) of the eliminated second-kind
        system at the times s, shape (2,) + shape of s."""
        s = np.asarray(s, dtype=float)
        prob = self.assembler.problem
        phi_term = 0.0
        if not self._identical_sides:
            phi_term = holmgren_transform(
                lambda rho: self.trace_gap(np.minimum(rho, self.t - 1e-14)), s, self.t,
                f_s=self.trace_gap(s), n=self.assembler.config.n_holmgren,
                left_exp=prob.kernel_time_exponent())
        return eliminate(prob, s, prob.h(s), self.flux_gap(s), phi_term)


# ---------------------------------------------------------------------------
# the solve
# ---------------------------------------------------------------------------

@dataclass
class SolveDiagnostics:
    iterate_sups: list = field(default_factory=list)
    iterations: int = 0
    m_delta: float = 0.0
    # numerical witness that the regularized densities stay bounded by a
    # multiple of the initial-function norm
    w_sup_ratio: float = 0.0


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
    require_interior_nodes(problem, config, float(mesh[-1]), t)
    rhs = RightHandSide(assembler, phi, t, float(mesh[0]))
    step = max(1, PASS_POINTS // (config.n_kernel * 2 * config.n_holmgren))
    passes = [slice(lo, lo + step) for lo in range(0, len(mesh), step)]
    sqrt_rem = np.sqrt(t - mesh)
    w = np.concatenate([rhs.combined(mesh[nodes]) for nodes in passes], axis=1) * sqrt_rem

    # kernel tables: per node, quadrature times and weighted kernel values
    tau_nodes, wt = singular_rule(mesh, t, config.n_kernel,
                                  left_exp=problem.kernel_time_exponent(),
                                  right_exp=-0.5)
    kern = np.zeros((2, 2) + tau_nodes.shape)
    if not assembler.kernels_vanish:
        for nodes in passes:
            kern[:, :, nodes] = assembler.system_kernel_matrix(mesh[nodes, None],
                                                               tau_nodes[nodes])
        kern *= wt * (t - tau_nodes) ** (-0.5)

    diag = SolveDiagnostics(m_delta=m_delta_witness(problem))
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
        current = sqrt_rem * np.einsum("ijnq,nqj->in", kern,
                                       interpolate_w(tau_nodes, mesh, current))
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


def require_interior_nodes(problem: Problem, config: SolverConfig, s: float, t: float):
    """ConfigError unless the kernel nodes of the last mesh node s, and the
    Holmgren nodes of its first kernel interval (s, tau), the narrowest
    pair, lie strictly inside their intervals: where roundoff puts a node on
    an end, the kernels are singular or undefined there."""
    exponent = problem.kernel_time_exponent()
    tau = t
    try:
        tau = float(singular_rule(s, t, config.n_kernel, left_exp=exponent, right_exp=-0.5)[0][0])
        mid = 0.5 * (s + tau)
        singular_rule(s, mid, config.n_holmgren, left_exp=exponent)
        singular_rule(mid, tau, config.n_holmgren)
    except SingularIntegrandError:
        raise ConfigError(
            f"solver mesh_n {config.mesh_n}, n_kernel {config.n_kernel} and n_holmgren "
            f"{config.n_holmgren} put quadrature nodes on an end of the narrowest kernel "
            f"interval, {tau - s:.2g} wide; lower one of them or start further from t") from None


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
