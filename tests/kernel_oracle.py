"""Scalar reference for the interface system: one (s, tau) pair at a time.

Point-by-point evaluation of the Holmgren transform, the flux and
transformed continuity kernels, the combined system kernel, the right-hand
side, and the successive approximations with per-node np.interp.  The
transformed trace gap takes one route per side: on an exact side at a flat
membrane the closed form, on any other side the transform of its own
Poisson trace, both read from the side's Poisson windows one node at a
time.  The library evaluates the same formulas on whole node arrays; the
tests compare the two.

A validation-only route lives here as well: the Gaussian envelope fit of
the parametrix correction kernel.

The parametrix correction has its row-by-row reference too: the Neumann
series of a correction table summed by Volterra sweeps that rebuild the
quadrature, the windows, K^(1) and the bilinear lookups for every sigma row
of every term, and the point correction evaluated one (s, x) at a time.
Kernels on arrays of terminal anchors have a per-anchor loop, and a point
table shared by the anchors of one span class has a table built at the
anchor itself.  The exact-side Poisson potential has its Z0-slice form: z,
the variance and the Gaussian evaluated on every window node.  The
successive approximations have their limit: the dense solve of the same
discrete system (exact_densities).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from memdiff._quadrature import singular_rule
from memdiff.boundary_system import TOL_V, KernelAssembler
from memdiff.errors import ConvergenceFailureError, SingularIntegrandError, TimeOrderError
from memdiff.parametrix import (
    SERIES_TOL,
    SLICE_NODES,
    TABLE_GAMMA,
    CorrectionKernel,
    FundamentalSolution,
    _ScaledTable,
    _z0,
    slice_integral,
)
from memdiff.potentials import graded_mesh

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def scalar_holmgren_transform(f, s: float, t: float, n: int = 24,
                              left_exp: float = -0.5) -> float:
    """Differentiated Holmgren transform of f over one interval (s, t)."""
    if s >= t:
        raise TimeOrderError("holmgren transform needs s < t")
    fs_val = float(f(np.array([s]))[0])
    mid = 0.5 * (s + t)
    scale = abs(fs_val) + 1.0

    span = t - s
    d_small, d_large = 1e-8 * span, 1e-4 * span
    f_near = float(f(np.array([s + d_small]))[0])
    f_far = float(f(np.array([s + d_large]))[0])
    q_near = abs(f_near - fs_val) / math.sqrt(d_small)
    q_far = abs(f_far - fs_val) / math.sqrt(d_large)
    if q_near > 4.0 * q_far + 1e3 * scale:
        raise SingularIntegrandError(
            "integrand increment does not decay at the left endpoint")

    rho_l, w_l = singular_rule(s, mid, n, left_exp=left_exp)
    vals_l = (np.asarray(f(rho_l)) - fs_val) * (rho_l - s) ** (-1.5)
    rho_r, w_r = singular_rule(mid, t, n)
    vals_r = (np.asarray(f(rho_r)) - fs_val) * (rho_r - s) ** (-1.5)
    integral = float(np.sum(vals_l * w_l) + np.sum(vals_r * w_r))
    return INV_SQRT_2PI * integral - SQRT_2_OVER_PI * fs_val / math.sqrt(t - s)


class ScalarKernels:
    """Pointwise kernels of the assembler's problem, evaluator and config."""

    def __init__(self, assembler: KernelAssembler):
        self.problem = assembler.problem
        self.config = assembler.config
        self.evaluator = assembler.evaluator
        self._flat_exact = {
            i: self.evaluator.fs[i].is_exact and self.problem.membrane.is_constant
            for i in (1, 2)
        }
        self.kernels_vanish = (all(self._flat_exact.values())
                               and self.problem.wentzell.measure.is_null)

    def coupling_weights(self, s: float):
        h = float(self.problem.h(s))
        b1 = float(self.problem.diffusion(1, s, h))
        b2 = float(self.problem.diffusion(2, s, h))
        q1 = float(self.problem.q(1, s))
        q2 = float(self.problem.q(2, s))
        denom = q1 * math.sqrt(b2) + q2 * math.sqrt(b1)
        return (b1 * math.sqrt(b2) / denom, b2 * math.sqrt(b1) / denom)

    def _g(self, j, s, x, tau, y, p=0):
        fs = self.evaluator.fs[j]
        if fs.is_exact:
            return fs.principal(s, x, tau, y, p)
        return fs.eval(s, x, tau, y, p)

    def _atom_data(self, s: float):
        meas = self.problem.wentzell.measure
        if meas.is_null:
            return np.empty(0), np.empty(0), np.empty(0, dtype=int)
        h = float(self.problem.h(s))
        y = meas.positions(s)
        w = meas.weights(s)
        return y, w, np.where(y < h, 1, 2)

    def flux_kernel(self, j: int, s: float, tau: float) -> float:
        """Kernel of the flux condition: reflection term plus measure term."""
        if s >= tau:
            raise TimeOrderError("flux kernel needs s < tau")
        h_s = float(self.problem.h(s))
        h_tau = float(self.problem.h(tau))
        q_j = float(self.problem.q(j, s))
        out = (-1.0) ** j * q_j * float(self._g(j, s, h_s, tau, h_tau, p=1))
        y, w, sides = self._atom_data(s)
        for yk, wk, side in zip(y, w, sides):
            if side != j or wk == 0.0:
                continue
            out += wk * float(self._g(j, s, yk, tau, h_tau)
                              - self._g(j, s, h_s, tau, h_tau))
        return out

    def holmgren_kernel(self, j: int, s: float, tau: float) -> float:
        """Kernel produced by transforming the continuity equation."""
        if s >= tau:
            raise TimeOrderError("holmgren kernel needs s < tau")
        if self._flat_exact[j]:
            return 0.0
        h_tau = float(self.problem.h(tau))
        fs = self.evaluator.fs[j]

        def trace_f(rho):
            rho = np.asarray(rho, dtype=float)
            h_rho = np.asarray(self.problem.h(rho), dtype=float)
            g_moved = np.asarray(self._g(j, rho, h_rho, tau, h_tau))
            z0_flat = np.asarray(fs.principal(rho, h_tau, tau, h_tau))
            return g_moved - z0_flat

        value = scalar_holmgren_transform(
            trace_f, s, tau, n=self.config.n_holmgren,
            left_exp=self.problem.kernel_time_exponent())
        return (-1.0) ** j * value

    def system_kernel_matrix(self, s: float, tau_nodes) -> np.ndarray:
        """Full kernel values N_ij(s, tau_q) = d_i (K_j + (-1)^i q_other /
        sqrt(b_other) R_j), with K_j the flux kernel and R_j the transformed
        continuity kernel; shape (2, 2, len(tau_nodes))."""
        d = self.coupling_weights(s)
        h_s = float(self.problem.h(s))
        out = np.zeros((2, 2, len(tau_nodes)))
        for q_idx, tq in enumerate(tau_nodes):
            for j in (1, 2):
                k_val = self.flux_kernel(j, float(s), float(tq))
                r_val = self.holmgren_kernel(j, float(s), float(tq))
                for i in (1, 2):
                    q_other = float(self.problem.q(3 - i, s))
                    b_other = float(self.problem.diffusion(3 - i, s, h_s))
                    out[i - 1, j - 1, q_idx] = d[i - 1] * (
                        k_val + (-1.0) ** i * q_other / math.sqrt(b_other) * r_val)
        return out


class ScalarRightHandSide:
    """Pointwise transformed trace gap, flux data and right-hand sides Psi_i."""

    def __init__(self, kernels: ScalarKernels, phi, t: float, s_min: float = 0.0):
        self.kernels = kernels
        self.phi = phi
        self.t = t
        kernels.evaluator.reserve_poisson(phi, t, s_min)  # the library's Poisson table
        left, right = kernels.problem.left, kernels.problem.right
        self._identical_sides = (
            (left.drift.kind, left.drift.params)
            == (right.drift.kind, right.drift.params)
            and (left.diffusion.kind, left.diffusion.params)
            == (right.diffusion.kind, right.diffusion.params))

    def flux_gap(self, s: float) -> float:
        ev = self.kernels.evaluator
        prob = self.kernels.problem
        h = float(prob.h(s))
        out = (float(prob.q(2, s)) * ev.poisson(2, s, h, self.t, self.phi, p=1)
               - float(prob.q(1, s)) * ev.poisson(1, s, h, self.t, self.phi, p=1))
        y, w, sides = self.kernels._atom_data(s)
        for yk, wk, side in zip(y, w, sides):
            if wk == 0.0:
                continue
            out += wk * (ev.poisson(side, s, yk, self.t, self.phi)
                         - ev.poisson(side, s, h, self.t, self.phi))
        return out

    def transformed_trace_gap(self, s: float) -> float:
        """E[P_2 - P_1](s), the sum over the sides of (-1)^j E[P_j](s): on an
        exact side at a flat membrane h the closed form E[P_j](s) =
        -sqrt(b_j) integral of dZ0_j/dx(s, h; t, y) sign(y - h) phi(y) dy,
        on any other side the numeric transform of P_j.  Both routes read
        the windows of terminal_integral, as the library does: on phi = 1
        the two sides' transforms cancel to 1e-4 of their size or less, so
        a window form rounded differently (z0_slice_poisson, 3e-16 apart)
        would move the sum by 3e-12 of its maximum."""
        if s >= self.t:
            raise TimeOrderError("trace gap needs s < t")
        if self._identical_sides:
            return 0.0
        ev = self.kernels.evaluator
        prob = self.kernels.problem
        h = float(prob.h(s))
        out = 0.0
        for j, fs in ev.fs.items():
            if self.kernels._flat_exact[j]:
                def signed_phi(y):
                    return self.phi(y) * np.sign(y - h)

                out += (-1.0) ** (j + 1) * math.sqrt(fs.side.diffusion.constant_value()) \
                    * float(fs.terminal_integral(s, h, self.t, signed_phi, None, p=1))
                continue

            def trace(rho, j=j):
                rho = np.minimum(np.atleast_1d(np.asarray(rho, dtype=float)), self.t - 1e-14)
                return np.array([ev.poisson(j, r, float(prob.h(r)), self.t, self.phi)
                                 for r in rho])

            out += (-1.0) ** j * scalar_holmgren_transform(
                trace, s, self.t, n=self.kernels.config.n_holmgren,
                left_exp=prob.kernel_time_exponent())
        return out

    def combined(self, i: int, s: float) -> float:
        prob = self.kernels.problem
        h = float(prob.h(s))
        d_i = self.kernels.coupling_weights(s)[i - 1]
        q_other = float(prob.q(3 - i, s))
        b_other = float(prob.diffusion(3 - i, s, h))
        phi_term = self.transformed_trace_gap(s)
        return d_i * (self.flux_gap(s)
                      + (-1.0) ** i * q_other / math.sqrt(b_other) * phi_term)


def reference_solve(assembler: KernelAssembler, phi, t: float, s_min: float = 0.0):
    """Successive approximations node by node.

    Returns (mesh, W of shape (2, n), iterate sup norms).
    """
    config = assembler.config
    kernels = ScalarKernels(assembler)
    rhs = ScalarRightHandSide(kernels, phi, t, s_min)
    mesh = graded_mesh(t, s_min, config.mesh_n)
    n = len(mesh)
    sqrt_rem = np.sqrt(t - mesh)
    w = np.array([[rhs.combined(i, float(s)) * sqrt_rem[idx]
                   for idx, s in enumerate(mesh)] for i in (1, 2)])
    exponent = assembler.problem.kernel_time_exponent()
    tau_nodes = np.zeros((n, config.n_kernel))
    kern = np.zeros((n, 2, 2, config.n_kernel))
    for idx, s in enumerate(mesh):
        tau, wt = singular_rule(float(s), t, config.n_kernel,
                                left_exp=exponent, right_exp=-0.5)
        tau_nodes[idx] = tau
        if not kernels.kernels_vanish:
            kern[idx] = kernels.system_kernel_matrix(float(s), tau) \
                * (wt * (t - tau) ** (-0.5))[None, None, :]
    scale = max(phi.sup_norm, 1e-300)
    total = w.copy()
    current = w
    sups = [float(np.max(np.abs(current)))]
    for _ in range(config.k_max):
        if sups[-1] <= TOL_V * scale:
            break
        nxt = np.zeros_like(current)
        for idx in range(n):
            w_interp = np.stack([np.interp(tau_nodes[idx], mesh, current[jd])
                                 for jd in (0, 1)])
            for i in (0, 1):
                nxt[i, idx] = sqrt_rem[idx] * float(np.sum(kern[idx, i] * w_interp))
        current = nxt
        total += current
        sups.append(float(np.max(np.abs(current))))
    return mesh, total, sups


def exact_densities(operator, mesh: np.ndarray, t: float, w0: np.ndarray) -> np.ndarray:
    """The exact solution W, shape (2, n), of the solve's own discrete system
    (I - T) W = W0, T = sqrt(t - s) operator on the stacked iterates (W_1,
    W_2), by one dense solve: the limit of the successive approximations.
    operator is the solve's folded operator, or None where the kernels
    vanish (then W = W0)."""
    w0 = np.asarray(w0, dtype=float)
    if operator is None:
        return w0.copy()
    sqrt_rem = np.tile(np.sqrt(t - mesh), 2)
    system = np.eye(2 * len(mesh)) - sqrt_rem[:, None] * operator.toarray()
    return np.linalg.solve(system, w0.ravel()).reshape(2, -1)


def audit_correction_envelope(fs: FundamentalSolution, samples):
    """Fit the Gaussian envelope bound of the correction kernel on samples.

    Regresses log|Z1| + (1-alpha)/2 log(t-s) against -(y-x)^2/(t-s) and
    returns (C, c, max_excess) where max_excess is the largest violation of
    the fitted bound (zero by construction of a least-squares fit up to the
    sample spread).  Purely qualitative: finite C and positive c witness the
    expected envelope shape.
    """
    alpha = fs.side.holder_exponent
    logs, quads = [], []
    for (s, x, t, y) in samples:
        z1 = fs.eval(s, x, t, y) - fs.principal(s, x, t, y)
        if abs(z1) < 1e-14:
            continue
        logs.append(math.log(abs(z1)) + 0.5 * (1 - alpha) * math.log(t - s))
        quads.append((y - x) ** 2 / (t - s))
    if not logs:
        return (0.0, 1.0, 0.0)
    A = np.stack([np.ones(len(logs)), -np.asarray(quads)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.asarray(logs), rcond=None)
    resid = np.asarray(logs) - A @ coef
    return (math.exp(coef[0]), float(coef[1]), float(np.max(resid)))


# -- parametrix correction, row by row -------------------------------------------


def _bilinear(g, pz, pw, clip_w=True):
    """Bilinear lookup on a regular grid with fractional indices pz, pw."""
    nz, nw = g.shape
    pz = np.clip(pz, 0.0, nz - 1.0)
    if clip_w:
        pw = np.clip(pw, 0.0, nw - 1.0)
    iz = np.minimum(pz.astype(int), nz - 2)
    iw = np.minimum(np.clip(pw, 0.0, nw - 1.0).astype(int), nw - 2)
    fz = pz - iz
    fw = np.clip(pw, 0.0, nw - 1.0) - iw
    out = ((1 - fz) * (1 - fw) * g[iz, iw] + fz * (1 - fw) * g[iz + 1, iw]
           + (1 - fz) * fw * g[iz, iw + 1] + fz * fw * g[iz + 1, iw + 1])
    if not clip_w:
        out = np.where((pw < 0.0) | (pw > nw - 1.0), 0.0, out)
    return out


def table_lookup(tab, g, rho, v):
    """Raw values u(rho, v) of the series term g on the grid of table tab."""
    rho = np.asarray(rho, dtype=float)
    pz = ((tab.t_anchor - rho) / tab.span) ** (1.0 / TABLE_GAMMA) * len(tab.zeta) - 1.0
    if isinstance(tab, _ScaledTable):  # point table, self-similar columns
        scale = np.sqrt(tab.b_max * (tab.t_anchor - rho))
        pw = ((v - tab.y) / scale - tab.w[0]) / (tab.w[1] - tab.w[0])
        reg = _bilinear(g, pz, pw, clip_w=False)
    else:
        reg = _bilinear(g, pz, (v - tab.w[0]) / (tab.w[1] - tab.w[0]))
    return reg * (tab.t_anchor - rho) ** (-tab.reg_pow)


def row_sweep(kernel: CorrectionKernel, tab, term_reg, b_max):
    """One Volterra sweep, K^(1) convolved with the previous term, row by row."""
    t = tab.t_anchor
    out = np.zeros_like(term_reg)
    for k, sig in enumerate(tab.sigma):
        wrow = tab.nodes(k)
        rho, wr = singular_rule(sig, t, kernel.quad.n_time,
                                left_exp=0.5 * kernel.alpha - 1.0,
                                right_exp=-tab.reg_pow)
        scale = np.sqrt(b_max * (rho - sig))
        v, wv = kernel._window(wrow[:, None] + 0.0 * rho[None, :], scale[None, :])
        kern = kernel.source(sig, wrow[:, None, None], rho[None, :, None], v)
        uprev = table_lookup(tab, term_reg,
                             np.broadcast_to(rho[None, :, None], v.shape), v)
        out[k] = np.sum(kern * uprev * wv * wr[None, :, None], axis=(1, 2))
    return out * (t - tab.sigma)[:, None] ** tab.reg_pow


def reference_table(side, quad, kind, t_anchor, s_lo, w_lo, w_hi, **ctx):
    """The correction table of CorrectionKernel(side, quad).table(...), its
    series continued past the first term by row_sweep, with the library's
    stopping rule and divergence test."""
    kernel = CorrectionKernel(side, replace(quad, depth=1))
    tab = kernel.table(kind, None, t_anchor, s_lo, w_lo, w_hi, **ctx)
    b_max = tab.b_max
    term = tab.g.copy()
    scale = max(tab.term_sups[0], 1e-300)
    for _ in range(1, quad.depth):
        term = row_sweep(kernel, tab, term, b_max)
        tab.g = tab.g + term
        sup = float(np.max(np.abs(term)))
        tab.term_sups.append(sup)
        if sup <= SERIES_TOL * scale:
            break
    else:
        sups = tab.term_sups
        if len(sups) >= 2 and sups[-1] > sups[-2] and sups[-1] > SERIES_TOL * scale:
            raise ConvergenceFailureError("correction terms not decreasing")
    return tab


def _z0_convolution(fs: FundamentalSolution, s, x, t, p, b_max, right_exp,
                    factor, spread_at=None, spread=1.0):
    """Z0 at one (s, x) convolved over (s, t) x R with factor(rho, v)."""
    rho, wr = singular_rule(s, t, 2 * fs.quad.n_time, left_exp=0.0,
                            right_exp=right_exp)
    va = b_max * (rho - s)
    if spread_at is None:
        center = np.full_like(rho, x)
        scale = np.sqrt(va)
    else:
        vb = spread * b_max * (t - rho)
        center = (x * vb + spread_at * va) / (va + vb)
        scale = np.sqrt(va * vb / (va + vb))
    v, wv = fs.correction._window(center, scale)
    var = fs.side.diffusion(rho[:, None], v) * (rho[:, None] - s)
    z0 = _z0(var, v - x, p)
    return float(np.sum(z0 * factor(np.broadcast_to(rho[:, None], v.shape), v)
                        * wv * wr[:, None]))


def point_correction_loop(fs: FundamentalSolution, s, x, t: float, y: float, p: int = 0):
    """Z1 = G - Z0 at (s, x; t, y), one (s, x) point at a time.

    The point table is looked up in the cache, so the library's vectorized
    call must have built it first from the same smallest s; like the
    library's, it is sized by the anchor alone (or by its span class).
    """
    s_lo = float(np.min(s))
    tab = fs.correction.table("point", (y,), t, *fs.correction.extent(t, s_lo, y, y), y=y)
    return _point_corrections(fs, tab, s, x, t, y, p)


def point_correction_at_anchor(fs: FundamentalSolution, s, x, t: float, y: float,
                               p: int, span: float):
    """Z1 at (s, x; t, y) as point_correction_loop, from a point table built
    at the anchor (t, y) itself over (t - span, t), never shared or cached."""
    extent = fs.correction.extent(t, t - span, y, y)
    tab = fs.correction._build("point", t, *extent, {"y": y})
    return _point_corrections(fs, tab, s, x, t, y, p)


def _point_corrections(fs: FundamentalSolution, tab, s, x, t: float, y: float, p: int):
    """Z1 at (s, x; t, y), one (s, x) point at a time, from the point table
    tab read at the terminal time t."""
    s_arr, x_arr = np.broadcast_arrays(np.asarray(s, dtype=float),
                                       np.asarray(x, dtype=float))
    at_t = _ScaledTable.stacked([tab], np.zeros(1, dtype=int), [t])
    b_max = tab.b_max
    alpha = fs.correction.alpha
    out = np.empty(s_arr.shape)
    for idx in np.ndindex(s_arr.shape):
        si, xi = float(s_arr[idx]), float(x_arr[idx])
        term_one = _z0_convolution(
            fs, si, xi, t, p, b_max, 0.5 * alpha - 1.0,
            lambda rho, v: fs.correction.source(rho, v, t, y), spread_at=y)
        outer = _z0_convolution(fs, si, xi, t, p, b_max, -tab.reg_pow, at_t.eval,
                                spread_at=y, spread=2.0)
        out[idx] = term_one + outer
    return out


def anchor_loop(fs: FundamentalSolution, s, x, t, y, p: int = 0):
    """G^(p) on broadcast arrays whose trailing axis holds the points of one
    terminal anchor (t, y): one FundamentalSolution.eval call per anchor,
    with all of its points, so each table takes the same extent as in the
    library's array call."""
    s, x, t, y = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (s, x, t, y)))
    out = np.empty(s.shape)
    for idx in np.ndindex(s.shape[:-1]):
        out[idx] = fs.eval(s[idx], x[idx], float(t[idx][0]), float(y[idx][0]), p)
    return out


def z0_slice_poisson(fs: FundamentalSolution, s, x, t: float, phi, p: int = 0):
    """integral of Z0^(p)(s, x; t, y) phi(y) dy on an exact side, at points
    (s, x) that broadcast: Z0^(p) evaluated from z = y - x and the variance
    b (t - s) on every window node y of slice_integral, the reference for
    terminal_integral's unit profile."""
    s, x = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
    b = fs.side.diffusion.constant_value()
    return slice_integral(s, x, t, b, lambda y: _z0(
        fs.side.diffusion(t, y) * (t - s)[..., None], y - x[..., None], p), phi, SLICE_NODES)
