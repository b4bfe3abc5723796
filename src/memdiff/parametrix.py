"""Fundamental solutions of the two backward equations by the parametrix method.

For each side the kernel splits as G = Z0 + Z1, where Z0 is the Gaussian
with diffusion frozen at the terminal point,

    Z0(s,x,t,y) = [2 pi b(t,y) (t-s)]^{-1/2} exp(-(y-x)^2 / (2 b(t,y) (t-s))),

and Z1 is the space-time convolution of Z0 with a correction density Q.  Q
is the Neumann series Q = sum_m K^(m) built from

    K^(1)(s,x,t,y) = (d/ds + L_s) Z0 = (b(s,x)-b(t,y))/2 * d2Z0/dx2
                                       + a(s,x) * dZ0/dx,

with K^(m+1) the space-time convolution of K^(1) with K^(m).  When the
drift vanishes and the diffusion is constant, K^(1) is identically zero and
G = Z0 exactly; that case is detected structurally and skipped.

The series is never materialized in four variables.  Everything the solver
needs is a "terminal functional" of Q (evaluation at a fixed terminal
point, integration of the terminal slice against a weight, or a space-time
integral against a coefficient), and each such functional u(sigma, w) =
functional[Q(sigma, w, ., .)] satisfies the same Volterra recursion as Q.
The functionals are iterated on a product grid, graded in time toward the
terminal anchor and regularized by the known power of (t - sigma), then
convolved with Z0 for field evaluation.  Every iteration applies the same
linear map to the previous term, so each table builds that map once.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from ._quadrature import singular_rule, window_nodes
from .errors import ConvergenceFailureError, TimeOrderError
from .problem import SideSpec

# points per array pass of a Z0 convolution: a pass holds a few (point, time
# node, window node) arrays, about 0.25 MB each at the default quadrature.
# 8 anchors x 24 points in one pass peaked at 30 MB under tracemalloc, in
# blocks of 16 at 2.6 MB
POINT_BLOCK = 16


def _in_blocks(size: int, evaluate) -> np.ndarray:
    """evaluate(points) over consecutive slices of POINT_BLOCK points."""
    out = np.empty(size)
    for lo in range(0, size, POINT_BLOCK):
        out[lo:lo + POINT_BLOCK] = evaluate(slice(lo, lo + POINT_BLOCK))
    return out


@dataclass(frozen=True)
class CorrectionQuadrature:
    """Discretization parameters for the correction-kernel machinery.

    n_sigma, n_w, gamma control the product grid of the cached tables;
    n_time and n_space the convolution quadratures (n_space is per panel of
    the Gaussian window); r_cut truncates space integrals at
    r_cut * sqrt(b_max * dt); depth and tol stop the Neumann iteration.
    """

    n_sigma: int = 24
    n_w: int = 48
    gamma: float = 2.0
    n_time: int = 12
    n_space: int = 10
    r_cut: float = 8.0
    depth: int = 8
    tol: float = 1e-8

    def refined(self, factor: int = 2) -> "CorrectionQuadrature":
        return replace(self, n_sigma=self.n_sigma * factor, n_w=self.n_w * factor,
                       n_time=self.n_time * factor, n_space=self.n_space * factor)


class PrincipalKernel:
    """Gaussian principal part Z0 of one side, with x-derivatives up to 2."""

    def __init__(self, side: SideSpec):
        self.side = side

    def __call__(self, s, x, t, y, p: int = 0):
        if p not in (0, 1, 2):
            raise ValueError("derivative order must be 0, 1 or 2")
        s, x, t, y = map(np.asarray, (s, x, t, y))
        dt = t - s
        if np.any(dt <= 0):
            raise TimeOrderError("principal kernel needs s < t")
        out = _z0(self.side.diffusion(t, y) * dt, y - x, p)
        return float(out) if out.ndim == 0 else out


def _z0(var, z, p):
    """Z0 (p = 0) or its x-derivative of order p = 1 or 2.

    var = b(t, y) (t - s) is the frozen-coefficient variance and z = y - x.
    """
    g = np.exp(-z * z / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
    if p == 0:
        return g
    if p == 1:
        return g * z / var
    return g * (z * z / var - 1.0) / var


class _CorrectionSource:
    """The generating kernel K^(1) = (d/ds + L_s) Z0, vectorized."""

    def __init__(self, side: SideSpec):
        self.side = side
        self._drift_null = side.drift.is_constant and side.drift.constant_value() == 0.0
        self._diff_const = side.diffusion.is_constant

    @property
    def is_null(self) -> bool:
        return self._drift_null and self._diff_const

    def __call__(self, s, x, t, y, b_sx=None, b_ty=None):
        """K^(1)(s, x; t, y); a caller that holds b_sx = b(s, x) or
        b_ty = b(t, y) passes it in."""
        if b_ty is None:
            b_ty = self.side.diffusion(t, y)
        var, z = b_ty * (t - s), y - x
        out = 0.0
        if not self._diff_const:
            if b_sx is None:
                b_sx = self.side.diffusion(s, x)
            out = 0.5 * (b_sx - b_ty) * _z0(var, z, 2)
        elif not self._drift_null:
            out = np.zeros(np.broadcast_shapes(np.shape(s), np.shape(x),
                                               np.shape(t), np.shape(y)))
        if not self._drift_null:
            out = out + self.side.drift(s, x) * _z0(var, z, 1)
        return out


def _bracket(p, n: int):
    """Lower node i and fraction f of fractional indices p on a grid of n
    nodes, clipped to the grid: a linear lookup weighs node i by 1 - f and
    node i + 1 by f."""
    p = np.clip(p, 0.0, n - 1.0)
    i = np.minimum(p.astype(int), n - 2)
    return i, p - i


class _Table:
    """One terminal functional of Q on a graded (sigma, w) product grid.

    Values are stored regularized: g = (t_anchor - sigma)^reg_pow * u, and
    interpolated bilinearly in (zeta, w) with zeta = ((t - sigma)/span)^(1/gamma)
    uniform over the rows.  Below the first row (sigma -> t_anchor) the
    regularized value is extended as a constant.  Used for the spatially
    smooth anchors (terminal-slice and space-time weights).

    Lookups take times rho and points v that broadcast; rho keeps its own
    (smaller) axes, so everything that depends on time alone is computed
    once per time node.
    """

    # first row of this table in g (nonzero in a stacked lookup)
    row0 = 0

    def __init__(self, t_anchor, s_lo, w_lo, w_hi, reg_pow, quad):
        self.t_anchor = t_anchor
        self.s_lo = s_lo
        self.span = t_anchor - s_lo
        self.gamma = quad.gamma
        self.reg_pow = reg_pow
        n = quad.n_sigma
        self.zeta = (np.arange(1, n + 1)) / n
        self.sigma = t_anchor - self.span * self.zeta ** quad.gamma
        self.w = np.linspace(w_lo, w_hi, quad.n_w)
        self.g = np.zeros((n, quad.n_w))
        self.term_sups: list[float] = []

    def covers(self, s_lo, w_lo, w_hi) -> bool:
        return (self.s_lo <= s_lo + 1e-12 and self.w[0] <= w_lo + 1e-9
                and self.w[-1] >= w_hi - 1e-9)

    def merged(self, s_lo, w_lo, w_hi) -> tuple:
        """Extent of a rebuild that covers this table and the request."""
        return min(s_lo, self.s_lo), min(w_lo, self.w[0]), max(w_hi, self.w[-1])

    def nodes(self, k: int) -> np.ndarray:
        return self.w

    def rows(self, rho):
        """Row bracket (iz, fz) of times rho: zeta rows iz and iz + 1."""
        zeta = ((self.t_anchor - rho) / self.span) ** (1.0 / self.gamma)
        return _bracket(zeta * len(self.zeta) - 1.0, len(self.zeta))

    def columns(self, rho, v):
        """Column bracket (iw, fw) of points (rho, v), and where the table
        holds them (None: everywhere, the bracket clips)."""
        iw, fw = _bracket((v - self.w[0]) / (self.w[1] - self.w[0]), len(self.w))
        return iw, fw, None

    def eval(self, rho, v):
        """Raw functional values u(rho, v), bilinear in (zeta, w)."""
        rho = np.asarray(rho, dtype=float)
        iz, fz = self.rows(rho)
        iz = iz + self.row0
        iw, fw, inside = self.columns(rho, v)
        g = self.g
        out = ((1 - fz) * (1 - fw) * g[iz, iw] + fz * (1 - fw) * g[iz + 1, iw]
               + (1 - fz) * fw * g[iz, iw + 1] + fz * fw * g[iz + 1, iw + 1])
        if inside is not None:
            out = np.where(inside, out, 0.0)
        return out * (self.t_anchor - rho) ** (-self.reg_pow)


class _ScaledTable(_Table):
    """Point-anchored table in self-similar coordinates.

    Iterated kernels evaluated at a fixed terminal point (t, y) concentrate
    around y on the scale sqrt(b (t - sigma)), so rows hold values on nodes
    y + xi * sqrt(b_ref (t - sigma)) with a fixed xi-grid.  In (zeta, xi)
    coordinates every series term is an O(1)-width smooth profile, which a
    plain product grid can interpolate.  Outside the xi-range the kernels
    have decayed: values are zero there.
    """

    def __init__(self, t_anchor, s_lo, y, b_ref, reg_pow, quad):
        self.t_anchor = t_anchor
        self.s_lo = s_lo
        self.span = t_anchor - s_lo
        self.gamma = quad.gamma
        self.reg_pow = reg_pow
        self.y = y
        self.b_ref = b_ref
        n = quad.n_sigma
        self.zeta = (np.arange(1, n + 1)) / n
        self.sigma = t_anchor - self.span * self.zeta ** quad.gamma
        self.xi = np.linspace(-quad.r_cut, quad.r_cut, quad.n_w)
        self.g = np.zeros((n, quad.n_w))
        self.term_sups: list[float] = []

    def covers(self, s_lo, w_lo, w_hi) -> bool:
        return self.s_lo <= s_lo + 1e-12

    def merged(self, s_lo, w_lo, w_hi) -> tuple:
        # the xi grid has no window to widen; the request's window sets b_ref
        return min(s_lo, self.s_lo), w_lo, w_hi

    @classmethod
    def stacked(cls, tables, anchor):
        """The point tables of one kernel as a single lookup whose leading
        axis holds points: point k reads tables[anchor[k]]."""
        tab = copy.copy(tables[0])
        for name in ("t_anchor", "span", "y", "b_ref"):
            per_table = np.array([getattr(t, name) for t in tables])
            setattr(tab, name, per_table[anchor][:, None, None])
        tab.row0 = (len(tab.zeta) * anchor)[:, None, None]
        tab.g = np.concatenate([t.g for t in tables])
        return tab

    def nodes(self, k: int) -> np.ndarray:
        scale = math.sqrt(self.b_ref * (self.t_anchor - self.sigma[k]))
        return self.y + self.xi * scale

    def columns(self, rho, v):
        scale = np.sqrt(self.b_ref * (self.t_anchor - rho))
        pw = ((v - self.y) / scale - self.xi[0]) / (self.xi[1] - self.xi[0])
        iw, fw = _bracket(pw, len(self.xi))
        return iw, fw, (pw >= 0.0) & (pw <= len(self.xi) - 1.0)


class CorrectionKernel:
    """Neumann-series correction of one side, cached per terminal anchor.

    Supports three anchor families: 'point' tables hold the remainder
    Q - K^(1) at a fixed terminal point (the first series term is handled in
    closed form by the callers), 'final' tables hold the terminal-slice
    integral of Q against a weight, and 'spacetime' tables the space-time
    integral of Q against a coefficient.
    """

    def __init__(self, side: SideSpec, quad: CorrectionQuadrature | None = None):
        self.side = side
        self.quad = quad or CorrectionQuadrature()
        self.source = _CorrectionSource(side)
        self.alpha = side.holder_exponent
        self._tables: dict = {}
        self._lock = threading.Lock()

    @property
    def is_null(self) -> bool:
        return self.source.is_null

    # -- grid helpers -----------------------------------------------------

    def _b_max(self, t_anchor, w_lo, w_hi):
        """Largest diffusion sampled on [0, t_anchor] x [w_lo, w_hi]; the
        arguments may be arrays, one entry per anchor."""
        ss = np.linspace(0.0, t_anchor, 9, axis=-1)[..., :, None]
        xs = np.linspace(w_lo, w_hi, 17, axis=-1)[..., None, :]
        return np.max(self.side.diffusion(ss, xs), axis=(-2, -1))

    def _window(self, centers, scales):
        return window_nodes(centers, scales, self.quad.n_space, self.quad.r_cut)

    # -- table construction ------------------------------------------------

    def table(self, kind: str, key, t_anchor: float, s_lo: float,
              w_lo: float, w_hi: float, **ctx) -> _Table:
        cache_key = (kind, key, round(t_anchor, 12))
        with self._lock:
            tab = self._tables.get(cache_key)
            if tab is not None and tab.covers(s_lo, w_lo, w_hi):
                return tab
            if tab is not None:
                s_lo, w_lo, w_hi = tab.merged(s_lo, w_lo, w_hi)
            tab = self._build(kind, t_anchor, s_lo, w_lo, w_hi, ctx)
            self._tables[cache_key] = tab
            return tab

    def _build(self, kind, t_anchor, s_lo, w_lo, w_hi, ctx) -> _Table:
        alpha = self.alpha
        b_max = self._b_max(t_anchor, w_lo, w_hi)
        if kind == "point":
            reg_pow = min(0.5 * (3.0 - 2.0 * alpha), 0.95)
            tab = _ScaledTable(t_anchor, s_lo, ctx["y"], b_max, reg_pow, self.quad)
        elif kind == "final":
            reg_pow = min(1.0 - 0.5 * alpha, 0.95)
            tab = _Table(t_anchor, s_lo, w_lo, w_hi, reg_pow, self.quad)
        elif kind == "spacetime":
            reg_pow = 0.0
            tab = _Table(t_anchor, s_lo, w_lo, w_hi, reg_pow, self.quad)
        else:
            raise ValueError(f"unknown table kind {kind!r}")
        first = self._first_term(kind, tab, b_max, ctx)
        reg = (t_anchor - tab.sigma)[:, None] ** reg_pow
        term = first * reg
        tab.g = term.copy()
        tab.term_sups = [float(np.max(np.abs(term)))]
        scale = max(tab.term_sups[0], 1e-300)
        sweep = self._sweep(tab, b_max) if self.quad.depth > 1 else None
        for _ in range(1, self.quad.depth):
            term = sweep(term)
            tab.g += term
            sup = float(np.max(np.abs(term)))
            tab.term_sups.append(sup)
            if sup <= self.quad.tol * scale:
                break
        else:
            sups = tab.term_sups
            if len(sups) >= 2 and sups[-1] > sups[-2] and sups[-1] > self.quad.tol * scale:
                raise ConvergenceFailureError(
                    f"correction terms not decreasing at depth {self.quad.depth}: "
                    f"{sups[-2]:.3e} -> {sups[-1]:.3e}")
        return tab

    def _first_term(self, kind, tab, b_max, ctx) -> np.ndarray:
        t = tab.t_anchor
        out = np.zeros(tab.g.shape)
        for k, sig in enumerate(tab.sigma):
            wrow = tab.nodes(k)
            if kind == "final":
                weight = ctx["weight"]
                y, wy = self._window(wrow, math.sqrt(b_max * (t - sig)))
                vals = self.source(sig, wrow[:, None], t, y) * weight(y)
                out[k] = np.sum(vals * wy, axis=-1)
            elif kind == "spacetime":
                coeff = ctx["coeff"]
                tau, wt = singular_rule(sig, t, self.quad.n_time,
                                        left_exp=0.5 * self.alpha - 1.0)
                scale = np.sqrt(b_max * (tau - sig))
                z, wz = self._window(wrow[:, None] + 0.0 * tau[None, :],
                                     scale[None, :])
                vals = self.source(sig, wrow[:, None, None], tau[None, :, None], z)
                vals = vals * coeff(tau[None, :, None], z)
                out[k] = np.sum(vals * wz * wt[None, :, None], axis=(1, 2))
            else:  # point: second series term at the anchor
                y = ctx["y"]
                rho, wr = singular_rule(sig, t, self.quad.n_time,
                                        left_exp=0.5 * self.alpha - 1.0,
                                        right_exp=0.5 * self.alpha - 1.0)
                va = b_max * (rho - sig)
                vb = b_max * (t - rho)
                center = (wrow[:, None] * vb[None, :] + y * va[None, :]) / (va + vb)
                scale = np.sqrt(va * vb / (va + vb))
                v, wv = self._window(center, scale[None, :])
                rho_v = rho[None, :, None]
                b_rv = self.side.diffusion(rho_v, v)
                vals = (self.source(sig, wrow[:, None, None], rho_v, v, b_ty=b_rv)
                        * self.source(rho_v, v, t, y, b_sx=b_rv))
                out[k] = np.sum(vals * wv * wr[None, :, None], axis=(1, 2))
        return out

    def _sweep(self, tab: _Table, b_max):
        """One Volterra sweep, K^(1) convolved with the previous term, as a
        linear map of that term's regularized values on the table grid.

        The sweep's time rule, Gaussian windows and K^(1) values are the
        same for every term, so they are computed once per table, one sigma
        row at a time, with the window axis folded onto the n_w columns the
        lookup interpolates between: op[k, w, r, c] weighs column c of the
        previous term, interpolated to time rho[k, r] between zeta rows iz
        and iz + 1.  A sweep is then one gather of those rows and one
        contraction.
        """
        t, n_time = tab.t_anchor, self.quad.n_time
        n_sigma, n_w = tab.g.shape
        rho, wr = singular_rule(tab.sigma, t, n_time,
                                left_exp=0.5 * self.alpha - 1.0,
                                right_exp=-tab.reg_pow)
        iz, fz = tab.rows(rho)
        # regularization of the lookup and of the new term, with the time weights
        wr = wr * (t - rho) ** (-tab.reg_pow) * (t - tab.sigma)[:, None] ** tab.reg_pow
        cell = (np.arange(n_w)[:, None, None] * n_time
                + np.arange(n_time)[None, :, None]) * n_w
        op = np.empty((n_sigma, n_w, n_time, n_w))
        for k, sig in enumerate(tab.sigma):
            wrow = tab.nodes(k)
            scale = np.sqrt(b_max * (rho[k] - sig))
            v, wv = self._window(wrow[:, None], scale[None, :])
            rho_k = rho[k][None, :, None]
            weight = self.source(sig, wrow[:, None, None], rho_k, v) * wv * wr[k][:, None]
            iw, fw, inside = tab.columns(rho_k, v)
            if inside is not None:
                weight = weight * inside
            cells = (cell + iw).ravel()
            op[k] = (np.bincount(cells, (weight * (1 - fw)).ravel(), op[k].size)
                     + np.bincount(cells + 1, (weight * fw).ravel(), op[k].size)
                     ).reshape(op[k].shape)
        fz = fz[..., None]

        def sweep(term):
            return np.einsum("kwrc,krc->kw", op, (1 - fz) * term[iz] + fz * term[iz + 1])
        return sweep


class FundamentalSolution:
    """Evaluator for G = Z0 + Z1 of one side, with x-derivatives up to 2."""

    def __init__(self, side: SideSpec, quad: CorrectionQuadrature | None = None):
        self.side = side
        self.quad = quad or CorrectionQuadrature()
        self.principal = PrincipalKernel(side)
        self.correction = CorrectionKernel(side, self.quad)

    @property
    def is_exact(self) -> bool:
        return self.correction.is_null

    # -- pointwise evaluation ----------------------------------------------

    def __call__(self, s, x, t, y, p: int = 0):
        return self.eval(s, x, t, y, p)

    def eval(self, s, x, t, y, p: int = 0):
        """G and its x-derivatives at (s, x, t, y); y and x may be arrays."""
        z0 = self.principal(s, x, t, y, p)
        if self.is_exact:
            return z0
        return z0 + self._correction_point(s, x, float(t), float(y), p)

    def on_anchors(self, s, x, t, y, p: int = 0, mask=None):
        """G^(p)(s, x; t, y) on broadcast arrays whose trailing axis holds
        points that share one terminal anchor (t, y).

        On a side with a correction term only anchors where mask (over the
        leading axes) is set are evaluated, the others read zero, and each
        anchor's cached table is sized by its own points in this call.
        """
        if self.is_exact:
            return self.principal(s, x, t, y, p)
        s, x, t, y = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (s, x, t, y)))
        keep = (np.ones(s.shape[:-1], dtype=bool) if mask is None
                else np.broadcast_to(mask, s.shape[:-1]))
        out = np.zeros(s.shape)
        if np.any(keep):
            s, x, t, y = s[keep], x[keep], t[keep], y[keep]
            out[keep] = (self.principal(s, x, t, y, p)
                         + self._corrections(s, x, t[:, 0], y[:, 0], p))
        return out

    def _correction_point(self, s, x, t, y, p):
        s_arr, x_arr = np.broadcast_arrays(np.asarray(s, dtype=float),
                                           np.asarray(x, dtype=float))
        out = self._corrections(s_arr.reshape(1, -1), x_arr.reshape(1, -1),
                                np.array([t]), np.array([y]), p).reshape(s_arr.shape)
        return float(out) if out.ndim == 0 else out

    def _corrections(self, s, x, t, y, p):
        """Z1^(p) at points (s, x) of shape (anchors, points); row a belongs
        to the terminal anchor (t[a], y[a]).

        Each anchor's point table and b_max come from the smallest s and the
        x-range of its row.  The first series term (closed form) and the
        tabulated remainder are convolved with Z0 for all (anchor, point)
        pairs, POINT_BLOCK pairs per array pass.
        """
        corr = self.correction
        pad = self._pad(t)
        w_lo = np.minimum(np.min(x, axis=1), y) - pad
        w_hi = np.maximum(np.max(x, axis=1), y) + pad
        b_max = corr._b_max(t, w_lo, w_hi)
        extents = zip(*(v.tolist() for v in (t, y, 0.75 * np.min(s, axis=1), w_lo, w_hi)))
        tables = [corr.table("point", (round(ya, 12),), ta, s_lo, lo, hi, y=ya)
                  for ta, ya, s_lo, lo, hi in extents]
        n_points = s.shape[1]
        anchor = np.repeat(np.arange(len(t)), n_points)
        s, x = s.ravel(), x.ravel()

        def block(pairs):
            a = anchor[pairs]
            t_a, y_a, b_a = t[a], y[a], b_max[a]
            tab = _ScaledTable.stacked(tables[a[0]:a[-1] + 1], a - a[0])

            def first_term(rho, v, b_rv):
                return corr.source(rho, v, t_a[:, None, None], y_a[:, None, None], b_sx=b_rv)

            return (self._z0_convolution(s[pairs], x[pairs], t_a, p, b_a,
                                         0.5 * corr.alpha - 1.0, first_term, spread_at=y_a)
                    + self._z0_convolution(s[pairs], x[pairs], t_a, p, b_a, -tab.reg_pow,
                                           lambda rho, v, _: tab.eval(rho, v),
                                           spread_at=y_a, spread=2.0))
        return _in_blocks(s.size, block).reshape(-1, n_points)

    def _bmax_guess(self, t):
        """Largest diffusion sampled on [0, t] at x = 0; t may be an array."""
        ss = np.linspace(0.0, t, 5, axis=-1)
        return np.max(self.side.diffusion(ss, 0.0 * ss), axis=-1) + 1e-12

    def _pad(self, t):
        """Margin of a table's window around its evaluation points."""
        return self.quad.r_cut * np.sqrt(self._bmax_guess(t) * t) + 0.5

    def _z0_convolution(self, s, x, t, p, b_max, right_exp, factor,
                        spread_at=None, spread=1.0):
        """integral over (s, t) x R of Z0^(p)(s, x; rho, v) factor(rho, v, b),
        at points (s, x) of any shape; t, b_max and spread_at are scalars or
        arrays of that shape.

        factor gets b = b(rho, v), the variance coefficient of Z0.  It is K^(1)
        at a terminal point or a cached table, singular like
        (t - rho)^right_exp.  The windows sit at x, or, with spread_at, at the
        variance-weighted mean of x and spread_at, where spread scales the
        variance of the factor's Gaussian.
        """
        rho, wr = singular_rule(s, t, 2 * self.quad.n_time,
                                left_exp=0.0, right_exp=right_exp)
        s, x = np.asarray(s)[..., None], np.asarray(x)[..., None]
        t, b_max = np.asarray(t)[..., None], np.asarray(b_max)[..., None]
        va = b_max * (rho - s)
        if spread_at is None:
            center, scale = x, np.sqrt(va)
        else:
            vb = spread * b_max * (t - rho)
            center = (x * vb + np.asarray(spread_at)[..., None] * va) / (va + vb)
            scale = np.sqrt(va * vb / (va + vb))
        v, wv = self.correction._window(center, scale)
        rho = rho[..., None]
        b_rv = self.side.diffusion(rho, v)
        z0 = _z0(b_rv * (rho - s[..., None]), v - x[..., None], p)
        return np.sum(z0 * factor(rho, v, b_rv) * wv * wr[..., None], axis=(-2, -1))

    # -- weighted terminal functionals ---------------------------------------

    def final_table(self, key, weight, t, s_lo, x_lo, x_hi) -> _Table:
        """The cached terminal-slice table of weight that serves evaluation
        points (s, x) with s >= s_lo and x in [x_lo, x_hi]."""
        pad = self._pad(t)
        return self.correction.table("final", key, t, 0.75 * s_lo, x_lo - pad, x_hi + pad,
                                     weight=weight)

    def terminal_integral(self, s, x, t, weight, key, p: int = 0):
        """integral of G(s,x,t,y)^{(p)} weight(y) dy for a fixed terminal time,
        at points (s, x) that broadcast."""
        s, x = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
        if np.any(s >= t):
            raise TimeOrderError("terminal integral needs s < t")
        b_max = self._bmax_guess(t)
        y, wy = window_nodes(x, np.sqrt(b_max * (t - s)),
                             2 * self.quad.n_space, self.quad.r_cut)
        z0 = _z0(self.side.diffusion(t, y) * (t - s)[..., None], y - x[..., None], p)
        out = np.sum(z0 * weight(y) * wy, axis=-1)
        if not self.is_exact and s.size:
            tab = self.final_table(key, weight, t, float(np.min(s)),
                                   float(np.min(x)), float(np.max(x)))
            s_flat, x_flat = s.ravel(), x.ravel()
            out = out + _in_blocks(s.size, lambda pts: self._z0_convolution(
                s_flat[pts], x_flat[pts], t, p, b_max, -tab.reg_pow,
                lambda rho, v, _: tab.eval(rho, v))).reshape(s.shape)
        return float(out) if out.ndim == 0 else out

    def spacetime_integral(self, s, x, t, coeff, key):
        """integral over (s,t) x R of G(s,x,tau,z) coeff(tau,z) dz dtau."""
        if s >= t:
            raise TimeOrderError("space-time integral needs s < t")
        b_max = self._bmax_guess(t)
        tau, wt = singular_rule(s, t, 2 * self.quad.n_time)
        z, wz = window_nodes(np.full_like(tau, x), np.sqrt(b_max * (tau - s)),
                             self.quad.n_space, self.quad.r_cut)
        var = self.side.diffusion(tau[:, None], z) * (tau[:, None] - s)
        z0 = _z0(var, z - x, 0)
        direct = float(np.sum(z0 * coeff(tau[:, None], z) * wz * wt[:, None]))
        if self.is_exact:
            return direct
        pad = self._pad(t)
        tab = self.correction.table("spacetime", key, t, 0.75 * s, x - pad, x + pad,
                                    coeff=coeff)
        return direct + float(self._z0_convolution(s, x, t, 0, b_max, 0.0,
                                                   lambda rho, v, _: tab.eval(rho, v)))


def moment_residuals(fs: FundamentalSolution, s: float, x: float, t: float):
    """Residuals of the three moment identities of the fundamental solution.

    residual 0: |integral G dy - 1|
    residual 1: |integral G (y-x) dy - double integral of G a|
    residual 2: |integral G (y-x)^2 dy - double integral of G b
                 - 2 double integral of G a (z-x)|
    """
    if s >= t:
        raise TimeOrderError("moment identities need s < t")
    xr = round(x, 12)
    m0 = fs.terminal_integral(s, x, t, lambda y: np.ones_like(y), ("m0",))
    m1 = fs.terminal_integral(s, x, t, lambda y: y - x, ("m1", xr))
    m2 = fs.terminal_integral(s, x, t, lambda y: (y - x) ** 2, ("m2", xr))
    drift_null = fs.side.drift.is_constant and fs.side.drift.constant_value() == 0.0
    if drift_null:
        ra = 0.0
        rax = 0.0
    else:
        ra = fs.spacetime_integral(s, x, t, lambda tau, z: fs.side.drift(tau, z),
                                   ("a",))
        rax = fs.spacetime_integral(
            s, x, t, lambda tau, z: fs.side.drift(tau, z) * (z - x), ("ax", xr))
    rb = fs.spacetime_integral(s, x, t, lambda tau, z: fs.side.diffusion(tau, z),
                               ("b",))
    return (abs(m0 - 1.0), abs(m1 - ra), abs(m2 - rb - 2.0 * rax))
