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
G = Z0 exactly; CorrectionKernel.is_null detects that case structurally.

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

from ._quadrature import R_CUT, singular_rule, unit_window, window_nodes
from .errors import ConvergenceFailureError, SingularIntegrandError, TimeOrderError
from .problem import SideSpec

# points per array pass of a Z0 convolution: a pass holds a few (point, time
# node, window node) arrays, about 0.25 MB each at the default quadrature.
# 8 anchors x 24 points in one pass peaked at 30 MB under tracemalloc, in
# blocks of 16 at 2.6 MB
POINT_BLOCK = 16
# points per array pass of a terminal integral's window (x 8 SLICE_NODES nodes): at 512,
# fresh pages for the 512 KB temporaries cost a two-scale const-solve 18 ms, not 10 ms
WINDOW_BLOCK = 128

# table rows sigma = t - span * zeta^TABLE_GAMMA, zeta uniform, cluster at
# the terminal anchor like the mesh of the density solve
TABLE_GAMMA = 2.0
# a Neumann series stops once a term falls below this fraction of its first
SERIES_TOL = 1e-8
# Gauss points per window panel of a Poisson potential's Z0 slice, or of the
# exact side's _UNIT_PROFILE: 20 and 32 moved no Poisson value by more than
# 1.2e-15, 12 by 1.7e-12 (two-scale moving problem, Gaussian phi, p = 0 and 1)
SLICE_NODES = 16


def _in_blocks(size: int, evaluate, block: int = POINT_BLOCK) -> np.ndarray:
    """evaluate(points) over consecutive slices of block points."""
    out = np.empty(size)
    for lo in range(0, size, block):
        out[lo:lo + block] = evaluate(slice(lo, lo + block))
    return out


@dataclass(frozen=True)
class CorrectionQuadrature:
    """Discretization parameters for the correction-kernel machinery.

    n_sigma and n_w size the product grid of the cached tables; n_time and
    n_space the convolution quadratures (n_space is per panel of the
    Gaussian window); depth caps the terms of the Neumann series.
    """

    n_sigma: int = 24
    n_w: int = 48
    n_time: int = 12
    n_space: int = 10
    depth: int = 8

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


def _z0_drop(var, z, g=None):
    """g - Z0(var, 0), its drop below the peak 1/q, q = sqrt(2 pi var); g is
    Z0(var, z) unless given.  One sqrt and at most one exp, and bitwise
    _z0(var, z, 0) - _z0(var, 0, 0): the peak's exponential is exp(-0) = 1."""
    q = np.sqrt(2.0 * math.pi * var)
    if g is None:
        g = np.exp(-z * z / (2.0 * var)) / q
    return g - 1.0 / q


# omega Z0^(p)(var 1, u) on the unit window (u, omega), p = 0, 1, 2: on the
# window y = x + u sigma, Z0^(p)(sigma^2, y - x) sigma omega is sigma^-p times it
_UNIT_PROFILE = tuple(w * _z0(1.0, u, p) for u, w in [unit_window(SLICE_NODES)]
                      for p in range(3))


def _z0_left(p):
    """Z0^(p)(s, x; rho, v) as the left factor of a space-time convolution,
    with b = b(rho, v)."""
    return lambda s, x, rho, v, b: _z0(b * (rho - s), v - x, p)


def slice_integral(s, x, t, b, left, weight, n_space: int):
    """integral over R of left(y) weight(y) dy on the terminal slice at t, at
    points (s, x) of any shape, with a window at x on the scale
    sqrt(b (t - s)); left and weight get the window nodes on one more
    trailing axis."""
    y, wy = window_nodes(x, np.sqrt(b * (t - s)), n_space)
    return np.sum(left(y) * weight(y) * wy, axis=-1)


def _span_class(span: float) -> float:
    """span rounded up to a power of two."""
    mantissa, exponent = math.frexp(span)
    return math.ldexp(1.0, exponent - (mantissa == 0.5))


def _bracket(p, n: int):
    """Lower node i and fraction f of fractional indices p on a grid of n
    nodes, clipped to the grid (a NaN, 0/0 at a table's anchor, raises): a
    linear lookup weighs node i by 1 - f and node i + 1 by f."""
    if np.isnan(p).any():
        raise SingularIntegrandError("NaN table index: a time rounded onto its anchor")
    p = np.clip(p, 0.0, n - 1.0)
    i = np.minimum(p.astype(int), n - 2)
    return i, p - i


class _Table:
    """One terminal functional of Q on a graded (sigma, w) product grid.

    Values are stored regularized: g = (t_anchor - sigma)^reg_pow * u, and
    interpolated bilinearly in (zeta, w), zeta = ((t - sigma)/span)^(1/TABLE_GAMMA)
    uniform over the rows.  Below the first row (sigma -> t_anchor) the
    regularized value is extended as a constant.  Used for the spatially
    smooth anchors (terminal-slice and space-time weights).

    Lookups take times rho and points v that broadcast; rho keeps its own
    (smaller) axes, so everything that depends on time alone is computed
    once per time node.  b_max, the largest diffusion over the table's
    extent, scales the windows of its build and of every Z0 convolution of it.
    """

    # first row of this table in g (nonzero in a stacked lookup)
    row0 = 0

    def __init__(self, t_anchor, s_lo, w_lo, w_hi, b_max, reg_pow, quad):
        self.t_anchor = t_anchor
        self.s_lo = s_lo
        self.span = t_anchor - s_lo
        self.b_max = b_max
        self.reg_pow = reg_pow
        n = quad.n_sigma
        self.zeta = (np.arange(1, n + 1)) / n
        self.sigma = t_anchor - self.span * self.zeta ** TABLE_GAMMA
        self.w = np.linspace(w_lo, w_hi, quad.n_w)
        self.g = np.zeros((n, quad.n_w))
        self.term_sups: list[float] = []

    def covers(self, s_lo, w_lo, w_hi) -> bool:
        return (self.s_lo <= s_lo + 1e-12 and self.w[0] <= w_lo + 1e-9
                and self.w[-1] >= w_hi - 1e-9)

    def nodes(self, k: int) -> np.ndarray:
        return self.w

    def rows(self, rho):
        """Row bracket (iz, fz) of times rho: zeta rows iz and iz + 1."""
        zeta = ((self.t_anchor - rho) / self.span) ** (1.0 / TABLE_GAMMA)
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
    y + w * sqrt(b_max (t - sigma)), with the column grid w spanning
    [-R_CUT, R_CUT] in units of that scale.  In (zeta, w) coordinates every
    series term is an O(1)-width smooth profile, which a plain product grid
    can interpolate.  Outside the w-range the kernels have decayed: values
    are zero there.

    Lookups go through stacked, which takes each point's terminal time from
    the caller: a table that CorrectionKernel.table shares between anchors
    keeps the canonical anchor it was built at.
    """

    def __init__(self, t_anchor, s_lo, y, b_max, reg_pow, quad):
        super().__init__(t_anchor, s_lo, -R_CUT, R_CUT, b_max, reg_pow, quad)
        self.y = y

    def covers(self, s_lo, w_lo, w_hi) -> bool:
        return self.s_lo <= s_lo + 1e-12

    @classmethod
    def stacked(cls, tables, anchor, t):
        """The point tables of one kernel as a single lookup whose leading
        axis holds points: point k reads tables[anchor[k]] with terminal
        time t[k], so rows and columns measure t[k] - rho."""
        tab = copy.copy(tables[0])
        for name in ("span", "y", "b_max"):
            per_table = np.array([getattr(table, name) for table in tables])
            setattr(tab, name, per_table[anchor][:, None, None])
        tab.t_anchor = np.asarray(t)[:, None, None]
        tab.row0 = (len(tab.zeta) * anchor)[:, None, None]
        tab.g = np.concatenate([table.g for table in tables])
        return tab

    def nodes(self, k: int) -> np.ndarray:
        scale = math.sqrt(self.b_max * (self.t_anchor - self.sigma[k]))
        return self.y + self.w * scale

    def columns(self, rho, v):
        scale = np.sqrt(self.b_max * (self.t_anchor - rho))
        with np.errstate(invalid="ignore"):  # 0/0 at scale 0: _bracket raises
            pw = ((v - self.y) / scale - self.w[0]) / (self.w[1] - self.w[0])
        iw, fw = _bracket(pw, len(self.w))
        return iw, fw, (pw >= 0.0) & (pw <= len(self.w) - 1.0)


class CorrectionKernel:
    """Neumann-series correction of one side, cached per terminal anchor, or
    per span class for the point tables of a time-homogeneous side.

    Supports three anchor families: 'point' tables hold the remainder
    Q - K^(1) at a fixed terminal point (the first series term is handled in
    closed form by the callers), 'final' tables hold the terminal-slice
    integral of Q against a weight, and 'spacetime' tables the space-time
    integral of Q against a coefficient.  When drift and diffusion do not
    depend on s, the series at a terminal point (t, y) depends on t only
    through t - sigma, so the anchors (t, y) whose spans round up to the same
    power of two share one point table (see table).
    """

    def __init__(self, side: SideSpec, quad: CorrectionQuadrature | None = None):
        self.side = side
        self.quad = quad or CorrectionQuadrature()
        self.drift_null = side.drift.is_constant and side.drift.constant_value() == 0.0
        self.diffusion_constant = side.diffusion.is_constant
        self.is_null = self.drift_null and self.diffusion_constant
        self.alpha = side.holder_exponent
        self._shares_points = side.is_time_homogeneous
        self._tables: dict = {}
        self._lock = threading.Lock()

    def source(self, s, x, t, y, b_ty=None, b_sx=None):
        """The generating kernel K^(1)(s, x; t, y) = (d/ds + L_s) Z0; a caller
        that holds b_ty = b(t, y) or b_sx = b(s, x) passes it in, so K^(1)
        serves as the left factor of convolution."""
        if b_ty is None:
            b_ty = self.side.diffusion(t, y)
        var, z = b_ty * (t - s), y - x
        out = 0.0
        if not self.diffusion_constant:
            if b_sx is None:
                b_sx = self.side.diffusion(s, x)
            out = 0.5 * (b_sx - b_ty) * _z0(var, z, 2)
        if not self.drift_null:
            out = out + self.side.drift(s, x) * _z0(var, z, 1)
        return out

    # -- grid helpers -----------------------------------------------------

    def _b_max(self, t_anchor, w_lo, w_hi):
        """Largest diffusion sampled on [0, t_anchor] x [w_lo, w_hi]; the
        arguments may be arrays, one entry per anchor."""
        ss = np.linspace(0.0, t_anchor, 9, axis=-1)[..., :, None]
        xs = np.linspace(w_lo, w_hi, 17, axis=-1)[..., None, :]
        return np.max(self.side.diffusion(ss, xs), axis=(-2, -1))

    def extent(self, t, s, x_lo, x_hi):
        """Extent (s_lo, w_lo, w_hi) of the table at terminal time t that serves
        points (s', x) with s' >= s and x in [x_lo, x_hi], through t - s only, so
        time-shifted data get shifted tables; arrays give one extent per anchor."""
        pad = R_CUT * np.sqrt(self._b_max(t, x_lo, x_hi) * (t - s)) + 0.5
        return s, x_lo - pad, x_hi + pad

    def _window(self, centers, scales):
        return window_nodes(centers, scales, self.quad.n_space)

    def convolution_nodes(self, s, x, rho, b_max, t=None, spread_at=None, spread=1.0):
        """Window nodes (v, w_v) of an integral over (s, t) x R at points
        (s, x) of any shape, for time nodes rho on one more trailing axis;
        b_max, t and spread_at are scalars or arrays of the points' shape.

        The windows sit at x on the scale of Z0's variance b_max (rho - s),
        or, with spread_at, at the variance-weighted mean of x and spread_at,
        where the other factor's Gaussian has variance spread b_max (t - rho).
        """
        s, x, b_max = (np.asarray(a)[..., None] for a in (s, x, b_max))
        va = b_max * (rho - s)
        if spread_at is None:
            return self._window(x, np.sqrt(va))
        vb = spread * b_max * (np.asarray(t)[..., None] - rho)
        center = (x * vb + np.asarray(spread_at)[..., None] * va) / (va + vb)
        return self._window(center, np.sqrt(va * vb / (va + vb)))

    def convolution(self, left, factor, s, x, rho, w_rho, b_max, **where):
        """integral over (s, t) x R of left(s, x; rho, v, b) factor(rho, v, b)
        with b = b(rho, v), at points (s, x) of any shape, on the time rule
        (rho, w_rho) and the windows of convolution_nodes(..., **where).

        left is Z0^(p) (_z0_left) or K^(1) (source); the singular powers of
        the integrand in time are folded into w_rho by the caller's rule.
        """
        v, wv = self.convolution_nodes(s, x, rho, b_max, **where)
        s, x = np.asarray(s)[..., None, None], np.asarray(x)[..., None, None]
        rho = rho[..., None]
        b = self.side.diffusion(rho, v)
        return np.sum(left(s, x, rho, v, b) * factor(rho, v, b) * wv * w_rho[..., None],
                      axis=(-2, -1))

    # -- table construction ------------------------------------------------

    def table(self, kind: str, key, t_anchor: float, s_lo: float,
              w_lo: float, w_hi: float, **ctx) -> _Table:
        """The stored table when it covers the extent, else one built for it;
        a build is stored only under a new key, so no table is ever replaced.

        A point table of a time-homogeneous side serves its span class: the
        span t_anchor - s_lo rounded up to a power of two.  It is built at
        the canonical anchor t = that span, s_lo = 0, with the extent of that
        span, and every anchor whose span falls in the class reads it.
        """
        shared = kind == "point" and self._shares_points
        if shared:
            t_anchor, s_lo = _span_class(t_anchor - s_lo), 0.0
        cache_key = (kind, key, t_anchor)
        with self._lock:
            tab = self._tables.get(cache_key)
            if tab is not None and tab.covers(s_lo, w_lo, w_hi):
                return tab
            if shared:
                _, w_lo, w_hi = self.extent(t_anchor, s_lo, ctx["y"], ctx["y"])
            tab = self._build(kind, t_anchor, s_lo, w_lo, w_hi, ctx)
            self._tables.setdefault(cache_key, tab)
            return tab

    def _build(self, kind, t_anchor, s_lo, w_lo, w_hi, ctx) -> _Table:
        alpha = self.alpha
        b_max = self._b_max(t_anchor, w_lo, w_hi)
        if kind == "point":
            reg_pow = min(0.5 * (3.0 - 2.0 * alpha), 0.95)
            tab = _ScaledTable(t_anchor, s_lo, ctx["y"], b_max, reg_pow, self.quad)
        elif kind in ("final", "spacetime"):
            reg_pow = min(1.0 - 0.5 * alpha, 0.95) if kind == "final" else 0.0
            tab = _Table(t_anchor, s_lo, w_lo, w_hi, b_max, reg_pow, self.quad)
        else:
            raise ValueError(f"unknown table kind {kind!r}")
        first = self._first_term(kind, tab, ctx)
        term = first * (t_anchor - tab.sigma)[:, None] ** reg_pow
        tab.g = term.copy()
        tab.term_sups = [float(np.max(np.abs(term)))]
        scale = max(tab.term_sups[0], 1e-300)
        sweep = self._sweep(tab) if self.quad.depth > 1 else None
        for _ in range(1, self.quad.depth):
            term = sweep(term)
            tab.g += term
            sup = float(np.max(np.abs(term)))
            tab.term_sups.append(sup)
            if sup <= SERIES_TOL * scale:
                break
        else:
            sups = tab.term_sups
            if len(sups) >= 2 and sups[-1] > sups[-2] and sups[-1] > SERIES_TOL * scale:
                raise ConvergenceFailureError(
                    f"correction terms not decreasing at depth {self.quad.depth}: "
                    f"{sups[-2]:.3e} -> {sups[-1]:.3e}")
        return tab

    def _first_term(self, kind, tab, ctx) -> np.ndarray:
        """The series' first term on the table grid, one sigma row at a time."""
        t, quad, y, b_max = tab.t_anchor, self.quad, ctx.get("y"), tab.b_max
        k1_exp = 0.5 * self.alpha - 1.0
        out = np.zeros(tab.g.shape)
        for k, sig in enumerate(tab.sigma):
            wrow = tab.nodes(k)
            if kind == "final":
                out[k] = slice_integral(sig, wrow, t, b_max,
                                        lambda v: self.source(sig, wrow[:, None], t, v),
                                        ctx["weight"], quad.n_space)
            elif kind == "spacetime":
                rho, wr = singular_rule(sig, t, quad.n_time, left_exp=k1_exp)
                out[k] = self.convolution(self.source, lambda rho, v, b: ctx["coeff"](rho, v),
                                          sig, wrow, rho, wr, b_max)
            else:  # point: second series term at the anchor
                rho, wr = singular_rule(sig, t, quad.n_time, left_exp=k1_exp, right_exp=k1_exp)
                out[k] = self.convolution(
                    self.source, lambda rho, v, b: self.source(rho, v, t, y, b_sx=b),
                    sig, wrow, rho, wr, b_max, t=t, spread_at=y)
        return out

    def _sweep(self, tab: _Table):
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
            v, wv = self.convolution_nodes(sig, wrow, rho[k], tab.b_max)
            rho_k = rho[k][:, None]
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

    def eval(self, s, x, t, y, p: int = 0):
        """G^(p)(s, x; t, y) at points (s, x) that broadcast, for one terminal
        point (t, y)."""
        s, x = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
        out = self.on_anchors(s.reshape(1, -1), x.reshape(1, -1), t, y, p).reshape(s.shape)
        return float(out) if out.ndim == 0 else out

    def on_anchors(self, s, x, t, y, p: int = 0):
        """G^(p)(s, x; t, y) on broadcast arrays whose trailing axis holds
        points that share one terminal anchor (t, y).

        On a side with a correction term each anchor's table is
        CorrectionKernel.table of its points in this call.
        """
        if self.is_exact:
            return self.principal(s, x, t, y, p)
        s, x, t, y = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (s, x, t, y)))
        shape = s.shape
        s, x, t, y = (a.reshape(math.prod(shape[:-1]), shape[-1]) for a in (s, x, t, y))
        return (self.principal(s, x, t, y, p)
                + self._corrections(s, x, t[:, 0], y[:, 0], p)).reshape(shape)

    def peak_drop(self, s, x, t, y):
        """G(s, x; t, y) - Z0(s, y; t, y) on the arrays of on_anchors: G's drop
        below Z0's peak.  On an exact side it is the closed _z0_drop of one
        variance b (t - s); on a correction side on_anchors less the peak."""
        dt = t - s
        if np.any(dt <= 0):
            raise TimeOrderError("peak drop needs s < t")
        if self.is_exact:
            return _z0_drop(self.side.diffusion.constant_value() * dt, y - x)
        return _z0_drop(self.side.diffusion(t, y) * dt, None, self.on_anchors(s, x, t, y))

    def _corrections(self, s, x, t, y, p):
        """Z1^(p) at points (s, x) of shape (anchors, points); row a belongs
        to the terminal anchor (t[a], y[a]).

        Each anchor's point table serves the smallest s of its row and is
        sized by the anchor alone, or by its span class on a time-homogeneous
        side (CorrectionKernel.table); its b_max sets the row's windows, and
        each pair reads it at the pair's own terminal time.  The first series
        term (closed form) and the tabulated remainder are convolved with Z0
        for all (anchor, point) pairs, POINT_BLOCK pairs per array pass.
        """
        corr, (n_anchors, n_points) = self.correction, s.shape
        anchor = np.repeat(np.arange(n_anchors), n_points)
        rho, wr = singular_rule(s.ravel(), t[anchor], 2 * self.quad.n_time,
                                right_exp=0.5 * corr.alpha - 1.0)
        s_lo, w_lo, w_hi = corr.extent(t, np.min(s, axis=1), y, y)
        extents = zip(*(v.tolist() for v in (t, y, s_lo, w_lo, w_hi)))
        tables = [corr.table("point", (ya,), ta, lo_s, lo, hi, y=ya)
                  for ta, ya, lo_s, lo, hi in extents]
        b_max = np.array([tab.b_max for tab in tables])
        s, x = s.ravel(), x.ravel()
        z0 = _z0_left(p)

        def block(pairs):
            a = anchor[pairs]
            s_a, x_a, t_a, y_a, b_a = s[pairs], x[pairs], t[a], y[a], b_max[a]
            tab = _ScaledTable.stacked(tables[a[0]:a[-1] + 1], a - a[0], t_a)
            t_k, y_k = t_a[:, None, None], y_a[:, None, None]
            out = corr.convolution(z0, lambda rho, v, b: corr.source(rho, v, t_k, y_k, b_sx=b),
                                   s_a, x_a, rho[pairs], wr[pairs], b_a, t=t_a, spread_at=y_a)
            return out + self._table_convolution(tab, s_a, x_a, t_a, p, b_a,
                                                 spread_at=y_a, spread=2.0)
        return _in_blocks(s.size, block).reshape(-1, n_points)

    def _table_convolution(self, tab, s, x, t, p, b_max, **where):
        """integral over (s, t) x R of Z0^(p)(s, x; rho, v) u(rho, v) for the
        functional u that tab holds, at points (s, x) of any shape, on the
        windows of CorrectionKernel.convolution_nodes(..., **where)."""
        rho, wr = singular_rule(s, t, 2 * self.quad.n_time, right_exp=-tab.reg_pow)
        return self.correction.convolution(_z0_left(p), lambda rho, v, b: tab.eval(rho, v),
                                           s, x, rho, wr, b_max, t=t, **where)

    # -- weighted terminal functionals ---------------------------------------

    def final_table(self, key, weight, t, s_lo, x_lo, x_hi) -> _Table:
        """The cached terminal-slice table of weight that serves evaluation
        points (s, x) with s >= s_lo and x in [x_lo, x_hi]."""
        corr = self.correction
        return corr.table("final", key, t, *corr.extent(t, s_lo, x_lo, x_hi), weight=weight)

    def terminal_integral(self, s, x, t, weight, key, p: int = 0):
        """integral of G(s,x,t,y)^{(p)} weight(y) dy for a fixed terminal time,
        at points (s, x) that broadcast.  On an exact side G = Z0: weight on the
        window y = x + u sigma, sigma = sqrt(b (t - s)), against _UNIT_PROFILE."""
        s, x = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
        if np.any(s >= t):
            raise TimeOrderError("terminal integral needs s < t")
        shape, s, x = s.shape, s.ravel(), x.ravel()
        if self.is_exact:
            b, u = self.side.diffusion.constant_value(), unit_window(SLICE_NODES)[0]

            def window(pts):
                sigma = np.sqrt(b * (t - s[pts]))
                y = x[pts, None] + u * sigma[:, None]
                return np.sum(weight(y) * _UNIT_PROFILE[p], axis=-1) * sigma ** -p
        else:
            tab = self.final_table(key, weight, t, float(np.min(s)), float(np.min(x)),
                                   float(np.max(x)))

            def window(pts):
                return slice_integral(s[pts], x[pts], t, tab.b_max, lambda y: _z0(
                    self.side.diffusion(t, y) * (t - s[pts, None]), y - x[pts, None], p),
                    weight, SLICE_NODES)
        out = _in_blocks(s.size, window, WINDOW_BLOCK)
        if not self.is_exact:
            out += _in_blocks(s.size, lambda pts: self._table_convolution(
                tab, s[pts], x[pts], t, p, tab.b_max))
        out = out.reshape(shape)
        return float(out) if out.ndim == 0 else out

    def spacetime_integral(self, s, x, t, coeff, key):
        """integral over (s,t) x R of G(s,x,tau,z) coeff(tau,z) dz dtau."""
        if s >= t:
            raise TimeOrderError("space-time integral needs s < t")
        corr, z0 = self.correction, _z0_left(0)
        tab = None if self.is_exact else corr.table(
            "spacetime", key, t, *corr.extent(t, s, x, x), coeff=coeff)
        b_max = self.side.diffusion.constant_value() if tab is None else tab.b_max
        rho, wr = singular_rule(s, t, 2 * self.quad.n_time)
        out = float(corr.convolution(z0, lambda rho, v, b: coeff(rho, v),
                                     s, x, rho, wr, b_max))
        if tab is None:
            return out
        return out + float(self._table_convolution(tab, s, x, t, 0, b_max))


def moment_residuals(fs: FundamentalSolution, s: float, x: float, t: float):
    """Residuals of the three moment identities of the fundamental solution.

    residual 0: |integral G dy - 1|
    residual 1: |integral G (y-x) dy - double integral of G a|
    residual 2: |integral G (y-x)^2 dy - double integral of G b
                 - 2 double integral of G a (z-x)|
    """
    if s >= t:
        raise TimeOrderError("moment identities need s < t")
    m0 = fs.terminal_integral(s, x, t, lambda y: np.ones_like(y), ("m0",))
    m1 = fs.terminal_integral(s, x, t, lambda y: y - x, ("m1", x))
    m2 = fs.terminal_integral(s, x, t, lambda y: (y - x) ** 2, ("m2", x))
    ra = rax = 0.0
    if not fs.correction.drift_null:
        ra = fs.spacetime_integral(s, x, t, lambda tau, z: fs.side.drift(tau, z),
                                   ("a",))
        rax = fs.spacetime_integral(
            s, x, t, lambda tau, z: fs.side.drift(tau, z) * (z - x), ("ax", x))
    rb = fs.spacetime_integral(s, x, t, lambda tau, z: fs.side.diffusion(tau, z),
                               ("b",))
    return (abs(m0 - 1.0), abs(m1 - ra), abs(m2 - rb - 2.0 * rax))
