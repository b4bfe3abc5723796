"""Problem instances: coefficients, membrane path, interface data, initial functions.

A problem consists of two one-dimensional diffusion generators
(1/2) b_i(s,x) d^2/dx^2 + a_i(s,x) d/dx on either side of a moving point
x = h(s), pasted by a transmission condition with reflection weights
q_1(s), q_2(s) and an atomic jump measure.  Coefficients, the membrane and
all time-dependent data come from a small closed catalog of parameterized
forms plus tabulated data, so every regularity requirement is audited by
sampling rather than assumed.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from ._quadrature import R_CUT
from .errors import (
    AtomOnMembraneError,
    ConfigError,
    DegenerateWentzellError,
    NonparabolicCoefficientError,
)

SIDE_NAMES = ("membrane", "left", "right")  # indexed by Problem.side_index

_REAL = (int, float, np.integer, np.floating)
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def require_object(value, what: str, required=(), optional=()) -> dict:
    """value, when it is an object with every required key and no key
    outside required + optional; else a ConfigError naming the fault."""
    if not isinstance(value, dict):
        raise ConfigError(f"bad {what}: expected an object, got {value!r}")
    missing = [key for key in required if key not in value]
    unknown = sorted(set(value) - set(required) - set(optional), key=str)
    if missing or unknown:
        raise ConfigError(f"bad {what}: missing keys {missing}, unknown keys {unknown}")
    return value


def require_number(value, what: str, integer: bool = False,
                   ge=None, gt=None, le=None, lt=None):
    """value, when it is a finite number (an integer if asked) within the
    given bounds; else a ConfigError.  bool, str, NaN and inf are refused."""
    bounds = [(op, b) for op, b in zip(_COMPARE, (ge, gt, le, lt)) if b is not None]
    if not (isinstance(value, (int, np.integer) if integer else _REAL)
            and not isinstance(value, bool)
            and (integer or abs(value) <= sys.float_info.max)  # False for NaN
            and all(_COMPARE[op](value, b) for op, b in bounds)):
        kind = "an integer" if integer else "a finite number"
        limits = " and".join(f" {op} {b:g}" for op, b in bounds)
        raise ConfigError(f"bad {what}: expected {kind}{limits}, got {value!r}")
    return value


def _table(params: tuple, what: str, dims: int, fewest: int) -> tuple:
    """Knots and values of a [n_1..n_d, knots_1..., ..., knots_d..., values...]
    table: each n_k an integer >= fewest, each knot list strictly increasing,
    the values shaped (n_1, ..., n_d)."""
    sizes = params[:dims]
    if len(sizes) < dims or any(n != int(n) or n < fewest for n in sizes):
        raise ConfigError(f"tabulated {what} starts with {dims} integer size(s) >= {fewest}")
    sizes = [int(n) for n in sizes]
    ends = list(accumulate([dims] + sizes))
    if len(params) != ends[-1] + math.prod(sizes):
        raise ConfigError(f"tabulated {what} expects {ends[-1] + math.prod(sizes)} "
                          f"parameters, got {len(params)}")
    knots = [np.array(params[a:b]) for a, b in zip(ends[:-1], ends[1:])]
    if any(np.any(np.diff(k) <= 0.0) for k in knots):
        raise ConfigError(f"tabulated {what} knots must increase strictly")
    return knots, np.array(params[ends[-1]:]).reshape(sizes)


class _Catalog:
    """A form from a closed catalog: a kind and its parameter list.

    KINDS maps each kind to its (fewest, most) parameter count, most None
    for no limit; a tabulated kind checks its own layout.
    """

    what = ""
    KINDS: dict = {}
    REQUIRED = ("kind", "params")
    OPTIONAL: tuple = ()

    def __init__(self, kind: str, params: Sequence[float] = ()):
        if not isinstance(kind, str) or kind not in self.KINDS:
            raise ConfigError(f"unknown {self.what} kind {kind!r}")
        if not isinstance(params, (list, tuple)):
            raise ConfigError(f"bad {self.what} params: expected a list, got {params!r}")
        self.kind = kind
        self.params = tuple(float(require_number(p, f"{self.what} parameter"))
                            for p in params)
        fewest, most = self.KINDS[kind]
        if not fewest <= len(self.params) <= (most or math.inf):
            raise ConfigError(f"{kind} {self.what} takes {fewest} to {most or 'any number of'}"
                              f" parameters, got {len(self.params)}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**require_object(d, cls.what, cls.REQUIRED, cls.OPTIONAL))


class _Form(_Catalog):
    """A catalog whose kind is the constant params[0] where the parameters
    CONSTANT_IF_ZERO lists for it vanish; an unlisted kind never is."""

    CONSTANT_IF_ZERO: dict = {}

    def _zero_where(self, rule: dict) -> bool:
        """Whether every parameter rule lists for this kind is zero; False
        for a kind rule does not list."""
        zeros = rule.get(self.kind)
        return zeros is not None and all(self.params[k] == 0.0 for k in zeros)

    @property
    def is_constant(self) -> bool:
        return self._zero_where(self.CONSTANT_IF_ZERO)

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError(f"{self.what} is not constant")
        return self.params[0]


# ---------------------------------------------------------------------------
# space-time coefficient fields
# ---------------------------------------------------------------------------

class CoefficientField(_Form):
    """Scalar field (s, x) -> value from the parameterized catalog.

    kinds and parameter layouts:
      constant                 [c]
      affine-in-x              [c0, c1]                     c0 + c1*x
      sinusoidal-in-s-and-x    [c0, ax, wx, as, ws]         c0 + ax*sin(wx*x) + as*sin(ws*s)
      tabulated                [ns, nx, s..., x..., v...]   bilinear, clamped outside
    """

    what = "coefficient"
    KINDS = {"constant": (1, 1), "affine-in-x": (2, 2), "sinusoidal-in-s-and-x": (5, 5),
             "tabulated": (0, None)}
    CONSTANT_IF_ZERO = {"constant": (), "affine-in-x": (1,), "sinusoidal-in-s-and-x": (1, 3)}
    # the parameters whose zero makes a kind independent of s
    TIME_HOMOGENEOUS_IF_ZERO = {"constant": (), "affine-in-x": (), "sinusoidal-in-s-and-x": (3,)}

    def __init__(self, kind: str, params: Sequence[float]):
        super().__init__(kind, params)
        if kind == "tabulated":
            (s, x), v = _table(self.params, self.what, 2, 2)
            self._s_range = (s[0], s[-1])
            self._x_range = (x[0], x[-1])
            self._interp = RegularGridInterpolator((s, x), v, method="linear",
                                                   bounds_error=False, fill_value=None)

    @property
    def is_time_homogeneous(self) -> bool:
        return self._zero_where(self.TIME_HOMOGENEOUS_IF_ZERO)

    @classmethod
    def constant(cls, c: float) -> "CoefficientField":
        return cls("constant", [c])

    def __call__(self, s, x):
        s = np.asarray(s, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            shape = np.broadcast_shapes(s.shape, x.shape)
            return np.full(shape, self.params[0]) if shape else self.params[0]
        if self.kind == "affine-in-x":
            c0, c1 = self.params
            return c0 + c1 * x + 0.0 * s
        if self.kind == "sinusoidal-in-s-and-x":
            c0, ax, wx, amp_s, ws = self.params
            return c0 + ax * np.sin(wx * x) + amp_s * np.sin(ws * s)
        sq = np.clip(s, *self._s_range)
        xq = np.clip(x, *self._x_range)
        sq, xq = np.broadcast_arrays(sq, xq)
        pts = np.stack([sq.ravel(), xq.ravel()], axis=-1)
        vals = self._interp(pts).reshape(sq.shape)
        return vals if vals.shape else float(vals)


# ---------------------------------------------------------------------------
# time-only rules: membrane path, reflection weights, atom data
# ---------------------------------------------------------------------------

class TimeFunction(_Form):
    """Scalar function of time from the catalog.

    kinds and parameter layouts:
      constant    [c]
      linear      [c0, c1]            c0 + c1*s
      sinusoidal  [c0, amp, freq] or [c0, amp, freq, phase]
      tabulated   [n, s..., v...]     piecewise linear, clamped outside
    """

    what = "time-function"
    KINDS = {"constant": (1, 1), "linear": (2, 2), "sinusoidal": (3, 4),
             "tabulated": (0, None)}
    CONSTANT_IF_ZERO = {"constant": (), "linear": (1,), "sinusoidal": (1,)}

    def __init__(self, kind: str, params: Sequence[float]):
        super().__init__(kind, params)
        if kind == "tabulated":
            (self._knots,), self._vals = _table(self.params, self.what, 1, 1)

    @classmethod
    def constant(cls, c: float) -> "TimeFunction":
        return cls("constant", [c])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return np.full(s.shape, self.params[0]) if s.shape else self.params[0]
        if self.kind == "linear":
            c0, c1 = self.params
            return c0 + c1 * s
        if self.kind == "sinusoidal":
            c0, amp, freq, phase = self._sinusoid()
            return c0 + amp * np.sin(freq * s + phase)
        out = np.interp(s, self._knots, self._vals)
        return out if np.shape(out) else float(out)

    def bounds(self, a: float, b: float) -> tuple:
        """Smallest and largest value on [a, b]: at an end, at a crest or
        trough of a sinusoid, or at an inner knot of a table."""
        values = [float(self(a)), float(self(b))]
        if self.kind == "sinusoidal":
            c0, amp, freq, phase = self._sinusoid()
            u_lo, u_hi = sorted((freq * a + phase, freq * b + phase))
            # extremes at u = pi/2 + k pi: a crest for even k, a trough for odd k
            first = math.ceil((u_lo - 0.5 * math.pi) / math.pi)
            last = math.floor((u_hi - 0.5 * math.pi) / math.pi)
            values += [c0 + amp * (-1.0) ** k for k in range(first, min(last, first + 1) + 1)]
        elif self.kind == "tabulated":
            values += self._vals[(self._knots > a) & (self._knots < b)].tolist()
        return min(values), max(values)

    def _sinusoid(self) -> tuple:
        """(c0, amp, freq, phase) of a sinusoid, phase 0 when not given."""
        return (self.params + (0.0,))[:4]


class MembranePath(TimeFunction):
    """The moving interface x = h(s); same catalog as TimeFunction."""

    what = "membrane"


@dataclass(frozen=True)
class Atom:
    """One moving atom of the jump measure.

    position evaluates to the absolute location y(s) (never equal to the
    membrane), weight to its nonnegative mass w(s).
    """

    position: TimeFunction
    weight: TimeFunction

    def to_dict(self) -> dict:
        return {"position": self.position.to_dict(), "weight": self.weight.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "Atom":
        d = require_object(d, "atom", ("position", "weight"))
        return cls(TimeFunction.from_dict(d["position"]), TimeFunction.from_dict(d["weight"]))


@dataclass(frozen=True)
class JumpMeasure:
    """Finitely many moving atoms; the empty measure is allowed."""

    atoms: tuple = ()

    @property
    def is_null(self) -> bool:
        return len(self.atoms) == 0

    def positions(self, s) -> np.ndarray:
        return np.array([a.position(s) for a in self.atoms], dtype=float)

    def weights(self, s) -> np.ndarray:
        return np.array([a.weight(s) for a in self.atoms], dtype=float)

    def to_dict(self) -> dict:
        return {"atoms": [a.to_dict() for a in self.atoms]}

    @classmethod
    def from_dict(cls, d: dict) -> "JumpMeasure":
        atoms = require_object(d, "measure", optional=("atoms",)).get("atoms", [])
        if not isinstance(atoms, list):
            raise ConfigError(f"bad measure atoms: expected a list, got {atoms!r}")
        return cls(tuple(Atom.from_dict(a) for a in atoms))


@dataclass(frozen=True)
class WentzellData:
    """Reflection weights q1, q2 and the jump measure of the interface condition."""

    q1: TimeFunction
    q2: TimeFunction
    measure: JumpMeasure = JumpMeasure()

    def to_dict(self) -> dict:
        return {"q1": self.q1.to_dict(), "q2": self.q2.to_dict(),
                "measure": self.measure.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "WentzellData":
        d = require_object(d, "wentzell", ("q1", "q2"), ("measure",))
        return cls(TimeFunction.from_dict(d["q1"]), TimeFunction.from_dict(d["q2"]),
                   JumpMeasure.from_dict(d.get("measure", {})))


@dataclass(frozen=True)
class SideSpec:
    """Drift and diffusion of one side, plus its declared regularity data.

    diffusion_min/diffusion_max are the user-declared uniform bounds for the
    diffusion coefficient; validation samples the field and fails the
    parabolicity condition if a sample leaves (0, inf) or the declared band.
    """

    drift: CoefficientField
    diffusion: CoefficientField
    holder_exponent: float = 0.75
    diffusion_min: float | None = None
    diffusion_max: float | None = None

    def __post_init__(self):
        require_number(self.holder_exponent, "holder_exponent", gt=0, lt=1)
        if self.diffusion_min is not None:
            require_number(self.diffusion_min, "diffusion_min", gt=0)
        if self.diffusion_max is not None:
            require_number(self.diffusion_max, "diffusion_max", gt=0, ge=self.diffusion_min)

    @property
    def is_time_homogeneous(self) -> bool:
        """Whether drift and diffusion are both independent of s."""
        return self.drift.is_time_homogeneous and self.diffusion.is_time_homogeneous

    def to_dict(self) -> dict:
        d = {"drift": self.drift.to_dict(), "diffusion": self.diffusion.to_dict(),
             "holder_exponent": self.holder_exponent}
        if self.diffusion_min is not None:
            d["diffusion_min"] = self.diffusion_min
        if self.diffusion_max is not None:
            d["diffusion_max"] = self.diffusion_max
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SideSpec":
        d = require_object(d, "side", ("drift", "diffusion"),
                           ("holder_exponent", "diffusion_min", "diffusion_max"))
        return cls(**{**d, "drift": CoefficientField.from_dict(d["drift"]),
                      "diffusion": CoefficientField.from_dict(d["diffusion"])})


# ---------------------------------------------------------------------------
# initial functions
# ---------------------------------------------------------------------------

def _smoothstep_taper(u, r_in: float, r_out: float) -> np.ndarray:
    """The taper of polynomial-clamped and its first two u-derivatives.

    1 for |u| <= r_in, 1 - z^2 (3 - 2z) with z = (|u| - r_in) / (r_out - r_in)
    on the ramp, 0 for |u| >= r_out.
    """
    au = np.abs(u)
    ramp = (au > r_in) & (au < r_out)
    z = (au[ramp] - r_in) / (r_out - r_in)
    dz = np.sign(u[ramp]) / (r_out - r_in)
    out = np.zeros((3,) + au.shape)
    out[0][au <= r_in] = 1.0
    out[:, ramp] = (1.0 - z * z * (3.0 - 2.0 * z), -6.0 * z * (1.0 - z) * dz,
                    -6.0 * (1.0 - 2.0 * z) * dz * dz)
    return out


class InitialFunction(_Catalog):
    """Bounded continuous terminal datum from the catalog.

    kinds and parameter layouts:
      constant-one        [] or [c]                    identically c (default 1)
      gaussian-bump       [amp, center, width]
      indicator-smoothed  [a, b, eps]                  smoothed indicator of [a, b]
      polynomial-clamped  [center, r_in, r_out, c0, c1, ...]
                          sum c_m (x-center)^m, flat taper to zero on
                          r_in <= |x-center| <= r_out, zero outside
      tabulated           [n, x..., v...]              cubic spline, constant outside

    sup_norm is measured from the form, never declared: sup |phi| for every
    kind but indicator-smoothed, whose bound 1 its plateau approaches.
    """

    what = "initial-function"
    KINDS = {"constant-one": (0, 1), "gaussian-bump": (3, 3), "indicator-smoothed": (3, 3),
             "polynomial-clamped": (4, None), "tabulated": (0, None)}
    REQUIRED = ("kind",)
    OPTIONAL = ("params",)

    def __init__(self, kind: str, params: Sequence[float] = ()):
        super().__init__(kind, params)
        if kind == "constant-one":  # one cache key for both spellings of the default
            self.params = self.params or (1.0,)
        elif kind in ("gaussian-bump", "indicator-smoothed"):
            require_number(self.params[2], f"{kind} width", gt=0)
        elif kind == "polynomial-clamped":
            r_in = require_number(self.params[1], "polynomial-clamped r_in", ge=0)
            require_number(self.params[2], "polynomial-clamped r_out", gt=r_in)
        elif kind == "tabulated":
            (xk,), vk = _table(self.params, self.what, 1, 4)
            self._spline = CubicSpline(xk, vk)
            self._x_range = (xk[0], xk[-1])
            self._edge_vals = (vk[0], vk[-1])
        self.sup_norm = self._sup()

    @property
    def key(self) -> tuple:
        """The value that identifies this function in caches."""
        return (self.kind, self.params)

    @classmethod
    def one(cls) -> "InitialFunction":
        return cls("constant-one", [1.0])

    @classmethod
    def gaussian(cls, amp=1.0, center=0.0, width=1.0) -> "InitialFunction":
        return cls("gaussian-bump", [amp, center, width])

    @classmethod
    def from_samples(cls, x_knots, values) -> "InitialFunction":
        x = np.asarray(x_knots, float)
        v = np.asarray(values, float)
        return cls("tabulated", [len(x)] + list(x) + list(v))

    def _sup(self) -> float:
        """sup |phi|: in closed form, else the largest |phi| at the ends of
        its polynomial pieces and at the roots of phi' inside them (the
        spline's pieces; the polynomial and its two taper ramps).  A complex
        root counts by its real part: a close pair of real roots can come out
        complex, and an extra point cannot lift the max above the sup."""
        if self.kind in ("constant-one", "gaussian-bump"):
            return abs(self.params[0])
        if self.kind == "indicator-smoothed":
            return 1.0
        if self.kind == "tabulated":
            roots = self._spline.derivative().roots(extrapolate=False)
            xs = [self._spline.x, roots[np.isfinite(roots)]]  # nan: phi' = 0 on a piece
        else:
            c, r_in, r_out = self.params[:3]
            ends = c + np.array([-r_out, -r_in, r_in, r_out])
            xs = [ends]
            degree = len(self.params) - 4  # of the polynomial; a ramp adds the taper's 3
            for lo, hi, deg in zip(ends[:-1], ends[1:], (degree + 3, degree, degree + 3)):
                if lo < hi:
                    piece = np.polynomial.Chebyshev.interpolate(self, deg, domain=[lo, hi])
                    roots = piece.deriv().roots().real
                    xs.append(roots[(roots > lo) & (roots < hi)])
        return float(np.max(np.abs(self(np.concatenate(xs)))))

    def __call__(self, x):
        return self._values(x, 0)

    def derivative(self, x, order: int = 1):
        """Analytic derivative where the catalog form has one (order <= 2)."""
        if order not in (1, 2):
            raise ValueError("only first and second derivatives are supported")
        return self._values(x, order)

    def _values(self, x, order):
        """The datum (order 0) or its derivative of order 1 or 2 at x; a
        float for scalar x."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.kind == "constant-one":
            out = np.full_like(x, self.params[0] if order == 0 else 0.0)
        elif self.kind == "gaussian-bump":
            amp, c, w = self.params
            if order == 0:
                out = amp * np.exp(-((x - c) ** 2) / (2.0 * w * w))
            else:
                u = (x - c) / w
                g = amp * np.exp(-0.5 * u * u)
                out = -g * u / w if order == 1 else g * (u * u - 1.0) / (w * w)
        elif self.kind == "indicator-smoothed":
            a, b, eps = self.params
            ta, tb = np.tanh((x - a) / eps), np.tanh((x - b) / eps)
            if order == 0:
                out = 0.5 * (ta - tb)
            elif order == 1:
                out = 0.5 * ((1 - ta ** 2) - (1 - tb ** 2)) / eps
            else:
                out = 0.5 * (-2 * ta * (1 - ta ** 2) + 2 * tb * (1 - tb ** 2)) / eps ** 2
        elif self.kind == "polynomial-clamped":
            out = self._poly_clamped(x, order)
        else:  # tabulated: constant outside the knots, so flat there
            lo, hi = self._edge_vals if order == 0 else (0.0, 0.0)
            out = self._spline(np.clip(x, *self._x_range), nu=order)
            out = np.where(x < self._x_range[0], lo, out)
            out = np.where(x > self._x_range[1], hi, out)
        return float(out[0]) if scalar else out

    def _poly_clamped(self, x, order):
        """The polynomial-clamped datum (order 0) or its derivative of order
        1 or 2: the polynomial times the taper, by the product rule."""
        c, r_in, r_out = self.params[:3]
        coeffs = np.array(self.params[3:])
        u = x - c
        poly = np.polynomial.polynomial
        p = [poly.polyval(u, poly.polyder(coeffs, m)) for m in range(order + 1)]
        taper = _smoothstep_taper(u, r_in, r_out)
        if order == 0:
            return p[0] * taper[0]
        if order == 1:
            return p[1] * taper[0] + p[0] * taper[1]
        return p[2] * taper[0] + 2.0 * p[1] * taper[1] + p[0] * taper[2]


# ---------------------------------------------------------------------------
# the assembled problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """Immutable description of one pasting problem.

    Instances are safe to share read-only across threads; every solver object
    holds its own mutable state.
    """

    left: SideSpec
    right: SideSpec
    membrane: MembranePath
    wentzell: WentzellData
    horizon: float

    def __post_init__(self):
        require_number(self.horizon, "horizon", gt=0)

    def side(self, i: int) -> SideSpec:
        if i == 1:
            return self.left
        if i == 2:
            return self.right
        raise ValueError("side index must be 1 or 2")

    def h(self, s):
        return self.membrane(s)

    def q(self, i: int, s):
        return self.wentzell.q1(s) if i == 1 else self.wentzell.q2(s)

    def diffusion(self, i: int, s, x):
        return self.side(i).diffusion(s, x)

    def drift(self, i: int, s, x):
        return self.side(i).drift(s, x)

    @property
    def alpha(self) -> float:
        return min(self.left.holder_exponent, self.right.holder_exponent)

    @property
    def sides_share_generator(self) -> bool:
        """Whether both sides have the same drift and diffusion, kinds and params."""
        return all(getattr(self.left, c).to_dict() == getattr(self.right, c).to_dict()
                   for c in ("drift", "diffusion"))

    def membrane_weights(self, s):
        """Weights of the two sides on the membrane at the times s.

        Returns ((l_1, l_2), (d_1, d_2)) with l_i = q_i sqrt(b_other) / D and
        d_i = b_i sqrt(b_other) / D over the one denominator
        D = q_1 sqrt(b_2) + q_2 sqrt(b_1), diffusions taken at (s, h(s)).
        l_i weight side i in the generator on the membrane; d_i weight
        equation i of the eliminated interface system.
        """
        h = self.h(s)
        b1, b2 = self.diffusion(1, s, h), self.diffusion(2, s, h)
        q1, q2 = self.q(1, s), self.q(2, s)
        r1, r2 = np.sqrt(b1), np.sqrt(b2)
        denom = q1 * r2 + q2 * r1
        return (q1 * r2 / denom, q2 * r1 / denom), (b1 * r2 / denom, b2 * r1 / denom)

    def membrane_tolerance(self, s):
        """Half-width of the band |x - h(s)| that counts as the membrane."""
        return 1e-12 * (1.0 + np.abs(self.membrane(s)))

    def kernel_time_exponent(self) -> float:
        """Left endpoint exponent of the membrane-trace kernels.

        The gradient of the fundamental solution between two membrane points
        behaves like (tau-s)^(alpha/2 - 1) when the membrane is merely
        Holder-(1+alpha)/2, but like (tau-s)^(-1/2) for the smooth catalog
        paths.  Matching the product-quadrature weight to the sharp exponent
        restores spectral accuracy in the smooth case.
        """
        if self.membrane.kind == "tabulated":
            return 0.5 * self.alpha - 1.0
        return -0.5

    def sample_window(self) -> tuple:
        """The x-range that validate samples, worked out from the problem:
        the membrane's range over [0, horizon], padded by
        R_CUT sqrt(b horizon) + 1 with b the largest rough diffusion sample,
        and widened to reach 1 past every atom."""
        ss = np.linspace(0.0, self.horizon, 33)
        hs = self.membrane(ss)
        b_guess = max(self.diffusion_bounds_rough())
        pad = R_CUT * math.sqrt(max(b_guess, 0.0) * self.horizon) + 1.0
        lo = float(np.min(hs)) - pad
        hi = float(np.max(hs)) + pad
        if not self.wentzell.measure.is_null:
            ys = self.wentzell.measure.positions(ss)
            lo = min(lo, float(np.min(ys)) - 1.0)
            hi = max(hi, float(np.max(ys)) + 1.0)
        return (lo, hi)

    def diffusion_bounds_rough(self) -> tuple:
        """Crude sampled (min, max) of both diffusion fields near the membrane."""
        ss = np.linspace(0.0, self.horizon, 17)
        hs = self.membrane(ss)
        xs = (hs[:, None] + np.linspace(-5.0, 5.0, 21)[None, :]).ravel()
        v = np.concatenate([np.atleast_1d(u)
                            for u in self.diffusion_samples(np.repeat(ss, 21), xs)])
        return float(np.min(v)), float(np.max(v))

    def diffusion_samples(self, s, x) -> list:
        """Both sides' diffusion at (s, x); a non-finite sample raises."""
        with np.errstate(over="ignore", invalid="ignore"):
            vals = [np.asarray(self.diffusion(i, s, x), dtype=float) for i in (1, 2)]
        for i, v in enumerate(vals, 1):
            if not np.all(np.isfinite(v)):
                raise NonparabolicCoefficientError(f"diffusion sample not finite on side {i}")
        return vals

    def side_index(self, s, x):
        """Where x lies at the times s, elementwise: 0 on the membrane
        (|x - h(s)| <= membrane_tolerance(s)), 1 left of it, 2 right."""
        h = self.membrane(s)
        return np.where(np.abs(x - h) <= self.membrane_tolerance(s), 0,
                        np.where(x < h, 1, 2))

    def side_of(self, s: float, x: float) -> str:
        """Classify x relative to the membrane at time s."""
        return SIDE_NAMES[int(self.side_index(s, x))]

    def to_dict(self) -> dict:
        return {
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "membrane": self.membrane.to_dict(),
            "wentzell": self.wentzell.to_dict(),
            "horizon": self.horizon,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Problem":
        d = require_object(d, "problem", ("left", "right", "membrane", "wentzell", "horizon"))
        return cls(
            left=SideSpec.from_dict(d["left"]),
            right=SideSpec.from_dict(d["right"]),
            membrane=MembranePath.from_dict(d["membrane"]),
            wentzell=WentzellData.from_dict(d["wentzell"]),
            horizon=d["horizon"],
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ConditionCheck:
    condition: str
    passed: bool
    statistic: dict = field(default_factory=dict)
    note: str = ""

    def to_dict(self) -> dict:
        return {"condition": self.condition, "passed": self.passed,
                "statistic": self.statistic, "note": self.note}


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, condition: str) -> ConditionCheck:
        for c in self.checks:
            if c.condition == condition:
                return c
        raise KeyError(condition)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _holder_quotient(values: np.ndarray, dists: np.ndarray, exponent: float) -> float:
    values, dists = np.broadcast_arrays(np.abs(values), dists)
    mask = dists > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(values[mask] / dists[mask] ** exponent))


def validate(problem: Problem, phi: InitialFunction | None = None) -> ValidationReport:
    """Audit conditions I-V by sampling a 65 x 65 grid of [0, horizon] x
    problem.sample_window(), and phi at 260 points of the window.

    Hard failures (a nonpositive diffusion sample, a vanishing q1+q2, an atom
    on the membrane) raise immediately; soft failures (a declared diffusion
    bound or phi's measured sup_norm exceeded by a sample) are reported in
    the per-condition entries.
    """
    n = 65
    lo, hi = problem.sample_window()
    ss = np.linspace(0.0, problem.horizon, n)
    xs = np.linspace(lo, hi, n)
    S, X = np.meshgrid(ss, xs, indexing="ij")
    checks = []

    # condition I: uniform parabolicity (the diffusion samples serve
    # condition II too)
    diffusions = problem.diffusion_samples(S, X)
    ok = True
    notes = []
    for i, v in enumerate(diffusions, 1):
        if np.any(v <= 0.0):
            raise NonparabolicCoefficientError(
                f"diffusion sample <= 0 on side {i} (min {np.min(v):.3g})")
        side = problem.side(i)
        if side.diffusion_min is not None and np.min(v) < side.diffusion_min - 1e-12:
            ok = False
            notes.append(f"side {i} sample below declared minimum")
        if side.diffusion_max is not None and np.max(v) > side.diffusion_max + 1e-12:
            ok = False
            notes.append(f"side {i} sample above declared maximum")
    b_min = min(float(np.min(v)) for v in diffusions)
    b_max = max(float(np.max(v)) for v in diffusions)
    checks.append(ConditionCheck("I", ok, {"b_min": b_min, "b_max": b_max},
                                 "; ".join(notes)))

    # condition II: sampled Holder quotients of the coefficients
    quot = 0.0
    for i, diffusion in enumerate(diffusions, 1):
        alpha = problem.side(i).holder_exponent
        for v in (np.asarray(problem.drift(i, S, X), dtype=float), diffusion):
            v = np.broadcast_to(v, S.shape)
            dx = np.abs(np.diff(xs))[None, :]
            quot = max(quot, _holder_quotient(np.diff(v, axis=1), dx, alpha))
            ds = np.abs(np.diff(ss))[:, None]
            quot = max(quot, _holder_quotient(np.diff(v, axis=0), ds, alpha / 2.0))
    checks.append(ConditionCheck("II", bool(np.isfinite(quot)),
                                 {"holder_quotient": quot}))

    # condition III: the initial function, when supplied
    if phi is not None:
        vals = phi(np.linspace(lo, hi, 4 * n))
        bounded = bool(np.all(np.abs(vals) <= phi.sup_norm * (1 + 1e-12)))
        checks.append(ConditionCheck("III", bounded,
                                     {"sup_sample": float(np.max(np.abs(vals))),
                                      "sup_norm": phi.sup_norm}))
    else:
        checks.append(ConditionCheck("III", True, {}, "no initial function supplied"))

    # condition IV: reflection weights and measure
    q1 = np.asarray(problem.wentzell.q1(ss), dtype=float)
    q2 = np.asarray(problem.wentzell.q2(ss), dtype=float)
    if np.any(q1 < 0) or np.any(q2 < 0):
        raise DegenerateWentzellError("negative reflection weight sample")
    qsum = q1 + q2
    if np.any(qsum <= 0.0):
        raise DegenerateWentzellError("q1 + q2 vanishes at a sample time")
    q0 = float(np.min(qsum))
    hs = np.asarray(problem.membrane(ss), dtype=float)
    moment = 0.0
    for atom in problem.wentzell.measure.atoms:
        ys = np.asarray(atom.position(ss), dtype=float)
        ws = np.asarray(atom.weight(ss), dtype=float)
        if np.any(ws < 0):
            raise DegenerateWentzellError("negative atom weight sample")
        if np.any(problem.side_index(ss, ys) == 0):
            raise AtomOnMembraneError("atom position equals the membrane at a sample time")
        moment = max(moment, float(np.max(np.abs(ys - hs) * ws)))
    checks.append(ConditionCheck("IV", True, {"q0": q0, "atom_moment_max": moment}))

    # condition V: membrane Holder-(1+alpha)/2 quotient
    alpha = problem.alpha
    dh = np.diff(hs)
    dquot = _holder_quotient(dh, np.diff(ss), (1.0 + alpha) / 2.0)
    checks.append(ConditionCheck("V", bool(np.isfinite(dquot)),
                                 {"holder_quotient": dquot}))

    return ValidationReport(checks)
