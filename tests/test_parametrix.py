"""Fundamental-solution tests: Gaussian part, Neumann correction, moment identities."""

import math
import tracemalloc

import numpy as np
import pytest

from memdiff.errors import TimeOrderError
from memdiff import parametrix
from memdiff.parametrix import (
    CorrectionKernel,
    CorrectionQuadrature,
    FundamentalSolution,
    PrincipalKernel,
    moment_residuals,
)
from memdiff.problem import CoefficientField, SideSpec

from kernel_oracle import (
    audit_correction_envelope,
    point_correction_at_anchor,
    point_correction_loop,
    reference_table,
)


def side(a=0.0, b=1.0, alpha=0.75):
    if callable(a) or callable(b):
        raise TypeError
    return SideSpec(CoefficientField.constant(a), CoefficientField.constant(b),
                    holder_exponent=alpha)


def sine_b_side(base=1.0, amp=0.25, alpha=0.75):
    return SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x", [base, amp, 1.0, 0.0, 0.0]),
                    holder_exponent=alpha)


def drift_side():
    return side(a=1.0, b=1.0)


def drift_and_sine_b_side():
    return SideSpec(CoefficientField.constant(0.5), sine_b_side().diffusion,
                    holder_exponent=0.75)


# the varcoef-solve benchmark settings, and the default quadrature
QUADS = {"bench": CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6, n_space=6,
                                       depth=4),
         "default": CorrectionQuadrature()}
SIDES = {"sine-b": sine_b_side, "drift": drift_side, "both": drift_and_sine_b_side}
CONTEXTS = {"point": {"y": 0.2},
            "final": {"weight": lambda y: (y - 0.1) ** 2},
            "spacetime": {"coeff": lambda tau, z: 1.0 + 0.5 * np.cos(z) * tau}}


def drifted_kernel(s, x, t, y, a=1.0, b=1.0):
    """Closed-form fundamental solution for constant drift and diffusion."""
    dt = t - s
    return math.exp(-((y - x - a * dt) ** 2) / (2 * b * dt)) / math.sqrt(2 * math.pi * b * dt)


# -- principal part -----------------------------------------------------------

def test_principal_reference_values():
    pk = PrincipalKernel(side(b=1.0))
    assert pk(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert pk(0.0, 0.0, 1.0, 1.0) == pytest.approx(0.24197072451914337, abs=1e-12)
    pk2 = PrincipalKernel(side(b=2.0))
    assert pk2(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.28209479177387814, abs=1e-12)


def test_principal_requires_time_order():
    pk = PrincipalKernel(side())
    with pytest.raises(TimeOrderError):
        pk(1.0, 0.0, 0.5, 0.0)


@pytest.mark.parametrize("make", [side, sine_b_side], ids=["exact", "sine-b"])
def test_peak_drop_requires_time_order(make):
    fs = FundamentalSolution(make(), QUADS["bench"])
    rho = np.array([[0.2, 0.5, 0.7]])
    for tau in (0.5, 0.6):
        with pytest.raises(TimeOrderError):
            fs.peak_drop(rho, 0.1, tau, 0.0)


@pytest.mark.parametrize("make", [side, sine_b_side], ids=["exact", "sine-b"])
def test_peak_drop_is_bitwise_g_less_the_principal_peak(make):
    # one anchor (tau, h) = (0.9, 0.05), points (rho, h(rho)) before it
    fs = FundamentalSolution(make(), QUADS["bench"])
    rho = np.linspace(0.1, 0.85, 7)[None, :]
    x, tau, y = 0.05 + 0.1 * np.sin(2.0 * rho), np.array([[0.9]]), np.array([[0.05]])
    want = fs.on_anchors(rho, x, tau, y) - fs.principal(rho, y, tau, y)
    assert np.array_equal(fs.peak_drop(rho, x, tau, y), want)


def test_principal_positive_and_symmetric():
    pk = PrincipalKernel(side(b=1.3))
    rng = np.random.default_rng(3)
    for _ in range(50):
        s, dt = rng.uniform(0, 1), rng.uniform(0.05, 1.0)
        x, y = rng.normal(size=2)
        v = pk(s, x, s + dt, y)
        assert v > 0
        assert v == pytest.approx(pk(s, y, s + dt, x), rel=1e-12)


# -- correction kernel ---------------------------------------------------------

def test_null_correction_for_driftless_constant_diffusion():
    fs = FundamentalSolution(side(a=0.0, b=1.0))
    assert fs.is_exact
    assert fs.eval(0.1, 0.2, 0.9, -0.3) == pytest.approx(
        fs.principal(0.1, 0.2, 0.9, -0.3), abs=0.0)


def test_drifted_kernel_recovered():
    fs = FundamentalSolution(side(a=1.0, b=1.0), CorrectionQuadrature(depth=12))
    for y in (-0.3, 0.0, 0.4, 0.9):
        got = fs.eval(0.0, 0.0, 0.5, y)
        want = drifted_kernel(0.0, 0.0, 0.5, y)
        assert got == pytest.approx(want, abs=3e-3), f"y={y}"


def test_variable_diffusion_normalization():
    fs = FundamentalSolution(sine_b_side())
    total = fs.terminal_integral(0.0, 0.0, 0.5, lambda y: np.ones_like(y), ("one",))
    assert total == pytest.approx(1.0, abs=2e-3)


def test_derivative_consistency_with_finite_differences():
    fs = FundamentalSolution(sine_b_side())
    s, x, t, y = 0.0, 0.0, 1.0, 0.3
    eps = 1e-3
    fd = (fs.eval(s, x + eps, t, y) - fs.eval(s, x - eps, t, y)) / (2 * eps)
    got = fs.eval(s, x, t, y, p=1)
    assert got == pytest.approx(fd, rel=1e-4)


def test_first_derivative_vanishes_at_center_constant_coefficients():
    fs = FundamentalSolution(side())
    assert fs.eval(0.0, 0.4, 1.0, 0.4, p=1) == pytest.approx(0.0, abs=1e-14)


def test_positivity_on_samples():
    fs = FundamentalSolution(sine_b_side())
    rng = np.random.default_rng(11)
    for _ in range(10):
        s, dt = rng.uniform(0, 0.4), rng.uniform(0.1, 0.6)
        x, y = rng.normal(scale=0.8, size=2)
        assert fs.eval(s, x, s + dt, y) > 0.0


# -- moment identities ---------------------------------------------------------

def test_moments_exact_for_plain_heat_kernel():
    fs = FundamentalSolution(side())
    r0, r1, r2 = moment_residuals(fs, 0.0, 0.0, 0.7)
    assert r0 < 1e-10
    assert r1 < 1e-10
    assert r2 < 1e-10


def test_drifted_first_moment_matches_displacement():
    # constant a=1, b=1: mean displacement over an interval of length 0.5 is 0.5
    fs = FundamentalSolution(side(a=1.0, b=1.0), CorrectionQuadrature(depth=12))
    m1 = fs.terminal_integral(0.0, 0.0, 0.5, lambda y: y, ("mean",))
    assert m1 == pytest.approx(0.5, abs=5e-3)
    r0, r1, r2 = moment_residuals(fs, 0.0, 0.0, 0.5)
    assert r0 < 5e-3
    assert r1 < 5e-3
    assert r2 < 2e-2


def test_variable_coefficient_moment_residuals_small():
    # the refinement-halving behavior is covered by the acceptance suite
    fs = FundamentalSolution(sine_b_side())
    res = moment_residuals(fs, 0.0, 0.0, 0.5)
    assert max(res) < 1e-3


def test_correction_terms_decay():
    fs = FundamentalSolution(sine_b_side())
    fs.eval(0.0, 0.0, 0.5, 0.2)
    (tab,) = [t for (k, *_), t in fs.correction._tables.items() if k == "point"]
    sups = tab.term_sups
    assert len(sups) >= 2
    assert sups[-1] < sups[0]


def test_correction_depth_consistency():
    # once the series has converged, one extra depth changes nothing visible
    vals = []
    for depth in (7, 8):
        fs = FundamentalSolution(sine_b_side(), CorrectionQuadrature(depth=depth))
        vals.append(fs.eval(0.0, 0.1, 0.5, 0.2))
    assert vals[0] == pytest.approx(vals[1], abs=1e-8)


def test_correction_envelope_audit():
    fs = FundamentalSolution(sine_b_side())
    rng = np.random.default_rng(5)
    samples = [(0.0, rng.uniform(-0.5, 0.5), 0.5, rng.uniform(-0.5, 0.5))
               for _ in range(12)]
    C, c, excess = audit_correction_envelope(fs, samples)
    assert np.isfinite(C) and C >= 0.0
    assert np.isfinite(c)


def test_build_correction_flags_null_case():
    corr = CorrectionKernel(side(a=0.0, b=2.5))
    assert corr.is_null
    corr2 = CorrectionKernel(sine_b_side(), CorrectionQuadrature(depth=6))
    assert not corr2.is_null
    assert corr2.quad.depth == 6
    # K^(1) vanishes exactly when the drift is zero and the diffusion
    # constant, whatever the coefficients' kinds, and then G = Z0
    for drift, diffusion, null in (
            (CoefficientField("affine-in-x", [0.0, 0.0]),
             CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.0, 1.0, 0.0, 1.0]), True),
            (CoefficientField.constant(0.5), CoefficientField.constant(1.0), False),
            (CoefficientField.constant(0.0),
             CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.25, 1.0, 0.0, 0.0]), False)):
        sd = SideSpec(drift, diffusion, holder_exponent=0.75)
        assert CorrectionKernel(sd).is_null is null
        assert FundamentalSolution(sd).is_exact is null


# -- the sweep operator against the row-by-row reference -----------------------

@pytest.mark.parametrize("quad", sorted(QUADS))
@pytest.mark.parametrize("side_name", sorted(SIDES))
@pytest.mark.parametrize("kind", sorted(CONTEXTS))
def test_table_matches_row_by_row_sweeps(kind, side_name, quad):
    args = (kind, 0.5, 0.0, -2.5, 2.5)
    ref = reference_table(SIDES[side_name](), QUADS[quad], *args, **CONTEXTS[kind])
    tab = CorrectionKernel(SIDES[side_name](), QUADS[quad]).table(
        kind, None, *args[1:], **CONTEXTS[kind])
    assert len(tab.term_sups) == len(ref.term_sups)
    assert np.max(np.abs(tab.g - ref.g)) <= 1e-12 * np.max(np.abs(ref.g))


@pytest.mark.parametrize("quad", sorted(QUADS))
def test_correction_point_matches_per_point_loop(quad):
    fs = FundamentalSolution(drift_and_sine_b_side(), QUADS[quad])
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, 0.3, size=(3, 4))
    x = rng.uniform(-0.6, 0.6, size=(3, 4))
    for p in (0, 1, 2):
        got = fs.eval(s, x, 0.5, 0.2, p) - fs.principal(s, x, 0.5, 0.2, p)
        want = point_correction_loop(fs, s, x, 0.5, 0.2, p)
        assert got.shape == s.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # one point in, one float out
    got = fs.eval(s[1, 2], x[1, 2], 0.5, 0.2, 0)
    assert isinstance(got, float)
    got -= fs.principal(s[1, 2], x[1, 2], 0.5, 0.2, 0)
    want = float(point_correction_loop(fs, s[1, 2], x[1, 2], 0.5, 0.2, 0))
    assert abs(got - want) <= 1e-12 * abs(want)


# anchors (t, smallest s, y): the spans t - s round up to 0.5, 0.5, 1 and 2,
# and the first two share y, so they share one table
SPAN_ANCHORS = ((0.4, 0.1, 0.0), (0.5, 0.05, 0.0), (0.9, 0.2, -0.1), (1.6, 0.3, 0.1))
HOMOGENEOUS_SIDES = {
    "sine-b": sine_b_side,
    "affine-drift": lambda: SideSpec(CoefficientField("affine-in-x", [0.3, -0.4]),
                                     CoefficientField.constant(1.0)),
}


@pytest.mark.parametrize("side_name", sorted(HOMOGENEOUS_SIDES))
def test_shared_point_table_matches_a_table_built_at_the_anchor(side_name):
    # a time-homogeneous side builds one point table per (y, span class) at
    # the canonical anchor t = class span; a table built at the anchor
    # itself over the class span holds the same series shifted in time
    fs = FundamentalSolution(HOMOGENEOUS_SIDES[side_name](), QUADS["bench"])
    rng = np.random.default_rng(11)
    for t, s_lo, y in SPAN_ANCHORS:
        span = 2.0 ** math.ceil(math.log2(t - s_lo))
        s = s_lo + np.array([0.0, 0.3, 0.6]) * (t - s_lo)
        x = y + rng.uniform(-0.5, 0.5, 3)
        for p in (0, 1, 2):
            got = fs.eval(s, x, t, y, p) - fs.principal(s, x, t, y, p)
            want = point_correction_at_anchor(fs, s, x, t, y, p, span)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert sorted(key[2] for key in fs.correction._tables) == [0.5, 1.0, 2.0]


def test_time_dependent_side_reads_the_table_of_its_anchor():
    # b depends on s: each anchor builds its own point table over its own span
    side = SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.25, 1.0, 0.1, 1.0]))
    fs = FundamentalSolution(side, QUADS["bench"])
    rng = np.random.default_rng(11)
    for t, s_lo, y in SPAN_ANCHORS:
        s = s_lo + np.array([0.0, 0.3, 0.6]) * (t - s_lo)
        x = y + rng.uniform(-0.5, 0.5, 3)
        got = fs.eval(s, x, t, y, 1) - fs.principal(s, x, t, y, 1)
        want = point_correction_at_anchor(fs, s, x, t, y, 1, t - s_lo)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert sorted(key[2] for key in fs.correction._tables) == [0.4, 0.5, 0.9, 1.6]


def test_point_table_rebuild_for_an_earlier_start():
    # a later call that reaches further back in time than the stored point
    # table gets a table of its own, with the value a fresh evaluator gives;
    # the stored table is kept as it was
    fs = FundamentalSolution(sine_b_side(), QUADS["bench"])
    fs.eval(0.3, 0.1, 1.0, 0.0)
    (key, stored), = fs.correction._tables.items()
    got = fs.eval(0.1, 0.1, 1.0, 0.0)
    want = FundamentalSolution(sine_b_side(), QUADS["bench"]).eval(0.1, 0.1, 1.0, 0.0)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert list(fs.correction._tables) == [key] and fs.correction._tables[key] is stored


def test_point_value_does_not_depend_on_the_points_evaluated_before_it():
    # a point table is sized by its anchor alone, so a point read after a
    # call at another x gets the bits of a fresh evaluator (sizing by the
    # first call's x-range moved G by 2e-8 and dG/dx by 1e-6, relative)
    sine_3x = SideSpec(CoefficientField.constant(0.0),
                       CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.25, 3.0, 0.0, 0.0]))
    fresh = FundamentalSolution(sine_3x, QUADS["bench"])
    warm = FundamentalSolution(sine_3x, QUADS["bench"])
    for p in (0, 1):
        warm.eval(0.0, 0.0, 0.4, 0.1, p)
        assert warm.eval(0.0, -0.6, 0.4, 0.1, p) == fresh.eval(0.0, -0.6, 0.4, 0.1, p)


def test_point_build_memory_peak():
    # the sweep operator is built one sigma row at a time and dropped with
    # the build; a default-quadrature point table peaks near 10 MB
    kernel = CorrectionKernel(sine_b_side())
    tracemalloc.start()
    try:
        kernel.table("point", (0.2,), 0.5, 0.0, -2.5, 2.5, y=0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("side_name", ["exact", "sine-b"])
def test_terminal_integral_pass_boundaries_do_not_change_bits(side_name, p):
    # one call on points spanning four window passes against one call per
    # point: each point's window sum and table convolution are its own
    fs = FundamentalSolution(side() if side_name == "exact" else sine_b_side(),
                             QUADS["bench"])
    n = 3 * parametrix.WINDOW_BLOCK + 7
    s, x, t = np.linspace(0.0, 0.39, n), np.linspace(-1.5, 1.5, n), 0.4

    def weight(y):
        return np.exp(-(y - 0.3) ** 2 / 0.72)

    if not fs.is_exact:  # one stored table serves the array and every point
        fs.final_table(("w",), weight, t, 0.0, -1.5, 1.5)
    got = fs.terminal_integral(s, x, t, weight, ("w",), p)
    want = [fs.terminal_integral(si, xi, t, weight, ("w",), p) for si, xi in zip(s, x)]
    assert got.shape == (n,)
    assert np.array_equal(got, want)
