"""Validation, classification and catalog-evaluation tests."""

import numpy as np
import pytest
from scipy.optimize import brentq

from memdiff.errors import AtomOnMembraneError, ConfigError, DegenerateWentzellError
from memdiff.problem import (
    CoefficientField,
    InitialFunction,
    MembranePath,
    SideSpec,
    TimeFunction,
    Problem,
    WentzellData,
    validate,
)

from conftest import make_problem, atom_at


def test_constant_problem_passes_all_conditions(symmetric_problem):
    report = validate(symmetric_problem)
    assert report.passed
    stat = report["I"].statistic
    assert stat["b_min"] == pytest.approx(1.0)
    assert stat["b_max"] == pytest.approx(1.0)
    assert report["IV"].statistic["q0"] == pytest.approx(1.0)


def test_sampled_diffusion_extrema_match_declared_band():
    # b(s,x) = 1 + 0.5 sin x has true extrema 0.5 and 1.5
    b = CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.5, 1.0, 0.0, 0.0])
    side = SideSpec(CoefficientField.constant(0.0), b, diffusion_min=0.5,
                    diffusion_max=1.5)
    prob = Problem(left=side, right=side, membrane=MembranePath.constant(0.0),
                   wentzell=WentzellData(TimeFunction.constant(0.5),
                                         TimeFunction.constant(0.5)),
                   horizon=1.0)
    report = validate(prob)
    assert report.passed
    assert report["I"].statistic["b_min"] >= 0.5 - 1e-12
    assert report["I"].statistic["b_max"] <= 1.5 + 1e-12
    # independent oracle: sample the closed form on the same grid
    xs = np.linspace(*prob.sample_window(), 65)
    assert report["I"].statistic["b_min"] == pytest.approx(float(np.min(1 + 0.5 * np.sin(xs))))


def test_degenerate_wentzell_raises():
    with pytest.raises(DegenerateWentzellError):
        validate(make_problem(q1=0.0, q2=0.0))


def test_atom_on_membrane_raises():
    prob = make_problem(atoms=(atom_at(0.0),))
    with pytest.raises(AtomOnMembraneError):
        validate(prob)


def test_validate_is_deterministic(symmetric_problem):
    r1 = validate(symmetric_problem).to_dict()
    r2 = validate(symmetric_problem).to_dict()
    assert r1 == r2


def test_side_of_basic_cases():
    prob = make_problem()
    assert prob.side_of(0.3, -1.0) == "left"
    assert prob.side_of(0.3, 1.0) == "right"
    assert prob.side_of(0.3, 1e-15) == "membrane"
    lin = make_problem(membrane=MembranePath("linear", [0.0, 1.0]))
    assert lin.side_of(0.5, 0.5) == "membrane"


def test_side_of_partitions_the_line():
    prob = make_problem(membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0]))
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = rng.uniform(0.0, prob.horizon)
        x = rng.uniform(-3.0, 3.0)
        labels = [prob.side_of(s, x)]
        assert labels[0] in ("left", "membrane", "right")
        h = float(prob.membrane(s))
        tol = prob.membrane_tolerance(s)
        if x < h - tol:
            assert labels[0] == "left"
        elif x > h + tol:
            assert labels[0] == "right"
        else:
            assert labels[0] == "membrane"


def test_side_index_matches_side_of_at_the_band_edges():
    # a few ulps either side of h - tol and h + tol, one time at a time and
    # on arrays of times: the array classifier and side_of give one label
    prob = make_problem(membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0]))
    names = ("membrane", "left", "right")
    ss, xs = [], []
    for s in (0.0, 0.4, 1.1):
        h, tol = float(prob.h(s)), float(prob.membrane_tolerance(s))
        for edge in (h - tol, h + tol):
            x = np.array([edge])
            for _ in range(4):
                x = np.concatenate([[np.nextafter(x[0], -np.inf)], x,
                                    [np.nextafter(x[-1], np.inf)]])
            idx = prob.side_index(s, x)
            assert [names[i] for i in idx] == [prob.side_of(s, v) for v in x]
            assert len(set(idx.tolist())) == 2
            ss.extend([s] * len(x))
            xs.extend(x)
    idx = prob.side_index(np.array(ss), np.array(xs))
    assert [names[i] for i in idx] == [prob.side_of(s, x) for s, x in zip(ss, xs)]


def test_membrane_band_width():
    prob = make_problem()
    tol = prob.membrane_tolerance(0.1)
    assert prob.side_of(0.1, 0.999 * tol) == "membrane"
    assert prob.side_of(0.1, 1.5 * tol) == "right"
    assert prob.side_of(0.1, -1.5 * tol) == "left"


def test_coefficient_catalog_evaluation():
    aff = CoefficientField("affine-in-x", [1.0, 2.0])
    assert aff(0.0, 3.0) == pytest.approx(7.0)
    tab = CoefficientField("tabulated", [2, 2, 0.0, 1.0, -1.0, 1.0, 1.0, 2.0, 3.0, 4.0])
    assert tab(0.0, -1.0) == pytest.approx(1.0)
    assert tab(1.0, 1.0) == pytest.approx(4.0)
    assert tab(0.5, 0.0) == pytest.approx(2.5)
    # clamped outside the table
    assert tab(2.0, 5.0) == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        CoefficientField("nope", [1.0])


def test_time_function_catalog():
    lin = TimeFunction("linear", [1.0, -2.0])
    assert lin(0.5) == pytest.approx(0.0)
    sine = TimeFunction("sinusoidal", [0.0, 0.1, 2.0])
    assert sine(0.25) == pytest.approx(0.1 * np.sin(0.5))
    tab = TimeFunction("tabulated", [3, 0.0, 0.5, 1.0, 0.0, 1.0, 0.0])
    assert tab(0.25) == pytest.approx(0.5)


def test_constant_and_sinusoidal_values_keep_shape_and_bits():
    # reference forms: broadcast copy for constants, the sinusoid with an
    # explicit broadcast of s against x
    inputs = [(0.3, -1.2), (np.linspace(0.0, 1.0, 5), 0.4),
              (0.2, np.linspace(-1.0, 1.0, 7)),
              (np.linspace(0.0, 1.0, 3)[:, None], np.linspace(-1.0, 1.0, 4)[None, :])]
    const = CoefficientField.constant(1.7)
    sine = CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.2, 1.5, 0.1, 2.0])
    for s, x in inputs:
        s_a, x_a = np.asarray(s, dtype=float), np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(s_a.shape, x_a.shape)
        got = const(s, x)
        assert np.shape(got) == shape and np.all(got == 1.7)
        assert isinstance(got, np.ndarray) == bool(shape)
        want = (1.0 + 0.2 * np.sin(1.5 * x_a) + 0.1 * np.sin(2.0 * s_a)
                + 0.0 * (s_a + x_a) * 0.0)
        assert np.array_equal(sine(s, x), want)
        assert np.shape(sine(s, x)) == shape
    tf = TimeFunction.constant(-0.5)
    for s in (0.25, np.linspace(0.0, 1.0, 6), np.zeros((2, 3))):
        got = tf(s)
        assert np.shape(got) == np.shape(s) and np.all(got == -0.5)
        assert isinstance(got, float) == (np.ndim(s) == 0)
    out = tf(np.zeros(3))
    out[0] = 9.0  # a fresh array, not a view of shared data
    assert np.all(tf(np.zeros(3)) == -0.5)


@pytest.mark.parametrize("form,constant", [
    (CoefficientField.constant(2.0), True),
    (CoefficientField("affine-in-x", [2.0, 0.0]), True),
    (CoefficientField("affine-in-x", [2.0, 0.1]), False),
    (CoefficientField("sinusoidal-in-s-and-x", [2.0, 0.0, 3.0, 0.0, 1.0]), True),
    (CoefficientField("sinusoidal-in-s-and-x", [2.0, 0.0, 3.0, 0.1, 1.0]), False),
    (CoefficientField("tabulated", [2, 2, 0.0, 1.0, 0.0, 1.0, 2.0, 2.0, 2.0, 2.0]), False),
    (TimeFunction("linear", [2.0, 0.0]), True),
    (TimeFunction("sinusoidal", [2.0, 0.0, 3.0, 0.5]), True),
    (TimeFunction("sinusoidal", [2.0, 0.1, 3.0]), False),
    (TimeFunction("tabulated", [2, 0.0, 1.0, 2.0, 2.0]), False),
])
def test_constant_forms_read_their_first_parameter(form, constant):
    assert form.is_constant == constant
    if constant:
        assert form.constant_value() == 2.0
    else:
        with pytest.raises(ValueError):
            form.constant_value()


@pytest.mark.parametrize("field,homogeneous", [
    (CoefficientField.constant(2.0), True),
    (CoefficientField("affine-in-x", [2.0, 0.5]), True),
    (CoefficientField("sinusoidal-in-s-and-x", [2.0, 0.3, 3.0, 0.0, 1.0]), True),
    (CoefficientField("sinusoidal-in-s-and-x", [2.0, 0.3, 3.0, 0.1, 1.0]), False),
    (CoefficientField("tabulated", [2, 2, 0.0, 1.0, 0.0, 1.0, 2.0, 2.0, 2.0, 2.0]), False),
])
def test_time_homogeneous_fields_do_not_depend_on_s(field, homogeneous):
    # a catalog property: tabulated fields never count, even when their
    # values happen not to depend on s
    assert field.is_time_homogeneous == homogeneous
    x = np.linspace(-1.0, 1.0, 5)
    if homogeneous:
        assert np.array_equal(field(0.1, x), field(0.7, x))
    side = SideSpec(CoefficientField.constant(0.0), field)
    assert side.is_time_homogeneous == homogeneous
    swapped = SideSpec(field, CoefficientField.constant(1.0))
    assert swapped.is_time_homogeneous == homogeneous


def test_initial_function_values_keep_their_formulas_bits():
    # the catalog forms as written: the Gaussian in (x - c)^2 / (2 w^2),
    # a tabulated datum at its edge values outside the knots
    x = np.linspace(-3.0, 3.0, 61)
    gauss = InitialFunction.gaussian(1.5, 0.3, 0.6)
    assert np.array_equal(gauss(x), 1.5 * np.exp(-((x - 0.3) ** 2) / (2.0 * 0.6 * 0.6)))
    ind = InitialFunction("indicator-smoothed", [-0.5, 0.8, 0.2])
    assert np.array_equal(ind(x), 0.5 * (np.tanh((x + 0.5) / 0.2) - np.tanh((x - 0.8) / 0.2)))
    tab = InitialFunction.from_samples(TABLE_X, np.cos(3.0 * TABLE_X))
    assert tab(-2.0) == np.cos(-3.0) and tab(2.0) == np.cos(3.0)
    assert isinstance(InitialFunction("constant-one").derivative(0.4, 2), float)
    assert not hasattr(InitialFunction("constant-one"), "is_constant")
    # the default constant and its explicit spelling are one function in caches
    assert InitialFunction("constant-one").key == InitialFunction.one().key


def test_initial_function_values_and_derivatives():
    phi = InitialFunction.gaussian(amp=2.0, center=0.5, width=0.7)
    assert phi(0.5) == pytest.approx(2.0)
    assert phi.sup_norm == pytest.approx(2.0)
    # derivative against central differences
    for x in (-0.3, 0.2, 1.1):
        eps = 1e-5
        fd1 = (phi(x + eps) - phi(x - eps)) / (2 * eps)
        fd2 = (phi(x + eps) - 2 * phi(x) + phi(x - eps)) / eps ** 2
        assert phi.derivative(x, 1) == pytest.approx(fd1, rel=1e-6, abs=1e-8)
        assert phi.derivative(x, 2) == pytest.approx(fd2, rel=1e-4, abs=1e-6)
    one = InitialFunction.one()
    assert one(12.3) == 1.0
    assert one.sup_norm == 1.0


TABLE_X = np.linspace(-1.0, 1.0, 9)


@pytest.mark.parametrize("phi,xs", [
    (InitialFunction.one(), [-0.7, 0.0, 2.5]),
    (InitialFunction("indicator-smoothed", [-0.5, 0.8, 0.2]), [-0.9, -0.5, 0.1, 0.8, 1.3]),
    # ramp, inside, ramp and outside of the taper, off its edges |x - 0.2| = 0.5, 1.5
    (InitialFunction("polynomial-clamped", [0.2, 0.5, 1.5, 0.3, -1.0, 0.5, 2.0]),
     [-1.0, 0.0, 0.4, 1.1, 2.0]),
    # between the knots, and past them, where the datum is constant
    (InitialFunction.from_samples(TABLE_X, np.cos(3.0 * TABLE_X)), [-0.93, -0.4, 0.05, 0.6]),
    (InitialFunction.from_samples(TABLE_X, np.cos(3.0 * TABLE_X)), [-1.5, 1.2, 3.0]),
], ids=["constant-one", "indicator-smoothed", "polynomial-clamped", "tabulated-inside",
        "tabulated-outside"])
def test_initial_function_derivative_matches_central_differences(phi, xs):
    for x in xs:
        fd1 = (phi(x + 1e-5) - phi(x - 1e-5)) / 2e-5
        fd2 = (phi(x + 1e-4) - 2.0 * phi(x) + phi(x - 1e-4)) / 1e-8
        assert phi.derivative(x, 1) == pytest.approx(fd1, rel=1e-6, abs=1e-8)
        assert phi.derivative(x, 2) == pytest.approx(fd2, rel=1e-4, abs=1e-5)


def _piecewise_polynomial_draws(count):
    """Seeded tabulated and polynomial-clamped data with their supports,
    then two data that peak between the points of a 4001-point grid."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        x = np.sort(rng.uniform(-3.0, 3.0, rng.integers(4, 41)))
        yield InitialFunction.from_samples(x, rng.normal(size=len(x))), x[0], x[-1]
    rng = np.random.default_rng(1)
    for _ in range(count):
        c, r_in = rng.uniform(-1.0, 1.0), max(rng.uniform(-0.5, 1.0), 0.0)
        r_out = r_in + rng.uniform(0.1, 1.5)
        coeffs = rng.normal(size=rng.integers(1, 7)).tolist()
        yield InitialFunction("polynomial-clamped", [c, r_in, r_out] + coeffs), c - r_out, c + r_out
    yield InitialFunction.from_samples([-1.0, -0.6, -0.2, 0.2, 0.4, 0.6, 1.0],
                                       [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), -1.0, 1.0
    yield InitialFunction("polynomial-clamped", [0.0, 0.0, 0.3, 1.0, -3.0, -2.0]), -0.3, 0.3


def test_piecewise_polynomial_sup_norm_is_an_attained_bound():
    # oracle: |phi| on a 200 001-point grid of the support (phi is constant
    # or zero outside it), and at every root of phi' that a sign change on
    # that grid brackets near the grid's max, found by brentq
    for phi, lo, hi in _piecewise_polynomial_draws(100):
        xs = np.linspace(lo, hi, 200_001)
        values, slopes = np.abs(phi(xs)), phi.derivative(xs)
        top = float(np.max(values))
        assert phi.sup_norm >= top
        brackets = np.flatnonzero((slopes[:-1] * slopes[1:] < 0)
                                  & (np.maximum(values[:-1], values[1:]) >= top * (1 - 1e-6)))
        attained = max([top] + [abs(phi(brentq(phi.derivative, xs[i], xs[i + 1], xtol=1e-15)))
                                for i in brackets])
        assert phi.sup_norm == pytest.approx(attained, rel=1e-12, abs=0.0)


def test_polynomial_clamped_taper():
    # (x-0)^2 inside |x| <= 1, tapered to zero at |x| = 2
    phi = InitialFunction("polynomial-clamped", [0.0, 1.0, 2.0, 0.0, 0.0, 1.0])
    assert phi(0.5) == pytest.approx(0.25)
    assert phi(3.0) == 0.0
    assert phi(1.999) < 4.0 * 0.02
    xs = np.linspace(-3, 3, 1201)
    vals = phi(xs)
    assert np.all(np.isfinite(vals))
    # continuity across the taper edges
    assert np.max(np.abs(np.diff(vals))) < 0.05


def test_tabulated_initial_function_roundtrip():
    xs = np.linspace(-2, 2, 41)
    phi = InitialFunction.from_samples(xs, np.cos(xs))
    assert phi(0.0) == pytest.approx(1.0, abs=1e-6)
    assert phi(1.0) == pytest.approx(np.cos(1.0), abs=1e-4)
    # constant extension outside
    assert phi(10.0) == pytest.approx(np.cos(2.0), abs=1e-12)


def test_problem_json_roundtrip(skew_problem):
    d = skew_problem.to_dict()
    back = Problem.from_dict(d)
    assert back.to_dict() == d
    assert back.q(2, 0.3) == pytest.approx(0.75)


def test_problem_from_dict_missing_key():
    with pytest.raises(ConfigError, match="membrane"):
        Problem.from_dict({"left": {}, "right": {}, "wentzell": {}, "horizon": 1.0})


def test_tabulated_kinds_json_roundtrip():
    tab_c = CoefficientField("tabulated", [2, 2, 0.0, 1.0, -1.0, 1.0, 1.0, 2.0, 3.0, 4.0])
    back_c = CoefficientField.from_dict(tab_c.to_dict())
    assert back_c(0.5, 0.0) == pytest.approx(tab_c(0.5, 0.0))
    tab_t = TimeFunction("tabulated", [3, 0.0, 0.5, 1.0, 0.2, 0.9, 0.2])
    back_t = TimeFunction.from_dict(tab_t.to_dict())
    assert back_t(0.3) == pytest.approx(tab_t(0.3))
    phi = InitialFunction.from_samples(np.linspace(-1, 1, 9),
                                       np.linspace(-1, 1, 9) ** 2)
    back_phi = InitialFunction.from_dict(phi.to_dict())
    assert back_phi(0.4) == pytest.approx(phi(0.4))


def test_atom_moment_reported():
    prob = make_problem(atoms=(atom_at(-1.0, 2.0), atom_at(0.5, 1.0)))
    report = validate(prob)
    assert report["IV"].statistic["atom_moment_max"] == pytest.approx(2.0)


@pytest.mark.parametrize("kind,params", [
    ("constant", [0.3]),
    ("linear", [0.1, -0.4]),
    ("sinusoidal", [0.0, 0.1, 2.0]),
    ("sinusoidal", [0.2, -0.5, 9.0, 1.0]),
    ("tabulated", [4, 0.0, 0.3, 0.6, 1.0, 0.0, 0.5, -0.2, 0.1]),
])
def test_time_function_bounds_enclose_dense_samples(kind, params):
    f = TimeFunction(kind, params)
    for a, b in ((0.0, 0.4), (0.1, 0.95), (0.25, 0.3)):
        lo, hi = f.bounds(a, b)
        values = f(np.linspace(a, b, 4001))
        assert lo <= np.min(values) and hi >= np.max(values)
        # attained, up to the sampling error of the dense grid (slopes <= 4.5)
        assert np.min(values) - lo <= 1e-3 and hi - np.max(values) <= 1e-3
