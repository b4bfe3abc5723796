"""Poisson potential, simple-layer potential and conormal-jump tests."""

import math

import numpy as np
import pytest

from dataclasses import replace

from memdiff.errors import MeshMismatchError, SingularIntegrandError, TimeOrderError
from memdiff import potentials
from memdiff.potentials import DensityPair, PotentialEvaluator, graded_mesh
from memdiff.problem import CoefficientField, InitialFunction, MembranePath, SideSpec

from conftest import make_problem
from kernel_oracle import z0_slice_poisson


def evaluator(problem):
    return PotentialEvaluator(problem)


def zero_density(t, n=64):
    """Densities with W_i == 0."""
    mesh = graded_mesh(t, 0.0, n)
    return DensityPair(t, mesh, np.zeros(n), np.zeros(n))


def unit_density(t, s_min=0.0, n=64):
    """Densities with V_i == 1, i.e. W_i(tau) = (t - tau)^(1/2)."""
    mesh = graded_mesh(t, s_min, n)
    w = np.sqrt(t - mesh)
    return DensityPair(t, mesh, w, w.copy())


# -- Poisson potential ---------------------------------------------------------

def test_poisson_conserves_constant_one(symmetric_problem):
    ev = evaluator(symmetric_problem)
    one = InitialFunction.one()
    for x in (-1.0, 0.0, 2.5):
        assert ev.poisson(1, 0.2, x, 1.0, one) == pytest.approx(1.0, abs=1e-9)
        assert ev.poisson(2, 0.2, x, 1.0, one) == pytest.approx(1.0, abs=1e-9)


def test_poisson_gaussian_closed_form(symmetric_problem):
    # convolving the unit heat kernel with exp(-y^2/2) over an interval of
    # length d gives (1+d)^(-1/2) exp(-x^2 / (2 (1+d)))
    ev = evaluator(symmetric_problem)
    phi = InitialFunction.gaussian(amp=1.0, center=0.0, width=1.0)
    s, t = 0.25, 1.0
    d = t - s
    for x in (-0.7, 0.0, 1.2):
        want = (1 + d) ** (-0.5) * math.exp(-x * x / (2 * (1 + d)))
        assert ev.poisson(1, s, x, t, phi) == pytest.approx(want, abs=1e-9)


def test_poisson_recovers_initial_function(symmetric_problem):
    ev = evaluator(symmetric_problem)
    phi = InitialFunction.gaussian(amp=1.0, center=0.0, width=0.5)
    got = ev.poisson(1, 1.0 - 1e-4, 0.0, 1.0, phi)
    assert abs(got - phi(0.0)) <= 1e-2


def test_poisson_requires_time_order(symmetric_problem):
    ev = evaluator(symmetric_problem)
    with pytest.raises(TimeOrderError):
        ev.poisson(1, 1.0, 0.0, 0.5, InitialFunction.one())


def test_poisson_vectorized_matches_scalar(symmetric_problem):
    ev = evaluator(symmetric_problem)
    phi = InitialFunction.gaussian()
    xs = np.array([-1.0, 0.0, 0.5])
    vec = ev.poisson(1, 0.1, xs, 0.9, phi)
    for xi, vi in zip(xs, vec):
        assert vi == pytest.approx(ev.poisson(1, 0.1, float(xi), 0.9, phi), rel=1e-12)


# amp, center and width of the Gaussian datum of the closed-form tests
GAUSS = (1.3, 0.3, 0.6)


def gaussian_poisson(s, x, t, b, p):
    """integral of Z0^(p) against the Gaussian GAUSS on a side of constant
    diffusion b: amp w / sqrt(V) exp(-(x - c)^2 / (2 V)), V = w^2 + b (t - s),
    for p = 0, and its x-derivatives."""
    amp, c, w = GAUSS
    v = w * w + b * (t - s)
    u = amp * w / np.sqrt(v) * np.exp(-(x - c) ** 2 / (2.0 * v))
    return (u, -u * (x - c) / v, u * ((x - c) ** 2 / v - 1.0) / v)[p]


@pytest.mark.parametrize("p", [0, 1, 2])
def test_exact_side_poisson_matches_gaussian_convolution(two_scale_problem, p):
    # sides b = 1 and b = 4, t - s >= 0.3, arrays and a scalar point: the
    # worst relative error measured is 3.3e-15 (p = 2, where the value is
    # 0.05 of its Gaussian factor); the tolerance 1e-13 leaves a margin of 30
    ev = evaluator(two_scale_problem)
    phi = InitialFunction.gaussian(*GAUSS)
    t = 0.9
    s, x = np.meshgrid([0.0, 0.3, 0.6], [-1.5, -0.4, 0.05, 0.9, 2.0])
    for i, b in ((1, 1.0), (2, 4.0)):
        got = ev.poisson(i, s, x, t, phi, p)
        assert got.shape == s.shape
        assert np.max(np.abs(got / gaussian_poisson(s, x, t, b, p) - 1.0)) <= 1e-13
        one = ev.poisson(i, 0.3, 0.05, t, phi, p)
        assert isinstance(one, float)
        assert abs(one / gaussian_poisson(0.3, 0.05, t, b, p) - 1.0) <= 1e-13


ORACLE_PHIS = {
    "constant-one": InitialFunction.one(),
    "indicator-smoothed": InitialFunction("indicator-smoothed", [-0.5, 0.7, 0.1]),
    "polynomial-clamped": InitialFunction("polynomial-clamped",
                                          [0.2, 0.5, 1.5, 1.0, -0.5, 0.3]),
    "tabulated": InitialFunction.from_samples([-1.0, -0.2, 0.4, 1.1], [0.1, 0.8, 0.5, 0.2]),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_PHIS))
def test_exact_side_poisson_matches_z0_slice(two_scale_problem, kind):
    # the unit profile against the Z0 slice on the same nodes, up to 1e-3
    # before t.  Errors are measured on sup|phi| sigma^-p, the size of the
    # integral of |Z0^(p) phi| (a derivative of constant-one is 0 up to
    # rounding): worst 1.1e-15, tolerance 1e-13, a margin of 90
    ev = evaluator(two_scale_problem)
    phi = ORACLE_PHIS[kind]
    t = 0.9
    s, x = np.meshgrid([0.0, 0.3, 0.6, 0.85, 0.899], [-1.5, -0.4, 0.05, 0.9, 2.0])
    for i, b in ((1, 1.0), (2, 4.0)):
        for p in (0, 1, 2):
            scale = phi.sup_norm * np.sqrt(b * (t - s)) ** -p
            got = ev.poisson(i, s, x, t, phi, p)
            want = z0_slice_poisson(ev.fs[i], s, x, t, phi, p)
            assert np.max(np.abs(got - want) / scale) <= 1e-13
            one = ev.poisson(i, 0.85, 0.05, t, phi, p)
            want = z0_slice_poisson(ev.fs[i], 0.85, 0.05, t, phi, p)
            assert isinstance(one, float)
            assert abs(one - want) <= 1e-13 * phi.sup_norm * math.sqrt(b * 0.05) ** -p


# -- simple-layer potential -----------------------------------------------------

def test_layer_zero_density(symmetric_problem):
    ev = evaluator(symmetric_problem)
    dens = zero_density(1.0)
    assert ev.layer(1, 0.2, 0.5, 1.0, dens) == 0.0


def test_layer_unit_density_elementary_integral(symmetric_problem):
    # b=1, h=0, x=0, V=1: integral of (2 pi (tau-s))^(-1/2) = sqrt(2 (t-s)/pi)
    ev = evaluator(symmetric_problem)
    s, t = 0.2, 1.0
    dens = unit_density(t)
    want = math.sqrt(2.0 * (t - s) / math.pi)
    assert ev.layer(1, s, 0.0, t, dens) == pytest.approx(want, abs=1e-4)


def test_layer_vanishes_near_terminal_time(symmetric_problem):
    ev = evaluator(symmetric_problem)
    t = 1.0
    dens = unit_density(t)
    vals = [abs(ev.layer(1, s, 0.3, t, dens)) for s in (0.9, 0.99, 0.999)]
    assert vals[2] < vals[0]
    assert vals[2] < 0.05


def test_layer_mesh_span_guard(symmetric_problem):
    ev = evaluator(symmetric_problem)
    dens = unit_density(1.0, s_min=0.5)
    with pytest.raises(MeshMismatchError):
        ev.layer(1, 0.2, 0.0, 1.0, dens)


def test_layer_bounded_by_density_sup(moving_membrane_problem):
    ev = evaluator(moving_membrane_problem)
    t = 1.0
    mesh = graded_mesh(t, 0.0)
    rng = np.random.default_rng(2)
    w = 0.5 + 0.1 * np.sin(3 * mesh)
    dens = DensityPair(t, mesh, w, w.copy())
    bound = math.pi * dens.max_w()  # integral of the two sqrt weights is pi
    for _ in range(20):
        s = rng.uniform(0.0, 0.9)
        x = rng.uniform(-2, 2)
        assert abs(ev.layer(1, s, x, t, dens)) <= bound * 1.01


# -- conormal jump ---------------------------------------------------------------

def test_jump_zero_density(symmetric_problem):
    ev = evaluator(symmetric_problem)
    dens = zero_density(1.0)
    assert ev.conormal_jump(1, 0.3, 1.0, dens) == (0.0, 0.0)


def test_jump_unit_density_flat_membrane(symmetric_problem):
    # b=1, h=0, V=1: direct value vanishes, limits are +-1
    ev = evaluator(symmetric_problem)
    dens = unit_density(1.0)
    s_node = float(dens.mesh[40])  # W is exact at mesh nodes
    left, right = ev.conormal_jump(1, s_node, 1.0, dens)
    assert left == pytest.approx(1.0, abs=1e-12)
    assert right == pytest.approx(-1.0, abs=1e-12)
    # off the nodes the linear interpolation of W adds a small error
    left2, right2 = ev.conormal_jump(1, 0.3, 1.0, dens)
    assert left2 == pytest.approx(1.0, abs=1e-4)
    assert left2 - right2 == pytest.approx(2.0, abs=2e-4)


def test_jump_matches_one_sided_differences(symmetric_problem):
    ev = evaluator(symmetric_problem)
    s, t, eps = 0.3, 1.0, 1e-3
    dens = unit_density(t)
    left, right = ev.conormal_jump(1, s, t, dens)
    u0 = ev.layer(1, s, 0.0, t, dens)
    fd_right = (ev.layer(1, s, eps, t, dens) - u0) / eps
    fd_left = (u0 - ev.layer(1, s, -eps, t, dens)) / eps
    assert left == pytest.approx(fd_left, rel=2e-2)
    assert right == pytest.approx(fd_right, rel=2e-2)


def test_jump_difference_moving_membrane(moving_membrane_problem):
    # left minus right limit equals 2 V / b at every mesh node
    ev = evaluator(moving_membrane_problem)
    t = 1.0
    mesh = graded_mesh(t, 0.0, n=32)
    w = 0.3 + 0.05 * mesh
    dens = DensityPair(t, mesh, w, w.copy())
    for s in mesh[::6]:
        left, right = ev.conormal_jump(1, float(s), t, dens)
        v = dens.v(1, float(s))
        b = moving_membrane_problem.diffusion(1, s, moving_membrane_problem.h(s))
        assert left - right == pytest.approx(2.0 * v / b, rel=1e-12)


# -- direct value -----------------------------------------------------------------

def test_direct_value_zero_cases(symmetric_problem):
    ev = evaluator(symmetric_problem)
    dens0 = zero_density(1.0)
    assert ev.direct_value(1, 0.3, 1.0, dens0) == 0.0
    # centered Gaussian derivative vanishes on a flat membrane
    dens1 = unit_density(1.0)
    assert ev.direct_value(1, 0.3, 1.0, dens1) == pytest.approx(0.0, abs=1e-12)


def test_direct_value_sloped_membrane_self_consistent(monkeypatch):
    prob = make_problem(membrane=MembranePath("linear", [0.0, 0.1]))
    ev = PotentialEvaluator(prob)
    dens = unit_density(1.0)
    a = ev.direct_value(1, 0.2, 1.0, dens)
    # the same integral on a rule four times finer
    monkeypatch.setattr(potentials, "N_TIME", 4 * potentials.N_TIME)
    b = ev.direct_value(1, 0.2, 1.0, dens)
    assert a == pytest.approx(b, abs=1e-4)
    assert abs(a) > 1e-3  # nontrivial value


# -- interior equation residual ----------------------------------------------------

def test_field_satisfies_equation_away_from_membrane(symmetric_problem):
    # discrete residual of du/ds + (b/2) d2u/dx2 on the combined field
    ev = evaluator(symmetric_problem)
    phi = InitialFunction.gaussian(amp=1.0, center=0.3, width=0.6)
    t = 1.0
    dens = unit_density(t)
    s, x = 0.3, 0.8
    ds, dx = 1e-4, 1e-3

    def u(ss, xx):
        return ev.field(1, ss, xx, t, phi, dens)

    du_ds = (u(s + ds, x) - u(s - ds, x)) / (2 * ds)
    d2u_dx2 = (u(s, x + dx) - 2 * u(s, x) + u(s, x - dx)) / dx ** 2
    resid = du_ds + 0.5 * d2u_dx2
    assert abs(resid) < 5e-3 * max(1.0, abs(du_ds))


# the layer value at the last node of graded_mesh(0.4, 0, n), W = 1, on a
# left side with b = 1 + 0.25 sin x, at the default correction quadrature
NEAR_T_LAYER = {8: 1.25329092, 16: 1.25330815, 24: 1.25331134,
                32: None, 48: None, 64: None}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n,b_s", [pytest.param(n, 0.0, id=str(n)) for n in sorted(NEAR_T_LAYER)]
                         + [pytest.param(16, 0.1, id="16-time-dependent")])
def test_variable_side_layer_at_last_mesh_node(n, b_s):
    # the last node lies 0.4/n^2 before t.  For n >= 32 a time node of a
    # point correction rounds onto its anchor: a SingularIntegrandError,
    # raised before a kernel divides by the zero variance (no warning) and
    # not an IndexError from the lookup.  Below that the value is finite,
    # pinned to 1e-8.  With b_s sin s added the side is time-dependent: its
    # point tables are built at the anchor itself, and at n = 16 a node of
    # a table's own time rule rounds onto t, which gave NaN after 116 builds
    left = SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.25, 1.0, b_s, 1.0]),
                    holder_exponent=0.75, diffusion_min=0.5, diffusion_max=2.0)
    ev = evaluator(replace(make_problem(), left=left))
    mesh = graded_mesh(0.4, 0.0, n)
    densities = DensityPair(0.4, mesh, np.ones(n), np.ones(n))
    if b_s or NEAR_T_LAYER[n] is None:
        with pytest.raises(SingularIntegrandError):
            ev.layer(1, mesh[-1], 0.0, 0.4, densities)
    else:
        got = ev.layer(1, mesh[-1], 0.0, 0.4, densities)
        assert got == pytest.approx(NEAR_T_LAYER[n], abs=1e-8)
