"""Interface-system tests: transforms, kernels, and the density solve."""

import math
import re

import numpy as np
import pytest

from memdiff.boundary_system import (
    KernelAssembler,
    RightHandSide,
    SolverConfig,
    first_kind_residual,
    holmgren_transform,
    m_delta_witness,
    solve_densities,
)
from memdiff.errors import SeriesDivergenceError, SingularIntegrandError, TimeOrderError
from memdiff.potentials import PotentialEvaluator
from memdiff.problem import InitialFunction, MembranePath

from conftest import atom_at, make_problem
from kernel_oracle import ScalarKernels, scalar_holmgren_transform

SQ2PI = math.sqrt(2.0 / math.pi)


# -- Holmgren transform --------------------------------------------------------

def test_holmgren_constant():
    for c in (-2.0, 0.5, 3.0):
        got = holmgren_transform(lambda r: np.full_like(r, c), 0.2, 1.0)
        want = -SQ2PI * c / math.sqrt(0.8)
        assert got == pytest.approx(want, rel=1e-12)


def test_holmgren_linear_decay():
    # f(rho) = t - rho: the transform equals -2 sqrt(2/pi) (t-s)^(1/2)
    s, t = 0.1, 0.9
    got = holmgren_transform(lambda r: t - r, s, t)
    want = -2.0 * SQ2PI * math.sqrt(t - s)
    assert got == pytest.approx(want, rel=1e-12)


def test_holmgren_zero():
    assert holmgren_transform(lambda r: np.zeros_like(r), 0.0, 1.0) == 0.0


def test_holmgren_rejects_nondecaying_increment():
    with pytest.raises(SingularIntegrandError):
        holmgren_transform(lambda r: np.ones_like(r), 0.0, 1.0, f_s=0.0)


def test_holmgren_array_matches_scalar_reference():
    def f(r):
        return np.cos(3.0 * r) * (2.0 - r)

    s = np.array([[0.0], [0.3]])
    t = np.array([0.5, 0.9, 1.4])
    got = holmgren_transform(f, s, t, n=16)
    assert got.shape == (2, 3)
    for (k, m), value in np.ndenumerate(got):
        want = scalar_holmgren_transform(f, float(s[k, 0]), float(t[m]), n=16)
        assert value == pytest.approx(want, rel=1e-12)
    assert isinstance(holmgren_transform(f, 0.1, 0.5), float)


def test_holmgren_checks_every_element():
    one = lambda r: np.ones_like(r)  # noqa: E731
    ok = holmgren_transform(one, [0.0, 0.0], 1.0, f_s=[1.0, 1.0])
    assert np.allclose(ok, -SQ2PI)
    with pytest.raises(SingularIntegrandError):
        holmgren_transform(one, [0.0, 0.0], 1.0, f_s=[1.0, 0.0])


def test_holmgren_time_order():
    with pytest.raises(TimeOrderError):
        holmgren_transform(lambda r: np.zeros_like(r), 1.0, 0.5)


# -- right-hand side -------------------------------------------------------------

def test_trace_gap_identical_sides(symmetric_problem, gaussian_phi):
    asm = KernelAssembler(symmetric_problem)
    rhs = RightHandSide(asm, gaussian_phi, 1.0)
    for s in (0.1, 0.5, 0.9):
        assert rhs.trace_gap(s) == 0.0


def test_trace_gap_two_scales_closed_form(two_scale_problem):
    # unit-amplitude Gaussian initial datum, different diffusion scales:
    # each Poisson trace at the membrane is (1 + b_i d)^(-1/2)
    phi = InitialFunction.gaussian(amp=1.0, center=0.0, width=1.0)
    asm = KernelAssembler(two_scale_problem)
    t = 1.0
    rhs = RightHandSide(asm, phi, t)
    for s in (0.2, 0.6):
        d = t - s
        want = (1 + 4 * d) ** (-0.5) - (1 + d) ** (-0.5)
        assert rhs.trace_gap(s) == pytest.approx(want, abs=1e-10)


def test_trace_gap_vanishes_at_terminal_time(two_scale_problem):
    phi = InitialFunction.gaussian(amp=1.0, center=0.0, width=1.0)
    rhs = RightHandSide(KernelAssembler(two_scale_problem), phi, 1.0)
    assert abs(rhs.trace_gap(1.0 - 1e-5)) < 2e-2


# -- flux kernel ------------------------------------------------------------------

def test_flux_kernel_vanishes_flat_symmetric(symmetric_problem):
    asm = ScalarKernels(KernelAssembler(symmetric_problem))
    assert asm.flux_kernel(1, 0.2, 0.7) == pytest.approx(0.0, abs=1e-15)
    assert asm.flux_kernel(2, 0.2, 0.7) == pytest.approx(0.0, abs=1e-15)


def test_flux_kernel_sloped_membrane_closed_form():
    prob = make_problem(membrane=MembranePath("linear", [0.0, 0.1]), q1=1.0, q2=1.0)
    asm = ScalarKernels(KernelAssembler(prob))
    s, tau = 0.2, 0.8
    dt = tau - s
    z0 = math.exp(-(0.1 * dt) ** 2 / (2 * dt)) / math.sqrt(2 * math.pi * dt)
    dz0 = z0 * (0.1 * dt) / dt
    assert asm.flux_kernel(1, s, tau) == pytest.approx(-dz0, rel=1e-12)
    assert asm.flux_kernel(2, s, tau) == pytest.approx(dz0, rel=1e-12)


def test_flux_kernel_single_atom_formula():
    prob = make_problem(q1=1e-12, q2=1e-12, atoms=(atom_at(1.0),))
    asm = ScalarKernels(KernelAssembler(prob))
    s, tau = 0.1, 0.6
    dt = tau - s
    want = (math.exp(-1.0 / (2 * dt)) - 1.0) / math.sqrt(2 * math.pi * dt)
    assert asm.flux_kernel(2, s, tau) == pytest.approx(want, rel=1e-9)
    assert asm.flux_kernel(1, s, tau) == pytest.approx(0.0, abs=1e-15)


# -- transformed continuity kernel ---------------------------------------------------

def test_holmgren_kernel_vanishes_flat_constant(symmetric_problem):
    asm = ScalarKernels(KernelAssembler(symmetric_problem))
    assert asm.holmgren_kernel(1, 0.1, 0.8) == 0.0


def test_holmgren_kernel_bound_shape(moving_membrane_problem):
    asm = ScalarKernels(KernelAssembler(moving_membrane_problem))
    alpha = moving_membrane_problem.alpha
    s = 0.1
    vals = []
    for tau in (0.11, 0.15, 0.3, 0.6, 1.0):
        r = asm.holmgren_kernel(1, s, tau)
        vals.append(abs(r) * (tau - s) ** (1 - alpha / 2))
    assert np.all(np.isfinite(vals))
    assert max(vals) < 1.0


def test_holmgren_kernel_quadrature_consistency(moving_membrane_problem):
    # same differentiated transform evaluated at doubled resolution
    asm_c = ScalarKernels(KernelAssembler(moving_membrane_problem,
                                          config=SolverConfig(n_holmgren=24)))
    asm_f = ScalarKernels(KernelAssembler(moving_membrane_problem,
                                          config=SolverConfig(n_holmgren=96)))
    for (s, tau) in ((0.1, 0.4), (0.3, 0.9)):
        a = asm_c.holmgren_kernel(1, s, tau)
        b = asm_f.holmgren_kernel(1, s, tau)
        assert a == pytest.approx(b, abs=1e-3 * (1 + abs(b)))


# -- combined kernel ------------------------------------------------------------------

def test_coupling_weights_reference_values(two_scale_problem):
    _, (d1, d2) = two_scale_problem.membrane_weights(0.3)
    assert d1 == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert d2 == pytest.approx(8.0 / 3.0, rel=1e-12)


# -- density solve -----------------------------------------------------------------

def test_solve_symmetric_gives_null_densities(symmetric_problem, gaussian_phi):
    dens = solve_densities(symmetric_problem, gaussian_phi, 1.0)
    assert dens.max_w() < 1e-12
    assert dens.diagnostics.iterations == 0


def test_solve_constant_one_gives_null_densities(skew_problem):
    dens = solve_densities(skew_problem, InitialFunction.one(), 1.0)
    assert dens.max_w() < 1e-9


def test_solve_skew_flat_matches_poisson_derivative(skew_problem, gaussian_phi):
    # flat membrane, equal unit diffusions: the kernels vanish and the
    # densities reduce to (q2-q1) times the Poisson-derivative trace
    t = 1.0
    ev = PotentialEvaluator(skew_problem)
    dens = solve_densities(skew_problem, gaussian_phi, t, evaluator=ev)
    for idx in (5, 20, 45, 60):
        s = float(dens.mesh[idx])
        want = 0.5 * ev.poisson(1, s, 0.0, t, gaussian_phi, p=1) * math.sqrt(t - s)
        assert dens.w1[idx] == pytest.approx(want, rel=1e-8, abs=1e-12)
        assert dens.w2[idx] == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_solve_contraction_witness(skew_moving_problem, gaussian_phi):
    dens = solve_densities(skew_moving_problem, gaussian_phi, 1.0)
    sups = dens.diagnostics.iterate_sups
    assert dens.diagnostics.iterations == len(sups) - 1
    k0 = min(10, len(sups) - 1)
    tail = sups[k0:]
    assert all(b <= max(a * 0.9, 1e-30) for a, b in zip(tail, tail[1:]))


def test_solve_at_exactly_k_max_iterations_is_converged(skew_moving_problem, gaussian_phi):
    # this solve meets the tolerance on its 5th iteration: k_max = 5 returns
    # the same densities after 5 iterations, and k_max = 4 is exhausted
    full = solve_densities(skew_moving_problem, gaussian_phi, 1.0)
    assert full.diagnostics.iterations == 5
    edge = solve_densities(skew_moving_problem, gaussian_phi, 1.0, config=SolverConfig(k_max=5))
    assert edge.diagnostics.iterations == 5
    assert np.array_equal(edge.w1, full.w1) and np.array_equal(edge.w2, full.w2)
    with pytest.raises(SeriesDivergenceError, match="no convergence within k_max=4"):
        solve_densities(skew_moving_problem, gaussian_phi, 1.0, config=SolverConfig(k_max=4))


def test_solve_side_swap_symmetry():
    # swapping sides together with the reflection x -> -x maps the
    # densities onto each other for even initial data
    phi = InitialFunction.gaussian(amp=1.0, center=0.0, width=0.7)
    pa = make_problem(b1=1.0, b2=4.0, q1=0.3, q2=0.7)
    pb = make_problem(b1=4.0, b2=1.0, q1=0.7, q2=0.3)
    da = solve_densities(pa, phi, 1.0)
    db = solve_densities(pb, phi, 1.0)
    assert np.allclose(da.w1, db.w2, atol=1e-10)
    assert np.allclose(da.w2, db.w1, atol=1e-10)


def test_solve_density_bound_witness(skew_problem, gaussian_phi):
    dens = solve_densities(skew_problem, gaussian_phi, 1.0)
    assert dens.diagnostics.w_sup_ratio < 5.0


def test_m_delta_witness():
    # atoms at 1.0 (weight 1) and -0.5 (weight 2) on a flat membrane at 0,
    # q1 + q2 = 0.4, b = 1 left and 4 right: the witness is
    # (b_max/b_min)^2 pi/(2 q0) (1 * 1.0 + 2 * 0.5)
    prob = make_problem(b1=1.0, b2=4.0, q1=0.1, q2=0.3,
                        atoms=(atom_at(1.0), atom_at(-0.5, 2.0)))
    assert m_delta_witness(prob) == pytest.approx(16.0 * math.pi / 0.8 * 2.0, rel=1e-12)
    assert m_delta_witness(make_problem(b1=1.0, b2=4.0)) == 0.0
    # the heavy atom of acceptance criterion 11: the divergence message
    # carries a witness above 1
    heavy = make_problem(q1=0.05, q2=0.05, atoms=(atom_at(0.05, 80.0),))
    phi = InitialFunction.gaussian(amp=1.0, center=0.3, width=0.6)
    with pytest.raises(SeriesDivergenceError, match="m_delta witness") as exc:
        solve_densities(heavy, phi, 1.0, config=SolverConfig(k_max=40))
    witness = re.search(r"m_delta witness ([0-9.e+-]+)", str(exc.value)).group(1)
    assert float(witness) > 1.0


def test_first_kind_residual_symmetric(symmetric_problem, gaussian_phi):
    dens = solve_densities(symmetric_problem, gaussian_phi, 1.0)
    resid = first_kind_residual(symmetric_problem, gaussian_phi, 1.0, dens)
    assert np.max(np.abs(resid)) == 0.0


def test_first_kind_residual_skew(skew_problem, gaussian_phi):
    ev = PotentialEvaluator(skew_problem)
    dens = solve_densities(skew_problem, gaussian_phi, 1.0, evaluator=ev)
    resid = first_kind_residual(skew_problem, gaussian_phi, 1.0, dens, ev)
    assert np.max(np.abs(resid)) <= 1e-3 * gaussian_phi.sup_norm


def test_flux_equation_residual_moving_membrane(skew_moving_problem, gaussian_phi):
    # plug the solution back into the untransformed flux equation: an
    # independent witness of the elimination algebra
    t = 1.0
    ev = PotentialEvaluator(skew_moving_problem)
    asm = KernelAssembler(skew_moving_problem, ev)
    dens = solve_densities(skew_moving_problem, gaussian_phi, t, evaluator=ev)
    rhs = RightHandSide(asm, gaussian_phi, t)
    from memdiff._quadrature import singular_rule
    for s in (0.2, 0.5):
        h = float(skew_moving_problem.h(s))
        lhs = sum(float(skew_moving_problem.q(i, s))
                  / float(skew_moving_problem.diffusion(i, s, h))
                  * dens.v(i, s) for i in (1, 2))
        tau, wt = singular_rule(s, t, 24, left_exp=-0.5, right_exp=-0.5)
        total = rhs.flux_gap(s)
        for j in (1, 2):
            kj = np.array([ScalarKernels(asm).flux_kernel(j, s, float(tq))
                           for tq in tau])
            total += float(np.sum(kj * dens.v(j, tau) * wt))
        assert lhs == pytest.approx(total, abs=5e-3 * gaussian_phi.sup_norm)


def test_closed_form_time_integral_identity():
    # integral over (s,t) of (t-tau)^(-1/2) (tau-s)^(-3/2) exp(-beta/(tau-s))
    # equals sqrt(pi/beta) (t-s)^(-1/2) exp(-beta/(t-s)); the substitution
    # u = sqrt(beta/(tau-s)) on two singular_rule panels reproduces it
    from memdiff._quadrature import singular_rule
    s, t = 0.2, 1.1
    for beta in (0.1, 0.5, 2.0):
        g = math.sqrt(beta)
        u_min = g / math.sqrt(t - s)
        total = 0.0
        for (u, wu) in (singular_rule(u_min, u_min + 1.0, 40, left_exp=-0.5),
                        singular_rule(u_min + 1.0, u_min + 9.0, 40)):
            tau = s + g * g / u ** 2
            vals = np.exp(-u ** 2) * (t - tau) ** (-0.5)
            total += (2.0 / g) * float(np.sum(vals * wu))
        want = math.sqrt(math.pi / beta) * math.exp(-beta / (t - s)) \
            / math.sqrt(t - s)
        assert total == pytest.approx(want, rel=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [(0.4 - 1e-16, 0.4), (0.4, 0.4), (0.5, 0.4),
                                 (np.array([0.0, 0.4 - 1e-16]), np.array([0.4, 0.4]))],
                         ids=["two-ulps", "empty", "reversed", "one-of-an-array"])
@pytest.mark.parametrize("exps", [(0.0, 0.0), (-0.5, -0.5)], ids=["legendre", "jacobi"])
def test_singular_rule_refuses_nodes_on_an_end(a, b, exps):
    # an interval two ulps wide puts nodes on its ends, where the integrand
    # is singular; an empty one has no interior at all.  Both are a
    # SingularIntegrandError, raised before any weight is formed (no warning)
    from memdiff._quadrature import singular_rule
    with pytest.raises(SingularIntegrandError):
        singular_rule(a, b, 24, *exps)
