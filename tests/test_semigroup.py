"""Transition-operator checks: semigroup laws, interface conditions, generators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from memdiff.boundary_system import SolverConfig, first_kind_residual
from memdiff.mc_oracle import SkewParams, skew_action
from memdiff.potentials import PotentialEvaluator
from memdiff.problem import InitialFunction, MembranePath
from memdiff.semigroup import SemigroupOperator

from conftest import VAR_CORRECTION, atom_at, make_problem, variable_problem
from semigroup_oracle import (
    EffectiveCoefficients,
    effective_coefficients,
    generator_domain_check,
    transition_moments,
)

X_GRID = np.linspace(-2.0, 2.0, 41)


def heat_of_gaussian(phi: InitialFunction, d: float, x):
    """Closed-form heat evolution of a Gaussian bump over an interval d."""
    amp, c, w = phi.params
    var = w * w + d
    return amp * w / math.sqrt(var) * np.exp(-((x - c) ** 2) / (2 * var))


def test_apply_at_equal_times_is_identity(symmetric_problem, gaussian_phi):
    op = SemigroupOperator(symmetric_problem)
    field = op.apply(0.4, 0.4, gaussian_phi)
    xs = np.linspace(-3, 3, 17)
    assert np.array_equal(field(xs), gaussian_phi(xs))


def test_conservation_of_constant_one(skew_problem):
    op = SemigroupOperator(skew_problem)
    field = op.apply(0.0, 1.0, InitialFunction.one())
    assert np.max(np.abs(field(X_GRID) - 1.0)) < 1e-3


def test_heat_semigroup_recovered(symmetric_problem, gaussian_phi):
    op = SemigroupOperator(symmetric_problem)
    field = op.apply(0.0, 1.0, gaussian_phi)
    want = heat_of_gaussian(gaussian_phi, 1.0, X_GRID)
    assert np.max(np.abs(field(X_GRID) - want)) < 1e-3


def test_skew_semigroup_recovered(skew_problem, gaussian_phi):
    op = SemigroupOperator(skew_problem)
    field = op.apply(0.0, 1.0, gaussian_phi)
    params = SkewParams.from_problem(skew_problem)
    assert params.alpha == pytest.approx(0.75)
    want = np.array([skew_action(params, 1.0, float(x), gaussian_phi)
                     for x in X_GRID])
    assert np.max(np.abs(field(X_GRID) - want)) < 1e-2


def test_two_scale_semigroup_recovered(two_scale_problem, gaussian_phi):
    # b1=1, b2=4, q1=q2: the scale change y = x/sqrt(b_i) maps the pasted
    # process to skew Brownian motion with alpha = 1/3; this exercises the
    # transformed continuity equation nontrivially
    op = SemigroupOperator(two_scale_problem)
    t = 1.0
    field = op.apply(0.0, t, gaussian_phi)
    params = SkewParams(alpha=1.0 / 3.0, sigma=1.0)

    def unscale(y):
        return np.where(y < 0, y, 2.0 * y)

    want = np.array([
        skew_action(params, t, float(x) if x < 0 else float(x) / 2.0,
                    lambda y: gaussian_phi(unscale(y)))
        for x in X_GRID])
    assert np.max(np.abs(field(X_GRID) - want)) < 1e-3


def test_skew_even_datum_reduces_to_heat(skew_problem, centered_phi):
    # even initial data see no skewness: the layer densities vanish
    op = SemigroupOperator(skew_problem)
    field = op.apply(0.0, 1.0, centered_phi)
    want = heat_of_gaussian(centered_phi, 1.0, X_GRID)
    assert np.max(np.abs(field(X_GRID) - want)) < 1e-3


def test_chapman_kolmogorov_trivial_factor(symmetric_problem, gaussian_phi):
    op = SemigroupOperator(symmetric_problem)
    gap_s = op.chapman_kolmogorov_gap(0.0, 0.0, 1.0, gaussian_phi, X_GRID)
    gap_t = op.chapman_kolmogorov_gap(0.0, 1.0, 1.0, gaussian_phi, X_GRID)
    assert gap_s <= 1e-6
    assert gap_t <= 1e-6


def test_chapman_kolmogorov_heat(symmetric_problem, gaussian_phi):
    op = SemigroupOperator(symmetric_problem)
    gap = op.chapman_kolmogorov_gap(0.0, 0.5, 1.0, gaussian_phi, X_GRID)
    assert gap <= 2e-3


def test_chapman_kolmogorov_skew_moving(skew_moving_problem, gaussian_phi):
    op = SemigroupOperator(skew_moving_problem)
    gap = op.chapman_kolmogorov_gap(0.0, 0.5, 1.0, gaussian_phi, X_GRID)
    assert gap <= 5e-3


def test_positivity_and_contraction(skew_problem, gaussian_phi):
    op = SemigroupOperator(skew_problem)
    mn, sup = op.positivity_contraction(0.0, 1.0, gaussian_phi, X_GRID)
    assert mn >= -1e-4 * gaussian_phi.sup_norm
    assert sup <= gaussian_phi.sup_norm * (1 + 1e-3)
    # scaled datum scales the bound
    phi2 = InitialFunction.gaussian(amp=2.0, center=0.3, width=0.6)
    mn2, sup2 = op.positivity_contraction(0.0, 1.0, phi2, X_GRID)
    assert sup2 <= 2.0 * (1 + 1e-3)


def test_conjugation_residuals_symmetric(symmetric_problem, gaussian_phi):
    op = SemigroupOperator(symmetric_problem)
    b1, b2 = op.conjugation_residuals(0.3, 1.0, gaussian_phi)
    assert abs(b1) <= 1e-6
    assert abs(b2) <= 1e-6


def test_conjugation_residuals_skew(skew_problem, gaussian_phi):
    op = SemigroupOperator(skew_problem)
    for s in (0.1, 0.5, 0.9):
        b1, b2 = op.conjugation_residuals(s, 1.0, gaussian_phi)
        assert abs(b1) <= 1e-3 * gaussian_phi.sup_norm
        assert abs(b2) <= 5e-3 * gaussian_phi.sup_norm


def test_conjugation_residuals_with_atoms(atom_problem, gaussian_phi):
    op = SemigroupOperator(atom_problem)
    b1, b2 = op.conjugation_residuals(0.3, 1.0, gaussian_phi)
    assert abs(b1) <= 1e-3 * gaussian_phi.sup_norm
    assert abs(b2) <= 5e-3 * gaussian_phi.sup_norm


def test_flux_residual_with_one_atom_per_side_is_the_written_out_condition(gaussian_phi):
    # q2 u'(h+) - q1 u'(h-) + w_l (u(y_l) - u(h)) + w_r (u(y_r) - u(h)) = 0,
    # with each u on its atom's side; the residual is its negative
    prob = make_problem(b1=1.0, b2=2.0, q1=0.4, q2=0.6,
                        atoms=(atom_at(-0.8, 0.7), atom_at(1.1, 0.5)))
    op = SemigroupOperator(prob)
    s, t = 0.3, 1.0
    _, flux = op.conjugation_residuals(s, t, gaussian_phi)
    dens = op.densities(s, t, gaussian_phi)

    def u(i, x):
        return op.evaluator.field(i, s, x, t, gaussian_phi, dens)

    dleft, dright = op.apply(s, t, gaussian_phi).derivative_limits()
    condition = (0.6 * dright - 0.4 * dleft + 0.7 * (u(1, -0.8) - u(1, 0.0))
                 + 0.5 * (u(2, 1.1) - u(2, 0.0)))
    assert flux == pytest.approx(-condition, rel=1e-12, abs=1e-15)


def test_derivative_limits_at_equal_times_are_the_slope_of_phi(skew_problem, gaussian_phi):
    # the identity operator: both limits are the central difference of the field at h
    field = SemigroupOperator(skew_problem).apply(0.4, 0.4, gaussian_phi)
    h = float(skew_problem.h(0.4))
    fd = (field(h + 1e-5) - field(h - 1e-5)) / 2e-5
    left, right = field.derivative_limits()
    assert left == right == pytest.approx(fd, rel=1e-6)


def test_tabulated_membrane_solve():
    # a piecewise-linear membrane through 31 samples of 0.1 sin 2s, so its
    # kernels take the left-end exponent alpha/2 - 1 of a Holder membrane
    knots = np.linspace(0.0, 1.5, 31)
    tab = MembranePath("tabulated", [31] + knots.tolist() + (0.1 * np.sin(2.0 * knots)).tolist())
    prob = make_problem(b2=2.0, q1=0.25, q2=0.75, membrane=tab)
    assert prob.kernel_time_exponent() == 0.5 * 0.75 - 1.0
    op = SemigroupOperator(prob)
    xs = np.linspace(-1.5, 1.5, 13)
    assert np.max(np.abs(op.apply(0.0, 1.0, InitialFunction.one())(xs) - 1.0)) <= 1e-10
    phi = InitialFunction.gaussian(1.0, 0.3, 0.6)
    dens = op.densities(0.0, 1.0, phi)
    assert np.max(np.abs(first_kind_residual(prob, phi, 1.0, dens, op.evaluator))) <= 1e-3
    # against the sinusoidal membrane it samples (interpolated to 1.2e-4):
    # 3.9e-5 measured, so 1e-4 leaves a margin of 2.5
    sine = replace(prob, membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0]))
    want = SemigroupOperator(sine).apply(0.0, 1.0, phi)(xs)
    assert np.max(np.abs(op.apply(0.0, 1.0, phi)(xs) - want)) <= 1e-4


def test_weak_generator_symmetric_case(symmetric_problem, gaussian_phi):
    op = SemigroupOperator(symmetric_problem)
    f = InitialFunction("polynomial-clamped", [0.0, 0.8, 2.0, 1.0])
    lhs, rhs = op.weak_generator_pairing(0.1, gaussian_phi, f, [0.02])
    # boundary term vanishes: rhs is the plain generator pairing
    assert lhs[0] == pytest.approx(rhs, abs=5e-2 * (abs(rhs) + 1))


def test_weak_generator_skew_case(skew_problem, gaussian_phi):
    op = SemigroupOperator(skew_problem)
    f = InitialFunction("polynomial-clamped", [0.0, 0.8, 2.0, 1.0])
    lhs, rhs = op.weak_generator_pairing(0.1, gaussian_phi, f,
                                         [0.04, 0.02, 0.01])
    errs = [abs(v - rhs) for v in lhs]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-2 * (abs(rhs) + 1)


def test_weak_generator_window_for_non_polynomial_data(symmetric_problem, gaussian_phi):
    # neither phi nor f is polynomial-clamped: the pairing runs over
    # h +- 6, and its error halves with dt (7.6e-3, 3.8e-3, 1.9e-3)
    op = SemigroupOperator(symmetric_problem)
    f = InitialFunction.gaussian(1.0, -0.2, 0.5)
    lhs, rhs = op.weak_generator_pairing(0.1, gaussian_phi, f, [0.04, 0.02, 0.01])
    errs = [abs(v - rhs) for v in lhs]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-2 * (abs(rhs) + 1)


def test_dirac_drift_arithmetic():
    prob = make_problem(q1=0.0, q2=1.0)
    coeffs = EffectiveCoefficients(prob)
    assert coeffs.dirac_drift(0.2) == pytest.approx(1.0, rel=1e-14)
    sym = make_problem(q1=0.5, q2=0.5)
    assert EffectiveCoefficients(sym).dirac_drift(0.2) == 0.0


def test_effective_coefficients_two_scales(two_scale_problem):
    (l1, l2), _ = two_scale_problem.membrane_weights(0.3)
    assert l1 == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert l2 == pytest.approx(1.0 / 3.0, rel=1e-14)
    b_eff, a_eff, a0 = effective_coefficients(two_scale_problem, 0.3, 0.0)
    assert b_eff == pytest.approx(2.0, rel=1e-14)
    assert a_eff == 0.0
    assert a0 == 0.0
    b_off, _, a0_off = effective_coefficients(two_scale_problem, 0.3, 1.5)
    assert b_off == pytest.approx(4.0)
    assert a0_off == 0.0


def test_membrane_weights_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        q1, q2 = rng.uniform(0.05, 2.0, size=2)
        b1, b2 = rng.uniform(0.3, 3.0, size=2)
        prob = make_problem(b1=b1, b2=b2, q1=q1, q2=q2)
        (l1, l2), _ = prob.membrane_weights(0.1)
        assert l1 + l2 == pytest.approx(1.0, rel=1e-12)


def test_generator_domain_symmetric_even(centered_phi):
    prob = make_problem(q1=0.25, q2=0.75)  # equal sides, asymmetric weights
    op = SemigroupOperator(prob)
    result = generator_domain_check(op, 0.1, centered_phi, [0.04, 0.02, 0.01],
                                    np.array([-0.5, 0.5]))
    assert result["in_domain"]
    devs = result["limit_deviations"]
    assert devs[-1] <= 5e-3
    assert devs[0] >= devs[-1]


def test_generator_domain_violating_datum(skew_problem, gaussian_phi):
    # off-center bump has phi'(0) != 0: interface residual blocks the check
    op = SemigroupOperator(skew_problem)
    result = generator_domain_check(op, 0.1, gaussian_phi, [0.02], np.array([-0.5, 0.5]))
    assert not result["in_domain"]
    assert result["limit_deviations"] is None
    assert result["residual_interface_term"] > 1e-3


def test_transition_moments_far_from_membrane(symmetric_problem):
    op = SemigroupOperator(symmetric_problem)
    d = 0.02
    m1, m2, m4 = transition_moments(op, 0.1, 2.0, 0.1 + d)
    assert abs(m1) <= 2e-3 * d
    assert m2 == pytest.approx(d, rel=5e-2)
    assert m4 == pytest.approx(3 * d * d, rel=1e-1)


def test_transition_moments_vanishing_rate(symmetric_problem):
    # fourth moment over the time gap goes to zero as the gap closes
    op = SemigroupOperator(symmetric_problem)
    ratios = []
    for d in (0.08, 0.04, 0.02):
        _, _, m4 = transition_moments(op, 0.1, 0.5, 0.1 + d)
        ratios.append(m4 / d)
    assert ratios[0] > ratios[1] > ratios[2]


def test_weighted_moment_limits_match_effective_coefficients(skew_problem):
    # transition-law limits: the f-weighted first-moment quotient tends to
    # the drift pairing plus the Dirac weight at the membrane, the second
    # to the diffusion pairing (skew case: drift 0, Dirac weight 1/2, b = 1)
    from memdiff._quadrature import panel_rule
    op = SemigroupOperator(skew_problem)
    s, dt = 0.1, 0.01
    f = InitialFunction("polynomial-clamped", [0.0, 0.8, 2.0, 1.0])
    # extra panel edges around the membrane resolve the sqrt(dt)-wide
    # moment concentration zone
    edges = np.unique(np.concatenate([np.linspace(-2.0, 2.0, 11),
                                      np.linspace(-0.4, 0.4, 9)]))
    x, w = panel_rule(edges, 6)
    m1 = np.empty_like(x)
    m2 = np.empty_like(x)
    for idx, xi in enumerate(x):
        m1[idx], m2[idx], _ = transition_moments(op, s, float(xi), s + dt)
    lhs1 = float(np.sum(f(x) * m1 / dt * w))
    lhs2 = float(np.sum(f(x) * m2 / dt * w))
    a0 = EffectiveCoefficients(skew_problem).dirac_drift(s)
    assert a0 == pytest.approx(0.5)
    want1 = a0 * float(f(0.0))
    want2 = float(np.sum(f(x) * 1.0 * w))  # b = 1 paired with f
    assert lhs1 == pytest.approx(want1, rel=0.1)
    assert lhs2 == pytest.approx(want2, rel=0.1)


def test_continuity_in_initial_data(skew_problem, gaussian_phi):
    # bounded pointwise-convergent tabulated sequence: images converge too
    op = SemigroupOperator(skew_problem)
    xs = np.linspace(-8, 8, 321)
    base = op.apply(0.0, 1.0, gaussian_phi)(X_GRID)
    errs = []
    for n in (1, 4, 16):
        bump = np.exp(-xs ** 2) / n
        phi_n = InitialFunction.from_samples(xs, gaussian_phi(xs) + bump)
        vals = op.apply(0.0, 1.0, phi_n)(X_GRID)
        errs.append(float(np.max(np.abs(vals - base))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.1


def test_variable_coefficient_side_conserves_mass():
    # one genuinely variable diffusion side, coarse resolution: the full
    # solve runs through the correction machinery end to end
    from memdiff.parametrix import CorrectionQuadrature
    from memdiff.problem import (CoefficientField, MembranePath, Problem,
                                 SideSpec, TimeFunction, WentzellData)
    left = SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x",
                                     [1.0, 0.2, 1.0, 0.0, 0.0]))
    right = SideSpec(CoefficientField.constant(0.0), CoefficientField.constant(1.0))
    prob = Problem(left=left, right=right, membrane=MembranePath.constant(0.0),
                   wentzell=WentzellData(TimeFunction.constant(0.5),
                                         TimeFunction.constant(0.5)),
                   horizon=1.0)
    op = SemigroupOperator(
        prob,
        solver=SolverConfig(mesh_n=10, n_kernel=6, n_holmgren=10),
        correction_quad=CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6,
                                             n_space=6, depth=4))
    vals = op.apply(0.0, 0.4, InitialFunction.one())(np.array([-0.8, 0.0, 0.9]))
    assert np.max(np.abs(vals - 1.0)) < 5e-3


def test_field_takes_one_layer_pass_per_side(monkeypatch):
    # the membrane points ride along with each side's points: one layer
    # call per side, and the values of one field call per group, bit for
    # bit, on a variable side too
    def operator():
        return SemigroupOperator(variable_problem(),
                                 solver=SolverConfig(mesh_n=10, n_kernel=6, n_holmgren=10),
                                 correction_quad=VAR_CORRECTION)

    phi, s, t = InitialFunction.gaussian(1.0, 0.3, 0.6), 0.0, 0.4
    x = np.array([-0.4, 0.0, 0.5])
    ref = operator()
    ev, dens = ref.evaluator, ref.densities(s, t, phi)
    want = np.array([ev.field(1, s, x[:1], t, phi, dens)[0],
                     0.5 * (ev.field(1, s, x[1:2], t, phi, dens)[0]
                            + ev.field(2, s, x[1:2], t, phi, dens)[0]),
                     ev.field(2, s, x[2:], t, phi, dens)[0]])
    field = operator().apply(s, t, phi)
    layer, sides = PotentialEvaluator.layer, []

    def counted(self, i, *args):
        sides.append(i)
        return layer(self, i, *args)

    monkeypatch.setattr(PotentialEvaluator, "layer", counted)
    got = field(x)
    assert sides == [1, 2]
    assert np.array_equal(got, want)


def test_density_memo_reuse(skew_problem, gaussian_phi):
    op = SemigroupOperator(skew_problem)
    d1 = op.densities(0.2, 1.0, gaussian_phi)
    d2 = op.densities(0.5, 1.0, gaussian_phi)
    assert d1 is d2  # memo covers the later start
    d3 = op.densities(0.1, 1.0, gaussian_phi)
    assert d3 is not d2
    assert d3.s_min <= 0.1 + 1e-12


def test_density_memo_keeps_its_first_solve(skew_problem, gaussian_phi):
    # an earlier start gets a solve of its own, which replaces nothing
    op = SemigroupOperator(skew_problem)
    late = op.densities(0.5, 1.0, gaussian_phi)
    early = op.densities(0.1, 1.0, gaussian_phi)
    assert early is not late and early.s_min <= 0.1 + 1e-12
    assert op.densities(0.5, 1.0, gaussian_phi) is late


def test_caches_are_keyed_by_initial_function_value():
    # two equal-valued initial functions share one density solve and one
    # Poisson correction table; a different parameter gets its own
    from memdiff.parametrix import CorrectionQuadrature
    from memdiff.problem import CoefficientField, SideSpec
    variable = SideSpec(CoefficientField.constant(0.0),
                        CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.2, 1.0, 0.0, 0.0]))
    prob = replace(make_problem(q1=0.25, q2=0.75), left=variable)
    op = SemigroupOperator(
        prob, solver=SolverConfig(mesh_n=10, n_kernel=6, n_holmgren=10),
        correction_quad=CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6,
                                             n_space=6, depth=4))
    tables = op.evaluator.fs[1].correction._tables

    def poisson_tables():
        return sum(1 for kind, *_ in tables if kind == "final")

    first = op.densities(0.0, 0.4, InitialFunction.gaussian(1.0, 0.3, 0.6))
    equal = InitialFunction.gaussian(1.0, 0.3, 0.6)
    assert op.densities(0.0, 0.4, equal) is first
    op.evaluator.poisson(1, 0.1, np.array([-0.5, -0.2]), 0.4, equal)
    assert poisson_tables() == 1
    other = InitialFunction.gaussian(1.0, 0.3, 0.5)
    assert op.densities(0.0, 0.4, other) is not first
    assert poisson_tables() == 2
