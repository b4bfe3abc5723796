"""Interface-system tests: transforms, kernels, and the density solve."""

import math
import re

import numpy as np
import pytest

from memdiff import boundary_system
from memdiff._quadrature import panel_rule, singular_rule
from memdiff.boundary_system import (
    KernelAssembler,
    RightHandSide,
    SolverConfig,
    eliminate,
    first_kind_residual,
    flux_condition,
    holmgren_nodes,
    holmgren_transform,
    m_delta_witness,
    solve_densities,
)
from memdiff.errors import SeriesDivergenceError, SingularIntegrandError, TimeOrderError
from memdiff.potentials import PotentialEvaluator, graded_mesh, kernel_time_rule
from memdiff.problem import (
    CoefficientField,
    InitialFunction,
    MembranePath,
    Problem,
    SideSpec,
    TimeFunction,
    WentzellData,
)

from conftest import VAR_CORRECTION, atom_at, make_problem, variable_problem
from kernel_oracle import ScalarKernels, exact_densities, scalar_holmgren_transform

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


def _jump_at_zero(r):
    return np.where(r > 0.0, 1.0, 0.0)


def test_holmgren_rejects_nondecaying_increment():
    with pytest.raises(SingularIntegrandError):
        holmgren_transform(_jump_at_zero, 0.0, 1.0)


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


def _moving_membrane_drop(r, t):
    # the heat kernel's drop below its peak along h(s) = 0.1 sin 2s,
    # anchored at (t, h(t)): a moving-membrane Gaussian trace
    var = t - r
    z = 0.1 * (np.sin(2.0 * r) - np.sin(2.0 * t))
    return np.expm1(-z * z / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)


HOLMGREN_INTEGRANDS = {
    "oscillating": lambda r, t: np.cos(3.0 * r) * (2.0 - r),
    "decaying": lambda r, t: np.exp(-r) * (1.0 + r * r),
    "moving-membrane-trace": _moving_membrane_drop,
}


@pytest.mark.parametrize("left_exp", [-0.5, -0.7, -0.2])
@pytest.mark.parametrize("n", [8, 16, 24])
@pytest.mark.parametrize("name", list(HOLMGREN_INTEGRANDS))
def test_holmgren_unit_functional_matches_the_product_rule(name, n, left_exp):
    # the cached rule on (0, 1) against the product rule built on each
    # (s, t): equal in exact arithmetic, so only rounding may differ
    trace = HOLMGREN_INTEGRANDS[name]
    s = np.array([[0.0], [0.3], [0.55]])
    t = np.array([0.6, 0.9, 1.4])
    got = holmgren_transform(lambda r: trace(r, t[:, None]), s, t, n=n, left_exp=left_exp)
    want = np.array([[scalar_holmgren_transform(lambda r: trace(r, tm), float(sk), float(tm),
                                                n=n, left_exp=left_exp) for tm in t]
                     for sk in s[:, 0]])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_holmgren_rule_is_built_once_per_order_and_exponent(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return singular_rule(*args, **kwargs)

    monkeypatch.setattr(boundary_system, "singular_rule", counted)
    boundary_system._unit_holmgren.cache_clear()
    holmgren_transform(np.cos, 0.1, 0.9, n=11, left_exp=-0.6)
    assert len(calls) == 2  # the two halves of the rule on (0, 1)
    holmgren_transform(np.cos, np.array([[0.0], [0.3]]), np.array([0.5, 1.4]), n=11,
                       left_exp=-0.6)
    assert len(calls) == 2


def test_holmgren_checks_every_element():
    ok = holmgren_transform(lambda r: np.ones_like(r), [0.0, 0.0], 1.0)
    assert np.allclose(ok, -SQ2PI)
    # the jump sits inside (-0.5, 1) but at the left end of (0, 1)
    with pytest.raises(SingularIntegrandError):
        holmgren_transform(_jump_at_zero, [-0.5, 0.0], 1.0)


def _components(r):
    return [np.cos(3.0 * r) * (2.0 - r), np.exp(-r), 1.0 - r * r]


def test_holmgren_of_stacked_components_is_bitwise_per_component():
    s = np.array([[0.0], [0.3]])
    t = np.array([0.5, 0.9, 1.4])
    got = holmgren_transform(lambda r: np.stack(_components(r)), s, t, n=16)
    assert got.shape == (3, 2, 3)
    for k in range(3):
        want = holmgren_transform(lambda r: _components(r)[k], s, t, n=16)
        assert np.array_equal(got[k], want)


def test_holmgren_of_stacked_components_checks_every_component():
    smooth = lambda r: np.cos(3.0 * r)  # noqa: E731
    holmgren_transform(lambda r: np.stack([smooth(r), smooth(r)]), [0.0, 0.2], 1.0)
    with pytest.raises(SingularIntegrandError):
        holmgren_transform(lambda r: np.stack([smooth(r), _jump_at_zero(r)]), [0.0, 0.2], 1.0)


def test_holmgren_time_order():
    with pytest.raises(TimeOrderError):
        holmgren_transform(lambda r: np.zeros_like(r), 1.0, 0.5)


# -- right-hand side -------------------------------------------------------------

def trace_gap(rhs, s):
    """Difference of the Poisson traces on the membrane (right minus left)."""
    s = np.asarray(s, dtype=float)
    ev = rhs.assembler.evaluator
    h = rhs.assembler.problem.h(s)
    return ev.poisson(2, s, h, rhs.t, rhs.phi) - ev.poisson(1, s, h, rhs.t, rhs.phi)


def test_trace_gap_identical_sides(symmetric_problem, gaussian_phi):
    asm = KernelAssembler(symmetric_problem)
    rhs = RightHandSide(asm, gaussian_phi, 1.0)
    for s in (0.1, 0.5, 0.9):
        assert trace_gap(rhs, s) == 0.0


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
        assert trace_gap(rhs, s) == pytest.approx(want, abs=1e-10)


def test_trace_gap_vanishes_at_terminal_time(two_scale_problem):
    phi = InitialFunction.gaussian(amp=1.0, center=0.0, width=1.0)
    rhs = RightHandSide(KernelAssembler(two_scale_problem), phi, 1.0)
    assert abs(trace_gap(rhs, 1.0 - 1e-5)) < 2e-2


def _numeric_transformed_trace_gap(rhs, s, n):
    t = rhs.t
    return holmgren_transform(lambda rho: trace_gap(rhs, np.minimum(rho, t - 1e-14)), s, t,
                              n=n, left_exp=rhs.assembler.problem.kernel_time_exponent())


# (problem, t, mesh_n, n_holmgren, bound): two exact sides on a flat
# membrane take the closed form on both, measured 9.6e-13 of the maximum at
# n_holmgren 24 and 8.1e-13 at 48; the varcoef problem (a variable left side
# next to an exact right one) takes it on the right only, measured 6.2e-12,
# 4.9e-12 and 1.7e-11 at n_holmgren 10, 24 and 48.  Each bound leaves a
# margin of about 5 over the worst of its problem
TRANSFORM_CASES = {
    "24": ("two-scale", 1.0, 64, 24, 5e-12),
    "48": ("two-scale", 1.0, 64, 48, 5e-12),
    "varcoef-10": ("varcoef", 0.4, 16, 10, 1e-10),
    "varcoef-24": ("varcoef", 0.4, 16, 24, 1e-10),
    "varcoef-48": ("varcoef", 0.4, 16, 48, 1e-10),
}


@pytest.mark.parametrize("case", list(TRANSFORM_CASES))
def test_closed_form_transform_matches_numeric_transform(two_scale_problem, gaussian_phi,
                                                         case):
    # the per-side routes of E[P_2 - P_1] against the numeric transform of
    # the whole trace gap at every node of the mesh
    name, t, mesh_n, n_holmgren, bound = TRANSFORM_CASES[case]
    config = SolverConfig(mesh_n=mesh_n, n_holmgren=n_holmgren)
    if name == "two-scale":
        asm = KernelAssembler(two_scale_problem, config=config)
    else:
        prob = variable_problem()
        asm = KernelAssembler(prob, PotentialEvaluator(prob, VAR_CORRECTION), config)
    rhs = RightHandSide(asm, gaussian_phi, t)
    mesh = graded_mesh(t, 0.0, mesh_n)
    got = rhs.transformed_trace_gap(mesh)
    want = _numeric_transformed_trace_gap(rhs, mesh, n_holmgren)
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def test_closed_form_transform_of_a_sharp_datum(two_scale_problem):
    # -sqrt(b_j) integral of dZ0_j/dx(s, 0; t, y) sign(y) phi(y) dy on 4000
    # Gauss panels per window against the library's 16-node window panels:
    # measured 4.3e-5 of the maximum, where the numeric transform of the
    # trace gap is 8.9e-4 off
    phi = InitialFunction("indicator-smoothed", [-0.5, 0.2, 0.1])
    t = 1.0
    rhs = RightHandSide(KernelAssembler(two_scale_problem), phi, t)
    mesh = graded_mesh(t, 0.0, 64)
    want = np.zeros_like(mesh)
    for j, b in ((1, 1.0), (2, 4.0)):
        for k, s in enumerate(mesh):
            var = b * (t - s)
            edges = 8.0 * math.sqrt(var) * np.linspace(-1.0, 1.0, 4001)
            y, wy = panel_rule(edges, 8)
            dz0 = np.exp(-y * y / (2.0 * var)) / math.sqrt(2.0 * math.pi * var) * y / var
            want[k] += (-1.0) ** (j + 1) * math.sqrt(b) * np.sum(wy * dz0 * np.sign(y) * phi(y))
    got = rhs.transformed_trace_gap(mesh)
    assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))


def _count_holmgren_calls(monkeypatch):
    """One entry per holmgren_transform call of boundary_system: the
    (leading-axis, trailing-axis) lengths of the traces of each f call."""
    calls = []

    def counted(f, *args, **kwargs):
        shapes = []
        calls.append(shapes)

        def traced(rho):
            out = f(rho)
            shapes.append((np.shape(out)[0], np.shape(out)[-1]))
            return out
        return holmgren_transform(traced, *args, **kwargs)

    monkeypatch.setattr(boundary_system, "holmgren_transform", counted)
    return calls


def test_two_scale_solve_takes_the_closed_form(monkeypatch, two_scale_problem, gaussian_phi):
    calls = _count_holmgren_calls(monkeypatch)
    solve_densities(two_scale_problem, gaussian_phi, 1.0)
    assert not calls


def test_moving_membrane_solve_transforms_numerically(monkeypatch, moving_membrane_problem,
                                                      gaussian_phi):
    # identical sides: no trace gap, and one transform of the continuity
    # kernel, over the one-pass kernel array, of side 1's trace alone, in
    # three trace calls: f(s) with its two decay probes, then each half of
    # the rule
    calls = _count_holmgren_calls(monkeypatch)
    solve_densities(moving_membrane_problem, gaussian_phi, 1.0)
    n = SolverConfig().n_holmgren
    assert calls == [[(1, 3), (1, n), (1, n)]]


def _stacked_route_kernel(asm, s, tau):
    """system_kernel_matrix with both sides' continuity traces taken as
    on_anchors - principal and transformed stacked, in one
    holmgren_transform call, for a problem whose sides both need it."""
    prob, fs = asm.problem, asm.evaluator.fs
    s, tau = np.broadcast_arrays(s, tau)
    h_s = np.broadcast_to(prob.h(s), s.shape)
    tau_col, h_col = tau[..., None], np.broadcast_to(prob.h(tau), s.shape)[..., None]

    def g(j, x, p=0):
        return fs[j].on_anchors(s[..., None], x[..., None], tau_col, h_col, p)[..., 0]

    flux = np.stack([flux_condition(prob, j, s, h_s, g(j, h_s, p=1), lambda x: g(j, x))
                     for j in (1, 2)])

    def traces(rho):
        h_rho = prob.h(rho)
        return np.stack([fs[j].on_anchors(rho, h_rho, tau_col, h_col)
                         - fs[j].principal(rho, h_col, tau_col, h_col) for j in (1, 2)])

    e = holmgren_transform(traces, s, tau, n=asm.config.n_holmgren,
                           left_exp=prob.kernel_time_exponent())
    return eliminate(prob, s, h_s, flux, np.stack([-e[0], e[1]]))


def variable_sides_problem(right_alpha=0.75):
    """b = 1 + 0.25 sin x on both sides, q = 0.25 / 0.75, on the moving
    membrane h(s) = 0.1 sin 2s; the right side's holder_exponent given."""
    b = CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.25, 1.0, 0.0, 0.0])
    zero = CoefficientField.constant(0.0)
    return Problem(left=SideSpec(zero, b), right=SideSpec(zero, b, holder_exponent=right_alpha),
                   membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0]),
                   wentzell=WentzellData(TimeFunction.constant(0.25), TimeFunction.constant(0.75)),
                   horizon=1.0)


# the varcoef-solve benchmark quadrature at mesh_n 8
VARIABLE_SOLVER = SolverConfig(mesh_n=8, n_kernel=6, n_holmgren=10)
# name: (problem, t, solver config, correction quadrature, traces transformed)
DISTINCT_TRACE_CASES = {
    "skew-moving": (make_problem(q1=0.25, q2=0.75,
                                 membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0])),
                    1.0, SolverConfig(), None, 1),
    "two-scale-moving": (make_problem(b1=1.0, b2=4.0,
                                      membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0])),
                         1.0, SolverConfig(), None, 2),
    "variable-sides": (variable_sides_problem(), 0.5, VARIABLE_SOLVER, VAR_CORRECTION, 1),
    "variable-sides-two-alphas": (variable_sides_problem(0.6), 0.5, VARIABLE_SOLVER,
                                  VAR_CORRECTION, 2),
}


@pytest.mark.parametrize("name", list(DISTINCT_TRACE_CASES))
def test_kernels_transform_each_distinct_trace_bitwise(monkeypatch, name):
    # the kernels of a solve's first stage, on its mesh and tau nodes, each
    # route in a fresh evaluator: bitwise those of the stacked per-side route
    prob, t, config, correction, transformed = DISTINCT_TRACE_CASES[name]
    mesh = graded_mesh(t, 0.0, config.mesh_n)
    tau, _ = kernel_time_rule(prob, mesh, t, config.n_kernel)
    want = _stacked_route_kernel(
        KernelAssembler(prob, PotentialEvaluator(prob, correction), config), mesh[:, None], tau)
    calls = _count_holmgren_calls(monkeypatch)
    got = KernelAssembler(prob, PotentialEvaluator(prob, correction),
                          config).system_kernel_matrix(mesh[:, None], tau)
    assert [{lead for lead, _ in call} for call in calls] == [{transformed}]
    assert np.array_equal(got, want)


def test_one_generator_with_two_alphas_has_no_trace_gap(monkeypatch):
    # one generator: the Poisson traces are equal whatever the alpha, so the
    # transformed trace gap is zero and transforms nothing, while the kernel
    # traces, whose correction tables depend on alpha, are both transformed
    prob, t, config, correction, _ = DISTINCT_TRACE_CASES["variable-sides-two-alphas"]
    asm = KernelAssembler(prob, PotentialEvaluator(prob, correction), config)
    mesh = graded_mesh(t, 0.0, config.mesh_n)
    calls = _count_holmgren_calls(monkeypatch)
    rhs = RightHandSide(asm, InitialFunction.gaussian(1.0, 0.3, 0.6), t)
    gap = rhs.transformed_trace_gap(mesh)
    assert np.array_equal(gap, np.zeros_like(mesh))
    assert not calls
    tau, _ = kernel_time_rule(prob, mesh, t, config.n_kernel)
    asm.system_kernel_matrix(mesh[:, None], tau)
    assert [{lead for lead, _ in call} for call in calls] == [{2}]


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
    with pytest.raises(SeriesDivergenceError,
                       match=r"no convergence within k_max=4 iterations \(spectral radius 0\.0"):
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


# -- convergence of the successive approximations --------------------------------

PHI = InitialFunction.gaussian(amp=1.0, center=0.3, width=0.6)
# the const-solve families, and heat sides with one atom of weight 6 at 0.3,
# whose iterates grow to 1.5e3 before they decay (radius 0.56)
SOLVE_FAMILIES = {
    "heat": make_problem(),
    "flat-skew": make_problem(q1=0.25, q2=0.75),
    "two-scale": make_problem(b1=1.0, b2=4.0),
    "skew-moving": make_problem(q1=0.25, q2=0.75,
                                membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0])),
    "atoms": make_problem(atoms=(atom_at(-1.0), atom_at(1.0))),
    "atom-w6": make_problem(atoms=(atom_at(0.3, 6.0),)),
}


def solve_with_operator(monkeypatch, name, t=1.0):
    """One default-settings solve of a family on PHI: its densities, its
    folded operator (None where the kernels vanish) and its first iterate W0."""
    prob, folded = SOLVE_FAMILIES[name], []
    fold = boundary_system.fold_interpolation
    monkeypatch.setattr(boundary_system, "fold_interpolation",
                        lambda *args: folded.append(fold(*args)) or folded[-1])
    dens = solve_densities(prob, PHI, t)
    w0 = RightHandSide(KernelAssembler(prob), PHI, t).combined(dens.mesh) * np.sqrt(t - dens.mesh)
    return dens, (folded or [None])[0], w0


@pytest.mark.parametrize("name", ["skew-moving", "atoms", "atom-w6", "heat", "two-scale"])
def test_spectral_radius_is_that_of_the_dense_iteration_map(monkeypatch, name):
    # the iteration map is block upper triangular, so its diagonal blocks
    # give its radius; the kernels of heat and two-scale sides vanish
    dens, operator, _ = solve_with_operator(monkeypatch, name)
    radius = dens.diagnostics.spectral_radius
    if name in ("heat", "two-scale"):
        assert operator is None and radius == 0.0
        return
    sqrt_rem = np.tile(np.sqrt(1.0 - dens.mesh), 2)
    want = np.max(np.abs(np.linalg.eigvals(sqrt_rem[:, None] * operator.toarray())))
    assert 0.0 < radius < 1.0
    assert radius == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name, bound", [(name, 1e-7) for name in sorted(SOLVE_FAMILIES)
                                         if name != "atom-w6"] + [("atom-w6", 2e-7)])
def test_iteration_reaches_the_exact_discrete_solution(monkeypatch, name, bound):
    # the iteration against the dense solve of its own system, relative to
    # sup W: measured at most 2.0e-8 on the const-solve families and
    # 4.05e-8 on the weight-6 atom, which takes 133 iterations
    dens, operator, w0 = solve_with_operator(monkeypatch, name)
    want = exact_densities(operator, dens.mesh, 1.0, w0)
    assert np.max(np.abs(np.stack([dens.w1, dens.w2]) - want)) <= bound * np.max(np.abs(want))
    if name == "atom-w6":
        assert dens.diagnostics.iterations == 133


def test_radius_at_least_one_is_refused_before_the_first_iteration():
    # criterion 11's heavy atom: with k_max = 1 the refusal still names the
    # radius, not the k_max budget, so it came before any iteration
    heavy = make_problem(q1=0.05, q2=0.05, atoms=(atom_at(0.05, 80.0),))
    with pytest.raises(SeriesDivergenceError, match="radius is at least 1") as exc:
        solve_densities(heavy, PHI, 1.0, config=SolverConfig(k_max=1))
    assert "spectral radius 30.8" in str(exc.value)
    assert "m_delta witness 62.8" in str(exc.value)


def test_lost_precision_is_refused_before_the_k_max_budget():
    # radius 0.70: the series converges in exact arithmetic, but its iterates
    # pass 4.5e7 sup|phi|, where the rounding of the running sum exceeds the
    # tolerance TOL_V sup|phi|
    prob = make_problem(q1=0.2, q2=0.2, atoms=(atom_at(0.3, 3.0),))
    with pytest.raises(SeriesDivergenceError, match="lost precision") as exc:
        solve_densities(prob, PHI, 1.0)
    assert "k_max" not in str(exc.value) and "spectral radius 0.699" in str(exc.value)


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
    # SingularIntegrandError, raised before any weight is formed (no
    # warning), by the one node mapper that the Holmgren nodes share
    with pytest.raises(SingularIntegrandError):
        singular_rule(a, b, 24, *exps)
    with pytest.raises(SingularIntegrandError):
        list(holmgren_nodes(a, b, 24, exps[0]))


def test_quadrature_rule_rebuilt_after_eviction_is_bitwise_the_first():
    # each rule cache holds RULE_CACHE rules; a rule pushed out by RULE_CACHE
    # others is rebuilt with the same bits
    from memdiff import _quadrature
    for rule, key, others in (
            (_quadrature.reference_rule, (5, 0.0, 0.0), [(n, 0.0, 0.0) for n in range(6, 200)]),
            (_quadrature.reference_rule, (6, -0.5, -0.375),
             [(2, 0.0, 0.5 * k / _quadrature.RULE_CACHE - 0.75) for k in range(200)]),
            (_quadrature.unit_window, (3,), [(n,) for n in range(4, 200)]),
            (boundary_system._unit_holmgren, (11, -0.6), [(n, -0.6) for n in range(12, 200)])):
        assert rule.cache_info().maxsize == _quadrature.RULE_CACHE
        first = rule(*key)
        kept = np.array(first)
        for other in others[:_quadrature.RULE_CACHE]:
            rule(*other)
        again = rule(*key)
        assert again[0] is not first[0]
        assert np.array(again).tobytes() == kept.tobytes()
