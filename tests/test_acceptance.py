"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line.  Tolerances
are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from memdiff.boundary_system import SolverConfig, first_kind_residual, solve_densities
from memdiff.errors import SeriesDivergenceError
from memdiff.mc_oracle import SimConfig, SkewParams, compare, simulate, skew_action
from memdiff.parametrix import CorrectionQuadrature, FundamentalSolution, moment_residuals
from memdiff.problem import CoefficientField, InitialFunction, MembranePath, SideSpec
from memdiff.semigroup import SemigroupOperator

from conftest import make_problem, atom_at
from semigroup_oracle import EffectiveCoefficients

GRID = np.linspace(-2.0, 2.0, 41)
PHI = InitialFunction.gaussian(amp=1.0, center=0.3, width=0.6)


def report(num, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{flag}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def heat_solution(phi, d, x):
    amp, c, w = phi.params
    var = w * w + d
    return amp * w / math.sqrt(var) * np.exp(-((x - c) ** 2) / (2 * var))


@pytest.fixture(scope="module")
def heat_op():
    return SemigroupOperator(make_problem())


@pytest.fixture(scope="module")
def skew_op():
    return SemigroupOperator(make_problem(q1=0.25, q2=0.75))


@pytest.fixture(scope="module")
def skew_moving_op():
    return SemigroupOperator(make_problem(
        q1=0.25, q2=0.75, membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0])))


@pytest.fixture(scope="module")
def atom_op():
    return SemigroupOperator(make_problem(atoms=(atom_at(-1.0), atom_at(1.0))))


@pytest.fixture(scope="module")
def two_scale_op():
    return SemigroupOperator(make_problem(b1=1.0, b2=4.0))


def test_criterion_1_heat_kernel_recovery(heat_op):
    start = time.perf_counter()
    field = heat_op.apply(0.0, 1.0, PHI)
    sup = float(np.max(np.abs(field(GRID) - heat_solution(PHI, 1.0, GRID))))
    elapsed = time.perf_counter() - start
    report(1, "heat-kernel recovery", sup <= 1e-3 and elapsed <= 60.0,
           f"sup error {sup:.2e} (tol 1e-3), runtime {elapsed:.1f}s (cap 60s)")


def test_criterion_2_skew_recovery(skew_op):
    field = skew_op.apply(0.0, 1.0, PHI)
    params = SkewParams(alpha=0.75, sigma=1.0)
    oracle = np.array([skew_action(params, 1.0, float(x), PHI) for x in GRID])
    sup = float(np.max(np.abs(field(GRID) - oracle)))
    ok_sup = sup <= 1e-2

    config = SimConfig(paths=100_000, dt=1e-3, seed=29)
    zs = []
    for x0 in (0.0, 0.5):
        res = simulate(skew_op.problem, 0.0, x0, 1.0, PHI, config)
        zs.append(compare(float(field(x0)), res.mean, res.stderr).z_score)
    ok_mc = all(z <= 3.0 for z in zs)
    report(2, "skew-BM recovery", ok_sup and ok_mc,
           f"sup error {sup:.2e} (tol 1e-2), MC z-scores "
           + ", ".join(f"{z:.2f}" for z in zs) + " (cap 3)")


def test_criterion_3_conservation(heat_op, skew_moving_op, two_scale_op):
    one = InitialFunction.one()
    cases = [("symmetric", heat_op, 0.0, 1.0),
             ("two-scale", two_scale_op, 0.25, 1.25),
             ("moving-membrane", skew_moving_op, 0.1, 0.9)]
    worst = 0.0
    for name, op, s, t in cases:
        dev = float(np.max(np.abs(op.apply(s, t, one)(GRID) - 1.0)))
        worst = max(worst, dev)
    report(3, "conservation", worst <= 1e-3,
           f"max deviation {worst:.2e} over {len(cases)} cases (tol 1e-3)")


def test_criterion_4_chapman_kolmogorov(heat_op, skew_moving_op):
    gaps = {
        "trivial-factor": heat_op.chapman_kolmogorov_gap(0.0, 1.0, 1.0, PHI, GRID),
        "heat-midpoint": heat_op.chapman_kolmogorov_gap(0.0, 0.5, 1.0, PHI, GRID),
        "skew-moving": skew_moving_op.chapman_kolmogorov_gap(0.0, 0.5, 1.0, PHI,
                                                             GRID),
    }
    worst = max(gaps.values())
    report(4, "chapman-kolmogorov", worst <= 5e-3,
           "; ".join(f"{k} {v:.2e}" for k, v in gaps.items()) + " (tol 5e-3)")


def test_criterion_5_positivity_contraction(heat_op, skew_op, skew_moving_op,
                                            atom_op, two_scale_op):
    worst_min, worst_sup = 0.0, 0.0
    for op in (heat_op, skew_op, skew_moving_op, atom_op, two_scale_op):
        mn, sup = op.positivity_contraction(0.0, 1.0, PHI, GRID)
        worst_min = min(worst_min, mn)
        worst_sup = max(worst_sup, sup)
    ok = worst_min >= -1e-4 * PHI.sup_norm \
        and worst_sup <= PHI.sup_norm * (1 + 1e-3)
    report(5, "positivity and contraction", ok,
           f"min {worst_min:.2e} (floor -1e-4), sup {worst_sup:.6f} "
           f"(cap {PHI.sup_norm * (1 + 1e-3):.6f})")


def test_criterion_6_conjugation_residuals(skew_op, skew_moving_op, atom_op,
                                           two_scale_op):
    worst_b1, worst_b2 = 0.0, 0.0
    for op in (skew_op, skew_moving_op, atom_op, two_scale_op):
        dens = op.densities(0.0, 1.0, PHI)
        for s in dens.mesh[::8]:
            b1, b2 = op.conjugation_residuals(float(s), 1.0, PHI)
            worst_b1 = max(worst_b1, abs(b1))
            worst_b2 = max(worst_b2, abs(b2))
    ok = worst_b1 <= 1e-3 * PHI.sup_norm and worst_b2 <= 5e-3 * PHI.sup_norm
    report(6, "conjugation residuals", ok,
           f"max continuity {worst_b1:.2e} (tol 1e-3), "
           f"max flux {worst_b2:.2e} (tol 5e-3)")


def test_criterion_7_jump_formula(skew_moving_op):
    op = skew_moving_op
    ev = op.evaluator
    dens = op.densities(0.0, 1.0, PHI)
    s, t = 0.3, 1.0
    h = float(op.problem.h(s))
    eps = 1e-3
    worst = 0.0
    for i in (1, 2):
        left, right = ev.conormal_jump(i, s, t, dens)
        u0 = ev.layer(i, s, h, t, dens)
        fd_left = (u0 - ev.layer(i, s, h - eps, t, dens)) / eps
        fd_right = (ev.layer(i, s, h + eps, t, dens) - u0) / eps
        scale = max(abs(left), abs(right), 1e-6)
        worst = max(worst, abs(left - fd_left) / scale,
                    abs(right - fd_right) / scale)
    report(7, "conormal jump formula", worst <= 2e-2,
           f"max relative error vs finite differences {worst:.2e} (tol 2e-2)")


def test_criterion_8_moment_identities():
    side = SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x",
                                     [1.0, 0.25, 1.0, 0.0, 0.0]),
                    holder_exponent=0.75)
    fs = FundamentalSolution(side)
    res = moment_residuals(fs, 0.0, 0.0, 0.5)
    fs_fine = FundamentalSolution(side, CorrectionQuadrature().refined(2))
    res_fine = moment_residuals(fs_fine, 0.0, 0.0, 0.5)
    ok = max(res) <= 1e-3 and max(res_fine) <= 0.5 * max(res)
    report(8, "moment identities", ok,
           f"residuals {tuple(f'{r:.1e}' for r in res)} (tol 1e-3), refined "
           f"{tuple(f'{r:.1e}' for r in res_fine)} (halving: "
           f"{max(res_fine) / max(res):.2f}x)")


def test_criterion_9_weak_generator(skew_op):
    f = InitialFunction("polynomial-clamped", [0.0, 0.8, 2.0, 1.0])
    results = []
    for name, op in (("skew", skew_op),
                     ("single-atom",
                      SemigroupOperator(make_problem(q1=0.25, q2=0.75,
                                                     atoms=(atom_at(0.7),))))):
        lhs, rhs = op.weak_generator_pairing(0.1, PHI, f, [0.04, 0.02, 0.01])
        errs = [abs(v - rhs) for v in lhs]
        mono = errs[0] >= errs[1] >= errs[2]
        close = errs[2] <= 5e-2 * (abs(rhs) + 1)
        results.append((name, mono and close, errs[2]))
    a0 = EffectiveCoefficients(make_problem(q1=0.0, q2=1.0)).dirac_drift(0.2)
    exact = abs(a0 - 1.0) < 1e-14
    ok = all(r[1] for r in results) and exact
    report(9, "weak generator", ok,
           "; ".join(f"{n}: err(0.01)={e:.2e}" for n, p, e in results)
           + f"; dirac drift spot check {a0!r}")


def test_criterion_10_first_kind_residual(skew_op, skew_moving_op, atom_op,
                                          two_scale_op):
    worst = 0.0
    for op in (skew_op, skew_moving_op, atom_op, two_scale_op):
        dens = op.densities(0.0, 1.0, PHI)
        resid = first_kind_residual(op.problem, PHI, 1.0, dens, op.evaluator)
        worst = max(worst, float(np.max(np.abs(resid))))
    report(10, "first-kind residual", worst <= 1e-3 * PHI.sup_norm,
           f"max over meshes {worst:.2e} (tol 1e-3)")


def test_criterion_11_series_contraction(skew_moving_op, atom_op):
    ok = True
    details = []
    for name, op in (("skew-moving", skew_moving_op), ("atoms", atom_op)):
        sups = op.densities(0.0, 1.0, PHI).diagnostics.iterate_sups
        k0 = min(10, len(sups) - 1)
        tail = sups[k0:]
        geometric = all(b <= max(0.9 * a, 1e-30) for a, b in zip(tail, tail[1:]))
        ok = ok and geometric
        details.append(f"{name}: {len(sups)} iterates, final {sups[-1]:.1e}")
    # divergence must raise, not return data
    heavy = make_problem(q1=0.05, q2=0.05, atoms=(atom_at(0.05, 80.0),))
    raised = False
    try:
        solve_densities(heavy, PHI, 1.0, config=SolverConfig(k_max=40))
    except SeriesDivergenceError as exc:
        raised = "m_delta" in str(exc)
    report(11, "series contraction", ok and raised,
           "; ".join(details) + f"; divergence raises: {raised}")
