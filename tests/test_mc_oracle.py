"""Skew-density closed form and particle-simulation cross-checks."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import simulate_reference
from closed_forms import two_scale_density
from conftest import atom_at, make_problem
from memdiff import mc_oracle
from memdiff._quadrature import panel_rule
from memdiff.errors import StepTooLargeError
from memdiff.mc_oracle import (
    TOUCH_CUT,
    SimConfig,
    SkewParams,
    _block_generator,
    compare,
    simulate,
    skew_action,
    skew_density,
)
from memdiff.problem import (
    CoefficientField,
    InitialFunction,
    MembranePath,
    Problem,
    TimeFunction,
    WentzellData,
)
from memdiff.semigroup import SemigroupOperator
from simulate_reference import reference_simulate


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def gauss(z, var):
    return np.exp(-z * z / (2 * var)) / math.sqrt(2 * math.pi * var)


def test_density_no_skew_is_gaussian():
    params = SkewParams(alpha=0.5, sigma=1.0)
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, y = rng.normal(size=2)
        dt = rng.uniform(0.05, 2.0)
        assert skew_density(params, dt, x, y) == pytest.approx(
            gauss(y - x, dt), rel=1e-12)


def test_density_full_reflection_limit():
    params = SkewParams(alpha=1 - 1e-12, sigma=1.0)
    # from x > 0, essentially no mass below the membrane, doubled image above
    assert skew_density(params, 0.5, 1.0, -0.5) == pytest.approx(0.0, abs=1e-10)
    want = gauss(0.2, 0.5) + gauss(2.2, 0.5)
    assert skew_density(params, 0.5, 1.0, 1.2) == pytest.approx(want, rel=1e-9)


def test_density_started_on_membrane():
    params = SkewParams(alpha=0.75, sigma=1.0)
    dt = 0.3
    assert skew_density(params, dt, 0.0, 0.4) == pytest.approx(
        2 * 0.75 * gauss(0.4, dt), rel=1e-12)
    assert skew_density(params, dt, 0.0, -0.4) == pytest.approx(
        2 * 0.25 * gauss(0.4, dt), rel=1e-12)


def test_density_normalization():
    rng = np.random.default_rng(1)
    for _ in range(10):
        alpha = rng.uniform(0.05, 0.95)
        dt = rng.uniform(0.05, 1.5)
        sigma = rng.uniform(0.5, 2.0)
        x = rng.normal()
        params = SkewParams(alpha, sigma)
        width = abs(x) + 12 * sigma * math.sqrt(dt)
        edges = np.concatenate([np.linspace(-width, 0, 60),
                                np.linspace(0, width, 60)[1:]])
        y, w = panel_rule(edges, 16)
        total = float(np.sum(skew_density(params, dt, x, y) * w))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_skew_action_matches_heat_for_even_data():
    params = SkewParams(alpha=0.75, sigma=1.0)
    phi = InitialFunction.gaussian(amp=1.0, center=0.0, width=0.8)
    d = 0.7
    var = 0.64 + d
    want = 0.8 / math.sqrt(var)  # value at x = 0 of the heat evolution
    assert skew_action(params, d, 0.0, phi) == pytest.approx(want, rel=1e-9)


def two_scale_action(problem, t, x, phi):
    """integral of phi(y) two_scale_density(t, x, y) dy by 24-point panels."""
    edges = np.concatenate([np.linspace(-12.0, 0.0, 40), np.linspace(0.0, 12.0, 40)[1:]])
    y, w = panel_rule(edges, 24)
    return float(np.sum(phi(y) * two_scale_density(problem, t, x, y) * w))


@pytest.mark.parametrize("b2, q1, q2, t, center, width", [
    (4.0, 0.5, 0.5, 1.25, 0.0, 0.4),    # phi centred on the membrane
    (4.0, 0.25, 0.75, 0.6, 0.0, 0.6),   # on the membrane, asymmetric q
    (2.5, 0.3, 0.7, 0.8, 0.3, 0.6),
    (0.5, 0.6, 0.4, 0.5, -0.4, 0.5),    # the faster side on the left
])
def test_two_scale_closed_form_matches_solver(b2, q1, q2, t, center, width):
    problem = make_problem(b1=1.0, b2=b2, q1=q1, q2=q2)
    phi = InitialFunction.gaussian(1.0, center, width)
    xs = np.linspace(-1.5, 1.5, 7)
    field = SemigroupOperator(problem).apply(0.0, t, phi)(xs)
    want = [two_scale_action(problem, t, float(x), phi) for x in xs]
    assert np.max(np.abs(field - want)) <= 1e-3


def test_two_scale_density_with_equal_scales_is_skew():
    problem = make_problem(b1=2.0, b2=2.0, q1=0.3, q2=0.7)
    params = SkewParams(alpha=0.7, sigma=math.sqrt(2.0))
    y = np.linspace(-3.0, 3.0, 41)
    for x in (-0.7, 0.0, 0.4):
        np.testing.assert_allclose(two_scale_density(problem, 0.6, x, y),
                                   skew_density(params, 0.6, x, y), rtol=0, atol=1e-15)


def test_two_scale_density_shifts_with_the_membrane():
    flat = make_problem(b1=1.0, b2=4.0, q1=0.3, q2=0.7)
    shifted = make_problem(b1=1.0, b2=4.0, q1=0.3, q2=0.7,
                           membrane=MembranePath.constant(0.5))
    y = np.linspace(-2.0, 2.0, 9)
    np.testing.assert_allclose(two_scale_density(shifted, 0.4, 0.8, y + 0.5),
                               two_scale_density(flat, 0.4, 0.3, y), rtol=1e-14)
    with pytest.raises(ValueError):
        two_scale_density(make_problem(a1=1.0), 0.4, 0.0, y)


def test_simulation_seed_determinism(symmetric_problem, gaussian_phi):
    config = SimConfig(paths=4000, dt=5e-3, seed=42)
    r1 = simulate(symmetric_problem, 0.0, 0.2, 0.5, gaussian_phi, config)
    r2 = simulate(symmetric_problem, 0.0, 0.2, 0.5, gaussian_phi, config)
    assert r1.mean == r2.mean
    assert r1.stderr == r2.stderr
    r3 = simulate(symmetric_problem, 0.0, 0.2, 0.5, gaussian_phi,
                  SimConfig(paths=4000, dt=5e-3, seed=43))
    assert r3.mean != r1.mean


def test_simulation_matches_heat_semigroup(symmetric_problem, gaussian_phi):
    t = 0.5
    config = SimConfig(paths=30_000, dt=1e-3, seed=7)
    res = simulate(symmetric_problem, 0.0, 0.2, t, gaussian_phi, config)
    amp, c, w = gaussian_phi.params
    var = w * w + t
    want = amp * w / math.sqrt(var) * math.exp(-((0.2 - c) ** 2) / (2 * var))
    assert abs(res.mean - want) <= 3 * res.stderr


def test_simulation_skew_exit_probability(skew_problem):
    # from the membrane, the probability of ending right converges to alpha
    right = InitialFunction("indicator-smoothed", [0.0, 1e6, 1e-4])
    config = SimConfig(paths=60_000, dt=2.5e-4, seed=11)
    res = simulate(skew_problem, 0.0, 0.0, 0.25, right, config)
    assert abs(res.mean - 0.75) <= max(3 * res.stderr, 6e-3)


def test_simulation_seeds_agree(symmetric_problem, centered_phi):
    cfg_a = SimConfig(paths=20_000, dt=1e-3, seed=3)
    cfg_b = SimConfig(paths=20_000, dt=1e-3, seed=5)
    r_a = simulate(symmetric_problem, 0.0, 0.1, 0.5, centered_phi, cfg_a)
    r_b = simulate(symmetric_problem, 0.0, 0.1, 0.5, centered_phi, cfg_b)
    assert abs(r_a.mean - r_b.mean) <= 3 * (r_a.stderr + r_b.stderr)


def test_seeds_agree_in_distribution(symmetric_problem):
    # empirical distribution functions of two seeds compared at five
    # thresholds, each a proportion with binomial error bars
    cfg_a = SimConfig(paths=10_000, dt=1e-3, seed=3)
    cfg_b = SimConfig(paths=10_000, dt=1e-3, seed=5)
    for cut in (-0.6, -0.2, 0.0, 0.3, 0.8):
        ind = InitialFunction("indicator-smoothed", [-1e6, cut, 1e-4])
        r_a = simulate(symmetric_problem, 0.0, 0.1, 0.5, ind, cfg_a)
        r_b = simulate(symmetric_problem, 0.0, 0.1, 0.5, ind, cfg_b)
        spread = math.sqrt(r_a.stderr ** 2 + r_b.stderr ** 2)
        assert abs(r_a.mean - r_b.mean) <= 3.5 * max(spread, 1e-4)


def test_simulation_honours_constant_drift():
    # started at x = -3 with t = 0.1 the paths stay far from the membrane, and
    # phi(y) = y + 3 near -3, so the estimate is the mean displacement mu t
    cfg = json.loads((CONFIGS / "symmetric_heat.json").read_text())
    cfg["problem"]["left"]["drift"]["params"] = [1.0]
    problem = Problem.from_dict(cfg["problem"])
    phi = InitialFunction("polynomial-clamped", [-3.0, 2.0, 3.0, 0.0, 1.0])
    res = simulate(problem, 0.0, -3.0, 0.1, phi, SimConfig(paths=20_000, dt=1e-3, seed=7))
    assert abs(res.mean - 0.1) <= 3 * res.stderr


def test_simulation_moving_membrane_vs_solver(moving_membrane_problem,
                                              gaussian_phi):
    t = 0.5
    op = SemigroupOperator(moving_membrane_problem)
    solver_val = float(op.apply(0.0, t, gaussian_phi)(0.3))
    config = SimConfig(paths=30_000, dt=1e-3, seed=19)
    res = simulate(moving_membrane_problem, 0.0, 0.3, t, gaussian_phi, config)
    check = compare(solver_val, res.mean, res.stderr)
    assert check.passed, f"z={check.z_score:.2f}"


def test_simulation_two_scale_vs_solver(two_scale_problem, gaussian_phi):
    # unequal diffusions exercise the rescaled-overshoot crossing rule
    t = 0.5
    op = SemigroupOperator(two_scale_problem)
    solver_val = float(op.apply(0.0, t, gaussian_phi)(0.5))
    res = simulate(two_scale_problem, 0.0, 0.5, t, gaussian_phi,
                   SimConfig(paths=30_000, dt=5e-4, seed=23))
    check = compare(solver_val, res.mean, res.stderr)
    assert check.passed, f"z={check.z_score:.2f}"


def test_step_too_large_detection(symmetric_problem, gaussian_phi):
    with pytest.raises(StepTooLargeError):
        simulate(symmetric_problem, 0.0, 0.0, 1.0, gaussian_phi,
                 SimConfig(paths=2000, dt=0.5, seed=1))


def test_compare_reference_cases():
    r = compare(1.000, 1.001, 0.002, 3)
    assert r.passed and r.z_score == pytest.approx(0.5)
    r2 = compare(1.000, 1.020, 0.002, 3)
    assert not r2.passed and r2.z_score == pytest.approx(10.0)
    r3 = compare(0.0, 0.0, 1e-9, 3)
    assert r3.passed
    with pytest.raises(ValueError):
        compare(1.0, 1.0, 0.0)


def test_compare_roundtrip_dict():
    d = compare(0.5, 0.49, 0.01).to_dict()
    assert set(d) == {"passed", "z_score", "solver_value", "mc_estimate",
                      "stderr", "k_sigma"}


def _varying_left_diffusion():
    problem = make_problem(q1=0.25, q2=0.75)
    left = dataclasses.replace(problem.left, diffusion=CoefficientField(
        "sinusoidal-in-s-and-x", [1.0, 0.25, 1.0, 0.1, 2.0]))
    return dataclasses.replace(problem, left=left)


def _moving_membrane_varying_q():
    problem = make_problem(membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0]))
    wz = WentzellData(TimeFunction("linear", [0.3, 0.2]),
                      TimeFunction("sinusoidal", [0.6, 0.1, 3.0]),
                      problem.wentzell.measure)
    return dataclasses.replace(problem, wentzell=wz)


BITWISE_CASES = {
    "flat-heat": (lambda: make_problem(), 3000),
    "flat-skew": (lambda: make_problem(q1=0.25, q2=0.75), 3000),
    "two-scale": (lambda: make_problem(b1=1.0, b2=4.0), 3000),
    "moving-membrane": (lambda: Problem.from_dict(json.loads(
        (CONFIGS / "moving_membrane.json").read_text())["problem"]), 3000),
    "moving-membrane-varying-q": (_moving_membrane_varying_q, 3000),
    "constant-drifts": (lambda: make_problem(a1=1.0, a2=-0.5, q1=0.25, q2=0.75), 3000),
    "varying-diffusion": (_varying_left_diffusion, 3000),
    "atoms": (lambda: make_problem(atoms=(atom_at(-1.0), atom_at(1.0))), 3000),
    "atoms-two-scale": (lambda: make_problem(b1=1.0, b2=2.0, q1=0.4, q2=0.6, atoms=(
        atom_at(-1.0, 0.6), atom_at(1.0, 1.1))), 3000),
    "two-blocks": (lambda: make_problem(b1=1.0, b2=2.5, q1=0.3, q2=0.7), 20_000),
}


# (s, x, t) of each bitwise comparison; x = None starts on the membrane h(s),
# where every path has a zero touch exponent on its first step, and the far
# point is mc-compare's, where most exponents lie past TOUCH_CUT.  A case
# from the first start keeps the case's name as its id
BITWISE_STARTS = {
    "near": (0.1, 0.2, 0.6),
    "on-membrane": (0.1, None, 0.6),
    "far": (0.0, 1.5, 1.0),
}
BITWISE_RUNS = [pytest.param(case, start, id=case if start == "near" else f"{case}-{start}")
                for case in sorted(BITWISE_CASES) for start in BITWISE_STARTS]


def _bitwise_case(case, start):
    build, paths = BITWISE_CASES[case]
    problem = build()
    s, x, t = BITWISE_STARTS[start]
    if x is None:
        x = float(problem.h(s))
    return problem, s, x, t, SimConfig(paths=paths, dt=0.002, seed=5)


def _assert_results_equal(got, want):
    for name in ("mean", "stderr", "crossing_risk", "jump_bias_indicator"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("case, start", BITWISE_RUNS)
def test_simulate_bitwise_equals_reference(case, start, gaussian_phi, monkeypatch):
    # the time data, the resolved-only resolve and the touch cut change no
    # bit: the same streams are drawn in the same order and every sum runs
    # in full order.  The risk cap is lifted in both, so that a start where
    # the drifts meet on the membrane still returns every field to compare
    for module in (mc_oracle, simulate_reference):
        monkeypatch.setattr(module, "CROSSING_RISK_CAP", math.inf)
    problem, s, x, t, config = _bitwise_case(case, start)
    got = simulate(problem, s, x, t, gaussian_phi, config)
    want = reference_simulate(problem, s, x, t, gaussian_phi, config)
    _assert_results_equal(got, want)
    if case.startswith("atoms") and start == "near":
        assert got.jump_bias_indicator > 0  # the jump-layer branch ran


def test_touch_cut_is_sound():
    # a positive uniform is at least 2^-53, and exp(-TOUCH_CUT) lies below it
    assert math.exp(-TOUCH_CUT) < 2.0 ** -53
    u = _block_generator(5, 0).random(1 << 16)
    scaled = u * 2.0 ** 53
    assert np.all(scaled == np.floor(scaled))
    assert np.all((u >= 0.0) & (u < 1.0))


class _ZeroingGenerator:
    """A block generator whose every ZERO_EVERY-th uniform is 0.0.

    The position counts the uniforms drawn so far, so the same uniforms are
    zeroed however a step groups its draws.
    """

    ZERO_EVERY = 97

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def standard_normal(self, size=None, out=None):
        return self.rng.standard_normal(size, out=out)

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        pos = self.drawn + np.arange(u.size)
        u[pos % self.ZERO_EVERY == 0] = 0.0
        self.drawn += u.size
        return u


@pytest.mark.parametrize("case", ["flat-skew", "atoms-two-scale"])
def test_zero_uniforms_touch_as_in_the_reference(case, gaussian_phi, monkeypatch):
    # a zero uniform lies below every positive touch probability, however
    # far past TOUCH_CUT its exponent: the cut must still test those paths
    def zeroing(seed, block):
        return _ZeroingGenerator(_block_generator(seed, block))

    problem, s, x, t, config = _bitwise_case(case, "far")
    plain = simulate(problem, s, x, t, gaussian_phi, config)
    monkeypatch.setattr(mc_oracle, "_block_generator", zeroing)
    monkeypatch.setattr(simulate_reference, "_block_generator", zeroing)
    got = simulate(problem, s, x, t, gaussian_phi, config)
    want = reference_simulate(problem, s, x, t, gaussian_phi, config)
    _assert_results_equal(got, want)
    assert got.mean != plain.mean  # the zeros moved paths
