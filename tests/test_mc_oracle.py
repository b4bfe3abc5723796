"""Skew-density closed form and particle-simulation cross-checks."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from memdiff.errors import StepTooLargeError
from memdiff.mc_oracle import (
    SimConfig,
    SkewParams,
    compare,
    simulate,
    skew_action,
    skew_density,
)
from memdiff.problem import InitialFunction, Problem
from memdiff.semigroup import SemigroupOperator


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
    from memdiff._quadrature import panel_rule
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
