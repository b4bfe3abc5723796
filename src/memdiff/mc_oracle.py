"""Independent ground truth: skew Brownian closed forms and particle simulation.

The closed-form transition density of skew Brownian motion (membrane at 0,
crossing parameter alpha, scale sigma) is the image formula

    p(dt, x, y) = g(y - x) + sign(y) (2 alpha - 1) g(|x| + |y|),

with g the centered Gaussian density of variance sigma^2 dt.  No command
reaches it, but the benchmark workloads check requests against skew_action
as an attribute of this module; closed forms that only tests use live in
tests/closed_forms.py.  The particle simulation realizes the pasted
diffusion directly: Euler-Maruyama between crossings, and on a membrane
crossing the landing side is redrawn with the membrane weights read as exit
probabilities.  Atomic jump measures are realized by a thin jump layer that
jumps about twice as often as the conjugation condition asks (ROADMAP item
6: with unit atoms the estimates sit 20-37 standard errors below a
finite-difference value, and halving the weights brings them within 3), so
atom estimates serve qualitative cross-checks only; the jump count is
reported alongside the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import panel_rule
from .errors import ConfigError, StepTooLargeError, TimeOrderError
from .problem import CoefficientField, InitialFunction, Problem, require_number


@dataclass(frozen=True)
class SkewParams:
    """Crossing probability and diffusion scale of a skew Brownian motion."""

    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @classmethod
    def from_problem(cls, problem: Problem, s: float = 0.0) -> "SkewParams":
        """Identification alpha = q2/(q1+q2) for equal constant diffusions.

        Derived by matching the flux condition q1 u'(h-) = q2 u'(h+) with
        the skew generator domain; confirmed by the oracle cross-checks.
        """
        b1 = problem.side(1).diffusion
        b2 = problem.side(2).diffusion
        if not (b1.is_constant and b2.is_constant
                and b1.constant_value() == b2.constant_value()):
            raise ValueError("skew identification needs equal constant diffusions")
        q1 = float(problem.q(1, s))
        q2 = float(problem.q(2, s))
        return cls(alpha=q2 / (q1 + q2), sigma=math.sqrt(b1.constant_value()))


def skew_density(params: SkewParams, dt: float, x, y):
    """Transition density of skew Brownian motion after elapsed time dt."""
    if dt <= 0:
        raise TimeOrderError("elapsed time must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    var = params.sigma ** 2 * dt
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    def g(z):
        return norm * np.exp(-z * z / (2.0 * var))

    out = g(y - x) + np.sign(y) * (2.0 * params.alpha - 1.0) * g(np.abs(x) + np.abs(y))
    return float(out) if out.ndim == 0 else out


def skew_action(params: SkewParams, dt: float, x: float, phi) -> float:
    """integral of phi(y) skew_density(dt, x, y) dy (the oracle operator),
    by 24-point Gauss panels on [-w, w], w = |x| + 10 standard deviations + 10."""
    width = abs(x) + 10.0 * (params.sigma * math.sqrt(dt)) + 10.0
    edges = np.concatenate([
        np.linspace(-width, 0.0, 40), np.linspace(0.0, width, 40)[1:]])
    y, w = panel_rule(edges, 24)
    return float(np.sum(phi(y) * skew_density(params, dt, x, y) * w))


# bounds on a simulation's size, 100 times the default paths and the default
# dt's steps over a unit interval: the run time grows with paths x steps (10^7
# paths of 1000 steps take about 10 min, from 5.3-6.3 s for 10^5 paths on a
# 2-core machine), the step times with steps (about 100 bytes a step)
MAX_PATHS = 10 ** 7
MAX_STEPS = 10 ** 5


@dataclass(frozen=True)
class SimConfig:
    """Particle-simulation controls; streams are keyed by (seed, block)."""

    paths: int = 100_000
    dt: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_number(self.paths, "mc paths", integer=True, ge=1, le=MAX_PATHS)
        require_number(self.dt, "mc dt", gt=0)
        require_number(self.seed, "mc seed", integer=True, ge=0, lt=2 ** 64)

    def steps(self, s: float, t: float) -> int:
        """Euler steps over (s, t), ceil((t - s)/dt); a ConfigError past MAX_STEPS."""
        ratio = (t - s) / self.dt
        if not ratio <= MAX_STEPS:
            raise ConfigError(f"bad mc dt: {self.dt!r} takes {ratio:.3g} steps over "
                              f"({s:g}, {t:g}), more than {MAX_STEPS}")
        return max(1, math.ceil(ratio))


# paths simulated together, each block from its own counter-based stream;
# the block size is part of the stream layout, so it fixes the estimates
BLOCK_SIZE = 16384
# half-width of the atom jump layer, in units of the step's standard deviation
JUMP_LAYER = 1.0
# largest mean second-interaction indicator of resolved steps that
# simulate() accepts before it asks for a smaller dt
CROSSING_RISK_CAP = 0.05
# exponent past which a same-side step cannot touch the membrane.
# Generator.random returns (raw64 >> 11) 2^-53, so a positive uniform is at
# least 2^-53 = exp(-36.7).  A path with d0 d1 >= (TOUCH_CUT / 2) b dt in
# floating point has a rounded exponent 2 d0 d1 / (b dt) above 39.9, and
# exp(-39.9) < 5e-18 lies far below 2^-53: its uniform falls under the
# touch probability only when it is exactly 0.0
TOUCH_CUT = 40.0


@dataclass
class SimResult:
    mean: float
    stderr: float
    paths: int
    crossing_risk: float
    jump_bias_indicator: float = 0.0


def _block_generator(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, block]))


def _on_sides(left: CoefficientField, right: CoefficientField):
    """The coefficient on each path's side, as a function of (on_right, s, xs).

    A constant field enters as its scalar; two equal constants give the
    scalar itself, so the step arithmetic broadcasts it instead of
    reading an array.
    """
    c1 = left.constant_value() if left.is_constant else None
    c2 = right.constant_value() if right.is_constant else None
    if c1 is not None and c1 == c2:
        return lambda on_right, s, xs: c1

    def value(on_right, s, xs):
        return np.where(on_right, right(s, xs) if c2 is None else c2,
                        left(s, xs) if c1 is None else c1)
    return value


def simulate(problem: Problem, s: float, x: float, t: float,
             phi: InitialFunction, config: SimConfig | None = None) -> SimResult:
    """Estimate the phi-average of the pasted diffusion started at (s, x).

    Euler-Maruyama with per-block counter-based streams.  A step that
    crosses the membrane, or whose Brownian bridge touched it, is resolved
    by redrawing the side with probability l_2 of landing right and
    rescaling the overshoot by the destination/landing diffusion ratio;
    for flat membranes and constant scales this resolve reproduces the
    exact one-step law.  Raises StepTooLargeError when the average
    second-interaction indicator of resolved steps exceeds CROSSING_RISK_CAP,
    and ConfigError when dt takes more than MAX_STEPS steps over (s, t).

    The time-only data (membrane, q, membrane diffusions) is evaluated once
    per call on the arrays of step times, and the resolve runs on the
    resolved paths only; every step still draws full blocks in a fixed
    order (normal, then touch, side and jump uniforms in one draw, then the
    atom choice).  The touch probability exp(-z), z = 2 d0 d1 / (b dt), is
    evaluated only where a uniform can fall below it: a positive uniform of
    Generator.random is at least 2^-53, so a path with z past TOUCH_CUT
    touches only when its uniform is exactly 0.0, and only the paths under
    the cut or with a zero uniform take the exp.  Where z is large, which
    is most paths away from the membrane, exp(-z) underflows to a subnormal
    or 0, and NumPy's exp is slow there.
    """
    config = config or SimConfig()
    if s >= t:
        raise TimeOrderError("simulation needs s < t")
    n_steps = config.steps(s, t)
    dt = (t - s) / n_steps
    meas = problem.wentzell.measure
    has_atoms = not meas.is_null

    starts = s + np.arange(n_steps) * dt
    ends = starts + dt
    h0 = problem.h(starts)
    b1h = problem.diffusion(1, starts, h0)
    b2h = problem.diffusion(2, starts, h0)
    r1, r2 = np.sqrt(b1h), np.sqrt(b2h)
    q1, q2 = problem.q(1, starts), problem.q(2, starts)
    # the membrane weights are written out here on purpose, apart from
    # Problem.membrane_weights, so that the oracle stays an independent
    # check of the solver
    denom = q1 * r2 + q2 * r1
    l2 = q2 * r1 / denom
    steps = (starts, ends, h0, problem.h(ends), r1, r2, l2)
    if has_atoms:
        b_bar = 0.5 * (b1h + b2h)
        layers = JUMP_LAYER * np.sqrt(b_bar * dt)
        half_d_sum = 0.5 * ((b1h * r2 + b2h * r1) / denom)
        ells = np.sqrt(dt / b_bar) / JUMP_LAYER
    diffusion = _on_sides(problem.left.diffusion, problem.right.diffusion)
    drift = _on_sides(problem.left.drift, problem.right.drift)

    sums = []
    sq_sums = []
    risk_sum = 0.0
    jump_count = 0
    n_left = config.paths
    block = 0
    while n_left > 0:
        size = min(BLOCK_SIZE, n_left)
        rng = _block_generator(config.seed, block)
        xs = np.full(size, float(x))
        prop, noise, gap, excess = np.empty((4, size))
        right, land_right, near = np.empty((3, size), dtype=bool)
        # one draw per step for the touch, side (and jump) uniforms: each
        # double takes one 64-bit output in order, so the stream is that
        # of separate draws
        uniforms = np.empty((3 if has_atoms else 2) * size)
        u_touch, u_side, uj = uniforms[:size], uniforms[size:2 * size], uniforms[2 * size:]
        again = np.zeros(size)
        risk = 0.0
        for k, (sk, sk1, h_k, h_k1, r1_k, r2_k, l2_k) in enumerate(zip(*steps)):
            np.greater_equal(xs, h_k, out=right)
            b_dt = diffusion(right, sk, xs) * dt
            a = drift(right, sk, xs)
            rng.standard_normal(out=noise)
            np.multiply(noise, np.sqrt(b_dt), out=noise)
            np.add(xs, a * dt, out=prop)
            prop += noise
            rng.random(out=uniforms)

            np.greater_equal(prop, h_k1, out=land_right)
            np.subtract(prop, h_k1, out=excess)
            np.abs(excess, out=excess)
            b_dt_eps = b_dt + 1e-300
            # same-side steps may still have touched the membrane: the
            # Brownian bridge touch probability exp(-2 d0 d1 / (b dt));
            # resolving touched steps alongside crossed ones makes the
            # one-step law exact for flat membranes and constant scales.
            # Only paths under the cut, or with a zero uniform, can touch
            np.subtract(xs, h_k, out=gap)
            np.abs(gap, out=gap)
            gap *= excess
            np.less(gap, 0.5 * TOUCH_CUT * b_dt_eps, out=near)
            if u_touch.min() == 0.0:
                near |= u_touch == 0.0
            c = np.flatnonzero(near)
            p_touch = np.exp(-2.0 * np.abs(xs[c] - h_k) * excess[c]
                             / (b_dt_eps[c] if np.ndim(b_dt_eps) else b_dt_eps))
            resolve = np.not_equal(right, land_right, out=right)  # the crossed paths
            resolve[c[u_touch[c] < p_touch]] = True
            at = np.flatnonzero(resolve)

            dest_right = u_side[at] < l2_k
            e_res = excess[at] * (np.where(dest_right, r2_k, r1_k)
                                  / np.where(land_right[at], r2_k, r1_k))
            xs, prop = prop, xs
            xs[at] = h_k1 + np.where(dest_right, 1.0, -1.0) * e_res
            # step-size reliability: probability that a resolved step
            # interacts with the membrane again before it ends; the sum
            # and divide are np.mean's own
            again[at] = np.exp(-2.0 * e_res * e_res
                               / (b_dt_eps[at] if np.ndim(b_dt_eps) else b_dt_eps))
            risk += float(np.add.reduce(again) / size)
            again[at] = 0.0
            if has_atoms:
                in_layer = np.abs(xs - h_k1) < layers[k]
                if np.any(in_layer):
                    y_at = meas.positions(sk1)
                    w_at = meas.weights(sk1)
                    total_w = float(np.sum(w_at))
                    if total_w > 0:
                        p_jump = min(1.0, half_d_sum[k] * total_w * ells[k])
                        do_jump = in_layer & (uj < p_jump)
                        if np.any(do_jump):
                            choice = rng.random(size)
                            cum = np.cumsum(w_at) / total_w
                            idx = np.searchsorted(cum, choice[do_jump])
                            xs[do_jump] = y_at[np.clip(idx, 0, len(y_at) - 1)]
                            jump_count += int(np.sum(do_jump))
        vals = np.asarray(phi(xs), dtype=float)
        sums.append(float(np.sum(vals)))
        sq_sums.append(float(np.sum(vals * vals)))
        risk_sum += risk / n_steps * size
        n_left -= size
        block += 1

    n = config.paths
    mean = math.fsum(sums) / n
    var = max(math.fsum(sq_sums) / n - mean * mean, 0.0)
    stderr = math.sqrt(var / n)
    crossing_risk = risk_sum / n
    if crossing_risk > CROSSING_RISK_CAP:
        raise StepTooLargeError(
            f"unobserved-crossing indicator {crossing_risk:.3f} exceeds "
            f"{CROSSING_RISK_CAP}; reduce dt")
    return SimResult(mean=mean, stderr=stderr, paths=n,
                     crossing_risk=crossing_risk,
                     jump_bias_indicator=jump_count / n)


@dataclass
class CompareResult:
    passed: bool
    z_score: float
    solver_value: float
    mc_estimate: float
    stderr: float
    k_sigma: float

    def to_dict(self) -> dict:
        return {"passed": self.passed, "z_score": self.z_score,
                "solver_value": self.solver_value, "mc_estimate": self.mc_estimate,
                "stderr": self.stderr, "k_sigma": self.k_sigma}


def compare(solver_value: float, mc_estimate: float, stderr: float,
            k_sigma: float = 3.0) -> CompareResult:
    """Statistical agreement check: pass iff |solver - mc| <= k_sigma stderr."""
    if stderr <= 0:
        raise ValueError("stderr must be positive")
    z = abs(solver_value - mc_estimate) / stderr
    return CompareResult(passed=bool(z <= k_sigma), z_score=float(z),
                         solver_value=float(solver_value),
                         mc_estimate=float(mc_estimate), stderr=float(stderr),
                         k_sigma=float(k_sigma))
