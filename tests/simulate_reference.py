"""Step-by-step reference for the particle simulation: one step at a time.

Every step re-evaluates the membrane, q and the membrane diffusions by
scalar calls, builds full coefficient arrays for both sides, and resolves
every path, crossed or not.  The library computes the time data once per
call and resolves only the paths that crossed or touched the membrane; it
draws the same random numbers in the same order, so the tests require the
two to agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from memdiff.errors import StepTooLargeError, TimeOrderError
from memdiff.mc_oracle import (
    BLOCK_SIZE,
    CROSSING_RISK_CAP,
    JUMP_LAYER,
    SimConfig,
    SimResult,
    _block_generator,
)


def reference_simulate(problem, s: float, x: float, t: float, phi,
                       config: SimConfig | None = None) -> SimResult:
    """simulate() with every step evaluated in full, on all paths."""
    config = config or SimConfig()
    if s >= t:
        raise TimeOrderError("simulation needs s < t")
    n_steps = max(1, int(math.ceil((t - s) / config.dt)))
    dt = (t - s) / n_steps
    meas = problem.wentzell.measure
    has_atoms = not meas.is_null

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
        risk = 0.0
        for k in range(n_steps):
            sk = s + k * dt
            sk1 = sk + dt
            h_k = float(problem.h(sk))
            h_k1 = float(problem.h(sk1))
            right = xs >= h_k
            b = np.where(right, problem.diffusion(2, sk, xs),
                         problem.diffusion(1, sk, xs))
            a = np.where(right, problem.drift(2, sk, xs), problem.drift(1, sk, xs))
            noise = rng.standard_normal(size)
            prop = xs + a * dt + np.sqrt(b * dt) * noise

            b1h = float(problem.diffusion(1, sk, h_k))
            b2h = float(problem.diffusion(2, sk, h_k))
            q1 = float(problem.q(1, sk))
            q2 = float(problem.q(2, sk))
            denom = q1 * math.sqrt(b2h) + q2 * math.sqrt(b1h)
            l2 = q2 * math.sqrt(b1h) / denom

            land_right = prop >= h_k1
            crossed = right != land_right
            d0 = np.abs(xs - h_k)
            d1 = np.abs(prop - h_k1)
            p_touch = np.exp(-2.0 * d0 * d1 / (b * dt + 1e-300))
            u_touch = rng.random(size)
            resolve = crossed | (u_touch < p_touch)
            u_side = rng.random(size)
            dest_right = u_side < l2
            excess = np.abs(prop - h_k1)
            scale = np.where(dest_right, math.sqrt(b2h), math.sqrt(b1h)) \
                / np.where(land_right, math.sqrt(b2h), math.sqrt(b1h))
            resolved = h_k1 + np.where(dest_right, 1.0, -1.0) * excess * scale
            xs = np.where(resolve, resolved, prop)
            e_res = excess * scale
            risk += float(np.mean(np.where(
                resolve, np.exp(-2.0 * e_res * e_res / (b * dt + 1e-300)), 0.0)))
            if has_atoms:
                b_bar = 0.5 * (b1h + b2h)
                layer = JUMP_LAYER * math.sqrt(b_bar * dt)
                in_layer = np.abs(xs - h_k1) < layer
                uj = rng.random(size)
                if np.any(in_layer):
                    y_at = meas.positions(sk1)
                    w_at = meas.weights(sk1)
                    total_w = float(np.sum(w_at))
                    if total_w > 0:
                        d_sum = (b1h * math.sqrt(b2h) + b2h * math.sqrt(b1h)) / denom
                        ell = math.sqrt(dt / b_bar) / JUMP_LAYER
                        p_jump = min(1.0, 0.5 * d_sum * total_w * ell)
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
