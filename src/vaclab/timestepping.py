"""Explicit time integration: adaptive Dormand-Prince 5(4) and fixed RK4.

A custom stepper (rather than a library solver) because the wave-like
systems here need a step cap that grows with time as the effective
stiffness decays; the cap is supplied as a callable of t and re-evaluated
every step.  Steps are clipped to land exactly on the requested output
times, which keeps output deterministic across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Dormand-Prince 5(4) tableau (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])


class StepSizeUnderflow(RuntimeError):
    def __init__(self, t: float, dt: float):
        super().__init__(f"step size underflow at t={t:.6g} (dt={dt:.3e})")
        self.t = t


@dataclass
class IntegrationStats:
    steps: int = 0
    rejected: int = 0
    rhs_evaluations: int = 0
    last_dt: float = 0.0


@dataclass
class IntegrationResult:
    stats: IntegrationStats


def _counted(rhs: Callable, stats: IntegrationStats) -> Callable:
    """``rhs`` counting its calls into ``stats`` (a raising call counts)."""
    def counted(t, y):
        stats.rhs_evaluations += 1
        return rhs(t, y)

    return counted


def power_iteration(apply: Callable, size: int, iterations: int, seed: int) -> float:
    """Spectral-radius estimate of the linear map ``apply`` on R^size by
    power iteration from a seeded Gaussian vector (stability caps)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size)
    v /= np.linalg.norm(v)
    estimate = 1.0
    for _ in range(iterations):
        v = apply(v)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            break
        estimate = norm
        v /= norm
    return float(estimate)


def integrate_adaptive(rhs: Callable, t0: float, y0: np.ndarray,
                       output_times: Sequence[float],
                       rel_tol: float = 1e-7, abs_tol: float = 1e-11,
                       max_step: Callable[[float], float] | None = None,
                       first_step: float | None = None,
                       on_output: Callable | None = None,
                       stats: IntegrationStats | None = None) -> IntegrationResult:
    """Integrate y' = rhs(t, y) from (t0, y0) through sorted output times.

    Error control uses the embedded 4th-order solution with a PI
    controller; ``max_step(t)`` bounds the step (stability cap).
    ``on_output(t, y)`` is invoked at every output time, including t0 if it
    is listed.  Counters accumulate in ``stats`` when one is passed, so
    they survive an exception raised by ``rhs``.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    outputs = [float(tt) for tt in output_times]
    if any(tt < t0 for tt in outputs):
        raise ValueError("output times must not precede the initial time")
    stats = IntegrationStats() if stats is None else stats
    rhs = _counted(rhs, stats)
    emit = on_output or (lambda tt, yy: None)

    idx = 0
    while idx < len(outputs) and outputs[idx] <= t:
        emit(t, y)
        idx += 1
    if idx >= len(outputs):
        return IntegrationResult(stats)
    t_final = outputs[-1]

    cap = max_step(t) if max_step is not None else (t_final - t0)
    dt = first_step if first_step is not None else min(cap, 1e-4 * max(1.0, t_final - t0))
    dt = min(dt, cap)
    k_last = np.asarray(rhs(t, y), dtype=float)
    err_prev = 1.0
    k = np.empty((7,) + y.shape)

    while idx < len(outputs):
        cap = max_step(t) if max_step is not None else np.inf
        dt = min(dt, cap, t_final - t)
        hit_output = False
        if t + dt >= outputs[idx] - 1e-14 * max(1.0, abs(outputs[idx])):
            dt = outputs[idx] - t
            hit_output = True
        if dt <= 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(t, dt)

        k[0] = k_last
        for stage in range(1, 7):
            inc = sum(a * k[j] for j, a in enumerate(_A[stage]) if a != 0.0)
            k[stage] = rhs(t + _C[stage] * dt, y + dt * inc)
        y5 = y + dt * np.tensordot(_B5, k, axes=1)
        err_vec = dt * np.tensordot(_B5 - _B4, k, axes=1)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err <= 1.0 or dt <= 1.05e-14 * max(1.0, abs(t)):
            t = t + dt
            y = y5
            k_last = k[6]  # FSAL
            stats.steps += 1
            stats.last_dt = dt
            if hit_output:
                emit(t, y)
                idx += 1
            # PI controller (order 5)
            grow = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            dt = dt * min(5.0, max(0.2, grow))
        else:
            stats.rejected += 1
            dt = dt * min(1.0, max(0.2, 0.9 * err ** -0.2))
    return IntegrationResult(stats)


def integrate_fixed_rk4(rhs: Callable, t0: float, y0: np.ndarray,
                        output_times: Sequence[float], dt: float,
                        on_output: Callable | None = None,
                        stats: IntegrationStats | None = None) -> IntegrationResult:
    """Classical fixed-step RK4 through the output times (steps clipped so
    outputs are hit exactly; used for refinement studies)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = np.array(y0, dtype=float)
    t = float(t0)
    stats = IntegrationStats() if stats is None else stats
    rhs = _counted(rhs, stats)
    emit = on_output or (lambda tt, yy: None)

    for t_target in output_times:
        t_target = float(t_target)
        if t_target <= t + 1e-14 * max(1.0, abs(t)):
            emit(t, y)
            continue
        while t < t_target - 1e-14 * max(1.0, abs(t_target)):
            step = min(dt, t_target - t)
            k1 = np.asarray(rhs(t, y))
            k2 = np.asarray(rhs(t + 0.5 * step, y + 0.5 * step * k1))
            k3 = np.asarray(rhs(t + 0.5 * step, y + 0.5 * step * k2))
            k4 = np.asarray(rhs(t + step, y + step * k3))
            y = y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += step
            stats.steps += 1
            stats.last_dt = step
        t = t_target
        emit(t, y)
    return IntegrationResult(stats)
