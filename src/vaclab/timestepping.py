"""Explicit time integration: adaptive Dormand-Prince 5(4) and fixed RK4.

A custom stepper (rather than a library solver) because the wave-like
systems here need a step cap that grows with time as the effective
stiffness decays; the cap is supplied as a callable of t and re-evaluated
every step.  The adaptive stepper steps over the output times: the error
controller and the cap alone set its steps, only the final time is landed
on, and each output inside an accepted step is read off Dormand-Prince's
free order-4 continuous extension (Shampine, Math. Comp. 46, 1986), so the
step sequence does not depend on the outputs.  The fixed RK4 stepper clips
its steps to land on every output, which the refinement studies need.

A cap-limited run takes thousands of steps on small states, so the Python
and NumPy overhead of a step counts: the stage rows of the tableau are
sliced once (``_STAGES``), |y| is kept from the accepted step, and the
error norm sums and divides as ``np.mean`` does without its wrapper
(``_rms``).  Every floating-point operation is the one it replaced, in the
same order; ``tests/rhs_reference.py`` keeps the step as it was.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import SolverConfig

# Dormand-Prince 5(4) tableau (FSAL); the stage increment of stage s is
# _A[s, :s] @ k[:s], one matrix product.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4   # weights of the embedded error estimate
# (s, c_s, _A[s, :s]) of stages 1..6, sliced once
_STAGES = tuple((s, _C[s], _A[s, :s]) for s in range(1, 7))
# Order-4 dense output (Shampine's c6, the P matrix of SciPy's RK45): the
# state at t + theta*dt is y + dt * (_P @ [theta, theta^2, theta^3, theta^4]) @ k.
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


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
    cap_limited: int = 0    # accepted steps whose length max_step(t) set
    interpolated_outputs: int = 0   # outputs read off the dense output


@dataclass
class IntegrationResult:
    stats: IntegrationStats


def _counted(rhs: Callable, stats: IntegrationStats) -> Callable:
    """``rhs`` counting its calls into ``stats`` (a raising call counts)."""
    def counted(t, y):
        stats.rhs_evaluations += 1
        return rhs(t, y)

    return counted


def _dp5_step(rhs: Callable, t: float, y: np.ndarray, dt: float,
              k: np.ndarray) -> np.ndarray:
    """The 5th-order state at t + dt; fills the stages k[1:] from k[0]."""
    # dt as a 0-d array: NumPy scales an array by it faster than by a
    # Python float, to the same product
    h = np.array(dt)
    for stage, c, row in _STAGES:
        k[stage] = rhs(t + c * dt, y + h * (row @ k[:stage]))
    return y + h * (_B5 @ k)


def _rms(z: np.ndarray) -> float:
    """The root mean square of z, summed and divided as ``np.mean`` does,
    without its wrapper."""
    return math.sqrt(np.add.reduce(z * z) / z.size)


def _dense_output(y: np.ndarray, dt: float, k: np.ndarray, theta: float) -> np.ndarray:
    """The state at t + theta*dt inside the step from (t, y) with stages k."""
    return y + dt * ((_P @ theta ** np.arange(1, 5)) @ k)


def _output_times(t0: float, output_times: Sequence[float]) -> list[float]:
    """The output times as floats, checked to be sorted and to start no
    earlier than ``t0``; a ``ValueError`` names the first index that is not."""
    outputs = [float(tt) for tt in output_times]
    previous = float(t0)
    for i, tt in enumerate(outputs):
        if not tt >= previous:
            what = ("precedes the initial time" if not tt >= t0
                    else f"decreases from output_times[{i - 1}] = {previous!r}")
            raise ValueError(f"output_times[{i}] = {tt!r} {what}")
        previous = tt
    return outputs


def integrate_adaptive(rhs: Callable, t0: float, y0: np.ndarray,
                       output_times: Sequence[float],
                       rel_tol: float = SolverConfig.rel_tol,
                       abs_tol: float = SolverConfig.abs_tol,
                       max_step: Callable[[float], float] | None = None,
                       on_output: Callable | None = None,
                       stats: IntegrationStats | None = None) -> IntegrationResult:
    """Integrate y' = rhs(t, y) from (t0, y0) through sorted output times.

    Error control uses the embedded 4th-order solution with a PI
    controller; ``max_step(t)`` bounds the step (stability cap).  Steps
    land on the last output time only: ``on_output(t, y)`` is invoked at
    every output time, including t0 if it is listed, with the dense output
    of the step that covers t, or the step's new state where the step ends
    at t.  An output is emitted only once its step has been accepted, so a
    run that raises keeps the outputs up to its last accepted step.
    Counters accumulate in ``stats`` when one is passed, so they survive an
    exception raised by ``rhs`` or ``on_output``.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    outputs = _output_times(t, output_times)
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
    dt = min(cap, 1e-4 * max(1.0, t_final - t0))
    k_last = np.asarray(rhs(t, y), dtype=float)
    err_prev = 1.0
    k = np.empty((7,) + y.shape)
    abs_y = np.abs(y)

    while t < t_final:
        cap = max_step(t) if max_step is not None else np.inf
        capped = cap <= dt
        dt = min(dt, cap)
        final = t + dt >= t_final - 1e-14 * max(1.0, abs(t_final))
        if final:
            dt = t_final - t
            capped = False
        if dt <= 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(t, dt)

        k[0] = k_last
        y5 = _dp5_step(rhs, t, y, dt, k)
        abs_y5 = np.abs(y5)
        err = _rms(dt * (_E @ k) / (abs_tol + rel_tol * np.maximum(abs_y, abs_y5)))

        if err <= 1.0 or dt <= 1.05e-14 * max(1.0, abs(t)):
            t_new = t_final if final else t + dt
            k_last = k[6]  # FSAL
            stats.steps += 1
            stats.cap_limited += capped
            stats.last_dt = dt
            while idx < len(outputs) and outputs[idx] < t_new:
                stats.interpolated_outputs += 1
                emit(outputs[idx], _dense_output(y, dt, k, (outputs[idx] - t) / dt))
                idx += 1
            t, y, abs_y = t_new, y5, abs_y5
            while idx < len(outputs) and outputs[idx] <= t:
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
    outputs = _output_times(t, output_times)
    stats = IntegrationStats() if stats is None else stats
    rhs = _counted(rhs, stats)
    emit = on_output or (lambda tt, yy: None)

    for t_target in outputs:
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
