"""Time integration: output-time validation, DP5 dense output, step independence."""
import numpy as np
import pytest

from vaclab.correction import solve_correction
from vaclab.params import derive_constants
from vaclab.radial import RadialState, evolve, output_schedule, seed_profile
from vaclab.timestepping import (IntegrationStats, _dense_output, _dp5_step,
                                 integrate_adaptive, integrate_fixed_rk4)
from vaclab.weighted import WeightedGrid


def _adaptive(rhs, t0, y0, times, on_output):
    return integrate_adaptive(rhs, t0, y0, times, on_output=on_output)


def _rk4(rhs, t0, y0, times, on_output):
    return integrate_fixed_rk4(rhs, t0, y0, times, 0.25, on_output=on_output)


@pytest.mark.parametrize("integrate", [_adaptive, _rk4], ids=["adaptive", "rk4"])
@pytest.mark.parametrize("t0, times, message", [
    pytest.param(0.0, [2.0, 1.0], r"output_times\[1\] = 1\.0 decreases", id="decreasing"),
    pytest.param(1.0, [0.5, 2.0], r"output_times\[0\] = 0\.5 precedes the initial time",
                 id="before-t0"),
])
def test_output_times_are_validated_before_any_step(integrate, t0, times, message):
    emitted, calls = [], []

    def rhs(t, y):
        calls.append(t)
        return -y

    with pytest.raises(ValueError, match=message):
        integrate(rhs, t0, np.ones(1), times, lambda t, y: emitted.append(t))
    assert emitted == [] and calls == []


def test_oscillator_outputs_from_the_dense_output():
    # y'' = -y: every output within 1e-6 of cos t, -sin t
    times = np.linspace(0.0, 20.0, 201)
    out = []
    stats = IntegrationStats()
    integrate_adaptive(lambda t, y: np.array([y[1], -y[0]]), 0.0, np.array([1.0, 0.0]),
                       times, rel_tol=1e-7, on_output=lambda t, y: out.append((t, y.copy())),
                       stats=stats)
    assert [t for t, _ in out] == times.tolist()
    exact = np.array([[np.cos(t), -np.sin(t)] for t in times])
    assert np.max(np.abs(np.array([y for _, y in out]) - exact)) <= 1e-6
    # t = 0 and t = 20 are not interpolated
    assert stats.interpolated_outputs == len(times) - 2 < stats.steps


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
def test_dense_output_has_local_order_five(theta):
    # one step of y' = y^2, y(0) = 1, exact 1 / (1 - t)
    def error(h):
        rhs = lambda t, y: y ** 2
        y0 = np.ones(1)
        k = np.empty((7, 1))
        k[0] = rhs(0.0, y0)
        y5 = _dp5_step(rhs, 0.0, y0, h, k)
        assert _dense_output(y0, h, k, 1.0)[0] == pytest.approx(y5[0], rel=1e-15)
        return abs(_dense_output(y0, h, k, theta)[0] - 1.0 / (1.0 - theta * h))

    assert error(0.1) >= 24.0 * error(0.05)


def test_step_sequence_does_not_depend_on_the_outputs():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = solve_correction(p, 100.0)
    g = WeightedGrid(p, 32)
    w0 = seed_profile("parabolic", 1e-3, g)
    initial = RadialState(0.0, w0, np.zeros_like(w0))
    t_end = 50.0
    full = evolve(g, path, initial, t_end, output_times=output_schedule(t_end))
    last = evolve(g, path, initial, t_end, output_times=[t_end], collect_energies=False)
    assert full.status == last.status == "completed"
    for name in ("steps", "rejected", "rhs_evaluations", "cap_limited", "last_dt"):
        assert getattr(full.stats, name) == getattr(last.stats, name), name
    assert full.stats.interpolated_outputs == len(full.times) - 2
    assert last.stats.interpolated_outputs == 0
    assert full.times[-1] == last.times[-1] == t_end
    assert np.array_equal(full.states.w[-1], last.states.w[-1])
    assert np.array_equal(full.states.w_t[-1], last.states.w_t[-1])
