"""The stacked pass over blocks of outputs equals the per-output evaluation.

``radial.evolve`` records the outputs of a run as one stack of states and
evaluates reconstructions, time derivatives and energies in one pass per
block of outputs sliced off it, ``gap_series`` and ``reconstructed_mass``
read blocks of the same stacks, and ``evolve_mode`` records its outputs as
one stack and evaluates its energies the same way.
``output_pass_reference`` keeps the per-output functions they replaced and
walks the stacks one output at a time; every value must be equal, bit for
bit, across dimensions, node counts (one block and many), damping
exponents, seeds, steppers, a failed run and a resumed one.
"""
import numpy as np
import output_pass_reference as reference
import pytest

from vaclab import runio
from vaclab.angular import PlanarModeOperator, default_planar_state, evolve_mode
from vaclab.config import parse_config
from vaclab.correction import correction_path
from vaclab.diagnostics import gap_series
from vaclab.energy import BLOCK_VALUES
from vaclab.params import derive_constants
from vaclab.radial import RadialOperator, RadialState, evolve, seed_profile
from vaclab.weighted import WeightedGrid


def _assert_columns_equal(got, want):
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name], want[name], equal_nan=True), name


def _assert_matches_reference(traj, path, params, collect_energies=True):
    op = RadialOperator(traj.grid, path)
    recons, rows = reference.evaluate_outputs(op, traj.states, collect_energies)
    got = traj.reconstructions
    assert len(got.t) == len(recons)
    for k, want in enumerate(recons):
        assert got.t[k, 0, 0] == want.t and got.boundary_radius[k, 0, 0] == want.boundary_radius
        for name in ("radii", "density", "velocity"):
            assert np.array_equal(getattr(got, name)[k, 0], getattr(want, name)), name
    if collect_energies:
        _assert_columns_equal(
            traj.energies, reference.energy_columns(traj.times[:len(rows)], rows))
    _assert_columns_equal(gap_series(traj, path, params), reference.gap_series(
        reference.with_reconstructions(traj, recons), path, params))


# (n, nodes, lambda, seed, stepper): every value of each appears with several
# of the others; at t <= 10, 121 outputs make 2 blocks at 17 and 32 nodes,
# 4 at 64 and 16 at 256
CASES = [
    (2, 17, 0.0, "parabolic", "adaptive"), (2, 32, 0.5, "quartic", "rk4"),
    (2, 64, 0.0, "random", "rk4"), (2, 256, 0.5, "parabolic", "adaptive"),
    (3, 17, 0.5, "random", "adaptive"), (3, 32, 0.0, "parabolic", "rk4"),
    (3, 64, 0.5, "quartic", "adaptive"), (3, 256, 0.0, "quartic", "adaptive"),
    (3, 32, 0.5, "random", "adaptive"), (2, 17, 0.0, "quartic", "rk4"),
]


@pytest.mark.parametrize("n,nodes,lam,shape,stepper", CASES)
def test_stacked_pass_equals_the_per_output_loop(n, nodes, lam, shape, stepper):
    params = derive_constants(n, lam, 2.0, 1.0)
    path = correction_path(params, 20.0)
    grid = WeightedGrid(params, nodes)
    w0 = seed_profile(shape, 1e-3, grid, np.random.default_rng(3))
    steps = {"stepper": "rk4", "fixed_dt": 0.004} if stepper == "rk4" else {}
    traj = evolve(grid, path, RadialState(0.0, w0, 0.1 * w0), 10.0, **steps)
    assert traj.status == "completed" and len(traj.times) == 121
    assert len(traj.times) > BLOCK_VALUES // nodes   # more than one block
    _assert_matches_reference(traj, path, params)


def test_stacked_pass_covers_the_outputs_before_a_failure():
    # the RK4 output at t = 0.1 breaks 1 + w_r > 0: the pass covers t = 0
    params = derive_constants(3, 0.0, 2.0, 1.0)
    path = correction_path(params, 100.0)
    grid = WeightedGrid(params, 24)
    w0 = seed_profile("parabolic", 1.3, grid)
    traj = evolve(grid, path, RadialState(0.0, w0, np.zeros_like(w0)), 20.0,
                  output_times=np.linspace(0.0, 20.0, 201), stepper="rk4", fixed_dt=0.2)
    assert traj.status == "failed" and len(traj.times) == 2
    with np.errstate(invalid="ignore"):
        _assert_matches_reference(traj, path, params)


def test_stacked_pass_without_energies_equals_the_loop():
    params = derive_constants(3, 0.5, 2.0, 1.0)
    path = correction_path(params, 20.0)
    grid = WeightedGrid(params, 40)
    w0 = seed_profile("quartic", 1e-3, grid)
    traj = evolve(grid, path, RadialState(0.0, w0, np.zeros_like(w0)), 10.0,
                  collect_energies=False)
    assert traj.energies is None
    _assert_matches_reference(traj, path, params, collect_energies=False)


def test_resumed_run_equals_the_per_output_loop(tmp_path):
    cfg = parse_config({"params": {"n": 3, "lambda": 0.5},
                        "ode": {"t_end": 100.0},
                        "solver": {"num_nodes": 32, "t_end": 50.0,
                                   "seed": {"shape": "quartic", "amplitude": 1e-3}},
                        "outputs": {"directory": str(tmp_path / "run"),
                                    "checkpoint_every": 25}})
    first = runio.run(cfg, stop_after_outputs=90)
    resumed = runio.resume(tmp_path / "run")
    params = derive_constants(3, 0.5, 2.0, 1.0)
    path = correction_path(params, 100.0)
    assert len(first.trajectory.times) == 90 and resumed.trajectory.times[0] > 0.0
    for result in (first, resumed):
        _assert_matches_reference(result.trajectory, path, params)


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_stacked_mode_energies_equal_the_per_output_loop(mode, lam):
    params = derive_constants(2, lam, 2.0, 1.0)
    path = correction_path(params, 20.0)
    grid = WeightedGrid(params, 32)
    traj = evolve_mode(grid, path, default_planar_state(grid, mode), 20.0)
    assert len(traj.times) > BLOCK_VALUES // grid.num_nodes   # more than one block
    _assert_columns_equal(traj.energies, reference.mode_energy_columns(
        PlanarModeOperator(grid, path, mode), traj.states))
