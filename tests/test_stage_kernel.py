"""One DP5 stage equals its reference, bit for bit.

Each stage of a run reads d and c from ``CorrectionPath.stage_coefficients``,
forms the deformation factors and their logarithms as one stacked array,
and writes the right-hand side into one new array; the stepper slices its
Butcher rows once and takes its error norm without ``np.mean``'s wrapper.
``rhs_reference`` keeps the functions these replaced.  The right-hand
sides, the stiffness of single fields and of (T, 1, m) stacks, a DP5 step,
the error norm and the invariant failures must equal them bit for bit,
on states whose deformation factors come close to 0.
"""
import numpy as np
import pytest
import rhs_reference as reference

from vaclab.angular import PlanarModeOperator, ToroidalModeOperator
from vaclab.correction import CorrectionPath, correction_path
from vaclab.params import derive_constants
from vaclab.radial import (RadialInvariantError, RadialOperator, RadialState, evolve,
                           seed_profile)
from vaclab.timestepping import _dp5_step, _rms
from vaclab.weighted import WeightedGrid

T_END = 1e3


def _near_boundary(g, rng, shape=()):
    """Random smooth fields w = r p(s) of the given leading shape, scaled so
    that the smallest of X - 1 = w_r and Y - 1 = w/r of each field lies in
    [-0.999, -0.9]: a factor comes within 0.1 of 0."""
    w = g.r * (rng.standard_normal(shape + (4,)) @ g.s ** np.arange(4)[:, None])
    p = w / g.r
    strain = np.concatenate([p, p + g._two_s * (p @ g.d_s_t)], axis=-1)
    low, high = strain.min(axis=-1, keepdims=True), strain.max(axis=-1, keepdims=True)
    # where every strain is positive, -w has the negative one
    sign, low = np.where(low < 0.0, 1.0, -1.0), np.where(low < 0.0, low, -high)
    return sign * w * rng.uniform(0.9, 0.999, low.shape) / -low


@pytest.mark.parametrize("m", [16, 32, 256])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [2, 3])
def test_rhs_and_stiffness_equal_the_reference(n, gamma, lam, m):
    path = correction_path(derive_constants(n, lam, gamma, 1.0), T_END)
    g = WeightedGrid(path.params, m)
    op = RadialOperator(g, path)
    rng = np.random.default_rng([n, int(10 * gamma), int(10 * lam), m])
    for w in _near_boundary(g, rng, (4,)):
        _, _, x, y, _, _ = reference.deformation(g, w)
        assert 0.0 < min(x.min(), y.min()) <= 0.1
        t = float(rng.uniform(0.0, T_END))
        state = np.concatenate([w, rng.standard_normal(m) * np.abs(w).max()])
        assert np.array_equal(op.rhs(t, state), reference.rhs(op, t, state))
        assert np.array_equal(op.stiffness(w, t), reference.stiffness(op, w, t))
    stack = _near_boundary(g, rng, (5, 1))
    assert np.array_equal(op.stiffness(stack), reference.stiffness(op, stack))


@pytest.mark.parametrize("m", [16, 256])
def test_a_dp5_step_and_its_error_norm_equal_the_reference(m):
    path = correction_path(derive_constants(3, 0.5, 2.0, 1.0), T_END)
    op = RadialOperator(WeightedGrid(path.params, m), path)
    w = seed_profile("quartic", 1e-2, op.grid)
    y = np.concatenate([w, -w])
    k, k_ref = np.empty((7, 2 * m)), np.empty((7, 2 * m))
    k[0] = k_ref[0] = op.rhs(2.5, y)
    y5 = _dp5_step(op.rhs, 2.5, y, 0.01, k)
    assert np.array_equal(
        y5, reference.dp5_step(lambda t, v: reference.rhs(op, t, v), 2.5, y, 0.01, k_ref))
    assert np.array_equal(k, k_ref)
    rng = np.random.default_rng(m)
    for size in (1, 7, 64, 2 * m, 1000):
        z = rng.standard_normal(size) * 10.0 ** rng.uniform(-150, 150, size)
        assert _rms(z) == reference.rms(z)


def test_mode_rhs_equal_the_reference():
    rng = np.random.default_rng(5)
    path2 = correction_path(derive_constants(2, 0.3, 2.0, 1.0), 100.0)
    planar = PlanarModeOperator(WeightedGrid(path2.params, 32), path2, 3)
    path3 = correction_path(derive_constants(3, 0.3, 2.0, 1.0), 100.0)
    toroidal = ToroidalModeOperator(WeightedGrid(path3.params, 32), path3, 2)
    for t in rng.uniform(0.0, 100.0, 5).tolist():
        y, z = rng.standard_normal(128), rng.standard_normal(64)
        assert np.array_equal(planar.rhs(t, y), reference.planar_rhs(planar, t, y))
        assert np.array_equal(toroidal.rhs(t, z), reference.toroidal_rhs(toroidal, t, z))


def _failure(read):
    with pytest.raises(RadialInvariantError) as info:
        read()
    return info.value.t, info.value.node, info.value.factor


def test_invariant_failures_equal_the_reference():
    path = correction_path(derive_constants(3, 0.0, 2.0, 1.0), T_END)
    g = WeightedGrid(path.params, 32)
    op = RadialOperator(g, path)
    s_min = float(g.s.min())
    # p = -1 - 2 s_min + s: 1 + w/r <= 0 at the first node, while
    # 1 + w_r = -2 s_min + 3 s stays positive at every node
    y_fails = g.r * (-1.0 - 2.0 * s_min + g.s)
    # p = -0.5 - s: 1 + w_r = 0.5 - 3 s fails from s = 1/6 on, before 1 + w/r
    x_fails = g.r * (-0.5 - g.s)
    for w, factor in ((y_fails, "1 + w/r"), (x_fails, "1 + w_r")):
        state = np.concatenate([w, np.zeros_like(w)])
        got = _failure(lambda: op.rhs(4.5, state))
        assert got == _failure(lambda: reference.rhs(op, 4.5, state))
        assert got[2] == factor
        # in a stack, the node counts across the outputs
        stack = np.stack([np.zeros_like(w), w])[:, None]
        got = _failure(lambda: op.stiffness(stack, 1.5))
        assert got == _failure(lambda: reference.stiffness(op, stack, 1.5))
        assert got[1] >= g.num_nodes
    # a field with a NaN passes the check, as it did, and reads NaN
    nan = np.full(g.num_nodes, np.nan)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(op.stiffness(nan), reference.stiffness(op, nan), equal_nan=True)


def test_stepping_reads_only_the_stage_lookup(monkeypatch):
    # no stage reads d', d'', c' or c'': a run without energies never forms
    # the full coefficients, and each new stage time costs one dense
    # evaluation (5 per step, one more for the first step and after a
    # rejection, when the step cap reads the step's start again)
    path = correction_path(derive_constants(3, 0.0, 2.0, 1.0), T_END)
    g = WeightedGrid(path.params, 32)
    counts = {"coefficients": 0, "dense": 0}
    coefficients, dense = CorrectionPath.coefficients, path._dense

    def counting_coefficients(self, t):
        counts["coefficients"] += 1
        return coefficients(self, t)

    def counting_dense(t):
        counts["dense"] += 1
        return dense(t)

    monkeypatch.setattr(CorrectionPath, "coefficients", counting_coefficients)
    monkeypatch.setattr(path, "_dense", counting_dense)
    monkeypatch.setattr(path, "_last_stage", (None, None))
    w0 = seed_profile("quartic", 0.5, g)   # a seed whose run rejects a step
    traj = evolve(g, path, RadialState(0.0, w0, np.zeros_like(w0)), 50.0,
                  output_times=np.linspace(0.0, 50.0, 11), rel_tol=1e-9,
                  collect_energies=False, collect_reconstructions=False)
    attempted = traj.stats.steps + traj.stats.rejected
    assert traj.status == "completed"
    assert counts["coefficients"] == 0
    assert 5 * attempted < counts["dense"] <= 6 * attempted
