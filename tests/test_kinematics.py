"""Flow-map algebra: Jacobian, inverse matrix, and discrete identities."""
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from vaclab import kinematics
from vaclab.kinematics import (DeformationDegenerateError, adjugate_residual,
                               apply_d, box_grid, build_deformation, check_identities,
                               curl_eta, deformation_on_window, div_eta, grad_eta,
                               gradient_tensor, radial_vector_field, random_smooth_field)
from vaclab.suite import jacobian_expansion_residuals, verify


def interior_mask(grid, margin):
    """Nodes at least ``margin`` * width away from every box face."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[grid.interior_window(margin)] = True
    return mask


def d1_matrix(m: int, h: float) -> np.ndarray:
    """Dense oracle of ``apply_d``: the first-derivative matrix with the
    4th-order centred rows inside and 3rd-order one-sided rows at the two
    boundary pairs."""
    d = np.zeros((m, m))
    for i in range(2, m - 2):
        d[i, i - 2:i + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    d[0, 0:4] = np.array([-11.0, 18.0, -9.0, 2.0]) / (6.0 * h)
    d[1, 0:4] = np.array([-2.0, -3.0, 6.0, -1.0]) / (6.0 * h)
    d[m - 1, m - 4:m] = -np.array([2.0, -9.0, 18.0, -11.0]) / (6.0 * h)
    d[m - 2, m - 4:m] = -np.array([-1.0, 6.0, -3.0, -2.0]) / (6.0 * h)
    return d


def _along(matrix, field, axis):
    return np.moveaxis(np.tensordot(matrix, field, axes=([1], [axis])), 0, axis)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("npts", [6, 9, 17, 65])
def test_stencil_matches_dense_oracle(n, npts):
    # every node within 4 eps of the dense product, relative to the sum of
    # the magnitudes of its terms
    g = box_grid(n, 1.0, npts)
    field = np.random.default_rng(npts + n).standard_normal(g.shape)
    d = d1_matrix(npts, g.spacing)
    for axis in range(n):
        got = apply_d(g, field, axis)
        assert got.flags.c_contiguous
        want = _along(d, field, axis)
        scale = _along(np.abs(d), np.abs(field), axis)
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * scale), axis


@pytest.mark.parametrize("npts", [3, 5])
def test_stencil_refuses_fewer_than_six_nodes(npts):
    g = box_grid(2, 1.0, npts)
    with pytest.raises(ValueError, match="at least 6 points"):
        apply_d(g, np.zeros(g.shape), 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("axis", [0, 1])
def test_stencil_is_crop_stable_in_2d(seed, axis):
    # a crop 1..7 nodes off each face gives every node at least 2 inside it
    # the whole box's derivative, bit for bit
    g = box_grid(2, 1.0, 33)
    field = np.random.default_rng(seed).standard_normal(g.shape)
    full = apply_d(g, field, axis)
    for off in range(1, 8):
        sub, outer, _ = g.crop((slice(off, 33 - off),) * 2, halo=0)
        inside = [slice(None)] * 2
        inside[axis] = slice(2, -2)
        inside = tuple(inside)
        got = apply_d(sub, field[outer], axis)[inside]
        assert np.array_equal(got, full[outer][inside]), off


def test_zero_field_gives_identity():
    g = box_grid(3, 1.0, 17)
    fld = build_deformation(g, np.zeros(g.shape + (3,)))
    assert np.max(np.abs(fld.jacobian - 1.0)) == 0.0
    assert np.max(np.abs(fld.inverse_matrix - np.eye(3))) == 0.0


def test_uniform_dilation():
    g = box_grid(3, 1.0, 17)
    c = 0.01
    omega = np.stack([c * axis for axis in g.meshgrid()], axis=-1)
    fld = build_deformation(g, omega)
    assert np.allclose(fld.jacobian, 1.01 ** 3, rtol=1e-12)
    assert np.allclose(fld.inverse_matrix, np.eye(3) / 1.01, rtol=1e-12)


def test_jacobian_expansion_orders():
    amp = 1e-3
    g2 = box_grid(2, 1.0, 33)
    fld2 = build_deformation(g2, random_smooth_field(g2, np.random.default_rng(3), amp))
    res2 = jacobian_expansion_residuals(fld2)
    assert res2["quadratic"] <= 1e-12          # expansion is exact in 2D
    assert res2["linear"] <= 10.0 * amp ** 2

    g3 = box_grid(3, 1.0, 33)
    fld3 = build_deformation(g3, random_smooth_field(g3, np.random.default_rng(3), amp))
    res3 = jacobian_expansion_residuals(fld3)
    assert res3["cubic"] <= 1e-12              # cubic adjugate term closes it
    assert res3["quadratic"] <= 10.0 * amp ** 3
    assert res3["quadratic"] > 1e-14           # and the cubic term is needed


def test_adjugate_consistency_roundoff():
    g = box_grid(3, 1.0, 21)
    fld = build_deformation(g, random_smooth_field(g, np.random.default_rng(1), 0.05))
    assert adjugate_residual(fld) <= 1e-13


def test_kinematic_identities_fail_on_a_flipped_cofactor(monkeypatch):
    # adjugate_residual forms its own minors, so a sign error in the closed
    # form that build_deformation uses fails the check; the affine field's
    # identity residuals cannot see it, since its A is constant
    closed_form = kinematics._adjugate

    def flipped(m):
        adj = closed_form(m)
        adj[..., 1, 2] *= -1.0
        return adj

    assert verify(only="kinematic-identities").ok
    monkeypatch.setattr(kinematics, "_adjugate", flipped)
    result = verify(only="kinematic-identities").results[0]
    assert not result.passed
    assert result.details["adjugate_residual"] > 1e-3
    assert result.details["affine_residual"] <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_matches_lapack(n):
    g = box_grid(n, 1.0, 17)
    fld = build_deformation(g, random_smooth_field(g, np.random.default_rng(n), 0.3))
    m = fld.grad_omega + np.eye(n)
    assert np.allclose(fld.jacobian, np.linalg.det(m), rtol=1e-14, atol=0.0)
    assert np.allclose(fld.inverse_matrix, np.linalg.inv(m), rtol=0.0, atol=1e-14)


def test_deformation_and_identities_call_no_blas_or_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kinematics called a BLAS product or LAPACK")

    monkeypatch.setattr(np.linalg, "det", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np, "tensordot", refuse)
    for n in (2, 3):
        g = box_grid(n, 1.0, 17)
        fld = build_deformation(g, random_smooth_field(g, np.random.default_rng(n), 0.05))
        check_identities(fld, margin=0.2)
        adjugate_residual(fld)


def test_small_deformation_matrix_bounds():
    # |d omega| small keeps J in [1/2, 2] and every entry of A within 2
    g = box_grid(3, 1.0, 25)
    fld = build_deformation(g, random_smooth_field(g, np.random.default_rng(9), 0.1))
    assert 0.5 <= fld.jacobian.min() and fld.jacobian.max() <= 2.0
    assert np.max(np.abs(fld.inverse_matrix)) <= 2.0


def test_identities_affine_exact():
    g = box_grid(3, 1.0, 25)
    grids = g.meshgrid()
    omega = np.stack([
        0.01 * grids[0] + 0.002 * grids[1],
        -0.003 * grids[0] + 0.005 * grids[2],
        0.001 * grids[1],
    ], axis=-1)
    rep = check_identities(build_deformation(g, omega), margin=0.2)
    assert rep.piola <= 1e-13
    assert rep.jacobian_derivative <= 1e-13
    assert rep.inverse_derivative <= 1e-13


def test_identities_richardson_ratio():
    reports = {}
    for npts in (33, 65):
        g = box_grid(3, 1.0, npts)
        omega = random_smooth_field(g, np.random.default_rng(7), 1e-3)
        reports[npts] = check_identities(build_deformation(g, omega), margin=0.2)
    for attr in ("piola", "jacobian_derivative", "inverse_derivative"):
        ratio = getattr(reports[33], attr) / getattr(reports[65], attr)
        assert ratio == pytest.approx(16.0, rel=0.3), attr


def test_rotation_field_derivative_of_determinant():
    # omega = eps (-y2, y1): J = 1 + eps^2 is constant, so dJ must vanish
    g = box_grid(2, 1.0, 33)
    grids = g.meshgrid()
    eps = 0.01
    omega = np.stack([-eps * grids[1], eps * grids[0]], axis=-1)
    fld = build_deformation(g, omega)
    assert np.allclose(fld.jacobian, 1.0 + eps ** 2, rtol=1e-13)
    rep = check_identities(fld, margin=0.2)
    assert rep.jacobian_derivative <= 1e-13


def test_eta_operators_flat_reduction():
    g = box_grid(2, 1.0, 49)
    fld = build_deformation(g, np.zeros(g.shape + (2,)))
    grids = g.meshgrid()
    f = np.sin(1.3 * grids[0]) * np.cos(0.9 * grids[1])
    grad = grad_eta(fld, f)
    mask = interior_mask(g, 0.2)
    exact_x = 1.3 * np.cos(1.3 * grids[0]) * np.cos(0.9 * grids[1])
    assert np.max(np.abs((grad[..., 0] - exact_x)[mask])) <= 1e-6
    vec = np.stack([f, -f], axis=-1)
    div = div_eta(fld, vec)
    exact_div = exact_x + 0.9 * np.sin(1.3 * grids[0]) * np.sin(0.9 * grids[1])
    assert np.max(np.abs((div - exact_div)[mask])) <= 1e-6


def test_curl_eta_annihilates_grad_eta():
    devs = {}
    for npts in (65, 129):
        g = box_grid(2, 1.0, npts)
        omega = random_smooth_field(g, np.random.default_rng(1), 0.05)
        fld = build_deformation(g, omega)
        grids = g.meshgrid()
        f = np.sin(2.0 * grids[0]) * np.cos(1.5 * grids[1])
        resid = curl_eta(fld, grad_eta(fld, f))
        devs[npts] = np.max(np.abs(resid[interior_mask(g, 0.2)]))
    assert devs[65] <= 1e-4
    assert devs[65] / devs[129] == pytest.approx(16.0, rel=0.35)


def test_grad_eta_within_factor_two_of_flat():
    g = box_grid(3, 1.0, 33)
    omega = random_smooth_field(g, np.random.default_rng(4), 0.1)
    fld = build_deformation(g, omega)
    grids = g.meshgrid()
    f = np.sin(grids[0] + 0.5 * grids[1]) * np.cos(grids[2])
    grad_def = grad_eta(fld, f)
    from vaclab.kinematics import apply_d

    flat = np.stack([apply_d(g, f, k) for k in range(3)], axis=-1)
    mask = interior_mask(g, 0.2)
    norm_def = np.linalg.norm(grad_def, axis=-1)[mask]
    norm_flat = np.linalg.norm(flat, axis=-1)[mask]
    keep = norm_flat > 0.1 * norm_flat.max()
    ratio = norm_def[keep] / norm_flat[keep]
    assert np.all(ratio >= 0.5) and np.all(ratio <= 2.0)


def test_noninvertible_deformation_names_node():
    g = box_grid(2, 1.0, 25)
    grids = g.meshgrid()
    omega = np.stack([-1.5 * grids[0], 0.0 * grids[1]], axis=-1)
    with pytest.raises(DeformationDegenerateError) as exc:
        build_deformation(g, omega)
    assert len(exc.value.node_index) == 2
    assert exc.value.det_value <= 0.0


def test_radial_vector_field_center_limit():
    g = box_grid(3, 0.5, 21)
    omega = radial_vector_field(g, lambda r: 0.3 * r)
    assert np.allclose(omega, 0.3 * np.stack(g.meshgrid(), axis=-1), atol=1e-8)


def _full_box_identities(field, margin):
    """Reference: every residual formed on the whole box, then masked to
    the nodes at least ``margin`` * width from every face."""
    grid, n = field.grid, field.grid.n
    a, jac = field.inverse_matrix, field.jacobian
    mask = np.ones(grid.shape, dtype=bool)
    for ax_idx, ax in enumerate(grid.axes):
        width = ax[-1] - ax[0]
        keep = (ax >= ax[0] + margin * width) & (ax <= ax[-1] - margin * width)
        shape = [1] * n
        shape[ax_idx] = ax.size
        mask &= keep.reshape(shape)
    piola = 0.0
    for i in range(n):
        resid = np.zeros(grid.shape)
        for k in range(n):
            resid += apply_d(grid, jac * a[..., k, i], k)
        piola = max(piola, float(np.max(np.abs(resid[mask]))))
    dd = [[[apply_d(grid, field.grad_omega[..., r, s], j) for s in range(n)]
           for j in range(n)] for r in range(n)]
    jac_resid = 0.0
    for j in range(n):
        rhs = np.zeros(grid.shape)
        for r in range(n):
            for s in range(n):
                rhs += jac * a[..., s, r] * dd[r][j][s]
        lhs = apply_d(grid, jac, j)
        jac_resid = max(jac_resid, float(np.max(np.abs((lhs - rhs)[mask]))))
    inv_resid = 0.0
    for j in range(n):
        for k in range(n):
            for i in range(n):
                rhs = np.zeros(grid.shape)
                for r in range(n):
                    for s in range(n):
                        rhs -= a[..., k, r] * a[..., s, i] * dd[r][j][s]
                lhs = apply_d(grid, a[..., k, i], j)
                inv_resid = max(inv_resid, float(np.max(np.abs((lhs - rhs)[mask]))))
    return piola, jac_resid, inv_resid


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("margin", [0.05, 0.2, 0.3])
def test_identities_on_window_crop_equal_full_box(n, margin):
    # 17 nodes: margin 0.05 leaves 1 node outside the window, so the
    # 2-node halo is clamped at the faces; 0.2 and 0.3 leave 4 and 5
    g = box_grid(n, 1.0, 17)
    fld = build_deformation(g, random_smooth_field(g, np.random.default_rng(n), 0.02))
    rep = check_identities(fld, margin=margin)
    got = (rep.piola, rep.jacobian_derivative, rep.inverse_derivative)
    want = _full_box_identities(fld, margin)
    assert got == want
    assert min(want[1:]) > 1e-6
    assert rep.margin == margin


def test_crop_clamps_halo_at_the_box():
    g = box_grid(2, 1.0, 33)
    window = g.interior_window(0.2)
    assert window == (slice(7, 26),) * 2
    sub, outer, inner = g.crop(window, halo=4)
    assert outer == (slice(3, 30),) * 2 and inner == (slice(4, 23),) * 2
    assert np.array_equal(sub.axes[0], g.axes[0][3:30]) and sub.spacing == g.spacing
    sub, outer, inner = g.crop(g.interior_window(0.05), halo=4)
    assert outer == (slice(0, 33),) * 2 and inner == (slice(2, 31),) * 2
    mask = np.zeros(g.shape, dtype=bool)
    mask[window] = True
    assert np.array_equal(interior_mask(g, 0.2), mask)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("npts", [17, 33])
@pytest.mark.parametrize("margin", [0.05, 0.2, 0.3])
def test_identities_of_window_deformation_equal_full_box(n, npts, margin):
    # at margin 0.05 the 4-node halo is clamped at the faces (1 node lies
    # outside the window at 17 nodes, 2 at 33)
    g = box_grid(n, 1.0, npts)
    omega = random_smooth_field(g, np.random.default_rng(n + npts), 0.02)
    window = g.interior_window(margin)
    sub, outer, inner = g.crop(window, halo=4)
    assert sub.faces == g.faces
    assert sub.interior_window(margin) == inner
    assert np.array_equal(interior_mask(sub, margin), interior_mask(g, margin)[outer])

    fld = deformation_on_window(g, omega, margin)
    assert fld.grid.shape == sub.shape and fld.omega.base is None
    want = check_identities(build_deformation(g, omega), margin)
    got = check_identities(fld, margin)
    assert got == want
    assert min(want.jacobian_derivative, want.inverse_derivative) > 1e-6


def _dense_random_smooth_field(grid, rng, grad_amplitude, waves=2):
    """Reference: the field sampled on the full meshgrid and scaled by the
    full gradient tensor."""
    grids = grid.meshgrid()
    width = grid.axes[0][-1] - grid.axes[0][0]
    omega = np.zeros(grid.shape + (grid.n,))
    for i in range(grid.n):
        acc = np.zeros(grid.shape)
        for _ in range(waves):
            k = rng.integers(1, 3, size=grid.n)
            phase = rng.uniform(0, 2 * np.pi, size=grid.n)
            amp = rng.uniform(0.5, 1.0)
            term = np.ones(grid.shape) * amp
            for ax in range(grid.n):
                term = term * np.sin(2 * np.pi * k[ax] * grids[ax] / width + phase[ax])
            acc += term
        omega[..., i] = acc
    scale = np.max(np.abs(gradient_tensor(grid, omega)))
    return omega * (grad_amplitude / scale)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("npts", [17, 33])
@pytest.mark.parametrize("seed", [0, 12345])
def test_random_smooth_field_equals_dense_reference(n, npts, seed):
    g = box_grid(n, 1.0, npts)
    got = random_smooth_field(g, np.random.default_rng(seed), 1e-3)
    want = _dense_random_smooth_field(g, np.random.default_rng(seed), 1e-3)
    assert np.array_equal(got, want)


def test_piola_richardson_seed0_ratios_pinned():
    # the full-box route's ratios; 1e-10 relative catches a change of
    # derivative stencil (about 1e-6)
    result = verify(only="piola-richardson", seed=0).results[0]
    assert result.passed
    assert result.details["ratios"] == pytest.approx(
        {"piola": 14.545687541767496, "jacobian_derivative": 15.221764106703896,
         "inverse_derivative": 14.380282961081928}, rel=1e-10, abs=0.0)


def test_piola_richardson_peak_memory():
    # the 65-node pass sets the check's peak: 68.6 MB with the deformation
    # built on the whole box, 32.4 MB on the window plus its halo
    tracemalloc.start()
    try:
        verify(only="piola-richardson", seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40e6, f"peak {peak / 1e6:.1f} MB"


_WORKER_CPU_OF = textwrap.dedent("""
    import os

    def worker_cpu():
        tick = os.sysconf("SC_CLK_TCK")
        cpu = 0.0
        for tid in os.listdir("/proc/self/task"):
            if int(tid) != os.getpid():
                with open(f"/proc/self/task/{tid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
                cpu += (int(fields[11]) + int(fields[12])) / tick   # utime + stime
        return cpu
""")

_WORKER_CPU = _WORKER_CPU_OF + textwrap.dedent("""
    from vaclab.suite import verify

    before = worker_cpu()
    for name in ("kinematic-identities", "piola-richardson",
                 "jacobian-expansion", "radial-oracle"):
        assert verify(only=name).ok, name
    print(worker_cpu() - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_kinematics_checks_leave_worker_threads_idle():
    # the checks run on the calling thread; a BLAS product or a LAPACK batch
    # would charge a worker thread (0.69 s with the dense tensordot stencil).
    # Importing NumPy alone costs OpenBLAS's worker about 0.06 s as it
    # starts, so the sum is taken over the checks only
    proc = subprocess.run([sys.executable, "-c", _WORKER_CPU], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    worker = float(proc.stdout.strip().splitlines()[-1])
    assert worker < 0.05, f"worker threads took {worker:.3f} s of CPU in the checks"


_PASS_WORKER_CPU = _WORKER_CPU_OF + textwrap.dedent("""
    import numpy as np
    from vaclab.correction import correction_path
    from vaclab.diagnostics import gap_series
    from vaclab.params import derive_constants
    from vaclab.radial import RadialState, evolve, seed_profile
    from vaclab.weighted import WeightedGrid

    params = derive_constants(3, 0.0, 2.0, 1.0)
    path = correction_path(params, 1e3)
    grid = WeightedGrid(params, 32)
    w0 = seed_profile("parabolic", 1e-3, grid)
    initial = RadialState(0.0, w0, np.zeros_like(w0))
    evolve(grid, path, initial, 10.0)
    before = worker_cpu()
    gap_series(evolve(grid, path, initial, 1e3), path, params)
    print(worker_cpu() - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_output_pass_leaves_worker_threads_idle():
    # the stacked pass repeats one output's product per output; one 2-D
    # product over a block's stacked rows would be threaded by OpenBLAS.
    # The charge is taken over one sweep cell's run and gaps (m = 32,
    # t <= 1e3, energies and reconstructions on), after a short run has
    # started the worker
    proc = subprocess.run([sys.executable, "-c", _PASS_WORKER_CPU], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    worker = float(proc.stdout.strip().splitlines()[-1])
    assert worker < 0.05, f"worker threads took {worker:.3f} s of CPU in the pass"
