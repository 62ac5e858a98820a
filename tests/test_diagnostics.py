"""Decay-rate fitting and the theorem-rate / boundedness reports."""
import numpy as np
import pytest

from vaclab.correction import solve_correction
from vaclab.diagnostics import (boundedness_report, closed_form_gaps, gap_series,
                                theorem_rate_report)
from vaclab.energy import energy_indices
from vaclab.fitting import FitWindowError, decay_fit
from vaclab.params import derive_constants
from vaclab.radial import RadialState, evolve, seed_profile
from vaclab.tables import read_csv, write_csv
from vaclab.weighted import WeightedGrid


def test_fit_pure_power():
    t = np.geomspace(1.0, 1e4, 300)
    fit = decay_fit(t, (1.0 + t) ** -0.6)
    assert fit.exponent == pytest.approx(-0.6, abs=1e-6)
    assert fit.constant == pytest.approx(1.0, rel=1e-6)
    assert fit.residual <= 1e-10


def test_fit_log_corrected():
    t = np.geomspace(1.0, 1e4, 300)
    series = (1.0 + t) ** -0.8 * (1.0 + np.log1p(t))
    fit = decay_fit(t, series, log_corrected=True)
    assert fit.exponent == pytest.approx(-0.8, abs=0.01)


def test_fit_constant_series():
    t = np.geomspace(1.0, 1e4, 200)
    fit = decay_fit(t, np.full_like(t, 3.7))
    assert fit.exponent == pytest.approx(0.0, abs=1e-9)


def test_fit_excludes_nonpositive_and_counts():
    t = np.geomspace(1.0, 1e3, 100)
    series = (1.0 + t) ** -1.0
    series[::10] = 0.0
    fit = decay_fit(t, series)
    assert fit.n_excluded == 10
    assert fit.exponent == pytest.approx(-1.0, abs=1e-6)


def test_fit_window_errors():
    t = np.geomspace(1.0, 1e3, 100)
    with pytest.raises(FitWindowError):
        decay_fit(t, np.zeros_like(t))
    with pytest.raises(FitWindowError):
        decay_fit(t, (1.0 + t) ** -1.0, window=(2e3, 3e3))


@pytest.fixture(scope="module")
def anchor_setup():
    p = derive_constants(3, 0.0, 2.0, 1.0)
    path = solve_correction(p, 2e4)
    g = WeightedGrid(p, 48)
    zeros = np.zeros(48)
    traj = evolve(g, path, RadialState(0.0, zeros, zeros), 1e4,
                  collect_energies=False)
    return p, path, g, traj


def test_anchor_gaps_match_closed_forms(anchor_setup):
    p, path, g, traj = anchor_setup
    series = gap_series(traj, path, p)
    closed = closed_form_gaps(path, p, series["t"], float(g.r.max()))
    for name in ("position", "density", "velocity"):
        measured = series[f"{name}_gap"]
        scale = np.max(np.abs(closed[name]))
        assert np.max(np.abs(measured - closed[name])) <= 1e-10 * scale


def test_anchor_rate_report(anchor_setup):
    p, path, g, traj = anchor_setup
    series = gap_series(traj, path, p)
    rep = theorem_rate_report(series, path, p, r_max=float(g.r.max()), slack=0.05)
    assert rep.anchor
    assert rep.identity_max_rel_err <= 1e-10
    assert rep.envelopes == {"position": -0.8, "density": -1.6, "velocity": -1.8}
    assert rep.ok
    d = rep.to_dict()
    assert d["ok"] and set(d["exponents"]) == {"position", "density", "velocity"}


def test_rate_report_rejects_short_window(anchor_setup):
    p, path, g, traj = anchor_setup
    series = gap_series(traj, path, p)
    with pytest.raises(ValueError, match="two decades"):
        theorem_rate_report(series, path, p, r_max=1.0, window=(100.0, 1000.0))


def test_boundedness_not_applicable_for_anchor(anchor_setup):
    p, path, g, _ = anchor_setup
    zeros = np.zeros(48)
    traj = evolve(g, path, RadialState(0.0, zeros, zeros), 50.0,
                  output_times=np.linspace(0.0, 50.0, 30))
    rep = boundedness_report(traj.energies)
    assert not rep.applicable
    assert rep.ok


def test_boundedness_for_perturbed_run(anchor_setup):
    p, path, g, _ = anchor_setup
    w0 = seed_profile("parabolic", 1e-3, g)
    traj = evolve(g, path, RadialState(0.0, w0, np.zeros_like(w0)), 1e3)
    rep = boundedness_report(traj.energies, threshold=10.0)
    assert rep.applicable
    assert rep.total_ratio <= 10.0
    assert not rep.flagged
    assert rep.ok
    assert len(rep.component_ratios) == len(energy_indices())


def test_energy_csv_roundtrip(tmp_path, anchor_setup):
    p, path, g, _ = anchor_setup
    w0 = seed_profile("quartic", 1e-3, g)
    traj = evolve(g, path, RadialState(0.0, w0, np.zeros_like(w0)), 10.0,
                  output_times=np.linspace(0.0, 10.0, 6))
    out = tmp_path / "energies.csv"
    write_csv(out, traj.energies, zip(*traj.energies.values()))
    back = read_csv(out)
    assert list(back) == list(traj.energies)
    np.testing.assert_allclose(back["E_total"], traj.energies["E_total"], rtol=1e-15)
