"""Time-weighted energy functionals of the perturbation field.

Each component with indices (m, i, j) combines three sigma-weighted L2
norms of partial_t^m d^i dbar^j omega with the time weights

    (1+t)^(2m + (1-delta_{0m}) kappa) *
        [ (1+t)^(1+lam) |sigma^((iota+i)/2) partial_t^(m+1) d^i dbar^j omega|^2
          + |sigma^((iota+i)/2) partial_t^m d^i dbar^j omega|^2
          + |sigma^((iota+i+1)/2) partial_t^m d^(i+1) dbar^j omega|^2 ].

The implemented index set is the deliberate desk-scale truncation
m+i+j <= 2 plus the once-more-time-differentiated components (m+1, i, j)
at m+i+j = 2; the full high-order family is out of numerical reach with
grid differentiation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .derivnorms import radial_form, required_scalars
from .tables import read_csv, write_csv
from .weighted import WeightedGrid

ENERGY_LEVEL = 2


class UnsupportedOrderError(ValueError):
    """Raised when a derivative order outside the implemented set is requested."""


def energy_indices(level: int = ENERGY_LEVEL) -> list[tuple[int, int, int]]:
    """Implemented (m, i, j) set: the full simplex up to ``level`` plus the
    time-augmented top shell."""
    base = [
        (m, i, j)
        for total in range(level + 1)
        for m in range(total + 1)
        for i in range(total - m + 1)
        for j in (total - m - i,)
    ]
    top = [(m + 1, i, j) for (m, i, j) in base if m + i + j == level]
    return base + top


def time_weight(m: int, t: float, kappa: float) -> float:
    return (1.0 + t) ** (2 * m + (0 if m == 0 else 1) * kappa)


class RadialEnergies:
    """Energy components for radially symmetric perturbations w(r) y/|y|.

    Angular derivatives of radial fields are evaluated through the closed
    forms of :mod:`vaclab.derivnorms` rather than grid differentiation.
    """

    def __init__(self, grid: WeightedGrid):
        self.grid = grid
        self.params = grid.params

    def _scalar_values(self, w_nodal: np.ndarray, names: Sequence[str], exponent: float):
        g = self.grid
        rule = g.rule(exponent)
        r0_sq = self.params.R0 ** 2
        p, p1, su = g.radial_strain(np.asarray(w_nodal, dtype=float))   # su = w' (even in r)
        g_vp = (2.0 / r0_sq) * p1        # vp and e coincide for radial fields
        g_up = (2.0 / r0_sq) * (g.d_s @ su)
        svals = {"w": (p, 1), "v": (p, 0), "u": (su, 0),
                 "vp": (g_vp, 1), "e": (g_vp, 1), "up": (g_up, 1)}
        if "vpp" in names or "ep" in names or "upp" in names:
            svals["vpp"] = (g_vp + 2.0 * g.s * (g.d_s @ g_vp), 0)
            svals["ep"] = svals["vpp"]
            svals["upp"] = (g_up + 2.0 * g.s * (g.d_s @ g_up), 0)
        out = {"r": rule.r}
        for name in names:
            vals, parity = svals[name]
            resampled = g.to_rule(rule, vals)
            out[name] = resampled * rule.r if parity else resampled
        return out

    def spatial_norm(self, w_nodal: np.ndarray, i: int, j: int, exponent: float) -> float:
        """int_Omega sigma^exponent |d^i dbar^j omega|^2 dy for omega = w y/|y|."""
        try:
            names = required_scalars(i, j)
        except KeyError:
            raise UnsupportedOrderError(
                f"spatial/angular derivative order (d^{i}, dbar^{j}) not implemented"
            ) from None
        vals = self._scalar_values(w_nodal, names, exponent)
        return self.grid.integrate_ball(exponent, radial_form(i, j, self.params.n, vals))

    def component(self, time_derivs: Mapping[int, np.ndarray],
                  m: int, i: int, j: int, t: float) -> float:
        """E^{m,i,j}(t) from nodal arrays of partial_t^k w, k = m, m+1."""
        if m + 1 not in time_derivs or m not in time_derivs:
            raise UnsupportedOrderError(
                f"time derivative order {m + 1} not available in the trajectory"
            )
        p = self.params
        a = p.iota + i
        t1 = (1.0 + t) ** (1.0 + p.lam) * self.spatial_norm(time_derivs[m + 1], i, j, a)
        t2 = self.spatial_norm(time_derivs[m], i, j, a)
        t3 = self.spatial_norm(time_derivs[m], i + 1, j, a + 1.0)
        return time_weight(m, t, p.kappa) * (t1 + t2 + t3)


class ModeEnergies:
    """Energy components for a single planar angular mode (n = 2).

    Fields are carried by harmonic potentials f, g with
    omega = grad(f cos(l phi)) + perp-grad(g sin(l phi)), f, g = r^l p(s);
    dbar = d/dphi acts harmonic-by-harmonic, so the phi integrals reduce to
    closed factors on the two amplitude profiles (harmonics l -+ 1).
    Implemented orders: i = 0, j <= 2.
    """

    def __init__(self, grid: WeightedGrid, mode: int):
        if grid.params.n != 2:
            raise UnsupportedOrderError("mode energies are implemented for n = 2")
        if mode < 1:
            raise ValueError("angular wavenumber must be >= 1")
        self.grid = grid
        self.params = grid.params
        self.mode = int(mode)

    def _amplitudes(self, pf: np.ndarray, pg: np.ndarray, rule):
        # polar profiles: omega_r = a cos(l phi), omega_phi = -b sin(l phi),
        # a = f' - l g / r, b = l f / r - g'; harmonics l -+ 1 carry (a+-b)/2
        g, ell = self.grid, self.mode
        pf1 = g.d_s @ pf
        pg1 = g.d_s @ pg
        q_minus = ell * (pf - pg) + g.s * (pf1 - pg1)
        q_plus = g.s * (pf1 + pg1)
        out = []
        for q in (q_minus, q_plus):
            q1 = g.d_s @ q
            amp = g.to_rule(rule, q) * rule.r ** (ell - 1)
            # amp' = r^(l-2) [(l-1) q + 2 s q']
            damp = g.to_rule(rule, (ell - 1.0) * q + 2.0 * g.s * q1) * rule.r ** (ell - 2)
            out.append((amp, damp))
        return out

    def spatial_norm(self, potentials: tuple[np.ndarray, np.ndarray],
                     i: int, j: int, exponent: float) -> float:
        if i not in (0, 1) or j not in (0, 1, 2):
            raise UnsupportedOrderError(
                f"mode energies support i <= 1 and j <= 2, got (i={i}, j={j})"
            )
        rule = self.grid.rule(exponent)
        pf, pg = potentials
        amps = self._amplitudes(np.asarray(pf, float), np.asarray(pg, float), rule)
        harmonics = (self.mode - 1, self.mode + 1)
        total = np.zeros_like(rule.r)
        for (amp, damp), m_h in zip(amps, harmonics):
            angular = float(m_h) ** (2 * j) if (m_h or j == 0) else 0.0
            if angular == 0.0:
                continue
            if i == 0:
                total += angular * amp ** 2
            else:
                total += angular * (damp ** 2 + m_h ** 2 * amp ** 2 / rule.r ** 2)
        return 2.0 * np.pi * self.grid.integrate(exponent, total)

    def component(self, time_derivs: Mapping[int, tuple], m: int, i: int, j: int,
                  t: float) -> float:
        if i != 0:
            raise UnsupportedOrderError("mode energy components are restricted to i = 0")
        if m + 1 not in time_derivs or m not in time_derivs:
            raise UnsupportedOrderError(
                f"time derivative order {m + 1} not available in the mode trajectory"
            )
        p = self.params
        a = p.iota
        t1 = (1.0 + t) ** (1.0 + p.lam) * self.spatial_norm(time_derivs[m + 1], 0, j, a)
        t2 = self.spatial_norm(time_derivs[m], 0, j, a)
        t3 = self.spatial_norm(time_derivs[m], 1, j, a + 1.0)
        return time_weight(m, t, p.kappa) * (t1 + t2 + t3)


@dataclass
class EnergyReport:
    """Sampled energy components over the output times of a run."""

    times: np.ndarray
    components: dict[tuple[int, int, int], np.ndarray]
    indices: list[tuple[int, int, int]]

    @property
    def total(self) -> np.ndarray:
        return np.sum([self.components[idx] for idx in self.indices], axis=0)

    def columns(self) -> dict[str, np.ndarray]:
        """The columns of energies.csv: t, each component E_m_i_j, E_total."""
        return {"t": self.times,
                **{"E_{}_{}_{}".format(*idx): self.components[idx] for idx in self.indices},
                "E_total": self.total}

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray]) -> EnergyReport:
        names = list(columns)[1:-1]
        indices = [tuple(int(v) for v in name.split("_")[1:]) for name in names]
        return cls(times=columns["t"], indices=indices,
                   components={idx: columns[name] for idx, name in zip(indices, names)})

    def write_csv(self, path) -> None:
        columns = self.columns()
        write_csv(path, columns, zip(*columns.values()))


def read_energy_csv(path) -> EnergyReport:
    return EnergyReport.from_columns(read_csv(path))
