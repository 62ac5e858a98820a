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

Radial energies are evaluated once per output for all 16 components:
the time derivatives k = 0..4 are stacked as rows of one (K, m) array, the
radial scalars of all rows come from one product against d_s per
derivative level, each sigma exponent iota+i (i = 0..3) resamples them
with one product, and each closed form is integrated with one product
against the rule weights.  The component calls of that output read the
kept result.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .derivnorms import SUPPORTED_FORMS, radial_form, required_scalars
from .quadrature import unit_sphere_area
from .weighted import WeightedGrid

ENERGY_LEVEL = 2


class UnsupportedOrderError(ValueError):
    """Raised when a derivative order outside the implemented set is requested."""


def energy_indices() -> list[tuple[int, int, int]]:
    """Implemented (m, i, j) set: the full simplex up to ``ENERGY_LEVEL``
    plus the time-augmented top shell."""
    base = [
        (m, i, j)
        for total in range(ENERGY_LEVEL + 1)
        for m in range(total + 1)
        for i in range(total - m + 1)
        for j in (total - m - i,)
    ]
    top = [(m + 1, i, j) for (m, i, j) in base if m + i + j == ENERGY_LEVEL]
    return base + top


def energy_columns(times, components: Mapping[tuple[int, int, int], list[float]]
                   ) -> dict[str, np.ndarray]:
    """The columns of energies.csv: t, each component E_m_i_j in the order
    of ``components``, and E_total, their sum."""
    columns = {"E_{}_{}_{}".format(*idx): np.array(values)
               for idx, values in components.items()}
    return {"t": np.array(times), **columns,
            "E_total": np.sum(list(columns.values()), axis=0)}


def time_weight(m: int, t: float, kappa: float) -> float:
    return (1.0 + t) ** (2 * m + (0 if m == 0 else 1) * kappa)


# radial scalar of derivnorms -> (nodal scalar it samples, times r at the rule nodes)
_SAMPLES = {"w": ("p", True), "v": ("p", False), "u": ("u", False),
            "vp": ("vp", True), "e": ("vp", True), "up": ("up", True),
            "vpp": ("vpp", False), "ep": ("vpp", False), "upp": ("upp", False)}
# the forms of each spatial order i, all integrated against sigma^(iota+i)
_FORMS_BY_ORDER = {i: tuple(form for form in SUPPORTED_FORMS if form[0] == i)
                   for i in range(4)}


def _check_form(i: int, j: int) -> None:
    if (i, j) not in SUPPORTED_FORMS:
        raise UnsupportedOrderError(
            f"spatial/angular derivative order (d^{i}, dbar^{j}) not implemented")


class RadialEnergies:
    """Energy components for radially symmetric perturbations w(r) y/|y|.

    Angular derivatives of radial fields are evaluated through the closed
    forms of :mod:`vaclab.derivnorms` rather than grid differentiation.
    Norms are computed for a stack of fields at once: :meth:`component`
    evaluates every supported norm of every time derivative of one output
    in one pass and keeps it for the next call with the same mapping and t.
    """

    def __init__(self, grid: WeightedGrid):
        self.grid = grid
        self.params = grid.params
        self._area = unit_sphere_area(self.params.n)
        self._last = None   # (time_derivs, t, row of each order, norms)

    def _scalars(self, stack: np.ndarray) -> dict[str, np.ndarray]:
        """Nodal radial scalars of each row of a (K, m) stack of fields,
        with one product against d_s per derivative level."""
        g = self.grid
        scale = 2.0 / self.params.R0 ** 2
        p, p1, su = g.radial_strain(stack)      # su = w' (even in r)
        g_vp = scale * p1                       # vp and e coincide for radial fields
        g_up = scale * (su @ g.d_s.T)
        slopes = np.concatenate([g_vp, g_up]) @ g.d_s.T
        k = len(stack)
        return {"p": p, "u": su, "vp": g_vp, "up": g_up,
                "vpp": g_vp + g._two_s * slopes[:k], "upp": g_up + g._two_s * slopes[k:]}

    def _norms(self, scalars: dict[str, np.ndarray], exponent: float,
               forms) -> dict[tuple[int, int], list[float]]:
        """int_Omega sigma^exponent |d^i dbar^j omega|^2 dy of each stacked
        field for each (i, j) in ``forms``, with one resampling product."""
        rule = self.grid.rule(exponent)
        names = {name for form in forms for name in required_scalars(*form)}
        bases = sorted({_SAMPLES[name][0] for name in names})
        k = len(scalars["p"])
        sampled = (np.concatenate([scalars[b] for b in bases]) @ rule.resample.T
                   ).reshape(len(bases), k, -1)
        vals = {"r": rule.r}
        for name in names:
            base, odd = _SAMPLES[name]
            at_rule = sampled[bases.index(base)]
            vals[name] = at_rule * rule.r if odd else at_rule
        n = self.params.n
        return {form: (self._area * (radial_form(*form, n, vals) @ rule.weights)).tolist()
                for form in forms}

    def spatial_norm(self, w_nodal: np.ndarray, i: int, j: int, exponent: float) -> float:
        """int_Omega sigma^exponent |d^i dbar^j omega|^2 dy for omega = w y/|y|."""
        _check_form(i, j)
        stack = np.asarray(w_nodal, dtype=float)[np.newaxis]
        return self._norms(self._scalars(stack), exponent, [(i, j)])[i, j][0]

    def _stacked_pass(self, time_derivs: Mapping[int, np.ndarray]):
        """Every supported norm of every time derivative, the norms of
        spatial order i against sigma^(iota+i)."""
        orders = sorted(time_derivs)
        scalars = self._scalars(np.array([time_derivs[k] for k in orders], dtype=float))
        norms = {}
        for i, forms in _FORMS_BY_ORDER.items():
            norms.update(self._norms(scalars, self.params.iota + i, forms))
        return {k: row for row, k in enumerate(orders)}, norms

    def component(self, time_derivs: Mapping[int, np.ndarray],
                  m: int, i: int, j: int, t: float) -> float:
        """E^{m,i,j}(t) from nodal arrays of partial_t^k w, k = m, m+1.

        The norms of the last (time_derivs, t) are kept, so the arrays of a
        mapping must not change between calls at the same t."""
        if m + 1 not in time_derivs or m not in time_derivs:
            raise UnsupportedOrderError(
                f"time derivative order {m + 1} not available in the trajectory"
            )
        _check_form(i, j)
        _check_form(i + 1, j)
        last = self._last
        if last is None or last[0] is not time_derivs or last[1] != t:
            last = self._last = (time_derivs, t, *self._stacked_pass(time_derivs))
        rows, norms = last[2], last[3]
        p = self.params
        t1 = (1.0 + t) ** (1.0 + p.lam) * norms[i, j][rows[m + 1]]
        t2 = norms[i, j][rows[m]]
        t3 = norms[i + 1, j][rows[m]]
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
