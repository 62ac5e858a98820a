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

Energies are evaluated for a block of outputs at once: :func:`energy_row`
runs the evaluator's ``norms``, one stacked pass over every time derivative
of every output of the block, and hands it to ``component`` for each index
of the evaluator's ``INDICES``.  Each array of the pass carries the outputs
on its leading axis and keeps the shape it has for one output behind it, so
each product repeats one output's product per output, bit for bit.  For
radial fields the time derivatives k = 0..4 of an output are the rows of a
(5, m) array, the nodal scalars v, u, vp, up, vpp, upp of all rows come
from one product against d_s per derivative level, each sigma exponent
iota+i (i = 0..3) resamples the scalars its forms read with one product,
and each closed form is integrated with one product against the rule
weights.  The time weights are Python floats formed per output
(:func:`vaclab.correction.per_output`).  :func:`energy_columns` runs one
row per block of a run's :class:`OutputStack`, a slice of it;
:func:`output_blocks` bounds a block by ``BLOCK_VALUES`` outputs x nodes,
which bounds the pass's temporaries.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .correction import per_output
from .derivnorms import SUPPORTED_FORMS, radial_form
from .quadrature import unit_sphere_area
from .weighted import WeightedGrid

ENERGY_LEVEL = 2
# outputs x nodes of one block of the stacked pass, which bounds its
# temporaries: 8 outputs at 256 nodes, 64 at 32
BLOCK_VALUES = 2048


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


def output_blocks(outputs: int, nodes: int) -> list[slice]:
    """Consecutive blocks of ``outputs`` outputs for the stacked pass, each
    of at most ``BLOCK_VALUES // nodes`` outputs (at least one)."""
    size = max(1, BLOCK_VALUES // nodes)
    return [slice(start, min(start + size, outputs)) for start in range(0, outputs, size)]


class OutputStack:
    """A dataclass of outputs stacked on the leading axis of its array fields,
    sharing its scalar fields: indexing reads, and assigning writes, every array."""

    def __getitem__(self, block):
        return type(self)(*(v[block] if np.ndim(v) else v for v in vars(self).values()))

    def __setitem__(self, block, outputs):
        for name, v in vars(self).items():
            if np.ndim(v):
                v[block] = getattr(outputs, name)


def energy_row(evaluator, time_derivs: Mapping, t) -> dict[tuple[int, int, int], object]:
    """E^{m,i,j}(t) for each (m, i, j) of ``evaluator.INDICES`` from one
    pass of ``evaluator.norms``: of one output, or, when t is an array of
    output times and each array of ``time_derivs`` carries them on its
    leading axis, an array over them."""
    norms = evaluator.norms(time_derivs)
    return {idx: evaluator.component(norms, *idx, t) for idx in evaluator.INDICES}


def energy_columns(evaluator, states: OutputStack, derivatives) -> dict[str, np.ndarray] | None:
    """The columns of energies.csv of a stack of outputs, one
    :func:`energy_row` per block of outputs: t, each component E_m_i_j of
    ``evaluator.INDICES`` and E_total, their sum; None without outputs.
    ``derivatives`` maps a block of ``states`` to its time derivatives."""
    times = states.t.ravel()
    rows = [energy_row(evaluator, derivatives(states[block]), times[block])
            for block in output_blocks(len(times), evaluator.grid.num_nodes)]
    if not rows:
        return None
    columns = {"E_{}_{}_{}".format(*idx): np.concatenate([row[idx] for row in rows])
               for idx in evaluator.INDICES}
    return {"t": times, **columns, "E_total": np.sum(list(columns.values()), axis=0)}


def _component(norms: Mapping, m: int, i: int, j: int, t, params):
    """E^{m,i,j}(t) from the norms N_{i,j} of a stacked pass, whose last
    axis is the time order k: the time weight times
    [(1+t)^(1+lam) N_{i,j}(partial_t^(m+1)) + N_{i,j}(partial_t^m)
    + N_{i+1,j}(partial_t^m)]."""
    if m + 1 >= np.shape(norms[i, j])[-1]:
        raise UnsupportedOrderError(f"time derivative order {m + 1} not available")
    weight, growth = per_output(t, lambda s: (
        (1.0 + s) ** (2 * m + (0 if m == 0 else 1) * params.kappa),
        (1.0 + s) ** (1.0 + params.lam)))
    return weight * (growth * norms[i, j][..., m + 1] + norms[i, j][..., m]
                     + norms[i + 1, j][..., m])


# the nodal scalars of RadialEnergies._scalars that the forms of spatial
# order i read, all integrated against sigma^(iota+i)
_SCALARS_BY_ORDER = (("v",), ("v", "u", "vp"), ("v", "up", "vp", "vpp"),
                     ("up", "upp", "vp", "vpp"))
# the scalar at the rule nodes that r times a nodal scalar gives: w = r v,
# and vp, up are kept divided by r at the nodes
_TIMES_R = {"v": "w", "vp": "vp", "up": "up"}


class RadialEnergies:
    """Energy components for radially symmetric perturbations w(r) y/|y|.

    Angular derivatives of radial fields are evaluated through the closed
    forms of :mod:`vaclab.derivnorms` rather than grid differentiation.
    Norms are computed for a stack of fields at once: :meth:`norms`
    evaluates every supported norm of every time derivative of an output,
    or of each output of a block, in one pass, which :meth:`component`
    reads.
    """

    INDICES = tuple(energy_indices())

    def __init__(self, grid: WeightedGrid):
        self.grid = grid
        self.params = grid.params
        self._area = unit_sphere_area(self.params.n)

    def _scalars(self, stack: np.ndarray) -> dict[str, np.ndarray]:
        """Nodal radial scalars of each row of a (..., K, m) stack of
        fields, with one product against d_s per derivative level."""
        g = self.grid
        scale = 2.0 / self.params.R0 ** 2
        v, p1, su = g.radial_strain(stack)      # su = w' (even in r)
        g_vp = scale * p1
        g_up = scale * (su @ g.d_s_t)
        slopes = np.concatenate([g_vp, g_up], axis=-2) @ g.d_s_t
        k = stack.shape[-2]
        return {"v": v, "u": su, "vp": g_vp, "up": g_up,
                "vpp": g_vp + g._two_s * slopes[..., :k, :],
                "upp": g_up + g._two_s * slopes[..., k:, :]}

    def norms(self, time_derivs: Mapping[int, np.ndarray]):
        """Every supported norm N_{i,j} of every time derivative
        partial_t^k, k = 0, 1, ..., on the last axis: for each spatial
        order i one product resamples the scalars its forms read, and each
        form is integrated against sigma^(iota+i).  An output's time
        derivatives are one field (m,) each, or (T, 1, m) over a block."""
        orders = range(len(time_derivs))
        scalars = self._scalars(np.concatenate(
            [np.atleast_2d(time_derivs[k]) for k in orders], axis=-2))
        n, norms = self.params.n, {}
        for i, names in enumerate(_SCALARS_BY_ORDER):
            rule = self.grid.rule(self.params.iota + i)
            sampled = self.grid.to_rule(
                rule, np.concatenate([scalars[name] for name in names], axis=-2))
            sampled = sampled.reshape(sampled.shape[:-2] + (len(names), len(orders), -1))
            vals = dict(zip(names, np.moveaxis(sampled, -3, 0)), r=rule.r)
            vals.update({_TIMES_R[name]: vals[name] * rule.r
                         for name in names if name in _TIMES_R})
            for form in (form for form in SUPPORTED_FORMS if form[0] == i):
                norms[form] = self._area * (radial_form(*form, n, vals) @ rule.weights)
        return norms

    def component(self, norms: Mapping, m: int, i: int, j: int, t):
        """E^{m,i,j}(t) from the :meth:`norms` of partial_t^k w, k = m, m+1."""
        if (i, j) not in SUPPORTED_FORMS or (i + 1, j) not in SUPPORTED_FORMS:
            raise UnsupportedOrderError(
                f"spatial/angular derivative order (d^{i + 1}, dbar^{j}) not implemented")
        return _component(norms, m, i, j, t, self.params)


class ModeEnergies:
    """Energy components for a single planar angular mode (n = 2).

    Fields are carried by harmonic potentials f, g with
    omega = grad(f cos(l phi)) + perp-grad(g sin(l phi)), f, g = r^l p(s);
    dbar = d/dphi acts harmonic-by-harmonic, so the phi integrals reduce to
    closed factors on the two amplitude profiles (harmonics l -+ 1).
    Implemented orders: i = 0, j <= 2.  The stacked pass builds the
    amplitudes of every time derivative once per sigma exponent.
    """

    INDICES = tuple(idx for idx in energy_indices() if idx[1] == 0)

    def __init__(self, grid: WeightedGrid, mode: int):
        if grid.params.n != 2:
            raise UnsupportedOrderError("mode energies are implemented for n = 2")
        if mode < 1:
            raise ValueError("angular wavenumber must be >= 1")
        self.grid = grid
        self.params = grid.params
        self.mode = int(mode)

    def _amplitudes(self, potentials: np.ndarray, rule):
        """(amp, damp) at the rule nodes for the harmonics l -+ 1 of a
        (..., 2, m) stack of potential pairs [pf, pg], each (..., 1, M)."""
        # polar profiles: omega_r = a cos(l phi), omega_phi = -b sin(l phi),
        # a = f' - l g / r, b = l f / r - g'; harmonics l -+ 1 carry (a+-b)/2
        g, ell = self.grid, self.mode
        pf, pg = potentials[..., 0:1, :], potentials[..., 1:2, :]
        pf1 = pf @ g.d_s_t
        pg1 = pg @ g.d_s_t
        q_minus = ell * (pf - pg) + g.s * (pf1 - pg1)
        q_plus = g.s * (pf1 + pg1)
        out = []
        for q in (q_minus, q_plus):
            q1 = q @ g.d_s_t
            amp = g.to_rule(rule, q) * rule.r ** (ell - 1)
            # amp' = r^(l-2) [(l-1) q + 2 s q']
            damp = g.to_rule(rule, (ell - 1.0) * q + 2.0 * g.s * q1) * rule.r ** (ell - 2)
            out.append((amp, damp))
        return out

    def _norm(self, amplitudes, i: int, j: int, rule):
        """N_{i,j} against sigma^(rule exponent) from :meth:`_amplitudes`."""
        total = np.zeros_like(amplitudes[0][0])
        for (amp, damp), m_h in zip(amplitudes, (self.mode - 1, self.mode + 1)):
            angular = float(m_h) ** (2 * j) if (m_h or j == 0) else 0.0
            if angular == 0.0:
                continue
            if i == 0:
                total += angular * amp ** 2
            else:
                total += angular * (damp ** 2 + m_h ** 2 * amp ** 2 / rule.r ** 2)
        return 2.0 * np.pi * self.grid.integrate(rule.exponent, total)[..., 0]

    def norms(self, time_derivs: Mapping):
        """N_{i,j}, j <= 2, of every time derivative partial_t^k,
        k = 0, 1, ..., on the last axis, against sigma^(iota+i), i = 0, 1,
        from one build of the amplitudes per exponent.  An output's time
        derivatives are potential pairs (2, m) each, or (T, 2, m) over a
        block."""
        orders = range(len(time_derivs))
        stack = np.stack([np.asarray(time_derivs[k], float) for k in orders], axis=-3)
        norms = {}
        for i in (0, 1):
            rule = self.grid.rule(self.params.iota + i)
            amplitudes = self._amplitudes(stack, rule)
            for j in (0, 1, 2):
                norms[i, j] = self._norm(amplitudes, i, j, rule)
        return norms

    def component(self, norms: Mapping, m: int, i: int, j: int, t):
        """E^{m,i,j}(t) from the :meth:`norms` of partial_t^k, k = m, m+1."""
        if i != 0 or j not in (0, 1, 2):
            raise UnsupportedOrderError(
                f"mode energy components support i = 0 and j <= 2, got (i={i}, j={j})")
        return _component(norms, m, i, j, t, self.params)
