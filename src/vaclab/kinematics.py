"""Flow-map algebra on tensor grids: Jacobian, inverse deformation, and the
discrete verification of the Piola and differentiation identities.

Fourth-order centered differences in the interior with third-order
one-sided closures at the box boundary; identity residuals are therefore
measured on an interior window (fixed physical margin) where the pure
centered stencils apply and Richardson ratios follow the interior order.

Everything here runs on the calling thread, with no BLAS product and no
LAPACK call.  :func:`apply_d` is a slicing 5-point stencil along one axis,
and :func:`build_deformation` forms J = det(I + d omega) by a Laplace
expansion of the closed-form cofactors and A = adj / J for n = 2 and 3.
:func:`adjugate_residual` checks J A against minors of its own.

Nothing is computed farther from the window than it is read.  Every
derivative is one 5-point stencil, which reads at most 2 nodes beyond the
node it gives, in a fixed order, so a node's derivative does not depend on
the extent of the array it is taken on.  :func:`check_identities`
differentiates the deformation's fields once more, so it forms its
residuals on the window plus a 2-node halo (:meth:`BoxGrid.crop`).
:func:`deformation_on_window` builds the deformation itself on the window
plus a 4-node halo: the gradient of omega then takes the box's centred
stencil at every node that ``check_identities`` reads, since those lie at
least 2 nodes inside the crop.  Both give the whole box's residuals bit for
bit.  A crop keeps the faces of the box it was cut from, so its
:meth:`BoxGrid.interior_window` names the box's window nodes, and where a
halo is clamped at a box face the crop keeps that face's one-sided rows,
as the box does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DeformationDegenerateError(RuntimeError):
    """Deformation gradient lost invertibility at a grid node."""

    def __init__(self, node_index, det_value):
        self.node_index = tuple(int(k) for k in node_index)
        self.det_value = float(det_value)
        super().__init__(
            f"non-invertible deformation at node {self.node_index}: det = {det_value:.3e}"
        )


@dataclass(frozen=True)
class BoxGrid:
    """Uniform tensor-product grid on a cube in R^n.

    ``faces`` holds the (low, high) coordinates of the box's faces on each
    axis: the ends of the axes unless the grid is a crop of a larger box,
    whose faces it keeps."""

    n: int
    axes: tuple[np.ndarray, ...]
    spacing: float
    faces: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.faces is None:
            object.__setattr__(self, "faces",
                               tuple((ax[0], ax[-1]) for ax in self.axes))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes, indexing="ij"))

    def radius(self) -> np.ndarray:
        grids = self.meshgrid()
        return np.sqrt(sum(g ** 2 for g in grids))

    def interior_window(self, margin: float) -> tuple[slice, ...]:
        """Per-axis slices of the nodes at least ``margin`` * width away
        from every box face (the axes increase, so each is one run)."""
        window = []
        for ax, (low, high) in zip(self.axes, self.faces):
            width = high - low
            lo = np.count_nonzero(ax < low + margin * width)
            hi = np.count_nonzero(ax <= high - margin * width)
            window.append(slice(int(lo), int(hi)))
        return tuple(window)

    def crop(self, window: tuple[slice, ...], halo: int
             ) -> tuple[BoxGrid, tuple[slice, ...], tuple[slice, ...]]:
        """Sub-grid of the nodes in ``window`` (one unit-step slice per
        axis) widened by ``halo`` nodes on each side, clamped at the box.

        The sub-grid keeps this grid's faces, so its ``interior_window``
        names the same nodes as this grid's, wherever they lie inside it.
        The halo a caller needs is the number of nodes its stencils read
        beyond the window: 2 for one derivative of a field given on the
        box (:func:`check_identities`), 4 for a field whose own
        derivative is taken on the crop first
        (:func:`deformation_on_window`).

        Returns the sub-grid, the slices that cut it from this grid's
        arrays, and the slices that cut ``window`` from the sub-grid's."""
        outer, inner = [], []
        for ax, s in zip(self.axes, window):
            start, stop, _ = s.indices(ax.size)
            lo, hi = max(start - halo, 0), min(stop + halo, ax.size)
            outer.append(slice(lo, hi))
            inner.append(slice(start - lo, stop - lo))
        sub = BoxGrid(n=self.n, axes=tuple(ax[o] for ax, o in zip(self.axes, outer)),
                      spacing=self.spacing, faces=self.faces)
        return sub, tuple(outer), tuple(inner)


def box_grid(n: int, half_width: float, num_points: int) -> BoxGrid:
    axis = np.linspace(-half_width, half_width, num_points)
    return BoxGrid(n=n, axes=tuple(axis.copy() for _ in range(n)),
                   spacing=float(axis[1] - axis[0]))


# First-derivative stencils in units of 1/h.  Interior nodes take the
# fourth-order centred stencil (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / 12;
# the boundary pairs take third-order one-sided rows over the 4 nodes at
# their face: _EDGE_ROWS[p] gives node p from nodes 0..3, and the far face
# mirrors it with the sign flipped.
_EDGE_ROWS = ((-11.0, 18.0, -9.0, 2.0), (-2.0, -3.0, 6.0, -1.0))


def apply_d(grid: BoxGrid, field: np.ndarray, axis: int) -> np.ndarray:
    """First derivative of a scalar field along ``axis``: the 5-point
    stencil at every node at least 2 from the box's ends, one-sided rows
    at the two boundary pairs (see ``_EDGE_ROWS``).

    Each node's value is formed from its own neighbours along the axis in a
    fixed order, so it does not depend on the array's extent or layout: a
    crop gives every node at least 2 inside it the whole box's value
    bit for bit.  Returns a new C-ordered array."""
    m = field.shape[axis]
    if m < 6:
        raise ValueError("need at least 6 points per axis")
    f = np.moveaxis(field, axis, 0)
    out = np.empty(field.shape)
    d = np.moveaxis(out, axis, 0)
    centre = d[2:-2]
    np.subtract(f[3:-1], f[1:-3], out=centre)
    centre *= 8.0
    centre += f[:-4]
    centre -= f[4:]
    centre /= 12.0 * grid.spacing
    for p, row in enumerate(_EDGE_ROWS):
        d[p] = sum(c * f[q] for q, c in enumerate(row)) / (6.0 * grid.spacing)
        d[-1 - p] = -sum(c * f[-1 - q] for q, c in enumerate(row)) / (6.0 * grid.spacing)
    return out


def gradient_tensor(grid: BoxGrid, omega: np.ndarray) -> np.ndarray:
    """G[..., i, j] = d omega_i / d y_j for a vector field (*shape, n)."""
    n = grid.n
    g = np.empty(omega.shape + (n,))
    for i in range(n):
        for j in range(n):
            g[..., i, j] = apply_d(grid, omega[..., i], j)
    return g


@dataclass
class DeformationField:
    """Nodal deformation data for eta(y) = y + omega(y)."""

    grid: BoxGrid
    omega: np.ndarray
    grad_omega: np.ndarray
    jacobian: np.ndarray        # J = det(I + d omega)
    inverse_matrix: np.ndarray  # A with [grad_eta f]_i = A^k_i d_k f


def _adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate of each 2x2 or 3x3 matrix in a stack (..., n, n), in closed
    form: adj[..., i, j] is the (j, i) cofactor."""
    n = m.shape[-1]
    adj = np.empty_like(m)
    if n == 2:
        adj[..., 0, 0] = m[..., 1, 1]
        adj[..., 0, 1] = -m[..., 0, 1]
        adj[..., 1, 0] = -m[..., 1, 0]
        adj[..., 1, 1] = m[..., 0, 0]
        return adj
    if n != 3:
        raise ValueError(f"closed-form adjugate needs n = 2 or 3, got {n}")
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            # cyclic index order carries the cofactor's sign
            adj[..., j, i] = m[..., i1, j1] * m[..., i2, j2] - m[..., i1, j2] * m[..., i2, j1]
    return adj


def build_deformation(grid: BoxGrid, omega: np.ndarray) -> DeformationField:
    """Differentiate omega and form J = det(d eta / d y) and
    A = (d eta / d y)^(-1) = adj / J nodewise, in closed form."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != grid.shape + (grid.n,):
        raise ValueError("omega samples must have shape grid.shape + (n,)")
    grad = gradient_tensor(grid, omega)
    m = grad + np.eye(grid.n)
    adj = _adjugate(m)
    # Laplace expansion along the first row of M
    jac = sum(m[..., 0, j] * adj[..., j, 0] for j in range(grid.n))
    if np.any(jac <= 0.0) or not np.all(np.isfinite(jac)):
        bad = np.unravel_index(int(np.argmin(jac)), jac.shape)
        raise DeformationDegenerateError(bad, jac[bad])
    # A^k_i = (M^{-1})_{ki} with M_{ij} = d_j eta_i, so the raw inverse
    # adj / J, formed in place, has exactly the wanted index layout:
    # inverse_matrix[..., k, i].
    adj /= jac[..., None, None]
    return DeformationField(grid=grid, omega=omega, grad_omega=grad,
                            jacobian=jac, inverse_matrix=adj)


def deformation_on_window(grid: BoxGrid, omega: np.ndarray,
                          margin: float) -> DeformationField:
    """The deformation of ``omega``, sampled on all of ``grid``, built only
    on the interior window of ``margin`` plus a 4-node halo, clamped at the
    box.  :func:`check_identities` with the same margin reads it where its
    values are the whole box's (see the module docstring).  Built from a
    copy of the crop, so the field holds no view of the box's omega."""
    sub, outer, _ = grid.crop(grid.interior_window(margin), halo=4)
    return build_deformation(sub, omega[outer].copy())


def grad_eta(field: DeformationField, scalar: np.ndarray) -> np.ndarray:
    a = field.inverse_matrix
    parts = [apply_d(field.grid, scalar, k) for k in range(field.grid.n)]
    return np.einsum("k...,...ki->...i", np.array(parts), a)


def div_eta(field: DeformationField, vector: np.ndarray) -> np.ndarray:
    n = field.grid.n
    a = field.inverse_matrix
    out = np.zeros(field.grid.shape)
    for i in range(n):
        for k in range(n):
            out += a[..., k, i] * apply_d(field.grid, vector[..., i], k)
    return out


def curl_eta(field: DeformationField, vector: np.ndarray) -> np.ndarray:
    n = field.grid.n
    a = field.inverse_matrix
    d = [[apply_d(field.grid, vector[..., c], k) for k in range(n)] for c in range(n)]
    if n == 2:
        out = np.zeros(field.grid.shape)
        for k in range(2):
            out += a[..., k, 0] * d[1][k] - a[..., k, 1] * d[0][k]
        return out
    out = np.zeros(field.grid.shape + (3,))
    eps = _permutation_symbol()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if eps[i, j, k]:
                    for r in range(3):
                        out[..., i] += eps[i, j, k] * a[..., r, j] * d[k][r]
    return out


def _permutation_symbol() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    return eps


@dataclass(frozen=True)
class IdentityReport:
    """Interior sup-norms of the discrete kinematic identity residuals."""

    piola: float
    jacobian_derivative: float
    inverse_derivative: float
    margin: float


def check_identities(field: DeformationField, margin: float) -> IdentityReport:
    """Residuals of the Piola identity and the differentiation formulae
    d_j J = J A^s_r d_j d_s omega^r and
    d_j A^k_i = -A^k_r A^s_i d_j d_s omega^r, as sup-norms over the
    interior window of ``margin``.

    The derivatives are taken on the window plus a 2-node halo, clamped at
    the box, and the products and sup-norms are formed on the window
    alone, one differentiation axis j at a time; the derivatives equal
    their full-box values there (see the module docstring).  ``field`` may
    be built on the whole box or by :func:`deformation_on_window` with the
    same margin."""
    n = field.grid.n
    grid, outer, win = field.grid.crop(field.grid.interior_window(margin), halo=2)
    a, jac = field.inverse_matrix[outer], field.jacobian[outer]
    a_w, jac_w = a[win], jac[win]

    piola = 0.0
    for i in range(n):
        resid = np.zeros(grid.shape)
        for k in range(n):
            resid += apply_d(grid, jac * a[..., k, i], k)
        piola = max(piola, float(np.max(np.abs(resid[win]))))

    grad = field.grad_omega[outer]
    jac_resid = inv_resid = 0.0
    for j in range(n):
        # second derivatives along j on the window: dd[r][s] = d_j d_s omega^r
        dd = [[apply_d(grid, grad[..., r, s], j)[win] for s in range(n)]
              for r in range(n)]
        lhs = apply_d(grid, jac, j)[win]
        rhs = np.zeros(lhs.shape)
        for r in range(n):
            for s in range(n):
                rhs += jac_w * a_w[..., s, r] * dd[r][s]
        jac_resid = max(jac_resid, float(np.max(np.abs(lhs - rhs))))
        for k in range(n):
            for i in range(n):
                lhs = apply_d(grid, a[..., k, i], j)[win]
                rhs = np.zeros(lhs.shape)
                for r in range(n):
                    for s in range(n):
                        rhs -= a_w[..., k, r] * a_w[..., s, i] * dd[r][s]
                inv_resid = max(inv_resid, float(np.max(np.abs(lhs - rhs))))

    return IdentityReport(piola=piola, jacobian_derivative=jac_resid,
                          inverse_derivative=inv_resid, margin=margin)


def adjugate_residual(field: DeformationField) -> float:
    """Round-off check: J * A must equal the adjugate of I + d omega."""
    n = field.grid.n
    m = field.grad_omega + np.eye(n)
    ja = field.jacobian[..., None, None] * field.inverse_matrix
    if n == 2:
        adj = np.empty_like(m)
        adj[..., 0, 0] = m[..., 1, 1]
        adj[..., 1, 1] = m[..., 0, 0]
        adj[..., 0, 1] = -m[..., 0, 1]
        adj[..., 1, 0] = -m[..., 1, 0]
    else:
        adj = np.empty_like(m)
        for i in range(3):
            for j in range(3):
                i1, i2 = [a for a in range(3) if a != j]
                j1, j2 = [a for a in range(3) if a != i]
                adj[..., i, j] = (-1.0) ** (i + j) * (
                    m[..., i1, j1] * m[..., i2, j2] - m[..., i1, j2] * m[..., i2, j1]
                )
    return float(np.max(np.abs(ja - adj)))


def radial_vector_field(grid: BoxGrid, w_of_r) -> np.ndarray:
    """Sample omega = w(r) y/|y| on the grid (w(0)/r limit taken as w'(0))."""
    grids = grid.meshgrid()
    r = grid.radius()
    safe = np.where(r > 0, r, 1.0)
    ratio = np.where(r > 0, w_of_r(safe) / safe, _derivative_at_zero(w_of_r))
    return np.stack([ratio * g for g in grids], axis=-1)


def _derivative_at_zero(w_of_r) -> float:
    h = 1e-6
    return (w_of_r(h) - w_of_r(-h)) / (2.0 * h)


def random_smooth_field(grid: BoxGrid, rng: np.random.Generator,
                        grad_amplitude: float) -> np.ndarray:
    """Smooth trigonometric vector field, scaled so that its largest
    finite-difference gradient component over ``grid`` is ``grad_amplitude``.

    Each component sums two products of one sine per axis, with wave
    numbers of 1 or 2 per box width, phases and amplitudes drawn from
    ``rng``.  The sines are sampled on sparse coordinates and broadcast,
    and the scale is the largest of the n^2 gradient components, taken one
    at a time, so no full-grid array outlives a step besides the field."""
    coords = np.meshgrid(*grid.axes, indexing="ij", sparse=True)
    width = grid.axes[0][-1] - grid.axes[0][0]
    omega = np.zeros(grid.shape + (grid.n,))
    for i in range(grid.n):
        for _ in range(2):
            k = rng.integers(1, 3, size=grid.n)
            phase = rng.uniform(0, 2 * np.pi, size=grid.n)
            term = rng.uniform(0.5, 1.0)
            for ax in range(grid.n):
                term = term * np.sin(2 * np.pi * k[ax] * coords[ax] / width + phase[ax])
            omega[..., i] += term
    scale = max(float(np.max(np.abs(apply_d(grid, omega[..., i], j))))
                for i in range(grid.n) for j in range(grid.n))
    omega *= grad_amplitude / scale
    return omega
