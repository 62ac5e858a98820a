"""Pointwise squared norms of mixed space/angular derivatives of radial fields.

For a radially symmetric vector field omega = w(r) * y/|y| in n dimensions,
every |d^a dbar^b omega|^2 (d = full spatial gradient, dbar = angular
momentum derivative) collapses to a quadratic form in one-dimensional radial
scalars.  The forms below were derived by contracting the tensor structures
in y/|y| and delta; each is cross-checked against finite differences on a
tensor grid in the test suite.

Scalar names: w; v = w/r; u = w'; p suffix = d/dr.  The derivation also
names e = (u - v)/r and e'; for a radial field these are vp and vpp, and
the forms read them so.
"""
from __future__ import annotations

import numpy as np

SUPPORTED_FORMS = (
    (0, 0), (1, 0), (2, 0), (3, 0),
    (0, 1), (1, 1), (2, 1),
    (0, 2), (1, 2),
)


def radial_form(a: int, b: int, n: int, vals: dict) -> np.ndarray:
    """Return |d^a dbar^b omega|^2 at the nodes for a radial field.

    ``vals`` holds the radial scalar arrays named above plus the radii
    ``r``.  Raises for unsupported derivative combinations.
    """
    if n not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {n}")
    if (a, b) not in SUPPORTED_FORMS:
        raise ValueError(f"unsupported derivative combination (d^{a}, dbar^{b})")
    r = vals["r"]
    if b == 0:
        if a == 0:
            return vals["w"] ** 2
        if a == 1:
            return vals["u"] ** 2 + (n - 1) * vals["v"] ** 2
        if a == 2:
            return vals["up"] ** 2 + (n - 1) * (3.0 * vals["vp"] ** 2)   # vp^2 + 2 e^2
        return _third_gradient_sq(n, vals)
    # dbar of a radial field rotates components; the resulting tensors
    # contract to the closed forms below (angular factors 2(n-1) etc.).
    c1 = n - 1.0  # |dbar omega|^2 = c1 * w^2 ; |dbar^2 omega|^2 = c2 * w^2
    c2 = 2.0 * (n - 1.0) if n == 3 else 1.0
    if a == 0:
        return (c1 if b == 1 else c2) * vals["w"] ** 2
    v, vp = vals["v"], vals["vp"]
    if b == 1:
        if n == 3:
            return 2.0 * r ** 2 * vp ** 2 + 4.0 * r * v * vp + 6.0 * v ** 2 if a == 1 else (
                2.0 * r ** 2 * vals["vpp"] ** 2 + 8.0 * r * vp * vals["vpp"] + 20.0 * vp ** 2
            )
        return r ** 2 * vp ** 2 + 2.0 * r * v * vp + 2.0 * v ** 2 if a == 1 else (
            r ** 2 * vals["vpp"] ** 2 + 4.0 * r * vp * vals["vpp"] + 7.0 * vp ** 2
        )
    # b == 2, a == 1
    if n == 3:
        return 4.0 * r ** 2 * vp ** 2 + 8.0 * r * v * vp + 12.0 * v ** 2
    return r ** 2 * vp ** 2 + 2.0 * r * v * vp + 2.0 * v ** 2


def _third_gradient_sq(n: int, vals: dict) -> np.ndarray:
    r = vals["r"]
    vp, vpp = vals["vp"], vals["vpp"]
    up, upp = vals["up"], vals["upp"]
    a1 = vpp
    a2 = vp / r
    a3 = upp - vpp
    a46 = (up - vp - vp) / r     # two structures share this coefficient
    a6 = (up - vp - 2.0 * vp) / r
    a78, a9 = a1, a2             # e' and e/r
    m = n - 1.0
    return (
        n * a1 ** 2
        + n * m * a2 ** 2
        + a3 ** 2
        + m * (2.0 * a46 ** 2 + a6 ** 2 + 2.0 * a78 ** 2)
        + 2.0 * m ** 2 * a9 ** 2
        + 2.0 * a1 * a3
        + 2.0 * m * a2 * a6
        + 4.0 * m * a2 * a9
        + 2.0 * m * a9 ** 2
    )
