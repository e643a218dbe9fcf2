"""Scalar transform pair on the full axis with interior junctions.

Two fundamental families are propagated toward each other:

  * P+ and P- start in the unbounded right layer as exp(+/- i q (x - l_n))
    and are pushed left through the junction conditions (backward sweep);
  * Q- and Q+ start in the unbounded left layer as exp(-/+ i q (x - l_1))
    and are pushed right (forward sweep).

In the right tail layer the connection (Q-, Q+) = (P+, P-) T defines the
2 x 2 matrix T whose entries c2 = T[1,0] and d1 = T[0,1] play the role the
boundary functionals play on the semi-axis: the two kernel branches are

  u(x)  = (P+(x), P-(x))                      (row)
  u*(xi) = (-Q-(xi) / (c2 w_m), -Q+(xi) / (d1 w_m))   (column, layer-wise)

with w_m = 2 i q_m a2_m (A+_m B-_m - A-_m B+_m) built from the P
coefficients of the layer containing xi (a Wronskian, constant within each
layer).  The inversion constant is +1/(pi i); for the homogeneous axis the
pair collapses to the classical Fourier integral identically.

Only scalar problems (r = 1) with spectral-parameter-free junctions are
admitted; the config validation enforces both.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from . import quadrature as quad
from .errors import (
    DegenerateBoundary,
    DimensionMismatch,
    InvariantViolation,
    RegularityViolation,
    WrongMode,
)
from .problem import FULL_AXIS
from .transform import _spectral_forward, _spectral_inverse

AXIS_INVERSION_CONSTANT = 1.0 / (math.pi * 1j)


@dataclass
class AxisBasisAtLambda:
    """Scalar full-axis kernel data at one spectral parameter value."""

    lam: float
    config: object
    q: list          # per-layer complex wavenumbers
    a2: list         # per-layer stiffness scalars
    centers: list
    p_plus: list     # per-layer (A, B) of P+ w.r.t. exp(+/- i q (x - center))
    p_minus: list
    q_minus: list
    q_plus: list
    omega: list      # per-layer Wronskian weights
    c2: complex
    d1: complex


def _family_value(coeff, q, center, xs, order=0):
    a, b = coeff
    s = np.asarray(xs, dtype=float) - center
    up = (1j * q) ** order * np.exp(1j * q * s)
    dn = (-1j * q) ** order * np.exp(-1j * q * s)
    return a * up + b * dn


def _w_matrix(q, s=0.0):
    """Values (row 0) and derivatives (row 1) of exp(+i q s) and exp(-i q s)."""
    up, dn = np.exp(1j * q * s), np.exp(-1j * q * s)
    return np.array([[up, dn], [1j * q * up, -1j * q * dn]], dtype=complex)


def build_axis_basis(config, lam, rcond_floor=linalg.RCOND_FLOOR):
    """Propagate the four scalar families and connect them in the right tail."""
    if config.mode != FULL_AXIS:
        raise WrongMode("build_axis_basis needs a full-axis problem")
    if lam <= 0:
        raise InvariantViolation(f"spectral parameter must be positive, got {lam}")

    L = config.n_layers
    a2 = [float(np.real(layer.a2[0, 0])) for layer in config.layers]
    g2 = [float(np.real(layer.g2[0, 0])) for layer in config.layers]
    q = [complex(np.sqrt((lam**2 + g) / a)) for a, g in zip(a2, g2)]
    if L == 1:
        centers = [0.0]
    else:
        centers = [config.layers[m].right for m in range(L - 1)] + [config.layers[-2].right]

    def pencil(i, side):
        m = config.interfaces[i].pencil(side, lam)
        if linalg.rcond(m) < rcond_floor:
            raise RegularityViolation(
                f"junction {i + 1}: side-{side} condition block is singular",
                lam=lam, junction=i + 1,
            )
        return m

    # backward sweep for P+/P-
    p_coef = [None] * L
    p_coef[L - 1] = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
    for i in range(L - 2, -1, -1):
        wn = _w_matrix(q[i + 1], config.layers[i].right - centers[i + 1])
        m1 = pencil(i, 1)
        m2 = pencil(i, 2)
        sol = np.linalg.solve(m1, m2 @ wn @ np.column_stack(p_coef[i + 1]))
        coef = np.linalg.solve(_w_matrix(q[i]), sol)   # s = 0 on the left side
        p_coef[i] = (coef[:, 0].copy(), coef[:, 1].copy())

    # forward sweep for Q-/Q+
    q_coef = [None] * L
    q_coef[0] = (np.array([0.0, 1.0], dtype=complex), np.array([1.0, 0.0], dtype=complex))
    for i in range(L - 1):
        vals = _w_matrix(q[i]) @ np.column_stack(q_coef[i])   # left side, s = 0
        m1 = pencil(i, 1)
        m2 = pencil(i, 2)
        right_vals = np.linalg.solve(m2, m1 @ vals)
        wn = _w_matrix(q[i + 1], config.layers[i].right - centers[i + 1])
        coef = np.linalg.solve(wn, right_vals)
        q_coef[i + 1] = (coef[:, 0].copy(), coef[:, 1].copy())

    # connection in the right tail layer, evaluated at its center (s = 0)
    wp = _w_matrix(q[L - 1]) @ np.column_stack(p_coef[L - 1])
    wq = _w_matrix(q[L - 1]) @ np.column_stack(q_coef[L - 1])
    t = np.linalg.solve(wp, wq)
    c2, d1 = t[1, 0], t[0, 1]
    scale = max(np.max(np.abs(t)), 1e-300)
    if abs(c2) < 1e-12 * scale or abs(d1) < 1e-12 * scale:
        raise DegenerateBoundary(
            f"kernel connection degenerates at lam = {lam} (c2 = {c2:.3e}, d1 = {d1:.3e})",
            lam=lam,
        )

    omega = [
        2j * q[m] * a2[m] * (p_coef[m][0][0] * p_coef[m][1][1]
                             - p_coef[m][1][0] * p_coef[m][0][1])
        for m in range(L)
    ]
    if any(abs(w) < 1e-300 for w in omega):
        raise DegenerateBoundary(f"degenerate layer Wronskian at lam = {lam}", lam=lam)

    return AxisBasisAtLambda(
        lam=lam,
        config=config,
        q=q,
        a2=a2,
        centers=centers,
        p_plus=[c[0] for c in p_coef],
        p_minus=[c[1] for c in p_coef],
        q_minus=[c[0] for c in q_coef],
        q_plus=[c[1] for c in q_coef],
        omega=omega,
        c2=complex(c2),
        d1=complex(d1),
    )


def axis_u_on_layer(ab, m, xs, order=0):
    """Row kernel (P+(x), P-(x)) on layer m: shape (N, 2)."""
    return np.column_stack(
        [
            _family_value(ab.p_plus[m], ab.q[m], ab.centers[m], xs, order),
            _family_value(ab.p_minus[m], ab.q[m], ab.centers[m], xs, order),
        ]
    )


def axis_u_star_on_layer(ab, m, xs, order=0):
    """Column kernel (-Q-/(c2 w), -Q+/(d1 w)) on layer m: shape (N, 2)."""
    qm = _family_value(ab.q_minus[m], ab.q[m], ab.centers[m], xs, order)
    qp = _family_value(ab.q_plus[m], ab.q[m], ab.centers[m], xs, order)
    return np.column_stack(
        [-qm / (ab.c2 * ab.omega[m]), -qp / (ab.d1 * ab.omega[m])]
    )


def symmetry_defect(ab, xs):
    """Max relative asymmetry of the kernel numerator N(x, xi) on a grid.

    N(x, xi) = -P+(x) Q-(xi)/c2 - P-(x) Q+(xi)/d1 must be symmetric under
    x <-> xi; this is the structural check that the two sweeps connect into
    one integral kernel.
    """
    xs = np.asarray(xs, dtype=float)
    idx = [ab.config.layer_index(float(x)) for x in xs]
    pp = np.array([axis_u_on_layer(ab, m, [x])[0] for m, x in zip(idx, xs)])
    qq = np.array(
        [
            [
                _family_value(ab.q_minus[m], ab.q[m], ab.centers[m], [x])[0],
                _family_value(ab.q_plus[m], ab.q[m], ab.centers[m], [x])[0],
            ]
            for m, x in zip(idx, xs)
        ]
    )
    n = -np.outer(pp[:, 0], qq[:, 0]) / ab.c2 - np.outer(pp[:, 1], qq[:, 1]) / ab.d1
    scale = max(np.max(np.abs(n)), 1e-300)
    return float(np.max(np.abs(n - n.T)) / scale)


def scalar_axis_forward(config, f, spec, lambdas=None):
    """Two-branch image of a scalar function on the full axis."""
    if config.mode != FULL_AXIS:
        raise WrongMode("scalar_axis_forward needs a full-axis problem; "
                        "use forward_transform on the semi-axis")
    if f.r != 1:
        raise DimensionMismatch("full-axis transform is scalar", block="input")

    rules = quad.xi_rules(config, spec)
    weighted_f = [ws * f.values_on(m, xs)[:, 0] for m, (xs, ws) in enumerate(rules)]

    def row(_i, lam):
        ab = build_axis_basis(config, lam)
        total = np.zeros(2, dtype=complex)
        for m, (xs, _ws) in enumerate(rules):
            if xs.size:
                total += axis_u_star_on_layer(ab, m, xs).T @ weighted_f[m]
        return total

    return _spectral_forward(config, spec, lambdas, 2, row)


def scalar_axis_inverse(config, image, x_points, spec):
    """Reconstruct a scalar function on the full axis from its two-branch image."""
    if config.mode != FULL_AXIS:
        raise WrongMode("scalar_axis_inverse needs a full-axis problem; "
                        "use inverse_transform on the semi-axis")
    if image.k != 2:
        raise DimensionMismatch(
            f"full-axis image must have two branches, got {image.k}", block="image"
        )
    return _spectral_inverse(
        config, image, x_points, spec, AXIS_INVERSION_CONSTANT,
        lambda lam: build_axis_basis(config, lam),
        lambda ab, m, xs: axis_u_on_layer(ab, m, xs)[:, None, :],
    )
