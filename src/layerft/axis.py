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

_axis_families runs both sweeps for a whole spectral grid at once, as
stacked 2 x 2 solves; build_axis_basis is its one-point view.  The
transforms contract the families through transform._moments and
_damped_sums, the scalar case V = 1, mu = q of the semi-axis kernels.
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
from .transform import _moments, _spectral_forward, _spectral_inverse

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


def _axis_centers(config):
    """Each layer's center: its right junction, l_n for the right tail, 0 for one layer."""
    if config.n_layers == 1:
        return [0.0]
    return [layer.right for layer in config.layers[:-1]] + [config.layers[-2].right]


def _w_matrix(q, s=0.0):
    """Values (row 0) and derivatives (row 1) of exp(+i q s) and exp(-i q s), per q."""
    up, dn = np.exp(1j * q * s), np.exp(-1j * q * s)
    return np.stack([np.stack([up, dn], -1), np.stack([1j * q * up, -1j * q * dn], -1)], -2)


def _axis_families(config, lams, rcond_floor=linalg.RCOND_FLOOR):
    """Propagate the four scalar families at every lam and connect them in the right tail.

    Returns (q, p, qq, c2, d1, omega, flags): real wavenumbers q (N, L);
    p[:, m] and qq[:, m] (N, 2, 2) with columns (P+, P-) and (Q-, Q+) and
    rows the coefficients of exp(+iqs), exp(-iqs) on layer m; c2, d1 (N,);
    Wronskians omega (N, L).  flags maps the index of each degenerate point
    to the error build_axis_basis raises there; its data are placeholders.
    The junction pencils are free of lam on the full axis (validation), so
    a singular one flags every point and is replaced by the identity.
    """
    L = config.n_layers
    a2 = np.array([float(np.real(layer.a2[0, 0])) for layer in config.layers])
    g2 = np.array([float(np.real(layer.g2[0, 0])) for layer in config.layers])
    q = np.sqrt((np.square(lams)[:, None] + g2) / a2)
    centers = _axis_centers(config)
    flags = {}

    pencils = {}
    for i in range(L - 2, -1, -1):
        for side in (1, 2):
            m = config.interfaces[i].lambda_free_part(side)
            if linalg.rcond(m) < rcond_floor:
                for j, lam in enumerate(lams):
                    flags.setdefault(j, RegularityViolation(
                        f"junction {i + 1}: side-{side} condition block is singular",
                        lam=lam, junction=i + 1,
                    ))
                m = np.eye(2)
            pencils[i, side] = m

    # backward sweep for P+/P-, forward sweep for Q-/Q+
    p = np.zeros((lams.size, L, 2, 2), dtype=complex)
    qq = np.zeros_like(p)
    p[:, L - 1] = np.eye(2)
    qq[:, 0] = [[0.0, 1.0], [1.0, 0.0]]
    for i in range(L - 2, -1, -1):
        wn = _w_matrix(q[:, i + 1], config.layers[i].right - centers[i + 1])
        sol = np.linalg.solve(pencils[i, 1], pencils[i, 2] @ wn @ p[:, i + 1])
        p[:, i] = np.linalg.solve(_w_matrix(q[:, i]), sol)   # s = 0 on the left side
    for i in range(L - 1):
        right_vals = np.linalg.solve(pencils[i, 2], pencils[i, 1] @ _w_matrix(q[:, i]) @ qq[:, i])
        wn = _w_matrix(q[:, i + 1], config.layers[i].right - centers[i + 1])
        qq[:, i + 1] = np.linalg.solve(wn, right_vals)

    # connection in the right tail layer, evaluated at its center (s = 0)
    w_tail = _w_matrix(q[:, L - 1])
    t = np.linalg.solve(w_tail @ p[:, L - 1], w_tail @ qq[:, L - 1])
    c2, d1 = t[:, 1, 0], t[:, 0, 1]
    scale = np.maximum(np.abs(t).max(axis=(1, 2)), 1e-300)
    for j in np.flatnonzero((np.abs(c2) < 1e-12 * scale) | (np.abs(d1) < 1e-12 * scale)):
        flags.setdefault(j, DegenerateBoundary(
            f"kernel connection degenerates at lam = {lams[j]} "
            f"(c2 = {c2[j]:.3e}, d1 = {d1[j]:.3e})", lam=lams[j],
        ))
    omega = 2j * q * a2 * (p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0])
    for j in np.flatnonzero(np.any(np.abs(omega) < 1e-300, axis=1)):
        flags.setdefault(j, DegenerateBoundary(f"degenerate layer Wronskian at lam = {lams[j]}",
                                               lam=lams[j]))
    bad = sorted(flags)
    c2[bad] = d1[bad] = omega[bad] = 1.0
    return q, p, qq, c2, d1, omega, flags


def build_axis_basis(config, lam, rcond_floor=linalg.RCOND_FLOOR):
    """Kernel data of a full-axis problem at lam: the one-point view of _axis_families."""
    if config.mode != FULL_AXIS:
        raise WrongMode("build_axis_basis needs a full-axis problem")
    if lam <= 0:
        raise InvariantViolation(f"spectral parameter must be positive, got {lam}")
    q, p, qq, c2, d1, omega, flags = _axis_families(config, np.array([lam], dtype=float),
                                                    rcond_floor)
    if flags:
        raise flags[0]
    return AxisBasisAtLambda(
        lam=lam,
        config=config,
        q=[complex(v) for v in q[0]],
        a2=[float(np.real(layer.a2[0, 0])) for layer in config.layers],
        centers=_axis_centers(config),
        p_plus=list(p[0, :, :, 0]),
        p_minus=list(p[0, :, :, 1]),
        q_minus=list(qq[0, :, :, 0]),
        q_plus=list(qq[0, :, :, 1]),
        omega=list(omega[0]),
        c2=complex(c2[0]),
        d1=complex(d1[0]),
    )


def axis_u_on_layer(ab, m, xs, order=0):
    """Row kernel (P+(x), P-(x)) on layer m: shape (N, 2)."""
    return np.column_stack(
        [
            _family_value(ab.p_plus[m], ab.q[m], ab.centers[m], xs, order),
            _family_value(ab.p_minus[m], ab.q[m], ab.centers[m], xs, order),
        ]
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

    quad.check_size(config, spec)
    rules = quad.xi_rules(config, spec)
    weighted_f = [ws[:, None] * f.values_on(m, xs) for m, (xs, ws) in enumerate(rules)]
    centers = _axis_centers(config)

    def rows(lams):
        q, _p, qq, c2, d1, omega, flags = _axis_families(config, lams)
        # u* branches (-Q-/(c2 w), -Q+/(d1 w)) on every layer
        qs = -qq / (np.stack([c2, d1], -1)[:, None, None, :] * omega[:, :, None, None])
        total = np.zeros((lams.size, 2), dtype=complex)
        for m, (xs, _ws) in enumerate(rules):
            if xs.size:
                fp, fm = _moments(q[:, m:m + 1], xs - centers[m], weighted_f[m])
                total += qs[:, m, 0] * fp[:, 0] + qs[:, m, 1] * fm[:, 0]
        return total, flags

    return _spectral_forward(config, spec, lambdas, rows)


def scalar_axis_inverse(config, image, x_points, spec):
    """Reconstruct a scalar function on the full axis from its two-branch image."""
    if config.mode != FULL_AXIS:
        raise WrongMode("scalar_axis_inverse needs a full-axis problem; "
                        "use inverse_transform on the semi-axis")
    if image.k != 2:
        raise DimensionMismatch(
            f"full-axis image must have two branches, got {image.k}", block="image"
        )
    centers = _axis_centers(config)

    def families(lams, fhat):
        q, p, *_, flags = _axis_families(config, lams)
        if flags:
            raise flags[min(flags)]
        return [(q[:, m:m + 1], centers[m], p[:, m, :1] @ fhat[:, :, None],
                 p[:, m, 1:] @ fhat[:, :, None]) for m in range(config.n_layers)]

    return _spectral_inverse(config, image, x_points, spec, AXIS_INVERSION_CONSTANT, families)
