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

The wavenumbers, pencil gates and the backward sweep are the semi-axis
ones (basis._build_families), whose families, the identity in the last
layer, are P; so in the tail T is the Q coefficients themselves.  What is
full-axis is kept here: the Q sweep, the connection and the Wronskian.
build_axis_basis is the one-point view of _axis_families.  Both branches
are basis.Family objects: the row u with lp = lm = 1 and the P coefficient
rows on the right (row_family), the column u* with -Q/(c w) on the left;
the shared drivers of transform.py contract them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import basis as bas
from .errors import (
    DegenerateBoundary,
    DimensionMismatch,
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
    layers: list        # per-layer basis._LayerKernels; coef columns (P+, P-)
    q_layers: list      # the same with coef columns (Q-, Q+)
    omega: np.ndarray   # per-layer Wronskian weights
    c2: complex
    d1: complex

    @property
    def centers(self):
        return [ld.center for ld in self.layers]


def _axis_families(config, lams):
    """Propagate the four scalar families at every lam and connect them in the right tail.

    Returns (p, q, cd, omega, flags): per-layer basis._LayerKernels stacked
    over lams, p with coef columns (P+, P-) and q with (Q-, Q+), rows the
    coefficients of exp(+iqs), exp(-iqs); cd (N, 2) = (c2, d1); Wronskians
    omega (N, L).  flags maps the index of each degenerate point to the
    error build_axis_basis raises there; its data are placeholders.  The
    junction pencils are free of lam on the full axis (validation), so a
    singular one flags every point.
    """
    p, pencils, flags = bas._build_families(config, lams)
    q = [replace(p[0], coef=np.broadcast_to([[0j, 1], [1, 0]], p[0].coef.shape))]
    for i, (m1, m2) in enumerate(pencils):
        lk = config.layers[i].right
        y = np.linalg.solve(m2, m1 @ bas._omega_stack(q[i], lk, 1))
        q.append(replace(p[i + 1], coef=bas._coef_from_stack(p[i + 1], y, lk - p[i + 1].center)))

    # P is the identity in the right tail, so the connection T is Q there
    t = q[-1].coef
    cd = t[:, [1, 0], [0, 1]]
    scale = np.maximum(np.abs(t).max(axis=(1, 2)), 1e-300)
    for j in np.flatnonzero(np.abs(cd).min(axis=1) < 1e-12 * scale):
        flags.setdefault(j, DegenerateBoundary(
            f"kernel connection degenerates at lam = {lams[j]} "
            f"(c2 = {cd[j, 0]:.3e}, d1 = {cd[j, 1]:.3e})", lam=lams[j],
        ))
    omega = np.stack([2j * float(np.real(layer.a2[0, 0])) * ld.mu[:, 0] * np.linalg.det(ld.coef)
                      for layer, ld in zip(config.layers, p)], axis=1)
    for j in np.flatnonzero(np.any(np.abs(omega) < 1e-300, axis=1)):
        flags.setdefault(j, DegenerateBoundary(f"degenerate layer Wronskian at lam = {lams[j]}",
                                               lam=lams[j]))
    bad = sorted(flags)
    cd[bad] = omega[bad] = 1.0
    return p, q, cd, omega, flags


def build_axis_basis(config, lam):
    """Kernel data of a full-axis problem at lam: the one-point view of _axis_families."""
    if config.mode != FULL_AXIS:
        raise WrongMode("build_axis_basis needs a full-axis problem")
    p, q, cd, omega, flags = _axis_families(config, np.array([lam], dtype=float))
    if flags:
        raise flags[0]
    return AxisBasisAtLambda(
        lam=lam,
        config=config,
        layers=[ld.at(0) for ld in p],
        q_layers=[ld.at(0) for ld in q],
        omega=omega[0],
        c2=complex(cd[0, 0]),
        d1=complex(cd[0, 1]),
    )


def row_family(ld):
    """(F_1(x), F_2(x)) of a layer whose coef columns are the families F: a 1 x 2 Family.

    lp = lm = 1 and rp, rm are the rows of coef (the exp(+iqs), exp(-iqs)
    coefficients); for the P families this is the row kernel u.
    """
    one = np.ones_like(ld.coef[..., :1, :1])
    return bas.Family(ld.mu, ld.center, one, ld.coef[..., :1, :], one, ld.coef[..., 1:, :])


def axis_u_on_layer(ab, m, xs, order=0):
    """Row kernel (P+(x), P-(x)) on layer m, or its derivative (order 1): shape (N, 2)."""
    return row_family(ab.layers[m]).at(np.atleast_1d(xs), order)[:, 0]


def symmetry_defect(ab, xs):
    """Max relative asymmetry of the kernel numerator N(x, xi) on a grid.

    N(x, xi) = -P+(x) Q-(xi)/c2 - P-(x) Q+(xi)/d1 must be symmetric under
    x <-> xi; this is the structural check that the two sweeps connect into
    one integral kernel.
    """
    xs = np.asarray(xs, dtype=float)
    idx = [ab.config.layer_index(float(x)) for x in xs]
    pp = np.array([axis_u_on_layer(ab, m, [x])[0] for m, x in zip(idx, xs)])
    qq = np.array([row_family(ab.q_layers[m]).at([x])[0, 0] for m, x in zip(idx, xs)])
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

    def kernels(lams):
        p, q, cd, omega, flags = _axis_families(config, lams)
        one = np.ones((lams.size, 1, 1))
        columns = []
        for m, (pm, qm) in enumerate(zip(p, q)):
            # u* branches (-Q-/(c2 w), -Q+/(d1 w)) on layer m: a 2 x 1 Family
            qs = -qm.coef / (cd[:, None, :] * omega[:, m, None, None])
            columns.append(bas.Family(pm.mu, pm.center, qs[:, 0, :, None], one,
                                      qs[:, 1, :, None], one))
        return columns, 0.0, flags

    return _spectral_forward(config, f, spec, lambdas, kernels)


def scalar_axis_inverse(config, image, x_points, spec):
    """Reconstruct a scalar function on the full axis from its two-branch image."""
    if config.mode != FULL_AXIS:
        raise WrongMode("scalar_axis_inverse needs a full-axis problem; "
                        "use inverse_transform on the semi-axis")
    if image.k != 2:
        raise DimensionMismatch(
            f"full-axis image must have two branches, got {image.k}", block="image"
        )

    def kernels(lams):
        p, *_, flags = _axis_families(config, lams)
        return [row_family(ld) for ld in p], flags

    return _spectral_inverse(config, image, x_points, spec, AXIS_INVERSION_CONSTANT, kernels)
