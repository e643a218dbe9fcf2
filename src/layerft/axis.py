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
build_axis_batch runs them for a whole spectral grid; build_axis_basis is
that batch at one point, at(0).  Both branches are basis.Family objects:
the row u with lp = lm = 1 and the P coefficient rows on the right
(row_family, AxisBatch.primal), the column u* with -Q/(c w) on the left
(AxisBatch.dual); the shared drivers of transform.py contract them, and a
forward image carries its AxisBatch for every inversion to reuse.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

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
class AxisBatch:
    """Full-axis kernel data stacked over the spectral points lam, as build_axis_batch makes it.

    layers and q_layers are per-layer basis._LayerKernels with coef columns
    (P+, P-) and (Q-, Q+), rows the coefficients of exp(+iqs), exp(-iqs);
    c2 and d1 (N,) the connection entries; omega (N, L) the layer
    Wronskians.  flags maps the index of each degenerate point to the error
    build_axis_basis raises there; its data are placeholders.  at(i) is the
    one-point view: the same class with every array sliced at i.
    """

    lam: np.ndarray
    config: object
    layers: list
    q_layers: list
    c2: np.ndarray
    d1: np.ndarray
    omega: np.ndarray
    flags: dict

    @property
    def centers(self):
        return [ld.center for ld in self.layers]

    @cached_property
    def primal(self):
        """The row kernel u = (P+, P-) of every layer, computed on first use."""
        return [row_family(ld) for ld in self.layers]

    @cached_property
    def dual(self):
        """The column kernel u* = (-Q-/(c2 w), -Q+/(d1 w)) of every layer: 2 x 1 Families."""
        cd = np.stack([self.c2, self.d1], axis=-1)[..., None, :]
        one = np.ones(np.shape(self.lam) + (1, 1))
        columns = []
        for m, (pm, qm) in enumerate(zip(self.layers, self.q_layers)):
            qs = -qm.coef / (cd * self.omega[..., m, None, None])
            columns.append(bas.Family(pm.mu, pm.center, qs[..., 0, :, None], one,
                                      qs[..., 1, :, None], one))
        return columns

    def at(self, i):
        return replace(self, lam=self.lam[i], layers=[ld.at(i) for ld in self.layers],
                       q_layers=[ld.at(i) for ld in self.q_layers], c2=self.c2[i],
                       d1=self.d1[i], omega=self.omega[i], flags={})


def build_axis_batch(config, lams):
    """Propagate the four scalar families at every lam and connect them in the right tail.

    The junction pencils are free of lam on the full axis (validation), so
    a singular one flags every point.
    """
    lams = np.asarray(lams, dtype=float).ravel()
    p, pencils, pencil_inv, flags = bas._build_families(config, lams)
    q = [replace(p[0], coef=np.broadcast_to([[0j, 1], [1, 0]], p[0].coef.shape))]
    for i, ((m1, _), (_, m2_inv)) in enumerate(zip(pencils, pencil_inv)):
        lk = config.layers[i].right
        y = m2_inv @ (m1 @ bas._omega_stack(q[i], lk, 1))
        q.append(replace(p[i + 1], coef=bas._coef_from_stack(p[i + 1], y, lk - p[i + 1].center)))

    # P is the identity in the right tail, so the connection T is Q there
    t = q[-1].coef
    c2, d1 = t[:, [1, 0], [0, 1]].T
    scale = np.maximum(np.abs(t).max(axis=(1, 2)), 1e-300)
    for j in np.flatnonzero(np.minimum(np.abs(c2), np.abs(d1)) < 1e-12 * scale):
        flags.setdefault(j, DegenerateBoundary(
            f"kernel connection degenerates at lam = {lams[j]} "
            f"(c2 = {c2[j]:.3e}, d1 = {d1[j]:.3e})", lam=lams[j],
        ))
    omega = np.stack([2j * float(np.real(layer.a2[0, 0])) * ld.mu[:, 0] * np.linalg.det(ld.coef)
                      for layer, ld in zip(config.layers, p)], axis=1)
    for j in np.flatnonzero(np.any(np.abs(omega) < 1e-300, axis=1)):
        flags.setdefault(j, DegenerateBoundary(f"degenerate layer Wronskian at lam = {lams[j]}",
                                               lam=lams[j]))
    bad = sorted(flags)
    c2[bad] = d1[bad] = omega[bad] = 1.0
    return AxisBatch(lam=lams, config=config, layers=p, q_layers=q, c2=c2, d1=d1, omega=omega,
                     flags=flags)


def build_axis_basis(config, lam):
    """Kernel data of a full-axis problem at one real lam: build_axis_batch there, at(0)."""
    if config.mode != FULL_AXIS:
        raise WrongMode("build_axis_basis needs a full-axis problem")
    return bas.one_point(build_axis_batch, config, lam)


def row_family(ld):
    """(F_1(x), F_2(x)) of a layer whose coef columns are the families F: a 1 x 2 Family.

    lp = lm = 1 and rp, rm are the rows of coef (the exp(+iqs), exp(-iqs)
    coefficients); for the P families this is the row kernel u.
    """
    one = np.ones_like(ld.coef[..., :1, :1])
    return bas.Family(ld.mu, ld.center, one, ld.coef[..., :1, :], one, ld.coef[..., 1:, :])


def axis_u_on_layer(ab, m, xs, order=0):
    """Row kernel (P+(x), P-(x)) on layer m, or its derivative, as Family.at: (..., 2)."""
    return ab.primal[m].at(xs, order)[..., 0, :]


def symmetry_defect(ab, xs):
    """Max relative asymmetry of the kernel numerator N(x, xi) on a grid, per lam of ab.

    N(x, xi) = -P+(x) Q-(xi)/c2 - P-(x) Q+(xi)/d1 must be symmetric under
    x <-> xi; this is the structural check that the two sweeps connect into
    one integral kernel.  The P and Q rows of each layer come from one
    Family.at, with x on axis 0 and the spectral points of a batch on axis 1.
    """
    xs = np.asarray(xs, dtype=float)
    idx = ab.config.layer_index(xs)
    pq = np.empty((2, xs.size) + np.shape(ab.c2) + (2,), dtype=complex)
    for m, (p, q) in enumerate(zip(ab.layers, ab.q_layers)):
        x = xs[idx == m].reshape((-1,) + (1,) * np.ndim(ab.c2))
        pq[:, idx == m] = [row_family(ld).at(x)[..., 0, :] for ld in (p, q)]
    pp, qq = np.moveaxis(pq, 1, -2)                            # (..., Nx, 2)
    cd = np.stack([ab.c2, ab.d1], axis=-1)[..., None, :]
    n = -(pp / cd) @ qq.swapaxes(-1, -2)
    scale = np.maximum(np.abs(n).max(axis=(-2, -1)), 1e-300)
    return np.abs(n - n.swapaxes(-1, -2)).max(axis=(-2, -1)) / scale


def scalar_axis_forward(config, f, spec, lambdas=None):
    """Two-branch image of a scalar function on the full axis."""
    if config.mode != FULL_AXIS:
        raise WrongMode("scalar_axis_forward needs a full-axis problem; "
                        "use forward_transform on the semi-axis")
    if f.r != 1:
        raise DimensionMismatch("full-axis transform is scalar", block="input")
    return _spectral_forward(config, f, spec, lambdas, build_axis_batch)


def scalar_axis_inverse(config, image, x_points, spec):
    """Reconstruct a scalar function on the full axis from its two-branch image."""
    if config.mode != FULL_AXIS:
        raise WrongMode("scalar_axis_inverse needs a full-axis problem; "
                        "use inverse_transform on the semi-axis")
    if image.k != 2:
        raise DimensionMismatch(
            f"full-axis image must have two branches, got {image.k}", block="image"
        )

    return _spectral_inverse(config, image, x_points, spec, AXIS_INVERSION_CONSTANT,
                             build_axis_batch)
