"""Scalar transform pair on the full axis with interior junctions.

The families P+ and P- start in the unbounded right layer as
exp(+/- i q (x - l_n)) and are pushed left through the junction conditions
(the semi-axis backward sweep).  The left-tail families Q- and Q+, which
start as exp(-/+ i q (x - l_1)) in the left layer, meet the same
conditions, so Q = P C0^{-1} J: C0 holds the P coefficients of the left
layer (rows exp(+iqs), exp(-iqs); columns P+, P-) and J = [[0, 1], [1, 0]]
those of Q.  With c = C00 / det C0 and d = C11 / det C0 the entries of
C0^{-1} J, the kernel branches are

  u(x)   = (P+(x), P-(x))                                  (row)
  u*(xi) = (-Q-/(c w_m), -Q+/(d w_m)) = -(P+, P-)(xi) S / w_m    (column)

with the symmetric connection S = [[-C01 / C00, 1], [1, -C10 / C11]]
(det C0 cancels) and w_m = 2 i q_m a2_m det C_m the Wronskian of the layer
containing xi.  The numerator -P(x) S P(xi)^T is symmetric in x <-> xi by
construction.  The inversion constant is +1/(pi i); for the homogeneous
axis the pair collapses to the classical Fourier integral identically.

Only scalar problems (r = 1) with spectral-parameter-free junctions are
admitted; the config validation enforces both.

The wavenumbers, pencil gates and the sweep are basis._build_families';
S and the Wronskians are kept here.  build_axis_batch computes them for a
whole spectral grid; build_axis_basis is that batch at one point, at(0).
Both branches are basis.Family objects, the row u from the P coefficient
rows (row_family, AxisBatch.primal) and the column u* from -C_m S / w_m
(AxisBatch.dual), so basis.u_on_layer and basis.u_star_on_layer evaluate
them and the shared drivers of transform.py contract them; a forward image
carries its AxisBatch for every inversion to reuse.
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

    layers are per-layer basis._LayerKernels with coef columns (P+, P-),
    rows the coefficients of exp(+iqs), exp(-iqs); s (N, 2, 2) the
    symmetric connection; omega (N, L) the layer Wronskians.  flags maps
    the index of each degenerate point to the error build_axis_basis raises
    there; its data are placeholders.  at(i) is the one-point view: the
    same class with every array sliced at i.
    """

    lam: np.ndarray
    config: object
    layers: list
    s: np.ndarray
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
        """The column kernel u* = -(P+, P-) S / w of every layer: 2 x 1 Families."""
        one = np.ones(np.shape(self.lam) + (1, 1))
        columns = []
        for m, pm in enumerate(self.layers):
            qs = -(pm.coef @ self.s) / self.omega[..., m, None, None]
            columns.append(bas.Family(pm.mu, pm.center, qs[..., 0, :, None], one,
                                      qs[..., 1, :, None], one))
        return columns

    def at(self, i):
        return replace(self, lam=self.lam[i], layers=[ld.at(i) for ld in self.layers],
                       s=self.s[i], omega=self.omega[i], flags={})


def build_axis_batch(config, lams):
    """Sweep the P families at every lam and read the connection S off the left layer.

    The junction pencils are free of lam on the full axis (validation), so
    a singular one flags every point.
    """
    lams = np.asarray(lams, dtype=float).ravel()
    p, _, _, flags = bas._build_families(config, lams)
    c0 = p[0].coef
    c00, c11 = c0[:, 0, 0].copy(), c0[:, 1, 1].copy()
    scale = np.maximum(np.abs(c0).max(axis=(1, 2)), 1e-300)
    for j in np.flatnonzero(np.minimum(np.abs(c00), np.abs(c11)) < 1e-12 * scale):
        flags.setdefault(j, DegenerateBoundary(
            f"kernel connection degenerates at lam = {lams[j]} "
            f"(C00 = {c00[j]:.3e}, C11 = {c11[j]:.3e})", lam=lams[j],
        ))
    omega = np.stack([2j * float(np.real(layer.a2[0, 0])) * ld.mu[:, 0] * np.linalg.det(ld.coef)
                      for layer, ld in zip(config.layers, p)], axis=1)
    for j in np.flatnonzero(np.any(np.abs(omega) < 1e-300, axis=1)):
        flags.setdefault(j, DegenerateBoundary(f"degenerate layer Wronskian at lam = {lams[j]}",
                                               lam=lams[j]))
    bad = sorted(flags)
    c00[bad] = c11[bad] = omega[bad] = 1.0
    s = np.ones((lams.size, 2, 2), dtype=complex)
    s[:, 0, 0], s[:, 1, 1] = -c0[:, 0, 1] / c00, -c0[:, 1, 0] / c11
    return AxisBatch(lam=lams, config=config, layers=p, s=s, omega=omega, flags=flags)


def build_axis_basis(config, lam):
    """Kernel data of a full-axis problem at one real lam: build_axis_batch there, at(0)."""
    if config.mode != FULL_AXIS:
        raise WrongMode("build_axis_basis needs a full-axis problem")
    return bas.one_point(build_axis_batch, config, lam)


def row_family(ld):
    """The row kernel u = (P+(x), P-(x)) of a layer: a 1 x 2 Family.

    lp = lm = 1 and rp, rm are the rows of coef (the exp(+iqs), exp(-iqs)
    coefficients).
    """
    one = np.ones_like(ld.coef[..., :1, :1])
    return bas.Family(ld.mu, ld.center, one, ld.coef[..., :1, :], one, ld.coef[..., 1:, :])


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
