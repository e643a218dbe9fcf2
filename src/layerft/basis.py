"""Kernel families for layered problems on the semi-axis and the full axis.

Within layer m the building blocks are the bounded exponential families
exp(+/- i q_m (x - c_m)), where q_m = V diag(mu) V^{-1} with mu > 0 squares
to a2_m^{-1} (lam^2 E + g2_m) and comes from one eigh (compute_wavenumber),
so every exponential is diagonal in V.  Each layer is centered at its own
junction (c_m = right endpoint for interior layers, c = l_n for the
unbounded tail layer) so the recursion below never evaluates a matrix
exponential at large argument and the tail layer carries the reference
normalization exactly.

Two r x r matrix solution families Phi (normalized to exp(+iq(x - l_n)) in
the tail) and Psi (normalized to exp(-iq(x - l_n))) are propagated from the
last layer to the first by solving the junction conditions

    M_1k(lam) stack(F_k, F_k')(l_k) = M_2k(lam) stack(F_{k+1}, F_{k+1}')(l_k)

for the left layer's coefficients.  The boundary functionals

    Phi0 = (beta0 + lam^2 gamma0) Phi(l_0) + (alpha0 + lam^2 delta0) Phi'(l_0)

and Psi0 alike combine the families into the primal kernel

    u(x) = Phi(x) Phi0^{-1} - Psi(x) Psi0^{-1}

which satisfies the boundary condition and all junction conditions by
construction.  The dual kernel is carried by the row function

    w(x) = (Phi0, Psi0) Omega(x)^{-1},     Omega = [[Phi, Psi], [Phi', Psi']],

through u*(x) = w_2(x) a2^{-1}.  On layer m, Omega(x) = [[E, E], [iq, -iq]]
diag(e^{iqs}, e^{-iqs}) coef with s = x - c_m, so with (G_1, G_2) =
(Phi0, Psi0) coef^{-1}

    w(x) = 1/2 (G_1 e^{-iqs} + G_2 e^{iqs}, (G_1 e^{-iqs} - G_2 e^{iqs}) (iq)^{-1}).

w obeys w' = (w_2 q^2, -w_1), so u* solves the formally adjoint equation
exactly; w(l_0) is the boundary row bnd_row, and w^(k) M_1k^{-1} =
w^(k+1) M_2k^{-1} at every junction.  So dual_families sweeps w forward
from bnd_row through the gates' M_1k^{-1}, inverting no coef, and reads G
from w at each layer's left end x0 in the eigenbasis, with s0 = x0 - c_m:
G_1 V = (w_1 V + w_2 V i mu) e^{i mu s0}, G_2 V = (w_1 V - w_2 V i mu) e^{-i mu s0}.

Every kernel is therefore a Family lp diag(e^{i mu s}) rp + lm diag(e^{-i mu s})
rm: u with lp = lm = V and rp, rm = V^{-1} (C+- Phi0^{-1} - D+- Psi0^{-1})
(primal_family), u* with lp = -G_2 V, lm = G_1 V and rp = rm = K =
(2 i mu)^{-1} V^{-1} a2^{-1} (dual_families), and w = (-u*' a2, u* a2); the
full-axis branches (below) are Families too.  exp_pair is the one rule
by which a kernel or a phase table evaluates e^{+-i t}: the conjugate for
real t, both signs for complex t (the inverse's tables keep the e^{it} half
of real t and fold the signs into cos t and sin t, transform._damped_sums).
_wavenumber_eig is the one gate every
lam passes: it must be positive with a nonzero square and a finite scaled
pencil.

build_batch runs all of this for a whole spectral grid at once: one
wavenumber decomposition per distinct material (_wavenumber_eig), pencils
by broadcasting, the recursion as batched products on (N, 2r, 2r) and
every condition gate as one inverse screen (linalg.screened_rcond).  The
screen bounds rcond by rho_F = 1 / (||A||_F ||A^{-1}||_F), rcond / n <=
rho_F <= rcond, and takes an SVD only of the blocks with rho_F below twice
the floor, so a regular grid runs none.  Each gated block is inverted
once, by its gate, and every product uses that inverse: phi0_inv and
psi0_inv, pencil_inv (M_1^{-1}, M_2^{-1}) for the recursions, the dual
sweep, the dual junction relation and the forward's junction term; nothing
solves.  The junction conditions of most problems, the boundary row of a
lam-free boundary and the eigenbasis V of most layers do not depend on
lam.  Such a block is computed and gated once and kept as a read-only
broadcast over the grid (a stride-0 stack, which at(i) slices like any
other); _matmul multiplies it as one matrix, one product over the
flattened stack of the other factor instead of one per point, and every
product that can have such a factor goes through it (its docstring lists
them).  Grouped so, the products round differently from per-point ones;
tests/test_rounding.py checks that rounding is not amplified: a one-ulp
change of every mu moves images and reconstructions by rounding only.
Degenerate points are flagged, not raised; build_basis is build_batch at
one point, sliced by at(0), and every diagnostic takes a batch or a
one-point view alike.  Everything before the boundary functionals is
_build_families, which also builds the full axis's P families.

On the full axis (build_batch reads config.mode) the families P+ and P-
start in the unbounded right layer as exp(+/- i q (x - l_n)) and are swept
left like Phi and Psi.  The left-tail families Q- and Q+, which start as
exp(-/+ i q (x - l_1)) in the left layer, meet the same conditions, so
Q = P C0^{-1} J, with C0 the P coefficients of the left layer (rows
exp(+iqs), exp(-iqs); columns P+, P-) and J = [[0, 1], [1, 0]] those of Q.
With c = C00 / det C0 and d = C11 / det C0 the entries of C0^{-1} J, the
kernel branches are

  u(x)   = (P+(x), P-(x))                                  (row)
  u*(xi) = (-Q-/(c w_m), -Q+/(d w_m)) = -(P+, P-)(xi) S / w_m    (column)

with the symmetric connection S = [[-C01 / C00, 1], [1, -C10 / C11]]
(det C0 cancels) and w_m = 2 i q_m a2_m det C_m the Wronskian of the layer
containing xi, so the numerator -P(x) S P(xi)^T is symmetric in x <-> xi by
construction.  The inversion constant is +1/(pi i); for the homogeneous
axis the pair collapses to the classical Fourier integral.  Only r = 1
with spectral-parameter-free junctions is admitted (config validation).

The batch is what a forward image carries as its basis (transform.py):
dual gives the stacked u* of every layer and primal the stacked u, each
computed on first use and kept, so that every inversion of the image
shares one batch and one set of primal families, and the dual diagnostics
share the forward's dual families.  Each primal family also keeps the phase
tables of the last point set it was inverted on (Family.phases).
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import linalg
from .errors import (
    DegenerateBoundary,
    InvariantViolation,
    RegularityViolation,
)
from .problem import FULL_AXIS


def _const(a):
    """The one matrix of a lam-free factor, or None for a factor that varies over lam.

    A lam-free factor is 2-D, or a nonempty stack that np.broadcast_to made
    from one matrix (stride 0 on every stack axis): the form in which a
    batch keeps its lam-free blocks, read-only and sliced by at(i) like any
    stack.  An empty stack has no matrix to read and is a stack like any
    other.
    """
    if a.ndim == 2:
        return a
    return a[(0,) * (a.ndim - 2)] if a.size and not any(a.strides[:-2]) else None


def _matmul(a, b):
    """a @ b over a stack of spectral points, each lam-free factor (_const) as its one matrix.

    Two lam-free factors give their 2-D product.  One gives one product over
    the flattened stack of the other, its rows for a right factor, its
    columns (by the transposes) for a left one, instead of a product per
    point.  Two stacks multiply point by point.  Every product that can have
    a lam-free factor takes this route: the wavenumber and junction-pencil
    products, Family.at (V @ the phased rp), _coef_from_stack (V and V^{-1}),
    the dual sweep and K = V^{-1} a2^{-1} / (2 i mu) of dual_families, the
    boundary functionals bnd_row @ Omega(l_0) and the primal coefficients
    coef @ Phi0^{-1}, coef @ Psi0^{-1} (the tail layer's coef is a broadcast
    identity).  The inverse's contraction (transform._damped_sums) takes
    the same rule for a lam-free V = lp = lm: V after its lam sum.
    """
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return ca @ cb
    if cb is not None:
        return (a.reshape(-1, a.shape[-1]) @ cb).reshape(a.shape[:-1] + cb.shape[-1:])
    if ca is not None:
        bt = np.swapaxes(b, -1, -2)
        return np.swapaxes((bt.reshape(-1, bt.shape[-1]) @ ca.T).reshape(
            bt.shape[:-1] + ca.shape[:1]), -1, -2)
    return a @ b


# Frobenius norm of the off-diagonal part of U^H B U, relative to ||B||_F,
# below which B counts as diagonal in U: a few roundings, as g2 = c a2 leaves it
_DIAGONAL_TOL = 32 * np.finfo(float).eps


def _wavenumber_eig(a2, g2, lams):
    """(mu, V, V^{-1}) with a2^{-1} (lam^2 E + g2) = V diag(mu^2) V^{-1}, mu > 0, per lam.

    With a2 = L L^H the scaled pencil P = L^{-1} (lam^2 E + g2) L^{-H} =
    lam^2 A + B, A = L^{-1} L^{-H} and B = L^{-1} g2 L^{-H}, is Hermitian
    positive-definite; with its eigenbasis U, V = L^{-H} U and V^{-1} =
    U^H L^H, so V^H a2 V = E.  Every spectral parameter passes one gate: one
    that is not positive with a nonzero square, or whose P is not finite,
    raises InvariantViolation.  Where B is diagonal in the eigenbasis U of A
    (every r = 1 layer, g2 = 0 and g2 = c a2), one eigh of A serves every
    lam of a grid: mu^2 = lam^2 sigma + diag(U^H B U) is read off the diagonal of
    U^H P U, which for a diagonal a2 (U a signed permutation) is the batched
    eigh's eigenvalues bit for bit, and V, V^{-1} are one matrix each,
    returned as read-only broadcasts over lam.  Any other material, and a
    single lam, takes a batched eigh of P; shapes (N, r[, r]).
    """
    lams = np.asarray(lams, dtype=float)
    chol = np.linalg.cholesky(a2)
    chol_inv = np.linalg.inv(chol)
    with np.errstate(all="ignore"):
        lam2 = np.square(lams)
        pencil = _matmul(_matmul(chol_inv, np.multiply.outer(lam2, np.eye(a2.shape[0])) + g2),
                         chol_inv.conj().T)
    bad = ~((lams > 0) & (lam2 > 0) & np.isfinite(pencil).all(axis=(-2, -1)))
    if bad.any():
        raise InvariantViolation(f"spectral parameter {lams[bad][0]} is not positive with a "
                                 "nonzero square and a finite scaled pencil")
    if lams.size > 1:          # at one lam the eigh of its pencil is the cheaper way
        _, u = np.linalg.eigh(chol_inv @ chol_inv.conj().T)
        c = u.conj().T @ chol_inv @ g2 @ chol_inv.conj().T @ u
        if np.linalg.norm(c - np.diag(np.diag(c))) <= _DIAGONAL_TOL * np.linalg.norm(c):
            mu2 = (u.conj() * _matmul(pencil, u)).sum(axis=-2).real
            shape = lams.shape + a2.shape
            return (np.sqrt(mu2), np.broadcast_to(chol_inv.conj().T @ u, shape),
                    np.broadcast_to(u.conj().T @ chol.conj().T, shape))
    mu2, u = np.linalg.eigh(pencil)
    return (np.sqrt(mu2), _matmul(chol_inv.conj().T, u),
            _matmul(u.conj().swapaxes(-1, -2), chol.conj().T))


def material_key(layer):
    """The key by which layers of one material (a2, g2) share their wavenumbers."""
    return (np.asarray(layer.a2, dtype=complex).tobytes(),
            np.asarray(layer.g2, dtype=complex).tobytes())


def compute_wavenumber(layer, lam):
    """Principal square root q = sqrt(a2^{-1} (lam^2 E + g2)) for one layer.

    For lam > 0 the spectrum is positive and real (_wavenumber_eig).
    """
    mu, v, vinv = _wavenumber_eig(
        np.asarray(layer.a2, dtype=complex), np.asarray(layer.g2, dtype=complex), [lam]
    )
    return (v[0] * mu[0]) @ vinv[0]


def exp_pair(t):
    """(e^{it}, e^{-it}) stacked on a new leading axis: (2, *t.shape).

    For real t the e^{-it} half is the conjugate of the e^{it} half, bit for
    bit, so only t.size exponentials are taken; complex t (evanescent
    channels) exponentiates both halves.
    """
    t = np.asarray(t)
    if np.iscomplexobj(t):
        return np.exp(1j * np.stack([t, -t]))
    out = np.empty((2,) + t.shape, dtype=complex)
    np.exp(1j * t, out=out[0])
    np.conjugate(out[0], out=out[1])
    return out


@dataclass
class Family:
    """K(x) = lp diag(e^{i mu s}) rp + lm diag(e^{-i mu s}) rm with s = x - center.

    mu (..., rho), lp and lm (..., a, rho), rp and rm (..., rho, b): one
    spectral point, or stacked over lam on axis 0.  Every kernel built today
    has real mu; at and the contractions of transform.py take complex mu too.
    phases is the one slot in which transform.inverse_transform keeps the
    phase tables of the last point split a stacked family was inverted on
    (transform._kept_phases); replace and a new Family start it empty.
    """

    mu: np.ndarray
    center: float
    lp: np.ndarray
    rp: np.ndarray
    lm: np.ndarray
    rm: np.ndarray
    phases: tuple = field(default=None, init=False, repr=False, compare=False)

    def at(self, xs, order=0):
        """d^order K / dx^order at each x of an (Nx,) xs, or per lam of a stacked K at one x.

        Each half is lp @ (e^{+-i mu s} rp) through _matmul: a lam-free lp (the
        eigenbasis V of a primal family and of every junction stack) multiplies
        the phased right factors of all points in one product over the
        flattened stack; a stacked lp (the dual G blocks) multiplies point by
        point.
        """
        if order not in (0, 1, 2):
            raise InvariantViolation(f"unsupported derivative order {order}")
        s = np.asarray(xs, dtype=float)[..., None] - self.center
        ep, em = exp_pair(self.mu * s)
        if order:
            ep, em = ep * (1j * self.mu) ** order, em * (-1j * self.mu) ** order
        return (_matmul(self.lp, ep[..., :, None] * self.rp)
                + _matmul(self.lm, em[..., :, None] * self.rm))


@dataclass
class _LayerKernels:
    """Per-layer data at one spectral point, or stacked over a batch of them."""

    mu: np.ndarray         # (..., r): q = V diag(mu) V^{-1}, mu > 0
    v: np.ndarray          # (..., r, r), one broadcast matrix where _wavenumber_eig finds it
    vinv: np.ndarray       # (..., r, r), likewise
    a2inv: np.ndarray      # r x r, the same at every lam
    center: float
    coef: np.ndarray       # (..., 2r, 2r) [[C+, D+], [C-, D-]]: columns Phi | Psi

    def at(self, i):
        return replace(self, mu=self.mu[i], v=self.v[i], vinv=self.vinv[i], coef=self.coef[i])

    def family(self, plus, minus):
        """The Family V (e^{i mu s} V^{-1} plus + e^{-i mu s} V^{-1} minus) of this layer."""
        return Family(self.mu, self.center, self.v, _matmul(self.vinv, plus),
                      self.v, _matmul(self.vinv, minus))


@dataclass
class SpectralBasisBatch:
    """All kernel data of a semi-axis problem, stacked over the points lam[i] on axis 0.

    pencils holds the gated (M_1, M_2) of each junction and pencil_inv
    their inverses, which the gates computed and every product with an
    inverse pencil uses (the recursions, junction_residual_dual and the
    forward's junction term), as phi0_inv and psi0_inv are the boundary
    gates' inverses.  flags maps the index of each degenerate point to the
    error build_basis raises there; the slices of those points hold regular
    placeholders.  at(i) is the one-point view: the same class with every
    array sliced at i.
    """

    inversion_constant: ClassVar[complex] = -1.0 / (math.pi * 1j)

    lam: np.ndarray
    config: object
    layers: list
    phi0_inv: np.ndarray
    psi0_inv: np.ndarray
    bnd_row: np.ndarray    # (..., r, 2r) (value block | derivative block) at l_0, a broadcast
                           # row where the boundary is lam-free
    pencils: list          # (M_1, M_2) per junction, (..., 2r, 2r)
    pencil_inv: list       # (M_1^{-1}, M_2^{-1}) per junction, from the gates
    flags: dict

    def coefficients(self, m):
        """(C+, C-, D+, D-) of layer m relative to exp(+/- i q (x - center))."""
        r = self.config.r
        c = self.layers[m].coef
        return c[..., :r, :r], c[..., r:, :r], c[..., :r, r:], c[..., r:, r:]

    @cached_property
    def primal(self):
        """The stacked primal Family u of every layer, computed on first use."""
        return [primal_family(self, m) for m in range(self.config.n_layers)]

    @cached_property
    def dual(self):
        """The stacked dual Family u* of every layer (dual_families), computed on first use."""
        return dual_families(self)

    def at(self, i):
        return replace(self, lam=self.lam[i], layers=[ld.at(i) for ld in self.layers],
                       phi0_inv=self.phi0_inv[i], psi0_inv=self.psi0_inv[i],
                       bnd_row=self.bnd_row[i],
                       pencils=[(m1[i], m2[i]) for m1, m2 in self.pencils],
                       pencil_inv=[(m1[i], m2[i]) for m1, m2 in self.pencil_inv], flags={})


@dataclass
class AxisBatch:
    """All kernel data of a full-axis problem, stacked over the points lam[i] on axis 0.

    layers hold the P coefficients (columns P+, P-; rows exp(+iqs),
    exp(-iqs)), s (N, 2, 2) the connection, omega (N, L) the layer
    Wronskians; flags and at(i) as in SpectralBasisBatch.
    """

    inversion_constant: ClassVar[complex] = 1.0 / (math.pi * 1j)

    lam: np.ndarray
    config: object
    layers: list
    s: np.ndarray
    omega: np.ndarray
    flags: dict

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
            columns.append(Family(pm.mu, pm.center, qs[..., 0, :, None], one,
                                  qs[..., 1, :, None], one))
        return columns

    def at(self, i):
        return replace(self, lam=self.lam[i], layers=[ld.at(i) for ld in self.layers],
                       s=self.s[i], omega=self.omega[i], flags={})


def row_family(ld):
    """The row kernel u = (P+(x), P-(x)) of a full-axis layer: a 1 x 2 Family.

    lp = lm = 1 and rp, rm are the rows of coef (the exp(+iqs), exp(-iqs)
    coefficients).
    """
    one = np.ones_like(ld.coef[..., :1, :1])
    return Family(ld.mu, ld.center, one, ld.coef[..., :1, :], one, ld.coef[..., 1:, :])


def _jet(fam, xs):
    """(K; K') of a Family stacked on the row axis, as Family.at evaluates it."""
    return np.concatenate([fam.at(xs, 0), fam.at(xs, 1)], axis=-2)


def _omega_stack(ld, xs, r):
    """Omega(x) = [[Phi, Psi], [Phi', Psi']] at each x, or at one x for a stacked ld."""
    return _jet(ld.family(ld.coef[..., :r, :], ld.coef[..., r:, :]), xs)


def _coef_from_stack(ld, y):
    """Coefficients [C+; C-] of the family whose stack (F; F') at the centre is y.

    C+- = 1/2 (y_1 -+ i q^{-1} y_2), with i q^{-1} y_2 = i V (V^{-1} y_2 / mu) taken in
    the eigenbasis (no solve).  With a lam-free V both products run once over
    the flattened stack y (_matmul).
    """
    r = ld.mu.shape[-1]
    corr = 1j * _matmul(ld.v, _matmul(ld.vinv, y[..., r:, :]) / ld.mu[..., :, None])
    return 0.5 * np.concatenate([y[..., :r, :] - corr, y[..., :r, :] + corr], axis=-2)


def _gate(blocks, flags, lams, make_error):
    """(blocks, inverses) after the rcond gate, which flags the points whose block fails it.

    The gate is rcond < RCOND_FLOOR, decided by linalg.screened_rcond, which
    takes an SVD only of the blocks its inverse screen leaves open.  A stack
    (N, n, n) is screened point by point, and the blocks of every point
    flagged so far become the identity.  A lam-free block (n, n) is screened
    once: if it fails, every point is flagged with its own error and the
    block becomes the identity; either way it is returned, with its inverse,
    as a read-only broadcast over the N points.  The inverses are the
    screen's, the identity at every flagged point.
    """
    if blocks.ndim == 2:
        rc, inv = linalg.screened_rcond(blocks[None])
        if rc[0] < linalg.RCOND_FLOOR:
            for i, lam in enumerate(lams):
                flags.setdefault(i, make_error(lam))
            blocks = np.eye(blocks.shape[-1], dtype=blocks.dtype)
            inv = blocks[None]
        shape = (lams.size,) + blocks.shape
        return np.broadcast_to(blocks, shape), np.broadcast_to(inv[0], shape)
    rc, inv = linalg.screened_rcond(blocks)
    for i in np.flatnonzero(rc < linalg.RCOND_FLOOR):
        flags.setdefault(int(i), make_error(lams[i]))
    if flags:
        blocks[list(flags)] = np.eye(blocks.shape[-1])
        if inv is not None:
            inv[list(flags)] = np.eye(blocks.shape[-1])
    return blocks, np.linalg.inv(blocks) if inv is None else inv  # None: an exactly singular one


def _build_families(config, lams):
    """Wavenumbers and the backward junction sweep at every lam of a flat float array.

    Returns (layers, pencils, pencil_inv, flags): per-layer _LayerKernels
    stacked over lams, whose coef holds the families normalized to the
    identity in the last layer; the gated junction pencils (M_1, M_2) per
    junction and their inverses from the gates; and the flags of the points
    whose pencils fail the gate.  The tail layer is centered at its left
    end, or at 0 when that is -inf (one-layer full axis).  Each distinct
    material (a2, g2) runs _wavenumber_eig once, and layers of one material
    share its arrays.  On a grid, a pencil side whose lam^2 block is zero is
    gated once, as one block (_gate), and the step to the left layer
    multiplies by it as one product over the whole stack (_matmul): M_2
    first, then M_1^{-1}, the order, and so the rounding, of the per-point
    products.
    """
    r = config.r
    L = config.n_layers
    n = lams.size
    flags = {}

    tail = config.layers[-1].left
    centers = [layer.right for layer in config.layers[:-1]] + [tail if np.isfinite(tail) else 0.0]
    materials = {}
    lds = []
    for layer, center in zip(config.layers, centers):
        key = material_key(layer)
        if key not in materials:
            a2 = np.asarray(layer.a2, dtype=complex)
            materials[key] = (_wavenumber_eig(a2, np.asarray(layer.g2, dtype=complex), lams)
                              + (np.linalg.inv(a2),))
        mu, v, vinv, a2inv = materials[key]
        lds.append(_LayerKernels(
            mu=mu, v=v, vinv=vinv, a2inv=a2inv, center=center,
            coef=np.broadcast_to(np.eye(2 * r, dtype=complex), (n, 2 * r, 2 * r)),
        ))

    # backward junction sweep: last layer keeps the identity coefficients; a
    # lam-free pencil is one block on a grid, a stack of one at a single lam
    grid = n > 1
    pencils, pencil_inv = [None] * (L - 1), [None] * (L - 1)
    for i in range(L - 2, -1, -1):
        k = i + 1                          # junction number, abscissa l_k
        omega_next = _omega_stack(lds[i + 1], config.layers[i].right, r)
        iface = config.interfaces[i]
        (m2, m2_inv), (m1, m1_inv) = (_gate(
            iface.lambda_free_part(j) if grid and not np.any(iface.lambda_sq_part(j))
            else iface.pencil(j, lams), flags, lams, lambda lam: RegularityViolation(
                f"junction {k}: {side}-side condition block M_{j}({lam}) is singular",
                lam=lam, junction=k,
            )) for side, j in (("right", 2), ("left", 1)))
        pencils[i], pencil_inv[i] = (m1, m2), (m1_inv, m2_inv)
        lds[i].coef = _coef_from_stack(lds[i], _matmul(m1_inv, _matmul(m2, omega_next)))
    return lds, pencils, pencil_inv, flags


def build_batch(config, lams):
    """The kernel data of the geometry of config at every lam at once.

    _build_families runs the wavenumbers, junction recursion and pencil
    gates as stacked array operations over lams.  On the full axis
    _connect adds the connection S and the Wronskians (AxisBatch); on the
    semi-axis this adds the boundary functionals (SpectralBasisBatch).  A
    point failing a gate is recorded in the flags of the result, with the
    error build_basis raises there, and its gated blocks, and their
    inverses, are replaced by the identity so that the stacked products
    stay regular.
    """
    lams = np.asarray(lams, dtype=float).ravel()
    lds, pencils, pencil_inv, flags = _build_families(config, lams)
    if config.mode == FULL_AXIS:
        return _connect(config, lams, lds, flags)
    r = config.r

    bnd = config.boundary
    bnd_row = np.concatenate([bnd.value_row(lams), bnd.deriv_row(lams)], axis=-1)
    if bnd.is_lambda_free:          # one row at every lam: one product over the stack below
        bnd_row = np.broadcast_to(bnd_row[0], bnd_row.shape)
    func_row = _matmul(bnd_row, _omega_stack(lds[0], config.left_end, r))
    # copies: the gate writes identities into flagged rows
    phi0_inv, psi0_inv = (_gate(blk.copy(), flags, lams, lambda lam: DegenerateBoundary(
        f"boundary functional of the {name} family is singular at lam = {lam}", lam=lam,
    ))[1] for name, blk in (("Phi", func_row[:, :, :r]), ("Psi", func_row[:, :, r:])))

    return SpectralBasisBatch(
        lam=lams,
        config=config,
        layers=lds,
        phi0_inv=phi0_inv,
        psi0_inv=psi0_inv,
        bnd_row=bnd_row,
        pencils=pencils,
        pencil_inv=pencil_inv,
        flags=flags,
    )


def _connect(config, lams, p, flags):
    """The AxisBatch of the swept P families p: S read off the left layer, and the Wronskians."""
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


def branch_count(config):
    """Columns of an image: r on the semi-axis, the two branches (P+, P-) on the full axis."""
    return 2 if config.mode == FULL_AXIS else config.r


def build_basis(config, lam):
    """Kernel data at one real lam: build_batch there, at(0).

    Raises the RegularityViolation or DegenerateBoundary build_batch flags
    there, and InvariantViolation for anything but one real number.
    """
    if isinstance(lam, (bool, np.bool_)) or not isinstance(lam, numbers.Real):
        raise InvariantViolation(f"a one-point basis takes one real spectral parameter, not {lam!r}")
    batch = build_batch(config, [float(lam)])
    if batch.flags:
        raise batch.flags[0]
    return batch.at(0)


# --- kernel evaluation ------------------------------------------------------


def primal_family(basis, m):
    """u on layer m as a Family (module docstring), one point or stacked like basis."""
    r = basis.config.r
    ld = basis.layers[m]
    # two products, then the difference: for real coefficients M = -conj(P)
    # exactly, so u is exactly imaginary as Phi Phi0^{-1} - Psi Psi0^{-1} is
    cb = _matmul(ld.coef[..., :r], basis.phi0_inv) - _matmul(ld.coef[..., r:], basis.psi0_inv)
    return ld.family(cb[..., :r, :], cb[..., r:, :])


def _diag2(a):
    """[[a, 0], [0, a]] of an (..., r, r) a, 2-D if a is lam-free: one product for both halves."""
    c = _const(a)
    a = a if c is None else c
    r = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (2 * r, 2 * r), dtype=complex)
    out[..., :r, :r] = out[..., r:, r:] = a
    return out


def dual_families(basis):
    """u* = w_2 a2^{-1} of every layer as Families (module docstring), stacked like basis.

    Sweeps w forward from w(l_0) = bnd_row through the kept M_1k^{-1} and
    reads each layer's (G_1 V, G_2 V) from w at its left end; it inverts
    nothing, and the placeholder slices of flagged points stay regular.
    K = (V^{-1} a2^{-1}) / (2 i mu): with a lam-free V the product is one
    matrix per layer, scaled row by row at each point; with a lam-free
    boundary row and lam-free blocks the sweep products are one matrix each
    until the first stacked factor (_matmul).
    """
    r = basis.config.r
    w = basis.bnd_row
    families = []
    for m, (layer, ld) in enumerate(zip(basis.config.layers, basis.layers)):
        if m:
            w = _matmul(_matmul(w, basis.pencil_inv[m - 1][0]), basis.pencils[m - 1][1])
        wv = _matmul(w, _diag2(ld.v))                           # (w_1 V, w_2 V)
        w2 = wv[..., r:] * (1j * ld.mu)[..., None, :]
        ep, em = exp_pair(ld.mu * (layer.left - ld.center))[..., None, :]
        g1, g2 = (wv[..., :r] + w2) * ep, (wv[..., :r] - w2) * em
        k = _matmul(ld.vinv, ld.a2inv) / (2j * ld.mu[..., :, None])
        families.append(Family(ld.mu, ld.center, -g2, k, g1, k))
        if m + 1 < len(basis.layers):      # w at the centre, the right junction: s = 0
            w = np.concatenate([g1 + g2, (g1 - g2) / (1j * ld.mu)[..., None, :]], axis=-1)
            w = 0.5 * _matmul(w, _diag2(ld.vinv))
    return families


def u_on_layer(basis, m, xs):
    """Primal kernel u on layer m, as Family.at: (Nx, r, r) or (N, r, r)."""
    return basis.primal[m].at(xs)


def u_star_on_layer(basis, m, xs):
    """Dual kernel u* on layer m, as Family.at: (Nx, r, r) or (N, r, r)."""
    return basis.dual[m].at(xs)


def row_function(fam, a2, xs):
    """w = (-u*' a2, u* a2) (w_1 = -w_2') from the dual family u* of a layer, as Family.at."""
    return np.concatenate([-fam.at(xs, 1) @ a2, fam.at(xs) @ a2], axis=-1)


def w_on_layer(basis, m, xs):
    """Dual row function w = (Phi0, Psi0) Omega^{-1} on layer m, as Family.at: (..., r, 2r)."""
    return row_function(basis.dual[m], basis.config.layers[m].a2, xs)


def eval_u(basis, x):
    """u(x, lam) as an r x r matrix; junction abscissae resolve to the right layer."""
    return u_on_layer(basis, basis.config.layer_index(float(x)), float(x))


def eval_u_star(basis, x):
    """u*(x, lam) as an r x r matrix; junction abscissae resolve to the right layer."""
    return u_star_on_layer(basis, basis.config.layer_index(float(x)), float(x))


# --- diagnostics: a 0-d value for a one-point view, one per lam for a batch ---


def _rel(resid, *refs):
    norms = [np.linalg.norm(a, axis=(-2, -1)) for a in (resid, *refs)]
    return norms[0] / np.maximum(np.max(norms[1:], axis=0), 1e-300)


def junction_residual_primal(basis, k):
    """Relative defect of M_1 (u; u')(l_k-) = M_2 (u; u')(l_k+) at junction k."""
    lk = basis.config.junction(k)
    m1, m2 = basis.pencils[k - 1]
    a = m1 @ _jet(basis.primal[k - 1], lk)
    b = m2 @ _jet(basis.primal[k], lk)
    return _rel(a - b, a, b)


def junction_residual_dual(basis, k):
    """Relative defect of w^(k) M_1^{-1} = w^(k+1) M_2^{-1} at junction k.

    This is the stiffness-weighted dual matching that the row function w
    inherits exactly from the primal recursion.
    """
    lk = basis.config.junction(k)
    m1_inv, m2_inv = basis.pencil_inv[k - 1]
    a = w_on_layer(basis, k - 1, lk) @ m1_inv
    b = w_on_layer(basis, k, lk) @ m2_inv
    return _rel(a - b, a, b)


def boundary_residual(basis):
    """Relative defect of the boundary condition applied to the primal kernel."""
    jet = _jet(basis.primal[0], basis.config.left_end)
    rel = _rel(basis.bnd_row @ jet, *np.split(jet, 2, axis=-2))
    return rel / np.linalg.norm(basis.bnd_row, axis=(-2, -1))


def dual_boundary_residual(basis):
    """Relative defect of w(l_0) = (value-row, derivative-row) of the boundary."""
    w0 = w_on_layer(basis, 0, basis.config.left_end)
    return _rel(w0 - basis.bnd_row, basis.bnd_row)
