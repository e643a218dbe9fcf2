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

    w(x) = 1/2 (G_1 e^{-iqs} + G_2 e^{iqs}, (G_1 e^{-iqs} - G_2 e^{iqs}) (iq)^{-1}):

one solve per layer, after which w costs what u costs.  w obeys
w' = (w_2 q^2, -w_1), so u* solves the formally adjoint equation exactly,
satisfies the a2-weighted dual junction relations
w^(k) M_1k^{-1} = w^(k+1) M_2k^{-1}, and w(l_0) reproduces the boundary
coefficient row identically.

Every kernel is therefore a Family lp diag(e^{i mu s}) rp + lm diag(e^{-i mu s})
rm: u with lp = lm = V and rp, rm = V^{-1} (C+- Phi0^{-1} - D+- Psi0^{-1})
(primal_family), u* with lp = -G_2 V, lm = G_1 V and rp = rm = K =
(2 i mu)^{-1} V^{-1} a2^{-1} (dual_family), and w = (-u*' a2, u* a2); the
full-axis branches (axis.py) are Families too.  Family.at is the one place a
kernel evaluates e^{+-i mu s}, and _wavenumber_eig the one gate every lam
passes: it must be positive with a nonzero square and a finite scaled pencil.

build_batch runs all of this for a whole spectral grid at once: one
Cholesky factor per layer and a batched eigh, pencils by broadcasting, the
recursion as batched solves on (N, 2r, 2r) and every condition gate as one
batched SVD.  Degenerate points are flagged, not raised; build_basis is
its one-point view.  Everything before the boundary functionals is
_build_families, which also builds the full axis's P families (axis.py);
its step _coef_from_stack also runs axis.py's left-to-right sweep.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import (
    DegenerateBoundary,
    InvariantViolation,
    OmegaSingular,
    RegularityViolation,
    WrongMode,
)
from .problem import SEMI_AXIS


def _wavenumber_eig(a2, g2, lams):
    """(mu, V, V^{-1}) with a2^{-1} (lam^2 E + g2) = V diag(mu^2) V^{-1}, mu > 0, per lam.

    With a2 = L L^H, L^{-1} (lam^2 E + g2) L^{-H} = U diag(mu^2) U^H is
    Hermitian positive-definite; V = L^{-H} U and V^{-1} = U^H L^H.  One
    Cholesky factor serves every lam; the eigh is batched, shapes (N, r[, r]).
    Every spectral parameter passes here: one that is not positive with a
    nonzero square, or whose scaled pencil L^{-1} (lam^2 E + g2) L^{-H} is
    not finite, raises InvariantViolation.
    """
    lams = np.asarray(lams, dtype=float)
    chol = np.linalg.cholesky(a2)
    chol_inv = np.linalg.inv(chol)
    with np.errstate(all="ignore"):
        lam2 = np.square(lams)
        pencil = chol_inv @ (np.multiply.outer(lam2, np.eye(a2.shape[0])) + g2) @ chol_inv.conj().T
    bad = ~((lams > 0) & (lam2 > 0) & np.isfinite(pencil).all(axis=(-2, -1)))
    if bad.any():
        raise InvariantViolation(f"spectral parameter {lams[bad][0]} is not positive with a "
                                 "nonzero square and a finite scaled pencil")
    mu2, u = np.linalg.eigh(pencil)
    return np.sqrt(mu2), chol_inv.conj().T @ u, u.conj().swapaxes(-1, -2) @ chol.conj().T


def compute_wavenumber(layer, lam):
    """Principal square root q = sqrt(a2^{-1} (lam^2 E + g2)) for one layer.

    For lam > 0 the spectrum is positive and real (_wavenumber_eig).
    """
    mu, v, vinv = _wavenumber_eig(
        np.asarray(layer.a2, dtype=complex), np.asarray(layer.g2, dtype=complex), [lam]
    )
    return (v[0] * mu[0]) @ vinv[0]


@dataclass
class Family:
    """K(x) = lp diag(e^{i mu s}) rp + lm diag(e^{-i mu s}) rm with s = x - center.

    mu (..., rho), lp and lm (..., a, rho), rp and rm (..., rho, b): one
    spectral point, or stacked over lam on axis 0.  Every kernel built today
    has real mu; at and the contractions of transform.py take complex mu too.
    """

    mu: np.ndarray
    center: float
    lp: np.ndarray
    rp: np.ndarray
    lm: np.ndarray
    rm: np.ndarray

    def at(self, xs, order=0):
        """d^order K / dx^order at each x of an (Nx,) xs, or per lam of a stacked K at one x."""
        if order not in (0, 1, 2):
            raise InvariantViolation(f"unsupported derivative order {order}")
        s = np.asarray(xs, dtype=float)[..., None] - self.center
        ep, em = np.exp(1j * self.mu * s), np.exp(-1j * self.mu * s)
        if order:
            ep, em = ep * (1j * self.mu) ** order, em * (-1j * self.mu) ** order
        return (self.lp * ep[..., None, :]) @ self.rp + (self.lm * em[..., None, :]) @ self.rm


@dataclass
class _LayerKernels:
    """Per-layer data at one spectral point, or stacked over a batch of them."""

    mu: np.ndarray         # (..., r): q = V diag(mu) V^{-1}, mu > 0
    v: np.ndarray          # (..., r, r)
    vinv: np.ndarray       # (..., r, r)
    a2inv: np.ndarray      # r x r, the same at every lam
    center: float
    coef: np.ndarray       # (..., 2r, 2r) [[C+, D+], [C-, D-]]: columns Phi | Psi

    def at(self, i):
        return replace(self, mu=self.mu[i], v=self.v[i], vinv=self.vinv[i], coef=self.coef[i])

    def family(self, plus, minus):
        """The Family V (e^{i mu s} V^{-1} plus + e^{-i mu s} V^{-1} minus) of this layer."""
        return Family(self.mu, self.center, self.v, self.vinv @ plus, self.v, self.vinv @ minus)


@dataclass
class SpectralBasisAtLambda:
    """All kernel data of one problem at one spectral parameter value."""

    lam: float
    config: object
    layers: list
    phi0: np.ndarray
    psi0: np.ndarray
    phi0_inv: np.ndarray
    psi0_inv: np.ndarray
    bnd_row: np.ndarray    # r x 2r row (value block | derivative block) at l_0

    @property
    def r(self):
        return self.config.r

    def coefficients(self, m):
        """(C+, C-, D+, D-) of layer m relative to exp(+/- i q (x - center))."""
        r = self.r
        c = self.layers[m].coef
        return c[..., :r, :r], c[..., r:, :r], c[..., :r, r:], c[..., r:, r:]


@dataclass
class SpectralBasisBatch(SpectralBasisAtLambda):
    """SpectralBasisAtLambda stacked over the points lam[i] on axis 0.

    flags maps the index of each degenerate point to the error build_basis
    raises there; the slices of those points hold regular placeholders.
    """

    flags: dict = None

    def at(self, i):
        return SpectralBasisAtLambda(
            lam=float(self.lam[i]), config=self.config, layers=[ld.at(i) for ld in self.layers],
            phi0=self.phi0[i], psi0=self.psi0[i], phi0_inv=self.phi0_inv[i],
            psi0_inv=self.psi0_inv[i], bnd_row=self.bnd_row[i],
        )


def _omega_stack(ld, xs, r):
    """Omega(x) = [[Phi, Psi], [Phi', Psi']] at each x, or at one x for a stacked ld."""
    fam = ld.family(ld.coef[..., :r, :], ld.coef[..., r:, :])
    return np.concatenate([fam.at(xs, 0), fam.at(xs, 1)], axis=-2)


def _coef_from_stack(ld, y, s=0.0):
    """Coefficients [C+; C-] of the family whose stack (F; F') at offset s is y.

    C+- = 1/2 e^{-+iqs} (y_1 -+ i q^{-1} y_2), with q^{-1} and e^{-+iqs}
    taken in the eigenbasis (no solve); s = 0 skips the phases.
    """
    r = ld.mu.shape[-1]
    corr = 1j * (ld.v / ld.mu[..., None, :]) @ (ld.vinv @ y[..., r:, :])   # i q^{-1} y_2
    lo, hi = y[..., :r, :] - corr, y[..., :r, :] + corr
    if s:
        ph = np.exp(-1j * ld.mu * s)[..., None]
        lo, hi = ld.v @ (ph * (ld.vinv @ lo)), ld.v @ (np.conj(ph) * (ld.vinv @ hi))
    return 0.5 * np.concatenate([lo, hi], axis=-2)


def _gate(blocks, flags, lams, make_error):
    """Flag the points whose blocks fail the rcond gate; flagged blocks become the identity."""
    for i in np.flatnonzero(linalg.rcond(blocks) < linalg.RCOND_FLOOR):
        flags.setdefault(int(i), make_error(lams[i]))
    if flags:
        blocks[list(flags)] = np.eye(blocks.shape[-1])


def _build_families(config, lams):
    """Wavenumbers and the backward junction sweep at every lam, for either geometry.

    Returns (layers, pencils, flags): per-layer _LayerKernels stacked over
    lams, whose coef holds the families normalized to the identity in the
    last layer; the gated junction pencils (M_1, M_2) per junction; and the
    flags of the points whose pencils fail the gate.  The tail layer is
    centered at its left end, or at 0 when that is -inf (one-layer full axis).
    """
    lams = np.asarray(lams, dtype=float).ravel()
    r = config.r
    L = config.n_layers
    n = lams.size
    flags = {}

    tail = config.layers[-1].left
    centers = [layer.right for layer in config.layers[:-1]] + [tail if np.isfinite(tail) else 0.0]
    lds = []
    for layer, center in zip(config.layers, centers):
        a2 = np.asarray(layer.a2, dtype=complex)
        g2 = np.asarray(layer.g2, dtype=complex)
        mu, v, vinv = _wavenumber_eig(a2, g2, lams)
        lds.append(
            _LayerKernels(
                mu=mu, v=v, vinv=vinv,
                a2inv=np.linalg.inv(a2),
                center=center,
                coef=np.broadcast_to(np.eye(2 * r, dtype=complex), (n, 2 * r, 2 * r)),
            )
        )

    # backward junction sweep: last layer keeps the identity coefficients
    pencils = [None] * (L - 1)
    for i in range(L - 2, -1, -1):
        k = i + 1                          # junction number, abscissa l_k
        omega_next = _omega_stack(lds[i + 1], config.layers[i].right, r)
        iface = config.interfaces[i]
        m1, m2 = iface.pencil(1, lams), iface.pencil(2, lams)
        for side, j, blk in (("right", 2, m2), ("left", 1, m1)):
            _gate(blk, flags, lams, lambda lam: RegularityViolation(
                f"junction {k}: {side}-side condition block M_{j}({lam}) is singular",
                lam=lam, junction=k,
            ))
        pencils[i] = m1, m2
        lds[i].coef = _coef_from_stack(lds[i], np.linalg.solve(m1, m2 @ omega_next))
    return lds, pencils, flags


def build_batch(config, lams):
    """Backward-propagate the kernel families of a semi-axis problem at every lam at once.

    _build_families runs the wavenumbers, junction recursion and pencil
    gates as stacked array operations over lams; this adds the boundary
    functionals.  A point failing a gate is recorded in the flags of the
    result, with the error build_basis raises there, and its pencils and
    boundary functionals are replaced by the identity so that the stacked
    solves stay regular.
    """
    if config.mode != SEMI_AXIS:
        raise WrongMode(
            "build_basis serves semi-axis problems; full-axis kernels live in the "
            "scalar axis transform"
        )
    lams = np.asarray(lams, dtype=float).ravel()
    lds, _pencils, flags = _build_families(config, lams)
    r = config.r

    bnd = config.boundary
    bnd_row = np.concatenate([bnd.value_row(lams), bnd.deriv_row(lams)], axis=-1)
    func_row = bnd_row @ _omega_stack(lds[0], config.left_end, r)
    phi0 = func_row[:, :, :r].copy()
    psi0 = func_row[:, :, r:].copy()
    for name, blk in (("Phi", phi0), ("Psi", psi0)):
        _gate(blk, flags, lams, lambda lam: DegenerateBoundary(
            f"boundary functional of the {name} family is singular at lam = {lam}", lam=lam,
        ))

    return SpectralBasisBatch(
        lam=lams,
        config=config,
        layers=lds,
        phi0=phi0,
        psi0=psi0,
        phi0_inv=np.linalg.inv(phi0),
        psi0_inv=np.linalg.inv(psi0),
        bnd_row=bnd_row,
        flags=flags,
    )


def build_basis(config, lam):
    """Kernel data of a semi-axis problem at lam: the one-point view of build_batch.

    Raises the RegularityViolation or DegenerateBoundary build_batch flags.
    """
    batch = build_batch(config, [lam])
    if batch.flags:
        raise batch.flags[0]
    return batch.at(0)


# --- kernel evaluation ------------------------------------------------------


def primal_family(basis, m):
    """u on layer m as a Family (module docstring), one point or stacked like basis."""
    r = basis.r
    ld = basis.layers[m]
    # two products, then the difference: for real coefficients M = -conj(P)
    # exactly, so u is exactly imaginary as Phi Phi0^{-1} - Psi Psi0^{-1} is
    cb = ld.coef[..., :r] @ basis.phi0_inv - ld.coef[..., r:] @ basis.psi0_inv
    return ld.family(cb[..., :r, :], cb[..., r:, :])


def dual_family(basis, m):
    """u* = w_2 a2^{-1} on layer m as a Family (module docstring), like primal_family.

    Omega(x) is singular exactly when coef is, so rcond(coef) is the one gate
    (OmegaSingular).  Placeholder slices of flagged points are regular too.
    """
    r = basis.r
    ld = basis.layers[m]
    rc = np.atleast_1d(linalg.rcond(ld.coef))
    bad = np.flatnonzero(~(rc >= linalg.RCOND_FLOOR))
    if bad.size:
        raise OmegaSingular(
            f"fundamental matrix of layer {m} at lam = {np.atleast_1d(basis.lam)[bad[0]]}: "
            f"reciprocal condition {rc[bad[0]]:.3g} below floor"
        )
    row = np.concatenate([basis.phi0, basis.psi0], axis=-1)
    g = np.linalg.solve(ld.coef.swapaxes(-1, -2), row.swapaxes(-1, -2)).swapaxes(-1, -2)
    k = (ld.vinv / (2j * ld.mu[..., :, None])) @ ld.a2inv
    return Family(ld.mu, ld.center, -(g[..., r:] @ ld.v), k, g[..., :r] @ ld.v, k)


def u_on_layer(basis, m, xs, order=0):
    """Primal kernel u (or a derivative) on layer m at abscissae xs: (N, r, r)."""
    return primal_family(basis, m).at(np.atleast_1d(xs), order)


def u_star_on_layer(basis, m, xs, order=0):
    """Dual kernel u* (or a derivative) on layer m at abscissae xs: (N, r, r)."""
    return dual_family(basis, m).at(np.atleast_1d(xs), order)


def row_function(fam, a2, xs):
    """w = (-u*' a2, u* a2) (w_1 = -w_2') from the dual family u* of a layer, as Family.at."""
    return np.concatenate([-fam.at(xs, 1) @ a2, fam.at(xs) @ a2], axis=-1)


def w_on_layer(basis, m, xs):
    """Dual row function w = (Phi0, Psi0) Omega^{-1} on layer m: (N, r, 2r)."""
    fam = dual_family(basis, m)
    return row_function(fam, basis.config.layers[m].a2, np.atleast_1d(xs))


def eval_u(basis, x, order=0):
    """u(x, lam) as an r x r matrix; junction abscissae resolve to the right layer."""
    m = basis.config.layer_index(float(x))
    return u_on_layer(basis, m, [float(x)], order=order)[0]


def eval_u_star(basis, x, order=0):
    """u*(x, lam) as an r x r matrix; junction abscissae resolve to the right layer."""
    m = basis.config.layer_index(float(x))
    return u_star_on_layer(basis, m, [float(x)], order=order)[0]


# --- diagnostics ------------------------------------------------------------


def _rel(resid, *refs):
    scale = max([np.linalg.norm(r_) for r_ in refs] + [1e-300])
    return np.linalg.norm(resid) / scale


def junction_residual_primal(basis, k):
    """Relative defect of M_1 (u; u')(l_k-) = M_2 (u; u')(l_k+) at junction k."""
    cfg = basis.config
    lk = cfg.junction(k)
    iface = cfg.interfaces[k - 1]
    m1 = iface.pencil(1, basis.lam)
    m2 = iface.pencil(2, basis.lam)
    left = np.vstack([
        u_on_layer(basis, k - 1, [lk], order=0)[0],
        u_on_layer(basis, k - 1, [lk], order=1)[0],
    ])
    right = np.vstack([
        u_on_layer(basis, k, [lk], order=0)[0],
        u_on_layer(basis, k, [lk], order=1)[0],
    ])
    a = m1 @ left
    b = m2 @ right
    return _rel(a - b, a, b)


def junction_residual_dual(basis, k):
    """Relative defect of w^(k) M_1^{-1} = w^(k+1) M_2^{-1} at junction k.

    This is the stiffness-weighted dual matching that the row function w
    inherits exactly from the primal recursion.
    """
    cfg = basis.config
    lk = cfg.junction(k)
    iface = cfg.interfaces[k - 1]
    m1 = iface.pencil(1, basis.lam)
    m2 = iface.pencil(2, basis.lam)
    wl = w_on_layer(basis, k - 1, [lk])[0]
    wr = w_on_layer(basis, k, [lk])[0]
    a = linalg.right_solve(wl, m1)
    b = linalg.right_solve(wr, m2)
    return _rel(a - b, a, b)


def boundary_residual(basis):
    """Relative defect of the boundary condition applied to the primal kernel."""
    cfg = basis.config
    l0 = cfg.left_end
    val = u_on_layer(basis, 0, [l0], order=0)[0]
    der = u_on_layer(basis, 0, [l0], order=1)[0]
    r = basis.r
    resid = basis.bnd_row[:, :r] @ val + basis.bnd_row[:, r:] @ der
    scale = max(
        np.linalg.norm(basis.bnd_row) * max(np.linalg.norm(val), np.linalg.norm(der)),
        1e-300,
    )
    return np.linalg.norm(resid) / scale


def dual_boundary_residual(basis):
    """Relative defect of w(l_0) = (value-row, derivative-row) of the boundary."""
    l0 = basis.config.left_end
    w0 = w_on_layer(basis, 0, [l0])[0]
    return _rel(w0 - basis.bnd_row, basis.bnd_row)
