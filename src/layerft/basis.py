"""Kernel families for layered problems on the semi-axis.

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
coefficient row identically.  In the eigenbasis u = V (e^{i mu s} P +
e^{-i mu s} M) with P = V^{-1} (C+ Phi0^{-1} - D+ Psi0^{-1}) and M alike
(plus_minus), so both kernels are per-lam coefficients times e^{+-i mu s}.

build_batch runs all of this for a whole spectral grid at once: one
Cholesky factor per layer and a batched eigh, pencils by broadcasting, the
recursion as batched solves on (N, 2r, 2r) and every condition gate as one
batched SVD.  Degenerate points are flagged, not raised; build_basis is
its one-point view.
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
from .linalg import RCOND_FLOOR
from .problem import SEMI_AXIS


def _wavenumber_eig(a2, g2, lams):
    """(mu, V, V^{-1}) with a2^{-1} (lam^2 E + g2) = V diag(mu^2) V^{-1}, mu > 0, per lam.

    With a2 = L L^H, L^{-1} (lam^2 E + g2) L^{-H} = U diag(mu^2) U^H is
    Hermitian positive-definite; V = L^{-H} U and V^{-1} = U^H L^H.  One
    Cholesky factor serves every lam; the eigh is batched, shapes (N, r[, r]).
    """
    chol = np.linalg.cholesky(a2)
    chol_inv = np.linalg.inv(chol)
    pencil = np.multiply.outer(np.square(lams), np.eye(a2.shape[0])) + g2
    mu2, u = np.linalg.eigh(chol_inv @ pencil @ chol_inv.conj().T)
    return np.sqrt(mu2), chol_inv.conj().T @ u, u.conj().swapaxes(-1, -2) @ chol.conj().T


def compute_wavenumber(layer, lam):
    """Principal square root q = sqrt(a2^{-1} (lam^2 E + g2)) for one layer.

    For lam > 0 the spectrum is positive and real (_wavenumber_eig).
    """
    if lam <= 0:
        raise InvariantViolation(f"spectral parameter must be positive, got {lam}")
    mu, v, vinv = _wavenumber_eig(
        np.asarray(layer.a2, dtype=complex), np.asarray(layer.g2, dtype=complex), [lam]
    )
    return (v[0] * mu[0]) @ vinv[0]


@dataclass
class _LayerKernels:
    """Per-layer data at one spectral point, or stacked over a batch of them."""

    mu: np.ndarray         # (..., r): q = V diag(mu) V^{-1}, mu > 0
    v: np.ndarray          # (..., r, r)
    vinv: np.ndarray       # (..., r, r)
    q2: np.ndarray         # a2^{-1} (lam^2 E + g2), exact (not q @ q)
    a2inv: np.ndarray      # r x r, the same at every lam
    center: float
    coef: np.ndarray       # (..., 2r, 2r) [[C+, D+], [C-, D-]]: columns Phi | Psi

    @property
    def q(self):
        return (self.v * self.mu[..., None, :]) @ self.vinv

    def at(self, i):
        return replace(self, mu=self.mu[i], v=self.v[i], vinv=self.vinv[i], q2=self.q2[i],
                       coef=self.coef[i])


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


def _family(ld, s, a, b, order):
    """V (e^{i mu s} a + e^{-i mu s} b) or its x-derivative (order 1).

    One row block per s of an (Nx,) array s, or one per lam of a stacked ld
    at a scalar s.
    """
    ep = np.exp(1j * ld.mu * np.asarray(s, dtype=float)[..., None])[..., None]
    em = np.conj(ep)
    if order == 1:
        ep, em = 1j * ld.mu[..., None] * ep, -1j * ld.mu[..., None] * em
    return ld.v @ (ep * a + em * b)


def _omega_stack(ld, xs, r):
    """Omega(x) = [[Phi, Psi], [Phi', Psi']] at each x, or at one x for a stacked ld."""
    s = np.asarray(xs, dtype=float) - ld.center
    a, b = ld.vinv @ ld.coef[..., :r, :], ld.vinv @ ld.coef[..., r:, :]
    return np.concatenate([_family(ld, s, a, b, 0), _family(ld, s, a, b, 1)], axis=-2)


def build_batch(config, lams, rcond_floor=RCOND_FLOOR):
    """Backward-propagate the kernel families of a semi-axis problem at every lam at once.

    Wavenumbers, junction recursion and regularity gates run as stacked
    array operations over lams.  A point failing a gate is recorded in the
    flags of the result, with the error build_basis raises there, and its
    pencils and boundary functionals are replaced by the identity so that
    the stacked solves stay regular.
    """
    if config.mode != SEMI_AXIS:
        raise WrongMode(
            "build_basis serves semi-axis problems; full-axis kernels live in the "
            "scalar axis transform"
        )
    lams = np.asarray(lams, dtype=float).ravel()
    if np.any(lams <= 0):
        raise InvariantViolation(
            f"spectral parameter must be positive, got {lams[np.argmax(lams <= 0)]}"
        )

    r = config.r
    L = config.n_layers
    n = lams.size
    flags = {}

    def gate(blocks, make_error):
        for i in np.flatnonzero(linalg.rcond(blocks) < rcond_floor):
            flags.setdefault(int(i), make_error(lams[i]))
        if flags:
            blocks[list(flags)] = np.eye(blocks.shape[-1])

    lds = []
    for m, layer in enumerate(config.layers):
        a2 = np.asarray(layer.a2, dtype=complex)
        g2 = np.asarray(layer.g2, dtype=complex)
        mu, v, vinv = _wavenumber_eig(a2, g2, lams)
        lds.append(
            _LayerKernels(
                mu=mu, v=v, vinv=vinv,
                q2=np.linalg.solve(a2, np.multiply.outer(np.square(lams), np.eye(r)) + g2),
                a2inv=np.linalg.inv(a2),
                center=layer.right if m < L - 1 else layer.left,
                coef=np.broadcast_to(np.eye(2 * r, dtype=complex), (n, 2 * r, 2 * r)),
            )
        )

    # backward junction sweep: last layer keeps the identity coefficients
    for i in range(L - 2, -1, -1):
        k = i + 1                          # junction number, abscissa l_k
        omega_next = _omega_stack(lds[i + 1], config.layers[i].right, r)
        iface = config.interfaces[i]
        m1, m2 = iface.pencil(1, lams), iface.pencil(2, lams)
        for side, j, blk in (("right", 2, m2), ("left", 1, m1)):
            gate(blk, lambda lam: RegularityViolation(
                f"junction {k}: {side}-side condition block M_{j}({lam}) is singular",
                lam=lam, junction=k,
            ))
        y = np.linalg.solve(m1, m2 @ omega_next)
        ld = lds[i]
        corr = 1j * (ld.v / ld.mu[:, None, :]) @ (ld.vinv @ y[:, r:, :])   # i q^{-1} y_2
        ld.coef = 0.5 * np.concatenate([y[:, :r, :] - corr, y[:, :r, :] + corr], axis=1)

    bnd = config.boundary
    bnd_row = np.concatenate([bnd.value_row(lams), bnd.deriv_row(lams)], axis=-1)
    func_row = bnd_row @ _omega_stack(lds[0], config.left_end, r)
    phi0 = func_row[:, :, :r].copy()
    psi0 = func_row[:, :, r:].copy()
    for name, blk in (("Phi", phi0), ("Psi", psi0)):
        gate(blk, lambda lam: DegenerateBoundary(
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


def build_basis(config, lam, rcond_floor=RCOND_FLOOR):
    """Kernel data of a semi-axis problem at lam: the one-point view of build_batch.

    Raises the RegularityViolation or DegenerateBoundary build_batch flags.
    """
    batch = build_batch(config, [lam], rcond_floor)
    if batch.flags:
        raise batch.flags[0]
    return batch.at(0)


# --- kernel evaluation ------------------------------------------------------


def plus_minus(basis, m):
    """(P, M) of layer m with u = V (e^{i mu s} P + e^{-i mu s} M), s = x - center.

    P = V^{-1} (C+ Phi0^{-1} - D+ Psi0^{-1}) and M alike with (C-, D-); one
    point or stacked like basis.
    """
    r = basis.r
    ld = basis.layers[m]
    # two products, then the difference: for real coefficients M = -conj(P)
    # exactly, so u is exactly imaginary as Phi Phi0^{-1} - Psi Psi0^{-1} is
    cb = ld.coef[..., :r] @ basis.phi0_inv - ld.coef[..., r:] @ basis.psi0_inv
    return ld.vinv @ cb[..., :r, :], ld.vinv @ cb[..., r:, :]


def u_on_layer(basis, m, xs, order=0):
    """Primal kernel u (or a derivative) on layer m at abscissae xs: (N, r, r)."""
    if order not in (0, 1, 2):
        raise InvariantViolation(f"unsupported derivative order {order}")
    ld = basis.layers[m]
    s = np.atleast_1d(np.asarray(xs, dtype=float)) - ld.center
    u = _family(ld, s, *plus_minus(basis, m), order % 2)
    return -ld.q2 @ u if order == 2 else u


def dual_coef(basis, m, rcond_floor=RCOND_FLOOR):
    """G = (Phi0, Psi0) coef^{-1} of layer m, one point or stacked like basis.

    Omega(x) is singular exactly when coef is, so rcond(coef) is the one gate
    (OmegaSingular).  Placeholder slices of flagged points are regular too.
    """
    coef = basis.layers[m].coef
    rc = np.atleast_1d(linalg.rcond(coef))
    bad = np.flatnonzero(~(rc >= rcond_floor))
    if bad.size:
        raise OmegaSingular(
            f"fundamental matrix of layer {m} at lam = {np.atleast_1d(basis.lam)[bad[0]]}: "
            f"reciprocal condition {rc[bad[0]]:.3g} below floor"
        )
    row = np.concatenate([basis.phi0, basis.psi0], axis=-1)
    return np.linalg.solve(coef.swapaxes(-1, -2), row.swapaxes(-1, -2)).swapaxes(-1, -2)


def dual_rows(g, ld, phase):
    """w = 1/2 (G_1 e^{-iqs} + G_2 e^{iqs}, (G_1 e^{-iqs} - G_2 e^{iqs}) (iq)^{-1}).

    phase = e^{i mu s}, shape (..., r) broadcasting against g (..., r, 2r).
    """
    r = ld.mu.shape[-1]
    em = (g[..., :r] @ ld.v) * np.conj(phase)[..., None, :]
    ep = (g[..., r:] @ ld.v) * phase[..., None, :]
    return np.concatenate(
        [(em + ep) @ (0.5 * ld.vinv), (em - ep) @ (ld.vinv / (2j * ld.mu[..., :, None]))],
        axis=-1,
    )


def w_on_layer(basis, m, xs, rcond_floor=RCOND_FLOOR):
    """Dual row function w = (Phi0, Psi0) Omega^{-1} on layer m: (N, r, 2r).

    Closed form of the module docstring (dual_coef, dual_rows).
    """
    ld = basis.layers[m]
    s = np.atleast_1d(np.asarray(xs, dtype=float)) - ld.center
    return dual_rows(dual_coef(basis, m, rcond_floor), ld, np.exp(1j * ld.mu * s[:, None]))


def u_star_on_layer(basis, m, xs, order=0):
    """Dual kernel u* (or a derivative) on layer m at abscissae xs: (N, r, r)."""
    r = basis.r
    ld = basis.layers[m]
    w = w_on_layer(basis, m, xs)
    if order == 0:
        return w[:, :, r:] @ ld.a2inv
    if order == 1:
        return -w[:, :, :r] @ ld.a2inv
    if order == 2:
        return -w[:, :, r:] @ (ld.q2 @ ld.a2inv)
    raise InvariantViolation(f"unsupported derivative order {order}")


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
