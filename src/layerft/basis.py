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
coefficient row identically.
"""

from dataclasses import dataclass

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


def _wavenumber_eig(a2, g2, lam):
    """(mu, V, V^{-1}) with a2^{-1} (lam^2 E + g2) = V diag(mu^2) V^{-1}, mu > 0.

    With a2 = L L^H, L^{-1} (lam^2 E + g2) L^{-H} = U diag(mu^2) U^H is
    Hermitian positive-definite; V = L^{-H} U and V^{-1} = U^H L^H.
    """
    chol = np.linalg.cholesky(a2)
    chol_inv = np.linalg.inv(chol)
    mu2, u = np.linalg.eigh(chol_inv @ (lam**2 * np.eye(a2.shape[0]) + g2) @ chol_inv.conj().T)
    return np.sqrt(mu2), chol_inv.conj().T @ u, u.conj().T @ chol.conj().T


def compute_wavenumber(layer, lam):
    """Principal square root q = sqrt(a2^{-1} (lam^2 E + g2)) for one layer.

    For lam > 0 the spectrum is positive and real (_wavenumber_eig).
    """
    if lam <= 0:
        raise InvariantViolation(f"spectral parameter must be positive, got {lam}")
    mu, v, vinv = _wavenumber_eig(
        np.asarray(layer.a2, dtype=complex), np.asarray(layer.g2, dtype=complex), lam
    )
    return (v * mu) @ vinv


@dataclass
class _LayerKernels:
    """Per-layer data frozen at one value of the spectral parameter."""

    q: np.ndarray          # r x r wavenumber block
    q2: np.ndarray         # a2^{-1} (lam^2 E + g2), exact (not q @ q)
    a2inv: np.ndarray
    center: float
    eig: tuple             # (mu, V, Vinv): q = V diag(mu) Vinv, mu > 0
    coef: np.ndarray       # 2r x 2r [[C+, D+], [C-, D-]]: columns Phi | Psi


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
        return c[:r, :r], c[r:, :r], c[:r, r:], c[r:, r:]


def _exp_iqs(ld, s, sign):
    """exp(sign * i * q * s_i) for each s_i, shape (N, r, r)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    mu, v, vinv = ld.eig
    return (v * np.exp(sign * 1j * mu * s[:, None])[:, None, :]) @ vinv


def _omega_stack(ld, xs, r):
    """Omega(x) = [[Phi, Psi], [Phi', Psi']] at each x, shape (N, 2r, 2r)."""
    s = np.asarray(xs, dtype=float) - ld.center
    ep = _exp_iqs(ld, s, +1)
    em = _exp_iqs(ld, s, -1)
    plus = np.einsum("nij,jk->nik", ep, ld.coef[:r, :])
    minus = np.einsum("nij,jk->nik", em, ld.coef[r:, :])
    top = plus + minus
    bot = np.einsum("ij,njk->nik", 1j * ld.q, plus - minus)
    n = top.shape[0]
    out = np.empty((n, 2 * r, 2 * r), dtype=complex)
    out[:, :r, :] = top
    out[:, r:, :] = bot
    return out


def build_basis(config, lam, rcond_floor=RCOND_FLOOR):
    """Backward-propagate the kernel families of a semi-axis problem at lam."""
    if config.mode != SEMI_AXIS:
        raise WrongMode(
            "build_basis serves semi-axis problems; full-axis kernels live in the "
            "scalar axis transform"
        )
    if lam <= 0:
        raise InvariantViolation(f"spectral parameter must be positive, got {lam}")

    r = config.r
    E = np.eye(r, dtype=complex)
    L = config.n_layers
    l0 = config.left_end

    lds = []
    for m, layer in enumerate(config.layers):
        a2 = np.asarray(layer.a2, dtype=complex)
        g2 = np.asarray(layer.g2, dtype=complex)
        mu, v, vinv = _wavenumber_eig(a2, g2, lam)
        lds.append(
            _LayerKernels(
                q=(v * mu) @ vinv,
                q2=np.linalg.solve(a2, lam**2 * E + g2),
                a2inv=np.linalg.inv(a2),
                center=layer.right if m < L - 1 else layer.left,
                eig=(mu, v, vinv),
                coef=np.eye(2 * r, dtype=complex),
            )
        )

    # backward junction sweep: last layer keeps the identity coefficients
    for i in range(L - 2, -1, -1):
        k = i + 1                          # junction number, abscissa l_k
        lk = config.layers[i].right
        omega_next = _omega_stack(lds[i + 1], [lk], r)[0]
        iface = config.interfaces[i]
        m1 = iface.pencil(1, lam)
        m2 = iface.pencil(2, lam)
        if linalg.rcond(m2) < rcond_floor:
            raise RegularityViolation(
                f"junction {k}: right-side condition block M_2({lam}) is singular",
                lam=lam, junction=k,
            )
        if linalg.rcond(m1) < rcond_floor:
            raise RegularityViolation(
                f"junction {k}: left-side condition block M_1({lam}) is singular",
                lam=lam, junction=k,
            )
        y = np.linalg.solve(m1, m2 @ omega_next)
        corr = 1j * np.linalg.solve(lds[i].q, y[r:, :])
        coef = np.empty((2 * r, 2 * r), dtype=complex)
        coef[:r, :] = 0.5 * (y[:r, :] - corr)
        coef[r:, :] = 0.5 * (y[:r, :] + corr)
        lds[i].coef = coef

    bnd = config.boundary
    bnd_row = np.hstack([bnd.value_row(lam), bnd.deriv_row(lam)])
    omega0 = _omega_stack(lds[0], [l0], r)[0]
    func_row = bnd_row @ omega0
    phi0 = func_row[:, :r]
    psi0 = func_row[:, r:]
    for name, blk in (("Phi", phi0), ("Psi", psi0)):
        if linalg.rcond(blk) < rcond_floor:
            raise DegenerateBoundary(
                f"boundary functional of the {name} family is singular at lam = {lam}",
                lam=lam,
            )

    return SpectralBasisAtLambda(
        lam=lam,
        config=config,
        layers=lds,
        phi0=phi0,
        psi0=psi0,
        phi0_inv=np.linalg.inv(phi0),
        psi0_inv=np.linalg.inv(psi0),
        bnd_row=bnd_row,
    )


# --- kernel evaluation ------------------------------------------------------


def u_on_layer(basis, m, xs, order=0):
    """Primal kernel u (or a derivative) on layer m at abscissae xs: (N, r, r)."""
    r = basis.r
    omega = _omega_stack(basis.layers[m], xs, r)
    phi = omega[:, :r, :r] if order != 1 else omega[:, r:, :r]
    psi = omega[:, :r, r:] if order != 1 else omega[:, r:, r:]
    u = phi @ basis.phi0_inv - psi @ basis.psi0_inv
    if order == 0 or order == 1:
        return u
    if order == 2:
        return -np.einsum("ij,njk->nik", basis.layers[m].q2, u)
    raise InvariantViolation(f"unsupported derivative order {order}")


def w_on_layer(basis, m, xs, rcond_floor=RCOND_FLOOR):
    """Dual row function w = (Phi0, Psi0) Omega^{-1} on layer m: (N, r, 2r).

    Closed form of the module docstring.  Omega(x) is singular exactly when
    coef is, so rcond(coef) is the one gate.
    """
    r = basis.r
    ld = basis.layers[m]
    mu, v, vinv = ld.eig
    g = linalg.right_solve(
        np.hstack([basis.phi0, basis.psi0]), ld.coef, rcond_floor, err=OmegaSingular,
        context=f"fundamental matrix of layer {m} at lam = {basis.lam}",
    )
    s = np.atleast_1d(np.asarray(xs, dtype=float)) - ld.center
    em = (g[:, :r] @ v) * np.exp(-1j * mu * s[:, None])[:, None, :]
    ep = (g[:, r:] @ v) * np.exp(1j * mu * s[:, None])[:, None, :]
    w = np.empty((s.size, r, 2 * r), dtype=complex)
    w[:, :, :r] = (em + ep) @ (0.5 * vinv)
    w[:, :, r:] = (em - ep) @ (vinv / (2j * mu[:, None]))
    return w


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
