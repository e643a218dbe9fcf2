"""Radial spectral pair in n >= 2 dimensions and the half-space Poisson kernel.

For radially symmetric data f(|eta|) on R^n the transform evaluated at the
origin reads

    image(lam) = 2^(1 - n/2) / Gamma(n/2) *
                 integral rho^(n-1) f(rho) J_nu(lam rho) / rho^nu drho,

with nu = (n - 2)/2, and the value at the origin is recovered by

    f(0) = integral over lam > 0 of lam^(n/2) image(lam) dlam,

computed by quadrature.damped_limit, the exp(-tau lam) damping and Neville
extrapolation shared with the one-dimensional inversions.  The pair is
exact: for the unit Gaussian the image is exp(-lam^2/2) scaled by lam^nu
factors and the inversion integral evaluates to 1 in closed form for every n.

poisson_halfspace integrates radial boundary data against the half-space
kernel c_n x (|y - eta|^2 + x^2)^(-(n+1)/2), c_n = Gamma((n+1)/2)/pi^((n+1)/2),
using closed-form angular reductions for n = 2 (complete elliptic integral)
and n = 3 (rational), and Gauss-Legendre in the polar angle for n >= 4.

Bessel values come from a power series for |z| < 12 and the large-argument
asymptotic expansion (6 terms of P and Q) beyond; for half-integer orders
the asymptotic series terminates and is exact.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _quad
from scipy.special import ellipe

from .errors import InvariantViolation, NonpositiveHeight, UnsupportedDimension
from .gridfn import SpectralImage
from .quadrature import composite_gauss, damped_limit, spectral_grid

BESSEL_CROSSOVER = 12.0
_SERIES_TERMS = 40
_ASYMPTOTIC_TERMS = 6


def _bessel_series(nu, z):
    """Power series of J_nu(z), accurate for |z| below the crossover."""
    half = 0.5 * np.asarray(z, dtype=float)
    term = half**nu / math.gamma(nu + 1.0)
    total = term.copy()
    zz = -(half * half)
    for k in range(1, _SERIES_TERMS):
        term = term * zz / (k * (k + nu))
        total += term
    return total


def _bessel_asymptotic(nu, z):
    """Large-argument expansion; exact for half-integer nu (series terminates)."""
    mu = 4.0 * nu * nu
    inv8z = 1.0 / (8.0 * z)
    a = np.ones_like(z)
    p = np.ones_like(z)
    q = np.zeros_like(z)
    for j in range(1, 2 * _ASYMPTOTIC_TERMS):
        a = a * (mu - (2 * j - 1) ** 2) * inv8z / j
        if j % 2 == 1:
            q += (-1.0) ** ((j - 1) // 2) * a
        else:
            p += (-1.0) ** (j // 2) * a
    chi = z - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * z)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j(nu, z):
    """J_nu(z) for nu >= 0 on z >= 0 (integer nu also accepts negative z)."""
    if nu < 0:
        raise InvariantViolation(f"order must be nonnegative, got {nu}")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    sign = np.ones_like(z)
    if np.any(z < 0):
        if abs(nu - round(nu)) > 1e-12:
            raise InvariantViolation(
                f"negative argument needs an integer order, got nu = {nu}"
            )
        sign = np.where(z < 0, (-1.0) ** int(round(nu)), 1.0)
        z = np.abs(z)
    out = np.empty_like(z)
    small = z < BESSEL_CROSSOVER
    if np.any(small):
        out[small] = _bessel_series(nu, z[small])
    if np.any(~small):
        out[~small] = _bessel_asymptotic(nu, z[~small])
    out *= sign
    return float(out[0]) if scalar else out


def bessel_ratio(nu, z):
    """J_nu(z) / z^nu, finite at z = 0 (equals 1 / (2^nu Gamma(nu+1)) there)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    tiny = z < 0.5
    if np.any(tiny):
        zt = z[tiny]
        term = np.full_like(zt, 1.0 / (2.0**nu * math.gamma(nu + 1.0)))
        total = term.copy()
        zz = -0.25 * zt * zt
        for k in range(1, 12):
            term = term * zz / (k * (k + nu))
            total += term
        out[tiny] = total
    if np.any(~tiny):
        zb = z[~tiny]
        out[~tiny] = bessel_j(nu, zb) / zb**nu
    return out


@dataclass(frozen=True)
class RadialProfile:
    """Radial data f(rho) on R^n with an effective support radius rho_max."""

    n: int
    fn: object
    rho_max: float

    def __post_init__(self):
        _check_dimension(self.n)
        if self.rho_max <= 0:
            raise InvariantViolation("rho_max must be positive")

    def __call__(self, rho):
        return np.asarray(self.fn(np.asarray(rho, dtype=float)), dtype=float)


def _check_dimension(n):
    if int(n) != n or n < 2:
        raise UnsupportedDimension(
            f"radial machinery needs integer dimension n >= 2, got {n}"
        )
    return int(n)


def _forward_const(n):
    return 2.0 ** (1.0 - 0.5 * n) / math.gamma(0.5 * n)


def forward_nd(profile, lam, order=12):
    """Radial transform of profile at the origin, for scalar or array lam."""
    n = _check_dimension(profile.n)
    nu = 0.5 * (n - 2)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam_arr <= 0):
        raise InvariantViolation("spectral points must be positive")
    rate = max(1.0, float(lam_arr.max()))
    n_panels = max(1, math.ceil(profile.rho_max * rate / math.pi))
    nodes, weights = composite_gauss(0.0, profile.rho_max, n_panels, order)
    base = weights * nodes ** (n - 1) * profile(nodes)
    const = _forward_const(n)
    vals = np.empty(lam_arr.size)
    for i, la in enumerate(lam_arr):
        vals[i] = const * la**nu * float(base @ bessel_ratio(nu, la * nodes))
    return float(vals[0]) if np.ndim(lam) == 0 else vals


def forward_nd_image(profile, spec):
    """Image of profile on a composite spectral grid, ready for inverse_nd."""
    n = _check_dimension(profile.n)
    grid = spectral_grid(spec, math.pi / (4.0 * profile.rho_max))
    values = forward_nd(profile, grid.nodes)
    return SpectralImage(
        lambdas=grid.nodes,
        values=values[:, None].astype(complex),
        meta={"weights": grid.weights, "dimension": n, "rho_max": profile.rho_max},
    )


def inverse_nd(image, spec, n=None):
    """Value at the origin from a radial image: integral of lam^(n/2) image.

    Damped with exp(-tau lam) on the QuadratureSpec tau schedule and extrapolated to
    tau = 0.  Quadrature weights ride along in image.meta["weights"] when the
    image came from forward_nd_image; otherwise the trapezoid rule on the
    stored grid is used (CSV round trips).
    """
    if n is None:
        n = image.meta.get("dimension")
        if n is None:
            raise InvariantViolation(
                "dimension not recorded in the image; pass n explicitly"
            )
    n = _check_dimension(n)
    lams = image.lambdas
    weights = image.meta.get("weights")
    if weights is None:
        if lams.size < 2:
            raise InvariantViolation(
                "cannot integrate a single-point image without quadrature weights"
            )
        weights = np.empty_like(lams)
        weights[1:-1] = 0.5 * (lams[2:] - lams[:-2])
        weights[0] = 0.5 * (lams[1] - lams[0])
        weights[-1] = 0.5 * (lams[-1] - lams[-2])
    else:
        weights = np.asarray(weights, dtype=float)

    limit, _err = damped_limit(spec, lams, weights * lams ** (0.5 * n), image.values[:, :1])
    if not np.isfinite(limit[0]):
        # a non-finite row defeats the tail guard (NaN compares false); find it only now
        bad = np.flatnonzero(~np.isfinite(image.values[:, 0]))
        where = f"image row {bad[0]} (lam = {lams[bad[0]]:.6g})" if bad.size else "the damped sum"
        raise InvariantViolation(f"radial inversion: {where} is not finite")
    return complex(limit[0])


# --- half-space Poisson integral --------------------------------------------


def _poisson_c(n):
    return math.gamma(0.5 * (n + 1)) / math.pi ** (0.5 * (n + 1))


def _sphere_area(k):
    """Surface measure of the unit sphere S^k in R^(k+1)."""
    return 2.0 * math.pi ** (0.5 * (k + 1)) / math.gamma(0.5 * (k + 1))


def _angular_factor(n, a, b):
    """integral over [0, pi] of sin^(n-2)t (a - b cos t)^(-(n+1)/2) dt, n >= 4."""
    nodes, weights = composite_gauss(0.0, math.pi, 1, 200)
    s = np.sin(nodes) ** (n - 2)
    return float(np.sum(weights * s * (a - b * np.cos(nodes)) ** (-0.5 * (n + 1))))


def poisson_halfspace(profile, x, y=0.0):
    """Harmonic extension of radial boundary data to height x at offset |y|.

    Uses exact angular reductions for n = 2 and n = 3; higher dimensions do a
    Gauss-Legendre polar-angle integral per radial point.  The radial
    integral runs to infinity (the kernel decays algebraically, so bounded
    data integrates fine).
    """
    n = _check_dimension(profile.n)
    if x <= 0:
        raise NonpositiveHeight(f"height must be positive, got x = {x}")
    y = abs(float(y))

    if n == 2:

        def integrand(rho):
            a = rho * rho + y * y + x * x
            b = 2.0 * y * rho
            m = 2.0 * b / (a + b)
            return (
                float(profile(rho))
                * 4.0
                * rho
                * ellipe(m)
                / ((a - b) * math.sqrt(a + b))
            )

        prefactor = x / (2.0 * math.pi)
    elif n == 3:

        def integrand(rho):
            am = (y - rho) ** 2 + x * x
            ap = (y + rho) ** 2 + x * x
            return float(profile(rho)) * rho * rho / (am * ap)

        prefactor = 4.0 * x / math.pi
    else:
        area = _sphere_area(n - 2)
        cn = _poisson_c(n)

        def integrand(rho):
            a = rho * rho + y * y + x * x
            b = 2.0 * y * rho
            return float(profile(rho)) * rho ** (n - 1) * _angular_factor(n, a, b)

        prefactor = cn * x * area

    cut = max(profile.rho_max, 10.0 * x, 2.0 * y + 10.0, 20.0)
    pts = sorted({p for p in (y - 5 * x, y, y + 5 * x) if 0.0 < p < cut})
    head, _ = _quad(integrand, 0.0, cut, points=pts or None, limit=300)
    tail, _ = _quad(integrand, cut, np.inf, limit=200)
    return prefactor * (head + tail)
