"""Radial spectral pair in n >= 2 dimensions and the half-space Poisson kernel.

For radially symmetric data f(|eta|) on R^n the transform evaluated at the
origin reads

    image(lam) = 2^(1 - n/2) / Gamma(n/2) *
                 integral rho^(n-1) f(rho) J_nu(lam rho) / rho^nu drho,

with nu = (n - 2)/2, and the value at the origin is recovered by

    f(0) = integral over lam > 0 of lam^(n/2) image(lam) dlam,

computed with quadrature.damping_matrix and tau_limit, the exp(-tau lam)
damping and Neville extrapolation of the one-dimensional inversions.  The
pair is exact: for the unit Gaussian the image is exp(-lam^2/2) scaled by
lam^nu factors and the inversion integral equals 1 in closed form for every n.

Bessel values come from one power series of J_nu(z)/z^nu for z < 12 and,
beyond, from the large-argument expansion J_nu(z)/z^nu = sqrt(2/pi)
z^(-nu-1/2) Re[exp(iz) sum_{j<12} gamma_j z^-j] (exact for half-integer nu).
forward_nd takes every lam at once, in row chunks within
transform._CHUNK_BYTES.  On its uniform panels rho = c_q + h t_k,
exp(i lam rho) = exp(i lam c_q) exp(i lam h t_k), so the expansion
separates: all z >= 12 entries reduce to one product E @ B, B[:, j] = base
rho^(-nu-1/2-j), and only z < 12 entries take the series.

poisson_halfspace integrates radial boundary data against the half-space
kernel c_n x (|y - eta|^2 + x^2)^(-(n+1)/2), c_n = Gamma((n+1)/2)/pi^((n+1)/2).
With a = rho^2 + |y|^2 + x^2, b = 2|y| rho, the angular integral has one
closed form for every n, integral_0^pi sin^(n-2)t (a - b cos t)^(-(n+1)/2) dt
= B((n-1)/2, 1/2) a^(-(n+1)/2) 2F1((n+1)/4, (n+3)/4; n/2; (b/a)^2), taken
after Euler's transformation so that the peak at rho = |y| comes from
a - b = (rho - |y|)^2 + x^2 without cancellation.  The rho integral runs on
Gauss-Legendre panels graded at |y| +- x 2^k, at most 0.5 wide up to cut,
then on the tail rho = cut/s, graded toward s = 0.  The panels near the peak
are built in e = rho - |y|, so that they resolve it however small x is
against |y|.  The integrand is homogeneous of degree 0 in the lengths and
is evaluated in the node's own ratios x/e, |y|/rho and x/rho: none exceeds
about 1e12, so no square overflows, and one that underflows is negligible
where it does.  Two rescalings keep those bounds: an offset below 2^-30 x
is taken as 0 (the value is even in |y|, so that changes it by less than
rounding), and a height below 2^-959 scales every length by a power of two
first, so that the nodes at scale x keep full precision.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import transform as _tr
from .errors import (
    InvariantViolation,
    NonpositiveHeight,
    SizeLimitExceeded,
    UnsupportedDimension,
)
from .gridfn import SpectralImage
from .quadrature import (
    MAX_TRANSFORM_SIZE,
    _leggauss,
    damping_matrix,
    panel_gauss,
    spectral_grid,
    tau_limit,
)

BESSEL_CROSSOVER = 12.0
_SERIES_TERMS = 40
_ASYMPTOTIC_TERMS = 6
# Bytes of forward_nd work arrays per (lam, rho) entry: 32 for the phase, z and
# the ratios, about as much again for the series temporaries of _ratio_series.
_ENTRY_BYTES = 64


def _ratio_series(nu, z):
    """Power series of J_nu(z) / z^nu, accurate for |z| below the crossover."""
    zz = -0.25 * np.square(np.asarray(z, dtype=float))
    term = np.full_like(zz, 1.0 / (2.0**nu * math.gamma(nu + 1.0)))
    total = term.copy()
    for k in range(1, _SERIES_TERMS):
        term = term * zz / (k * (k + nu))
        total += term
    return total


def _asymptotic_coefficients(nu):
    """gamma_j = exp(-i phi) i^j prod_{k<=j} (4nu^2 - (2k-1)^2) / (8k), phi = (nu/2 + 1/4) pi."""
    gamma = np.full(2 * _ASYMPTOTIC_TERMS, np.exp(-1j * (0.5 * nu + 0.25) * math.pi))
    for j in range(1, gamma.size):
        gamma[j] = gamma[j - 1] * 1j * (4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j)
    return gamma


def _bessel_asymptotic(nu, z):
    """Large-argument expansion; exact for half-integer nu (series terminates)."""
    series = np.polynomial.polynomial.polyval(1.0 / z, _asymptotic_coefficients(nu))
    return np.sqrt(2.0 / (math.pi * z)) * np.real(np.exp(1j * z) * series)


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
    out[small] = z[small] ** nu * _ratio_series(nu, z[small])
    out[~small] = _bessel_asymptotic(nu, z[~small])
    out *= sign
    return float(out[0]) if scalar else out


def bessel_ratio(nu, z):
    """J_nu(z) / z^nu, finite at z = 0 (equals 1 / (2^nu Gamma(nu+1)) there)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    small = z < BESSEL_CROSSOVER
    out[small] = _ratio_series(nu, z[small])
    out[~small] = _bessel_asymptotic(nu, z[~small]) / z[~small] ** nu
    return out


@dataclass(frozen=True)
class RadialProfile:
    """Radial data f(rho) on R^n with an effective support radius rho_max."""

    n: int
    fn: object
    rho_max: float

    def __post_init__(self):
        _check_dimension(self.n)
        if not (math.isfinite(self.rho_max) and self.rho_max > 0):
            raise InvariantViolation(f"rho_max must be positive and finite, got {self.rho_max}")

    def __call__(self, rho):
        return np.asarray(self.fn(np.asarray(rho, dtype=float)), dtype=float)


def _check_dimension(n):
    if int(n) != n or n < 2:
        raise UnsupportedDimension(
            f"radial machinery needs integer dimension n >= 2, got {n}"
        )
    return int(n)


def forward_nd(profile, lam, order=12):
    """Radial transform of profile at the origin, for scalar or array lam."""
    n = _check_dimension(profile.n)
    nu = 0.5 * (n - 2)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all((lam_arr > 0) & (lam_arr < np.inf)):
        raise InvariantViolation("spectral points must be positive and finite")
    rate = max(1.0, float(lam_arr.max()))
    n_panels = max(1, math.ceil(profile.rho_max * rate / math.pi))
    edges = np.linspace(0.0, profile.rho_max, n_panels + 1)
    nodes, weights = (a.ravel() for a in panel_gauss(edges, order))
    base = weights * nodes ** (n - 1) * profile(nodes)
    centers = 0.5 * (edges[1:] + edges[:-1])
    offsets = 0.5 * profile.rho_max / n_panels * _leggauss(order)[0]
    gamma = _asymptotic_coefficients(nu)
    far = rate * nodes >= BESSEL_CROSSOVER      # the nodes some lam takes asymptotically
    cols = np.zeros((nodes.size, gamma.size), dtype=complex)
    cols[far] = base[far, None] * nodes[far, None] ** (-(nu + 0.5) - np.arange(gamma.size))
    vals = np.empty(lam_arr.size)
    step = max(1, _tr._CHUNK_BYTES // (_ENTRY_BYTES * nodes.size))
    for lo in range(0, lam_arr.size, step):
        la = lam_arr[lo:lo + step]
        z = np.multiply.outer(la, nodes)
        small = z < BESSEL_CROSSOVER
        ratio = np.zeros_like(z)
        ratio[small] = _ratio_series(nu, z[small])
        phase = (np.exp(1j * np.multiply.outer(la, centers))[:, :, None]
                 * np.exp(1j * np.multiply.outer(la, offsets))[:, None, :]).reshape(z.shape)
        phase[small] = 0.0
        asym = np.polynomial.polynomial.polyval(1.0 / la, ((phase @ cols) * gamma).T, tensor=False)
        vals[lo:lo + step] = la**nu * (ratio @ base) + np.sqrt(2.0 / (math.pi * la)) * asym.real
    vals *= 2.0 ** (1.0 - 0.5 * n) / math.gamma(0.5 * n)
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

    damped = damping_matrix(spec, lams, weights * lams ** (0.5 * n)) @ image.values[:, :1]
    limit, _err = tau_limit(spec, damped)
    if not np.isfinite(limit[0]):
        # a non-finite row defeats the tail guard (NaN compares false); find it only now
        bad = np.flatnonzero(~np.isfinite(image.values[:, 0]))
        where = f"image row {bad[0]} (lam = {lams[bad[0]]:.6g})" if bad.size else "the damped sum"
        raise InvariantViolation(f"radial inversion: {where} is not finite")
    return complex(limit[0])


# --- half-space Poisson integral --------------------------------------------

_POISSON_ORDER = 16     # Gauss-Legendre order of every Poisson panel
_POISSON_WIDTH = 0.5    # widest panel below cut
_TAIL_LEVELS = 8        # tail panels [2^-(k+1), 2^-k] in s = cut / rho, then [0, 2^-8]


def _poisson_edges(x, y, cut):
    """Panel edges in e = rho - y on [-y, cut - y], graded around 0 at scale x, none over 0.5."""
    levels = max(0, math.floor(math.log2(_POISSON_WIDTH) - math.log2(x)) + 1)
    steps = np.ldexp(x, np.arange(levels))                 # x 2^k, exact for the tiniest x
    edges = np.unique(np.clip(np.concatenate(([-y, 0.0, cut - y], -steps, steps)), -y, cut - y))
    with np.errstate(over="ignore"):                        # an infinite count is refused below
        count = np.ceil(np.diff(edges) / _POISSON_WIDTH)    # float: a huge cut must not wrap
    total = float(count.sum())
    if not total <= MAX_TRANSFORM_SIZE / _POISSON_ORDER:
        raise SizeLimitExceeded(
            f"Poisson rule of {total:.3g} panels x {_POISSON_ORDER} nodes exceeds the limit "
            f"{MAX_TRANSFORM_SIZE:.0e}; lower the height, offset or rho_max"
        )
    count = count.astype(int)
    sub = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    starts = np.repeat(edges[:-1], count) + sub * np.repeat(np.diff(edges) / count, count)
    return np.append(starts, cut - y)


@lru_cache(maxsize=1)
def _tail_rule():
    """Nodes s and weights of the tail rho = cut/s, the same for every call (read-only)."""
    rule = panel_gauss(np.append(0.0, 2.0 ** -np.arange(_TAIL_LEVELS, -1, -1)), _POISSON_ORDER)
    for a in rule:
        a.flags.writeable = False
    return rule


def poisson_halfspace(profile, x, y=0.0):
    """Harmonic extension of radial boundary data to height x at offset |y|.

    The closed-form angular factor of every n (module docstring) on panels
    over [0, cut] and the mapped tail: the radial integral runs to infinity
    (the kernel decays algebraically, so bounded data integrates fine).
    """
    n = _check_dimension(profile.n)
    x, y = float(x), abs(float(y))
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvariantViolation(f"height and offset must be finite, got x = {x}, |y| = {y}")
    if x <= 0:
        raise NonpositiveHeight(f"height must be positive, got x = {x}")
    if y < 2.0**-30 * x:
        y = 0.0     # the value is even in y, so this changes it by less than rounding
    cut = max(profile.rho_max, 10.0 * x, 2.0 * y + 10.0, 20.0)
    shift = max(0, -959 - math.frexp(x)[1])     # lengths times 2^shift: x >= 2^-960
    edges = np.ldexp(_poisson_edges(x, y, cut), shift)
    x, y, cut = (math.ldexp(v, shift) for v in (x, y, cut))
    head, head_w = panel_gauss(edges, _POISSON_ORDER)
    s, tail_w = _tail_rule()
    rho = np.append(y + head, cut / s)
    e = np.append(head, rho[head.size:] - y)
    weights = np.append(head_w, cut * tail_w / (s * s))
    from scipy.special import hyp2f1

    # x w / (a - b) = (w/e) t / (1 + t^2) with t = x/e; with q = rho^2/a <= 1
    # and z = b/a, rho^(n-1) a^((3-n)/2) / (a + b) = q^((n-1)/2) / (1 + z)
    t = x / e
    q = 1.0 / (1.0 + (math.hypot(y, x) / rho) ** 2)
    z = 2.0 * y / rho * q
    kernel = (
        (weights / e) * t / (1.0 + t * t) * q ** (0.5 * (n - 1)) / (1.0 + z)
        * hyp2f1(0.25 * (n - 1), 0.25 * (n - 3), 0.5 * n, z * z)
    )
    # c_n |S^(n-2)| B((n-1)/2, 1/2) = 2 Gamma((n+1)/2) / (sqrt(pi) Gamma(n/2))
    norm = 2.0 * math.exp(math.lgamma(0.5 * (n + 1)) - math.lgamma(0.5 * n)) / math.sqrt(math.pi)
    return norm * float(np.sum(kernel * profile(np.ldexp(rho, -shift))))
