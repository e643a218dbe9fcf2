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

Bessel values come from one power series of J_nu(z)/z^nu below a crossover
X_nu, summed term by term in place, and, from X_nu on, from the
large-argument expansion J_nu(z)/z^nu = sqrt(2/pi) z^(-nu-1/2)
Re[exp(iz) sum_j gamma_j z^-j].  The crossover depends on the parity of the
order alone.  For half-integer nu (odd n) J_nu is elementary: the expansion
terminates after nu + 1/2 terms, all of which are kept, and is exact, so it
takes over at X_nu = nu + 1/2, where it is still free of cancellation and
the series would only add its own.  Every other order keeps 12 terms and
X_nu = 12, and forward_nd refuses a dimension whose first omitted term,
|gamma_12| 12^-12, exceeds 2e-9 (even n > 10).  The series cancels: at
X_nu = nu + 1/2 its largest term grows with nu, to 141 times its first at
n = 61 and 174 at n = 63, and rounding grows with it, so forward_nd also
refuses an odd n whose largest term there exceeds 160 times the first.

forward_nd takes every lam at once.  The nodes increase along a row, so the
entries lam rho < X_nu of a row are a prefix of it, its span, read off one
searchsorted of X_nu / lam and corrected at its end by the product itself.
The series runs once over the concatenated spans, in groups of whole rows
within transform._CHUNK_BYTES, each row summed by reduceat.  The asymptotic
part runs in row chunks on the uniform panels rho = c_q + o_k of width H:
exp(i lam rho) = exp(i lam c_p) z^(q - p) exp(i lam o_k) with z = exp(i lam H),
where p is the first panel past the chunk's shortest span.  The power table
P[q] = exp(i lam c_p) z^(q - p), one cumulative product down the panels q >= p,
is zero on every panel up to each row's span end and enters one real product
B @ P, B[(j, k), q] = base rho^(-nu-1/2-j) on node o_k of panel q, one row per
term and offset.  The K offset phases multiply its result, which is summed over
k, and each row adds the panel that holds its span end, over the offsets past
the end.  Per lam that takes K + 3 exponentials and Q - p complex products,
where a dense phase table took Q - p + K exponentials and (Q - p) K products.
p and the panel ends come from the spans, so lam may come in any order; the
chunking moves a value only by rounding, where the product restarts.

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
    DimensionMismatch,
    InvariantViolation,
    NonpositiveHeight,
    SizeLimitExceeded,
    UnsupportedDimension,
)
from .gridfn import SpectralImage
from .quadrature import (
    MAX_TRANSFORM_SIZE,
    PANEL_ORDER,
    _leggauss,
    damping_matrix,
    panel_gauss,
    spectral_grid,
    tau_limit,
)

BESSEL_CROSSOVER = 12.0     # the crossover of every order but the half-integers
_SERIES_TERMS = 40
_ASYMPTOTIC_TERMS = 6
# forward_nd refuses an order whose truncated expansion leaves out more than
# this at the crossover (the first omitted term, |gamma_12| 12^-12)
_EXPANSION_TOLERANCE = 2e-9
_SERIES_GROWTH = 160.0      # the most _series_growth that forward_nd admits
# Bytes of forward_nd work arrays per entry.  A group of flat series spans
# takes 32 per (lam, rho) entry: the squared argument, its weight and the
# series' term and sum (the node index they are gathered with, 8, is dropped
# first).  A row chunk of the asymptotic part, built after the series, is
# charged 32 per panel and 64 per (term, offset) pair of each row: the power
# table takes 17 per panel with its zero mask, the product's result 16 per
# pair, and while the panel of each span end is added, its columns take 24
# more per pair and its phases 16 per offset.
_ENTRY_BYTES = 32


def _ratio_series(nu, z):
    """Power series of J_nu(z) / z^nu, accurate for |z| below the crossover."""
    return _series_of_square(nu, np.square(np.asarray(z, dtype=float)))


def _series_of_square(nu, zz):
    """The series of _ratio_series from zz = z^2, which it overwrites.

    term_k = term_(k-1) (-z^2/4) / (k (k + nu)), each term updated in place
    by multiplying with the scalar reciprocal: no temporary and no division
    per entry.
    """
    zz *= -0.25
    term = np.full_like(zz, 1.0 / (2.0**nu * math.gamma(nu + 1.0)))
    total = term.copy()
    for k in range(1, _SERIES_TERMS):
        term *= zz
        term *= 1.0 / (k * (k + nu))
        total += term
    return total


def _half_integer(nu):
    return (2.0 * nu) % 2.0 == 1.0


def _crossover(nu):
    """Argument from which J_nu(z)/z^nu comes from the large-argument expansion.

    nu + 1/2 for half-integer nu, where the expansion terminates: from there
    on it is exact and free of cancellation, while the series only adds its
    own.  BESSEL_CROSSOVER for every other order.
    """
    return nu + 0.5 if _half_integer(nu) else BESSEL_CROSSOVER


def _gamma_terms(nu, count):
    """The first count of gamma_j = exp(-i phi) i^j prod_{k<=j} (4nu^2 - (2k-1)^2) / (8k).

    phi = (nu/2 + 1/4) pi.
    """
    gamma = [np.exp(-1j * (0.5 * nu + 0.25) * math.pi)]
    for j in range(1, count):
        gamma.append(gamma[-1] * 1j * (4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j))
    return gamma


def _asymptotic_coefficients(nu):
    """Coefficients of the expansion: all nu + 1/2 nonzero ones for half-integer nu, else 12."""
    count = int(nu + 0.5) if _half_integer(nu) else 2 * _ASYMPTOTIC_TERMS
    return np.array(_gamma_terms(nu, count))


def _omitted_term(nu):
    """First term the expansion leaves out, at its crossover: |gamma_m| X^-m, 0 if exact."""
    if _half_integer(nu):
        return 0.0
    m = 2 * _ASYMPTOTIC_TERMS
    return abs(_gamma_terms(nu, m + 1)[m]) * _crossover(nu) ** -m


def _series_growth(nu):
    """Largest series term at the crossover over the first, for half-integer nu; 0 otherwise.

    Every other order has the crossover 12, where _omitted_term holds it.
    """
    if not _half_integer(nu):
        return 0.0
    k = np.arange(1, _SERIES_TERMS)
    return float(np.max(np.cumprod(0.25 * _crossover(nu) ** 2 / (k * (k + nu))), initial=1.0))


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
    small = z < _crossover(nu)
    out[small] = z[small] ** nu * _ratio_series(nu, z[small])
    out[~small] = _bessel_asymptotic(nu, z[~small])
    out *= sign
    return float(out[0]) if scalar else out


def bessel_ratio(nu, z):
    """J_nu(z) / z^nu, finite at z = 0 (equals 1 / (2^nu Gamma(nu+1)) there)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    small = z < _crossover(nu)
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


def _check_forward_dimension(n):
    """The dimension, if forward_nd's Bessel evaluation meets its accuracy there."""
    n = _check_dimension(n)
    nu = 0.5 * (n - 2)
    omitted = _omitted_term(nu)
    if omitted > _EXPANSION_TOLERANCE:
        raise UnsupportedDimension(
            f"radial forward in n = {n} dimensions: the Bessel expansion of order "
            f"{nu:g} leaves out {omitted:.2g} at z = {BESSEL_CROSSOVER:g}, "
            f"over {_EXPANSION_TOLERANCE:g}"
        )
    growth = _series_growth(nu)
    if growth > _SERIES_GROWTH:
        raise UnsupportedDimension(
            f"radial forward in n = {n} dimensions: the Bessel series of order {nu:g} "
            f"has a term {growth:.3g} times its first at z = {_crossover(nu):g}, "
            f"over {_SERIES_GROWTH:g}"
        )
    return n


def _series_spans(lam, nodes, crossover):
    """Count of the increasing nodes with lam rho < crossover, for each lam.

    The entries on the series are a prefix of each row.  crossover / lam is
    rounded, so each end is moved to where the product itself crosses.
    """
    span = np.searchsorted(nodes, crossover / lam)
    last = nodes.size - 1
    while True:
        down = (span > 0) & (lam * nodes[np.maximum(span - 1, 0)] >= crossover)
        up = (span <= last) & (lam * nodes[np.minimum(span, last)] < crossover)
        if not (down.any() or up.any()):
            return span
        span += up
        span -= down


def _span_sums(nu, lam, span, nodes, base):
    """Per row, the sum over its first span nodes of base J_nu(lam rho) / (lam rho)^nu.

    One series over the concatenated spans, in groups of whole rows of at
    most _CHUNK_BYTES / _ENTRY_BYTES entries, each row summed by reduceat;
    every span holds at least one node.
    """
    out = np.empty(lam.size)
    ends = np.cumsum(span)
    limit = _tr._CHUNK_BYTES // _ENTRY_BYTES
    lo = 0
    while lo < lam.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - span[lo] + limit, side="right")))
        w = span[lo:hi]
        starts = np.cumsum(w) - w
        col = np.ones(starts[-1] + w[-1], dtype=np.intp)    # the node of every entry
        col[0] = 0
        col[starts[1:]] = 1 - w[:-1]
        np.cumsum(col, out=col)
        zz = nodes[col]
        zz *= np.repeat(lam[lo:hi], w)
        zz *= zz
        weights = base[col]
        del col
        ratio = _series_of_square(nu, zz)
        ratio *= weights
        out[lo:hi] = np.add.reduceat(ratio, starts)
        lo = hi
    return out


def forward_nd(profile, lam):
    """Radial transform of profile at the origin, for scalar or array lam."""
    n = _check_forward_dimension(profile.n)
    nu = 0.5 * (n - 2)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam_arr.size == 0 or not np.all((lam_arr > 0) & (lam_arr < np.inf)):
        raise InvariantViolation("spectral points must be given, positive and finite")
    rate = max(1.0, float(lam_arr.max()))
    # capped before the ceiling: the float product may be inf, and the capped
    # count still fails the check below
    n_panels = max(1, math.ceil(min(profile.rho_max * rate / math.pi, MAX_TRANSFORM_SIZE)))
    if lam_arr.size * n_panels * PANEL_ORDER > MAX_TRANSFORM_SIZE:
        raise SizeLimitExceeded(
            f"radial transform of {lam_arr.size} lam nodes x {n_panels * PANEL_ORDER:.3g} "
            f"rho nodes exceeds the limit {MAX_TRANSFORM_SIZE:.0e}; lower lambda_max, "
            "lambda_steps or rho_max"
        )
    edges = np.linspace(0.0, profile.rho_max, n_panels + 1)
    nodes, weights = (a.ravel() for a in panel_gauss(edges, PANEL_ORDER))
    base = weights * nodes ** (n - 1) * profile(nodes)
    width = profile.rho_max / n_panels
    centers = 0.5 * (edges[1:] + edges[:-1])
    offsets = 0.5 * width * _leggauss(PANEL_ORDER)[0]
    gamma = _asymptotic_coefficients(nu)
    # every span holds the first node, at lam rho < 0.03
    span = _series_spans(lam_arr, nodes, _crossover(nu))
    first = span.min()      # the nodes before it are on the series in every row
    cols = np.zeros((gamma.size, nodes.size))
    cols[:, first:] = base[first:] * nodes[first:] ** (-(nu + 0.5) - np.arange(gamma.size)[:, None])
    # rows (term, offset) against columns (panel): the product contracts the panels
    cols = cols.reshape(gamma.size, n_panels, PANEL_ORDER).transpose(0, 2, 1).copy()
    series = _span_sums(nu, lam_arr, span, nodes, base)
    moments = np.empty((gamma.size, lam_arr.size), dtype=complex)
    row_bytes = _ENTRY_BYTES * (n_panels + 2 * gamma.size * PANEL_ORDER)
    step = max(1, _tr._CHUNK_BYTES // row_bytes)
    k = np.arange(PANEL_ORDER)[:, None]       # the offset index of each phase row
    for lo in range(0, lam_arr.size, step):
        la, w = lam_arr[lo:lo + step], span[lo:lo + step]
        last = (w - 1) // PANEL_ORDER       # the panel of each row's last series node
        p = last.min() + 1                  # the first panel past the shortest span
        # exp(i lam c_q) = exp(i lam c_p) z^(q - p) with z = exp(i lam width) on
        # the panels q >= p, zero up to each row's span end
        power = np.empty((n_panels - p, la.size), dtype=complex)
        power[:1] = np.exp(1j * np.multiply.outer(centers[p:p + 1], la))
        power[1:] = np.exp(1j * width * la)
        np.multiply.accumulate(power, out=power)
        power[:last.max() + 1 - p][np.arange(p, last.max() + 1)[:, None] <= last] = 0.0
        # cols is real: one real product over the (re, im) pairs of power
        sums = (cols.reshape(-1, n_panels)[:, p:] @ power.view(float)).view(complex)
        del power
        sums = sums.reshape(gamma.size, PANEL_ORDER, la.size)
        # each row's last series panel, over its offsets past the span end
        tail = np.exp(1j * centers[last] * la) * (k >= w - last * PANEL_ORDER)
        sums += cols[:, :, last] * tail
        sums *= np.exp(1j * np.multiply.outer(offsets, la))
        moments[:, lo:lo + step] = sums.sum(axis=1)
    asym = np.polynomial.polynomial.polyval(1.0 / lam_arr, moments * gamma[:, None], tensor=False)
    vals = lam_arr**nu * series + np.sqrt(2.0 / (math.pi * lam_arr)) * asym.real
    vals *= 2.0 ** (1.0 - 0.5 * n) / math.gamma(0.5 * n)
    return float(vals[0]) if np.ndim(lam) == 0 else vals


def forward_nd_image(profile, spec):
    """Image of profile on a composite spectral grid, ready for inverse_nd."""
    n = _check_forward_dimension(profile.n)
    grid = spectral_grid(spec, math.pi / (4.0 * profile.rho_max))
    values = forward_nd(profile, grid.nodes)
    return SpectralImage(
        lambdas=grid.nodes,
        values=values[:, None].astype(complex),
        meta={"weights": grid.weights, "dimension": n},
    )


def inverse_nd(image, spec):
    """Value at the origin from a radial image: integral of lam^(n/2) image.

    Damped with exp(-tau lam) on the QuadratureSpec tau schedule and
    extrapolated to tau = 0, on the quadrature weights and dimension n that
    forward_nd_image records in image.meta; an image without them (one read
    from CSV) is refused.  The image must have one column and one weight
    per spectral point.
    """
    if image.k != 1:
        raise DimensionMismatch(f"radial image has {image.k} columns, not 1")
    if "weights" not in image.meta or "dimension" not in image.meta:
        raise InvariantViolation(
            "radial image records no quadrature weights or dimension; "
            "regenerate it with forward_nd_image"
        )
    n = _check_dimension(image.meta["dimension"])
    lams = image.lambdas
    weights = np.asarray(image.meta["weights"], dtype=float)
    if weights.shape != lams.shape:
        raise DimensionMismatch(
            f"radial image has {weights.size} quadrature weights for {lams.size} spectral points"
        )

    damped = damping_matrix(spec, lams, weights * lams ** (0.5 * n)) @ image.values
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
