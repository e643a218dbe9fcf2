"""Quadrature plumbing: spectral grids, per-layer spatial rules, tail damping.

All integrals use composite Gauss-Legendre panels.  Panel widths are tied to
the worst-case oscillation rate of the integrand so that a fixed polynomial
order per panel keeps the rule in its convergent regime:

  * spectral axis: kernels behave like exp(+/- i lam s x) with |s| bounded by
    s_rate = max_m ||q_m(lam_max)||_2 / lam_max, so panels are capped at a
    quarter oscillation period at x_max;
  * spatial axis: within layer m the kernels oscillate at most at rate
    ||q_m(lam_max)||_2, so panels are capped at half a period there.

The improper spectral integral of every inversion formula (semi-axis, full
axis, radial) is damped by exp(-tau lam) on a decreasing schedule of tau
values (damping_matrix) and extrapolated to tau = 0 with a Neville table
(tau_limit).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import basis as _basis
from .errors import InvariantViolation, NonConvergentTail, SizeLimitExceeded


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs shared by the forward and inverse transforms.

    tail_tolerance bounds how much two successive tau-damped inversion
    integrals may disagree before the tail is declared non-convergent; it is
    a catastrophe guard, not an accuracy target.
    """

    lambda_min: float = 1e-4
    lambda_max: float = 40.0
    lambda_steps: int = 2000
    tau_schedule: tuple = (1e-2, 5e-3, 2.5e-3)
    x_max: float = 12.0
    xi_quadrature_order: int = 12
    tail_tolerance: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "tau_schedule", tuple(float(t) for t in self.tau_schedule))
        self.validate()

    def validate(self):
        for name in ("lambda_min", "lambda_max", "x_max", "tail_tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolation(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lambda_steps", "xi_quadrature_order"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value == int(value)):
                raise InvariantViolation(f"{name} must be an integer, got {value}")
        if not 0 < self.lambda_min < self.lambda_max:
            raise InvariantViolation(
                f"need 0 < lambda_min < lambda_max, got [{self.lambda_min}, {self.lambda_max}]"
            )
        if self.lambda_steps < 4:
            raise InvariantViolation("lambda_steps must be at least 4")
        if self.x_max <= 0:
            raise InvariantViolation("x_max must be positive")
        if self.xi_quadrature_order < 2:
            raise InvariantViolation("xi_quadrature_order must be at least 2")
        taus = self.tau_schedule
        if len(taus) < 2:
            raise InvariantViolation("tau_schedule needs at least two entries")
        if not all(math.isfinite(t) for t in taus):
            raise InvariantViolation("tau_schedule entries must be finite")
        if any(t <= 0 for t in taus) or any(a <= b for a, b in zip(taus, taus[1:])):
            raise InvariantViolation("tau_schedule must be positive and strictly decreasing")
        if self.tail_tolerance <= 0:
            raise InvariantViolation("tail_tolerance must be positive")


@lru_cache(maxsize=64)
def _leggauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_gauss(edges, order):
    """Gauss-Legendre nodes and weights on the panels between sorted edges, (panels, order)."""
    xr, wr = _leggauss(order)
    half = 0.5 * (edges[1:] - edges[:-1])          # (P,)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return mid[:, None] + half[:, None] * xr, half[:, None] * wr


def composite_gauss(a, b, n_panels, order):
    """Nodes and weights of an n_panels-panel Gauss-Legendre rule on [a, b]."""
    if b <= a or n_panels < 1:
        return np.empty(0), np.empty(0)
    nodes, weights = panel_gauss(np.linspace(a, b, n_panels + 1), order)
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class LambdaGrid:
    """Canonical spectral grid for a (config, spec) pair."""

    nodes: np.ndarray
    weights: np.ndarray
    n_panels: int
    order: int

    def __len__(self):
        return self.nodes.size


def oscillation_rate(config, lam_max):
    """max_m ||q_m(lam_max)||_2 — the fastest spatial oscillation at band edge."""
    return max(
        np.linalg.norm(_basis.compute_wavenumber(layer, lam_max), 2)
        for layer in config.layers
    )


def _grid_layout(spec, cap):
    """(n_panels, order) of the composite grid of spectral_grid, without its nodes.

    A cap that underflows to 0 (x_max near the largest float) gives an
    infinite panel count, refused here with SizeLimitExceeded.
    """
    panels = (spec.lambda_max - spec.lambda_min) / float(cap) if cap > 0 else math.inf
    if not math.isfinite(panels):
        raise SizeLimitExceeded(
            f"spectral panel count {panels} (panel cap {float(cap):.3g}) exceeds the limit "
            f"{MAX_TRANSFORM_SIZE:.0e}; lower x_max or lambda_max"
        )
    n_panels = max(1, math.ceil(panels))
    order = int(min(24, max(2, math.floor(spec.lambda_steps / n_panels + 0.5))))
    return n_panels, order


def spectral_grid(spec, cap):
    """Composite Gauss-Legendre grid over [lambda_min, lambda_max], panels <= cap.

    The per-panel order is chosen so the total node count tracks lambda_steps.
    """
    n_panels, order = _grid_layout(spec, cap)
    nodes, weights = composite_gauss(spec.lambda_min, spec.lambda_max, n_panels, order)
    return LambdaGrid(nodes=nodes, weights=weights, n_panels=n_panels, order=order)


def _lambda_cap(config, spec):
    """Panel cap pi / (4 x_max s_rate): a quarter period of exp(i lam s_rate x_max)."""
    s_rate = oscillation_rate(config, spec.lambda_max) / spec.lambda_max
    return math.pi / (4.0 * spec.x_max * max(s_rate, 1e-12))


def lambda_grid(config, spec):
    """Canonical spectral grid of (config, spec); panels are capped by _lambda_cap."""
    return spectral_grid(spec, _lambda_cap(config, spec))


def _xi_layout(config, spec):
    """Per-layer (a, b, n_panels) of xi_rules, clipped to |x| <= x_max; None when empty."""
    layout = []
    for layer in config.layers:
        rate = np.linalg.norm(_basis.compute_wavenumber(layer, spec.lambda_max), 2)
        a, b = layer.window(spec.x_max)
        cap = math.pi / max(rate, 1e-12)
        layout.append((a, b, max(1, math.ceil((b - a) / cap))) if b > a else None)
    return layout


def xi_panels(config, spec):
    """Per-layer spatial rules in panel form, clipped to |x| <= x_max.

    Returns one (centres, offsets, weights) triple per layer: node j of panel
    q is centres[q] + offsets[j], with weight weights[q, j].  A layer's
    panels are uniform, so they share one set of offsets.  A layer lying
    entirely beyond the truncation radius gets no panels.  Panels are capped
    at half a period of the layer's fastest oscillation.
    """
    xr, wr = _leggauss(spec.xi_quadrature_order)
    rules = []
    for lay in _xi_layout(config, spec):
        a, b, n = lay or (0.0, 0.0, 0)
        half = 0.5 * (b - a) / max(n, 1)
        centres = a + half * (2 * np.arange(n) + 1)
        rules.append((centres, half * xr, np.tile(half * wr, (n, 1))))
    return rules


def xi_rules(config, spec):
    """xi_panels flattened: per layer the (nodes, weights) of its composite rule."""
    return [(np.add.outer(c, t).ravel(), w.ravel()) for c, t, w in xi_panels(config, spec)]


# Largest (lambda nodes) x (spatial points) x r^2 a transform takes on.  The
# spectral contraction costs a few complex multiply-adds per unit of it, so
# at the limit a transform runs for minutes.
MAX_TRANSFORM_SIZE = 10**9


def check_size(config, spec, n_points=None):
    """Refuse a transform of more than MAX_TRANSFORM_SIZE (SizeLimitExceeded).

    The size is max(lambda_steps, canonical lambda nodes) x n_points x r^2,
    with n_points defaulting to the spatial nodes of xi_rules.  Every count
    comes from the spec alone, so nothing large is allocated before the check.
    """
    n_lambda = max(spec.lambda_steps, math.prod(_grid_layout(spec, _lambda_cap(config, spec))))
    if n_points is None:
        n_points = sum(lay[2] for lay in _xi_layout(config, spec) if lay)
        n_points *= spec.xi_quadrature_order
    n_lambda, n_points = float(n_lambda), float(n_points)     # either may be a huge int
    size = n_lambda * n_points * config.r**2
    if size > MAX_TRANSFORM_SIZE:
        raise SizeLimitExceeded(
            f"transform size {n_lambda:.3g} lambda nodes x {n_points:.3g} points x r^2 = "
            f"{size:.3g} exceeds the limit {MAX_TRANSFORM_SIZE:.0e}; lower lambda_steps, "
            "x_max or the number of evaluation points"
        )


def neville_to_zero(taus, values):
    """Extrapolate samples values[i] ~ F(taus[i]) to tau = 0.

    Returns (limit, err) where err is the elementwise difference between the
    full-table value and the value obtained after dropping the coarsest tau —
    a standard a-posteriori estimate of the extrapolation error.
    """
    taus = np.asarray(taus, dtype=float)
    m = taus.size
    table = [np.asarray(v, dtype=complex) for v in values]
    if m != len(table):
        raise InvariantViolation("tau schedule and value list length mismatch")
    if m == 1:
        return table[0], np.full_like(table[0], np.nan, dtype=float)
    prev_first = None
    col = table
    for j in range(1, m):
        nxt = []
        for i in range(m - j):
            t_lo, t_hi = taus[i + j], taus[i]
            nxt.append((t_lo * col[i] - t_hi * col[i + 1]) / (t_lo - t_hi))
        if len(nxt) == 2:
            prev_first = nxt[1]
        col = nxt
    limit = col[0]
    if prev_first is None:          # m == 2
        prev_first = table[1]
    err = np.abs(limit - prev_first)
    return limit, err


def damping_matrix(spec, lams, coeff):
    """coeff[l] exp(-tau lams[l]) at every tau of spec.tau_schedule: real (levels, nodes)."""
    damping = np.exp(np.multiply.outer(spec.tau_schedule, -lams))
    damping *= coeff
    return damping


def tau_limit(spec, damped):
    """tau -> 0 limit of damped sums given at every level of spec.tau_schedule.

    Two successive levels differing by more than spec.tail_tolerance anywhere
    raise NonConvergentTail.  Returns (limit, err) shaped like damped[0], with
    err the Neville estimate of neville_to_zero.
    """
    gap = float(np.abs(damped[1:] - damped[:-1]).max(initial=0.0))
    if gap > spec.tail_tolerance:
        raise NonConvergentTail(
            f"successive tau-damped inversion integrals differ by {gap:.3g} "
            f"(> {spec.tail_tolerance}); spectral tail not integrable at this resolution"
        )
    return neville_to_zero(spec.tau_schedule, damped)
