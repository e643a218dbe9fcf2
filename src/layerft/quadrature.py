"""Quadrature plumbing: spectral grids, per-layer spatial rules, tail damping.

All integrals use composite Gauss-Legendre panels.  Panel widths are tied to
the worst-case oscillation rate of the integrand so that a fixed polynomial
order per panel keeps the rule in its convergent regime:

  * spectral axis: kernels behave like exp(+/- i lam s x) with |s| bounded by
    s_rate = max_m ||q_m(lam_max)||_2 / lam_max, so panels are capped at a
    quarter oscillation period at x_max;
  * spatial axis: within layer m the kernels oscillate at most at rate
    ||q_m(lam_max)||_2, so panels are capped at half a period there.

plan derives both from one band_edge_rates pass (one wavenumber per
distinct material) and checks the transform's size on the panel counts
before it builds a node: each transform, and the CLI before it samples its
input, calls it once.  lambda_grid and xi_rules are views of it.  Every
half-period panel rule, the xi panels of plan and the rho panels of
radial.forward_nd, has the one Gauss-Legendre order PANEL_ORDER.

The improper spectral integral of every inversion formula (semi-axis, full
axis, radial) is damped by exp(-tau lam) on a decreasing schedule of tau
values (damping_matrix) and extrapolated to tau = 0 with a Neville table
(tau_limit), behind the tail guard TAIL_TOLERANCE.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import basis as _basis
from .errors import InvariantViolation, NonConvergentTail, SizeLimitExceeded

# Gauss-Legendre order of every half-period panel rule
PANEL_ORDER = 12
# tau_limit's tail guard: a catastrophe guard, not an accuracy target
TAIL_TOLERANCE = 10.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs shared by the forward and inverse transforms."""

    lambda_min: float = 1e-4
    lambda_max: float = 40.0
    lambda_steps: int = 2000
    tau_schedule: tuple = (1e-2, 5e-3, 2.5e-3)
    x_max: float = 12.0

    def __post_init__(self):
        object.__setattr__(self, "tau_schedule", tuple(float(t) for t in self.tau_schedule))
        self.validate()

    def validate(self):
        for name in ("lambda_min", "lambda_max", "x_max"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolation(f"{name} must be finite, got {getattr(self, name)}")
        if not (math.isfinite(self.lambda_steps) and self.lambda_steps == int(self.lambda_steps)):
            raise InvariantViolation(f"lambda_steps must be an integer, got {self.lambda_steps}")
        if not 0 < self.lambda_min < self.lambda_max:
            raise InvariantViolation(
                f"need 0 < lambda_min < lambda_max, got [{self.lambda_min}, {self.lambda_max}]"
            )
        if self.lambda_steps < 4:
            raise InvariantViolation("lambda_steps must be at least 4")
        if self.x_max <= 0:
            raise InvariantViolation("x_max must be positive")
        taus = self.tau_schedule
        if len(taus) < 2:
            raise InvariantViolation("tau_schedule needs at least two entries")
        if not all(math.isfinite(t) for t in taus):
            raise InvariantViolation("tau_schedule entries must be finite")
        if any(t <= 0 for t in taus) or any(a <= b for a, b in zip(taus, taus[1:])):
            raise InvariantViolation("tau_schedule must be positive and strictly decreasing")


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
    nodes, weights = panel_gauss(np.linspace(a, b, n_panels + 1), order)
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class LambdaGrid:
    """Canonical spectral grid for a (config, spec) pair."""

    nodes: np.ndarray
    weights: np.ndarray


def band_edge_rates(config, spec):
    """||q_m(lambda_max)||_2 of every layer m: its fastest spatial oscillation at band edge.

    One wavenumber per distinct material (basis.material_key), shared by its layers.
    """
    keys = [_basis.material_key(layer) for layer in config.layers]
    rates = {}
    for key, layer in zip(keys, config.layers):
        if key not in rates:
            rates[key] = np.linalg.norm(_basis.compute_wavenumber(layer, spec.lambda_max), 2)
    return [rates[key] for key in keys]


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
    return LambdaGrid(*composite_gauss(spec.lambda_min, spec.lambda_max, *_grid_layout(spec, cap)))


# Largest (lambda nodes) x (spatial points) x r^2 a transform takes on.  The
# spectral contraction costs a few complex multiply-adds per unit of it, so
# at the limit a transform runs for minutes.
MAX_TRANSFORM_SIZE = 10**9


class Plan(NamedTuple):
    """The quadrature of a (config, spec) pair.

    grid is the canonical LambdaGrid; panels holds one (centres, offsets,
    weights) triple per layer: node j of panel q is centres[q] + offsets[j],
    with weight weights[q, j].  A layer's panels are uniform, so they share
    one set of offsets; a layer lying entirely beyond x_max has none.
    """

    grid: LambdaGrid
    panels: list


def plan(config, spec, n_points=None):
    """The Plan of (config, spec), refusing a transform past MAX_TRANSFORM_SIZE first.

    One band_edge_rates pass caps the lambda panels at a quarter period of
    exp(i lam s_rate x_max) and each layer's xi panels, clipped to
    |x| <= x_max, at half a period of its fastest oscillation.  The size is
    max(lambda_steps, canonical lambda nodes) x n_points x r^2, n_points
    defaulting to the xi nodes; it is checked on the layouts alone
    (SizeLimitExceeded), before any node is allocated.
    """
    rates = band_edge_rates(config, spec)
    s_rate = max(rates) / spec.lambda_max
    cap = math.pi / (4.0 * spec.x_max * max(s_rate, 1e-12))
    n_panels, order = _grid_layout(spec, cap)
    windows = [layer.window(spec.x_max) for layer in config.layers]
    counts = [max(1, math.ceil((b - a) / (math.pi / max(rate, 1e-12)))) if b > a else 0
              for (a, b), rate in zip(windows, rates)]
    if n_points is None:
        n_points = sum(counts) * PANEL_ORDER
    # either count may be a huge int
    n_lambda, n_points = float(max(spec.lambda_steps, n_panels * order)), float(n_points)
    size = n_lambda * n_points * config.r**2
    if size > MAX_TRANSFORM_SIZE:
        raise SizeLimitExceeded(
            f"transform size {n_lambda:.3g} lambda nodes x {n_points:.3g} points x r^2 = "
            f"{size:.3g} exceeds the limit {MAX_TRANSFORM_SIZE:.0e}; lower lambda_steps, "
            "x_max or the number of evaluation points"
        )

    grid = spectral_grid(spec, cap)
    xr, wr = _leggauss(PANEL_ORDER)
    panels = []
    for (a, b), n in zip(windows, counts):
        half = 0.5 * (b - a) / n if n else 0.0
        centres = a + half * (2 * np.arange(n) + 1)
        panels.append((centres, half * xr, np.tile(half * wr, (n, 1))))
    return Plan(grid, panels)


def lambda_grid(config, spec):
    """The canonical spectral grid of plan(config, spec)."""
    return plan(config, spec).grid


def xi_rules(config, spec):
    """The xi panels of plan(config, spec) flattened: per layer (nodes, weights)."""
    return [(np.add.outer(c, t).ravel(), w.ravel()) for c, t, w in plan(config, spec).panels]


def _neville(taus, table):
    """Neville's value at tau = 0 of the polynomial through (taus[i], table[i])."""
    col = table
    for j in range(1, len(table)):
        col = [(taus[i + j] * col[i] - taus[i] * col[i + 1]) / (taus[i + j] - taus[i])
               for i in range(len(col) - 1)]
    return col[0]


def neville_to_zero(taus, values):
    """Extrapolate samples values[i] ~ F(taus[i]) to tau = 0.

    Returns (limit, err) where err is the elementwise difference between the
    full-table value and the value obtained after dropping the coarsest tau —
    a standard a-posteriori estimate of the extrapolation error.
    """
    taus = [float(t) for t in taus]     # Python floats: the cheapest scalars for the table
    m = len(taus)
    table = [np.asarray(v, dtype=complex) for v in values]
    if m != len(table):
        raise InvariantViolation("tau schedule and value list length mismatch")
    if m == 1:
        return table[0], np.full_like(table[0], np.nan, dtype=float)
    limit = _neville(taus, table)
    return limit, np.abs(limit - _neville(taus[1:], table[1:]))


def damping_matrix(spec, lams, coeff):
    """coeff[l] exp(-tau lams[l]) at every tau of spec.tau_schedule: real (levels, nodes)."""
    damping = np.exp(np.multiply.outer(spec.tau_schedule, -lams))
    damping *= coeff
    return damping


def tau_limit(spec, damped):
    """tau -> 0 limit of damped sums given at every level of spec.tau_schedule.

    Two successive levels differing by more than TAIL_TOLERANCE anywhere
    raise NonConvergentTail.  Returns (limit, err) shaped like damped[0], with
    err the Neville estimate of neville_to_zero.
    """
    gap = float(np.abs(damped[1:] - damped[:-1]).max(initial=0.0))
    if gap > TAIL_TOLERANCE:
        raise NonConvergentTail(
            f"successive tau-damped inversion integrals differ by {gap:.3g} "
            f"(> {TAIL_TOLERANCE}); spectral tail not integrable at this resolution"
        )
    return neville_to_zero(spec.tau_schedule, damped)
