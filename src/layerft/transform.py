"""Forward and inverse transforms over the layered semi-axis.

Forward: image(lam) = sum_m  integral over layer m of u*_m(xi, lam) f_m(xi) dxi
                    + (gamma0 f(l_0) + delta0 f'(l_0))
                    + junction corrections.

The junction correction at l_k is v_k (G_2 F_{k+1} - G_1 F_k) with
v_k = w^(k)(l_k) M_1k^{-1}, where G_s is the lam^2 coefficient block of side s
and F_j stacks (value; derivative) traces of f on side j.  For spectral-
parameter-free conditions every G_s is the zero block and the correction is
assembled as an exact zero rather than skipped.

Inverse: f(x) = -(1/(pi i)) * integral over lam > 0 of lam u(x, lam) image(lam).
The improper integral is computed with exp(-tau lam) damping on the
QuadratureSpec tau schedule and Neville-extrapolated to tau = 0.

Both directions use the canonical composite Gauss-Legendre grid of the
(config, spec) pair; the inverse refuses images sampled elsewhere, because
its quadrature weights are tied to that grid.  _spectral_forward and
_spectral_inverse own that grid, flagging and the damped inversion for the
semi-axis and the full-axis pair (axis.py) alike; each geometry supplies
only its kernels, for every spectral point at once.

There is no loop over spectral points: basis.build_batch builds the whole
grid at once, and every kernel is per-lam coefficients times e^{+-i mu s}
with real mu (the full axis is the scalar case V = 1, mu = q).  Both
directions are then real matrix products with cos/sin(mu s) over every
(x, lam, k): _moments sums over x (forward), _damped_sums over (lam, k)
with the exp(-tau lam) damping folded in (inverse), in chunks of points
whose phase arrays stay within _CHUNK_BYTES.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import basis as bas
from . import quadrature as quad
from .errors import (
    DimensionMismatch,
    EmptyImage,
    InvariantViolation,
    OutOfDomain,
    RegularityViolation,
    WrongMode,
)
from .gridfn import LayerSamples, PiecewiseGridFunction, SpectralImage
from .problem import SEMI_AXIS

# Memory of one real (points x (lam, k)) phase array of the contractions.
_CHUNK_BYTES = 1 << 20


def _x_chunks(n_x, n_cols):
    """Slices of the spatial points whose (points x n_cols) phases fit _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // (8 * max(n_cols, 1)))
    return [slice(a, a + step) for a in range(0, n_x, step)]


def _moments(mu, s, g):
    """(F+, F-) with F+-[lam, k] = sum over x of e^{+-i mu[lam, k] s_x} g_x.

    mu (N, rho) real, s (Nx,) offsets from the layer center, g (Nx, c):
    two (N, rho, c) arrays from real matrix products with cos and sin.
    """
    n, rho = mu.shape
    gr = np.ascontiguousarray(g, dtype=complex).view(float)
    cg = np.zeros((n * rho, gr.shape[1]))
    sg = np.zeros_like(cg)
    for sl in _x_chunks(s.size, n * rho):
        theta = np.multiply.outer(s[sl], mu.ravel())
        cg += np.cos(theta).T @ gr[sl]
        sg += np.sin(theta).T @ gr[sl]
    cg = cg.view(complex).reshape(n, rho, -1)
    sg = sg.view(complex).reshape(n, rho, -1)
    return cg + 1j * sg, cg - 1j * sg


def _damped_sums(mu, s, plus, minus, damping):
    """sum over (lam, k) of damping[t, lam] (e^{i mu s} plus + e^{-i mu s} minus)[lam, k].

    mu (N, rho) real, s (Nx,), plus and minus (N, rho, c), damping (T, N);
    returns (T, Nx, c): every damping level from one pair of real matrix
    products with cos and sin per chunk of points.
    """
    t = damping.shape[0]
    n, rho, c = plus.shape
    w = damping[:, :, None, None]

    def fold(a):
        return np.ascontiguousarray((w * a).transpose(1, 2, 0, 3)).reshape(n * rho, -1).view(float)

    wc, ws = fold(plus + minus), fold(1j * (plus - minus))
    out = np.empty((s.size, t * c), dtype=complex)
    for sl in _x_chunks(s.size, n * rho):
        theta = np.multiply.outer(s[sl], mu.ravel())
        out[sl] = (np.cos(theta) @ wc + np.sin(theta) @ ws).view(complex)
    return out.reshape(s.size, t, c).transpose(1, 0, 2)


def _spectral_forward(config, spec, lambdas, rows):
    """Image rows(lams) -> (values (N, width), flags) on a spectral grid.

    The grid is the canonical one of (config, spec), or the explicit
    positive abscissae lambdas (no weights, not canonical).  flags maps the
    index of each point whose kernels are degenerate to its error: that row
    is set to NaN and meta["flagged"] records (index, lam, reason); if every
    row is flagged the first RegularityViolation is re-raised.
    """
    canonical = lambdas is None
    if canonical:
        grid = quad.lambda_grid(config, spec)
        lams = grid.nodes
    else:
        lams = np.asarray(lambdas, dtype=float).ravel()
        if lams.size == 0:
            raise EmptyImage("no spectral points requested")
        if np.any(lams <= 0):
            raise InvariantViolation("spectral points must be positive")

    values, flags = rows(lams)
    flagged = [(i, lams[i], f"{type(exc).__name__}: {exc}") for i, exc in sorted(flags.items())]
    values[sorted(flags)] = np.nan
    if len(flagged) == lams.size:
        raise RegularityViolation(
            f"every spectral point is degenerate; first: {flagged[0][2]}",
            lam=flagged[0][1],
        )

    meta = {"canonical": canonical, "flagged": flagged}
    if canonical:
        meta["weights"] = grid.weights
        meta["n_panels"] = grid.n_panels
        meta["order"] = grid.order
    return SpectralImage(lambdas=lams, values=values, meta=meta)


def _spectral_inverse(config, image, x_points, spec, constant, families):
    """constant * integral over lam > 0 of lam u(x, lam) image(lam) at x_points.

    families(lams, fhat) gives per layer (mu, center, plus, minus) with
    u(x, lam) fhat(lam) = sum over k of e^{i mu_k s} plus[k] + e^{-i mu_k s} minus[k]
    at s = x - center (shapes as in _damped_sums).  The image must sit on the
    canonical grid of (config, spec); NaN (flagged) rows are left out of the
    quadrature and reported in meta["dropped_rows"].  The quadrature and
    exp(-tau lam) weights fold into _damped_sums; quad.tau_limit extrapolates.
    """
    quad.check_size(config, spec, sum(map(np.size, x_points))
                    if isinstance(x_points, (list, tuple)) else np.size(x_points))
    grid = quad.lambda_grid(config, spec)
    if image.lambdas.size != grid.nodes.size or not np.allclose(
        image.lambdas, grid.nodes, rtol=1e-9, atol=0.0
    ):
        forward = "forward_transform" if config.mode == SEMI_AXIS else "scalar_axis_forward"
        raise InvariantViolation(
            "image is not sampled on the canonical spectral grid of this problem and "
            f"quadrature spec; regenerate it with {forward} under the same spec"
        )

    keep = np.all(np.isfinite(image.values), axis=1)
    lams = image.lambdas[keep]
    if lams.size == 0:
        raise EmptyImage("all image rows are flagged")
    fhat = constant * image.values[keep]

    per_layer = _normalize_x_points(config, x_points, spec)
    edges = np.cumsum([0] + [xs.size for xs in per_layer])
    damping = quad.damping_matrix(spec, lams, grid.weights[keep] * lams)
    damped = np.concatenate([
        _damped_sums(mu, xs - center, plus, minus, damping)
        for xs, (mu, center, plus, minus) in zip(per_layer, families(lams, fhat))
    ], axis=1)
    limit, err = quad.tau_limit(spec, damped)

    layers_out = [
        LayerSamples(x=xs, values=limit[a:b])
        for xs, a, b in zip(per_layer, edges[:-1], edges[1:])
    ]
    meta = {
        "tau_error_estimate": float(np.max(err, initial=0.0)),
        "dropped_rows": np.flatnonzero(~keep).tolist(),
        "junction_abscissae": [config.left_end] + list(config.junctions),
    }
    return PiecewiseGridFunction(layers=layers_out, traces={}, meta=meta)


def _junction_traces(config, f):
    """Stacked (value; derivative) traces on both sides of every junction."""
    left, right = [], []
    for k in range(1, config.n_layers):
        left.append(np.concatenate([f.trace(k, "left", 0), f.trace(k, "left", 1)]))
        right.append(np.concatenate([f.trace(k, "right", 0), f.trace(k, "right", 1)]))
    return left, right


def forward_transform(config, f, spec, lambdas=None):
    """Transform a sampled function; returns its image on the canonical grid.

    lambdas overrides the spectral abscissae (no weights are attached and the
    result is not canonical — useful for pointwise image comparisons).
    Spectral points where the problem is degenerate are flagged: their image
    rows are NaN and meta["flagged"] records (index, lam, reason).
    """
    if config.mode != SEMI_AXIS:
        raise WrongMode("forward_transform serves semi-axis problems; "
                        "use scalar_axis_forward for the full axis")
    if f.r != config.r:
        raise DimensionMismatch(
            f"function has {f.r} components, problem has r = {config.r}", block="input"
        )

    quad.check_size(config, spec)
    rules = quad.xi_rules(config, spec)
    weighted_f = [ws[:, None] * f.values_on(m, xs) for m, (xs, ws) in enumerate(rules)]

    # boundary term (independent of the spectral parameter)
    bnd = config.boundary
    f0 = f.trace(0, "right", 0)
    f1 = f.trace(0, "right", 1)
    boundary_term = bnd.gamma0 @ f0 + bnd.delta0 @ f1

    tr_left, tr_right = _junction_traces(config, f)
    g1 = [iface.lambda_sq_part(1) for iface in config.interfaces]
    g2 = [iface.lambda_sq_part(2) for iface in config.interfaces]

    r = config.r
    order = spec.xi_quadrature_order
    tails = [0.0]

    def rows(lams):
        b = bas.build_batch(config, lams)
        gs = [bas.dual_coef(b, m) for m in range(config.n_layers)]

        def dual_sum(m, sl):
            # sum over the xi nodes sl of layer m of u*(xi) f(xi) w(xi), with
            # u* = [(G_1 V) e^{-i mu s} - (G_2 V) e^{i mu s}] K, K = V^{-1} a2^{-1} / (2 i mu)
            ld = b.layers[m]
            fp, fm = _moments(ld.mu, rules[m][0][sl] - ld.center, weighted_f[m][sl])
            kk = (ld.vinv / (2j * ld.mu[:, :, None])) @ ld.a2inv
            ym = (kk * fm).sum(axis=-1)[..., None]
            yp = (kk * fp).sum(axis=-1)[..., None]
            return (gs[m][..., :r] @ ld.v @ ym - gs[m][..., r:] @ ld.v @ yp)[..., 0]

        total = np.zeros((lams.size, r), dtype=complex)
        for m, (xs, _ws) in enumerate(rules):
            if xs.size:
                total += dual_sum(m, slice(None))
                if m == len(rules) - 1:
                    tail = np.linalg.norm(dual_sum(m, slice(-order, None)), axis=1)
                    tails.extend(np.delete(tail, sorted(b.flags)))
        total += boundary_term
        for k in range(1, config.n_layers):
            ld = b.layers[k - 1]
            wk = bas.dual_rows(gs[k - 1], ld, np.exp(1j * ld.mu * (config.junction(k) - ld.center)))
            m1 = config.interfaces[k - 1].pencil(1, lams)
            m1[sorted(b.flags)] = np.eye(2 * r)
            vk = np.linalg.solve(m1.swapaxes(-1, -2), wk.swapaxes(-1, -2)).swapaxes(-1, -2)
            total += vk @ (g2[k - 1] @ tr_right[k - 1] - g1[k - 1] @ tr_left[k - 1])
        return total, b.flags

    image = _spectral_forward(config, spec, lambdas, rows)
    image.meta["xi_tail_estimate"] = float(np.nanmax(tails))
    return image


INVERSION_CONSTANT = -1.0 / (math.pi * 1j)


def _normalize_x_points(config, x_points, spec):
    """Return per-layer abscissa arrays from a flat array or per-layer list."""
    if isinstance(x_points, (list, tuple)) and all(
        isinstance(p, np.ndarray) or isinstance(p, (list, tuple)) for p in x_points
    ) and len(x_points) == config.n_layers:
        per_layer = [np.asarray(p, dtype=float).ravel() for p in x_points]
    else:
        flat = np.asarray(x_points, dtype=float).ravel()
        per_layer = [[] for _ in config.layers]
        for x in flat:
            per_layer[config.layer_index(x)].append(x)
        per_layer = [np.array(sorted(set(p)), dtype=float) for p in per_layer]
    hi = spec.x_max * (1 + 1e-12)
    lo = config.left_end if config.mode == SEMI_AXIS else -hi
    for m, xs in enumerate(per_layer):
        if xs.size == 0:
            continue
        if xs.min() < lo - 1e-12 or xs.max() > hi:
            raise OutOfDomain(
                f"evaluation points for layer {m} fall outside [{lo}, {spec.x_max}]"
            )
        if np.any(np.diff(xs) <= 0):
            raise InvariantViolation(f"evaluation points for layer {m} must increase")
        if xs.min() < config.layers[m].left - 1e-9 or xs.max() > config.layers[m].right + 1e-9:
            raise OutOfDomain(f"evaluation points for layer {m} leave the layer")
    return per_layer


def inverse_transform(config, image, x_points, spec):
    """Reconstruct a function from its image on the canonical spectral grid.

    x_points is either a flat array (points are routed to layers, junction
    abscissae to the right layer) or a list of per-layer arrays.  Flagged
    (NaN) image rows are excluded from the quadrature; their indices are
    reported in meta["dropped_rows"].
    """
    if config.mode != SEMI_AXIS:
        raise WrongMode("inverse_transform serves semi-axis problems; "
                        "use scalar_axis_inverse for the full axis")
    if image.k != config.r:
        raise DimensionMismatch(
            f"image has {image.k} components, problem has r = {config.r}", block="image"
        )
    return _spectral_inverse(config, image, x_points, spec, INVERSION_CONSTANT,
                             lambda lams, fhat: _semi_axis_families(config, lams, fhat))


def _semi_axis_families(config, lams, fhat):
    """Per-layer (mu, center, plus, minus) of u(x, lam) fhat(lam) for _spectral_inverse.

    u fhat = V (e^{i mu s} P fhat + e^{-i mu s} M fhat) (basis.plus_minus), so
    plus[lam, k, j] = V[lam, j, k] (P fhat)[lam, k] and minus alike.
    """
    b = bas.build_batch(config, lams)
    if b.flags:
        raise b.flags[min(b.flags)]
    families = []
    for m, ld in enumerate(b.layers):
        vt = ld.v.swapaxes(-1, -2)
        p, mm = bas.plus_minus(b, m)
        families.append((ld.mu, ld.center, vt * (p @ fhat[:, :, None]),
                         vt * (mm @ fhat[:, :, None])))
    return families


@dataclass(frozen=True)
class RoundtripReport:
    """Forward-then-inverse reconstruction errors, layer by layer."""

    per_layer_l2: tuple
    per_layer_sup: tuple
    l2_total: float
    sup_total: float
    l2_input: float
    tau_error_estimate: float
    n_flagged: int
    reconstruction: PiecewiseGridFunction = field(repr=False, compare=False)

    @property
    def l2_relative(self):
        return self.l2_total / self.l2_input if self.l2_input > 0 else self.l2_total

    def __str__(self):
        lines = [
            f"layer {m + 1}: L2 {l2:.3e}   sup {sup:.3e}"
            for m, (l2, sup) in enumerate(zip(self.per_layer_l2, self.per_layer_sup))
        ]
        lines.append(
            f"total: L2 {self.l2_total:.3e} (relative {self.l2_relative:.3e})   "
            f"sup {self.sup_total:.3e}   tau err {self.tau_error_estimate:.1e}   "
            f"flagged {self.n_flagged}"
        )
        return "\n".join(lines)


def transform_pair(config):
    """The (forward, inverse) transforms of the geometry of config."""
    if config.mode == SEMI_AXIS:
        return forward_transform, inverse_transform
    from . import axis  # imported here: axis imports this module

    return axis.scalar_axis_forward, axis.scalar_axis_inverse


def roundtrip_report(config, f, spec):
    """Transform f forward, invert, and report reconstruction errors.

    Serves both geometries; the report carries the reconstruction on the
    sample abscissae of f within |x| <= x_max.
    """
    forward, inverse = transform_pair(config)
    image = forward(config, f, spec)
    window = [ls.x[np.abs(ls.x) <= spec.x_max * (1 + 1e-12)] for ls in f.layers]
    recon = inverse(config, image, window, spec)

    l2s, sups = [], []
    l2_in_sq = 0.0
    for m, xs in enumerate(window):
        ref = f.values_on(m, xs) if xs.size else np.zeros((0, config.r), dtype=complex)
        diff = recon.layers[m].values - ref
        if xs.size >= 2:
            l2 = math.sqrt(float(np.trapezoid(np.sum(np.abs(diff) ** 2, axis=1), xs)))
            l2_in_sq += float(np.trapezoid(np.sum(np.abs(ref) ** 2, axis=1), xs))
        else:
            l2 = 0.0
        sup = float(np.max(np.abs(diff))) if xs.size else 0.0
        l2s.append(l2)
        sups.append(sup)

    return RoundtripReport(
        per_layer_l2=tuple(l2s),
        per_layer_sup=tuple(sups),
        l2_total=math.sqrt(sum(v**2 for v in l2s)),
        sup_total=max(sups) if sups else 0.0,
        l2_input=math.sqrt(l2_in_sq),
        tau_error_estimate=recon.meta["tau_error_estimate"],
        n_flagged=len(image.meta.get("flagged", ())),
        reconstruction=recon,
    )
