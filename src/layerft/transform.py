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
_spectral_inverse own that grid, the loop over spectral points, flagging
and the damped inversion for the semi-axis and the full-axis pair (axis.py)
alike; each geometry supplies only its kernels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import basis as bas
from . import linalg
from . import quadrature as quad
from .errors import (
    DegenerateBoundary,
    DimensionMismatch,
    EmptyImage,
    InvariantViolation,
    OutOfDomain,
    RegularityViolation,
    WrongMode,
)
from .gridfn import LayerSamples, PiecewiseGridFunction, SpectralImage
from .problem import SEMI_AXIS

_FLAGGABLE = (RegularityViolation, DegenerateBoundary)


def _spectral_forward(config, spec, lambdas, width, row):
    """Image rows row(i, lam), each of length width, on a spectral grid.

    The grid is the canonical one of (config, spec), or the explicit
    positive abscissae lambdas (no weights, not canonical).  A row whose
    kernels are degenerate is flagged: it stays NaN and meta["flagged"]
    records (index, lam, reason); if every row is flagged the first
    RegularityViolation is re-raised.
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

    values = np.full((lams.size, width), np.nan, dtype=complex)
    flagged = []
    for i, lam in enumerate(lams):
        try:
            values[i] = row(i, lam)
        except _FLAGGABLE as exc:
            flagged.append((i, lam, f"{type(exc).__name__}: {exc}"))
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


def _spectral_inverse(config, image, x_points, spec, constant, build, u_on_layer):
    """constant * integral over lam > 0 of lam u(x, lam) image(lam) at x_points.

    build(lam) returns the kernel data at one spectral point and
    u_on_layer(b, m, xs) the kernel on layer m, shape (N, r, image.k).  The
    image must sit on the canonical grid of (config, spec); NaN (flagged)
    rows are left out of the quadrature and reported in meta["dropped_rows"].
    The improper integral is damped and extrapolated by quad.damped_limit.
    """
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

    # acc[i_lam, i_x, :] = constant * u(x, lam) @ image(lam), layers side by side
    acc = np.zeros((lams.size, edges[-1], config.r), dtype=complex)
    for i, lam in enumerate(lams):
        b = build(lam)
        for m, xs in enumerate(per_layer):
            if xs.size:
                acc[i, edges[m]:edges[m + 1]] = u_on_layer(b, m, xs) @ fhat[i]
    limit, err = quad.damped_limit(spec, lams, grid.weights[keep] * lams, acc)

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

    rules = quad.xi_rules(config, spec)
    weighted_f = []
    for m, (xs, ws) in enumerate(rules):
        vals = f.values_on(m, xs)
        weighted_f.append(ws[:, None] * vals)

    # boundary term (independent of the spectral parameter)
    bnd = config.boundary
    f0 = f.trace(0, "right", 0)
    f1 = f.trace(0, "right", 1)
    boundary_term = bnd.gamma0 @ f0 + bnd.delta0 @ f1

    tr_left, tr_right = _junction_traces(config, f)
    g1 = [iface.lambda_sq_part(1) for iface in config.interfaces]
    g2 = [iface.lambda_sq_part(2) for iface in config.interfaces]

    order = spec.xi_quadrature_order
    tails = {}

    def row(i, lam):
        b = bas.build_basis(config, lam)
        total = np.zeros(config.r, dtype=complex)
        for m, (xs, _ws) in enumerate(rules):
            if xs.size == 0:
                continue
            ustar = bas.u_star_on_layer(b, m, xs)
            total += np.einsum("nij,nj->i", ustar, weighted_f[m])
            if m == len(rules) - 1:
                tail = np.einsum("nij,nj->i", ustar[-order:], weighted_f[m][-order:])
                tails[i] = np.linalg.norm(tail)
        total += boundary_term
        for k in range(1, config.n_layers):
            lk = config.junction(k)
            m1 = config.interfaces[k - 1].pencil(1, lam)
            wk = bas.w_on_layer(b, k - 1, [lk])[0]
            vk = linalg.right_solve(wk, m1)
            total += vk @ (g2[k - 1] @ tr_right[k - 1] - g1[k - 1] @ tr_left[k - 1])
        return total

    image = _spectral_forward(config, spec, lambdas, config.r, row)
    image.meta["xi_tail_estimate"] = float(np.nanmax([0.0, *tails.values()]))
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
    return _spectral_inverse(
        config, image, x_points, spec, INVERSION_CONSTANT,
        lambda lam: bas.build_basis(config, lam), lambda b, m, xs: bas.u_on_layer(b, m, xs),
    )


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


def roundtrip_report(config, f, spec):
    """Transform f forward, invert, and report reconstruction errors.

    Serves both geometries; the report carries the reconstruction on the
    sample abscissae of f within |x| <= x_max.
    """
    if config.mode == SEMI_AXIS:
        forward, inverse = forward_transform, inverse_transform
    else:
        from . import axis  # imported here: axis imports this module

        forward, inverse = axis.scalar_axis_forward, axis.scalar_axis_inverse
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
