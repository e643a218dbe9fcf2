"""Operational calculus: the layer operator, its transform identity, heat flow.

The layer operator acts blockwise as (B f)_m = a2_m f_m'' + g2_m f_m.  Under
the forward transform it turns into multiplication by -lam^2 up to boundary
data:

    image(B f)(lam) = -lam^2 image(f)(lam)
                      - { beta0 f(l_0) + alpha0 f'(l_0)
                          - gamma0 a2_1 f''(l_0) - delta0 a2_1 f'''(l_0) }

provided f is junction-compatible: on every junction both the
spectral-parameter-free part and the lam^2 part of the conditions must hold
separately.  That hypothesis is checked (not assumed) by one gate on
lambda_split_residuals, shared with solve_heat; violations raise
ConjugationViolated.  verify_basic_identity evaluates both sides on the
canonical spectral grid and reports the residual per spectral point.

apply_B forms every value and trace by one rule, b_of(m, lo, hi) =
hi a2_m^T + lo g2_m^T on rows (lo, hi) = (f, f'') or (f', f''').  Exact
data (an evaluator) gives exact derivatives at the samples and at the
layer ends; sampled data gives 4th-order stencils on the samples and
6-point one-sided stencils of the B f samples at the layer ends.

solve_heat realizes exp(t B) through the transform: decay the image by
exp(-lam^2 t) and invert.  fd_reference provides an independent
Crank-Nicolson oracle on per-layer grids with the junction and boundary
conditions imposed as one-sided second-order constraint rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from . import transform as tr
from .errors import (
    ConjugationViolated,
    GridTooCoarse,
    InvariantViolation,
    SizeLimitExceeded,
    UnstableStep,
    WrongMode,
)
from .gridfn import LayerSamples, PiecewiseGridFunction
from .problem import SEMI_AXIS


def fd_weights(z, nodes, order):
    """Finite-difference weights for the order-th derivative at z (Fornberg)."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    if n < order + 1:
        raise GridTooCoarse(f"{n} nodes cannot resolve derivative order {order}")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - z
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - z
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def _second_derivative_samples(ls):
    """f'' at the sample nodes of one layer, O(h^4) stencils."""
    x, v = ls.x, ls.values
    n = x.size
    if n < 6:
        raise GridTooCoarse(
            f"layer with {n} samples is too coarse to differentiate (need >= 6)"
        )
    out = np.empty_like(v)
    h = np.diff(x)
    uniform = np.allclose(h, h[0], rtol=1e-9, atol=0.0)
    if uniform:
        hh = h[0]
        w = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * hh * hh)
        core = sum(w[j] * v[j : n - 4 + j] for j in range(5))
        out[2 : n - 2] = core
        for i in (0, 1):
            ww = fd_weights(x[i], x[:6], 2)
            out[i] = ww @ v[:6]
        for i in (n - 2, n - 1):
            ww = fd_weights(x[i], x[n - 6 :], 2)
            out[i] = ww @ v[n - 6 :]
        return out
    for i in range(n):
        lo = min(max(0, i - 2), n - 6)
        ww = fd_weights(x[i], x[lo : lo + 6], 2)
        out[i] = ww @ v[lo : lo + 6]
    return out


def apply_B(config, f):
    """Apply the layer operator a2 f'' + g2 f to a sampled function.

    With an exact evaluator on f the result keeps an exact evaluator and
    exact traces; otherwise values and traces come from 4th-order finite
    differences on the stored samples (module docstring).
    """
    if f.r != config.r:
        raise InvariantViolation(
            f"function has {f.r} components, problem has r = {config.r}"
        )
    a2 = [np.asarray(l.a2, dtype=complex) for l in config.layers]
    g2 = [np.asarray(l.g2, dtype=complex) for l in config.layers]
    junction_x = [config.left_end] + list(config.junctions)

    def b_of(m, lo, hi):
        """Rows a2_m hi + g2_m lo: B on layer m from the rows of f and f''."""
        return hi @ a2[m].T + lo @ g2[m].T

    exact = f.evaluator
    if exact is not None:
        values = [b_of(m, exact(ls.x, 0), exact(ls.x, 2)) for m, ls in enumerate(f.layers)]

        def stack(m, k):
            """Exact (B f; (B f)') of layer m at the abscissa of junction k."""
            x = np.array([junction_x[k]])
            return np.concatenate([b_of(m, exact(x, o), exact(x, o + 2)) for o in (0, 1)])

        def evaluator(x, order=0):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            idx = np.array([config.layer_index(float(v)) for v in x], dtype=int)
            lo, hi = exact(x, order), exact(x, order + 2)
            out = np.empty((x.size, config.r), dtype=complex)
            for m in np.unique(idx):
                out[idx == m] = b_of(m, lo[idx == m], hi[idx == m])
            return out
    else:
        values = [b_of(m, ls.values, _second_derivative_samples(ls))
                  for m, ls in enumerate(f.layers)]
        evaluator = None

        def stack(m, k):
            """(B f; (B f)') of layer m at junction k from 6-point one-sided stencils."""
            end = slice(0, 6) if k == m else slice(-6, None)
            x, v = f.layers[m].x[end], values[m][end]
            z = x[0] if k == m else x[-1]
            return np.array([fd_weights(z, x, o) @ v for o in (0, 1)])

    layers_out = [LayerSamples(x=ls.x.copy(), values=v) for ls, v in zip(f.layers, values)]
    ends = [(0, "right")] + [(k, s) for k in range(1, config.n_layers) for s in ("left", "right")]
    traces = {(k, s): stack(k - (s == "left"), k) for k, s in ends}
    meta = dict(f.meta)
    meta["junction_abscissae"] = junction_x
    meta["operator"] = "a2 f'' + g2 f"
    return PiecewiseGridFunction(layers=layers_out, traces=traces, evaluator=evaluator, meta=meta)


# --- junction/boundary compatibility ---------------------------------------


def lambda_split_residuals(config, f):
    """Residuals of the lam-split matching conditions for f.

    Junction k must satisfy both B_1 F_k = B_2 F_{k+1} (parameter-free part)
    and G_1 F_k = G_2 F_{k+1} (lam^2 part) separately; the boundary analogue
    splits into (beta0, alpha0) and (gamma0, delta0) rows vanishing on the
    boundary traces.
    """
    out = {"junction_value": [], "junction_lam2": []}
    for k in range(1, config.n_layers):
        fl = np.concatenate([f.trace(k, "left", 0), f.trace(k, "left", 1)])
        fr = np.concatenate([f.trace(k, "right", 0), f.trace(k, "right", 1)])
        iface = config.interfaces[k - 1]
        b = iface.lambda_free_part(1) @ fl - iface.lambda_free_part(2) @ fr
        g = iface.lambda_sq_part(1) @ fl - iface.lambda_sq_part(2) @ fr
        out["junction_value"].append(float(np.max(np.abs(b))))
        out["junction_lam2"].append(float(np.max(np.abs(g))))
    if config.boundary is not None:
        f0 = f.trace(0, "right", 0)
        f1 = f.trace(0, "right", 1)
        bnd = config.boundary
        out["boundary_value"] = float(np.max(np.abs(bnd.beta0 @ f0 + bnd.alpha0 @ f1)))
        out["boundary_lam2"] = float(np.max(np.abs(bnd.gamma0 @ f0 + bnd.delta0 @ f1)))
    return out


def _check_compatible(config, f, tol, with_boundary, failure):
    """Worst lambda_split_residuals entry of f (junctions, optionally the boundary).

    Raises ConjugationViolated, its message starting with failure, when that
    exceeds tol * max(1, sup|f|).
    """
    res = lambda_split_residuals(config, f)
    vals = res["junction_value"] + res["junction_lam2"]
    if with_boundary:
        vals += [res["boundary_value"], res["boundary_lam2"]]
    worst, allowed = max(vals, default=0.0), tol * max(1.0, f.sup_norm())
    if worst > allowed:
        raise ConjugationViolated(f"{failure} (worst residual {worst:.3e}, allowed {allowed:.3e})")
    return worst


# --- the multiplication identity --------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Per-spectral-point residual of the operational identity."""

    lambdas: np.ndarray
    residuals: np.ndarray
    conjugation_residual: float
    brace: np.ndarray
    n_flagged: int

    def max_residual(self, lam_cutoff=None):
        mask = np.ones_like(self.lambdas, dtype=bool)
        if lam_cutoff is not None:
            mask &= self.lambdas <= lam_cutoff
        vals = self.residuals[mask]
        return float(np.nanmax(vals)) if vals.size else 0.0

    def __str__(self):
        return (
            f"identity residual: max {self.max_residual():.3e} over "
            f"{self.lambdas.size} spectral points "
            f"(conjugation defect {self.conjugation_residual:.2e}, "
            f"flagged {self.n_flagged})"
        )


def verify_basic_identity(config, f, spec, include_boundary_term=True,
                          conjugation_tol=1e-8):
    """Check image(B f) = -lam^2 image(f) - boundary brace on the canonical grid.

    The junction-compatibility hypothesis is enforced: if either split part
    of a junction condition fails beyond conjugation_tol (relative to the
    sup-norm of f) the identity does not apply and ConjugationViolated is
    raised.  Boundary traces of f are NOT required to satisfy the boundary
    condition: the brace term carries them explicitly.  Disabling
    include_boundary_term drops the brace — useful to see how large the
    boundary contribution actually is.
    """
    if config.mode != SEMI_AXIS:
        raise WrongMode("the operational identity is a semi-axis statement")
    worst = _check_compatible(
        config, f, conjugation_tol, False,
        "the multiplication identity does not apply: junction traces of f violate "
        "the split matching conditions",
    )

    bnd = config.boundary
    f0 = f.trace(0, "right", 0)
    f1 = f.trace(0, "right", 1)
    brace = bnd.beta0 @ f0 + bnd.alpha0 @ f1
    if np.any(bnd.gamma0 != 0) or np.any(bnd.delta0 != 0):
        a2_first = np.asarray(config.layers[0].a2, dtype=complex)
        f2 = f.trace(0, "right", 2)
        f3 = f.trace(0, "right", 3)
        brace = brace - (bnd.gamma0 @ (a2_first @ f2) + bnd.delta0 @ (a2_first @ f3))

    bf = apply_B(config, f)
    lhs = tr.forward_transform(config, bf, spec)
    fh = tr.forward_transform(config, f, spec)

    rhs = -(fh.lambdas**2)[:, None] * fh.values
    if include_boundary_term:
        rhs = rhs - brace[None, :]
    resid = np.max(np.abs(lhs.values - rhs), axis=1)

    return IdentityReport(
        lambdas=fh.lambdas,
        residuals=resid,
        conjugation_residual=worst,
        brace=brace,
        n_flagged=len(fh.meta.get("flagged", ())),
    )


# --- heat flow ---------------------------------------------------------------


def heat_image(image, t):
    """Image of the heat semigroup at time t (multiplication by exp(-lam^2 t))."""
    return image.decayed(t)


def solve_heat(config, f0, t, x_points, spec, compat_tol=1e-5):
    """Heat evolution by transform: forward, decay by exp(-lam^2 t), invert.

    The initial data must be compatible with the boundary condition and the
    junction conditions in the lam-split sense; the residuals are checked
    against compat_tol * max(1, sup|f0|).
    """
    if config.mode != SEMI_AXIS:
        raise WrongMode("solve_heat serves the semi-axis problem")
    if not (math.isfinite(t) and t >= 0):
        raise InvariantViolation(f"time must be finite and nonnegative, got {t}")
    _check_compatible(config, f0, compat_tol, True,
                      "initial data violates the boundary/junction compatibility")
    image = tr.forward_transform(config, f0, spec)
    return tr.inverse_transform(config, image.decayed(t), x_points, spec)


def fd_reference(config, f0, t, dx, dt=None, x_max=12.0):
    """Crank-Nicolson oracle for the heat flow on truncated per-layer grids.

    Junction and boundary conditions replace the PDE rows at the joined
    endpoints, with derivatives taken by one-sided second-order stencils;
    the far end carries a homogeneous Dirichlet truncation at x_max.  Only
    spectral-parameter-free conditions are meaningful here.  dt defaults
    to 0.999 times the resolution bound dx^2 / (2 max-eig a2).

    The steps run in real arithmetic when the coefficients, conditions and
    sampled f0 have no imaginary part, and in complex arithmetic otherwise;
    the returned layer values are complex either way.  The unknowns are
    ordered node-major, so the implicit matrix is banded and its sparse LU
    keeps the natural order, which adds no fill.
    """
    if config.mode != SEMI_AXIS:
        raise WrongMode("fd_reference serves the semi-axis problem")
    if not config.is_lambda_free:
        raise InvariantViolation(
            "fd_reference needs spectral-parameter-free boundary and junction "
            "conditions; this problem couples them to the spectral parameter"
        )
    for name, value in (("time", t), ("dx", dx), ("x_max", x_max), ("dt", dt)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise InvariantViolation(f"{name} must be finite and positive, got {value}")
    if not x_max >= config.layers[-1].left + dx:
        raise InvariantViolation(f"x_max = {x_max} must lie at least dx inside the last layer")

    r = config.r
    eigmax = max(
        float(np.max(np.linalg.eigvalsh(0.5 * (l.a2 + l.a2.conj().T)).real))
        for l in config.layers
    )
    bound = dx * dx / (2.0 * eigmax)
    if dt is None:
        dt = 0.999 * bound
    if dt > bound * (1 + 1e-12):
        raise UnstableStep(
            f"dt = {dt} exceeds the resolution bound dx^2/(2 max-eig a2) = {bound:.3e}"
        )

    # nodes x r x steps as floats, before any grid (dt is 0 if dx^2 underflows)
    ends = [(float(layer.left), float(min(layer.right, x_max))) for layer in config.layers]
    counts = [max(4.0, np.rint((b - a) / dx) + 1) for a, b in ends]
    steps = max(1.0, t / dt if dt else math.inf)
    size = sum(counts) * r * steps
    if size > quad.MAX_TRANSFORM_SIZE:
        raise SizeLimitExceeded(
            f"finite-difference oracle of {size:.3g} nodes x r x steps exceeds the limit "
            f"{quad.MAX_TRANSFORM_SIZE:.0e}; raise dx or dt, or lower t or x_max"
        )
    n_steps = max(1, math.ceil(t / dt - 1e-12))
    step = t / n_steps

    grids = [np.linspace(a, b, int(n)) for (a, b), n in zip(ends, counts)]
    offsets = np.cumsum([0] + [g.size for g in grids])
    total = offsets[-1] * r

    # COO triplets of the implicit (im) and explicit (ex) Crank-Nicolson matrices
    im, ex = [], []
    comp = np.arange(r)
    eye = np.eye(r)

    def add(trip, row_nodes, col_nodes, mat):
        """Add the r x r block mat (or one block per node pair) at the node pairs."""
        rows = np.reshape(row_nodes, (-1, 1, 1)) * r + comp[:, None]
        cols = np.reshape(col_nodes, (-1, 1, 1)) * r + comp
        trip.append([a.ravel() for a in np.broadcast_arrays(rows, cols, mat)])

    def one_sided(g, base, at_start):
        """Nodes and weights of the second-order one-sided first derivative."""
        w = np.array([-3.0, 4.0, -1.0]) / (2 * (g[1] - g[0]))
        if at_start:
            return base + np.arange(3), w[:, None, None]
        return base + g.size - 1 - np.arange(3), -w[:, None, None]

    # PDE rows on interior nodes; the endpoint rows carry the conditions below
    half = 0.5 * step
    for m, g in enumerate(grids):
        a2h2 = np.asarray(config.layers[m].a2, dtype=complex) / (g[1] - g[0]) ** 2
        g2 = np.asarray(config.layers[m].g2, dtype=complex)
        nodes = offsets[m] + np.arange(1, g.size - 1)
        add(im, nodes, nodes, eye)
        add(ex, nodes, nodes, eye)
        for off, blk in ((-1, a2h2), (0, g2 - 2.0 * a2h2), (1, a2h2)):
            add(im, nodes, nodes + off, -half * blk)
            add(ex, nodes, nodes + off, half * blk)

    # boundary rows at l_0
    bnd = config.boundary
    add(im, 0, 0, bnd.beta0)
    nodes, w = one_sided(grids[0], 0, True)
    add(im, 0, nodes, w * bnd.alpha0)

    # junction rows: the left layer's last node and the right layer's first node
    for k in range(1, config.n_layers):
        iface = config.interfaces[k - 1]
        b1, b2 = iface.lambda_free_part(1), iface.lambda_free_part(2)
        left, right = offsets[k] - 1, offsets[k]
        dl = one_sided(grids[k - 1], offsets[k - 1], False)
        dr = one_sided(grids[k], offsets[k], True)
        for target, rows in ((left, slice(0, r)), (right, slice(r, 2 * r))):
            add(im, target, left, b1[rows, :r])
            add(im, target, dl[0], dl[1] * b1[rows, r:])
            add(im, target, right, -b2[rows, :r])
            add(im, target, dr[0], -dr[1] * b2[rows, r:])

    # far-end truncation
    add(im, offsets[-1] - 1, offsets[-1] - 1, eye)

    # real arithmetic whenever the problem and the data are real
    (i_im, j_im, v_im), (i_ex, j_ex, v_ex) = (
        (np.concatenate(part) for part in zip(*trip)) for trip in (im, ex)
    )
    u = np.concatenate([f0.values_on(m, g).ravel() for m, g in enumerate(grids)])
    if not (v_im.imag.any() or v_ex.imag.any() or u.imag.any()):
        v_im, v_ex, u = v_im.real, v_ex.real, u.real

    def assemble(i, j, v, fmt):
        keep = v != 0
        return fmt((v[keep], (i[keep], j[keep])), shape=(total, total))

    from scipy.sparse import csc_matrix, csr_matrix
    from scipy.sparse.linalg import splu

    # node-major unknowns keep the matrix banded: natural order factors it without fill
    solver = splu(assemble(i_im, j_im, v_im, csc_matrix), permc_spec="NATURAL")
    a_ex = assemble(i_ex, j_ex, v_ex, csr_matrix)

    for _ in range(n_steps):
        u = solver.solve(a_ex @ u)

    layers = []
    for m, g in enumerate(grids):
        vals = u[offsets[m] * r : offsets[m + 1] * r].reshape(g.size, r)
        layers.append(LayerSamples(x=g, values=vals))
    return PiecewiseGridFunction(
        layers=layers,
        traces={},
        meta={
            "dt": step,
            "steps": n_steps,
            "dx": [float(g[1] - g[0]) for g in grids],
            "junction_abscissae": [config.left_end] + list(config.junctions),
        },
    )
