"""Operational calculus: the layer operator, its transform identity, heat flow.

The layer operator acts blockwise as (B f)_m = a2_m f_m'' + g2_m f_m.  Under
the forward transform it turns into multiplication by -lam^2 up to boundary
data:

    image(B f)(lam) = -lam^2 image(f)(lam)
                      - { beta0 f(l_0) + alpha0 f'(l_0)
                          - gamma0 a2_1 f''(l_0) - delta0 a2_1 f'''(l_0) }

provided f is junction-compatible: on every junction both the
spectral-parameter-free part and the lam^2 part of the conditions must hold
separately.  That hypothesis is checked (not assumed); violations raise
ConjugationViolated.  verify_basic_identity evaluates both sides on the
canonical spectral grid and reports the residual per spectral point.

solve_heat realizes exp(t B) through the transform: decay the image by
exp(-lam^2 t) and invert.  fd_reference provides an independent
Crank-Nicolson oracle on per-layer grids with the junction and boundary
conditions imposed as one-sided second-order constraint rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import transform as tr
from .errors import (
    ConjugationViolated,
    GridTooCoarse,
    InvariantViolation,
    MissingTraces,
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


def _one_sided(ls, at_start, order):
    """Derivative trace at a layer endpoint from a 6-point one-sided stencil."""
    x, v = ls.x, ls.values
    if x.size < 6:
        raise GridTooCoarse(
            f"layer with {x.size} samples cannot produce endpoint derivatives"
        )
    if at_start:
        ww = fd_weights(x[0], x[:6], order)
        return ww @ v[:6]
    ww = fd_weights(x[-1], x[-6:], order)
    return ww @ v[-6:]


def apply_B(config, f):
    """Apply the layer operator a2 f'' + g2 f to a sampled function.

    With an exact evaluator on f the result keeps an exact evaluator and
    exact traces; otherwise values and traces come from 4th-order finite
    differences on the stored samples.
    """
    if f.r != config.r:
        raise InvariantViolation(
            f"function has {f.r} components, problem has r = {config.r}"
        )
    a2 = [np.asarray(l.a2, dtype=complex) for l in config.layers]
    g2 = [np.asarray(l.g2, dtype=complex) for l in config.layers]

    layers_out = []
    if f.evaluator is not None:
        for m, ls in enumerate(f.layers):
            v0 = f.evaluator(ls.x, 0)
            v2 = f.evaluator(ls.x, 2)
            vals = np.einsum("ij,nj->ni", a2[m], v2) + np.einsum("ij,nj->ni", g2[m], v0)
            layers_out.append(LayerSamples(x=ls.x.copy(), values=vals))
    else:
        for m, ls in enumerate(f.layers):
            v2 = _second_derivative_samples(ls)
            vals = np.einsum("ij,nj->ni", a2[m], v2) + np.einsum(
                "ij,nj->ni", g2[m], ls.values
            )
            layers_out.append(LayerSamples(x=ls.x.copy(), values=vals))

    traces = {}
    junction_x = [config.left_end] + list(config.junctions)

    def b_of(side_layer, val, der2):
        return np.einsum("ij,j->i", a2[side_layer], der2) + np.einsum(
            "ij,j->i", g2[side_layer], val
        )

    if f.evaluator is not None:
        derivs = {
            o: (lambda xx, oo=o: f.evaluator(np.asarray(xx, dtype=float), oo))
            for o in range(4)
        }
        l0 = config.left_end
        traces[(0, "right")] = np.array(
            [
                b_of(0, derivs[0]([l0])[0], derivs[2]([l0])[0]),
                b_of(0, derivs[1]([l0])[0], derivs[3]([l0])[0]),
            ]
        )
        for k in range(1, config.n_layers):
            lk = config.junction(k)
            rows = lambda m: np.array(
                [
                    b_of(m, derivs[0]([lk])[0], derivs[2]([lk])[0]),
                    b_of(m, derivs[1]([lk])[0], derivs[3]([lk])[0]),
                ]
            )
            traces[(k, "left")] = rows(k - 1)
            traces[(k, "right")] = rows(k)
    else:
        ls0 = layers_out[0]
        traces[(0, "right")] = np.array(
            [_one_sided(ls0, True, 0), _one_sided(ls0, True, 1)]
        )
        for k in range(1, config.n_layers):
            traces[(k, "left")] = np.array(
                [
                    _one_sided(layers_out[k - 1], False, 0),
                    _one_sided(layers_out[k - 1], False, 1),
                ]
            )
            traces[(k, "right")] = np.array(
                [_one_sided(layers_out[k], True, 0), _one_sided(layers_out[k], True, 1)]
            )

    evaluator = None
    if f.evaluator is not None:

        def evaluator(x, order=0):
            x = np.asarray(x, dtype=float)
            hi = f.evaluator(x, order + 2)
            lo = f.evaluator(x, order)
            out = np.empty((x.size, config.r), dtype=complex)
            idx = np.array([config.layer_index(float(v)) for v in np.atleast_1d(x)])
            for m in np.unique(idx):
                mask = idx == m
                out[mask] = np.einsum("ij,nj->ni", a2[m], hi[mask]) + np.einsum(
                    "ij,nj->ni", g2[m], lo[mask]
                )
            return out

    meta = dict(f.meta)
    meta["junction_abscissae"] = junction_x
    meta["operator"] = "a2 f'' + g2 f"
    return PiecewiseGridFunction(
        layers=layers_out, traces=traces, evaluator=evaluator, meta=meta
    )


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


def _max_junction_residual(res):
    vals = res["junction_value"] + res["junction_lam2"]
    return max(vals) if vals else 0.0


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
    res = lambda_split_residuals(config, f)
    scale = max(1.0, f.sup_norm())
    worst = _max_junction_residual(res)
    if worst > conjugation_tol * scale:
        raise ConjugationViolated(
            f"junction traces of f violate the split matching conditions "
            f"(worst residual {worst:.3e}, allowed {conjugation_tol * scale:.3e}); "
            f"the multiplication identity does not apply"
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
    if t < 0:
        raise InvariantViolation(f"time must be nonnegative, got {t}")
    res = lambda_split_residuals(config, f0)
    scale = max(1.0, f0.sup_norm())
    worst = max(
        [_max_junction_residual(res), res.get("boundary_value", 0.0),
         res.get("boundary_lam2", 0.0)]
    )
    if worst > compat_tol * scale:
        raise ConjugationViolated(
            f"initial data violates the boundary/junction compatibility "
            f"(worst residual {worst:.3e}, allowed {compat_tol * scale:.3e})"
        )
    image = tr.forward_transform(config, f0, spec)
    return tr.inverse_transform(config, image.decayed(t), x_points, spec)


def fd_reference(config, f0, t, dx, dt=None, x_max=12.0):
    """Crank-Nicolson oracle for the heat flow on truncated per-layer grids.

    Junction and boundary conditions replace the PDE rows at the joined
    endpoints, with derivatives taken by one-sided second-order stencils;
    the far end carries a homogeneous Dirichlet truncation at x_max.  Only
    spectral-parameter-free conditions are meaningful here.  dt defaults
    to 0.999 times the resolution bound dx^2 / (2 max-eig a2).
    """
    if config.mode != SEMI_AXIS:
        raise WrongMode("fd_reference serves the semi-axis problem")
    if not config.is_lambda_free:
        raise InvariantViolation(
            "fd_reference needs spectral-parameter-free boundary and junction "
            "conditions; this problem couples them to the spectral parameter"
        )
    if t <= 0:
        raise InvariantViolation(f"time must be positive, got {t}")

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

    n_steps = max(1, math.ceil(t / dt - 1e-12))
    step = t / n_steps

    # per-layer grids
    grids = []
    for layer in config.layers:
        a = layer.left
        b = min(layer.right, x_max)
        n = max(4, int(round((b - a) / dx)) + 1)
        grids.append(np.linspace(a, b, n))
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

    def assemble(trip, fmt):
        i, j, v = (np.concatenate(part) for part in zip(*trip))
        keep = v != 0
        return fmt((v[keep], (i[keep], j[keep])), shape=(total, total), dtype=complex)

    from scipy.sparse import csc_matrix, csr_matrix
    from scipy.sparse.linalg import splu

    solver = splu(assemble(im, csc_matrix))
    a_ex = assemble(ex, csr_matrix)

    u = np.concatenate([f0.values_on(m, g).ravel() for m, g in enumerate(grids)])
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
