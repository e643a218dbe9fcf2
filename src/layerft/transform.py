"""Forward and inverse transforms over the layered semi-axis and the full axis.

One pair serves both: basis.build_batch reads config.mode and returns the
kernels of its geometry, whose dual and primal families, each built on
first use and kept, give the two directions.  On the semi-axis

Forward: image(lam) = sum_m  integral over layer m of u*_m(xi, lam) f_m(xi) dxi
                    + (gamma0 f(l_0) + delta0 f'(l_0))
                    + junction corrections.

The junction correction at l_k is v_k (G_2 F_{k+1} - G_1 F_k) with
v_k = w^(k)(l_k) M_1k^{-1}, where G_s is the lam^2 coefficient block of side s
and F_j stacks (value; derivative) traces of f on side j; M_1k^{-1} is the
one its gate computed (basis.SpectralBasisBatch.pencil_inv).  forward_transform
reads the traces the lam^2 terms need before the driver _spectral_forward
runs, and adds the terms to the image the driver returns.  Every block @
(f; f') is PiecewiseGridFunction.trace_product, the one trace rule, which
reads only the traces whose columns of the block are nonzero: a junction
whose conditions are spectral-parameter-free (every G_s the zero block)
reads no trace and adds no term.  The full axis has neither term, and its
image has the two branches as columns (basis.branch_count).

Inverse: f(x) = c * integral over lam > 0 of lam u(x, lam) image(lam), with
the batch's inversion_constant c: -1/(pi i), or +1/(pi i) on the full axis.
The improper integral is computed with exp(-tau lam) damping on the
QuadratureSpec tau schedule and Neville-extrapolated to tau = 0.

Both directions take their quadrature from one quad.plan: the canonical
composite Gauss-Legendre grid of the (config, spec) pair and the
forward's per-layer xi panels, after the transform's size check.  The
inverse refuses images sampled elsewhere, because its quadrature weights
are tied to that grid.  It evaluates at one increasing point array per
layer, config.n_layers of them.

The basis and the plan are built once per image, and the inverse's phase
tables once per image and point set.  The forward image carries its batch
(SpectralImage.basis) and its (spec, plan) (SpectralImage.plan), and
decayed passes both on.  An inversion takes the primal families from that
batch when the batch was built for the same config object (is, not ==)
on exactly the image's abscissae; otherwise, for an image read from CSV
or an equal config parsed anew, it builds the batch as the forward does.
With the batch it takes the plan's grid when its spec equals the
forward's, and then runs quad.check_size, the plan's size rule, on its
own point count alone: no second band-edge pass.  Otherwise it calls
quad.plan itself.  Each primal family of a carried batch keeps the phase
tables of the last point split it was inverted on (_kept_phases): the
block centres' phases and the offsets' rotation rows, so the inversions
of a heat flow on one grid exponentiate and lay out their rows once; a
batch built for one inversion keeps none.  Either way it integrates over
the image's whole grid, with weight and value 0 at a non-finite (dropped)
row, and kept tables hold the very rows a block would compute, so a
reused and a rebuilt inversion agree bit for bit.

There is no loop over spectral points: basis.build_batch builds the whole
grid at once, and every kernel of either geometry is a basis.Family,
per-lam coefficients around e^{+-i mu s}.  Both directions are then matrix
products with phases factored per block of points: for s = c_q + t_j,
e^{i mu s} = e^{i mu c_q} e^{i mu t_j}, so a layer of Q blocks of J points
costs N r (Q + J) complex exponentials, not 2 N r Q J: for real mu, the
only kind the batches give today, e^{-i mu s} is the conjugate of
e^{i mu s} bit for bit (the rule of basis.exp_pair), and complex mu
(evanescent channels) exponentiates both signs, 2 N r (Q + J).  _moments
sums a family against data over x (forward) in complex products over both
signs (_phase).  _damped_sums sums over lam with the exp(-tau lam) damping
folded in (inverse), and folds the two signs into cos mu s and sin mu s
instead: for real mu its products are real, cos and sin against the
complex right-hand side viewed as floats, half the flops of one complex
product over both signs; complex mu takes the same products with complex
cosines and sines.  Where the left factor of a family is one lam-free V
(the primal families of a material with one eigenbasis), the inverse
applies V after the lam sum, channel by channel, as basis._matmul applies
a lam-free factor.  Both contractions run over the blocks of
_phase_blocks, whose work arrays stay within _CHUNK_BYTES.  The forward's
blocks are the uniform xi panels of the plan; the inverse
splits each layer's evaluation points with _split, which finds the arithmetic
progressions every caller passes.  Any other point set is its own centres
with the single offset 0: the dense sum, the same code.
"""

import itertools
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
)
from .gridfn import LayerSamples, PiecewiseGridFunction, SpectralImage
from .problem import SEMI_AXIS

# Memory of the work arrays of one block of the contractions, and of one row
# chunk of radial.forward_nd.
_CHUNK_BYTES = 1 << 20
_COMPLEX_BYTES = 16


def _split(xs, center):
    """(centres, offsets) of points s = xs - center for the factored contractions.

    An arithmetic progression (every point within 4 ulps of max|xs| of the
    fitted one: np.linspace rounds relative to the abscissae xs, and the
    dense phases then err as much) splits into blocks of about
    sqrt(len(s)) points, each centred on its midpoint:
    s = (centres[:, None] + offsets).ravel()[:len(s)], the last block
    running past the end.  Any other point set is its own centres with
    offsets [0]: the dense sum.
    """
    s = xs - center
    n = s.size
    size = max(1, round(math.sqrt(n)))
    if size > 1:
        h = (s[-1] - s[0]) / (n - 1)
        mid = 0.5 * (size - 1)
        centres = s[0] + h * (size * np.arange(-(-n // size)) + mid)
        offsets = h * (np.arange(size) - mid)
        fit = np.add.outer(centres, offsets).ravel()[:n]
        if np.max(np.abs(fit - s)) <= 4 * np.finfo(float).eps * np.max(np.abs(xs)):
            return centres, offsets
    return s, np.zeros(1)


def _phase(mu, s):
    """e^{i m s_k} for m = (mu, -mu): (2 mu.size, s.size), mu of any shape, by basis.exp_pair.

    For real mu the -mu half is the conjugate of the +mu half, so only
    mu.size * s.size exponentials are taken.
    """
    return bas.exp_pair(np.multiply.outer(mu, s)).reshape(2 * mu.size, s.size)


def _cos_sin_phase(mu, s):
    """The phases of the inverse for mu (R, rho) at the points s, point first.

    For real mu e^{i mu s}, (S, rho, R) complex, one exponential per entry:
    its float view (_cos_sin) is cos mu s and sin mu s bit for bit.  For
    complex mu (evanescent channels) the cosine and sine themselves,
    (e^{i mu s} + e^{-i mu s}) / 2 and (e^{i mu s} - e^{-i mu s}) / 2i from
    both signs of basis.exp_pair, (S, rho, R, 2).
    """
    t = np.multiply(s[:, None, None], mu.T, order="C")
    if np.iscomplexobj(t):
        ep, em = bas.exp_pair(t)
        return np.stack([ep + em, (ep - em) / 1j], axis=-1) / 2
    z = 1j * t              # in place: at its peak a table is one complex array
    return np.exp(z, out=z)


def _cos_sin(phases):
    """A slice (..., rho, R) of _cos_sin_phase as (..., rho, 2 R), cos and sin interleaved.

    Real for real mu, the float view of e^{i mu s}; complex for complex mu.
    """
    if phases.ndim == 3:
        return phases.view(float)
    return phases.reshape(phases.shape[:-2] + (-1,))


def _offset_rows(mu, s):
    """The rotation rows of the inverse for mu (R, rho) at the offsets s: (rho, R, 2 J, 2).

    Row j is (cos mu s_j, sin mu s_j) and row J + j is (-sin mu s_j,
    cos mu s_j), the values of _cos_sin_phase: real for real mu, complex
    for complex mu.  They rotate _damped_sums' right-hand side to each
    offset.  For real mu the first rows are e^{i mu s_j} viewed as floats,
    exponentiated in place: no other table of the offsets is allocated.
    """
    j, (n, rho) = s.size, mu.shape
    rot = np.empty((rho, n, 2, j, 2), dtype=mu.dtype)
    if np.iscomplexobj(mu):
        rot[:, :, 0] = _cos_sin_phase(mu, s).transpose(1, 2, 0, 3)
    else:
        z = rot[:, :, 0].view(complex)[..., 0]
        np.exp(np.multiply(1j * mu.T[:, :, None], s, out=z), out=z)
    rot[:, :, 1, :, 0] = -rot[:, :, 0, :, 1]
    rot[:, :, 1, :, 1] = rot[:, :, 0, :, 0]
    return rot.reshape(rho, n, 2 * j, 2)


# the (centre, offset) phase functions of the inverse's blocks
_INVERSE_PHASES = (_cos_sin_phase, _offset_rows)


def _real_product(a, z):
    """a @ z for complex z: one real product on the float view of z where a is real."""
    if np.iscomplexobj(a):
        return a @ z
    return (a @ z.view(float)).view(complex)


def _kept_phases(fam, centres, offsets):
    """The phase tables of fam on the split (centres, offsets), kept on fam for its next inversion.

    _INVERSE_PHASES of all of fam.mu: _cos_sin_phase at the centres,
    (Q, rho, N) complex for real mu and (Q, rho, N, 2) for complex mu, and
    the offsets' rotation rows of _offset_rows, (rho, N, 2 J, 2), real for
    real mu and complex for complex mu.  Real mu thus keeps
    16 N rho (Q + 2 J) bytes, about 1.7 MB for both layers of r2diag at
    lambda_max 12 / 400 steps on a 1202-point grid.  fam.phases is one
    slot: it holds the tables of the last split, and a new split replaces
    them.  A dense split (offsets [0]) keeps none and returns None, because
    its centre table would hold N rho entries per point.
    """
    if offsets.size == 1:
        fam.phases = None
        return None
    key = (centres.tobytes(), offsets.tobytes())
    if fam.phases is None or fam.phases[0] != key:
        fam.phases = (key, *(f(fam.mu, s) for f, s in zip(_INVERSE_PHASES, (centres, offsets))))
    return fam.phases[1:]


def _phase_blocks(mu, centres, offsets, width, phases, tables=None):
    """Factored phases of mu (N, rho) at s = centres[q] + offsets[j], block by block.

    centres (Q,) and offsets (J,) relative to the family's center, and
    phases the pair (centre_phase, offset_phase).  Yields (lams, e, parts)
    per slice lams of the spectral points: e = offset_phase(mu[lams],
    offsets), and parts lazily gives (cs, p) per slice cs of the centres
    with p = centre_phase(mu[lams], centres[cs]); every factor is centred
    on its own block.  phases is (_phase, _phase) for the forward and
    _INVERSE_PHASES for the inverse, whose tables of all of mu
    (_kept_phases) the blocks then slice bit for bit instead of computing
    their own.  Half of _CHUNK_BYTES bounds e with two (2 R rho, J * width)
    right-hand sides of the caller (the inverse: its rotation rows and one
    right-hand side), the other half p with the caller's (C, J * width)
    products; the kept tables belong to the family and lie outside the
    budget.
    """
    n, rho = mu.shape
    half = _CHUNK_BYTES // (2 * _COMPLEX_BYTES)         # entries
    lam_step = max(1, half // (2 * rho * offsets.size * (1 + 2 * width)))
    centre_phase, offset_phase = phases
    for lo in range(0, n, lam_step):
        lams = slice(lo, lo + lam_step)
        m = mu[lams]
        step = max(1, half // (2 * m.size + offsets.size * width))
        cuts = (slice(c, c + step) for c in range(0, centres.size, step))
        if tables is None:
            yield lams, offset_phase(m, offsets), ((cs, centre_phase(m, centres[cs]))
                                                   for cs in cuts)
        else:
            pc, rot = tables
            yield lams, rot[:, lams], ((cs, pc[cs, :, lams]) for cs in cuts)


def _moments(fam, centres, offsets, g, ends=()):
    """sum over s of K(s) g_s for a stacked Family K: (1 + len(ends), N, a).

    s = centres[q] + offsets[j] relative to fam.center, g (Q, J, b).  Row 0
    is the whole sum, row 1 + i the partial sum over centre ends[i] alone.
    The sums F+-[lam, k] = sum over s of e^{+-i mu s} g_s come from one
    complex product per block, p @ g over the centres, then e over the
    offsets; then sum_s K g = lp (rp . F+) + lm (rm . F-), . summing over b.
    """
    n, rho = fam.mu.shape
    q, j, b = g.shape
    rows = g.reshape(q, j * b)
    out = np.empty((1 + len(ends), n, fam.lp.shape[-2]), dtype=complex)
    for lams, e, parts in _phase_blocks(fam.mu, centres, offsets, b, (_phase, _phase)):
        whole = np.zeros((e.shape[0], j * b), dtype=complex)
        for cs, p in parts:
            whole += p @ rows[cs]
        ends_only = (_phase(fam.mu[lams], centres[k:k + 1]) * rows[k] for k in ends)
        for o, h in zip(out, itertools.chain([whole], ends_only)):
            fp, fm = np.einsum("rj,rjb->rb", e, h.reshape(-1, j, b)).reshape(2, -1, rho, b)
            yp = (fam.rp[lams] * fp).sum(axis=-1)[..., None]
            ym = (fam.rm[lams] * fm).sum(axis=-1)[..., None]
            o[lams] = (fam.lp[lams] @ yp + fam.lm[lams] @ ym)[..., 0]
    return out


def _damped_sums(fam, centres, offsets, fhat, damping, tables=None):
    """sum over lam of damping[t, lam] K(s, lam) fhat(lam) for a stacked Family K.

    s = centres[q] + offsets[j] relative to fam.center, fhat (N, b), damping
    (T, N); returns (T, Q J, a), point q J + j at s.  With P[lam, k] =
    lp[lam, :, k] (rp fhat)[lam, k], M alike with lm and rm, and the two
    signs' terms A = e^{i mu s} P and B = e^{-i mu s} M, their sum is
    C (A + B) + S i (A - B), C = cos mu c_q and S = sin mu c_q: one real
    product per block and channel k over (lam, cos | sin), the complex
    right-hand side viewed as floats, half the flops of a complex product
    over both signs.  The right-hand side is (P + M, i (P - M)) rotated by
    each offset's cos mu t_j and sin mu t_j (_offset_rows).  Complex mu
    takes the same products with complex C and S (_cos_sin_phase).

    Where lp and lm are one lam-free matrix V (basis._const: the primal V of
    every material _wavenumber_eig diagonalises in one eigenbasis), V is
    applied after the lam sum instead of before, the rule basis._matmul
    applies to a lam-free left factor: each channel sums (rp fhat, rm fhat)
    alone, and the products lose the factor a of their columns.  tables,
    those of _kept_phases on this split, spare the exponentials.
    """
    t = damping.shape[0]
    rho = fam.mu.shape[-1]
    a = fam.lp.shape[-2]
    j = offsets.size
    lp, lm = bas._const(fam.lp), bas._const(fam.lm)
    after = lp if lp is not None and lm is not None and np.array_equal(lp, lm) else None
    # out (A, Q, J t X): a rows A of V after the lam sum, or a columns X before it
    rows, per = (1, a) if after is None else (a, 1)
    cols = t * per
    out = np.zeros((rows, centres.size, j * cols), dtype=complex)
    for lams, rot, parts in _phase_blocks(fam.mu, centres, offsets, cols, _INVERSE_PHASES,
                                          tables):
        f = fhat[lams, :, None]
        yp, ym = fam.rp[lams] @ f, fam.rm[lams] @ f                  # (R, rho, 1)
        if after is None:
            yp = fam.lp[lams].swapaxes(-1, -2) * yp                  # (R, rho, a)
            ym = fam.lm[lams].swapaxes(-1, -2) * ym
        # (P + M, i (P - M)) at each damping level: (rho, R, 2, cols)
        pm = np.stack([yp + ym, 1j * (yp - ym)]).transpose(2, 1, 0, 3)
        pm = np.multiply(pm[:, :, :, None, :], damping[:, lams].T[:, None, :, None],
                         order="C").reshape(rho, -1, 2, cols)
        rhs = _real_product(rot, pm).reshape(rho, -1, j * cols)
        for cut, p in parts:
            p = _cos_sin(p)
            for k in range(rho):
                y = _real_product(p[:, k], rhs[k])
                if after is None:
                    out[0, cut] += y
                else:
                    for c in range(a):
                        out[c, cut] += after[c, k] * y
    # (A, Q J, t, X) as (t, Q J, a): a view, since A or X is 1
    return out.reshape(rows, -1, t, per).transpose(2, 1, 0, 3).reshape(t, -1, a)


def _spectral_forward(config, f, spec, lambdas):
    """Image of f: sum over layers of the dual kernels against f on the xi panels.

    basis.build_batch gives the geometry's batch of kernel data: its flags
    map the index of each degenerate point to its error, and its dual
    gives per layer the stacked dual Family u*(xi, lam).  One quad.plan
    gives the xi panels and the grid: its canonical one, or the explicit
    abscissae lambdas (no weights, not canonical).  A flagged point's row
    is set to NaN and meta["flagged"] records (index, lam, reason); if
    every row is flagged the first RegularityViolation is re-raised.
    meta["xi_tail_estimate"] is the largest contribution of the outermost
    xi panel at a truncated end.  The image carries the batch as its basis
    and (spec, plan) as its plan, for inverse_transform to reuse.
    """
    plan = quad.plan(config, spec)
    grid, panels = plan
    if lambdas is None:
        lams = grid.nodes
    else:
        lams = np.asarray(lambdas, dtype=float).ravel()
        if lams.size == 0:
            raise EmptyImage("no spectral points requested")
    rules = []
    for m, (centres, offsets, weights) in enumerate(panels):
        nodes = np.add.outer(centres, offsets)
        g = weights.ravel()[:, None] * f.values_on(m, nodes.ravel())
        rules.append((centres, offsets, g.reshape(*nodes.shape, f.r)))

    basis = bas.build_batch(config, lams)
    families = basis.dual
    values = np.zeros((lams.size, families[0].lp.shape[-2]), dtype=complex)
    tails = [np.zeros(lams.size)]
    for m, (fam, (centres, offsets, g)) in enumerate(zip(families, rules)):
        if not centres.size:
            continue
        # the outermost panel at each truncated end
        ends = [centres.size - 1] * (m == len(rules) - 1)
        ends += [0] * (m == 0 and not np.isfinite(config.left_end))
        whole, *partial = _moments(fam, centres - fam.center, offsets, g, ends)
        values += whole
        tails += [np.linalg.norm(p, axis=1) for p in partial]

    flags = basis.flags
    flagged = [(i, lams[i], f"{type(exc).__name__}: {exc}") for i, exc in sorted(flags.items())]
    values[sorted(flags)] = np.nan
    if len(flagged) == lams.size:
        raise RegularityViolation(
            f"every spectral point is degenerate; first: {flagged[0][2]}",
            lam=flagged[0][1],
        )

    meta = {"flagged": flagged}
    meta["xi_tail_estimate"] = float(np.nanmax(np.delete(tails, sorted(flags), axis=1)))
    return SpectralImage(lambdas=lams, values=values, meta=meta, basis=basis,
                         plan=(spec, plan))


def forward_transform(config, f, spec, lambdas=None):
    """Transform a sampled function; returns its image on the canonical grid.

    lambdas overrides the spectral abscissae (no weights are attached and the
    result is not canonical — useful for pointwise image comparisons).
    Spectral points where the problem is degenerate are flagged: their image
    rows are NaN and meta["flagged"] records (index, lam, reason).
    """
    if f.r != config.r:
        raise DimensionMismatch(f"function has {f.r} components, problem has r = {config.r}")

    bnd = config.boundary
    if bnd is None:         # the full axis: no boundary term, only lam-free junctions
        return _spectral_forward(config, f, spec, lambdas)
    term = f.trace_product(np.hstack([bnd.gamma0, bnd.delta0]), 0, "right")
    # junction k adds v_k (G_2 F_{k+1} - G_1 F_k), v_k = w^(k)(l_k) M_1k^{-1}
    jumps = [(k, f.trace_product(iface.lambda_sq_part(2), k, "right")
              - f.trace_product(iface.lambda_sq_part(1), k, "left"))
             for k, iface in enumerate(config.interfaces, start=1) if not iface.is_lambda_free]

    image = _spectral_forward(config, f, spec, lambdas)
    for k, jump in jumps:
        wk = bas.w_on_layer(image.basis, k - 1, config.junction(k))
        term = term + wk @ image.basis.pencil_inv[k - 1][0] @ jump
    image.values += term
    return image


def _normalize_x_points(config, x_points, spec):
    """x_points, one array per layer, as flat float arrays checked against their layers.

    A flat array of points is refused whatever its length: read as one
    point per layer, it would route its points to layers by position.
    """
    flat = any(np.ndim(p) == 0 for p in x_points)
    if flat or len(x_points) != config.n_layers:
        raise DimensionMismatch(
            f"expected one array of evaluation points per layer, {config.n_layers} arrays; "
            f"got {len(x_points)} {'single points' if flat else 'arrays'}"
        )
    per_layer = [np.asarray(p, dtype=float).ravel() for p in x_points]
    hi = spec.x_max * (1 + 1e-12)
    lo = config.left_end if config.mode == SEMI_AXIS else -hi
    for m, xs in enumerate(per_layer):
        if xs.size == 0:
            continue
        if not (xs.min() >= lo - 1e-12 and xs.max() <= hi):     # NaN fails both
            raise OutOfDomain(
                f"evaluation points for layer {m} fall outside [{lo}, {spec.x_max}]"
            )
        if np.any(np.diff(xs) <= 0):
            raise InvariantViolation(f"evaluation points for layer {m} must increase")
        if xs.min() < config.layers[m].left - 1e-9 or xs.max() > config.layers[m].right + 1e-9:
            raise OutOfDomain(f"evaluation points for layer {m} leave the layer")
    return per_layer


def inverse_transform(config, image, x_points, spec):
    """Reconstruct a function from its image on the canonical spectral grid of (config, spec).

    x_points holds one increasing array of evaluation points per layer, and
    another count of arrays, or a flat array of points, is
    DimensionMismatch: a caller with a flat set routes it with
    config.layer_index, junction abscissae to the right layer.  The kernels
    are the primal families of image.basis when that is the batch of this
    config object on the image's grid, else of basis.build_batch (as in
    _spectral_forward); either way the whole grid's.  The grid is that of
    image.plan when the basis is reused and spec equals the forward's, with
    quad.check_size on the points; else quad.plan(config, spec, points)
    builds it after the same check.  Either way the size is refused before
    anything is allocated.  A NaN (flagged) row gets quadrature weight 0
    and value 0, so its term is an exact zero, and is reported in
    meta["dropped_rows"]; a flag on a kept row is raised.  The quadrature
    and exp(-tau lam) weights fold into _damped_sums, which reads the
    phase tables the families of image.basis keep (_kept_phases);
    quad.tau_limit extrapolates.
    """
    branches = bas.branch_count(config)
    if image.k != branches:
        raise DimensionMismatch(
            f"image has {image.k} components, the kernels of this problem have {branches}"
        )
    n_points = sum(map(np.size, x_points))
    basis = image.basis
    reused = (basis is not None and basis.config is config
              and np.array_equal(basis.lam, image.lambdas))
    # the forward's plan, under the spec it was made for, serves the image's basis
    if reused and image.plan is not None and image.plan[0] == spec:
        grid = image.plan[1].grid
        quad.check_size(config, spec, grid.nodes.size, n_points)
    else:
        grid = quad.plan(config, spec, n_points).grid
    if image.lambdas.size != grid.nodes.size or not np.allclose(
        image.lambdas, grid.nodes, rtol=1e-9, atol=0.0
    ):
        raise InvariantViolation(
            "image is not sampled on the canonical spectral grid of this problem and "
            "quadrature spec; regenerate it with forward_transform under the same spec"
        )

    keep = np.all(np.isfinite(image.values), axis=1)
    if not keep.any():
        raise EmptyImage("all image rows are flagged")

    per_layer = _normalize_x_points(config, x_points, spec)
    edges = np.cumsum([0] + [xs.size for xs in per_layer])
    if not reused:
        basis = bas.build_batch(config, image.lambdas)
    flagged = [i for i in sorted(basis.flags) if keep[i]]
    if flagged:
        raise basis.flags[flagged[0]]
    # a dropped row takes value 0 and weight 0: either alone leaves NaN * 0 = NaN
    fhat = basis.inversion_constant * np.where(keep[:, None], image.values, 0.0)
    lams = image.lambdas
    damping = quad.damping_matrix(spec, lams, np.where(keep, grid.weights, 0.0) * lams)
    damped = []
    for xs, fam in zip(per_layer, basis.primal):
        centres, offsets = _split(xs, fam.center)
        # a batch built here dies with this call: tables kept on it would serve once
        tables = _kept_phases(fam, centres, offsets) if reused else None
        damped.append(_damped_sums(fam, centres, offsets, fhat, damping, tables)[:, :xs.size])
    damped = np.concatenate(damped, axis=1)
    limit, err = quad.tau_limit(spec, damped)

    layers_out = [
        LayerSamples(x=xs, values=limit[a:b])
        for xs, a, b in zip(per_layer, edges[:-1], edges[1:])
    ]
    meta = {
        "tau_error_estimate": float(np.max(err, initial=0.0)),
        "dropped_rows": np.flatnonzero(~keep).tolist(),
    }
    return PiecewiseGridFunction(layers=layers_out, meta=meta)


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
    image = forward_transform(config, f, spec)
    window = [ls.x[np.abs(ls.x) <= spec.x_max * (1 + 1e-12)] for ls in f.layers]
    recon = inverse_transform(config, image, window, spec)

    l2s, sups = [], []
    l2_in_sq = 0.0
    for m, xs in enumerate(window):
        ref = f.values_on(m, xs)
        diff = recon.layers[m].values - ref
        l2s.append(math.sqrt(float(np.trapezoid(np.sum(np.abs(diff) ** 2, axis=1), xs))))
        l2_in_sq += float(np.trapezoid(np.sum(np.abs(ref) ** 2, axis=1), xs))
        sups.append(float(np.max(np.abs(diff), initial=0.0)))

    return RoundtripReport(
        per_layer_l2=tuple(l2s),
        per_layer_sup=tuple(sups),
        l2_total=math.sqrt(sum(v**2 for v in l2s)),
        sup_total=max(sups),
        l2_input=math.sqrt(l2_in_sq),
        tau_error_estimate=recon.meta["tau_error_estimate"],
        n_flagged=len(image.meta.get("flagged", ())),
        reconstruction=recon,
    )
