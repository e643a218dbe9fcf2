"""Containers for layer-wise sampled functions and spectral images.

A PiecewiseGridFunction stores per-layer samples plus one-sided junction
traces.  Traces are the values and derivatives the transform formulas consume
at the junctions; they are kept explicitly (never inferred from samples)
because the sampled values may jump across a junction and because boundary
corrections need derivatives of higher order than interpolation can deliver
reliably.  Trace keys are (junction_index, side): junction 0 is the left
boundary l_0 (side "right" only), junction k >= 1 separates layer k from
layer k+1 and carries "left" and "right" traces.  Each entry is an array of
shape (orders, r): row o holds the o-th derivative trace.

CSV tables.  write_table writes every table layerft produces: one header
line, then rows of comma-separated cells, each float with 17 significant
digits (a write/read cycle reproduces every float64 bit-exactly), lines
ending in LF.  Complex values take two columns, re then im.  The tables:

  function  x,re_1,im_1,...,re_r,im_r,trace_side,trace_order
  image     lambda,re_1,im_1,...,re_k,im_k
  basis     x,u_re_11,u_im_11,...,u_im_rr,us_re_11,...,us_im_rr
  identity  lambda,residual
  poisson   x,y,value

Function and image tables are read back by read_function_csv and
read_image_csv.  Both function-table functions take the problem config,
the one source of junction abscissae.  Bulk sample rows of a function leave
the two trace columns empty; a trace row puts its junction's abscissa
config.junction(k) in x (l_0 for junction 0), "left"/"right" in trace_side
and the derivative order in trace_order.  An image row of a flagged
spectral point reads nan,0 in every component.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyImage,
    InvariantViolation,
    MissingTraces,
    ParseError,
)


def _not_a_knot_spline(x, y):
    """The not-a-knot cubic spline through (x, y), as a function of abscissae.

    x (n,) increasing, n >= 4; y (n, r).  The knot slopes solve one
    tridiagonal system for all r columns: C2 continuity at the interior
    knots, and a continuous third derivative at x[1] and x[-2].  It is
    solved by elimination without pivoting, the interior rows being
    diagonally dominant; on knots graded by 10^4 and more it agrees with a
    pivoted solve to about 1e-12.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    lower, diag, upper = np.zeros(n), np.empty(n), np.zeros(n)
    rhs = np.empty_like(slope, shape=y.shape)
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    lower[-1], diag[-1] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    for i in range(1, n):
        f = lower[i] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        rhs[i] -= f * rhs[i - 1]
    s = rhs
    s[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    # per interval, p(x_i + h) = ((c0 h + c1) h + s_i) h + y_i
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx[:, None]
    c0, c1 = t / dx[:, None], (slope - s[:-1]) / dx[:, None] - t

    def evaluate(xq):
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, n - 2)
        h = (xq - x[i])[:, None]
        return ((c0[i] * h + c1[i]) * h + s[i]) * h + y[i]

    return evaluate


@dataclass
class LayerSamples:
    """Samples of one layer: abscissae x (strictly increasing) and values (N, r)."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.x.ndim != 1:
            raise InvariantViolation("layer abscissae must be one-dimensional")
        if self.values.ndim != 2 or self.values.shape[0] != self.x.size:
            raise InvariantViolation(
                f"layer values shaped {self.values.shape} do not match {self.x.size} abscissae"
            )
        if not np.all(np.diff(self.x) > 0):
            raise InvariantViolation("layer abscissae must be strictly increasing")

    @property
    def r(self):
        return self.values.shape[1]


@dataclass
class PiecewiseGridFunction:
    """Layer-wise sampled function with junction traces.

    evaluator, when present, is an exact closed-form backend
    evaluator(x_array, order) -> (N, r); quadratures prefer it over spline
    interpolation of the samples.
    """

    layers: list
    traces: dict = field(default_factory=dict)
    evaluator: object = None
    meta: dict = field(default_factory=dict)
    _splines: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise InvariantViolation("a grid function needs at least one layer")
        rs = {ls.r for ls in self.layers}
        if len(rs) != 1:
            raise InvariantViolation(f"inconsistent component counts across layers: {rs}")

    @property
    def r(self):
        return self.layers[0].r

    @property
    def n_layers(self):
        return len(self.layers)

    def sup_norm(self):
        return max(float(np.max(np.abs(ls.values), initial=0.0)) for ls in self.layers)

    # --- traces -----------------------------------------------------------

    def trace(self, junction, side, order):
        arr = self.traces.get((junction, side))
        if arr is None or order >= arr.shape[0]:
            raise MissingTraces(
                f"no trace stored for junction {junction}, side {side!r}, order {order}"
            )
        row = np.asarray(arr[order], dtype=complex)
        if row.shape != (self.r,):
            raise InvariantViolation(
                f"trace (junction {junction}, {side}, order {order}) has shape {row.shape}"
            )
        return row

    def trace_product(self, block, junction, side):
        """block @ (f; f') at one side of a junction, reading only the traces it needs.

        block is (rows, 2r): its columns act on the value trace, then on the
        derivative trace.  A trace whose columns of block are all zero is not
        read, so data without traces (an inverse reconstruction) meet
        conditions that do not involve them; a trace that is needed and
        missing raises MissingTraces.
        """
        r = self.r
        out = np.zeros(block.shape[0], dtype=complex)
        for order in (0, 1):
            part = block[:, order * r:(order + 1) * r]
            if np.any(part):
                out = out + part @ self.trace(junction, side, order)
        return out

    # --- evaluation -------------------------------------------------------

    def _spline(self, m):
        sp = self._splines.get(m)
        if sp is None:
            ls = self.layers[m]
            if ls.x.size < 4:
                raise InvariantViolation(
                    f"layer {m} has only {ls.x.size} samples; spline resampling needs >= 4"
                )
            sp = _not_a_knot_spline(ls.x, ls.values)
            self._splines[m] = sp
        return sp

    def values_on(self, m, x):
        """Values of layer m at abscissae x (exact evaluator if available).

        Without an evaluator the samples of layer m must cover x: values
        requested outside them, or in a layer with no samples, raise
        InvariantViolation.  An empty x gives an empty (0, r) block.
        """
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return np.zeros((0, self.r), dtype=complex)
        if self.evaluator is not None:
            return np.asarray(self.evaluator(x, 0), dtype=complex).reshape(x.size, self.r)
        ls = self.layers[m]
        if ls.x.size == 0:
            raise InvariantViolation(
                f"layer {m} has no samples but values requested on [{x.min()}, {x.max()}]; "
                "sample the layer to cover the quadrature window"
            )
        span = ls.x[-1] - ls.x[0] if ls.x.size > 1 else 1.0
        slack = 1e-9 * max(span, 1.0)
        if x.min() < ls.x[0] - slack or x.max() > ls.x[-1] + slack:
            raise InvariantViolation(
                f"layer {m} sampled on [{ls.x[0]}, {ls.x[-1]}] but values requested on "
                f"[{x.min()}, {x.max()}]; extend the samples to cover the quadrature window"
            )
        return np.asarray(self._spline(m)(np.clip(x, ls.x[0], ls.x[-1])), dtype=complex)


@dataclass
class SpectralImage:
    """Transform image sampled on a spectral grid: values[i] = image at lambdas[i].

    values has shape (N, k), k = basis.branch_count: r on the semi-axis and 2
    on the full axis (two independent kernel branches).  basis, set by
    transform.forward_transform, is the kernel batch basis.build_batch built
    on its grid, the one basis type of its geometry (SpectralBasisBatch or
    AxisBatch): an inversion under the same config object reuses it, and
    decayed passes it on.  Besides its kernel data the batch keeps, per
    layer, the phase tables of the last evaluation points it was inverted
    on (basis.Family.phases): N rho (Q + J) complex entries for a layer
    whose points split into Q blocks of J (twice that for complex
    wavenumbers), none for points that are no arithmetic progression.
    That is about 1.1 MB in all for r2diag at lambda_max 12 / 400 steps
    on a 1202-point grid.  A new point set replaces them.  It is not
    written to CSV.
    """

    lambdas: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    basis: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.lambdas.ndim != 1:
            raise InvariantViolation("image grid must be one-dimensional")
        if self.values.ndim != 2 or self.values.shape[0] != self.lambdas.size:
            raise InvariantViolation(
                f"image values shaped {self.values.shape} do not match "
                f"{self.lambdas.size} grid points"
            )
        if self.lambdas.size == 0:
            raise EmptyImage("spectral image has no grid points")

    @property
    def k(self):
        return self.values.shape[1]

    def decayed(self, t):
        """Image of the heat semigroup at time t: multiply by exp(-lam^2 t)."""
        if not (math.isfinite(t) and t >= 0):
            raise InvariantViolation(f"time must be finite and nonnegative, got {t}")
        factor = np.exp(-self.lambdas**2 * t)
        values = self.values * factor[:, None]
        return SpectralImage(self.lambdas, values, dict(self.meta), self.basis)


# --- CSV ------------------------------------------------------------------


def complex_columns(names, prefix=""):
    """Header names of interleaved complex cells: {prefix}re_{n}, {prefix}im_{n} per name."""
    return [f"{prefix}{part}_{n}" for n in names for part in ("re", "im")]


def complex_rows(x, values):
    """Rows x, Re v_1, Im v_1, ...: the real cells of the complex (N, k) values at x."""
    return np.column_stack([x, np.ascontiguousarray(values, dtype=complex).view(float)])


# Rows formatted per write by write_table: bounds the text held at once
_WRITE_ROWS = 32


def write_table(path, header, blocks):
    """Write a CSV table: the header line, then the rows of every block.

    blocks holds (rows, tail) pairs: rows is a real (n, c) array whose cells
    are written with 17 significant digits, so that every float64 reads back
    bit-exactly; tail is the literal text that ends each of its rows (the
    text columns of a function CSV, "" in every other table).  Lines end in
    LF on every platform.  Each slice of at most _WRITE_ROWS rows is one %
    format of the repeated row format, byte for byte what np.savetxt writes
    row by row.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for rows, tail in blocks:
            rows = np.asarray(rows, dtype=float)
            line = ",".join(["%.17g"] * rows.shape[1]) + tail + "\n"
            for lo in range(0, rows.shape[0], _WRITE_ROWS):
                part = rows[lo:lo + _WRITE_ROWS]
                fh.write((line * part.shape[0]) % tuple(part.ravel().tolist()))


def _read_table(path, first, text=()):
    """Line numbers, numeric cells and text cells of the CSV table at path.

    The header must read first, then re_j,im_j pairs, then the text columns.
    Blank rows are skipped; every other row must have the header's field
    count and a float in each numeric cell, else ParseError names path:line.
    Returns (lines, nums, texts): nums is the (n, 1 + 2k) array of the
    numeric cells, texts the list of each row's text cells.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        width = len(header) - len(text)
        if (header[0].strip() != first or width < 3 or width % 2 == 0
                or tuple(header[width:]) != text):
            raise ParseError(
                f"{path}: expected the header {','.join([first, 're_1', 'im_1', '...', *text])}, "
                f"got {','.join(header)}"
            )
        lines, nums, texts = [], [], []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
            try:
                nums.append([float(cell) for cell in row[:width]])
            except ValueError as exc:
                raise ParseError(f"{path}:{ln}: {exc}") from None
            lines.append(ln)
            texts.append(row[width:])
    return lines, np.array(nums, dtype=float).reshape(-1, width), texts


def _refuse_nonfinite(path, lines, nums, ok):
    """ParseError naming the first row whose flag in ok is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        raise ParseError(f"{path}:{lines[i]}: non-finite number in {nums[i].tolist()}")


def write_image_csv(image, path):
    header = ["lambda", *complex_columns(range(1, image.k + 1))]
    write_table(path, header, [(complex_rows(image.lambdas, image.values), "")])


def read_image_csv(path):
    lines, nums, _ = _read_table(path, "lambda")
    # write_image_csv gives a flagged row nan,0 in every component
    flagged = np.isnan(nums[:, 1::2]).all(axis=1) & (nums[:, 2::2] == 0).all(axis=1)
    ok = np.isfinite(nums[:, 0]) & (flagged | np.isfinite(nums).all(axis=1))
    _refuse_nonfinite(path, lines, nums, ok)
    if not lines:
        raise EmptyImage(f"{path}: no image rows")
    values = np.ascontiguousarray(nums[:, 1:]).view(complex)
    return SpectralImage(nums[:, 0], values)


def write_function_csv(f, path, config):
    """Write f as a function table, each trace row at its junction's abscissa in config."""
    header = ["x", *complex_columns(range(1, f.r + 1)), "trace_side", "trace_order"]
    blocks = [(complex_rows(ls.x, ls.values), ",,") for ls in f.layers]
    for junction, side in sorted(f.traces):
        arr = f.traces[(junction, side)]
        rows = complex_rows(np.full(arr.shape[0], config.junction(junction)), arr)
        blocks += [(rows[order:order + 1], f",{side},{order}") for order in range(arr.shape[0])]
    write_table(path, header, blocks)


def _split_layers(xs, vals, config):
    """Assign bulk rows to layers.  A row exactly at junction l_k goes to the
    right layer, except that the first of two consecutive rows at l_k goes to
    the left layer (both one-sided endpoint samples survive a round trip)."""
    boundaries = []
    start = 0
    for k in range(1, config.n_layers):
        lk = config.junction(k)
        rest = xs[start:]
        at, above = np.flatnonzero(rest == lk), np.flatnonzero(rest > lk)
        split = start + (at[:2][-1] if at.size else above[0] if above.size else rest.size)
        boundaries.append(split)
        start = split
    return [(xs[lo:hi], vals[lo:hi]) for lo, hi in zip([0] + boundaries, boundaries + [xs.size])]


def read_function_csv(path, config):
    lines, nums, texts = _read_table(path, "x", ("trace_side", "trace_order"))
    r = (nums.shape[1] - 1) // 2
    if r != config.r:
        raise DimensionMismatch(
            f"{path}: file carries {r} components but the problem has r = {config.r}"
        )
    _refuse_nonfinite(path, lines, nums, np.isfinite(nums).all(axis=1))
    values = np.ascontiguousarray(nums[:, 1:]).view(complex)
    sides = [side.strip() for side, _ in texts]
    bulk = np.array([side == "" for side in sides], dtype=bool)
    pieces = _split_layers(nums[bulk, 0], values[bulk], config)
    layers = [LayerSamples(x=x, values=v) for x, v in pieces]

    junction_x = [config.junction(k) for k in range(config.n_layers)]
    traces = {}
    staged = {}
    for i in np.flatnonzero(~bulk):
        ln, x, side = lines[i], nums[i, 0], sides[i]
        if side not in ("left", "right"):
            raise ParseError(f"{path}:{ln}: trace_side must be left or right, got {side!r}")
        try:
            order = int(texts[i][1])
        except ValueError:
            raise ParseError(f"{path}:{ln}: bad trace_order {texts[i][1]!r}") from None
        hits = [j for j, xj in enumerate(junction_x) if np.isfinite(xj) and
                abs(x - xj) <= 1e-12 * max(1.0, abs(xj))]
        if not hits:
            raise ParseError(f"{path}:{ln}: trace abscissa {x} matches no junction")
        staged.setdefault((hits[0], side), {})[order] = values[i]
    for key, by_order in staged.items():
        orders = sorted(by_order)
        if orders != list(range(len(orders))):
            raise ParseError(
                f"{path}: traces for junction {key[0]} side {key[1]} have gaps: orders {orders}"
            )
        traces[key] = np.array([by_order[o] for o in orders], dtype=complex)

    return PiecewiseGridFunction(layers=layers, traces=traces)
