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

CSV layout, one schema for both directions of travel:

  functions:  x,re_1,im_1,...,re_r,im_r,trace_side,trace_order
  images:     lambda,re_1,im_1,...,re_k,im_k

Bulk sample rows leave the two trace columns empty; trace rows put the
junction abscissa in x, "left"/"right" in trace_side and the derivative
order in trace_order.  Floats are written with 17 significant digits so a
write/read cycle reproduces every float64 bit-exactly.
"""

import csv
import io
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


def _fmt(v):
    return f"{float(v):.17g}"


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
        if self.x.size >= 2 and not np.all(np.diff(self.x) > 0):
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
        return max(
            float(np.max(np.abs(ls.values))) if ls.x.size else 0.0 for ls in self.layers
        )

    # --- traces -----------------------------------------------------------

    def has_trace(self, junction, side, order):
        arr = self.traces.get((junction, side))
        return arr is not None and order < arr.shape[0]

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
        """Values of layer m at abscissae x (exact evaluator if available)."""
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return np.zeros((0, self.r), dtype=complex)
        if self.evaluator is not None:
            return np.asarray(self.evaluator(x, 0), dtype=complex).reshape(x.size, self.r)
        ls = self.layers[m]
        if ls.x.size == 0:
            return np.zeros((x.size, self.r), dtype=complex)
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

    values has shape (N, k); k = r for the boundary-value transforms and 2 for
    the full-axis transform (two independent kernel branches).
    """

    lambdas: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

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
        meta = dict(self.meta)
        meta["heat_time"] = meta.get("heat_time", 0.0) + t
        return SpectralImage(self.lambdas, self.values * factor[:, None], meta)


# --- CSV ------------------------------------------------------------------


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_image_csv(image, path):
    header = ["lambda"]
    for j in range(1, image.k + 1):
        header += [f"re_{j}", f"im_{j}"]
    rows = []
    for lam, row in zip(image.lambdas, image.values):
        out = [_fmt(lam)]
        for v in row:
            out += [_fmt(v.real), _fmt(v.imag)]
        rows.append(out)
    _write_rows(path, header, rows)


def read_image_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if not header or header[0].strip() != "lambda":
            raise ParseError(f"{path}: expected an image CSV with a 'lambda' column")
        k = (len(header) - 1) // 2
        if k < 1 or len(header) != 1 + 2 * k:
            raise ParseError(f"{path}: malformed image header {header}")
        lams, vals = [], []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
            try:
                nums = [float(cell) for cell in row]
            except ValueError as exc:
                raise ParseError(f"{path}:{ln}: {exc}") from None
            re, im = nums[1::2], nums[2::2]
            # write_image_csv gives a flagged row nan,0 in every component
            flagged = all(map(math.isnan, re)) and not any(im)
            if not math.isfinite(nums[0]) or not (flagged or all(map(math.isfinite, nums))):
                raise ParseError(f"{path}:{ln}: non-finite number in {row}")
            lams.append(nums[0])
            vals.append([complex(a, b) for a, b in zip(re, im)])
    if not lams:
        raise EmptyImage(f"{path}: no image rows")
    return SpectralImage(np.array(lams), np.array(vals), meta={"source": str(path)})


def write_function_csv(f, path):
    r = f.r
    header = ["x"]
    for j in range(1, r + 1):
        header += [f"re_{j}", f"im_{j}"]
    header += ["trace_side", "trace_order"]
    rows = []
    for ls in f.layers:
        for x, row in zip(ls.x, ls.values):
            out = [_fmt(x)]
            for v in row:
                out += [_fmt(v.real), _fmt(v.imag)]
            rows.append(out + ["", ""])
    junction_x = f.meta.get("junction_abscissae")
    for (junction, side) in sorted(f.traces, key=lambda k: (k[0], k[1])):
        arr = f.traces[(junction, side)]
        if junction_x is not None and junction < len(junction_x):
            xj = junction_x[junction]
        else:
            # fall back to the sampled endpoint adjacent to the junction
            xj = f.layers[junction].x[0] if side == "right" and junction == 0 else (
                f.layers[junction - 1].x[-1] if side == "left" else f.layers[junction].x[0]
            )
        for order in range(arr.shape[0]):
            out = [_fmt(xj)]
            for v in arr[order]:
                out += [_fmt(v.real), _fmt(v.imag)]
            rows.append(out + [side, str(order)])
    _write_rows(path, header, rows)


def _split_layers(xs, vals, config):
    """Assign bulk rows to layers.  A row exactly at junction l_k goes to the
    right layer, except that the first of two consecutive rows at l_k goes to
    the left layer (both one-sided endpoint samples survive a round trip)."""
    boundaries = []
    start = 0
    n = len(xs)
    for k in range(1, config.n_layers):
        lk = config.junction(k)
        hits = [i for i in range(start, n) if xs[i] == lk]
        if len(hits) >= 2:
            split = hits[1]
        elif len(hits) == 1:
            split = hits[0]
        else:
            split = next((i for i in range(start, n) if xs[i] > lk), n)
        boundaries.append(split)
        start = split
    pieces = []
    lo = 0
    for split in boundaries + [n]:
        pieces.append((np.array(xs[lo:split]), np.array(vals[lo:split]).reshape(split - lo, -1)))
        lo = split
    return pieces


def read_function_csv(path, config):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if not header or header[0].strip() != "x":
            raise ParseError(f"{path}: expected a function CSV with an 'x' column")
        if header[-2:] != ["trace_side", "trace_order"]:
            raise ParseError(f"{path}: function CSV must end with trace_side,trace_order")
        r = (len(header) - 3) // 2
        if r < 1 or len(header) != 3 + 2 * r:
            raise ParseError(f"{path}: malformed function header {header}")
        if r != config.r:
            raise DimensionMismatch(
                f"{path}: file carries {r} components but the problem has r = {config.r}",
                block="csv",
            )
        xs, vals = [], []
        trace_rows = []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
            try:
                nums = [float(cell) for cell in row[: 1 + 2 * r]]
            except ValueError as exc:
                raise ParseError(f"{path}:{ln}: {exc}") from None
            if not all(map(math.isfinite, nums)):
                raise ParseError(f"{path}:{ln}: non-finite number in {row[: 1 + 2 * r]}")
            x = nums[0]
            vec = [complex(re, im) for re, im in zip(nums[1::2], nums[2::2])]
            side = row[-2].strip()
            if side == "":
                xs.append(x)
                vals.append(vec)
                continue
            if side not in ("left", "right"):
                raise ParseError(f"{path}:{ln}: trace_side must be left or right, got {side!r}")
            try:
                order = int(row[-1])
            except ValueError:
                raise ParseError(f"{path}:{ln}: bad trace_order {row[-1]!r}") from None
            trace_rows.append((ln, x, side, order, vec))

    pieces = _split_layers(xs, vals, config)
    layers = [LayerSamples(x=p[0], values=p[1]) for p in pieces]

    # junction abscissae: index 0 is l_0 (semi-axis), k >= 1 the interior junctions
    junction_x = [config.left_end] + list(config.junctions)
    traces = {}
    staged = {}
    for ln, x, side, order, vec in trace_rows:
        hits = [j for j, xj in enumerate(junction_x) if np.isfinite(xj) and
                abs(x - xj) <= 1e-12 * max(1.0, abs(xj))]
        if not hits:
            raise ParseError(f"{path}:{ln}: trace abscissa {x} matches no junction")
        staged.setdefault((hits[0], side), {})[order] = vec
    for key, by_order in staged.items():
        orders = sorted(by_order)
        if orders != list(range(len(orders))):
            raise ParseError(
                f"{path}: traces for junction {key[0]} side {key[1]} have gaps: orders {orders}"
            )
        traces[key] = np.array([by_order[o] for o in orders], dtype=complex)

    return PiecewiseGridFunction(
        layers=layers,
        traces=traces,
        meta={"source": str(path), "junction_abscissae": junction_x},
    )
