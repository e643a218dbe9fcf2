"""Closed-form input profiles with exact derivative stacks.

Every profile knows its derivatives of arbitrary order, so grid functions
built from the catalog carry exact junction traces and an exact evaluator;
quadratures then probe the transform formulas without interpolation noise.

Profiles (scalar; vector data is profile times a fixed amplitude vector):

  gauss_bump   exp(-((x - center)/width)^2 / 2)
  sine_packet  sin(wavenumber (x - center)) * exp(-((x - center)/width)^2 / 2)
  poly_cutoff  ((x - left)(right - x))^4, normalized to peak 1, zero outside
               [left, right]; C^3 across the cut points.

A profile reference is "name" or "name:key=val,key=val".
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ParseError
from .gridfn import LayerSamples, PiecewiseGridFunction


def _hermite_he(n, u):
    """Probabilists' Hermite polynomial He_n(u), by recurrence."""
    if n == 0:
        return np.ones_like(u)
    prev, cur = np.ones_like(u), u.copy()
    for k in range(1, n):
        prev, cur = cur, u * cur - k * prev
    return cur


def _scale(w, order):
    """(-1/w)^order, or the infinity of its sign where that overflows a float."""
    try:
        return (-1.0 / w) ** order
    except OverflowError:
        return -math.inf if order % 2 else math.inf


def _scaled_gaussian(order, u, w):
    """(-1/w)^order He_order(u) e^{-u^2/2}, evaluated so that no factor overflows.

    The caller's left-to-right product meets inf * 0 where (-1/w)^order or
    He_order(u) overflows while the Gaussian underflows, and the product is
    0 or finite there; this takes the magnitude in logs.  It is 0 where |u|
    >= 40, where e^{-u^2/2} is below the smallest float.
    """
    out = np.zeros_like(u)
    near = np.abs(u) < 40.0
    he = _hermite_he(order, u[near])
    with np.errstate(divide="ignore", over="ignore"):
        log_mag = np.log(np.abs(he)) - order * math.log(w) - 0.5 * u[near] ** 2
        out[near] = (-1.0) ** order * np.sign(he) * np.exp(log_mag)
    return out


@dataclass(frozen=True)
class CatalogFunction:
    """A scalar profile with derivatives of every order.

    The Gaussian profiles evaluate their derivatives as products of the
    scale, a Hermite polynomial and the Gaussian; where such a product is
    not finite (a narrow width, far from the centre) those entries are
    evaluated again by _scaled_gaussian, so that a derivative is 0 where
    its Gaussian underflows and every other value stays as it was.
    """

    name: str
    params: dict

    def deriv(self, x, order=0):
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.name == "gauss_bump":
            w = p["width"]
            u = (x - p["center"]) / w
            with np.errstate(all="ignore"):
                out = _scale(w, order) * _hermite_he(order, u) * np.exp(-0.5 * u * u)
            bad = ~np.isfinite(out)
            if bad.any():
                out = np.array(out)
                out[bad] = _scaled_gaussian(order, u[bad], w)
            return out
        if self.name == "sine_packet":
            w, kw, c = p["width"], p["wavenumber"], p["center"]
            u = (x - c) / w
            with np.errstate(all="ignore"):
                g = np.exp(-0.5 * u * u)
                total = np.zeros_like(x)
                for j in range(order + 1):
                    sine = kw**j * np.sin(kw * (x - c) + 0.5 * j * math.pi)
                    gauss = _scale(w, order - j) * _hermite_he(order - j, u)
                    total = total + math.comb(order, j) * sine * gauss
                out = total * g
            bad = ~np.isfinite(out)
            if bad.any():
                out, xb, ub = np.array(out), x[bad], u[bad]
                out[bad] = sum(math.comb(order, j) * kw**j
                               * np.sin(kw * (xb - c) + 0.5 * j * math.pi)
                               * _scaled_gaussian(order - j, ub, w) for j in range(order + 1))
            return out
        if self.name == "poly_cutoff":
            a, b = p["left"], p["right"]
            poly = (Polynomial([-a, 1.0]) * Polynomial([b, -1.0])) ** 4
            poly = poly / ((b - a) / 2.0) ** 8
            vals = poly.deriv(order)(x) if order <= 8 else np.zeros_like(x)
            return np.where((x >= a) & (x <= b), vals, 0.0)
        raise ParseError(f"unknown catalog profile {self.name!r}")

    def __call__(self, x):
        return self.deriv(x, 0)


_DEFAULTS = {
    "gauss_bump": {"center": 3.0, "width": 0.5},
    "sine_packet": {"center": 3.0, "width": 1.0, "wavenumber": 3.0},
    "poly_cutoff": {"left": 1.5, "right": 4.5},
}


def make_profile(name, **overrides):
    if name not in _DEFAULTS:
        raise ParseError(
            f"unknown catalog profile {name!r}; available: {sorted(_DEFAULTS)}"
        )
    params = dict(_DEFAULTS[name])
    for key, val in overrides.items():
        if key not in params:
            raise ParseError(f"profile {name!r} has no parameter {key!r}")
        params[key] = float(val)
        if not math.isfinite(params[key]):
            raise ParseError(f"profile {name!r} needs a finite {key}, got {val!r}")
    if name == "poly_cutoff" and params["left"] >= params["right"]:
        raise ParseError("poly_cutoff needs left < right")
    if "width" in params and params["width"] <= 0:
        raise ParseError(f"profile {name!r} needs a positive width")
    profile = CatalogFunction(name=name, params=params)
    # to_grid_function traces orders 0..3; a huge wavenumber or a huge support
    # overflows those derivatives at the profile's middle, and a width near 0
    # overflows the scale 1/width^3 of the third near the centre
    mid = params["center"] if "center" in params else 0.5 * (params["left"] + params["right"])
    try:
        with np.errstate(all="ignore"):
            finite = all(np.isfinite(profile.deriv(np.array([mid]), o)).all() for o in range(4))
    except OverflowError:
        finite = False
    if "width" in params and math.isinf(_scale(params["width"], 3)):
        finite = False
    if not finite:
        raise ParseError(f"profile {name!r} needs parameters whose derivatives up to order 3 "
                         f"are finite, got {params}")
    return profile


def parse_profile(text):
    """Parse "name" or "name:key=val,key=val" into a CatalogFunction."""
    name, _, tail = text.partition(":")
    name = name.strip()
    overrides = {}
    if tail.strip():
        for item in tail.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ParseError(f"bad profile parameter {item!r} (expected key=value)")
            try:
                overrides[key.strip()] = float(val)
            except ValueError:
                raise ParseError(f"bad numeric value in profile parameter {item!r}") from None
    return make_profile(name, **overrides)


def is_profile_reference(text):
    return text.partition(":")[0].strip() in _DEFAULTS


def to_grid_function(profile, config, x_max, samples_per_layer=401, amplitudes=None):
    """Sample a profile into a PiecewiseGridFunction with exact traces.

    The scalar profile multiplies a fixed amplitude vector (default: all
    ones).  A layer past x_max (an empty window) gets no samples, as
    quad.plan gives it no panels.  Traces carry orders 0..3 at the left
    boundary and orders 0..1 on both sides of every interior junction; the
    evaluator closes over the profile so quadratures see exact values at
    arbitrary abscissae.
    """
    amp = np.ones(config.r, dtype=complex) if amplitudes is None else np.asarray(
        amplitudes, dtype=complex
    ).reshape(config.r)

    layers = []
    for layer in config.layers:
        a, b = layer.window(x_max)
        xs = np.linspace(a, b, max(4, int(samples_per_layer))) if b > a else np.empty(0)
        layers.append(LayerSamples(x=xs, values=np.outer(profile(xs), amp)))

    traces = {}
    if np.isfinite(config.left_end):
        traces[(0, "right")] = np.array(
            [profile.deriv(np.array([config.left_end]), o)[0] * amp for o in range(4)]
        )
    for k in range(1, config.n_layers):
        lk = config.junction(k)
        stack = np.array([profile.deriv(np.array([lk]), o)[0] * amp for o in range(2)])
        traces[(k, "left")] = stack
        traces[(k, "right")] = stack.copy()

    def evaluator(x, order=0):
        return np.outer(profile.deriv(np.asarray(x, dtype=float), order), amp)

    return PiecewiseGridFunction(layers=layers, traces=traces, evaluator=evaluator)
