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


@dataclass(frozen=True)
class CatalogFunction:
    """A scalar profile with derivatives of every order."""

    name: str
    params: dict

    def deriv(self, x, order=0):
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.name == "gauss_bump":
            w = p["width"]
            u = (x - p["center"]) / w
            return (-1.0 / w) ** order * _hermite_he(order, u) * np.exp(-0.5 * u * u)
        if self.name == "sine_packet":
            w, kw, c = p["width"], p["wavenumber"], p["center"]
            u = (x - c) / w
            g = np.exp(-0.5 * u * u)
            total = np.zeros_like(x)
            for j in range(order + 1):
                sine = kw**j * np.sin(kw * (x - c) + 0.5 * j * math.pi)
                gauss = (-1.0 / w) ** (order - j) * _hermite_he(order - j, u)
                total = total + math.comb(order, j) * sine * gauss
            return total * g
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
    if name == "poly_cutoff" and params["left"] >= params["right"]:
        raise ParseError("poly_cutoff needs left < right")
    if "width" in params and params["width"] <= 0:
        raise ParseError(f"profile {name!r} needs a positive width")
    return CatalogFunction(name=name, params=params)


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
    ones).  Traces carry orders 0..3 at the left boundary and orders 0..1 on
    both sides of every interior junction; the evaluator closes over the
    profile so quadratures see exact values at arbitrary abscissae.
    """
    amp = np.ones(config.r, dtype=complex) if amplitudes is None else np.asarray(
        amplitudes, dtype=complex
    ).reshape(config.r)

    layers = []
    for layer in config.layers:
        a, b = layer.window(x_max)
        if b <= a:
            # degenerate window: keep a minimal stub so layer counts line up
            a, b = layer.left, layer.left + 1e-3
        n = max(4, int(samples_per_layer))
        xs = np.linspace(a, b, n)
        layers.append(LayerSamples(x=xs, values=np.outer(profile(xs), amp)))

    junction_x = [config.left_end] + list(config.junctions)
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

    return PiecewiseGridFunction(
        layers=layers,
        traces=traces,
        evaluator=evaluator,
        meta={
            "catalog": profile.name,
            "params": dict(profile.params),
            "amplitudes": amp.copy(),
            "junction_abscissae": junction_x,
        },
    )
