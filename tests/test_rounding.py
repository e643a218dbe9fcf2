"""Rounding is not amplified: every wavenumber mu moved by one ulp moves the images and the
reconstructions of the transform pair by rounding only, on every geometry and material kind."""

import dataclasses

import numpy as np
import pytest

from layerft import basis as bas
from layerft import catalog as cat
from layerft import transform as tr

from test_gates_and_rates import PERFBENCH_SPEC

ONE_ULP = 1 + 2.3e-16       # rounds to 1 + eps: every mu moves by about one ulp
BOUND = 1e-13               # of the largest entry

CASES = [(name, PERFBENCH_SPEC) for name in (
    "twolayer", "r2diag", "threelayer_r2", "lambda_interface", "fullaxis_twolayer", "sine",
    "laminate",
)] + [("lambda_interface", {})]


def transform_pair(cfg, spec):
    """Image of the default gauss_bump and its reconstruction on the samples within x_max."""
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    window = [ls.x[np.abs(ls.x) <= spec.x_max * (1 + 1e-12)] for ls in f.layers]
    image = tr.forward_transform(cfg, f, spec)
    recon = tr.inverse_transform(cfg, image, window, spec)
    return image, np.concatenate([ls.values for ls in recon.layers])


@pytest.mark.parametrize("name, override", CASES,
                         ids=[f"{n}-{'perfbench' if o else 'default'}" for n, o in CASES])
def test_one_ulp_of_every_wavenumber_moves_the_pair_by_rounding_only(load, monkeypatch,
                                                                      name, override):
    cfg, spec = load(name)
    spec = dataclasses.replace(spec, **override)
    image, recon = transform_pair(cfg, spec)
    eig = bas._wavenumber_eig

    def nudged(a2, g2, lams):
        mu, v, vinv = eig(a2, g2, lams)
        return mu * ONE_ULP, v, vinv

    monkeypatch.setattr(bas, "_wavenumber_eig", nudged)
    image_n, recon_n = transform_pair(cfg, spec)
    assert np.array_equal(image_n.lambdas, image.lambdas)
    assert image_n.meta["flagged"] == image.meta["flagged"]
    finite = np.isfinite(image.values)
    assert np.array_equal(np.isfinite(image_n.values), finite)
    assert np.any(image_n.values[finite] != image.values[finite])      # the nudge took effect
    assert (np.max(np.abs(image_n.values[finite] - image.values[finite]))
            <= BOUND * np.max(np.abs(image.values[finite])))
    assert np.max(np.abs(recon_n - recon)) <= BOUND * np.max(np.abs(recon))
