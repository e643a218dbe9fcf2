"""A forward image carries its kernel batch: inversions of it and of its decayed copies reuse it."""

import dataclasses

import numpy as np
import pytest

from layerft import basis as bas
from layerft import catalog as cat
from layerft import operator as op
from layerft import quadrature as quad
from layerft import transform as tr
from layerft.configio import parse_config
from layerft.errors import InvariantViolation, RegularityViolation
from layerft.gridfn import read_image_csv, write_image_csv
from layerft.problem import Interface

from conftest import config_path

SEMI_AXIS = ["sine", "twolayer", "threelayer_r2", "r2diag", "lambda_interface"]
FULL_AXIS = ["fullaxis", "fullaxis_twolayer"]
FAMILY_ARRAYS = ("mu", "lp", "rp", "lm", "rm")


def small(load, name, profile="gauss_bump"):
    """A bundled config at lambda_max 12 / 400 steps, a profile on it and evaluation points."""
    cfg, spec = load(name)
    spec = dataclasses.replace(spec, lambda_max=12.0, lambda_steps=400)
    f = cat.to_grid_function(cat.parse_profile(profile), cfg, spec.x_max)
    pts = [ls.x[np.abs(ls.x) <= spec.x_max] for ls in f.layers]
    return cfg, spec, f, pts


@pytest.fixture
def builds(monkeypatch):
    """Count the calls of basis._build_families, which every batch of either geometry runs."""
    count = [0]
    build = bas._build_families

    def counted(*args, **kwargs):
        count[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(bas, "_build_families", counted)
    return count


def assert_same(a, b):
    for la, lb in zip(a.layers, b.layers):
        assert la.values.tobytes() == lb.values.tobytes()
    assert a.meta["tau_error_estimate"] == b.meta["tau_error_estimate"]
    assert a.meta["dropped_rows"] == b.meta["dropped_rows"]


@pytest.mark.parametrize("name", SEMI_AXIS + FULL_AXIS)
def test_reused_and_rebuilt_inversions_are_bit_identical(load, name):
    # each image twice on its points (kept phase tables the second time), on
    # every other point (new tables), and on its points again
    cfg, spec, f, pts = small(load, name)
    image = tr.forward_transform(cfg, f, spec)
    edited = dataclasses.replace(image, values=image.values.copy())
    edited.values[[0, 7, 150, -1]] = np.nan
    halves = [xs[::2] for xs in pts]
    for img in (image, image.decayed(0.05), edited):
        assert img.basis is image.basis is not None
        point_sets = (pts, halves)
        rebuilt = [tr.inverse_transform(cfg, dataclasses.replace(img, basis=None), p, spec)
                   for p in point_sets]
        for k in (0, 0, 1, 0):
            assert_same(tr.inverse_transform(cfg, img, point_sets[k], spec), rebuilt[k])
    assert all(fam.phases is not None for fam in image.basis.primal)
    dropped = tr.inverse_transform(cfg, edited, pts, spec).meta["dropped_rows"]
    assert dropped == [0, 7, 150, image.lambdas.size - 1]


@pytest.mark.parametrize("name", ["threelayer_r2", "fullaxis_twolayer"])
def test_kept_rows_of_the_whole_grid_equal_a_build_on_them(load, name):
    cfg, spec, _, _ = small(load, name)
    lams = quad.lambda_grid(cfg, spec).nodes
    keep = np.ones(lams.size, dtype=bool)
    keep[[3, 40, 41, -1]] = False
    whole, part = bas.build_batch(cfg, lams).primal, bas.build_batch(cfg, lams[keep]).primal
    for a, b in zip(whole, part):
        for attr in FAMILY_ARRAYS:
            assert getattr(a, attr)[keep].tobytes() == getattr(b, attr).tobytes()


def sliced_inverse(cfg, image, pts, spec):
    """Reference: the tau-limit per layer with the dropped rows sliced out of every array."""
    keep = np.all(np.isfinite(image.values), axis=1)
    lams = image.lambdas[keep]
    fhat = image.basis.inversion_constant * image.values[keep]
    damping = quad.damping_matrix(spec, lams, quad.lambda_grid(cfg, spec).weights[keep] * lams)
    out = []
    for xs, fam in zip(pts, image.basis.primal):
        fam = dataclasses.replace(fam, **{a: getattr(fam, a)[keep] for a in FAMILY_ARRAYS})
        damped = tr._damped_sums(fam, *tr._split(xs, fam.center), fhat, damping)[:, :xs.size]
        out.append(quad.tau_limit(spec, damped)[0])
    return out


@pytest.mark.parametrize("name", ["twolayer", "threelayer_r2", "fullaxis_twolayer"])
def test_dropped_rows_weigh_zero_like_sliced_ones(load, name):
    cfg, spec, f, pts = small(load, name)
    image = tr.forward_transform(cfg, f, spec)
    image.values[[0, 7, 150, 151, -1]] = np.nan
    recon = np.concatenate([ls.values for ls in tr.inverse_transform(cfg, image, pts, spec).layers])
    ref = np.concatenate(sliced_inverse(cfg, image, pts, spec))
    assert np.max(np.abs(recon - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solve_heat_builds_once(load, builds):
    # a bump far enough from the junctions to pass the compatibility gate
    cfg, spec, f, pts = small(load, "r2diag", "gauss_bump:center=3.5,width=0.38")
    op.solve_heat(cfg, f, 0.05, pts, spec)
    assert builds[0] == 1


def test_one_forward_and_four_decayed_inversions_build_once(load, builds):
    cfg, spec, f, pts = small(load, "r2diag")
    image = tr.forward_transform(cfg, f, spec)
    for t in (0.01, 0.05, 0.2, 1.0):
        tr.inverse_transform(cfg, image.decayed(t), pts, spec)
    assert builds[0] == 1


def test_csv_image_and_equal_config_rebuild(load, builds, tmp_path):
    cfg, spec, f, pts = small(load, "twolayer")
    image = tr.forward_transform(cfg, f, spec)
    write_image_csv(image, tmp_path / "image.csv")
    from_csv = read_image_csv(tmp_path / "image.csv")
    assert from_csv.basis is None
    twin, _ = parse_config(config_path("twolayer"))
    assert twin is not cfg
    expected = tr.inverse_transform(cfg, image, pts, spec)
    assert builds[0] == 1
    assert_same(tr.inverse_transform(cfg, from_csv, pts, spec), expected)
    assert builds[0] == 2
    assert_same(tr.inverse_transform(twin, image, pts, spec), expected)
    assert builds[0] == 3


def test_non_canonical_image_is_refused(load):
    cfg, spec, f, pts = small(load, "twolayer")
    lams = quad.lambda_grid(cfg, spec).nodes
    image = tr.forward_transform(cfg, f, spec, lambdas=lams[:-1])
    assert image.basis is not None
    with pytest.raises(InvariantViolation, match="canonical"):
        tr.inverse_transform(cfg, image, pts, spec)


def test_flag_on_a_kept_row_is_raised(load):
    # twolayer and singular share a grid; under singular every point is flagged
    cfg, spec, f, pts = small(load, "twolayer")
    singular, _ = load("singular")
    image = tr.forward_transform(cfg, f, spec)
    image.values[0] = np.nan
    first = bas.build_batch(singular, image.lambdas[1:]).flags[0]
    with pytest.raises(RegularityViolation) as exc:
        tr.inverse_transform(singular, image, pts, spec)
    assert str(exc.value) == str(first)


def test_flagged_rows_of_a_forward_image_are_dropped_not_raised(load):
    # twolayer with its value row scaled by (1 - lam^2 / lam_*^2), lam_* a grid node
    cfg_t, spec, f, pts = small(load, "twolayer")
    star = quad.lambda_grid(cfg_t, spec).nodes[100]
    blocks = {n: np.zeros((1, 1)) for n in Interface.BLOCK_NAMES}
    blocks.update(beta11=np.eye(1), beta12=np.eye(1), alpha21=np.eye(1), alpha22=2.0 * np.eye(1),
                  gamma11=-np.eye(1) / star**2, gamma12=-np.eye(1) / star**2)
    cfg = dataclasses.replace(cfg_t, interfaces=(Interface(**blocks),))
    image = tr.forward_transform(cfg, f, spec)
    flagged = [entry[0] for entry in image.meta["flagged"]]
    assert 100 in flagged
    recon = tr.inverse_transform(cfg, image, pts, spec)
    assert recon.meta["dropped_rows"] == flagged
    assert all(np.isfinite(ls.values).all() for ls in recon.layers)
    assert_same(recon, tr.inverse_transform(cfg, dataclasses.replace(image, basis=None), pts, spec))
