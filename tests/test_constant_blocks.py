"""Blocks that do not depend on lam are handled once per build: a lam-free junction pencil is
gated and inverted once, and each material runs one wavenumber decomposition.  Splitting a
layer into ideal-contact sublayers (fictitious junctions) leaves the transform pair unchanged."""

import dataclasses

import numpy as np
import pytest

from layerft import basis as bas
from layerft import catalog as cat
from layerft import linalg as la
from layerft import operator as op
from layerft import quadrature as quad
from layerft import transform as tr
from layerft.catalog import CatalogFunction
from layerft.errors import InvariantViolation, ParseError
from layerft.problem import Interface, ideal_contact

from test_gates_and_rates import PERFBENCH_SPEC, counter


def split_layer(cfg, m, k):
    """cfg with layer m split into k equal sublayers of its material, in ideal contact."""
    layer = cfg.layers[m]
    edges = np.linspace(layer.left, layer.right, k + 1)
    parts = [dataclasses.replace(layer, left=float(a), right=float(b))
             for a, b in zip(edges[:-1], edges[1:])]
    interfaces = (cfg.interfaces[:m] + (ideal_contact(layer.a2, layer.a2),) * (k - 1)
                  + cfg.interfaces[m:])
    return dataclasses.replace(cfg, layers=cfg.layers[:m] + tuple(parts) + cfg.layers[m + 1:],
                               interfaces=interfaces)


def image_and_reconstruction(cfg, spec, profile, xs):
    f = cat.to_grid_function(profile, cfg, spec.x_max)
    index = cfg.layer_index(xs)
    image = tr.forward_transform(cfg, f, spec)
    recon = tr.inverse_transform(cfg, image, [xs[index == j] for j in range(cfg.n_layers)], spec)
    return image, np.concatenate([ls.values for ls in recon.layers])


# --- fictitious junctions -----------------------------------------------------------------


@pytest.mark.parametrize("name, m", [("twolayer", 0), ("threelayer_r2", 1)])
def test_fictitious_junctions_leave_the_transform_pair_unchanged(load, name, m):
    cfg, spec = load(name)
    spec = dataclasses.replace(spec, **PERFBENCH_SPEC)
    profile = cat.parse_profile("gauss_bump:center=1.5,width=0.5")
    xs = np.linspace(cfg.left_end, 6.0, 241)
    image, recon = image_and_reconstruction(cfg, spec, profile, xs)
    for k in (2, 10, 40):
        split = split_layer(cfg, m, k)
        image_k, recon_k = image_and_reconstruction(split, spec, profile, xs)
        assert np.array_equal(image_k.lambdas, image.lambdas)
        scale = np.max(np.abs(image.values))
        assert np.max(np.abs(image_k.values - image.values)) <= 1e-13 * scale
        assert np.max(np.abs(recon_k - recon)) <= 1e-13 * np.max(np.abs(recon))


# --- work counts --------------------------------------------------------------------------


def test_a_build_screens_each_lambda_free_pencil_once(load, monkeypatch):
    cfg, spec = load("threelayer_r2")
    lams = quad.lambda_grid(cfg, dataclasses.replace(spec, **PERFBENCH_SPEC)).nodes
    shapes = []
    screen = la.screened_rcond

    def recorded(a):
        shapes.append(np.shape(a))
        return screen(a)

    monkeypatch.setattr(la, "screened_rcond", recorded)
    batch = bas.build_batch(cfg, lams)
    assert sorted(shapes) == [(1, 4, 4)] * 4 + [(lams.size, 2, 2)] * 2
    for pencils, inverses in zip(batch.pencils, batch.pencil_inv):
        for block in (*pencils, *inverses):
            assert block.shape == (lams.size, 4, 4) and not block.flags.writeable
            assert bas._const(block) is not None


@pytest.mark.parametrize("name", ["r2diag", "twolayer"])
def test_a_build_keeps_its_lambda_free_blocks_as_broadcast_views(load, name):
    cfg, spec = load(name)
    lams = quad.lambda_grid(cfg, dataclasses.replace(spec, **PERFBENCH_SPEC)).nodes
    batch = bas.build_batch(cfg, lams)
    blocks = [batch.bnd_row] + [a for ld in batch.layers for a in (ld.v, ld.vinv)]
    blocks += [b for pair in (*batch.pencils, *batch.pencil_inv) for b in pair]
    for block in blocks:
        assert block.shape[0] == lams.size and bas._const(block) is not None
    # one product over the flattened stack rounds like the per-point products, up to 1e-15
    ld = batch.layers[0]
    stack = ld.coef[..., :cfg.r]                                    # (N, 2r, r), per lam
    wide = batch.pencil_inv[0][0]                                   # (N, 2r, 2r), broadcast
    for a, b in ((wide, stack), (stack.swapaxes(-1, -2), wide), (ld.vinv, stack[:, cfg.r:])):
        assert bas._const(a) is not None or bas._const(b) is not None
        want = np.stack([ai @ bi for ai, bi in zip(a, b)])
        assert np.max(np.abs(bas._matmul(a, b) - want)) <= 1e-15 * np.max(np.abs(want))


def test_one_wavenumber_decomposition_per_material(load, monkeypatch):
    cfg, spec = load("laminate")
    assert cfg.n_layers == 20
    lams = quad.lambda_grid(cfg, dataclasses.replace(spec, **PERFBENCH_SPEC)).nodes
    eigs = counter(monkeypatch, bas, "_wavenumber_eig")
    batch = bas.build_batch(cfg, lams)
    assert eigs[0] == 2 and not batch.flags
    assert all(batch.layers[m].mu is batch.layers[m % 2].mu for m in range(cfg.n_layers))


# --- one wavenumber gate, for a constant eigenbasis and a batched one ---------------------


def materials():
    """(a2, g2) of a constant-V layer (g2 = 0), a g2 = c a2 layer and a batched layer."""
    a2 = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
    return {"g2=0": (a2, np.zeros((2, 2), dtype=complex)),
            "g2=c*a2": (a2, 0.25 * a2),
            "batched": (a2, np.array([[0.5, 0.1], [0.1, 0.3]], dtype=complex))}


def test_a_constant_eigenbasis_is_found_where_it_exists_and_agrees_with_eigh():
    lams = np.array([1e-4, 0.3, 2.0, 40.0])
    for name, (a2, g2) in materials().items():
        mu, v, vinv = bas._wavenumber_eig(a2, g2, lams)
        assert (bas._const(v) is not None) == (name != "batched")
        for i, lam in enumerate(lams):
            q2 = np.linalg.solve(a2, lam**2 * np.eye(2) + g2)
            assert np.linalg.norm((v[i] * mu[i] ** 2) @ vinv[i] - q2) <= 1e-13 * np.linalg.norm(q2)


@pytest.mark.parametrize("lam", [0.0, float("nan"), 1e200, -1.0])
def test_every_wavenumber_path_gates_lambda_alike(lam):
    texts = set()
    for a2, g2 in materials().values():
        with pytest.raises(InvariantViolation) as exc:
            bas._wavenumber_eig(a2, g2, [1.0, lam])
        texts.add(str(exc.value))
    assert texts == {f"spectral parameter {lam} is not positive with a nonzero square and a "
                     "finite scaled pencil"}


def test_a_singular_lambda_free_pencil_flags_every_point(load):
    cfg, _ = load("r2diag")
    blocks = {n: np.zeros((2, 2)) for n in Interface.BLOCK_NAMES}
    blocks.update(beta11=np.eye(2), alpha21=np.eye(2), beta12=np.diag([1.0, 0.0]),
                  alpha22=np.diag([1.0, 0.0]))                   # M_2 drops component 2
    cfg = dataclasses.replace(cfg, interfaces=(Interface(**blocks),))
    lams = np.array([0.5, 1.0, 2.5])
    batch = bas.build_batch(cfg, lams)
    assert sorted(batch.flags) == [0, 1, 2]
    for i, lam in enumerate(lams):
        text = f"junction 1: right-side condition block M_2({lam}) is singular"
        assert str(batch.flags[i]) == text
    m2, m2_inv = batch.pencils[0][1], batch.pencil_inv[0][1]
    assert np.array_equal(m2[1], np.eye(4)) and np.array_equal(m2_inv[2], np.eye(4))


# --- the laminate -------------------------------------------------------------------------


def test_heat_on_the_laminate_matches_the_fd_oracle(load):
    cfg, spec = load("laminate")
    # a narrow bump in the tail whose heat reaches the laminate by t, flat at every junction
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump", center=2.6, width=0.12), cfg,
                              spec.x_max)
    t = 0.05
    fd = op.fd_reference(cfg, f0, t, 0.01, 2e-5, x_max=spec.x_max)
    u = op.solve_heat(cfg, f0, t, [ls.x for ls in fd.layers], spec)
    gaps = [np.max(np.abs(a.values - b.values)) for a, b in zip(u.layers, fd.layers)]
    assert max(gaps) <= 1e-3
    assert max(np.max(np.abs(ls.values)) for ls in u.layers[:-1]) > 1e-2


# --- narrow catalog profiles --------------------------------------------------------------


@pytest.mark.parametrize("width", [1e-60, 1e-120])
@pytest.mark.parametrize("name", ["gauss_bump", "sine_packet"])
def test_narrow_profiles_have_finite_derivatives(name, width):
    params = {"gauss_bump": {"center": 3.0}, "sine_packet": {"center": 3.0, "wavenumber": 3.0}}
    profile = CatalogFunction(name, {**params[name], "width": width})
    x = np.array([3.0, 3.5, 2.0, 1e3, -1e3])
    for order in range(4):
        values = profile.deriv(x, order)
        assert np.all(np.isfinite(values)) and np.all(values[1:] == 0.0)
    if width == 1e-60:
        third = cat.make_profile(name, width=width).deriv([3.0, 3.5], 3)
        assert np.all(np.isfinite(third)) and third[1] == 0.0
    else:                           # the third derivative is about 1/width^3 near the centre
        with pytest.raises(ParseError, match="finite"):
            cat.make_profile(name, width=width)


def test_ordinary_profiles_keep_their_left_to_right_products():
    x = np.linspace(-5.0, 12.0, 301)
    for width in (0.05, 0.5, 3.0):
        u = (x - 3.0) / width
        g = np.exp(-0.5 * u * u)
        bump = cat.make_profile("gauss_bump", width=width)
        for order in range(4):
            ref = (-1.0 / width) ** order * cat._hermite_he(order, u) * g
            assert bump.deriv(x, order).tobytes() == ref.tobytes()
