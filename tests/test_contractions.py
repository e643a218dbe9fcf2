"""The factored contractions of transform.py against their dense degenerate case.

_moments and _damped_sums evaluate e^{+-i mu s} at s = c_q + t_j as
e^{+-i mu c_q} e^{+-i mu t_j}.  Every point its own centre with offsets [0]
is the dense sum, the oracle of the transforms here; the contractions
themselves are checked against np.exp of every phase directly.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from layerft import basis as bas
from layerft import catalog as cat
from layerft import operator as op
from layerft import quadrature as quad
from layerft import transform as tr

from conftest import by_layer

CONFIGS = ["fullaxis", "fullaxis_twolayer", "lambda_interface", "laminate", "r2diag", "sine",
           "threelayer_r2", "twolayer"]


def dense(monkeypatch):
    """Make every contraction of the transforms take the degenerate (dense) form."""
    plan = quad.plan

    def point_panels(*args):
        grid, panels = plan(*args)
        return quad.Plan(grid, [(np.add.outer(c, t).ravel(), np.zeros(1), w.reshape(-1, 1))
                                for c, t, w in panels])

    monkeypatch.setattr(quad, "plan", point_panels)
    monkeypatch.setattr(tr, "_split", lambda xs, center: (xs - center, np.zeros(1)))


def pair(cfg, spec, f, window):
    img = tr.forward_transform(cfg, f, spec)
    recon = tr.inverse_transform(cfg, img, window, spec)
    return img.values, np.concatenate([ls.values for ls in recon.layers])


@pytest.mark.parametrize("name", CONFIGS)
def test_factored_transforms_match_the_dense_sums(load, monkeypatch, name):
    cfg, spec = load(name)
    spec = dataclasses.replace(spec, lambda_max=20.0, lambda_steps=600)
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=1.5), cfg, spec.x_max)
    window = [ls.x[np.abs(ls.x) <= spec.x_max] for ls in f.layers]
    split, offsets = tr._split, []
    monkeypatch.setattr(tr, "_split", lambda *a: offsets.append(split(*a)[1]) or split(*a))
    img, rec = pair(cfg, spec, f, window)
    assert all(o.size > 1 for o in offsets)         # every layer took the factored form
    dense(monkeypatch)
    img_dense, rec_dense = pair(cfg, spec, f, window)
    assert np.max(np.abs(img - img_dense)) <= 1e-13 * np.max(np.abs(img_dense))
    assert np.max(np.abs(rec - rec_dense)) <= 1e-13 * np.max(np.abs(rec_dense))


def test_non_progressions_take_the_dense_path(load):
    cfg, spec = load("twolayer")
    spec = dataclasses.replace(spec, lambda_max=10.0, lambda_steps=200)
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=1.5), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec)
    grid = np.linspace(0.0, 6.0, 121)
    full = tr.inverse_transform(cfg, img, by_layer(cfg, grid), spec)
    on_grid = np.concatenate([ls.values for ls in full.layers])
    union = np.union1d(grid[::4], grid[::6])
    for idx in (np.searchsorted(grid, union), [37], [37, 90]):
        pts = by_layer(cfg, grid[idx])
        for xs in pts:
            centres, offsets = tr._split(xs, 0.0)
            assert np.array_equal(offsets, [0.0]) and np.array_equal(centres, xs)
        sub = tr.inverse_transform(cfg, img, pts, spec)
        got = np.concatenate([ls.values for ls in sub.layers])
        assert np.max(np.abs(got - on_grid[idx])) <= 1e-13 * np.max(np.abs(on_grid))


def random_family(rng, mu, center, a=2, b=2, lam_free=False):
    """A Family of random coefficients; lam_free makes lp = lm one broadcast matrix."""
    n, rho = mu.shape

    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if lam_free:
        left = np.broadcast_to(c(a, rho), (n, a, rho))
        return bas.Family(mu, center, left, c(n, rho, b), left, c(n, rho, b))
    return bas.Family(mu, center, c(n, a, rho), c(n, rho, b), c(n, a, rho), c(n, rho, b))


# real mu takes the -mu phases as conjugates; evanescent channels mu = i|mu|,
# whose e^{+-i mu s} grow or decay across the points, exponentiate both signs
MU_KINDS = {"real": 1.0, "complex": 1j}


@pytest.mark.parametrize("kind", MU_KINDS)
def test_contractions_match_direct_exponential_sums(monkeypatch, kind):
    widths = []
    product = tr._real_product

    def recording(a, z):
        if a.ndim == 2:             # a block of centres against one channel
            widths.append(z.shape[-1])
        return product(a, z)

    monkeypatch.setattr(tr, "_real_product", recording)
    # lp != lm stacked over lam (the left factor before the lam sum), and lp = lm
    # one lam-free matrix (after it: the channel sums)
    for lam_free in (False, True):
        rng = np.random.default_rng(11)
        fam = random_family(rng, MU_KINDS[kind] * rng.uniform(0.5, 6.0, (9, 2)), center=0.5,
                            lam_free=lam_free)
        xs = np.linspace(-1.0, 2.0, 61)
        centres, offsets = tr._split(xs, fam.center)
        assert offsets.size > 1
        ep = np.exp(1j * np.multiply.outer(xs - fam.center, fam.mu))[..., None, :]
        em = np.exp(-1j * np.multiply.outer(xs - fam.center, fam.mu))[..., None, :]
        kernels = (fam.lp * ep) @ fam.rp + (fam.lm * em) @ fam.rm     # (Nx, N, a, b)

        g = rng.standard_normal((xs.size, 2)) + 0j
        padded = np.zeros((centres.size * offsets.size, 2), dtype=complex)
        padded[:xs.size] = g
        got = tr._moments(fam, centres, offsets,
                          padded.reshape(centres.size, offsets.size, 2))[0]
        want = np.einsum("xnab,xb->na", kernels, g)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        fhat = rng.standard_normal((9, 2)) + 0j
        damping = rng.uniform(0.5, 1.0, (3, 9))
        widths.clear()
        got = tr._damped_sums(fam, centres, offsets, fhat, damping)[:, :xs.size]
        want = np.einsum("tn,xnab,nb->txa", damping, kernels, fhat)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # a lam-free V leaves each channel's products its three damping levels
        # per offset, not a = 2 times that
        assert widths and set(widths) == {offsets.size * (3 if lam_free else 3 * 2)}
        # kept tables give the per-block phases bit for bit
        kept = tr._damped_sums(fam, centres, offsets, fhat, damping,
                               tr._kept_phases(fam, centres, offsets))[:, :xs.size]
        assert kept.tobytes() == got.tobytes()


@pytest.mark.parametrize("kind", MU_KINDS)
def test_exponential_count_of_each_contraction(monkeypatch, kind):
    # real mu: N rho (Q + J) exponentials per layer, plus N rho per end panel;
    # complex mu: twice that, one per sign
    rng = np.random.default_rng(5)
    fam = random_family(rng, MU_KINDS[kind] * rng.uniform(0.5, 6.0, (40, 2)), center=0.5)
    centres, offsets = tr._split(np.linspace(-1.0, 2.0, 61), fam.center)
    q, j = centres.size, offsets.size
    signs = 1 if kind == "real" else 2
    counted = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        out = exp(x, *args, **kwargs)
        counted.append(out.size)
        return out

    monkeypatch.setattr(np, "exp", counting_exp)
    tr._moments(fam, centres, offsets, np.ones((q, j, 2), dtype=complex), ends=[0, q - 1])
    assert sum(counted) == signs * fam.mu.size * (q + j + 2)
    counted.clear()
    tr._damped_sums(fam, centres, offsets, np.ones((40, 2), dtype=complex), np.ones((3, 40)))
    assert sum(counted) == signs * fam.mu.size * (q + j)
    # kept tables take the same count once, and a sum on them none
    counted.clear()
    tables = tr._kept_phases(fam, centres, offsets)
    assert sum(counted) == signs * fam.mu.size * (q + j)
    counted.clear()
    tr._damped_sums(fam, centres, offsets, np.ones((40, 2), dtype=complex), np.ones((3, 40)),
                    tables)
    assert tr._kept_phases(fam, centres, offsets) is not None and not counted


def test_decayed_inversions_exponentiate_once(load, monkeypatch):
    # the heat flow of r2diag at lambda_max 12 / 400 steps on the points of
    # its FD oracle (dx 0.01): N rho (Q + J) complex exponentials per layer
    # for four inversions, not 4x that (the damping's are real)
    cfg, spec = load("r2diag")
    spec = dataclasses.replace(spec, lambda_max=12.0, lambda_steps=400)
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump", center=3.5, width=0.38), cfg,
                              spec.x_max, amplitudes=[1.0, 0.7])
    fd = op.fd_reference(cfg, f0, 2.5e-5, 0.01, 2.5e-5, x_max=spec.x_max)
    pts = [ls.x for ls in fd.layers]
    image = tr.forward_transform(cfg, f0, spec)
    families = image.basis.primal
    splits = [tr._split(xs, fam.center) for xs, fam in zip(pts, families)]
    assert all(o.size > 1 for _, o in splits)
    counted = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        out = exp(x, *args, **kwargs)
        if np.iscomplexobj(out):
            counted.append(out.size)
        return out

    monkeypatch.setattr(np, "exp", counting_exp)
    for t in (0.01, 0.05, 0.2, 1.0):
        tr.inverse_transform(cfg, op.heat_image(image, t), pts, spec)
    assert sum(counted) == sum(fam.mu.size * (c.size + o.size)
                               for fam, (c, o) in zip(families, splits))


def test_complex_data_reconstruct_as_their_real_and_imaginary_parts(load):
    # the real products view complex right-hand sides as floats: the inverse of
    # data (1, 0.7j) is the inverse of its real part plus i times that of its
    # imaginary part, and a reused inversion equals a rebuilt one bit for bit
    cfg, spec = load("r2diag")
    spec = dataclasses.replace(spec, lambda_max=12.0, lambda_steps=400)
    pts = by_layer(cfg, np.linspace(0.0, 8.0, 401))
    bump = cat.make_profile("gauss_bump", center=3.5, width=0.38)

    def recon(amplitudes, rebuilt=False):
        f = cat.to_grid_function(bump, cfg, spec.x_max, amplitudes=amplitudes)
        image = tr.forward_transform(cfg, f, spec)
        if rebuilt:
            image = dataclasses.replace(image, basis=None)
        return np.concatenate([ls.values for ls in tr.inverse_transform(cfg, image, pts,
                                                                       spec).layers])

    whole = recon([1.0, 0.7j])
    parts = recon([1.0, 0.0]) + 1j * recon([0.0, 0.7])
    assert np.max(np.abs(whole - parts)) <= 1e-14 * np.max(np.abs(whole))
    assert np.max(np.abs(whole.imag)) > 0.1 * np.max(np.abs(whole))
    assert recon([1.0, 0.7j], rebuilt=True).tobytes() == whole.tobytes()


def test_kept_tables_are_one_slot_per_family(load):
    cfg, spec = load("twolayer")
    spec = dataclasses.replace(spec, lambda_max=10.0, lambda_steps=200)
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=1.5), cfg, spec.x_max)
    image = tr.forward_transform(cfg, f, spec)
    families = image.basis.primal
    assert all(fam.phases is None for fam in families)
    grid = np.linspace(0.0, 6.0, 121)
    for pts in (by_layer(cfg, grid), by_layer(cfg, grid[::2]), by_layer(cfg, grid)):
        tr.inverse_transform(cfg, image, pts, spec)
        for xs, fam in zip(pts, families):
            centres, offsets = tr._split(xs, fam.center)
            tables = fam.phases[1:]
            # exactly N rho Q complex centre phases, point first, and the offsets'
            # rotation rows, 4 N rho J floats: the last split's tables, not added
            # to the old
            n, rho = fam.mu.shape
            assert [t.shape for t in tables] == [(centres.size, rho, n),
                                                 (rho, n, 2 * offsets.size, 2)]
            assert [t.dtype for t in tables] == [complex, float]
    # a point set that is no progression keeps no table
    union = np.union1d(grid[::4], grid[::6])
    tr.inverse_transform(cfg, image, by_layer(cfg, union), spec)
    assert all(fam.phases is None for fam in families)
    # nor does a batch an inversion builds for itself
    tr.inverse_transform(cfg, dataclasses.replace(image, basis=None), by_layer(cfg, grid), spec)
    assert all(fam.phases is None for fam in families)


@pytest.mark.parametrize("direction", ["forward", "inverse", "inverse on kept tables",
                                       "inverse with a lam-free left factor"])
def test_work_arrays_stay_within_the_chunk_budget(monkeypatch, direction):
    rng = np.random.default_rng(3)
    fam = random_family(rng, rng.uniform(0.0, 12.0, (300, 2)), center=1.0,
                        lam_free=direction.endswith("factor"))
    centres, offsets = tr._split(np.linspace(0.0, 12.0, 1101), fam.center)
    g = rng.standard_normal((centres.size, offsets.size, 2)) + 0j
    fhat = rng.standard_normal((300, 2)) + 0j
    damping = rng.uniform(0.5, 1.0, (3, 300))
    tables = tr._kept_phases(fam, centres, offsets) if direction.endswith("tables") else None

    def extra_memory(budget):
        """Peak bytes a contraction allocates besides its result, at a budget."""
        monkeypatch.setattr(tr, "_CHUNK_BYTES", budget)
        tracemalloc.start()
        try:
            if direction == "forward":
                out = tr._moments(fam, centres, offsets, g, ends=[0])
            else:
                out = tr._damped_sums(fam, centres, offsets, fhat, damping, tables)
            return tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()

    budget = 1 << 15
    # the arrays of a block total the budget, plus a few small ones; kept
    # tables, allocated before, are the family's and not counted
    assert extra_memory(budget) <= 2 * budget
    # and unblocked, the same contraction needs far more
    assert extra_memory(1 << 40) > 20 * budget
