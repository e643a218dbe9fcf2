import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from layerft import catalog as cat
from layerft import operator as op
from layerft import transform as tr
from layerft.errors import (
    ConjugationViolated,
    GridTooCoarse,
    InvariantViolation,
    OutOfDomain,
    UnstableStep,
    WrongMode,
)
from layerft.gridfn import LayerSamples, PiecewiseGridFunction
from layerft.problem import Layer, ProblemConfig, dirichlet

from conftest import odd_gaussian_function


def test_fd_weights_reproduce_polynomial_derivatives():
    nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    w1 = op.fd_weights(0.0, nodes, 1)
    w2 = op.fd_weights(0.0, nodes, 2)
    for p in range(5):
        coeffs = np.zeros(5)
        coeffs[p] = 1.0
        poly = np.polynomial.Polynomial(coeffs)
        assert np.dot(w1, poly(nodes)) == pytest.approx(poly.deriv(1)(0.0), abs=1e-10)
        assert np.dot(w2, poly(nodes)) == pytest.approx(poly.deriv(2)(0.0), abs=1e-10)


def test_fd_weights_need_enough_nodes():
    with pytest.raises(GridTooCoarse):
        op.fd_weights(0.0, np.array([0.0, 1.0]), 2)


def g2_config(g=0.5):
    return ProblemConfig(
        r=1, mode="semi-axis",
        layers=(Layer(left=0.0, right=np.inf, a2=np.eye(1), g2=g * np.eye(1)),),
        interfaces=(), boundary=dirichlet(1),
    )


def test_apply_b_exact_evaluator_path():
    cfg = g2_config(0.5)
    prof = cat.make_profile("sine_packet", center=4.0, width=1.2, wavenumber=2.0)
    from layerft.quadrature import QuadratureSpec

    spec = QuadratureSpec()
    f = cat.to_grid_function(prof, cfg, spec.x_max)
    bf = op.apply_B(cfg, f)
    xs = np.linspace(0.2, 8.0, 50)
    expected = prof.deriv(xs, 2) + 0.5 * prof.deriv(xs, 0)
    assert np.max(np.abs(bf.values_on(0, xs)[:, 0] - expected[:])) <= 1e-12


def test_apply_b_stencil_path_matches_exact():
    cfg = g2_config(0.3)
    prof = cat.make_profile("sine_packet", center=4.0, width=1.2, wavenumber=2.0)
    xs = np.linspace(0.0, 12.0, 481)
    sampled = PiecewiseGridFunction(
        layers=[LayerSamples(x=xs, values=prof(xs).astype(complex)[:, None])],
    )
    bf = op.apply_B(cfg, sampled)
    expected = prof.deriv(xs, 2) + 0.3 * prof(xs)
    assert np.max(np.abs(bf.layers[0].values[:, 0] - expected)) <= 1e-4
    # one-sided junction traces come from the same stencil machinery
    assert bf.has_trace(0, "right", 0) and bf.has_trace(0, "right", 1)


@pytest.mark.parametrize("name", ["threelayer_r2", "r2diag"])
def test_apply_b_sampled_traces_converge_to_exact(load, name):
    # stencil traces approach the exact ones at l_0 and on both sides of every junction
    cfg, spec = load(name)
    gaps = []
    for n in (401, 1601):
        f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max, samples_per_layer=n)
        exact = op.apply_B(cfg, f).traces
        sampled = op.apply_B(cfg, PiecewiseGridFunction(layers=f.layers)).traces
        assert sorted(sampled) == sorted(exact)
        gaps.append({key: np.max(np.abs(sampled[key] - exact[key])) for key in exact})
    assert len(gaps[0]) == 2 * cfg.n_layers - 1
    for key, coarse in gaps[0].items():
        assert gaps[1][key] <= coarse / 4, key


@pytest.mark.parametrize("name", ["threelayer_r2", "r2diag"])
def test_apply_b_evaluator_routes_by_layer(load, name):
    cfg, spec = load(name)
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    bf = op.apply_B(cfg, f)
    for k in range(1, cfg.n_layers):
        at = bf.evaluator([cfg.junction(k)])[0]
        right, left = bf.traces[(k, "right")][0], bf.traces[(k, "left")][0]
        assert np.max(np.abs(at - bf.layers[k].values[0])) <= 1e-14 * np.max(np.abs(at))
        assert np.max(np.abs(at - right)) <= 1e-14 * np.max(np.abs(at))
        assert np.max(np.abs(at - left)) >= 1e-3 * np.max(np.abs(at))   # a2 jumps at l_k
    with pytest.raises(OutOfDomain):
        bf.evaluator([cfg.left_end - 0.1])


def test_identity_two_layer_bump(load):
    cfg, spec = load("twolayer")
    f = cat.to_grid_function(cat.make_profile("poly_cutoff"), cfg, spec.x_max)
    rep = op.verify_basic_identity(cfg, f, spec)
    assert rep.max_residual(10.0) <= 1e-5
    assert rep.n_flagged == 0


def test_identity_boundary_brace_ablation(load):
    cfg, spec = load("sine")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.8, width=0.5), cfg, spec.x_max)
    assert op.verify_basic_identity(cfg, f, spec).max_residual(10.0) <= 1e-5
    rep = op.verify_basic_identity(cfg, f, spec, include_boundary_term=False)
    assert rep.max_residual(10.0) >= 1e-1


def test_identity_rejects_incompatible_function(load):
    # flux continuity fails for a bump with nonzero slope at the junction
    cfg, spec = load("twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=2.0, width=0.5), cfg, spec.x_max)
    with pytest.raises(ConjugationViolated):
        op.verify_basic_identity(cfg, f, spec)


def test_lambda_split_residuals_structure(load):
    cfg, spec = load("lambda_interface")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=1.0, width=0.4), cfg, spec.x_max)
    res = op.lambda_split_residuals(cfg, f)
    assert max(res["junction_value"]) <= 1e-10
    assert max(res["junction_lam2"]) <= 1e-10
    assert res["boundary_value"] == pytest.approx(np.exp(-1.0 / 0.32), rel=1e-6)


def test_heat_single_layer_closed_form(load):
    cfg, spec = load("sine")
    f0 = odd_gaussian_function()
    t = 0.1
    xs = f0.layers[0].x
    u = op.solve_heat(cfg, f0, t, [xs], spec)
    s2 = 1 + 2 * t
    oracle = s2**-1.5 * xs * np.exp(-(xs**2) / (2 * s2))
    assert np.max(np.abs(u.layers[0].values[:, 0] - oracle)) <= 1e-4


def test_heat_semigroup_in_image_space(load):
    cfg, spec = load("sine")
    spec = dataclasses.replace(spec, lambda_steps=200, lambda_max=12.0)
    f0 = odd_gaussian_function()
    img = tr.forward_transform(cfg, f0, spec)
    twice = op.heat_image(op.heat_image(img, 0.03), 0.07)
    direct = op.heat_image(img, 0.10)
    assert np.max(np.abs(twice.values - direct.values)) <= 1e-8
    assert twice.meta["heat_time"] == pytest.approx(0.10)


def test_heat_rejects_negative_time(load):
    cfg, spec = load("sine")
    f0 = odd_gaussian_function()
    with pytest.raises(InvariantViolation):
        op.solve_heat(cfg, f0, -0.1, [np.linspace(0, 3, 5)], spec)


def test_heat_requires_compatible_data(load):
    cfg, spec = load("twolayer")
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump", center=2.0, width=0.5), cfg, spec.x_max)
    with pytest.raises(ConjugationViolated):
        op.solve_heat(cfg, f0, 0.05, [np.linspace(0, 3, 5)], spec)


def test_two_layer_heat_vs_fd_oracle(load):
    cfg, spec = load("twolayer")
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump", center=3.2, width=0.38), cfg, spec.x_max)
    t = 0.05
    fd = op.fd_reference(cfg, f0, t, 0.01, 2.5e-5, x_max=spec.x_max)
    pts = [ls.x for ls in fd.layers]
    u = op.solve_heat(cfg, f0, t, pts, spec)
    gap = max(
        np.max(np.abs(u.layers[m].values - fd.layers[m].values)) for m in range(2)
    )
    assert gap <= 1e-3


def test_fd_reference_second_order_in_space(load):
    cfg, spec = load("sine")
    f0 = odd_gaussian_function()
    t = 0.02
    s2 = 1 + 2 * t

    def err(dx):
        fd = op.fd_reference(cfg, f0, t, dx, 5e-6, x_max=8.0)
        xs = fd.layers[0].x
        oracle = s2**-1.5 * xs * np.exp(-(xs**2) / (2 * s2))
        return np.max(np.abs(fd.layers[0].values[:, 0] - oracle))

    e1, e2 = err(0.08), err(0.04)
    assert 2.5 <= e1 / e2 <= 6.0


def test_fd_reference_gates(load):
    cfg, spec = load("sine")
    f0 = odd_gaussian_function()
    with pytest.raises(UnstableStep):
        op.fd_reference(cfg, f0, 0.05, 0.01, 1e-3, x_max=8.0)

    cfg_lam, _ = load("lambda_interface")
    f1 = cat.to_grid_function(cat.make_profile("poly_cutoff"), cfg_lam, 12.0)
    with pytest.raises(InvariantViolation):
        op.fd_reference(cfg_lam, f1, 0.05, 0.01, 2.5e-5, x_max=12.0)

    cfg_axis, _ = load("fullaxis")
    f2 = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg_axis, 12.0)
    with pytest.raises(WrongMode):
        op.fd_reference(cfg_axis, f2, 0.05, 0.01, 2.5e-5, x_max=12.0)


def entrywise_fd(config, f0, t, dx, dt, x_max):
    """The Crank-Nicolson oracle assembled entry by entry into dense matrices."""
    r = config.r
    n_steps = max(1, math.ceil(t / dt - 1e-12))
    half = 0.5 * t / n_steps
    grids = []
    for layer in config.layers:
        b = min(layer.right, x_max)
        grids.append(np.linspace(layer.left, b, max(4, int(round((b - layer.left) / dx)) + 1)))
    offsets = np.cumsum([0] + [g.size for g in grids])
    im = np.zeros((offsets[-1] * r, offsets[-1] * r), dtype=complex)
    ex = np.zeros_like(im)

    def d1(m, at_start):
        """One-sided second-order first derivative at an end of layer m: (node, weight)."""
        h = grids[m][1] - grids[m][0]
        if at_start:
            return [(offsets[m], -3.0 / (2 * h)), (offsets[m] + 1, 4.0 / (2 * h)),
                    (offsets[m] + 2, -1.0 / (2 * h))]
        end = offsets[m + 1] - 1
        return [(end, 3.0 / (2 * h)), (end - 1, -4.0 / (2 * h)), (end - 2, 1.0 / (2 * h))]

    def put(row, node, vec):
        im[row, node * r:(node + 1) * r] += vec

    for m, layer in enumerate(config.layers):
        h = grids[m][1] - grids[m][0]
        for i in range(offsets[m] + 1, offsets[m + 1] - 1):
            for a in range(r):
                im[i * r + a, i * r + a] += 1.0
                ex[i * r + a, i * r + a] += 1.0
                for node, w in ((i - 1, 1.0 / h**2), (i, -2.0 / h**2), (i + 1, 1.0 / h**2)):
                    for b in range(r):
                        v = half * (w * layer.a2[a, b] + (node == i) * layer.g2[a, b])
                        im[i * r + a, node * r + b] -= v
                        ex[i * r + a, node * r + b] += v
    bnd = config.boundary
    for i in range(r):
        put(i, 0, bnd.beta0[i])
        for node, w in d1(0, True):
            put(i, node, w * bnd.alpha0[i])
    for k in range(1, config.n_layers):
        b1 = config.interfaces[k - 1].lambda_free_part(1)
        b2 = config.interfaces[k - 1].lambda_free_part(2)
        left, right = offsets[k] - 1, offsets[k]
        for j, target in enumerate((left, right)):
            for i in range(r):
                row, c = target * r + i, j * r + i
                put(row, left, b1[c, :r])
                put(row, right, -b2[c, :r])
                for node, w in d1(k - 1, False):
                    put(row, node, w * b1[c, r:])
                for node, w in d1(k, True):
                    put(row, node, -w * b2[c, r:])
    last = offsets[-1] - 1
    for i in range(r):
        im[last * r + i, last * r + i] = 1.0
    lu = lu_factor(im)
    u = np.concatenate([f0.values_on(m, g).ravel() for m, g in enumerate(grids)])
    for _ in range(n_steps):
        u = lu_solve(lu, ex @ u)
    return u


@pytest.mark.parametrize("name", ["r2diag", "threelayer_r2"])
def test_fd_reference_matches_entrywise_assembly(load, name):
    cfg, _spec = load(name)
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump", center=2.0, width=0.5), cfg, 5.0,
                              amplitudes=[1.0, 0.7])
    args = (0.01, 0.05, 5e-4, 5.0)
    fd = op.fd_reference(cfg, f0, *args)
    got = np.concatenate([ls.values.ravel() for ls in fd.layers])
    ref = entrywise_fd(cfg, f0, *args)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fd_reference_default_step_is_just_under_the_bound(load):
    cfg, _ = load("sine")
    f0 = odd_gaussian_function()
    dx = 0.08
    eigmax = max(float(np.max(np.linalg.eigvalsh(layer.a2).real)) for layer in cfg.layers)
    explicit = op.fd_reference(cfg, f0, 0.02, dx, 0.999 * dx * dx / (2.0 * eigmax), x_max=8.0)
    default = op.fd_reference(cfg, f0, 0.02, dx, x_max=8.0)
    assert default.meta == explicit.meta
    assert np.array_equal(default.layers[0].values, explicit.layers[0].values)


def test_fd_reference_complex_coefficients_match_entrywise_assembly(load):
    # a complex Hermitian a2 on the first layer takes the oracle's complex path
    cfg, _spec = load("r2diag")
    a2 = np.array([[1.0, 0.3j], [-0.3j, 2.0]])
    cfg = dataclasses.replace(cfg, layers=(dataclasses.replace(cfg.layers[0], a2=a2),
                                           *cfg.layers[1:]))
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump", center=2.0, width=0.5), cfg, 5.0,
                              amplitudes=[1.0, 0.7])
    args = (0.01, 0.05, 5e-4, 5.0)
    fd = op.fd_reference(cfg, f0, *args)
    got = np.concatenate([ls.values.ravel() for ls in fd.layers])
    ref = entrywise_fd(cfg, f0, *args)
    assert np.max(np.abs(ref.imag)) > 1e-3 * np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fd_reference_is_linear_over_complex_data(load):
    # real data runs in real arithmetic, complex data in complex: both must agree
    cfg, _spec = load("r2diag")
    c = 1 + 0.5j
    bump = cat.make_profile("gauss_bump", center=2.0, width=0.5)
    args = (0.01, 0.05, 5e-4, 5.0)
    real = op.fd_reference(cfg, cat.to_grid_function(bump, cfg, 5.0, amplitudes=[1.0, 0.7]),
                           *args)
    scaled = op.fd_reference(cfg, cat.to_grid_function(bump, cfg, 5.0,
                                                       amplitudes=[c, 0.7 * c]), *args)
    ref = np.concatenate([c * ls.values.ravel() for ls in real.layers])
    got = np.concatenate([ls.values.ravel() for ls in scaled.layers])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fd_reference_returns_complex_values_on_a_real_problem(load):
    cfg, _spec = load("twolayer")
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump", center=3.2, width=0.38), cfg, 5.0)
    fd = op.fd_reference(cfg, f0, 0.01, 0.05, 5e-4, 5.0)
    assert all(ls.values.dtype == complex for ls in fd.layers)
