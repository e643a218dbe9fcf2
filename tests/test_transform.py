import dataclasses
import time

import numpy as np
import pytest

from layerft import basis as bas
from layerft import catalog as cat
from layerft import operator as op
from layerft import quadrature as quad
from layerft import radial as rad
from layerft import transform as tr
from layerft.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyImage,
    InvariantViolation,
    MissingTraces,
    NonConvergentTail,
    OutOfDomain,
    RegularityViolation,
)
from layerft.gridfn import (
    LayerSamples,
    PiecewiseGridFunction,
    read_function_csv,
    read_image_csv,
    write_function_csv,
    write_image_csv,
)
from layerft.problem import Interface, Layer, ProblemConfig, dirichlet
from layerft.quadrature import QuadratureSpec, lambda_grid, neville_to_zero

from conftest import CONFIG_DIR, by_layer, odd_gaussian_function

# every bundled config whose transform runs (singular.cfg flags every point)
BUNDLED = sorted(p.stem for p in CONFIG_DIR.glob("*.cfg") if p.stem != "singular")


def geometry_case(load, geometry):
    """(config, spec, f, window) for one geometry of the transform pair."""
    if geometry == "semi-axis":
        cfg, spec = load("sine")
        return cfg, spec, odd_gaussian_function(), (0.0, 6.0)
    cfg, spec = load("fullaxis_twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    return cfg, spec, f, (-6.0, 6.0)


def test_forward_matches_classical_sine_image(load):
    cfg, spec = load("sine")
    f = odd_gaussian_function()
    img = tr.forward_transform(cfg, f, spec)
    oracle = -np.sqrt(np.pi / 2) * np.exp(-img.lambdas**2 / 2)
    assert np.max(np.abs(img.values[:, 0] - oracle)) <= 1e-12


def test_roundtrip_single_layer(load):
    cfg, spec = load("sine")
    f = odd_gaussian_function()
    rep = tr.roundtrip_report(cfg, f, spec)
    assert rep.l2_total <= 1e-5
    assert rep.n_flagged == 0


@pytest.mark.parametrize("geometry", ["semi-axis", "full-axis"])
def test_inverse_requires_matching_grid(load, geometry):
    cfg, spec, f, (lo, hi) = geometry_case(load, geometry)
    img = tr.forward_transform(cfg, f, spec)
    clipped = dataclasses.replace(img, lambdas=img.lambdas[:-1], values=img.values[:-1])
    with pytest.raises(InvariantViolation):
        tr.inverse_transform(cfg, clipped, by_layer(cfg, np.linspace(lo, 5, 8)), spec)


@pytest.mark.parametrize("geometry", ["semi-axis", "full-axis"])
def test_inverse_takes_one_point_array_per_layer(load, geometry):
    cfg, spec, f, (lo, hi) = geometry_case(load, geometry)
    spec = dataclasses.replace(spec, lambda_max=8.0, lambda_steps=100)
    img = tr.forward_transform(cfg, f, spec)
    pts = by_layer(cfg, np.linspace(lo, hi, 9))
    tr.inverse_transform(cfg, img, pts, spec)
    # one array too few or too many, or a flat array of points, is not the per-layer form,
    # even when the flat array has one point per layer
    for wrong in (pts[1:], pts + [pts[0]], np.linspace(lo, hi, 9),
                  np.linspace(lo, hi, cfg.n_layers)):
        with pytest.raises(DimensionMismatch):
            tr.inverse_transform(cfg, img, wrong, spec)


def test_trace_rule_reads_only_the_traces_a_block_needs(load):
    # a reconstruction carries no traces: twolayer's lam-free junction reads none in the
    # forward, while lambda_interface's lam^2 terms and the split residuals need them
    cfg, spec = load("twolayer")
    spec = dataclasses.replace(spec, lambda_max=8.0, lambda_steps=100)
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    recon = tr.inverse_transform(cfg, tr.forward_transform(cfg, f, spec),
                                 [ls.x for ls in f.layers], spec)
    assert not recon.traces
    assert np.isfinite(tr.forward_transform(cfg, recon, spec).values).all()
    with pytest.raises(MissingTraces):
        op.lambda_split_residuals(cfg, recon)
    lam_cfg, _ = load("lambda_interface")
    assert lam_cfg.junctions == cfg.junctions
    with pytest.raises(MissingTraces, match="junction 1"):
        tr.forward_transform(lam_cfg, recon, spec)


def test_non_finite_evaluation_points_are_refused_before_any_contraction(load, monkeypatch):
    cfg, spec = load("twolayer")
    spec = dataclasses.replace(spec, lambda_max=8.0, lambda_steps=100)
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec)

    def contracted(*args):
        raise AssertionError("contraction ran")

    monkeypatch.setattr(tr, "_damped_sums", contracted)
    for first in ([np.nan], [0.2, np.nan, 0.5]):
        with pytest.raises(OutOfDomain, match="layer 0"):
            tr.inverse_transform(cfg, img, [np.array(first), np.array([2.0])], spec)


def test_forward_on_explicit_lambda_grid(load):
    cfg, spec = load("sine")
    f = odd_gaussian_function()
    lams = np.array([0.5, 1.0, 2.0, 4.0])
    img = tr.forward_transform(cfg, f, spec, lambdas=lams)
    oracle = -np.sqrt(np.pi / 2) * np.exp(-(lams**2) / 2)
    assert np.max(np.abs(img.values[:, 0] - oracle)) <= 1e-12
    with pytest.raises(InvariantViolation):
        tr.inverse_transform(cfg, img, [np.linspace(0, 5, 8)], spec)
    with pytest.raises(InvariantViolation):
        tr.forward_transform(cfg, f, spec, lambdas=np.array([-1.0, 2.0]))


def test_lambda_dependent_interface_equals_ideal_contact(load):
    # both value-row sides carry the same (1 + c lam^2) factor, so kernels,
    # corrections, and hence images must coincide with plain ideal contact
    cfg_a, spec = load("twolayer")
    cfg_b, _ = load("lambda_interface")
    prof = cat.make_profile("gauss_bump", center=1.0, width=0.4)
    fa = cat.to_grid_function(prof, cfg_a, spec.x_max)
    fb = cat.to_grid_function(prof, cfg_b, spec.x_max)
    ia = tr.forward_transform(cfg_a, fa, spec)
    ib = tr.forward_transform(cfg_b, fb, spec)
    assert np.array_equal(ia.lambdas, ib.lambdas)
    assert np.max(np.abs(ia.values - ib.values)) <= 1e-11


def test_positive_g2_inverts_on_its_spectral_band():
    # with g2 > 0 the operator's spectrum extends above zero; the transform
    # pair represents exactly the part below it, so inverse(forward(f))
    # equals f minus the classical low-wavenumber band mu in (0, sqrt(g)).
    g = 0.5
    cfg = ProblemConfig(
        r=1, mode="semi-axis",
        layers=(Layer(left=0.0, right=np.inf, a2=np.eye(1), g2=g * np.eye(1)),),
        interfaces=(), boundary=dirichlet(1),
    )
    from layerft.quadrature import QuadratureSpec

    spec = QuadratureSpec()
    f = cat.to_grid_function(cat.make_profile("poly_cutoff", left=2.0, right=5.0), cfg, spec.x_max)
    xs = f.layers[0].x
    vals = f.layers[0].values[:, 0].real
    img = tr.forward_transform(cfg, f, spec)
    recon = tr.inverse_transform(cfg, img, [xs], spec).layers[0].values[:, 0]

    mus = np.linspace(0.0, np.sqrt(g), 2001)
    sine_coef = np.array([np.trapezoid(np.sin(mu * xs) * vals, xs) for mu in mus])
    band = (2 / np.pi) * np.trapezoid(np.sin(np.outer(xs, mus)) * sine_coef, mus, axis=1)
    assert np.max(np.abs(recon - vals)) > 1e-2          # projection alone falls short
    assert np.max(np.abs(recon + band - vals)) <= 1e-4  # band completes it


def singular_at_two(load):
    """twolayer with a value row scaled by (1 - lam^2/4) on both sides: degenerate at lam = 2."""
    cfg_t, spec = load("twolayer")
    blocks = {n: np.zeros((1, 1)) for n in Interface.BLOCK_NAMES}
    blocks.update(
        beta11=np.eye(1), beta12=np.eye(1),
        gamma11=-0.25 * np.eye(1), gamma12=-0.25 * np.eye(1),
        alpha21=np.eye(1), alpha22=2.0 * np.eye(1),
    )
    return dataclasses.replace(cfg_t, interfaces=(Interface(**blocks),)), spec


def test_flagged_rows_are_dropped_by_inverse(load):
    cfg, spec = singular_at_two(load)
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=1.0, width=0.4), cfg, spec.x_max)
    lams = np.array([1.0, 2.0, 3.0, 4.0])
    img = tr.forward_transform(cfg, f, spec, lambdas=lams)
    assert [entry[0] for entry in img.meta["flagged"]] == [1]
    assert "singular" in img.meta["flagged"][0][2]
    assert np.all(np.isnan(img.values[1].real))
    assert not np.any(np.isnan(np.delete(img.values, 1, axis=0).real))


def test_batch_flags_singular_point_without_raising(load):
    # the exactly singular pencil at lam = 2 is masked before the stacked solves
    cfg, _ = singular_at_two(load)
    batch = bas.build_batch(cfg, [1.0, 2.0, 3.0, 4.0])
    assert list(batch.flags) == [1]
    assert isinstance(batch.flags[1], RegularityViolation)
    assert "singular" in str(batch.flags[1])
    for i in (0, 2, 3):
        b = bas.build_basis(cfg, batch.lam[i])
        assert np.allclose(batch.phi0_inv[i], b.phi0_inv, rtol=1e-13, atol=0.0)


def test_all_flagged_reraises(load):
    cfg, spec = load("singular")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    with pytest.raises(RegularityViolation):
        tr.forward_transform(cfg, f, spec)


@pytest.mark.parametrize("name", BUNDLED)
def test_one_pair_and_one_builder_serve_every_geometry(load, name):
    # the same calls on both geometries: config.mode alone picks the kernels
    cfg, spec = load(name)
    spec = dataclasses.replace(spec, lambda_max=8.0, lambda_steps=80)
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    kind, branches = ((bas.SpectralBasisBatch, cfg.r) if cfg.mode == "semi-axis"
                      else (bas.AxisBatch, 2))
    assert bas.branch_count(cfg) == branches
    img = tr.forward_transform(cfg, f, spec)
    assert type(img.basis) is kind and img.k == branches
    window = [ls.x[np.abs(ls.x) <= spec.x_max] for ls in f.layers]
    recon = tr.inverse_transform(cfg, img, window, spec)
    for ls, xs in zip(recon.layers, window):
        assert ls.values.shape == (xs.size, cfg.r) and np.all(np.isfinite(ls.values))
    b = bas.build_basis(cfg, 1.3)
    assert type(b) is kind and b.flags == {} and b.lam == 1.3
    one = np.array([cfg.layers[0].window(spec.x_max)[1]])
    assert bas.u_on_layer(b, 0, one).shape == (1, cfg.r, branches)
    # no points is an ordinary size: each kernel gives its empty block
    for kernel in (bas.u_on_layer, bas.u_star_on_layer, bas.w_on_layer):
        assert kernel(b, 0, np.empty(0)).shape == (0, *kernel(b, 0, one).shape[1:])


def test_component_count_mismatch_rejected(load):
    cfg, spec = load("r2diag")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), load("twolayer")[0], spec.x_max)
    with pytest.raises(DimensionMismatch):
        tr.forward_transform(cfg, f, spec)


@pytest.mark.parametrize("samples, message", [
    (np.empty(0), "layer 0 has no samples but values requested on "),
    (np.linspace(0.5, 1.0, 41), "layer 0 sampled on "),
])
def test_forward_refuses_samples_that_do_not_cover_a_layer(load, samples, message):
    # without an evaluator the samples of a layer must cover its quadrature window:
    # an empty layer is refused like a partly covered one, not read as zero data
    cfg, spec = load("twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    layers = [LayerSamples(x=samples, values=np.ones((samples.size, 1))), *f.layers[1:]]
    with pytest.raises(InvariantViolation, match=message):
        tr.forward_transform(cfg, PiecewiseGridFunction(layers=layers), spec)


def test_a_layer_past_x_max_has_no_samples_no_panels_and_no_points(load):
    # twolayer at x_max 0.5: its second layer, [1, inf), lies wholly past x_max
    cfg, spec = load("twolayer")
    spec = dataclasses.replace(spec, x_max=0.5, lambda_max=12.0, lambda_steps=400)
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.25, width=0.1), cfg,
                             spec.x_max)
    assert [ls.x.size for ls in f.layers] == [401, 0]
    assert [c.size for c, _, _ in quad.plan(cfg, spec).panels][1] == 0
    rep = tr.roundtrip_report(cfg, f, spec)
    assert np.all(np.isfinite(rep.reconstruction.layers[0].values))
    assert rep.reconstruction.layers[1].values.shape == (0, cfg.r)
    assert rep.per_layer_l2[1] == rep.per_layer_sup[1] == 0.0


def test_image_csv_roundtrip(tmp_path, load):
    cfg, spec = load("twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec, lambdas=np.linspace(0.5, 10, 40))
    path = tmp_path / "img.csv"
    write_image_csv(img, path)
    back = read_image_csv(path)
    assert np.array_equal(back.lambdas, img.lambdas)
    assert np.array_equal(back.values, img.values)


def test_function_csv_roundtrip_preserves_traces(tmp_path, load):
    cfg, spec = load("twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    path = tmp_path / "f.csv"
    write_function_csv(f, path, cfg)
    back = read_function_csv(path, cfg)
    assert back.n_layers == f.n_layers
    for m in range(f.n_layers):
        assert np.allclose(back.layers[m].x, f.layers[m].x)
        assert np.allclose(back.layers[m].values, f.layers[m].values)
    for key, arr in f.traces.items():
        assert np.allclose(back.traces[key], arr)


@pytest.mark.parametrize("n", [4, 5, 9, 201])
def test_sample_spline_matches_scipy_not_a_knot(n):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(n)
    for xs in (np.linspace(-1.0, 3.0, n), np.sort(rng.uniform(-1.0, 3.0, n))):
        values = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        f = PiecewiseGridFunction(layers=[LayerSamples(x=xs, values=values)])
        at = np.concatenate([xs, rng.uniform(xs[0], xs[-1], 200)])
        want = interpolate.CubicSpline(xs, values, axis=0)(at)
        assert np.max(np.abs(f.values_on(0, at) - want)) <= 1e-13 * np.max(np.abs(want))


def test_forward_matches_sine_image_on_coarse_grid(load):
    cfg, spec = load("sine")
    spec = dataclasses.replace(spec, lambda_steps=100, lambda_max=8.0)
    f = odd_gaussian_function()
    img = tr.forward_transform(cfg, f, spec)
    oracle = -np.sqrt(np.pi / 2) * np.exp(-img.lambdas**2 / 2)
    assert np.max(np.abs(img.values[:, 0] - oracle)) <= 1e-12


def test_canonical_lambda_grid_shape(load, monkeypatch):
    cfg, spec = load("twolayer")
    layout, layouts = quad._grid_layout, []
    monkeypatch.setattr(quad, "_grid_layout", lambda *a: layouts.append(layout(*a)) or layouts[-1])
    grid = lambda_grid(cfg, spec)
    n_panels, order = layouts[-1]
    assert grid.nodes.size == n_panels * order
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] > spec.lambda_min - 1e-12
    assert grid.nodes[-1] < spec.lambda_max
    # weights integrate a smooth function accurately on the window
    total = np.sum(grid.weights * np.exp(-grid.nodes))
    assert total == pytest.approx(np.exp(-spec.lambda_min) - np.exp(-spec.lambda_max), abs=1e-9)


def test_decayed_image_requires_nonnegative_time(load):
    cfg, spec = load("sine")
    f = odd_gaussian_function()
    img = tr.forward_transform(cfg, f, spec, lambdas=np.array([1.0, 2.0]))
    with pytest.raises(InvariantViolation):
        img.decayed(-0.1)


def test_empty_image_rejected(load):
    cfg, spec = load("sine")
    spec = dataclasses.replace(spec, lambda_steps=100, lambda_max=8.0)
    f = odd_gaussian_function()
    img = tr.forward_transform(cfg, f, spec)
    nan_img = dataclasses.replace(img, values=np.full_like(img.values, np.nan))
    with pytest.raises(EmptyImage):
        tr.inverse_transform(cfg, nan_img, [np.linspace(0, 3, 5)], spec)


@pytest.mark.parametrize("geometry", ["semi-axis", "full-axis"])
def test_inverse_reports_dropped_rows(load, geometry, tmp_path):
    cfg, spec, f, (lo, hi) = geometry_case(load, geometry)
    spec = dataclasses.replace(spec, lambda_steps=150, lambda_max=12.0)
    img = tr.forward_transform(cfg, f, spec)
    vals = img.values.copy()
    vals[7] = np.nan
    marked = dataclasses.replace(img, values=vals)
    xs = by_layer(cfg, np.linspace(lo, hi, 61))
    recon = tr.inverse_transform(cfg, marked, xs, spec)
    assert recon.meta["dropped_rows"] == [7]
    # one dropped quadrature node barely perturbs the reconstruction
    clean = tr.inverse_transform(cfg, img, xs, spec)
    for a, b in zip(recon.layers, clean.layers):
        assert np.max(np.abs(a.values - b.values), initial=0.0) <= 1e-2
    # the NaN-marked row survives the CSV codec: same dropped rows, same reconstruction
    write_image_csv(marked, tmp_path / "marked.csv")
    back = read_image_csv(tmp_path / "marked.csv")
    from_csv = tr.inverse_transform(cfg, back, xs, spec)
    assert from_csv.meta["dropped_rows"] == [7]
    for a, b in zip(from_csv.layers, recon.layers):
        assert np.array_equal(a.values, b.values)


def neville_reference(taus, values):
    """neville_to_zero as one table that keeps its second-to-last column's last entry."""
    taus = np.asarray(taus, dtype=float)
    m = taus.size
    table = [np.asarray(v, dtype=complex) for v in values]
    if m == 1:
        return table[0], np.full_like(table[0], np.nan, dtype=float)
    prev_first = None
    col = table
    for j in range(1, m):
        nxt = []
        for i in range(m - j):
            t_lo, t_hi = taus[i + j], taus[i]
            nxt.append((t_lo * col[i] - t_hi * col[i + 1]) / (t_lo - t_hi))
        if len(nxt) == 2:
            prev_first = nxt[1]
        col = nxt
    limit = col[0]
    if prev_first is None:          # m == 2
        prev_first = table[1]
    return limit, np.abs(limit - prev_first)


def test_neville_to_zero_matches_the_one_table_reference():
    rng = np.random.default_rng(7)
    schedules = [QuadratureSpec().tau_schedule]
    schedules += [np.sort(rng.uniform(1e-4, 1e-1, m))[::-1] for m in range(1, 6)]
    for taus in schedules:
        values = rng.standard_normal((len(taus), 4, 3)) + 1j * rng.standard_normal((len(taus), 4, 3))
        for got, want in zip(neville_to_zero(taus, values), neville_reference(taus, values)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["twolayer", "fullaxis_twolayer", "radial_n3"])
def test_tail_guard_raises_nonconvergent_tail(load, monkeypatch, case):
    # at this resolution successive damping levels differ by about 1e-2; a
    # tail tolerance far below that must trip the guard in every geometry
    if case == "radial_n3":
        spec = QuadratureSpec(lambda_max=10.0, lambda_steps=200)
        prof = rad.RadialProfile(n=3, fn=lambda rho: np.exp(-0.5 * rho**2), rho_max=30.0)
        img = rad.forward_nd_image(prof, spec)

        def invert(s):
            return rad.inverse_nd(img, s)
    else:
        cfg, spec = load(case)
        spec = dataclasses.replace(spec, lambda_max=10.0, lambda_steps=200)
        f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
        img = tr.forward_transform(cfg, f, spec)

        def invert(s):
            return tr.inverse_transform(cfg, img, by_layer(cfg, np.linspace(0.0, 4.0, 9)), s)

    invert(spec)
    monkeypatch.setattr(quad, "TAIL_TOLERANCE", 1e-12)
    with pytest.raises(NonConvergentTail):
        invert(spec)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(a))


@pytest.mark.parametrize("name", ["threelayer_r2", "fullaxis_twolayer"])
def test_results_independent_of_chunk_size(load, monkeypatch, name):
    # 1-point, 7-point and whole-array chunks of the spatial contraction
    cfg, spec = load(name)
    spec = dataclasses.replace(spec, lambda_max=8.0, lambda_steps=100)
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=1.5), cfg, spec.x_max)
    window = [ls.x[np.abs(ls.x) <= spec.x_max] for ls in f.layers]
    phases_per_point = 8 * lambda_grid(cfg, spec).nodes.size * cfg.r
    results = []
    for budget in (1, 7 * phases_per_point, 1 << 62):
        monkeypatch.setattr(tr, "_CHUNK_BYTES", budget)
        img = tr.forward_transform(cfg, f, spec)
        recons = [np.concatenate([ls.values for ls in tr.inverse_transform(
            cfg, img, window, spec).layers]) for _ in range(2)]
        # the second inversion runs on the phase tables the first one kept
        assert recons[1].tobytes() == recons[0].tobytes()
        results.append((img.values, recons[0]))
    for img, rec in results[:2]:
        assert _rel(results[2][0], img) <= 1e-13
        assert _rel(results[2][1], rec) <= 1e-13


@pytest.mark.parametrize("name", ["sine", "fullaxis_twolayer"])
@pytest.mark.parametrize("update", [{"lambda_steps": 10**9}, {"x_max": 1e12}])
def test_oversized_transform_fails_fast(load, name, update):
    # refused from the spec alone, before any grid or kernel is built
    cfg, spec = load(name)
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, dataclasses.replace(spec, lambda_max=4.0, lambda_steps=40))
    huge = dataclasses.replace(spec, **update)
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="exceeds the limit"):
        tr.forward_transform(cfg, f, huge)
    with pytest.raises(ConfigError, match="exceeds the limit"):
        tr.inverse_transform(cfg, img, by_layer(cfg, np.linspace(0.0, 4.0, 201)), huge)
    assert time.perf_counter() - t0 < 1.0
