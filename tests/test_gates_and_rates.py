"""The regularity gates decide by the inverse screen, and a transform computes its band-edge
rates once; both leave every outcome as the exact rcond gates and the per-function rates
gave it.  Each gated block is inverted once, by its gate, and every product with its inverse
uses that one: nothing solves."""

import dataclasses

import numpy as np
import pytest

from layerft import basis as bas
from layerft import catalog as cat
from layerft import cli
from layerft import linalg as la
from layerft import quadrature as quad
from layerft import transform as tr
from layerft.errors import RegularityViolation, SizeLimitExceeded

from conftest import config_path, run_cli
from test_transform import singular_at_two

PERFBENCH_SPEC = {"lambda_max": 12.0, "lambda_steps": 400}

# (n_panels, order, xi panels per layer) of the quadrature plan at the default spec and at
# PERFBENCH_SPEC, as computed when every function took its own band-edge wavenumbers
LAYOUTS = {
    "fullaxis": [(612, 3, (306,)), (184, 2, (92,))],
    "fullaxis_twolayer": [(612, 3, (160, 98)), (184, 2, (48, 30))],
    "lambda_interface": [(612, 3, (13, 100)), (184, 2, (4, 30))],
    "r2diag": [(684, 3, (13, 157)), (205, 2, (4, 47))],
    "sine": [(612, 3, (153,)), (184, 2, (46,))],
    "singular": [(612, 3, (13, 100)), (184, 2, (4, 30))],
    "threelayer_r2": [(671, 3, (14, 16, 137)), (202, 2, (4, 5, 42))],
    "twolayer": [(612, 3, (13, 100)), (184, 2, (4, 30))],
}


def counter(monkeypatch, module, name):
    """Count the calls of module.name, as tests/test_image_basis.py counts _build_families."""
    count = [0]
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


def perfbench_case(load, name="threelayer_r2"):
    cfg, spec = load(name)
    spec = dataclasses.replace(spec, **PERFBENCH_SPEC)
    f = cat.to_grid_function(cat.parse_profile("gauss_bump"), cfg, spec.x_max)
    pts = [ls.x[np.abs(ls.x) <= spec.x_max] for ls in f.layers]
    return cfg, spec, f, pts


# --- the screened gates -------------------------------------------------------------------


def test_singular_cfg_exits_4_naming_the_first_node(load, tmp_path):
    cfg, spec = load("singular")
    first = quad.lambda_grid(cfg, spec).nodes[0]
    r = run_cli("forward", "--config", config_path("singular"), "--input", "gauss_bump",
                "--output", str(tmp_path / "o.csv"))
    assert r.returncode == 4
    assert r.stderr == ("error: every spectral point is degenerate; first: RegularityViolation: "
                        f"junction 1: right-side condition block M_2({first}) is singular\n")


def test_exactly_singular_pencil_keeps_its_flag_and_text(load):
    cfg, spec = singular_at_two(load)
    text = "junction 1: right-side condition block M_2(2.0) is singular"
    batch = bas.build_batch(cfg, [1.0, 2.0, 3.0, 4.0])
    assert list(batch.flags) == [1] and str(batch.flags[1]) == text
    assert batch.phi0_inv[1].tobytes() == np.eye(1, dtype=complex).tobytes()
    # the boundary functional of the Phi family, as build_batch computes it
    phi0 = bas._matmul(batch.bnd_row, bas._omega_stack(batch.layers[0], cfg.left_end, cfg.r))
    for i in (0, 2, 3):
        assert batch.phi0_inv[i].tobytes() == np.linalg.inv(phi0[i, :, :cfg.r]).tobytes()
    with pytest.raises(RegularityViolation) as exc:
        bas.build_basis(cfg, 2.0)
    assert str(exc.value) == text
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=1.0, width=0.4), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec, lambdas=np.array([1.0, 2.0, 3.0, 4.0]))
    assert img.meta["flagged"] == [(1, 2.0, f"RegularityViolation: {text}")]


def test_a_regular_transform_pair_runs_no_svd(load, monkeypatch):
    cfg, spec, f, pts = perfbench_case(load)
    svds = counter(monkeypatch, la, "rcond")
    image = tr.forward_transform(cfg, f, spec)
    tr.inverse_transform(cfg, image, pts, spec)
    tr.inverse_transform(cfg, dataclasses.replace(image, basis=None), pts, spec)
    assert image.meta["flagged"] == [] and svds[0] == 0


# --- dual families once per batch ---------------------------------------------------------


def test_dual_diagnostics_reuse_the_forward_dual_families(load, monkeypatch):
    cfg, spec, f, _ = perfbench_case(load)
    builds = counter(monkeypatch, bas, "dual_families")
    batch = tr.forward_transform(cfg, f, spec).basis
    assert builds[0] == 1
    fresh = bas.build_batch(cfg, batch.lam)
    for k in range(1, cfg.n_layers):
        assert np.array_equal(bas.junction_residual_dual(batch, k),
                              bas.junction_residual_dual(fresh, k))
    assert np.array_equal(bas.dual_boundary_residual(batch), bas.dual_boundary_residual(fresh))
    assert np.array_equal(bas.u_star_on_layer(batch, 2, 5.0), bas.u_star_on_layer(fresh, 2, 5.0))
    assert builds[0] == 2                                 # the fresh batch's, once
    view = batch.at(7)
    assert np.array_equal(bas.w_on_layer(view, 0, 0.3), bas.w_on_layer(batch, 0, 0.3)[7])
    assert builds[0] == 3                                 # a view builds its own


# --- one band-edge pass -------------------------------------------------------------------


def test_a_transform_computes_each_band_edge_wavenumber_once(load, monkeypatch):
    calls = counter(monkeypatch, bas, "compute_wavenumber")
    for name, materials in (("threelayer_r2", 3), ("laminate", 2)):     # 20 layers, 2 materials
        cfg, spec, f, pts = perfbench_case(load, name)
        rates = [np.linalg.norm(bas.compute_wavenumber(layer, spec.lambda_max), 2)
                 for layer in cfg.layers]
        calls[0] = 0
        assert quad.band_edge_rates(cfg, spec) == rates        # one per material, bit for bit
        assert calls[0] == materials
        image = tr.forward_transform(cfg, f, spec)
        assert calls[0] == 2 * materials
        tr.inverse_transform(cfg, image, pts, spec)
        assert calls[0] == 3 * materials
        tr.inverse_transform(cfg, dataclasses.replace(image, basis=None), pts, spec)
        assert calls[0] == 4 * materials


def test_cli_forward_computes_the_band_edge_twice(load, monkeypatch, tmp_path):
    cfg, _ = load("threelayer_r2")
    calls = counter(monkeypatch, bas, "compute_wavenumber")
    assert cli.main(["forward", "--config", config_path("threelayer_r2"), "--input", "gauss_bump",
                     "--output", str(tmp_path / "img.csv"), "--lambda-max", "12",
                     "--lambda-steps", "400"]) == 0
    assert calls[0] == 2 * cfg.n_layers                  # the CLI's size check, the transform


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_grid_rules_and_size_check_keep_their_layout(load, monkeypatch, name):
    cfg, spec0 = load(name)
    layout, layouts = quad._grid_layout, []
    for spec, (n_panels, order, xi) in zip(
            (spec0, dataclasses.replace(spec0, **PERFBENCH_SPEC)), LAYOUTS[name]):
        monkeypatch.setattr(quad, "_grid_layout",
                            lambda *a: layouts.append(layout(*a)) or layouts[-1])
        grid, panels = quad.plan(cfg, spec)
        assert layouts[-1] == (n_panels, order)
        nodes, weights = quad.composite_gauss(spec.lambda_min, spec.lambda_max, n_panels, order)
        assert np.array_equal(grid.nodes, nodes) and np.array_equal(grid.weights, weights)
        assert np.array_equal(quad.lambda_grid(cfg, spec).nodes, grid.nodes)
        assert tuple(c.size for c, _, _ in panels) == xi
        # the size check passes up to the limit and refuses one point more, for an
        # explicit point count and for the default one, the xi nodes
        n_lambda = max(spec.lambda_steps, n_panels * order)
        n_ok = quad.MAX_TRANSFORM_SIZE // (n_lambda * cfg.r**2)
        quad.plan(cfg, spec, n_ok)
        with pytest.raises(SizeLimitExceeded):
            quad.plan(cfg, spec, n_ok + 1)
        default = n_lambda * sum(xi) * quad.PANEL_ORDER * cfg.r**2
        monkeypatch.setattr(quad, "MAX_TRANSFORM_SIZE", default)
        quad.plan(cfg, spec)
        monkeypatch.setattr(quad, "MAX_TRANSFORM_SIZE", default - 1)
        with pytest.raises(SizeLimitExceeded):
            quad.plan(cfg, spec)
        monkeypatch.undo()


# --- every gated block inverted once, by its gate -----------------------------------------


@pytest.mark.parametrize("name", ["threelayer_r2", "fullaxis_twolayer", "lambda_interface"])
def test_a_regular_transform_pair_runs_no_solve(load, monkeypatch, name):
    cfg, spec, f, pts = perfbench_case(load, name)
    solves = counter(monkeypatch, np.linalg, "solve")
    image = tr.forward_transform(cfg, f, spec)
    tr.inverse_transform(cfg, image, pts, spec)
    tr.inverse_transform(cfg, dataclasses.replace(image, basis=None), pts, spec)
    assert image.meta["flagged"] == [] and solves[0] == 0


def test_the_basis_and_its_table_run_no_solve(load, monkeypatch, tmp_path):
    cfg, _ = load("threelayer_r2")
    solves = counter(monkeypatch, np.linalg, "solve")
    b = bas.build_basis(cfg, 2.5)
    for k in range(1, cfg.n_layers):
        bas.junction_residual_dual(b, k)
    assert cli.main(["basis", "--config", config_path("threelayer_r2"), "--lambda", "2.5",
                     "--output", str(tmp_path / "kernels.csv")]) == 0
    assert solves[0] == 0


def test_the_lambda_sq_correction_is_added_to_the_driver_image(load):
    cfg, spec, f, _ = perfbench_case(load, "lambda_interface")
    # a value jump at the junction, which only the lam^2 correction sees
    f = dataclasses.replace(f, traces={**f.traces, (1, "left"): f.traces[1, "left"] + 0.5})
    image = tr.forward_transform(cfg, f, spec)
    driver = tr._spectral_forward(cfg, f, spec, None)
    bnd = cfg.boundary
    term = np.hstack([bnd.gamma0, bnd.delta0]) @ np.concatenate(
        [f.trace(0, "right", 0), f.trace(0, "right", 1)])
    for k, iface in enumerate(cfg.interfaces, start=1):
        fl, fr = (np.concatenate([f.trace(k, side, 0), f.trace(k, side, 1)])
                  for side in ("left", "right"))
        jump = iface.lambda_sq_part(2) @ fr - iface.lambda_sq_part(1) @ fl
        wk = bas.w_on_layer(driver.basis, k - 1, cfg.junction(k))
        m1 = driver.basis.pencils[k - 1][0]
        # w M_1^{-1} by a right division, as the correction was computed before
        v = np.linalg.solve(m1.swapaxes(-1, -2), wk.swapaxes(-1, -2)).swapaxes(-1, -2)
        term = term + v @ jump
    scale = np.max(np.abs(image.values))
    assert np.max(np.abs(term)) > 1e-3 * scale
    assert np.max(np.abs(image.values - (driver.values + term))) <= 1e-13 * scale


@pytest.mark.parametrize("name, calls", [("threelayer_r2", 0), ("lambda_interface", 1)])
def test_only_a_lambda_sq_junction_reads_the_row_function(load, monkeypatch, name, calls):
    cfg, spec, f, _ = perfbench_case(load, name)
    rows = counter(monkeypatch, bas, "row_function")
    tr.forward_transform(cfg, f, spec)
    assert rows[0] == calls


def test_the_batch_keeps_the_gate_inverses_of_its_pencils(load):
    cfg, spec, _, _ = perfbench_case(load)
    cases = [(bas.build_batch(cfg, quad.lambda_grid(cfg, spec).nodes[:40]), ()),
             (bas.build_batch(singular_at_two(load)[0], [1.0, 2.0, 3.0, 4.0]), (1,))]
    for batch, flagged in cases:
        assert sorted(batch.flags) == list(flagged)
        for pencils, inverses in zip(batch.pencils, batch.pencil_inv):
            for m, m_inv in zip(pencils, inverses):
                eye = np.eye(m.shape[-1], dtype=m.dtype)
                for i in range(batch.lam.size):
                    want = eye if i in flagged else np.linalg.inv(m[i])
                    assert m_inv[i].tobytes() == want.tobytes()
        view = batch.at(1)
        for inverses, at_view in zip(batch.pencil_inv, view.pencil_inv):
            assert all(np.array_equal(a[1], b) for a, b in zip(inverses, at_view))
