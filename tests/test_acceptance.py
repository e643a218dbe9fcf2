"""End-to-end acceptance checks.

Each test is one numbered criterion; the conftest summary hook prints a
PASS/FAIL line per criterion at the end of the run.  Tolerances here are
contractual — do not loosen them to make a failing build green.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from layerft import basis as bas
from layerft import catalog as cat
from layerft import linalg as la
from layerft import operator as op
from layerft import radial as rad
from layerft import transform as tr
from layerft.errors import (
    NonSquare,
    OverflowRisk,
    RegularityViolation,
    Singular,
    SpectrumOnCut,
)
from layerft.problem import Layer, ProblemConfig, dirichlet, ideal_contact
from layerft.quadrature import lambda_grid

from conftest import config_path, odd_gaussian_function, run_cli

SWEEP = np.linspace(0.1, 20.0, 40)


def test_criterion_01_classical_reduction(load):
    """single-layer kernels equal the sine pair; transform round trip <= 1e-5"""
    cfg, spec = load("sine")
    xs = np.linspace(0.0, 10.0, 50)
    for lam in np.linspace(0.1, 20.0, 50):
        b = bas.build_basis(cfg, lam)
        u = bas.u_on_layer(b, 0, xs)[:, 0, 0]
        us = bas.u_star_on_layer(b, 0, xs)[:, 0, 0]
        assert np.max(np.abs(u - 2j * np.sin(lam * xs))) <= 1e-10
        assert np.max(np.abs(us + np.sin(lam * xs) / lam)) <= 1e-10
    f = odd_gaussian_function()
    rep = tr.roundtrip_report(cfg, f, spec)
    assert rep.l2_total <= 1e-5


def _independent_family_residual(cfg, lam):
    """Rebuild Phi/Psi from the stored coefficients with scipy exponentials and
    measure the junction matching of the full fundamental matrix."""
    b = bas.build_basis(cfg, lam)
    r = cfg.r

    def omega(m, x):
        layer = cfg.layers[m]
        q = sla.sqrtm(np.linalg.inv(layer.a2) @ (lam**2 * np.eye(r) + layer.g2))
        c = b.layers[m].center
        cp, cm, dp, dm = b.coefficients(m)
        ep = sla.expm(1j * q * (x - c))
        em = sla.expm(-1j * q * (x - c))
        top = np.hstack([ep @ cp + em @ cm, ep @ dp + em @ dm])
        bot = np.hstack([
            1j * q @ (ep @ cp - em @ cm),
            1j * q @ (ep @ dp - em @ dm),
        ])
        return np.vstack([top, bot])

    worst = 0.0
    for k in range(1, cfg.n_interfaces + 1):
        lk = cfg.junction(k)
        iface = cfg.interfaces[k - 1]
        lhs = iface.pencil(1, lam) @ omega(k - 1, lk)
        rhs = iface.pencil(2, lam) @ omega(k, lk)
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
        worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
        worst = max(worst, bas.junction_residual_primal(b, k))
    return worst


def test_criterion_02_interface_recursion(load):
    """three-layer r=2 family and kernel junction residuals <= 1e-9 on the sweep"""
    cfg, _ = load("threelayer_r2")
    worst = max(_independent_family_residual(cfg, lam) for lam in SWEEP)
    assert worst <= 1e-9


def test_criterion_03_dual_kernel_conjugation(load):
    """dual kernel junction and boundary residuals <= 1e-9 on the sweep"""
    cfg, _ = load("threelayer_r2")
    worst = 0.0
    for lam in SWEEP:
        b = bas.build_basis(cfg, lam)
        for k in range(1, cfg.n_interfaces + 1):
            worst = max(worst, bas.junction_residual_dual(b, k))
        worst = max(worst, bas.dual_boundary_residual(b))
    assert worst <= 1e-9


def test_criterion_04_regularity_gate(load, tmp_path):
    """singular interface raises / exits 4; well-posed configs never trigger"""
    cfg, spec = load("singular")
    with pytest.raises(RegularityViolation) as exc:
        bas.build_basis(cfg, 1.0)
    assert exc.value.junction == 1

    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    with pytest.raises(RegularityViolation):
        tr.forward_transform(cfg, f, spec, lambdas=np.array([0.7, 1.9]))

    proc = run_cli(
        "forward", "--config", config_path("singular"), "--input", "gauss_bump",
        "--output", str(tmp_path / "img.csv"), "--lambda-steps", "50",
    )
    assert proc.returncode == 4

    for name in ("sine", "twolayer", "threelayer_r2", "r2diag", "lambda_interface"):
        well_posed, _ = load(name)
        for lam in SWEEP:
            bas.build_basis(well_posed, lam)


def _doubled(spec):
    # the spatial panel rules already resolve far below the spectral-grid and
    # damping errors, so refinement means: twice the lambda nodes, half tau
    return dataclasses.replace(
        spec,
        lambda_steps=2 * spec.lambda_steps,
        tau_schedule=tuple(t / 2 for t in spec.tau_schedule),
    )


def test_criterion_05_roundtrip_converges(load):
    """round trip <= 1e-3 at defaults and decreases under grid doubling"""
    for name, amps in (("twolayer", None), ("r2diag", [1.0, 0.7])):
        cfg, spec = load(name)
        f = cat.to_grid_function(
            cat.make_profile("gauss_bump"), cfg, spec.x_max,
            samples_per_layer=201, amplitudes=amps,
        )
        err = tr.roundtrip_report(cfg, f, spec).l2_total
        err_fine = tr.roundtrip_report(cfg, f, _doubled(spec)).l2_total
        assert err <= 1e-3, name
        assert err_fine < err, (name, err, err_fine)


def test_criterion_06_operational_identity(load):
    """image of Bf equals -lam^2 f-image plus boundary brace; brace is load-bearing"""
    cfg, spec = load("twolayer")
    # keep the default lambda_max: it sets the shared spatial panel width, and
    # Bf of the cutoff bump has a derivative kink that needs the fine panels.
    # Node density only changes which lambdas are reported, so trim that.
    spec = dataclasses.replace(spec, lambda_steps=600)
    f = cat.to_grid_function(cat.make_profile("poly_cutoff"), cfg, spec.x_max)
    rep = op.verify_basic_identity(cfg, f, spec)
    assert rep.max_residual(10.0) <= 1e-5

    cfg1, spec1 = load("sine")
    spec1 = dataclasses.replace(spec1, lambda_steps=600)
    g = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.8, width=0.5), cfg1, spec1.x_max)
    assert op.verify_basic_identity(cfg1, g, spec1).max_residual(10.0) <= 1e-5
    ablated = op.verify_basic_identity(cfg1, g, spec1, include_boundary_term=False)
    assert ablated.max_residual(10.0) >= 1e-1


def _scalar_twin(a_left, a_right):
    return ProblemConfig(
        r=1, mode="semi-axis",
        layers=(
            Layer(left=0.0, right=1.0, a2=a_left * np.eye(1), g2=np.zeros((1, 1))),
            Layer(left=1.0, right=np.inf, a2=a_right * np.eye(1), g2=np.zeros((1, 1))),
        ),
        interfaces=(ideal_contact(a_left * np.eye(1), a_right * np.eye(1)),),
        boundary=dirichlet(1),
    )


def test_criterion_07_block_decoupling(load):
    """diagonal r=2 run equals two scalar runs: kernels 1e-10, images 1e-8"""
    cfg, spec = load("r2diag")
    twins = (_scalar_twin(1.0, 2.0), _scalar_twin(2.0, 0.8))

    for lam in (0.5, 2.2, 7.1):
        b = bas.build_basis(cfg, lam)
        bt = [bas.build_basis(t, lam) for t in twins]
        for m in range(2):
            xs = np.linspace(cfg.layers[m].left, min(cfg.layers[m].right, 6.0), 17)
            u = bas.u_on_layer(b, m, xs)
            us = bas.u_star_on_layer(b, m, xs)
            for comp in (0, 1):
                ut = bas.u_on_layer(bt[comp], m, xs)[:, 0, 0]
                ust = bas.u_star_on_layer(bt[comp], m, xs)[:, 0, 0]
                assert np.max(np.abs(u[:, comp, comp] - ut)) <= 1e-10 * max(1, np.max(np.abs(ut)))
                assert np.max(np.abs(us[:, comp, comp] - ust)) <= 1e-10
            off = abs(u[:, 0, 1]) + abs(u[:, 1, 0]) + abs(us[:, 0, 1]) + abs(us[:, 1, 0])
            assert np.max(off) <= 1e-10

    amps = [1.0, 0.7]
    f2 = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max, amplitudes=amps)
    img2 = tr.forward_transform(cfg, f2, spec)
    grid = lambda_grid(cfg, spec)
    for comp, twin in enumerate(twins):
        f1 = cat.to_grid_function(cat.make_profile("gauss_bump"), twin, spec.x_max,
                                  amplitudes=[amps[comp]])
        img1 = tr.forward_transform(twin, f1, spec, lambdas=grid.nodes)
        assert np.max(np.abs(img2.values[:, comp] - img1.values[:, 0])) <= 1e-8


def test_criterion_08_heat_demo(load):
    """heat via images matches the FD oracle (1e-3) and the closed form (1e-4)"""
    cfg, spec = load("twolayer")
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump", center=3.2, width=0.38), cfg, spec.x_max)
    t = 0.05
    fd = op.fd_reference(cfg, f0, t, 0.01, 2.5e-5, x_max=spec.x_max)
    pts = [ls.x for ls in fd.layers]
    u = op.solve_heat(cfg, f0, t, pts, spec)
    gap = max(np.max(np.abs(u.layers[m].values - fd.layers[m].values)) for m in range(2))
    assert gap <= 1e-3

    cfg1, spec1 = load("sine")
    g0 = odd_gaussian_function()
    xs = g0.layers[0].x
    sol = op.solve_heat(cfg1, g0, 0.1, [xs], spec1)
    s2 = 1.2
    oracle = s2**-1.5 * xs * np.exp(-(xs**2) / (2 * s2))
    assert np.max(np.abs(sol.layers[0].values[:, 0] - oracle)) <= 1e-4


def test_criterion_09_radial_transform():
    """n=3 origin round trip 1e-3; Poisson mass 1e-8; boundary limit 1e-3"""
    from layerft.quadrature import QuadratureSpec

    spec = QuadratureSpec()
    prof = rad.RadialProfile(n=3, fn=lambda rho: np.exp(-(rho**2) / 2), rho_max=30.0)
    img = rad.forward_nd_image(prof, spec)
    assert rad.inverse_nd(img, spec) == pytest.approx(1.0, abs=1e-3)

    ones = rad.RadialProfile(n=3, fn=lambda rho: np.ones_like(rho), rho_max=200.0)
    assert rad.poisson_halfspace(ones, 0.7) == pytest.approx(1.0, abs=1e-8)

    wide = rad.RadialProfile(n=3, fn=lambda rho: np.exp(-(rho**2) / 8), rho_max=40.0)
    val = rad.poisson_halfspace(wide, 1e-3, 0.9)
    assert abs(val - np.exp(-0.81 / 8)) <= 1e-3


def test_criterion_10_matrix_function_suite():
    """sqrt/exp invariants at 1e-10 over 200 well-conditioned random instances"""
    assert np.allclose(
        la.principal_sqrt(np.array([[5.0, 4.0], [4.0, 5.0]])),
        [[2.0, 1.0], [1.0, 2.0]], atol=1e-12,
    )
    rng = np.random.default_rng(2024)
    for _ in range(200):
        r = int(rng.choice([1, 2, 4]))
        m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)) + 2 * r * np.eye(r)
        s = la.principal_sqrt(m)
        assert np.max(np.abs(s @ s - m)) <= 1e-10 * np.max(np.abs(m))
        assert np.all(np.linalg.eigvals(s).real > 0)
        e = la.matrix_exp(0.3 * m)
        ref = sla.expm(0.3 * m)
        assert np.max(np.abs(e - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    with pytest.raises(SpectrumOnCut):
        la.principal_sqrt(np.array([[-1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(OverflowRisk):
        la.matrix_exp(np.array([[6000.0]]))
    with pytest.raises(Singular):
        la.solve_linear(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(NonSquare):
        la.as_square(np.zeros((2, 3)), "block")
