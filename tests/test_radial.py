import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special as sp

from layerft import radial as rad
from layerft import transform as tr
from layerft.errors import (
    InvariantViolation,
    NonpositiveHeight,
    UnsupportedDimension,
)
from layerft.quadrature import QuadratureSpec, composite_gauss

from conftest import SRC_DIR


@pytest.fixture(scope="module")
def spec():
    return QuadratureSpec()


def gaussian_profile(n, w=1.0, rho_max=30.0):
    return rad.RadialProfile(n=n, fn=lambda rho: np.exp(-(rho**2) / (2 * w**2)), rho_max=rho_max)


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5])
def test_bessel_matches_scipy(nu):
    zs = np.linspace(1e-3, 60.0, 500)
    assert np.max(np.abs(rad.bessel_j(nu, zs) - sp.jv(nu, zs))) <= 5e-9


def test_bessel_integer_reflection():
    zs = np.linspace(0.5, 20.0, 40)
    for m in (0, 1, 2):
        ref = (-1.0) ** m * sp.jv(m, zs)
        assert np.max(np.abs(rad.bessel_j(float(m), -zs) - ref)) <= 5e-9
    with pytest.raises(InvariantViolation):
        rad.bessel_j(0.5, -1.0)
    with pytest.raises(InvariantViolation):
        rad.bessel_j(-1.0, 1.0)


def test_bessel_ratio_small_argument():
    # J_nu(z)/z^nu stays finite at z -> 0: limit 1/(2^nu Gamma(nu+1))
    for nu in (0.0, 0.5, 1.0, 2.0):
        lim = 1.0 / (2.0**nu * sp.gamma(nu + 1))
        assert rad.bessel_ratio(nu, 1e-9) == pytest.approx(lim, rel=1e-10)
        z = 0.3
        assert rad.bessel_ratio(nu, z) == pytest.approx(sp.jv(nu, z) / z**nu, rel=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_bessel_ratio_matches_scipy_on_both_branches(nu):
    # series below BESSEL_CROSSOVER, asymptotic form divided by z^nu above it
    zs = np.concatenate([np.geomspace(1e-9, 1.0, 60), np.linspace(1.0, 60.0, 1200)])
    assert np.any(zs < rad.BESSEL_CROSSOVER) and np.any(zs >= rad.BESSEL_CROSSOVER)
    ref = sp.jv(nu, zs) / zs**nu
    assert np.max(np.abs(rad.bessel_ratio(nu, zs) - ref)) <= 5e-9


def test_gaussian_images(spec):
    img3 = rad.forward_nd_image(gaussian_profile(3), spec)
    lam = img3.lambdas
    assert np.max(np.abs(img3.values[:, 0] - np.sqrt(2 / np.pi) * np.sqrt(lam) * np.exp(-lam**2 / 2))) <= 1e-12
    img2 = rad.forward_nd_image(gaussian_profile(2), spec)
    assert np.max(np.abs(img2.values[:, 0] - np.exp(-img2.lambdas**2 / 2))) <= 1e-10


def test_inverse_recovers_origin_value(spec):
    for n in (2, 3):
        img = rad.forward_nd_image(gaussian_profile(n), spec)
        assert rad.inverse_nd(img, spec) == pytest.approx(1.0, abs=1e-6)


def test_heat_decay_at_origin(spec):
    t = 0.1
    for n in (2, 3):
        img = rad.forward_nd_image(gaussian_profile(n), spec).decayed(t)
        assert rad.inverse_nd(img, spec) == pytest.approx((1 + 2 * t) ** (-n / 2), abs=1e-6)


def test_inverse_needs_dimension(spec):
    img = rad.forward_nd_image(gaussian_profile(3), spec)
    img.meta.pop("dimension")
    with pytest.raises(InvariantViolation):
        rad.inverse_nd(img, spec)
    assert rad.inverse_nd(img, spec, n=3) == pytest.approx(1.0, abs=1e-6)


def test_forward_scalar_and_array_lambda(spec):
    prof = gaussian_profile(3)
    lam = np.array([0.5, 1.0, 2.0])
    arr = rad.forward_nd(prof, lam)
    scl = np.array([rad.forward_nd(prof, v) for v in lam])
    assert np.allclose(arr, scl, atol=1e-14)
    for bad in (-1.0, np.nan, np.inf, np.array([0.5, np.nan])):
        with pytest.raises(InvariantViolation):
            rad.forward_nd(prof, bad)


def test_poisson_mass_normalization():
    for n, x in ((2, 0.7), (3, 0.7), (4, 1.2)):
        ones = rad.RadialProfile(n=n, fn=lambda rho: np.ones_like(rho), rho_max=200.0)
        assert rad.poisson_halfspace(ones, x) == pytest.approx(1.0, abs=1e-8)


def test_poisson_boundary_limit():
    for n, tol in ((2, 1e-3), (3, 1e-3)):
        g = rad.RadialProfile(n=n, fn=lambda rho: np.exp(-(rho**2) / 8), rho_max=40.0)
        val = rad.poisson_halfspace(g, 1e-3, 0.9)
        assert abs(val - np.exp(-0.81 / 8)) <= tol


def test_poisson_maximum_principle():
    g = rad.RadialProfile(n=3, fn=lambda rho: np.exp(-(rho**2) / 2), rho_max=30.0)
    for x in (0.05, 0.5, 2.0):
        for y in (0.0, 0.7, 2.5):
            v = rad.poisson_halfspace(g, x, y)
            assert -1e-12 <= v <= 1.0 + 1e-12


def test_poisson_height_gate():
    g = gaussian_profile(3)
    with pytest.raises(NonpositiveHeight):
        rad.poisson_halfspace(g, 0.0)
    with pytest.raises(NonpositiveHeight):
        rad.poisson_halfspace(g, -1.0)


def test_dimension_gate():
    with pytest.raises(UnsupportedDimension):
        rad.RadialProfile(n=1, fn=lambda rho: rho, rho_max=1.0)
    with pytest.raises(UnsupportedDimension):
        rad.RadialProfile(n=2.5, fn=lambda rho: rho, rho_max=1.0)


def test_single_point_image_needs_weights(spec):
    from layerft.gridfn import SpectralImage

    img = SpectralImage(lambdas=np.array([1.0]), values=np.array([[1.0]]), meta={"dimension": 3})
    with pytest.raises(InvariantViolation):
        rad.inverse_nd(img, spec)


def test_nonfinite_image_row_rejected(spec):
    # a NaN row makes every tail-gap comparison false; it must not come back as nan
    img = rad.forward_nd_image(
        gaussian_profile(3), dataclasses.replace(spec, lambda_max=10.0, lambda_steps=200)
    )
    img.values[5, 0] = np.nan
    with pytest.raises(InvariantViolation, match="image row 5 "):
        rad.inverse_nd(img, spec)


def per_lambda_forward(profile, lams, order=12):
    """The per-row loop forward_nd replaces: bessel_ratio on each lam row."""
    n, nu = profile.n, 0.5 * (profile.n - 2)
    n_panels = max(1, math.ceil(profile.rho_max * max(1.0, lams.max()) / math.pi))
    nodes, weights = composite_gauss(0.0, profile.rho_max, n_panels, order)
    base = weights * nodes ** (n - 1) * profile(nodes)
    const = 2.0 ** (1.0 - 0.5 * n) / math.gamma(0.5 * n)
    return np.array([const * la**nu * (base @ rad.bessel_ratio(nu, la * nodes)) for la in lams])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_forward_matches_per_lambda_reference(n):
    prof = gaussian_profile(n, w=3.0)
    lams = rad.forward_nd_image(prof, QuadratureSpec(lambda_max=12.0, lambda_steps=400)).lambdas
    ref = per_lambda_forward(prof, lams)
    assert np.max(np.abs(rad.forward_nd(prof, lams) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("rows", [1, 7, None])
def test_forward_independent_of_chunk_size(monkeypatch, rows):
    prof = gaussian_profile(5, w=3.0)
    lams = np.linspace(0.05, 12.0, 101)
    default = rad.forward_nd(prof, lams)
    n_rho = 12 * math.ceil(prof.rho_max * lams.max() / math.pi)
    monkeypatch.setattr(tr, "_CHUNK_BYTES", rad._ENTRY_BYTES * n_rho * (rows or lams.size))
    assert np.max(np.abs(rad.forward_nd(prof, lams) - default)) <= 1e-14 * np.max(np.abs(default))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_poisson_constant_data_near_boundary(n):
    ones = rad.RadialProfile(n=n, fn=np.ones_like, rho_max=200.0)
    for y in (0.0, 0.9, 2.5):
        assert rad.poisson_halfspace(ones, 1e-3, y) == pytest.approx(1.0, abs=1e-8)


def quad_poisson(profile, x, y):
    """Nested scipy.integrate.quad over rho and the polar angle: an independent oracle."""
    from scipy.integrate import quad

    n = profile.n
    c_n = sp.gamma((n + 1) / 2) / np.pi ** ((n + 1) / 2)
    sphere = 2 * np.pi ** ((n - 1) / 2) / sp.gamma((n - 1) / 2)     # |S^(n-2)|

    def integrand(rho):
        a, b = rho * rho + y * y + x * x, 2 * y * rho
        angular = quad(lambda t: np.sin(t) ** (n - 2) * (a - b * np.cos(t)) ** (-(n + 1) / 2),
                       0, np.pi, epsabs=0, epsrel=1e-12, limit=400)[0]
        return float(profile(rho)) * rho ** (n - 1) * angular

    pts = sorted({p for p in (y - 5 * x, y - x, y, y + x, y + 5 * x) if 0 < p < 40})
    head = quad(integrand, 0, 40, points=pts or None, epsabs=0, epsrel=1e-12, limit=500)[0]
    tail = quad(integrand, 40, np.inf, epsabs=0, epsrel=1e-12, limit=200)[0]
    return c_n * sphere * x * (head + tail)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_poisson_gaussian_matches_quad_oracle(n):
    g = rad.RadialProfile(n=n, fn=lambda rho: np.exp(-(rho**2) / 2), rho_max=30.0)
    for x, y in ((1e-3, 0.9), (0.1, 0.0), (0.7, 2.5)):
        assert rad.poisson_halfspace(g, x, y) == pytest.approx(quad_poisson(g, x, y), abs=1e-9)


@pytest.mark.parametrize("x", [1e-300, 5e-324])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_poisson_tiny_height_reaches_the_boundary_values(n, x):
    # every square of the kernel's lengths underflows, and at 5e-324 the
    # innermost panels are subnormal; the value must still be the x -> 0 limit
    g = gaussian_profile(n, w=2.0)
    ones = rad.RadialProfile(n=n, fn=np.ones_like, rho_max=30.0)
    for y in (0.0, 1e-300, 0.9, 2.5):
        assert rad.poisson_halfspace(g, x, y) == pytest.approx(
            rad.poisson_halfspace(g, 1e-10, y), abs=1e-9)
        assert rad.poisson_halfspace(g, x, y) == pytest.approx(float(g(y)), abs=1e-9)
        assert rad.poisson_halfspace(ones, x, y) == pytest.approx(1.0, abs=1e-13)
        assert rad.poisson_halfspace(ones, 1.0, y * x) == pytest.approx(1.0, abs=1e-13)


def test_nonfinite_poisson_inputs_rejected():
    for rho_max in (np.nan, np.inf):
        with pytest.raises(InvariantViolation, match="finite"):
            rad.RadialProfile(n=3, fn=np.ones_like, rho_max=rho_max)
    g = gaussian_profile(4)
    for x, y in ((np.nan, 0.0), (np.inf, 0.0), (0.5, np.nan), (0.5, -np.inf)):
        with pytest.raises(InvariantViolation, match="finite"):
            rad.poisson_halfspace(g, x, y)


def test_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = "import sys, layerft; print(sorted(m for m in sys.modules if 'scipy.integrate' in m))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
