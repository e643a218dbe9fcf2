import dataclasses

import numpy as np
import pytest
import scipy.special as sp

from layerft import radial as rad
from layerft.errors import (
    InvariantViolation,
    NonpositiveHeight,
    UnsupportedDimension,
)
from layerft.quadrature import QuadratureSpec


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
    with pytest.raises(InvariantViolation):
        rad.forward_nd(prof, -1.0)


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
