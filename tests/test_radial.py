import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp

from layerft import quadrature as quad
from layerft import radial as rad
from layerft import transform as tr
from layerft.errors import (
    DimensionMismatch,
    InvariantViolation,
    NonpositiveHeight,
    SizeLimitExceeded,
    UnsupportedDimension,
)
from layerft.gridfn import read_image_csv, write_image_csv
from layerft.quadrature import MAX_TRANSFORM_SIZE, QuadratureSpec, composite_gauss, panel_gauss

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
    with pytest.raises(InvariantViolation, match="forward_nd_image"):
        rad.inverse_nd(img, spec)


def test_inverse_refuses_an_image_read_from_csv(spec, tmp_path):
    # the CSV keeps the grid and the values, not the quadrature weights or the dimension
    img = rad.forward_nd_image(gaussian_profile(3), spec)
    write_image_csv(img, tmp_path / "radial.csv")
    read = read_image_csv(tmp_path / "radial.csv")
    assert read.lambdas.tobytes() == img.lambdas.tobytes()
    with pytest.raises(InvariantViolation, match="forward_nd_image"):
        rad.inverse_nd(read, spec)


def test_inverse_refuses_weights_of_another_grid(spec):
    img = rad.forward_nd_image(
        gaussian_profile(3), dataclasses.replace(spec, lambda_max=10.0, lambda_steps=200)
    )
    cut = dataclasses.replace(img, lambdas=img.lambdas[:-1], values=img.values[:-1])
    sizes = f"{img.lambdas.size} quadrature weights for {cut.lambdas.size} spectral points"
    with pytest.raises(DimensionMismatch, match=sizes):
        rad.inverse_nd(cut, spec)


def test_forward_scalar_and_array_lambda(spec):
    prof = gaussian_profile(3)
    lam = np.array([0.5, 1.0, 2.0])
    arr = rad.forward_nd(prof, lam)
    scl = np.array([rad.forward_nd(prof, v) for v in lam])
    assert np.allclose(arr, scl, atol=1e-14)
    for bad in (-1.0, np.nan, np.inf, np.array([0.5, np.nan]), np.array([])):
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
def test_forward_matches_per_lambda_reference(n):
    prof = gaussian_profile(n, w=3.0)
    lams = rad.forward_nd_image(prof, QuadratureSpec(lambda_max=12.0, lambda_steps=400)).lambdas
    ref = per_lambda_forward(prof, lams)
    assert np.max(np.abs(rad.forward_nd(prof, lams) - ref)) <= 1e-13 * np.max(np.abs(ref))


def chunk_budget(prof, lams, rows):
    """The _CHUNK_BYTES at which forward_nd's asymptotic row chunks hold rows rows."""
    n_panels = math.ceil(prof.rho_max * lams.max() / math.pi)
    terms = rad._asymptotic_coefficients(0.5 * (prof.n - 2)).size
    return rad._ENTRY_BYTES * (n_panels + 2 * terms * quad.PANEL_ORDER) * rows


@pytest.mark.parametrize("rows", [1, 7, None])
def test_forward_independent_of_chunk_size(monkeypatch, rows):
    lams = np.linspace(0.05, 12.0, 101)
    for n in (2, 3, 5):     # 12, 1 and 2 asymptotic terms
        prof = gaussian_profile(n, w=3.0)
        default = rad.forward_nd(prof, lams)
        with monkeypatch.context() as m:
            m.setattr(tr, "_CHUNK_BYTES", chunk_budget(prof, lams, rows or lams.size))
            got = rad.forward_nd(prof, lams)
        assert np.max(np.abs(got - default)) <= 1e-14 * np.max(np.abs(default))


BENCH_SPEC = QuadratureSpec(lambda_max=12.0, lambda_steps=2000)


@pytest.mark.parametrize("w", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gaussian_images_match_closed_form(n, w):
    # image of exp(-rho^2 / (2 w^2)): 2^(1-n/2)/Gamma(n/2) lam^nu w^(2nu+2) exp(-lam^2 w^2/2).
    # For odd n the expansion is exact and only rounding is left: at most
    # 5.2e-14 with the former series, 8.4e-14 with the in-place one.  For
    # even n the 12-term expansion errs by a few 1e-11 near z = 12, up to
    # 8.9e-12 of the image, and w = 4 cuts the data at rho_max = 30, where
    # they are still 7e-13: up to 2.34e-11.
    nu = 0.5 * (n - 2)
    img = rad.forward_nd_image(gaussian_profile(n, w=w), BENCH_SPEC)
    lam = img.lambdas
    exact = 2.0 ** (1 - n / 2) / math.gamma(n / 2) * lam**nu * w ** (2 * nu + 2) * np.exp(
        -0.5 * (lam * w) ** 2)
    tol = 2e-13 if n % 2 and w <= 2.0 else 5e-11
    assert np.max(np.abs(img.values[:, 0] - exact)) <= tol * np.max(np.abs(exact))


def test_forward_size_gate(monkeypatch):
    # refused before any node is built: a huge lam or rho_max, their product
    # past the float range, and a rule one panel over the limit
    prof = gaussian_profile(3)
    for lam in (1e300, np.array([0.5, 1e300])):
        with pytest.raises(SizeLimitExceeded, match="rho nodes"):
            rad.forward_nd(prof, lam)
    for rho_max, lam in ((1e300, 1.0), (1e300, 0.5), (1.7e308, 1.7e308)):
        with pytest.raises(SizeLimitExceeded):
            rad.forward_nd(gaussian_profile(3, rho_max=rho_max), lam)
    panels = MAX_TRANSFORM_SIZE // quad.PANEL_ORDER + 1        # ceil(rho_max 12 / pi)
    with pytest.raises(SizeLimitExceeded):
        rad.forward_nd(gaussian_profile(3, rho_max=(panels - 0.5) * math.pi / 12.0), 12.0)
    # the limit is on lam nodes x rho nodes, inclusive
    lams = np.array([0.5, 2.0, 3.0])
    size = lams.size * quad.PANEL_ORDER * math.ceil(30.0 * 3.0 / math.pi)
    monkeypatch.setattr(rad, "MAX_TRANSFORM_SIZE", size)
    assert np.all(np.isfinite(rad.forward_nd(prof, lams)))
    monkeypatch.setattr(rad, "MAX_TRANSFORM_SIZE", size - 1)
    with pytest.raises(SizeLimitExceeded):
        rad.forward_nd(prof, lams)


# lam <= 12 / rho_max puts every node on the series; at the largest lam only
# the first few of 115 panels hold series entries
MIXED_LAMS = np.concatenate([np.linspace(0.01, 12.0 / 30.0, 9), np.linspace(0.5, 12.0, 40)])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_forward_independent_of_lambda_order(n):
    prof = gaussian_profile(n, w=3.0)
    default = rad.forward_nd(prof, MIXED_LAMS)
    order = np.random.default_rng(5).permutation(MIXED_LAMS.size)
    for perm in (np.arange(MIXED_LAMS.size)[::-1], order):
        got = rad.forward_nd(prof, MIXED_LAMS[perm])
        assert np.max(np.abs(got - default[perm])) <= 1e-14 * np.max(np.abs(default))


@pytest.mark.parametrize("rows", [1, 7, None])
def test_forward_independent_of_chunk_size_across_branches(monkeypatch, rows):
    lams = np.random.default_rng(8).permutation(MIXED_LAMS)
    for n in (2, 3, 5):     # 12, 1 and 2 asymptotic terms
        prof = gaussian_profile(n, w=3.0)
        default = rad.forward_nd(prof, lams)
        with monkeypatch.context() as m:
            m.setattr(tr, "_CHUNK_BYTES", chunk_budget(prof, lams, rows or lams.size))
            got = rad.forward_nd(prof, lams)
        assert np.max(np.abs(got - default)) <= 1e-14 * np.max(np.abs(default))


@pytest.mark.parametrize("n", [2, 5])
def test_forward_work_arrays_stay_within_the_chunk_budget(monkeypatch, n):
    prof = gaussian_profile(n, w=3.0)
    lams = np.linspace(0.05, 12.0, 1001)
    n_rho = 12 * math.ceil(prof.rho_max * lams.max() / math.pi)
    terms = rad._asymptotic_coefficients(0.5 * (n - 2)).size
    rad.forward_nd(prof, lams)      # caches of the Gauss rule

    def extra_memory(budget):
        """Peak bytes forward_nd allocates besides its result, at a budget."""
        monkeypatch.setattr(tr, "_CHUNK_BYTES", budget)
        tracemalloc.start()
        try:
            out = rad.forward_nd(prof, lams)
            return tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()

    # an unchunked forward of these 1001 rows takes about 6.2 MiB for n = 2
    # and 2.2 MiB for n = 5: the budget must bind well below that
    budget = 1 << 19
    # the (rho nodes x terms) and (lam x terms) arrays outside the chunks:
    # the asymptotic columns with their temporaries, the moments and the tail
    fixed = n_rho * (32 * terms + 96) + lams.size * (32 * terms + 64)
    assert extra_memory(budget) <= budget + fixed
    assert extra_memory(1 << 40) > 3 * budget


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_ratio_series_matches_mpmath(nu):
    import mpmath

    zs = np.concatenate([[1e-8, 1e-3], np.linspace(0.05, 11.999, 120)])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.besselj(nu, z) / mpmath.mpf(z) ** nu) for z in zs])
    # rounding of an alternating series: a few ulps of the largest terms
    k = np.arange(rad._SERIES_TERMS)
    magnitude = np.sum(np.exp(np.multiply.outer(2 * np.log(zs / 2), k)
                              - sp.gammaln(k + 1) - sp.gammaln(k + nu + 1)), axis=1)
    err = np.abs(rad._ratio_series(nu, zs) - ref)
    assert np.all(err <= 64 * np.finfo(float).eps * magnitude)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
def test_half_integer_expansion_keeps_its_nonzero_terms(nu):
    gamma = rad._asymptotic_coefficients(nu)
    assert gamma.size == nu + 0.5
    assert np.all(gamma != 0)
    assert rad._asymptotic_coefficients(nu - 0.5).size == 2 * rad._ASYMPTOTIC_TERMS


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trimmed_expansion_matches_the_untrimmed_one(monkeypatch, n):
    prof = gaussian_profile(n, w=3.0)
    lams = rad.forward_nd_image(prof, QuadratureSpec(lambda_max=12.0, lambda_steps=400)).lambdas
    trimmed = rad.forward_nd(prof, lams)
    kept = rad._asymptotic_coefficients

    def padded(nu):
        gamma = kept(nu)
        return np.append(gamma, np.zeros(2 * rad._ASYMPTOTIC_TERMS - gamma.size))

    monkeypatch.setattr(rad, "_asymptotic_coefficients", padded)
    full = rad.forward_nd(prof, lams)
    assert np.max(np.abs(trimmed - full)) <= 1e-14 * np.max(np.abs(full))


def closed_form_image(n, w, lam):
    """Image of exp(-rho^2 / (2 w^2)) in n dimensions."""
    nu = 0.5 * (n - 2)
    return 2.0 ** (1 - n / 2) / math.gamma(n / 2) * lam**nu * w ** (2 * nu + 2) * np.exp(
        -0.5 * (lam * w) ** 2)


@pytest.mark.parametrize("w", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_images_match_closed_form_to_rounding(n, w):
    # below z = nu + 1/2 the series, above it the terminating expansion: both
    # exact up to rounding, without the series' cancellation near z = 12
    img = rad.forward_nd_image(gaussian_profile(n, w=w), BENCH_SPEC)
    exact = closed_form_image(n, w, img.lambdas)
    assert np.max(np.abs(img.values[:, 0] - exact)) <= 1e-14 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", range(11, 32, 2))
def test_high_odd_dimensions_match_closed_form(n):
    # the expansion runs to its exact zero however many terms that takes
    img = rad.forward_nd_image(gaussian_profile(n), QuadratureSpec(lambda_max=12.0,
                                                                   lambda_steps=400))
    exact = closed_form_image(n, 1.0, img.lambdas)
    assert np.max(np.abs(img.values[:, 0] - exact)) <= 2e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [12, 14, 20, 26, 30])
def test_even_dimensions_past_the_expansion_are_refused(n):
    # the 12-term expansion leaves out more than 2e-9 at z = 12: refused
    # before the profile is evaluated or any node is built
    def untouchable(rho):
        raise AssertionError("profile evaluated")

    prof = rad.RadialProfile(n=n, fn=untouchable, rho_max=30.0)
    with pytest.raises(UnsupportedDimension, match=f"n = {n} dimensions"):
        rad.forward_nd(prof, np.array([0.5, 1.0]))
    with pytest.raises(UnsupportedDimension, match=f"n = {n} dimensions"):
        rad.forward_nd_image(prof, QuadratureSpec(lambda_max=1e300))
    assert rad._omitted_term(0.5 * (n - 2)) > 2e-9


def test_the_highest_accepted_odd_dimension_matches_closed_form():
    # n = 61: the series' largest term at its crossover z = 30 is 141 times its first
    assert rad._series_growth(29.5) <= rad._SERIES_GROWTH
    img = rad.forward_nd_image(gaussian_profile(61), QuadratureSpec(lambda_max=12.0,
                                                                    lambda_steps=400))
    exact = closed_form_image(61, 1.0, img.lambdas)
    assert np.max(np.abs(img.values[:, 0] - exact)) <= 5e-11 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [63, 81, 101])
def test_odd_dimensions_past_the_series_cancellation_are_refused(n):
    # the series cancels too much at z = nu + 1/2: refused before the profile
    # is evaluated, as the even dimensions past the expansion are
    def untouchable(rho):
        raise AssertionError("profile evaluated")

    prof = rad.RadialProfile(n=n, fn=untouchable, rho_max=30.0)
    with pytest.raises(UnsupportedDimension, match=f"n = {n} dimensions"):
        rad.forward_nd(prof, np.array([0.5, 1.0]))
    with pytest.raises(UnsupportedDimension, match=f"n = {n} dimensions"):
        rad.forward_nd_image(prof, QuadratureSpec(lambda_max=12.0, lambda_steps=400))
    assert rad._series_growth(0.5 * (n - 2)) > rad._SERIES_GROWTH


def test_inverse_refuses_an_image_with_more_than_one_column(spec):
    img = rad.forward_nd_image(
        gaussian_profile(3), dataclasses.replace(spec, lambda_max=10.0, lambda_steps=200)
    )
    wide = dataclasses.replace(img, values=np.hstack([img.values, 5.0 * img.values]))
    with pytest.raises(DimensionMismatch, match="2 columns"):
        rad.inverse_nd(wide, spec)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10])
def test_low_dimensions_stay_accepted(n):
    assert rad._omitted_term(0.5 * (n - 2)) <= 2e-9
    img = rad.forward_nd_image(gaussian_profile(n), QuadratureSpec(lambda_max=12.0,
                                                                   lambda_steps=400))
    exact = closed_form_image(n, 1.0, img.lambdas)
    assert np.max(np.abs(img.values[:, 0] - exact)) <= 5e-11 * np.max(np.abs(exact))


@pytest.mark.parametrize("nu", np.arange(0.5, 12.0, 1.0))
def test_half_integer_bessel_ratio_matches_mpmath(nu):
    import mpmath

    crossover = nu + 0.5
    zs = np.concatenate([np.geomspace(1e-3, 1.0, 30), np.linspace(1.0, 30.0, 300)])
    assert np.any(zs < crossover) and np.any(zs >= crossover)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.besselj(nu, z) / mpmath.mpf(z) ** nu) for z in zs])
    c0 = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
    err = np.abs(rad.bessel_ratio(nu, zs) - ref)
    assert np.max(err) <= 16 * np.finfo(float).eps * c0
    assert rad._crossover(nu) == crossover


@pytest.mark.parametrize("n", [2, 3, 5])
def test_series_spans_match_the_mask(n):
    nu = 0.5 * (n - 2)
    crossover = rad._crossover(nu)
    n_panels = math.ceil(30.0 * 12.0 / math.pi)
    nodes = panel_gauss(np.linspace(0.0, 30.0, n_panels + 1), quad.PANEL_ORDER)[0].ravel()
    # lam = crossover / rho_i and its float neighbours: lam rho_i lands on,
    # under or over the crossover, and crossover / lam on either side of rho_i
    ties = crossover / nodes[::3]
    ties = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    lams = np.concatenate([MIXED_LAMS, ties[ties <= 12.0]])
    mask = np.multiply.outer(lams, nodes) < crossover
    counts = mask.sum(axis=1)
    assert np.any(np.searchsorted(nodes, crossover / lams) != counts)     # the fix-up acts
    assert np.array_equal(rad._series_spans(lams, nodes, crossover), counts)
    assert np.all(mask == (np.arange(nodes.size) < counts[:, None]))     # prefixes


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
