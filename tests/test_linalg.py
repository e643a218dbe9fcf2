import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from layerft import linalg as la
from layerft.errors import NonSquare, OverflowRisk, Singular, SpectrumOnCut


def shifted_random(rng, r, shift=None):
    """Random complex matrix with spectrum pushed into the right half-plane."""
    m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return m + (2 * r if shift is None else shift) * np.eye(r)


def test_principal_sqrt_oracle():
    s = la.principal_sqrt(np.array([[5.0, 4.0], [4.0, 5.0]]))
    assert np.allclose(s, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


@pytest.mark.parametrize(
    "m, root",
    [([[4.0]], [[2.0]]), ([[-3.0 + 4.0j]], [[1.0 + 2.0j]])],
)
def test_principal_sqrt_scalar_oracle(m, root):
    s = la.principal_sqrt(np.array(m))
    assert s.shape == (1, 1)
    assert np.allclose(s, root, atol=1e-14)


@pytest.mark.parametrize("m", [[[4.0]], [[5.0, 4.0], [4.0, 5.0]]])
def test_principal_sqrt_emits_no_deprecation_warning(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        la.principal_sqrt(np.array(m))


def test_principal_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for _ in range(60):
        r = int(rng.choice([1, 2, 4]))
        m = shifted_random(rng, r)
        s = la.principal_sqrt(m)
        assert np.max(np.abs(s @ s - m)) <= 1e-10 * np.max(np.abs(m))


def test_principal_sqrt_spectrum_in_right_half_plane():
    rng = np.random.default_rng(3)
    for _ in range(40):
        r = int(rng.choice([2, 4]))
        s = la.principal_sqrt(shifted_random(rng, r))
        assert np.all(np.linalg.eigvals(s).real > 0)


def test_principal_sqrt_rejects_cut():
    with pytest.raises(SpectrumOnCut):
        la.principal_sqrt(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_matrix_exp_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(40):
        r = int(rng.choice([1, 2, 4]))
        m = 0.4 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
        ref = sla.expm(m)
        assert np.max(np.abs(la.matrix_exp(m) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_matrix_exp_overflow_gate():
    with pytest.raises(OverflowRisk):
        la.matrix_exp(np.array([[6000.0]]))


def test_solve_linear_singular_gate():
    with pytest.raises(Singular):
        la.solve_linear(np.zeros((2, 2)), np.eye(2))


def test_as_square_rejects_rectangular():
    with pytest.raises(NonSquare):
        la.as_square(np.zeros((2, 3)), "block")


def test_rcond_identity_and_singular():
    assert la.rcond(np.eye(4)) == pytest.approx(1.0)
    assert la.rcond(np.zeros((3, 3))) == 0.0


def test_definiteness_predicates():
    assert la.hermitian_positive_definite(np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert not la.hermitian_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert la.hermitian_positive_semidefinite(np.zeros((2, 2)))
    assert not la.hermitian_positive_semidefinite(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sqrt_exp_consistency(r, seed):
    # exp(2 log-sqrt path): sqrt(m)^2 == m implies expm(t m) == expm(t s s)
    rng = np.random.default_rng(seed)
    m = shifted_random(rng, r)
    s = la.principal_sqrt(m)
    assert np.max(np.abs(s @ s - m)) <= 1e-9 * np.max(np.abs(m))


def with_singular_values(rng, s):
    """U diag(s) V^H with Haar-like unitary U, V: a matrix whose singular values are s."""
    n = len(s)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (u * np.asarray(s, dtype=float)) @ v.conj().T


def assert_screen_decides_as_rcond(a):
    """screened_rcond takes the gates' decisions of rcond, with rcond's value wherever it rejects."""
    floor = la.RCOND_FLOOR
    try:
        exact = np.asarray(la.rcond(a))
    except np.linalg.LinAlgError:                      # a NaN member: the SVD does not converge
        with pytest.raises(np.linalg.LinAlgError):
            la.screened_rcond(a)
        return
    rc, inv = la.screened_rcond(a)
    assert np.array_equal(rc < floor, exact < floor)                   # basis._gate
    assert np.array_equal(~(rc >= floor), ~(exact >= floor))          # a NaN rcond rejects
    rejected = ~(rc >= floor)
    assert np.array_equal(rc[rejected], exact[rejected], equal_nan=True)
    # rcond / n <= rho_F <= rcond, up to the rounding of both near the floor (~eps absolute)
    passed = rc >= floor
    n = a.shape[-1]
    atol = 16 * n * np.finfo(float).eps
    assert np.all(rc[passed] <= exact[passed] * (1 + 1e-12) + atol)
    assert np.all(rc[passed] >= exact[passed] / n * (1 - 1e-12) - atol)
    try:
        ref = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        assert inv is None
    else:
        assert inv.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.integers(min_value=0, max_value=2**31 - 1))
def test_screen_decides_as_rcond_on_random_stacks(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(16, n, n)) + 1j * rng.normal(size=(16, n, n))
    assert_screen_decides_as_rcond(a * 10.0 ** rng.uniform(-200, 200, size=(16, 1, 1)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]), st.integers(min_value=0, max_value=2**31 - 1))
def test_screen_decides_as_rcond_around_the_floor(n, seed):
    # rcond = FLOOR x {0.5, 0.999, 1.001, 2, n, 2n}, one matrix each, the screen's band included
    rng = np.random.default_rng(seed)
    stack = []
    for factor in (0.5, 0.999, 1.001, 2.0, n, 2.0 * n):
        inner = np.sort(rng.uniform(factor * la.RCOND_FLOOR, 1.0, size=n - 2))[::-1]
        stack.append(with_singular_values(rng, [1.0, *inner, factor * la.RCOND_FLOOR]))
    a = np.array(stack) * rng.uniform(1e-3, 1e3)
    assert_screen_decides_as_rcond(a)
    for one in a:                                              # one matrix, unstacked
        assert_screen_decides_as_rcond(one)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_screen_on_an_exactly_singular_member(n):
    rng = np.random.default_rng(n)
    a = np.array([with_singular_values(rng, np.linspace(1.0, 0.5, n)) for _ in range(5)])
    a[3, :, -1] = 0.0                                          # LU meets an exact zero pivot
    rc, inv = la.screened_rcond(a)
    assert inv is None and rc[3] == 0.0
    assert_screen_decides_as_rcond(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_screen_on_non_finite_members(n, bad):
    rng = np.random.default_rng(7)
    a = np.array([with_singular_values(rng, np.linspace(1.0, 0.5, n)) for _ in range(4)])
    a[2, 0, 0] = bad
    assert_screen_decides_as_rcond(a)


def test_screen_runs_no_svd_on_a_regular_stack(monkeypatch):
    def no_svd(a):
        raise AssertionError("the screen fell back to the SVD")

    monkeypatch.setattr(la, "rcond", no_svd)
    rng = np.random.default_rng(2)
    rc, inv = la.screened_rcond(np.array([with_singular_values(rng, [1.0, 0.1, 1e-9, 1e-11])
                                          for _ in range(8)]))
    assert np.all(rc >= 2 * la.RCOND_FLOOR) and inv.shape == (8, 4, 4)
