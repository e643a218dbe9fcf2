"""Dense complex matrix functions with the error semantics the rest of the
package leans on.

The heavy lifting is LAPACK via numpy/scipy (Schur-based square root,
scaling-and-squaring exponential); this module owns the contracts: branch-cut
detection for the principal square root, a norm gate for the exponential, and
condition gates: the exact reciprocal condition number (rcond) and its
screen by inverses (screened_rcond), which takes an SVD only where the
floor could matter and hands on the inverse it computed.
"""

import numpy as np

from .errors import InvariantViolation, NonSquare, OverflowRisk, Singular, SpectrumOnCut

# reciprocal-condition floor below which a solve is treated as singular
RCOND_FLOOR = 1e-12

# relative half-width of the branch cut: eigenvalues with Re <= 0 and
# |Im| <= CUT_TOL * spectral scale count as sitting on the cut
CUT_TOL = 1e-12

# largest 2-norm matrix_exp takes
EXP_MAX_NORM = 4096.0


def as_square(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"{name}: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvariantViolation(f"{name}: non-finite entries")
    return a


def principal_sqrt(m):
    """Principal matrix square root.

    Returns s with s @ s = m and every eigenvalue of s in the open right
    half-plane.  Raises SpectrumOnCut when an eigenvalue of m lies on the
    closed negative real axis, where no principal branch exists.

    s is SciPy's Schur-based square root, returned without a separate error
    estimate; for a 1 x 1 matrix it is the scalar principal root.
    """
    a = as_square(m, "principal_sqrt")
    w = np.linalg.eigvals(a)
    scale = float(np.max(np.abs(w))) if a.size else 0.0
    if scale == 0.0:
        raise SpectrumOnCut("principal_sqrt: zero matrix (spectrum at the branch point)")
    on_cut = (w.real <= 0.0) & (np.abs(w.imag) <= CUT_TOL * scale)
    if np.any(on_cut):
        bad = w[on_cut][0]
        raise SpectrumOnCut(
            f"principal_sqrt: eigenvalue {bad:.6g} lies on the closed negative real axis"
        )
    from scipy.linalg import sqrtm

    return np.asarray(sqrtm(a), dtype=complex)


def matrix_exp(m):
    """Matrix exponential e^m (scaling-and-squaring).

    Refuses arguments with 2-norm above EXP_MAX_NORM: upstream code always
    rescales/centers its exponents, so a huge norm here means a bug or an
    unusable parameter combination rather than a legitimate request.
    """
    a = as_square(m, "matrix_exp")
    nrm = float(np.linalg.norm(a, 2)) if a.size else 0.0
    if nrm > EXP_MAX_NORM:
        raise OverflowRisk(f"matrix_exp: ||m||_2 = {nrm:.3g} exceeds {EXP_MAX_NORM:.3g}")
    from scipy.linalg import expm

    return np.asarray(expm(a), dtype=complex)


def solve_linear(a, b):
    """Solve a @ x = b with a reciprocal-condition gate (Singular below RCOND_FLOOR)."""
    a = as_square(a, "solve_linear")
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise NonSquare(f"solve_linear: rhs has {b.shape[0]} rows, matrix has {a.shape[0]}")
    rc = rcond(a)
    if not np.isfinite(rc) or rc < RCOND_FLOOR:
        raise Singular(f"solve_linear: reciprocal condition {rc:.3g} below floor")
    return np.linalg.solve(a, b)


def rcond(a):
    """Reciprocal 2-norm condition number (exact SVD; matrices here are tiny).

    A stack (..., n, n) gives one value per matrix from one batched SVD.
    The gates of basis.py decide by screened_rcond, which runs this only on
    the matrices whose screen cannot decide.
    """
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    if s.shape[-1] == 0:
        return 0.0
    rc = s[..., -1] / np.where(s[..., 0] == 0.0, np.inf, s[..., 0])
    return float(rc) if rc.ndim == 0 else rc


def screened_rcond(a):
    """(rc, inv) of a stack (..., n, n): rcond where the floor could matter, a bound elsewhere.

    rho_F = 1 / (||A||_F ||A^{-1}||_F) is bracketed by rcond / n <= rho_F <=
    rcond, so a matrix with rho_F >= 2 RCOND_FLOOR is well above the floor
    (the 2 absorbs the rounding of the computed inverse) and its rc is
    rho_F, a lower bound of its rcond.  Every other matrix, a non-finite
    rho_F included, gets its exact rcond from one batched SVD of just those,
    and so does the whole stack when np.linalg.inv raises on an exactly
    singular member.  Hence rc < RCOND_FLOOR, and rc >= RCOND_FLOOR, hold
    exactly where they hold for rcond(a), and rc is exact wherever either
    rejects.  inv is np.linalg.inv(a), or None when that raised.  The gates
    of basis.py decide by rc and keep inv: every product with the inverse of
    a gated block multiplies by it, so a block is inverted once and never
    solved against.
    """
    a = np.asarray(a, dtype=complex)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return rcond(a), None
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
        rc = np.asarray(1.0 / norms)
    rest = ~(rc >= 2 * RCOND_FLOOR)
    if rest.any():
        rc[rest] = rcond(a[rest])
    return rc, inv


def _hermitian_min_eig(m):
    """(smallest eigenvalue of m, bound) with bound = 1e-10 max(1, max |m_ij|).

    None when m is not square or not Hermitian to within bound.  m is halved
    before its Hermitian and skew parts are formed, so that neither
    overflows for entries up to the largest float.
    """
    h = 0.5 * np.asarray(m, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return None
    bound = 1e-10 * max(2.0 * float(np.max(np.abs(h))), 1.0)
    if np.max(np.abs(h - h.conj().T)) > 0.5 * bound:
        return None
    return float(np.min(np.linalg.eigvalsh(h + h.conj().T))), bound


def hermitian_positive_definite(m):
    found = _hermitian_min_eig(m)
    return found is not None and found[0] > found[1]


def hermitian_positive_semidefinite(m):
    found = _hermitian_min_eig(m)
    return found is not None and found[0] >= -found[1]
