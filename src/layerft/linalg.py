"""Dense complex matrix functions with the error semantics the rest of the
package leans on.

The heavy lifting is LAPACK via numpy/scipy (Schur-based square root,
scaling-and-squaring exponential); this module owns the contracts: branch-cut
detection for the principal square root, a norm gate for the exponential, and
condition-estimate gates for solves.
"""

import numpy as np

from .errors import InvariantViolation, NonSquare, OverflowRisk, Singular, SpectrumOnCut

# reciprocal-condition floor below which a solve is treated as singular
RCOND_FLOOR = 1e-12

# relative half-width of the branch cut: eigenvalues with Re <= 0 and
# |Im| <= CUT_TOL * spectral scale count as sitting on the cut
CUT_TOL = 1e-12


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


def matrix_exp(m, max_norm=4096.0):
    """Matrix exponential e^m (scaling-and-squaring).

    Refuses arguments with 2-norm above ``max_norm``: upstream code always
    rescales/centers its exponents, so a huge norm here means a bug or an
    unusable parameter combination rather than a legitimate request.
    """
    a = as_square(m, "matrix_exp")
    nrm = float(np.linalg.norm(a, 2)) if a.size else 0.0
    if nrm > max_norm:
        raise OverflowRisk(f"matrix_exp: ||m||_2 = {nrm:.3g} exceeds {max_norm:.3g}")
    from scipy.linalg import expm

    return np.asarray(expm(a), dtype=complex)


def solve_linear(a, b, err=Singular, context=""):
    """Solve a @ x = b with a reciprocal-condition gate.

    ``err`` lets callers map near-singularity onto their own exception type
    (e.g. a singular interface pencil is a regularity failure, not a generic
    linear-algebra error).
    """
    a = as_square(a, context or "solve_linear")
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise NonSquare(
            f"{context or 'solve_linear'}: rhs has {b.shape[0]} rows, matrix has {a.shape[0]}"
        )
    rc = rcond(a)
    if not np.isfinite(rc) or rc < RCOND_FLOOR:
        raise err(f"{context or 'solve_linear'}: reciprocal condition {rc:.3g} below floor")
    return np.linalg.solve(a, b)


def right_solve(b, a, err=Singular, context=""):
    """Solve x @ a = b (right division)."""
    x_t = solve_linear(np.asarray(a, dtype=complex).T, np.asarray(b, dtype=complex).T,
                       err=err, context=context)
    return x_t.T


def rcond(a):
    """Reciprocal 2-norm condition number (exact SVD; matrices here are tiny).

    A stack (..., n, n) gives one value per matrix from one batched SVD.
    """
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    if s.shape[-1] == 0:
        return 0.0
    rc = s[..., -1] / np.where(s[..., 0] == 0.0, np.inf, s[..., 0])
    return float(rc) if rc.ndim == 0 else rc


def block2x2(a, b, c, d):
    """Assemble [[a, b], [c, d]] from four equal r x r blocks."""
    return np.block([[a, b], [c, d]])


def hermitian_positive_definite(m, tol=1e-10):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(float(np.max(np.abs(a))), 1.0)
    if np.max(np.abs(a - a.conj().T)) > tol * scale:
        return False
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return bool(np.min(w) > tol * scale)


def hermitian_positive_semidefinite(m, tol=1e-10):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(float(np.max(np.abs(a))), 1.0)
    if np.max(np.abs(a - a.conj().T)) > tol * scale:
        return False
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return bool(np.min(w) >= -tol * scale)
