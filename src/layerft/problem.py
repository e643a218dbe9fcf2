"""Problem descriptions: layered media, junction conditions, boundary operator.

A problem lives on a piecewise-homogeneous axis or semi-axis: junction points
l_0 < l_1 < ... < l_n split the domain into layers, each carrying constant
r x r matrix coefficients a2 (stiffness, Hermitian positive-definite) and g2
(potential, Hermitian positive-semidefinite).  Junction k couples the two
neighbouring layers through two block conditions whose coefficients may carry
a quadratic dependence on the spectral parameter:

    sum over side s of  (beta_js + lam^2 gamma_js) f_s(l_k)
                      + (alpha_js + lam^2 delta_js) f_s'(l_k)   matched, j = 1, 2

organized here as 2r x 2r pencils M_side(lam) acting on stacked
(value; derivative) vectors.  The boundary operator at l_0 (semi-axis mode)
has the same structure with a single row.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvariantViolation, OutOfDomain


def _block(m, r, name):
    a = np.asarray(m, dtype=complex)
    if a.shape != (r, r):
        raise DimensionMismatch(
            f"{name} has shape {a.shape}, expected ({r}, {r})", block=name
        )
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvariantViolation(f"{name} has non-finite entries")
    return a


@dataclass(frozen=True)
class Layer:
    """One homogeneous layer [left, right] with matrix coefficients."""

    left: float
    right: float
    a2: np.ndarray
    g2: np.ndarray

    def validate(self, r, name="layer"):
        _block(self.a2, r, f"{name}.a2")
        _block(self.g2, r, f"{name}.g2")
        if not self.left < self.right:
            raise InvariantViolation(f"{name}: left {self.left} !< right {self.right}")
        if not linalg.hermitian_positive_definite(self.a2):
            raise InvariantViolation(f"{name}.a2 must be Hermitian positive-definite")
        if not linalg.hermitian_positive_semidefinite(self.g2):
            raise InvariantViolation(f"{name}.g2 must be Hermitian positive-semidefinite")

    def window(self, x_max):
        """(a, b): the layer clipped to |x| <= x_max; b <= a when it lies beyond x_max."""
        return max(self.left, -x_max), min(self.right, x_max)


@dataclass(frozen=True)
class Interface:
    """Sixteen r x r blocks of one junction condition pair.

    Index convention: first digit = condition row j in {1, 2}, second digit =
    side s in {1, 2} (1 = left layer, 2 = right layer).
    """

    alpha11: np.ndarray
    alpha12: np.ndarray
    alpha21: np.ndarray
    alpha22: np.ndarray
    beta11: np.ndarray
    beta12: np.ndarray
    beta21: np.ndarray
    beta22: np.ndarray
    gamma11: np.ndarray
    gamma12: np.ndarray
    gamma21: np.ndarray
    gamma22: np.ndarray
    delta11: np.ndarray
    delta12: np.ndarray
    delta21: np.ndarray
    delta22: np.ndarray

    BLOCK_NAMES = (
        "alpha11", "alpha12", "alpha21", "alpha22",
        "beta11", "beta12", "beta21", "beta22",
        "gamma11", "gamma12", "gamma21", "gamma22",
        "delta11", "delta12", "delta21", "delta22",
    )

    def validate(self, r, name="interface"):
        for key in self.BLOCK_NAMES:
            _block(getattr(self, key), r, f"{name}.{key}")

    def _side(self, kind, j, s):
        return getattr(self, f"{kind}{j}{s}")

    @cached_property
    def _parts(self):
        """Read-only 2r x 2r blocks {(kind, side)}, assembled once per interface."""
        parts = {}
        for s in (1, 2):
            for kind, (v, d) in (("free", ("beta", "alpha")), ("sq", ("gamma", "delta"))):
                blk = linalg.block2x2(self._side(v, 1, s), self._side(d, 1, s),
                                      self._side(v, 2, s), self._side(d, 2, s))
                blk.flags.writeable = False
                parts[kind, s] = blk
        return parts

    def lambda_free_part(self, s):
        """[[beta_1s, alpha_1s], [beta_2s, alpha_2s]] acting on (value; derivative)."""
        return self._parts["free", s]

    def lambda_sq_part(self, s):
        """[[gamma_1s, delta_1s], [gamma_2s, delta_2s]] — the lam^2 coefficient."""
        return self._parts["sq", s]

    def pencil(self, s, lam):
        """M_s(lam) = lambda_free_part + lam^2 * lambda_sq_part; stacked for an array lam."""
        return self.lambda_free_part(s) + np.multiply.outer(np.square(lam), self.lambda_sq_part(s))

    @property
    def is_lambda_free(self):
        return not (np.any(self.lambda_sq_part(1)) or np.any(self.lambda_sq_part(2)))


def ideal_contact(a2_left, a2_right):
    """Continuity of value and of a2-weighted flux; no spectral dependence.

    Row 1 matches values, row 2 matches a2 * derivative with each side's own
    stiffness block.  This is the coupling for which the direct transform's
    junction corrections vanish identically.
    """
    a2_left = np.asarray(a2_left, dtype=complex)
    a2_right = np.asarray(a2_right, dtype=complex)
    r = a2_left.shape[0]
    E = np.eye(r, dtype=complex)
    Z = np.zeros((r, r), dtype=complex)
    return Interface(
        alpha11=Z, alpha12=Z, alpha21=a2_left, alpha22=a2_right,
        beta11=E, beta12=E, beta21=Z, beta22=Z,
        gamma11=Z, gamma12=Z, gamma21=Z, gamma22=Z,
        delta11=Z, delta12=Z, delta21=Z, delta22=Z,
    )


@dataclass(frozen=True)
class Boundary:
    """Boundary operator blocks at l_0: (beta0 + lam^2 gamma0) f + (alpha0 + lam^2 delta0) f'."""

    alpha0: np.ndarray
    beta0: np.ndarray
    gamma0: np.ndarray
    delta0: np.ndarray

    def validate(self, r, name="boundary"):
        for key in ("alpha0", "beta0", "gamma0", "delta0"):
            _block(getattr(self, key), r, f"{name}.{key}")

    def value_row(self, lam):
        return self.beta0 + np.multiply.outer(np.square(lam), self.gamma0)

    def deriv_row(self, lam):
        return self.alpha0 + np.multiply.outer(np.square(lam), self.delta0)

    @property
    def is_lambda_free(self):
        return not (np.any(self.gamma0 != 0) or np.any(self.delta0 != 0))


def dirichlet(r):
    E = np.eye(r, dtype=complex)
    Z = np.zeros((r, r), dtype=complex)
    return Boundary(alpha0=Z, beta0=E, gamma0=Z, delta0=Z)


def neumann(r):
    E = np.eye(r, dtype=complex)
    Z = np.zeros((r, r), dtype=complex)
    return Boundary(alpha0=E, beta0=Z, gamma0=Z, delta0=Z)


SEMI_AXIS = "semi-axis"
FULL_AXIS = "full-axis"


@dataclass(frozen=True)
class ProblemConfig:
    r: int
    mode: str
    layers: tuple
    interfaces: tuple
    boundary: Optional[Boundary] = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "interfaces", tuple(self.interfaces))
        self.validate()

    def validate(self):
        if self.mode not in (SEMI_AXIS, FULL_AXIS):
            raise InvariantViolation(f"unknown mode {self.mode!r}")
        if self.r < 1:
            raise InvariantViolation("system size r must be >= 1")
        if not self.layers:
            raise InvariantViolation("at least one layer required")
        if len(self.interfaces) != len(self.layers) - 1:
            raise InvariantViolation(
                f"{len(self.interfaces)} interface blocks for {len(self.layers)} layers "
                f"(need layers - 1)"
            )
        for i, layer in enumerate(self.layers):
            layer.validate(self.r, name=f"layers[{i}]")
        for i, iface in enumerate(self.interfaces):
            iface.validate(self.r, name=f"interfaces[{i}]")

        if not np.isinf(self.layers[-1].right):
            raise InvariantViolation("last layer must extend to +inf")
        for m in range(len(self.layers) - 1):
            if not np.isclose(self.layers[m].right, self.layers[m + 1].left, atol=0.0, rtol=1e-12):
                raise InvariantViolation(
                    f"layers[{m}].right != layers[{m+1}].left "
                    f"({self.layers[m].right} vs {self.layers[m+1].left})"
                )
            if np.isinf(self.layers[m].right):
                raise InvariantViolation("interior junction at infinity")

        if self.mode == SEMI_AXIS:
            if np.isinf(self.layers[0].left):
                raise InvariantViolation("semi-axis mode needs a finite left boundary l_0")
            if self.boundary is None:
                raise InvariantViolation("semi-axis mode needs a boundary operator")
            self.boundary.validate(self.r)
        else:
            if not np.isneginf(self.layers[0].left):
                raise InvariantViolation("full-axis mode: first layer must extend to -inf")
            if self.boundary is not None:
                raise InvariantViolation("full-axis mode takes no boundary operator")
            if self.r != 1:
                raise InvariantViolation("full-axis mode is scalar only (r = 1)")
            for i, iface in enumerate(self.interfaces):
                if not iface.is_lambda_free:
                    raise InvariantViolation(
                        f"interfaces[{i}]: full-axis mode requires spectral-parameter-free "
                        f"junction conditions (gamma = delta = 0)"
                    )

    # --- geometry helpers -------------------------------------------------

    @property
    def n_interfaces(self):
        return len(self.interfaces)

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def left_end(self):
        """l_0 (finite in semi-axis mode, -inf on the full axis)."""
        return self.layers[0].left

    def junction(self, k):
        """Abscissa l_k of junction k (1-based)."""
        return self.layers[k - 1].right

    @property
    def junctions(self):
        return tuple(self.junction(k) for k in range(1, self.n_layers))

    def layer_index(self, x):
        """Layer containing x; a junction abscissa resolves to the right layer."""
        if self.mode == SEMI_AXIS and x < self.left_end:
            raise OutOfDomain(f"x = {x} lies left of the boundary l_0 = {self.left_end}")
        for m in range(self.n_layers - 1):
            if x < self.layers[m].right:
                return m
        return self.n_layers - 1

    @property
    def is_lambda_free(self):
        ifs = all(i.is_lambda_free for i in self.interfaces)
        bnd = self.boundary.is_lambda_free if self.boundary is not None else True
        return ifs and bnd
