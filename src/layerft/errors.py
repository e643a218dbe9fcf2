"""Exception taxonomy for layerft.

Everything raised on purpose derives from LayerFTError.  Configuration
problems (bad files, inconsistent shapes, violated structural assumptions)
derive from ConfigError so the CLI can map them to a distinct exit code.
"""


class LayerFTError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LayerFTError):
    """Base class for problems with a problem description itself."""


class ParseError(ConfigError):
    """Config file could not be parsed into a problem description."""


class DimensionMismatch(ConfigError):
    """Arrays in a problem description disagree about the block size r."""


class InvariantViolation(ConfigError):
    """A structural assumption of the method does not hold.

    Examples: non-Hermitian stiffness matrix, junction abscissae out of
    order, a full-axis problem with boundary conditions attached.
    """


class SizeLimitExceeded(ConfigError):
    """A transform past quadrature.MAX_TRANSFORM_SIZE, or a document whose blocks
    would take more than configio.MAX_BLOCK_BYTES."""


class NonSquare(LayerFTError):
    """A matrix function was handed a non-square matrix."""


class Singular(LayerFTError):
    """A linear solve hit a matrix whose reciprocal condition estimate is
    below the configured floor."""


class OutOfDomain(LayerFTError):
    """Kernel evaluation requested left of the boundary point."""


class EmptyImage(LayerFTError):
    """Inverse transform received an image with no grid points."""


class NonConvergentTail(LayerFTError):
    """Successive damped spectral integrals disagree by more than the
    configured bound; the τ → 0 extrapolation is not trustworthy."""


class RegularityViolation(LayerFTError):
    """An interface pencil is singular at some spectral parameter.

    The problem is not regular there: the recursion transferring the
    fundamental system across the junction cannot be carried out.
    """

    def __init__(self, message, lam=None, junction=None):
        super().__init__(message)
        self.lam = lam
        self.junction = junction


class DegenerateBoundary(LayerFTError):
    """A boundary functional of the fundamental system is singular.

    The kernels divide by these functionals; at an eigenvalue-like
    parameter the division is meaningless and the kernel is flagged.
    """

    def __init__(self, message, lam=None):
        super().__init__(message)
        self.lam = lam


class SpectrumOnCut(LayerFTError):
    """Principal square root undefined: an eigenvalue sits on the branch cut
    (the closed negative real axis)."""


class OverflowRisk(LayerFTError):
    """Matrix exponential argument too large to evaluate reliably."""


class GridTooCoarse(LayerFTError):
    """Not enough samples per layer for the requested finite-difference
    stencil."""


class UnstableStep(LayerFTError):
    """Time step violates the stability gate of the reference marcher."""


class ConjugationViolated(LayerFTError):
    """Initial data incompatible with the homogeneous boundary/interface
    conditions assumed by the evolution solver."""


class MissingTraces(LayerFTError):
    """A grid function was asked for junction traces it does not carry."""


class UnsupportedDimension(ConfigError):
    """Radial machinery asked for an ambient dimension it does not cover."""


class NonpositiveHeight(ConfigError):
    """Half-space evaluation requested at a height x <= 0."""


class WrongMode(LayerFTError):
    """A semi-axis statement (the operational identity, heat flow, the
    finite-difference oracle) was applied to a full-axis problem."""
