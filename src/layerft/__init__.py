"""layerft: finite integral transforms for layered media with matrix
coefficients.

The package builds the direct and inverse transform attached to a
second-order vector operator on a piecewise-homogeneous axis or semi-axis,
with general two-point conjugation conditions at the junctions (including
spectral-parameter-dependent ones), plus an operational-calculus layer for
evolution problems and a radial variant for rotationally symmetric data in
n dimensions.
"""

from .errors import (
    ConfigError,
    ConjugationViolated,
    DegenerateBoundary,
    DimensionMismatch,
    EmptyImage,
    GridTooCoarse,
    InvariantViolation,
    LayerFTError,
    MissingTraces,
    NonConvergentTail,
    NonpositiveHeight,
    NonSquare,
    OutOfDomain,
    OverflowRisk,
    ParseError,
    RegularityViolation,
    Singular,
    SizeLimitExceeded,
    SpectrumOnCut,
    UnstableStep,
    UnsupportedDimension,
    WrongMode,
)
from .problem import (
    Boundary,
    Interface,
    Layer,
    ProblemConfig,
    ideal_contact,
)
from .quadrature import QuadratureSpec
from .gridfn import LayerSamples, PiecewiseGridFunction, SpectralImage
from .basis import build_basis, eval_u, eval_u_star
from .transform import (
    RoundtripReport,
    forward_transform,
    inverse_transform,
    roundtrip_report,
)
from .operator import (
    IdentityReport,
    apply_B,
    fd_reference,
    heat_image,
    solve_heat,
    verify_basic_identity,
)
from .radial import (
    RadialProfile,
    bessel_j,
    forward_nd,
    inverse_nd,
    poisson_halfspace,
)
from .configio import emit_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "ConfigError",
    "ConjugationViolated",
    "DegenerateBoundary",
    "DimensionMismatch",
    "GridTooCoarse",
    "IdentityReport",
    "Interface",
    "InvariantViolation",
    "Layer",
    "EmptyImage",
    "LayerFTError",
    "LayerSamples",
    "MissingTraces",
    "NonConvergentTail",
    "NonpositiveHeight",
    "NonSquare",
    "OutOfDomain",
    "OverflowRisk",
    "ParseError",
    "Singular",
    "SizeLimitExceeded",
    "PiecewiseGridFunction",
    "ProblemConfig",
    "QuadratureSpec",
    "RadialProfile",
    "RegularityViolation",
    "RoundtripReport",
    "SpectralImage",
    "SpectrumOnCut",
    "UnstableStep",
    "UnsupportedDimension",
    "WrongMode",
    "apply_B",
    "bessel_j",
    "build_basis",
    "emit_config",
    "eval_u",
    "eval_u_star",
    "fd_reference",
    "forward_nd",
    "forward_transform",
    "heat_image",
    "ideal_contact",
    "inverse_nd",
    "inverse_transform",
    "parse_config",
    "poisson_halfspace",
    "roundtrip_report",
    "solve_heat",
    "verify_basic_identity",
]
