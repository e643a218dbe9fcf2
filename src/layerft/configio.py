"""Problem-description documents: parse and emit.

A document is YAML with sections problem / layers / interfaces / boundary /
quadrature.  Matrices are nested lists; entries may be numbers or strings
accepted by complex() ("1+2j").  Layer bounds accept numbers or the strings
"inf" / "-inf".  Junction conditions are given either in full (any of the
sixteen blocks alpha11..delta22; missing blocks are zero) or via the
shorthand `ideal_contact: true`, which expands to value continuity plus
continuity of the stiffness-weighted flux of the two adjacent layers.  The
boundary section accepts `dirichlet: true`, `neumann: true`, or explicit
blocks alpha0/beta0/gamma0/delta0.

emit_config writes the fully expanded long form with 17-significant-digit
floats, so parse -> emit -> parse is the identity on every stored number.
"""

import math

import numpy as np
import yaml

from .errors import DimensionMismatch, InvariantViolation, ParseError
from .problem import (
    FULL_AXIS,
    SEMI_AXIS,
    Boundary,
    Interface,
    Layer,
    ProblemConfig,
    dirichlet,
    ideal_contact,
    neumann,
)
from .quadrature import QuadratureSpec

_SECTIONS = ("problem", "layers", "interfaces", "boundary", "quadrature")
_QUAD_FIELDS = (
    "lambda_min",
    "lambda_max",
    "lambda_steps",
    "tau_schedule",
    "x_max",
    "xi_quadrature_order",
    "tail_tolerance",
)


def _num(value, name):
    try:
        if isinstance(value, (int, float, complex)):
            return complex(value)
        if isinstance(value, str):
            return complex(value.replace(" ", ""))
    except (ValueError, OverflowError):       # an int past the float range overflows
        pass
    raise ParseError(f"{name}: cannot read {value!r} as a number")


def _bound(value, name):
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf"):
            return math.inf
        if s == "-inf":
            return -math.inf
        try:
            return float(s)
        except ValueError:
            raise ParseError(f"{name}: cannot read {value!r} as a coordinate") from None
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParseError(f"{name}: cannot read {value!r} as a coordinate")


def _matrix(value, r, name):
    if isinstance(value, (int, float, complex, str)):
        if r != 1:
            raise DimensionMismatch(
                f"{name} is a scalar but the problem has r = {r}", block=name
            )
        return np.array([[_num(value, name)]], dtype=complex)
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ParseError(f"{name}: expected an r x r nested list")
    rows = len(value)
    cols = {len(row) for row in value}
    if rows != r or cols != {r}:
        raise DimensionMismatch(
            f"{name} is {rows}x{sorted(cols)} but the problem has r = {r}", block=name
        )
    return np.array(
        [[_num(v, f"{name}[{i}][{j}]") for j, v in enumerate(row)] for i, row in enumerate(value)],
        dtype=complex,
    )


def _quad_number(value, name, integral=False):
    """A finite quadrature number (an integer where integral is set)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"quadrature.{name}: cannot read {value!r} as a number") from None
    if not math.isfinite(x) or (integral and x != int(x)):
        kind = "integer" if integral else "number"
        raise ParseError(f"quadrature.{name}: expected a finite {kind}, got {value!r}")
    return int(x) if integral else x


def _require_map(value, name):
    if not isinstance(value, dict):
        raise ParseError(f"section {name!r} must be a mapping")
    return value


def parse_config(source):
    """Parse a document (text or path-like) into (ProblemConfig, QuadratureSpec)."""
    text = source
    label = "<string>"
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" not in source and source.endswith((".cfg", ".yml", ".yaml")):
        label = source
        with open(source) as fh:
            text = fh.read()
    elif not isinstance(source, str):
        label = str(source)
        with open(source) as fh:
            text = fh.read()

    # libyaml's loader, where PyYAML has it, parses about ten times faster.  Bad
    # text raises YAMLError, a scalar that int() or date() refuses ValueError, and
    # nesting past the pure-Python parser's recursion limit RecursionError.
    try:
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{label}:{mark.line + 1}" if mark is not None else label
        raise ParseError(f"{where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{label}: document must be a mapping of sections")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ParseError(f"{label}: unknown sections {sorted(unknown, key=str)}")

    problem = _require_map(doc.get("problem", {}), "problem")
    if "r" not in problem:
        raise ParseError("problem.r is required")
    r = problem["r"]
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ParseError(f"problem.r must be a positive integer, got {r!r}")
    mode = problem.get("mode", SEMI_AXIS)
    if mode not in (SEMI_AXIS, FULL_AXIS):
        raise ParseError(f"problem.mode must be '{SEMI_AXIS}' or '{FULL_AXIS}', got {mode!r}")
    extra = set(problem) - {"r", "mode"}
    if extra:
        raise ParseError(f"problem: unknown keys {sorted(extra, key=str)}")

    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ParseError("layers: need a nonempty list")
    layers = []
    for i, entry in enumerate(raw_layers):
        entry = _require_map(entry, f"layers[{i}]")
        extra = set(entry) - {"left", "right", "a2", "g2"}
        if extra:
            raise ParseError(f"layers[{i}]: unknown keys {sorted(extra, key=str)}")
        if "left" not in entry or "right" not in entry or "a2" not in entry:
            raise ParseError(f"layers[{i}]: left, right and a2 are required")
        a2 = _matrix(entry["a2"], r, f"layers[{i}].a2")
        g2 = (
            _matrix(entry["g2"], r, f"layers[{i}].g2")
            if "g2" in entry
            else np.zeros((r, r), dtype=complex)
        )
        layers.append(
            Layer(
                left=_bound(entry["left"], f"layers[{i}].left"),
                right=_bound(entry["right"], f"layers[{i}].right"),
                a2=a2,
                g2=g2,
            )
        )

    raw_ifaces = doc.get("interfaces", [])
    if raw_ifaces is None:
        raw_ifaces = []
    if not isinstance(raw_ifaces, list):
        raise ParseError("interfaces: expected a list")
    interfaces = []
    for i, entry in enumerate(raw_ifaces):
        entry = _require_map(entry, f"interfaces[{i}]")
        if entry.get("ideal_contact"):
            extra = set(entry) - {"ideal_contact"}
            if extra:
                raise ParseError(f"interfaces[{i}]: ideal_contact excludes explicit blocks "
                                 f"{sorted(extra, key=str)}")
            if i + 1 >= len(layers):
                raise ParseError(f"interfaces[{i}]: no adjacent layer pair")
            interfaces.append(ideal_contact(layers[i].a2, layers[i + 1].a2))
            continue
        extra = set(entry) - set(Interface.BLOCK_NAMES)
        if extra:
            raise ParseError(f"interfaces[{i}]: unknown blocks {sorted(extra, key=str)}")
        blocks = {
            name: (
                _matrix(entry[name], r, f"interfaces[{i}].{name}")
                if name in entry
                else np.zeros((r, r), dtype=complex)
            )
            for name in Interface.BLOCK_NAMES
        }
        interfaces.append(Interface(**blocks))

    boundary = None
    if "boundary" in doc and doc["boundary"] is not None:
        entry = _require_map(doc["boundary"], "boundary")
        if entry.get("dirichlet"):
            if set(entry) - {"dirichlet"}:
                raise ParseError("boundary: dirichlet excludes explicit blocks")
            boundary = dirichlet(r)
        elif entry.get("neumann"):
            if set(entry) - {"neumann"}:
                raise ParseError("boundary: neumann excludes explicit blocks")
            boundary = neumann(r)
        else:
            extra = set(entry) - {"alpha0", "beta0", "gamma0", "delta0"}
            if extra:
                raise ParseError(f"boundary: unknown blocks {sorted(extra, key=str)}")
            blocks = {
                name: (
                    _matrix(entry[name], r, f"boundary.{name}")
                    if name in entry
                    else np.zeros((r, r), dtype=complex)
                )
                for name in ("alpha0", "beta0", "gamma0", "delta0")
            }
            if all(np.all(b == 0) for b in blocks.values()):
                raise InvariantViolation("boundary: all blocks are zero")
            boundary = Boundary(**blocks)

    quad_entry = _require_map(doc.get("quadrature", {}) or {}, "quadrature")
    extra = set(quad_entry) - set(_QUAD_FIELDS)
    if extra:
        raise ParseError(f"quadrature: unknown keys {sorted(extra, key=str)}")
    kwargs = {}
    for key in _QUAD_FIELDS:
        if key not in quad_entry:
            continue
        val = quad_entry[key]
        if key == "tau_schedule":
            if not isinstance(val, list) or not val:
                raise ParseError("quadrature.tau_schedule must be a nonempty list")
            kwargs[key] = tuple(_quad_number(v, "tau_schedule") for v in val)
        elif key in ("lambda_steps", "xi_quadrature_order"):
            kwargs[key] = _quad_number(val, key, integral=True)
        else:
            kwargs[key] = _quad_number(val, key)
    spec = QuadratureSpec(**kwargs)

    config = ProblemConfig(
        r=r, mode=mode, layers=tuple(layers), interfaces=tuple(interfaces),
        boundary=boundary,
    )
    return config, spec


# --- emission ----------------------------------------------------------------


def _emit_entry(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else str(z)


def _emit_matrix(m):
    return [[_emit_entry(v) for v in row] for row in np.asarray(m)]


def _emit_bound(v):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def emit_config(config, spec=None, path=None):
    """Serialize to the long-form document; returns the YAML text."""
    doc = {
        "problem": {"r": config.r, "mode": config.mode},
        "layers": [
            {
                "left": _emit_bound(l.left),
                "right": _emit_bound(l.right),
                "a2": _emit_matrix(l.a2),
                "g2": _emit_matrix(l.g2),
            }
            for l in config.layers
        ],
        "interfaces": [
            {name: _emit_matrix(getattr(iface, name)) for name in Interface.BLOCK_NAMES}
            for iface in config.interfaces
        ],
    }
    if config.boundary is not None:
        doc["boundary"] = {
            name: _emit_matrix(getattr(config.boundary, name))
            for name in ("alpha0", "beta0", "gamma0", "delta0")
        }
    if spec is not None:
        doc["quadrature"] = {
            "lambda_min": float(spec.lambda_min),
            "lambda_max": float(spec.lambda_max),
            "lambda_steps": int(spec.lambda_steps),
            "tau_schedule": [float(t) for t in spec.tau_schedule],
            "x_max": float(spec.x_max),
            "xi_quadrature_order": int(spec.xi_quadrature_order),
            "tail_tolerance": float(spec.tail_tolerance),
        }
    text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=100)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
