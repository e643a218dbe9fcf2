"""Problem-description documents: parse and emit.

A document is YAML with sections problem / layers / interfaces / boundary /
quadrature.  Matrices are nested lists; entries may be numbers or strings
accepted by complex() ("1+2j").  Layer bounds accept numbers or the strings
"inf" / "-inf".  Junction conditions are given either in full (any of the
sixteen blocks alpha11..delta22; missing blocks are zero) or via the
shorthand `ideal_contact: true`, which expands to value continuity plus
continuity of the stiffness-weighted flux of the two adjacent layers.  The
boundary section accepts `dirichlet: true`, `neumann: true`, or explicit
blocks alpha0/beta0/gamma0/delta0.  Those three are the only booleans and
take nothing else: true selects the shorthand, false reads as if the key
were absent, and a YAML true/yes/on where a number belongs is refused, not
read as 1.  A document whose blocks would take more than MAX_BLOCK_BYTES is
refused before any is converted: YAML aliases let a short text name one big
matrix in every layer.

emit_config writes the fully expanded long form with 17-significant-digit
floats, so parse -> emit -> parse is the identity on every stored number.
"""

import dataclasses
import math

import numpy as np
import yaml

from .errors import DimensionMismatch, InvariantViolation, ParseError, SizeLimitExceeded
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
# Memory the complex r x r blocks of one document may take (parse_config).
MAX_BLOCK_BYTES = 1 << 28


def _num(value, name):
    try:
        if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
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
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParseError(f"{name}: cannot read {value!r} as a coordinate")


def _matrix(value, r, name):
    if isinstance(value, (int, float, complex, str)):
        if r != 1:
            raise DimensionMismatch(f"{name} is a scalar but the problem has r = {r}")
        return np.array([[_num(value, name)]], dtype=complex)
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ParseError(f"{name}: expected an r x r nested list")
    rows = len(value)
    cols = {len(row) for row in value}
    if rows != r or cols != {r}:
        raise DimensionMismatch(f"{name} is {rows}x{sorted(cols)} but the problem has r = {r}")
    return np.array(
        [[_num(v, f"{name}[{i}][{j}]") for j, v in enumerate(row)] for i, row in enumerate(value)],
        dtype=complex,
    )


def _blocks(entry, names, r, where):
    """The named r x r blocks of a section; one it omits is zero."""
    return {name: _matrix(entry[name], r, f"{where}.{name}") if name in entry
            else np.zeros((r, r), dtype=complex) for name in names}


def _quad_number(value, name, integral=False):
    """A finite quadrature number (an integer where integral is set)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"quadrature.{name}: cannot read {value!r} as a number") from None
    if not math.isfinite(x) or (integral and x != int(x)):
        kind = "integer" if integral else "number"
        raise ParseError(f"quadrature.{name}: expected a finite {kind}, got {value!r}")
    return int(x) if integral else x


def _quad_value(value, field):
    """One quadrature key read as its QuadratureSpec field's type: number, integer or list."""
    if field.type is tuple:
        if not isinstance(value, list) or not value:
            raise ParseError(f"quadrature.{field.name} must be a nonempty list")
        return tuple(_quad_number(v, field.name) for v in value)
    return _quad_number(value, field.name, integral=field.type is int)


def _require_map(value, where, allowed=None, what="unknown keys"):
    """value, if it is a mapping whose keys all lie in allowed (None: any keys)."""
    if not isinstance(value, dict):
        raise ParseError(f"section {where!r} must be a mapping")
    extra = allowed is not None and set(value) - set(allowed)
    if extra:
        raise ParseError(f"{where}: {what} {sorted(extra, key=str)}")
    return value


def _shorthand(entry, keys, where):
    """(entry less its shorthand keys, those set true); each takes a YAML boolean only."""
    for key in keys:
        if not isinstance(entry.get(key, False), bool):
            raise ParseError(f"{where}.{key}: expected true or false, got {entry[key]!r}")
    return {k: v for k, v in entry.items() if k not in keys}, [k for k in keys if entry.get(k)]


def _keys(cls):
    """The section keys a dataclass declares: its field names."""
    return [f.name for f in dataclasses.fields(cls)]


def parse_config(source):
    """Parse a document (text or path-like) into (ProblemConfig, QuadratureSpec)."""
    text = source
    label = "<string>"
    if isinstance(source, str) and "\n" not in source and source.endswith((".cfg", ".yml", ".yaml")):
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
    _require_map(problem, "problem", ("r", "mode"))

    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ParseError("layers: need a nonempty list")
    raw_ifaces = doc.get("interfaces", [])
    if raw_ifaces is None:
        raw_ifaces = []
    # two blocks per layer, sixteen per junction and four at l_0, counted before any is read
    n_ifaces = len(raw_ifaces) if isinstance(raw_ifaces, list) else 0
    n_blocks = 2 * len(raw_layers) + 16 * n_ifaces + 4
    if 16 * r * r * n_blocks > MAX_BLOCK_BYTES:
        raise SizeLimitExceeded(
            f"{len(raw_layers)} layers and {n_ifaces} interfaces at r = {r}: {n_blocks} blocks "
            f"of r x r complex entries exceed the limit of {MAX_BLOCK_BYTES} bytes")
    layers = []
    for i, entry in enumerate(raw_layers):
        where = f"layers[{i}]"
        _require_map(entry, where, _keys(Layer))
        if "left" not in entry or "right" not in entry or "a2" not in entry:
            raise ParseError(f"{where}: left, right and a2 are required")
        blocks = _blocks(entry, ("a2", "g2"), r, where)
        layers.append(Layer(left=_bound(entry["left"], f"{where}.left"),
                            right=_bound(entry["right"], f"{where}.right"), **blocks))

    if not isinstance(raw_ifaces, list):
        raise ParseError("interfaces: expected a list")
    interfaces = []
    for i, entry in enumerate(raw_ifaces):
        where = f"interfaces[{i}]"
        entry, shorthand = _shorthand(_require_map(entry, where), ("ideal_contact",), where)
        if shorthand:
            _require_map(entry, where, (), "ideal_contact excludes explicit blocks")
            if i + 1 >= len(layers):
                raise ParseError(f"{where}: no adjacent layer pair")
            interfaces.append(ideal_contact(layers[i].a2, layers[i + 1].a2))
        else:
            _require_map(entry, where, Interface.BLOCK_NAMES, "unknown blocks")
            interfaces.append(Interface(**_blocks(entry, Interface.BLOCK_NAMES, r, where)))

    boundary = None
    if doc.get("boundary") is not None:
        shorthands = {"dirichlet": dirichlet, "neumann": neumann}
        entry, shorthand = _shorthand(_require_map(doc["boundary"], "boundary"),
                                      shorthands, "boundary")
        if shorthand:
            if entry or len(shorthand) > 1:
                raise ParseError(f"boundary: {shorthand[0]} excludes explicit blocks")
            boundary = shorthands[shorthand[0]](r)
        else:
            _require_map(entry, "boundary", Boundary.BLOCK_NAMES, "unknown blocks")
            blocks = _blocks(entry, Boundary.BLOCK_NAMES, r, "boundary")
            if all(np.all(b == 0) for b in blocks.values()):
                raise InvariantViolation("boundary: all blocks are zero")
            boundary = Boundary(**blocks)

    quad_entry = doc.get("quadrature")
    quad_entry = _require_map({} if quad_entry is None else quad_entry, "quadrature",
                              _keys(QuadratureSpec))
    spec = QuadratureSpec(**{f.name: _quad_value(quad_entry[f.name], f)
                             for f in dataclasses.fields(QuadratureSpec) if f.name in quad_entry})

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


# The emitter of each field type; a float is a layer bound or a finite quadrature number.
_EMITTERS = {float: _emit_bound, int: int, tuple: lambda v: [float(t) for t in v],
             np.ndarray: _emit_matrix}


def _emit_section(obj):
    """A dataclass as a section: each field in declaration order, written by its type."""
    return {f.name: _EMITTERS[f.type](getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def emit_config(config, spec=None):
    """Serialize to the long-form document; returns the YAML text."""
    doc = {
        "problem": {"r": config.r, "mode": config.mode},
        "layers": [_emit_section(layer) for layer in config.layers],
        "interfaces": [_emit_section(iface) for iface in config.interfaces],
    }
    if config.boundary is not None:
        doc["boundary"] = _emit_section(config.boundary)
    if spec is not None:
        doc["quadrature"] = _emit_section(spec)
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=100)
