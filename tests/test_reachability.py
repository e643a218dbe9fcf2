"""Everything src/ declares has a user, or an allow-list says why not.

- Every top-level function and class, and every method and property of such a
  class but the dunders, is reached: its name is read by other src/ code
  (outside its own body), by a script, or by the benchmark (an ENTRIES name in
  perfbench/tracing.py or a call in perfbench/workloads.py).  An export (the
  package __init__'s import, or its __all__) is not a use.
- Every parameter with a default of such a function or method (an __init__
  under its class's name) is passed, by keyword or by position, by some call
  in src/, a script or perfbench/workloads.py.  A call with *args or **kwargs
  passes every parameter.  A value no caller sets is a constant.
- Every annotated field of a top-level class is read as an attribute by that
  code, not counting the reads of a one-point view's replace(self, ...).
- Every string key src/ stores in a meta mapping (a meta= dict literal,
  meta = {...} or meta[key] = ...) is read by that code with meta[key] or
  meta.get(key).
- Every QuadratureSpec field is set to a value other than its default by a
  bundled config, a script or perfbench/workloads.py, or SETTABLE says why it
  stays a setting.  A setting with one value in use is a constant.
"""

import ast
import math
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent

INTERFACE_BLOCK = "read by name through Interface._side and configio._emit_section"

ALLOWED = {
    "basis.junction_residual_primal": "tier-1 oracle of the junction conditions (ROADMAP item 2)",
    "basis.junction_residual_dual": "tier-1 oracle of the dual junction conditions",
    "basis.boundary_residual": "tier-1 oracle of the boundary condition",
    "basis.dual_boundary_residual": "tier-1 oracle of the dual boundary condition",
    "linalg.solve_linear": "acceptance criterion 10 calls it",
    "problem.ProblemConfig.n_interfaces": "acceptance criteria 2 and 3 call it",
    "basis.SpectralBasisBatch.coefficients": "acceptance criterion 2 calls it",
    "transform.forward_transform(lambdas)": "acceptance criterion 4 passes explicit abscissae",
    "basis.eval_u": "exported; test_basis.py's test_eval_u_junction_tie_breaks_right calls it",
    "basis.eval_u_star": "exported; test_basis.py's test_eval_u_junction_tie_breaks_right "
                         "calls it",
    "radial.bessel_j": "exported; test_radial.py's test_bessel_matches_scipy and "
                       "test_bessel_integer_reflection call it",
    **{f"problem.Interface.{kind}{j}{s}": INTERFACE_BLOCK
       for kind in ("alpha", "beta", "gamma", "delta") for j in "12" for s in "12"},
    'meta["xi_tail_estimate"]': "ROADMAP item 2's xi-tail health number; test_axis.py reads it",
}

# the calls that make a spec from keywords
SPEC_MAKERS = ("QuadratureSpec", "replace")

SETTABLE = {
    "lambda_min": "ROADMAP items 1, 5 and 6 measure at lambda_min 1e-6 to 1e-8",
    "x_max": "the truncation radius of the caller's data",
}


def names_read(tree, skip=None):
    """Names, attribute names and imported names in tree, outside the subtree skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return found


def assigned(tree, name):
    """The value node of the top-level assignment to name."""
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def outside_names(scripts, tracing, workloads):
    """What the sources beyond src/ code reach: script names and the benchmark's."""
    found = set().union(*(names_read(ast.parse(text)) for text in scripts))
    for node in ast.walk(assigned(ast.parse(tracing), "ENTRIES")):
        # ("layerft.module", "name") pairs
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
                and node.elts[0].value.startswith("layerft")):
            found.add(node.elts[1].value)
    for node in ast.walk(ast.parse(workloads)):
        if isinstance(node, ast.Call):
            found.add(getattr(node.func, "attr", getattr(node.func, "id", None)))
    return found


def definitions(tree):
    """(qualified name, node) of each top-level def and class, then of its non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def unreached(modules, outside):
    """module.name of each definition of modules ({stem: source}) nothing reaches.

    The names the package __init__ imports are exports, not uses.
    """
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    readers = [tree for stem, tree in trees.items() if stem != "__init__"]
    missing = []
    for stem, tree in trees.items():
        for qualified, node in definitions(tree):
            if node.name in outside:
                continue
            if not any(node.name in names_read(t, skip=node) for t in readers):
                missing.append(f"{stem}.{qualified}")
    return missing


def calls(trees):
    """{callee name: [(positional count, keyword names)]} of every call in trees.

    A call with *args or **kwargs passes everything: (inf, None).
    """
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                star = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
                found.setdefault(name, []).append(
                    (math.inf, None) if star else (len(node.args), {k.arg for k in node.keywords}))
    return found


def defaulted(qualified, callee, node, skip):
    """(qualified, callee, parameter, call position or None) of each defaulted parameter of node.

    skip is the number of leading parameters a call does not pass (self); a
    keyword-only parameter has no position.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield qualified, callee, arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield qualified, callee, arg.arg, None


def defaulted_parameters(tree):
    """defaulted() of every top-level function and every method of a top-level class.

    An __init__ is called, and named, by its class's name.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from defaulted(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    qualified = node.name if item.name == "__init__" else f"{node.name}.{callee}"
                    yield from defaulted(qualified, callee, item, 0 if static else 1)


def unset_parameters(modules, readers):
    """module.function(parameter) of each defaulted parameter that no call passes.

    The calls are those of modules ({stem: source}) and of readers (sources).
    """
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    passed = calls([*trees.values(), *map(ast.parse, readers)])
    missing = []
    for stem, tree in trees.items():
        for qualified, callee, name, position in defaulted_parameters(tree):
            if not any(keys is None or name in keys or (position is not None and count > position)
                       for count, keys in passed.get(callee, ())):
                missing.append(f"{stem}.{qualified}({name})")
    return missing


def self_copy(node):
    """Whether node is replace(self, ...), the one-point view an at method returns."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "replace"
            and bool(node.args) and getattr(node.args[0], "id", None) == "self")


def attributes_read(tree):
    """Attribute names tree loads, outside every self_copy."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if self_copy(node):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unread_fields(modules, readers):
    """module.Class.field of each annotated field of a top-level class no code reads."""
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    read = set().union(*map(attributes_read, [*trees.values(), *map(ast.parse, readers)]))
    missing = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                missing += [f"{stem}.{node.name}.{item.target.id}" for item in node.body
                            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                            and item.target.id not in read]
    return missing


def is_meta(node):
    """Whether node is a meta mapping: the name meta or an attribute .meta."""
    return getattr(node, "id", getattr(node, "attr", None)) == "meta"


def meta_keys_stored(tree):
    """String keys tree stores in a meta mapping: meta={...}, meta = {...}, meta[key] = ..."""
    keys = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.keyword) and node.arg == "meta"
                and isinstance(node.value, ast.Dict)):
            keys += node.value.keys
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if is_meta(target) and isinstance(node.value, ast.Dict):
                    keys += node.value.keys
                elif isinstance(target, ast.Subscript) and is_meta(target.value):
                    keys.append(target.slice)
    return {k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def meta_keys_read(tree):
    """String keys tree reads from a meta mapping: meta[key] or meta.get(key)."""
    keys = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and is_meta(node.value)):
            keys.append(node.slice)
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get"
              and is_meta(node.func.value) and node.args):
            keys.append(node.args[0])
    return {k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def unread_meta_keys(modules, readers):
    """meta["key"] of each key modules store in a meta mapping and no code reads."""
    trees = [ast.parse(text) for text in modules.values()]
    stored = set().union(*map(meta_keys_stored, trees))
    read = set().union(*map(meta_keys_read, [*trees, *map(ast.parse, readers)]))
    return [f'meta["{key}"]' for key in sorted(stored - read)]


def field_defaults(source):
    """{field: default} of the top-level class QuadratureSpec in source (literal defaults)."""
    cls = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == "QuadratureSpec")
    return {item.target.id: ast.literal_eval(item.value) for item in cls.body
            if isinstance(item, ast.AnnAssign) and item.value is not None}


def _differs(value, default):
    """Whether a set value (a list read as a tuple) is not the default."""
    return (tuple(value) if isinstance(value, list) else value) != default


def _sets_other(node, default):
    """Whether the value node is a literal other than default, or no literal (a computed value)."""
    try:
        return _differs(ast.literal_eval(node), default)
    except ValueError:
        return True


def fields_set(defaults, configs, sources):
    """The fields of defaults that a config or a source sets to a value other than the default.

    A config (YAML text) sets the keys of its quadrature section.  A source
    sets the keywords of every call of QuadratureSpec or replace and the
    string keys of every dict literal (the spec's ** arguments): to another
    value when that is a literal other than the default, or is not a literal.
    """
    found = set()
    for text in configs:
        section = yaml.safe_load(text).get("quadrature") or {}
        found |= {k for k, v in section.items() if k in defaults and _differs(v, defaults[k])}
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) in SPEC_MAKERS:
                pairs = [(k.arg, k.value) for k in node.keywords]
            elif isinstance(node, ast.Dict):
                pairs = [(getattr(k, "value", None), v) for k, v in zip(node.keys, node.values)]
            else:
                continue
            found |= {key for key, value in pairs
                      if key in defaults and _sets_other(value, defaults[key])}
    return found


def test_the_check_finds_a_planted_unreachable_function():
    modules = {
        "a": "def used():\n    return helper()\n\ndef helper():\n    return 1\n\n"
             "def orphan():\n    return orphan()\n\nclass Shown:\n"
             "    def __init__(self):\n        self.called()\n\n"
             "    def called(self):\n        pass\n\n"
             "    @property\n    def unread(self):\n        return self.unread\n",
        "b": "from .a import used\n\ndef bench_only():\n    return used()\n\n"
             "def traced():\n    pass\n\ndef scripted():\n    pass\n",
        "__init__": "from .a import Shown\n\n__all__ = ['Shown']\n",
    }
    outside = outside_names(
        scripts=["from layerft.b import scripted\nscripted()\n"],
        tracing="ENTRIES = ((\"b.traced\", [(\"layerft.b\", \"traced\")], None),)\n",
        workloads="import layerft.b as b\nb.bench_only()\n",
    )
    # an export alone does not reach Shown
    assert unreached(modules, outside) == ["a.orphan", "a.Shown", "a.Shown.unread"]
    assert unreached(modules, set()) == ["a.orphan", "a.Shown", "a.Shown.unread", "b.bench_only",
                                         "b.traced", "b.scripted"]


def test_the_check_finds_a_planted_default_no_caller_sets():
    modules = {
        "a": "def f(x, scale=1.0, *, mode='a', quiet=False):\n    return x\n\n"
             "class K:\n    def __init__(self, n=1, m=2):\n        pass\n\n"
             "    def at(self, i, order=0):\n        return i\n\n"
             "    @staticmethod\n    def s(v=0):\n        return v\n",
        "b": "from .a import K, f\n\ndef g(*args):\n    return f(1, 2), K(3).at(0), K.s(*args)\n",
    }
    script = "from layerft.a import f\nf(0, mode='b')\n"
    assert unset_parameters(modules, [script]) == ["a.f(quiet)", "a.K(m)", "a.K.at(order)"]
    assert unset_parameters(modules, []) == ["a.f(mode)", "a.f(quiet)", "a.K(m)", "a.K.at(order)"]


def test_the_check_finds_a_planted_unread_field():
    modules = {
        "a": "@dataclass\nclass P:\n    x: float\n    y: float\n    z: float = 0.0\n\n"
             "    def at(self, i):\n        return replace(self, x=self.x[i], z=self.z[i])\n\n"
             "def use(p):\n    p.z = 1.0\n    return p.y\n",
    }
    assert unread_fields(modules, ["print(p.x)\n"]) == ["a.P.z"]
    assert unread_fields(modules, []) == ["a.P.x", "a.P.z"]


def test_the_check_finds_a_planted_unread_meta_key():
    modules = {
        "a": "def make(x):\n    meta = {'kept': 1, 'lost': 2}\n    meta['late'] = 3\n"
             "    return Image(x, meta={'direct': 4})\n\n"
             "def show(image):\n    return image.meta['kept'], image.meta.get('direct')\n",
    }
    assert unread_meta_keys(modules, ["print(image.meta['late'])\n"]) == ['meta["lost"]']
    assert unread_meta_keys(modules, []) == ['meta["late"]', 'meta["lost"]']


def test_the_check_finds_a_planted_field_no_caller_sets():
    source = ("@dataclass(frozen=True)\nclass QuadratureSpec:\n    a: float = 1.0\n"
              "    b: int = 2\n    c: tuple = (1.0, 2.0)\n    d: float = 0.5\n    e: int = 3\n"
              "    f: float = 4.0\n\n    def validate(self):\n        pass\n")
    defaults = field_defaults(source)
    assert defaults == {"a": 1.0, "b": 2, "c": (1.0, 2.0), "d": 0.5, "e": 3, "f": 4.0}
    # a and b are set to their defaults only, f by nobody
    configs = ["problem: {r: 1}\nquadrature: {a: 1.0e+0, c: [1.0, 3.0]}\n", "problem: {r: 1}\n"]
    sources = ["spec = replace(spec, b=2, d=width / 2)\nsample(f, f=5.0)\n",
               "SPEC = {'e': 4, 'b': 2}\n"]
    assert fields_set(defaults, configs, sources) == {"c", "d", "e"}
    assert fields_set(defaults, configs[:1], []) == {"c"}
    assert fields_set(defaults, [], []) == set()


def test_every_spec_field_is_set_by_a_caller_or_allowed():
    defaults = field_defaults((ROOT / "src" / "layerft" / "quadrature.py").read_text())
    configs = [p.read_text() for p in sorted((ROOT / "configs").glob("*.cfg"))]
    sources = [p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))]
    sources.append((ROOT / "perfbench" / "workloads.py").read_text())
    unset = set(defaults) - fields_set(defaults, configs, sources)
    assert sorted(unset - set(SETTABLE)) == [], "set by no caller and not allowed: a constant"
    assert sorted(set(SETTABLE) - unset) == [], "allowed but set: drop the entry"


def test_every_src_definition_is_reached_or_allowed():
    modules = {p.stem: p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    scripts = [p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))]
    workloads = (ROOT / "perfbench" / "workloads.py").read_text()
    outside = outside_names(
        scripts=scripts,
        tracing=(ROOT / "perfbench" / "tracing.py").read_text(),
        workloads=workloads,
    )
    readers = [*scripts, workloads]
    found = (unreached(modules, outside) + unset_parameters(modules, readers)
             + unread_fields(modules, readers) + unread_meta_keys(modules, readers))
    assert sorted(set(found) - set(ALLOWED)) == [], "unreached and not allowed"
    assert sorted(set(ALLOWED) - set(found)) == [], "allowed but reached: drop the entry"
