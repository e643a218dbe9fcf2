"""Every top-level function and class in src/, and every method and property of such a
class but the dunders, is reached, or an allow-list says why not.

A definition counts as reached when its name is read by other src/ code (outside
its own body), by a script, by the package's __all__, or by the benchmark: an
ENTRIES name in perfbench/tracing.py or a call in perfbench/workloads.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "basis.junction_residual_primal": "tier-1 oracle of the junction conditions (ROADMAP item 2)",
    "basis.junction_residual_dual": "tier-1 oracle of the dual junction conditions",
    "basis.boundary_residual": "tier-1 oracle of the boundary condition",
    "basis.dual_boundary_residual": "tier-1 oracle of the dual boundary condition",
    "linalg.solve_linear": "acceptance criterion 10 calls it",
    "problem.ProblemConfig.n_interfaces": "acceptance criteria 2 and 3 call it",
    "basis.SpectralBasisBatch.coefficients": "acceptance criterion 2 calls it",
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


def outside_names(scripts, init, tracing, workloads):
    """What the sources beyond src/ code reach: script names, __all__, the benchmark's."""
    found = set().union(*(names_read(ast.parse(text)) for text in scripts))
    found |= set(ast.literal_eval(assigned(ast.parse(init), "__all__")))
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
    """module.name of each definition of modules ({stem: source}) nothing reaches."""
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    missing = []
    for stem, tree in trees.items():
        for qualified, node in definitions(tree):
            if node.name in outside:
                continue
            if not any(node.name in names_read(t, skip=node) for t in trees.values()):
                missing.append(f"{stem}.{qualified}")
    return missing


def test_the_check_finds_a_planted_unreachable_function():
    modules = {
        "a": "def used():\n    return helper()\n\ndef helper():\n    return 1\n\n"
             "def orphan():\n    return orphan()\n\nclass Shown:\n"
             "    def __init__(self):\n        self.called()\n\n"
             "    def called(self):\n        pass\n\n"
             "    @property\n    def unread(self):\n        return self.unread\n",
        "b": "from .a import used\n\ndef bench_only():\n    return used()\n\n"
             "def traced():\n    pass\n\ndef scripted():\n    pass\n",
    }
    outside = outside_names(
        scripts=["from layerft.b import scripted\nscripted()\n"],
        init="__all__ = ['Shown']\n",
        tracing="ENTRIES = ((\"b.traced\", [(\"layerft.b\", \"traced\")], None),)\n",
        workloads="import layerft.b as b\nb.bench_only()\n",
    )
    assert unreached(modules, outside) == ["a.orphan", "a.Shown.unread"]
    assert unreached(modules, set()) == ["a.orphan", "a.Shown", "a.Shown.unread", "b.bench_only",
                                         "b.traced", "b.scripted"]


def test_every_src_definition_is_reached_or_allowed():
    modules = {p.stem: p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    outside = outside_names(
        scripts=[p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))],
        init=(ROOT / "src" / "layerft" / "__init__.py").read_text(),
        tracing=(ROOT / "perfbench" / "tracing.py").read_text(),
        workloads=(ROOT / "perfbench" / "workloads.py").read_text(),
    )
    found = unreached(modules, outside)
    assert sorted(set(found) - set(ALLOWED)) == [], "unreached and not allowed"
    assert sorted(set(ALLOWED) - set(found)) == [], "allowed but reached: drop the entry"
