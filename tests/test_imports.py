"""No unused top-level import in src/, tests/ or scripts/.

A package __init__.py may import the names its __all__ exports without using them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source, package=False):
    """(line, name) of each name a module-level import binds and the module never reads.

    package: source is a package __init__.py, whose __all__ names count as read.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if package:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_a_planted_unused_import():
    source = ("import os\nimport os.path as osp\nimport sys\nfrom math import pi, tau as t\n"
              "from __future__ import annotations\nprint(sys.argv, pi)\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (4, "t")]
    init = "from .a import f, g\nimport numpy as np\n__all__ = ['f']\n"
    assert unused_imports(init, package=True) == [(1, "g"), (2, "np")]
    assert unused_imports(init) == [(1, "f"), (1, "g"), (2, "np")]


def test_no_module_has_an_unused_import():
    found = []
    for top in ("src", "tests", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path.read_text(), path.name == "__init__.py"):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
