"""The benchmark's entry points still resolve: a rename or deletion here breaks perfbench.

perfbench/tracing.py patches the functions it times by name and records
the ones it cannot find; perfbench/workloads.py also calls a few functions
directly.  Both are loaded as they are, in a fresh interpreter.
"""

import json
from pathlib import Path

from conftest import run_python

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# (module, name) the workloads call without going through a traced entry
DIRECT = [
    ("quadrature", "lambda_grid"),
    ("quadrature", "xi_rules"),
    ("quadrature", "QuadratureSpec"),
    ("operator", "heat_image"),
    ("operator", "lambda_split_residuals"),
    ("catalog", "make_profile"),
    ("radial", "RadialProfile"),
]


def test_tracer_finds_every_entry_and_direct_calls_resolve():
    code = (
        "import importlib, importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('tracing', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
        f"missing = [f'{{m}}.{{n}}' for m, n in {DIRECT!r}\n"
        "           if not callable(getattr(importlib.import_module('layerft.' + m), n, None))]\n"
        "print(json.dumps([tracer.absent, missing]))\n"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    absent, missing = json.loads(out.stdout.strip().splitlines()[-1])
    assert absent == []
    assert missing == []
