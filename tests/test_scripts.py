"""Every demo script under scripts/ runs to completion, warning-free.

Each runs in a fresh interpreter with warnings turned into errors, on this
checkout's src/ (as run_cli does); heat_demo.py and roundtrip_sweep.py take
both contractions of transform.py end to end.
"""

from pathlib import Path

import pytest

from conftest import run_python

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_script_runs_cleanly(script):
    r = run_python("-W", "error", str(script))
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
