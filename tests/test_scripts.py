"""Every demo script under scripts/ runs to completion, warning-free.

Each runs in a fresh interpreter with warnings turned into errors, on this
checkout's src/ (as run_cli does); heat_demo.py and roundtrip_sweep.py take
both contractions of transform.py end to end, and bench_trajectory.py (the
whole trajectory entry, printed) every bundled config.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from layerft import catalog as cat
from layerft import quadrature as quad
from layerft import transform as tr

from conftest import run_python

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_script_runs_cleanly(script):
    r = run_python("-W", "error", str(script))
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


def test_bench_trajectory_writes_its_schema(load, tmp_path):
    # one config at a tiny spec; the accuracy fields are roundtrip_report's
    out = tmp_path / "bench.json"
    r = run_python("-W", "error", str(SCRIPTS_DIR / "bench_trajectory.py"), "--configs",
                   "twolayer", "--lambda-max", "4", "--lambda-steps", "40", "--output", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stdout == r.stderr == ""
    entry = json.loads(out.read_text())
    assert entry["schema"] == 1
    assert set(entry) == {"schema", "host", "configs"}
    host = entry["host"]
    assert set(host) == {"reference_s", "factor", "python", "numpy", "machine", "blas_threads"}
    assert host["reference_s"] > 0 and host["factor"] > 0
    (row,) = entry["configs"]
    assert set(row) == {"name", "mode", "r", "n_layers", "spec", "lambda_nodes", "points",
                        "data", "repeats", "forward_s", "inverse_s", "roundtrip_l2_relative",
                        "tau_error_estimate", "n_flagged", "identity_data", "identity_residual"}
    assert (row["name"], row["mode"], row["r"], row["n_layers"], row["repeats"]) == (
        "twolayer", "semi-axis", 1, 2, 5)
    assert row["forward_s"] > 0 and row["inverse_s"] > 0
    assert 0 <= row["identity_residual"] < 1e-9

    cfg, spec = load("twolayer")
    spec = dataclasses.replace(spec, lambda_max=4.0, lambda_steps=40)
    assert row["spec"] == json.loads(json.dumps(dataclasses.asdict(spec)))
    report = tr.roundtrip_report(cfg, cat.to_grid_function(cat.parse_profile(row["data"]), cfg,
                                                           spec.x_max), spec)
    assert row["roundtrip_l2_relative"] == pytest.approx(report.l2_relative, rel=1e-12)
    assert row["tau_error_estimate"] == pytest.approx(report.tau_error_estimate, rel=1e-9)
    assert row["n_flagged"] == report.n_flagged == 0
    assert row["lambda_nodes"] == quad.lambda_grid(cfg, spec).nodes.size
