"""Start-up stays SciPy-free: a command imports only the SciPy submodules it calls.

Each check runs in a fresh interpreter and looks at module names only, never
at wall time.
"""

import json
import os
import subprocess
import sys

import pytest

from layerft import catalog as cat
from layerft import cli
from layerft.configio import parse_config
from layerft.gridfn import write_function_csv

from conftest import SRC_DIR, config_path

SPEC = ["--lambda-max", "8", "--lambda-steps", "80"]


def scipy_after(*argvs):
    """Sorted scipy module names loaded after cli.main runs each argv in turn."""
    code = (
        "import json, sys\n"
        "from layerft import cli\n"
        f"codes = [cli.main(argv) for argv in {list(argvs)!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    codes, modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(argvs), out.stderr
    return modules


def test_import_loads_no_scipy():
    assert scipy_after() == []


@pytest.fixture(scope="module")
def image_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("startup") / "image.csv")
    argv = ["forward", "--config", config_path("twolayer"), "--input", "gauss_bump",
            "--output", path, *SPEC]
    assert cli.main(argv) == 0
    return path


@pytest.fixture(scope="module")
def function_csv(tmp_path_factory):
    config, spec = parse_config(config_path("twolayer"))
    path = str(tmp_path_factory.mktemp("startup") / "function.csv")
    write_function_csv(cat.to_grid_function(cat.make_profile("gauss_bump"), config, spec.x_max),
                       path, config)
    return path


@pytest.mark.parametrize("command", ["forward", "forward-csv", "inverse", "roundtrip", "basis"])
def test_transform_commands_load_no_scipy(tmp_path, image_csv, function_csv, command):
    # forward-csv reads sampled values, so the xi rules interpolate them by spline
    out = str(tmp_path / "out.csv")
    twolayer = ["--config", config_path("twolayer"), *SPEC]
    argv = {
        "forward": ["forward", *twolayer, "--input", "gauss_bump", "--output", out],
        "forward-csv": ["forward", *twolayer, "--input", function_csv, "--output", out],
        "inverse": ["inverse", *twolayer, "--input", image_csv, "--output", out],
        "roundtrip": ["roundtrip", *twolayer, "--input", "gauss_bump"],
        "basis": ["basis", "--config", config_path("threelayer_r2"), "--lambda", "2.5",
                  "--output", out],
    }[command]
    assert scipy_after(argv) == []


def test_poisson_loads_only_scipy_special():
    modules = scipy_after(["poisson", "--dim", "3", "--input", "gauss_bump:center=0,width=2",
                           "--heights", "0.5"])
    assert "scipy.special" in modules
    assert not [m for m in modules if m.startswith(("scipy.sparse", "scipy.interpolate"))]


def test_heat_fd_check_loads_only_scipy_sparse(tmp_path):
    # scipy.sparse loads scipy.linalg itself, so only interpolate and special are forbidden
    modules = scipy_after(["heat", "--config", config_path("twolayer"), "--input",
                           "gauss_bump:center=3.2,width=0.38", "--time", "0.05", "--fd-check",
                           "--fd-dx", "0.05", "--output", str(tmp_path / "heat.csv"), *SPEC])
    assert "scipy.sparse" in modules
    assert not [m for m in modules if m.startswith(("scipy.interpolate", "scipy.special"))]
