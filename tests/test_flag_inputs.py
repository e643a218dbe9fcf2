"""Out-of-range numeric flags through the CLI: typed failures with documented exit codes."""

import contextlib
import io
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layerft import catalog as cat
from layerft import cli
from layerft import operator as op
from layerft import transform as tr
from layerft.configio import parse_config
from layerft.errors import InvariantViolation, SizeLimitExceeded

from conftest import config_path

CONFIG = config_path("twolayer")
TINY = ["--lambda-max", "4", "--lambda-steps", "40", "--xmax", "4"]
HOSTILE = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "1.7e308"]
COMMON = ["--lambda-min", "--lambda-max", "--xmax", "--tau"]
# per command: the arguments it needs besides --config, and the flags fuzzed on it
COMMANDS = {
    "basis": (["--lambda", "1.3"], ["--lambda", "--samples", *COMMON]),
    "forward": (["--input", "gauss_bump"], ["--samples", *COMMON]),
    "inverse": (["--input", "IMAGE"], ["--samples", *COMMON]),
    "roundtrip": (["--input", "gauss_bump"], ["--samples", *COMMON]),
    "identity": (["--input", "gauss_bump"], ["--samples", *COMMON]),
    "heat": (["--input", "gauss_bump", "--time", "0.05", "--fd-check", "--fd-dx", "0.05"],
             ["--time", "--fd-dx", "--fd-dt", "--samples", *COMMON]),
}
# poisson takes no config and no spectral flags
POISSON = ["poisson", "--dim", "3", "--input", "gauss_bump:center=0,width=2", "--heights", "0.5"]
FUZZED = {**{c: flags for c, (_, flags) in COMMANDS.items()},
          "poisson": ["--dim", "--heights", "--radii", "--rho-max"]}


def run(argv):
    """cli.main(argv) in process: (exit code, stderr); argparse exits count as codes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch directory holding the image CSV of gauss_bump under TINY."""
    base = tmp_path_factory.mktemp("flags")
    rc, err = run(["forward", "--config", CONFIG, "--input", "gauss_bump",
                   "--output", str(base / "image.csv"), *TINY])
    assert rc == 0, err
    return base


def argv_for(workdir, command, *extra):
    if command == "poisson":
        return [*POISSON, "--output", str(workdir / "out.csv"), *extra]
    needs, _flags = COMMANDS[command]
    needs = [str(workdir / "image.csv") if a == "IMAGE" else a for a in needs]
    return [command, "--config", CONFIG, *needs, "--output", str(workdir / "out.csv"),
            *TINY, *extra]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_flag_fuzz(workdir, data):
    command = data.draw(st.sampled_from(sorted(FUZZED)))
    flag = data.draw(st.sampled_from(FUZZED[command]))
    value = data.draw(st.sampled_from(HOSTILE))
    t0 = time.perf_counter()
    rc, err = run(argv_for(workdir, command, f"{flag}={value}"))
    assert rc in (0, 1, 2, 3, 4), err
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("value", ["nan", "inf", "1e200", "1e-300"])
def test_basis_lambda_out_of_range_exits_3(workdir, value):
    rc, err = run(argv_for(workdir, "basis", f"--lambda={value}"))
    assert rc == 3 and "spectral parameter" in err


def test_basis_lambda_with_overflowing_pencil_exits_3(tmp_path):
    # lam^2 = 1.7e308 is finite, but a2 of threelayer_r2 has eigenvalues below
    # one, so the pencil scaled by its Cholesky factor overflows
    rc, err = run(["basis", "--config", config_path("threelayer_r2"), "--lambda", "1.3e154",
                   "--output", str(tmp_path / "kernels.csv")])
    assert rc == 3 and "scaled pencil" in err


def test_huge_lambda_max_exits_3(workdir):
    rc, err = run(argv_for(workdir, "forward", "--lambda-max=1e300"))
    assert rc == 3 and "spectral parameter" in err


def test_nan_explicit_lambda_rejected():
    cfg, spec = parse_config(CONFIG)
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    with pytest.raises(InvariantViolation, match="spectral parameter"):
        tr.forward_transform(cfg, f, spec, lambdas=[1.0, np.nan])


@pytest.mark.parametrize("command", ["forward", "inverse"])
def test_huge_xmax_is_size_error(workdir, command):
    rc, err = run(argv_for(workdir, command, "--xmax=1e300"))
    assert rc == 3 and "exceeds the limit" in err


def test_xmax_near_the_largest_float_is_size_error(monkeypatch, tmp_path):
    # the spectral panel cap underflows to 0; the input must not be sampled out to x_max
    def no_sampling(*_args, **_kwargs):
        raise AssertionError("the input was sampled")

    monkeypatch.setattr(cat, "to_grid_function", no_sampling)
    rc, err = run(["forward", "--config", config_path("fullaxis"), "--input", "gauss_bump",
                   "--xmax", "1.7e308", "--output", str(tmp_path / "image.csv")])
    assert rc == 3 and "exceeds the limit" in err


@pytest.mark.parametrize("flag, value", [
    ("--fd-dt", "-1"), ("--fd-dx", "-1"), ("--fd-dx", "0"), ("--fd-dx", "nan"),
    ("--fd-dt", "0"), ("--fd-dt", "nan"), ("--time", "inf"),
])
def test_fd_oracle_rejects_nonpositive_or_nonfinite_steps(workdir, flag, value):
    rc, err = run(argv_for(workdir, "heat", f"{flag}={value}"))
    assert rc == 3 and "finite and positive" in err


@pytest.mark.parametrize("xmax", ["1e-300", "0.5"])
def test_fd_oracle_rejects_xmax_short_of_the_last_layer(workdir, xmax):
    # twolayer's last layer starts at x = 1: a shorter grid would run backwards
    rc, err = run(argv_for(workdir, "heat", f"--xmax={xmax}"))
    assert rc == 3 and "inside the last layer" in err


@pytest.mark.parametrize("update", [{"t": 1e6}, {"dx": 1e-7}, {"dt": 1e-12}])
def test_fd_oracle_size_refused_before_any_grid(monkeypatch, update):
    def no_grid(*_args, **_kwargs):
        raise AssertionError("a grid was built")

    cfg, spec = parse_config(CONFIG)
    f0 = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    monkeypatch.setattr(np, "linspace", no_grid)
    kwargs = {"t": 0.1, "dx": 0.01, "dt": None, **update}
    with pytest.raises(SizeLimitExceeded, match="exceeds the limit"):
        op.fd_reference(cfg, f0, kwargs["t"], kwargs["dx"], kwargs["dt"], x_max=spec.x_max)


def test_heat_time_nan_is_config_error(workdir):
    # without --fd-check: the transform path, not the oracle, must refuse it
    rc, err = run(["heat", "--config", CONFIG, "--input", "gauss_bump", "--time=nan",
                   "--output", str(workdir / "out.csv"), *TINY])
    assert rc == 3 and "finite and nonnegative" in err
    cfg, spec = parse_config(CONFIG)
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec, lambdas=[1.0, 2.0])
    for t in (np.nan, np.inf):
        with pytest.raises(InvariantViolation):
            img.decayed(t)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("value", ["0", "-1"])
def test_samples_below_one_is_usage_error(workdir, command, value):
    rc, err = run(argv_for(workdir, command, f"--samples={value}"))
    assert rc == 2 and "at least 1" in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_huge_samples_is_size_error_before_sampling(workdir, command, monkeypatch):
    # 4e8 and 9e8 samples of the one-layer sine config stay under the operation
    # count but would take gigabytes; a linspace of them is the allocation itself
    real = np.linspace

    def guarded(start, stop, num=50, *args, **kwargs):
        if num > 10**6:
            raise AssertionError(f"np.linspace asked for {num} points")
        return real(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
    for config in (CONFIG, config_path("sine")):
        for samples in (10**12, 4 * 10**8, 9 * 10**8):
            argv = argv_for(workdir, command, f"--samples={samples}")
            argv[argv.index(CONFIG)] = config
            rc, err = run(argv)
            assert rc == 3 and "exceeds the limit" in err, (config, samples, err)


@pytest.mark.parametrize("command", ["inverse", "roundtrip"])
def test_inversion_past_the_size_limit_is_refused_before_sampling(workdir, command, monkeypatch):
    # 2e6 samples per layer pass the bytes check (1.6e8 bytes on twolayer), but
    # inverting at their 4e6 points on 2000 lambda nodes is past the size limit
    real = np.linspace

    def guarded(start, stop, num=50, *args, **kwargs):
        if num > 10**6:
            raise AssertionError(f"np.linspace asked for {num} points")
        return real(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
    rc, err = run(argv_for(workdir, command, "--samples=2000000", "--lambda-steps=2000"))
    assert rc == 3 and "transform size" in err and "exceeds the limit" in err, err


@pytest.mark.parametrize("flag", [("--heights", "0"), ("--heights", "-1"), ("--dim", "1")])
def test_out_of_range_poisson_flags_are_configuration_errors(workdir, flag):
    rc, err = run(argv_for(workdir, "poisson", *flag))
    assert rc == 3, err
    assert err.startswith("error: ")
