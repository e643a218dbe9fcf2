"""Corrupted function and image CSVs through the CLI: typed failures, never NaN output."""

import contextlib
import csv
import io
import math
import re

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from layerft import catalog as cat
from layerft import cli
from layerft.configio import parse_config
from layerft.gridfn import write_function_csv

from conftest import config_path

CONFIG = config_path("twolayer")
SPEC = ["--lambda-max", "4", "--lambda-steps", "40"]
TOKENS = ["nan", "inf", "-inf", "", "1e400"]


def run(argv):
    """cli.main(argv) in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid function CSV (bulk and trace rows) and the image CSV of it."""
    base = tmp_path_factory.mktemp("csv")
    cfg, spec = parse_config(CONFIG)
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max,
                             samples_per_layer=41)
    function_csv, image_csv = str(base / "f.csv"), str(base / "image.csv")
    write_function_csv(f, function_csv)
    rc, _out, err = run(["forward", "--config", CONFIG, "--input", function_csv,
                         "--output", image_csv, *SPEC])
    assert rc == 0, err
    return {"function": read_rows(function_csv), "image": read_rows(image_csv)}


def forward_csv(path, out):
    return run(["forward", "--config", CONFIG, "--input", path, "--output", out, *SPEC])


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("row_kind, cell", [("bulk", 1), ("bulk", 0), ("trace", 1)])
def test_nonfinite_function_cell_is_parse_error(tmp_path, valid, token, row_kind, cell):
    rows = [list(row) for row in valid["function"]]
    ln = next(i for i, row in enumerate(rows)
              if i > 0 and (row[-2] != "") == (row_kind == "trace"))
    rows[ln][cell] = token
    path, out = str(tmp_path / "bad.csv"), tmp_path / "image.csv"
    write_rows(path, rows)
    rc, _out, err = forward_csv(path, str(out))
    assert rc == 3
    assert f"{path}:{ln + 1}: non-finite number" in err
    assert not out.exists()


def finite(row):
    return all(math.isfinite(float(v)) for v in row if v not in ("", "left", "right"))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_csv_fuzz(tmp_path, valid, data):
    kind = data.draw(st.sampled_from(["function", "image"]))
    rows = [list(row) for row in valid[kind]]
    i = data.draw(st.integers(1, len(rows) - 1))
    if data.draw(st.booleans()):
        rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(st.sampled_from(TOKENS))
    else:
        j = data.draw(st.integers(1, len(rows) - 1).filter(lambda j: j != i))
        rows[i], rows[j] = rows[j], rows[i]
    path, out = str(tmp_path / "in.csv"), str(tmp_path / "out.csv")
    write_rows(path, rows)
    if kind == "function":
        rc, stdout, _err = forward_csv(path, out)
    else:
        rc, stdout, _err = run(["inverse", "--config", CONFIG, "--input", path,
                                "--output", out, "--samples", "11", *SPEC])
    event(f"{kind} CSV, exit {rc}")
    assert rc in (0, 1, 3, 4)
    if rc != 0:
        return
    written = read_rows(out)
    if kind == "image":
        assert all(map(finite, written[1:]))
    else:
        flagged = re.search(r"\((\d+) flagged\)", stdout)
        nonfinite = sum(not finite(row) for row in written[1:])
        assert nonfinite <= (int(flagged.group(1)) if flagged else 0)


def inverse_csv(path, out, config=CONFIG):
    return run(["inverse", "--config", config, "--input", path, "--output", out,
                "--samples", "11", *SPEC])


@pytest.fixture(scope="module")
def valid_r2(tmp_path_factory):
    """The image CSV of a two-component problem."""
    image_csv = str(tmp_path_factory.mktemp("csv_r2") / "image.csv")
    rc, _out, err = run(["forward", "--config", config_path("r2diag"), "--input", "gauss_bump",
                         "--output", image_csv, *SPEC])
    assert rc == 0, err
    return read_rows(image_csv)


@pytest.mark.parametrize("token, cell", [
    (token, cell) for token in ["nan", "inf", "-inf", "1e400"] for cell in (0, 1, 2)
    if (token, cell) != ("nan", 1)     # nan in re_1 next to im_1 = 0 is a flagged row
])
def test_nonfinite_image_cell_is_parse_error(tmp_path, valid, token, cell):
    rows = [list(row) for row in valid["image"]]
    rows[5][cell] = token
    path, out = str(tmp_path / "bad.csv"), tmp_path / "f.csv"
    write_rows(path, rows)
    rc, _out, err = inverse_csv(path, str(out))
    assert rc == 3
    assert f"{path}:6: non-finite number" in err
    assert not out.exists()


def test_single_component_nan_is_parse_error(tmp_path, valid_r2):
    rows = [list(row) for row in valid_r2]
    rows[5][1:3] = ["nan", "0"]
    path, out = str(tmp_path / "bad.csv"), tmp_path / "f.csv"
    write_rows(path, rows)
    rc, _out, err = inverse_csv(path, str(out), config_path("r2diag"))
    assert rc == 3
    assert f"{path}:6: non-finite number" in err
    assert not out.exists()


def test_flagged_image_row_is_dropped_and_reported(tmp_path, valid_r2):
    rows = [list(row) for row in valid_r2]
    rows[5][1:] = ["nan", "0", "nan", "0"]
    path, out = str(tmp_path / "flagged.csv"), str(tmp_path / "f.csv")
    write_rows(path, rows)
    rc, stdout, err = inverse_csv(path, out, config_path("r2diag"))
    assert rc == 0, err
    assert "(1 non-finite image rows dropped)" in stdout
    assert all(map(finite, read_rows(out)[1:]))
