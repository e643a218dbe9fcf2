"""Corrupted function and image CSVs through the CLI: typed failures, never NaN output."""

import contextlib
import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from layerft import catalog as cat
from layerft import cli
from layerft import transform as tr
from layerft.configio import parse_config
from layerft import gridfn
from layerft.gridfn import (
    SpectralImage,
    read_function_csv,
    read_image_csv,
    write_function_csv,
    write_image_csv,
)

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
    write_function_csv(f, function_csv, cfg)
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


TABLES = {
    "image": ("lambda,re_1,im_1",
              ["forward", "--config", CONFIG, "--input", "gauss_bump", *SPEC]),
    "function": ("x,re_1,im_1,trace_side,trace_order",
                 ["roundtrip", "--config", CONFIG, "--input", "gauss_bump", *SPEC]),
    "basis": ("x," + ",".join(f"{kind}_{part}_{ij}" for kind in ("u", "us")
                              for ij in ("11", "12", "21", "22") for part in ("re", "im")),
              ["basis", "--config", config_path("threelayer_r2"), "--lambda", "0.7",
               "--samples", "21"]),
    "identity": ("lambda,residual",
                 ["identity", "--config", config_path("sine"), "--input",
                  "poly_cutoff:left=3,right=5", *SPEC]),
    "poisson": ("x,y,value",
                ["poisson", "--dim", "3", "--input", "gauss_bump:center=0,width=2",
                 "--heights", "0.5,1", "--radii", "0,0.9"]),
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_cli_tables_have_one_header_line_and_lf_endings(tmp_path, table):
    header, argv = TABLES[table]
    out = tmp_path / f"{table}.csv"
    rc, _out, err = run([*argv, "--output", str(out)])
    assert rc == 0, err
    data = out.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().split("\n")[:-1]
    assert lines[0] == header and len(lines) > 2
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == header.count(",") + 1
        float(cells[0])


def test_image_and_function_csv_read_back_bit_exactly(tmp_path):
    cfg, spec = parse_config(config_path("threelayer_r2"))
    rng = np.random.default_rng(11)
    values = ((rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2)))
              * 10.0 ** rng.integers(-300, 300, (60, 2)))
    values[7] = complex(math.nan, 0.0)           # a flagged row
    values[8] = [complex(-0.0, 5e-324), complex(0.0, -0.0)]
    image = SpectralImage(np.sort(rng.uniform(0.01, 40.0, 60)), values)
    write_image_csv(image, tmp_path / "image.csv")
    back = read_image_csv(tmp_path / "image.csv")
    assert back.lambdas.tobytes() == image.lambdas.tobytes()
    assert back.values.tobytes() == image.values.tobytes()

    # twolayer at x_max 0.5 samples none of its second layer, past x_max; its trace
    # rows still sit at the junction at 1
    two, _ = parse_config(config_path("twolayer"))
    for config, x_max, sizes in ((cfg, spec.x_max, [41] * 3), (two, 0.5, [41, 0])):
        f = cat.to_grid_function(cat.make_profile("sine_packet"), config, x_max,
                                 samples_per_layer=41)
        assert f.traces and [ls.x.size for ls in f.layers] == sizes
        write_function_csv(f, tmp_path / "f.csv", config)
        g = read_function_csv(tmp_path / "f.csv", config)
        for a, b in zip(f.layers, g.layers, strict=True):
            assert a.x.tobytes() == b.x.tobytes() and a.values.tobytes() == b.values.tobytes()
        assert sorted(g.traces) == sorted(f.traces)
        for key, arr in f.traces.items():
            assert np.asarray(arr, dtype=complex).tobytes() == g.traces[key].tobytes()


def test_cli_inverse_drops_the_nan_rows_of_a_full_axis_image(tmp_path):
    # a fullaxis_twolayer image with NaN rows, through the CSV codec and the CLI
    # inverse (a batch built for the call, no kept tables), against the
    # in-process inversion of the same image on the same points
    name = config_path("fullaxis_twolayer")
    cfg, spec = parse_config(name)
    argv = ["--config", name, "--lambda-max", "12", "--lambda-steps", "400", "--samples", "101"]
    spec = dataclasses.replace(spec, lambda_max=12.0, lambda_steps=400)
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=1.5), cfg, spec.x_max)
    image = tr.forward_transform(cfg, f, spec)
    dropped = [0, 7, 150, image.lambdas.size - 1]
    image.values[dropped] = np.nan
    write_image_csv(image, tmp_path / "image.csv")
    rc, out, err = run(["inverse", *argv, "--input", str(tmp_path / "image.csv"),
                        "--output", str(tmp_path / "back.csv")])
    assert rc == 0, err
    assert f"({len(dropped)} non-finite image rows dropped)" in out
    back = read_function_csv(tmp_path / "back.csv", cfg)
    pts = [ls.x for ls in back.layers]
    assert [xs.size for xs in pts] == [101] * cfg.n_layers
    recon = tr.inverse_transform(cfg, image, pts, spec)
    assert recon.meta["dropped_rows"] == dropped
    got = np.concatenate([ls.values for ls in back.layers])
    want = np.concatenate([ls.values for ls in recon.layers])
    assert np.isfinite(want).all()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["sine", "twolayer", "r2diag", "threelayer_r2"])
def test_inverse_output_transforms_forward_again(tmp_path, name):
    # inverse writes no trace rows; lam-free conditions read none
    argv = ["--config", config_path(name), *SPEC]
    image, back, again = (str(tmp_path / n) for n in ("image.csv", "back.csv", "again.csv"))
    assert run(["forward", *argv, "--input", "gauss_bump", "--output", image])[0] == 0
    assert run(["inverse", *argv, "--input", image, "--output", back])[0] == 0
    rc, _out, err = run(["forward", *argv, "--input", back, "--output", again])
    assert rc == 0, err
    assert np.isfinite(read_image_csv(again).values).all()


def test_function_csv_with_an_empty_layer_is_refused(tmp_path):
    # a twolayer reconstruction without the rows of its first layer: forward and
    # roundtrip must not read that layer as zero data
    argv = ["--config", CONFIG, "--lambda-max", "12", "--lambda-steps", "400"]
    image, back, cut = (str(tmp_path / n) for n in ("image.csv", "back.csv", "cut.csv"))
    assert run(["forward", *argv, "--input", "gauss_bump", "--output", image])[0] == 0
    assert run(["inverse", *argv, "--input", image, "--output", back])[0] == 0
    rows = read_rows(back)
    first = read_function_csv(back, parse_config(CONFIG)[0]).layers[0].x.size
    write_rows(cut, rows[:1] + rows[1 + first:])
    for command in (["forward", "--output", str(tmp_path / "again.csv")], ["roundtrip"]):
        rc, out, err = run([*command, *argv, "--input", cut])
        assert (rc, out) == (3, ""), err
        assert err.startswith("error: layer 0 has no samples but values requested on ["), err


def test_lambda_junction_without_traces_names_the_missing_trace(tmp_path):
    argv = ["--config", config_path("lambda_interface"), *SPEC]
    image, back = str(tmp_path / "image.csv"), str(tmp_path / "back.csv")
    assert run(["forward", *argv, "--input", "gauss_bump", "--output", image])[0] == 0
    assert run(["inverse", *argv, "--input", image, "--output", back])[0] == 0
    rc, _out, err = run(["forward", *argv, "--input", back, "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "no trace stored for junction 1, side 'right', order 0" in err


def test_tables_are_written_byte_for_byte_as_savetxt_writes_them(tmp_path):
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, -1 / 3, 1e22, 123456789.0]
    scales = 10.0 ** rng.integers(-300, 300, (1, 3))
    many = rng.standard_normal((2 * gridfn._WRITE_ROWS + 5, 3)) * scales     # three slices
    blocks = [(np.reshape(special[:12], (4, 3)), ",,"), (many, ""), (np.zeros((0, 3)), ",x,0"),
              (np.array([special[-3:]]), ",left,1")]
    path = tmp_path / "table.csv"
    gridfn.write_table(path, ["x", "a", "b"], blocks)
    ref = io.BytesIO()
    ref.write(b"x,a,b\n")
    for rows, tail in blocks:
        np.savetxt(ref, rows, fmt=",".join(["%.17g"] * 3) + tail)
    assert path.read_bytes() == ref.getvalue()
