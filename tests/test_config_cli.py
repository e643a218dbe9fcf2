import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from layerft import catalog as cat
from layerft import cli
from layerft import configio
from layerft import transform as tr
from layerft.configio import emit_config, parse_config
from layerft.errors import DimensionMismatch, InvariantViolation, ParseError, SizeLimitExceeded
from layerft.problem import Boundary, Interface
from layerft.quadrature import QuadratureSpec

from conftest import config_path, run_cli

ALL_CONFIGS = [
    "sine",
    "twolayer",
    "threelayer_r2",
    "r2diag",
    "fullaxis",
    "fullaxis_twolayer",
    "singular",
    "lambda_interface",
]


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_parse_emit_parse_is_identity(name):
    cfg, spec = parse_config(config_path(name))
    text = emit_config(cfg, spec)
    cfg2, spec2 = parse_config(text)
    assert cfg2.r == cfg.r and cfg2.mode == cfg.mode
    assert cfg2.n_layers == cfg.n_layers
    for a, b in zip(cfg.layers, cfg2.layers):
        assert a.left == b.left and a.right == b.right
        assert np.array_equal(a.a2, b.a2) and np.array_equal(a.g2, b.g2)
    for ia, ib in zip(cfg.interfaces, cfg2.interfaces):
        for blk in Interface.BLOCK_NAMES:
            assert np.array_equal(getattr(ia, blk), getattr(ib, blk))
    if cfg.boundary is None:
        assert cfg2.boundary is None
    else:
        for blk in Boundary.BLOCK_NAMES:
            assert np.array_equal(getattr(cfg.boundary, blk), getattr(cfg2.boundary, blk))
    assert spec2 == spec


def test_dimension_mismatch_names_block():
    text = """
problem: {r: 2}
layers:
  - {left: 0.0, right: inf, a2: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
boundary: {dirichlet: true}
"""
    with pytest.raises(DimensionMismatch) as exc:
        parse_config(text)
    assert "layers[0].a2" in str(exc.value)


def test_scalar_matrix_needs_r_equal_one():
    text = """
problem: {r: 2}
layers:
  - {left: 0.0, right: inf, a2: 1.0}
boundary: {dirichlet: true}
"""
    with pytest.raises(DimensionMismatch):
        parse_config(text)


def test_unknown_section_and_key_rejected():
    with pytest.raises(ParseError, match="unknown sections"):
        parse_config("problem: {r: 1}\nlayers: [{left: 0, right: inf, a2: 1}]\nextra: 1\n"
                     "boundary: {dirichlet: true}\n")
    with pytest.raises(ParseError, match="unknown keys"):
        parse_config("problem: {r: 1, shape: oval}\n"
                     "layers: [{left: 0, right: inf, a2: 1}]\nboundary: {dirichlet: true}\n")


def test_shorthand_exclusivity():
    text = """
problem: {r: 1}
layers:
  - {left: 0.0, right: 1.0, a2: 1.0}
  - {left: 1.0, right: inf, a2: 2.0}
interfaces:
  - {ideal_contact: true, beta11: 1.0}
boundary: {dirichlet: true}
"""
    with pytest.raises(ParseError, match="ideal_contact excludes"):
        parse_config(text)


@pytest.mark.parametrize("where, key", [("interfaces[0]", "ideal_contact"),
                                        ("boundary", "dirichlet"), ("boundary", "neumann")])
@pytest.mark.parametrize("value", [False, 2, 0, "no", None])
def test_shorthand_flags_take_a_yaml_boolean(tmp_path, capsys, where, key, value):
    # false reads as if the key were absent, so the explicit blocks of the long form are
    # read; true selects the shorthand (test_shorthand_exclusivity); anything else is refused
    long_form = emit_config(*parse_config(config_path("twolayer")))
    doc = yaml.safe_load(long_form)
    (doc["interfaces"][0] if key == "ideal_contact" else doc["boundary"])[key] = value
    path = tmp_path / "flag.cfg"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    if value is False:
        assert emit_config(*parse_config(str(path))) == long_form
        return
    with pytest.raises(ParseError, match=rf"^{re.escape(where)}\.{key}: expected true or false"):
        parse_config(str(path))
    assert cli.main(["emit", "--config", str(path)]) == 3
    assert f"{where}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "false", "[]", "''", "null"])
def test_quadrature_section_must_be_a_mapping(value):
    text = ("problem: {r: 1}\nlayers: [{left: 0.0, right: inf, a2: 1.0}]\n"
            f"boundary: {{dirichlet: true}}\nquadrature: {value}\n")
    if value == "null":                 # no section: the default spec
        assert parse_config(text)[1] == QuadratureSpec()
        return
    with pytest.raises(ParseError, match="section 'quadrature' must be a mapping"):
        parse_config(text)


def test_all_zero_boundary_rejected():
    text = """
problem: {r: 1}
layers: [{left: 0.0, right: inf, a2: 1.0}]
boundary: {beta0: 0.0}
"""
    with pytest.raises(InvariantViolation):
        parse_config(text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau_schedule", "[1.0e-2, .nan]"),
        ("lambda_steps", ".nan"),
        ("lambda_steps", "100.5"),
        ("x_max", ".inf"),
    ],
)
def test_nonfinite_or_fractional_quadrature_rejected(tmp_path, key, value):
    text = (
        "problem: {r: 1}\nlayers: [{left: 0.0, right: inf, a2: 1.0}]\n"
        f"boundary: {{dirichlet: true}}\nquadrature: {{{key}: {value}}}\n"
    )
    with pytest.raises(ParseError):
        parse_config(text)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert cli.main(["emit", "--config", str(bad)]) == 3
    parsed = yaml.safe_load(value)
    with pytest.raises(InvariantViolation):
        QuadratureSpec(**{key: tuple(parsed) if isinstance(parsed, list) else parsed})


SINE = Path(config_path("sine")).read_text()


@pytest.mark.parametrize("old, new, field", [
    ("right: inf", "right: yes", "layers[0].right"),
    ("a2: 1.0", "a2: on", "layers[0].a2"),
    ("lambda_min: 1.0e-4", "lambda_min: true", "quadrature.lambda_min"),
    ("lambda_steps: 2000", "lambda_steps: yes", "quadrature.lambda_steps"),
    ("quadrature:\n", "quadrature:\n  tau_schedule: [0.01, true]\n", "quadrature.tau_schedule"),
])
def test_yaml_booleans_are_not_numbers(tmp_path, capsys, old, new, field):
    # YAML reads yes/on/true as True, and True == 1: a number must not take it
    assert SINE.count(old) == 1
    path = tmp_path / "bool.cfg"
    path.write_text(SINE.replace(old, new))
    with pytest.raises(ParseError, match=f"^{re.escape(field)}.*cannot read True"):
        parse_config(str(path))
    assert cli.main(["emit", "--config", str(path)]) == 3
    assert field in capsys.readouterr().err


def test_yaml_boolean_interface_block_is_not_a_number():
    text = Path(config_path("lambda_interface")).read_text().replace("beta11: 1.0", "beta11: true")
    with pytest.raises(ParseError, match=r"^interfaces\[0\]\.beta11: cannot read True"):
        parse_config(text)


def test_aliased_blocks_are_refused_before_any_is_read(tmp_path, monkeypatch, capsys):
    # one anchored 60 x 60 matrix named by 300 layers: 38 kB of text for 310 MB of blocks
    layers = [f"  - {{left: 0.0, right: 1.0, a2: &A {np.eye(60).tolist()}}}"]
    layers += [f"  - {{left: {m}.0, right: {m + 1}.0, a2: *A}}" for m in range(1, 299)]
    layers += ["  - {left: 299.0, right: inf, a2: *A}"]
    text = ("problem: {r: 60}\nlayers:\n" + "\n".join(layers) + "\ninterfaces:\n"
            + "  - {ideal_contact: true}\n" * 299 + "boundary: {dirichlet: true}\n")
    assert len(text) < 40_000

    def no_matrix(*_args):
        raise AssertionError("a block was converted before the size check")

    monkeypatch.setattr(configio, "_matrix", no_matrix)
    with pytest.raises(SizeLimitExceeded, match="5388 blocks"):
        parse_config(text)
    path = tmp_path / "alias.cfg"
    path.write_text(text)
    assert cli.main(["emit", "--config", str(path)]) == 3
    assert "300 layers and 299 interfaces at r = 60" in capsys.readouterr().err


def test_yaml_error_carries_location():
    with pytest.raises(ParseError, match=":"):
        parse_config("problem: {r: 1\nlayers: []\n")


def test_complex_entries_roundtrip():
    # off-diagonal Hermitian couplings may be complex
    text = """
problem: {r: 2}
layers:
  - left: 0.0
    right: inf
    a2: [["2.0", "0.25+0.5j"], ["0.25-0.5j", "1.0"]]
boundary: {dirichlet: true}
"""
    cfg, spec = parse_config(text)
    assert cfg.layers[0].a2[0, 1] == 0.25 + 0.5j
    cfg2, _ = parse_config(emit_config(cfg, spec))
    assert cfg2.layers[0].a2[0, 1] == 0.25 + 0.5j
    assert cfg2.layers[0].a2[1, 0] == 0.25 - 0.5j


def test_nonhermitian_a2_rejected():
    with pytest.raises(InvariantViolation, match="positive-definite"):
        parse_config("problem: {r: 1}\n"
                     "layers: [{left: 0.0, right: inf, a2: \"1+0.5j\"}]\n"
                     "boundary: {dirichlet: true}\n")


def test_cli_basis_and_forward_inverse_chain(tmp_path):
    img = tmp_path / "img.csv"
    rec = tmp_path / "rec.csv"
    bas = tmp_path / "bas.csv"
    r = run_cli("basis", "--config", config_path("twolayer"), "--lambda", "1.5",
                "--output", str(bas), "--samples", "20")
    assert r.returncode == 0, r.stderr
    header = bas.read_text().splitlines()[0]
    assert header == "x,u_re_11,u_im_11,us_re_11,us_im_11"

    r = run_cli("forward", "--config", config_path("twolayer"), "--input",
                "gauss_bump:center=3.0,width=0.5", "--output", str(img),
                "--lambda-steps", "400", "--lambda-max", "20")
    assert r.returncode == 0, r.stderr

    r = run_cli("inverse", "--config", config_path("twolayer"), "--input", str(img),
                "--output", str(rec), "--lambda-steps", "400", "--lambda-max", "20",
                "--samples", "31")
    assert r.returncode == 0, r.stderr
    lines = rec.read_text().splitlines()
    assert lines[0].endswith("trace_side,trace_order")
    assert len(lines) > 60


def test_cli_exit_code_usage():
    assert run_cli("bogus").returncode == 2
    assert run_cli("forward", "--config", config_path("sine")).returncode == 2


def test_cli_config_parses_whatever_its_file_name(tmp_path, capsys):
    # --config names a file: a suffix other than .cfg/.yml/.yaml, or none,
    # must not turn the path into YAML text
    source = Path(config_path("twolayer")).read_text()
    outputs = []
    for name in ("twolayer.cfg", "p.txt", "noext"):
        (tmp_path / name).write_text(source)
        out = tmp_path / f"img_{name}.csv"
        argv = ["forward", "--config", str(tmp_path / name), "--input", "gauss_bump",
                "--output", str(out), "--lambda-steps", "200"]
        assert cli.main(argv) == 0, capsys.readouterr().err
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    (tmp_path / "bad.txt").write_text("- not a mapping\n")
    assert cli.main(["emit", "--config", str(tmp_path / "bad.txt")]) == 3
    assert "bad.txt: document must be a mapping" in capsys.readouterr().err


def test_cli_directory_as_a_file_exits_3(tmp_path, capsys):
    folder = tmp_path / "d"
    folder.mkdir()
    image = tmp_path / "img.csv"
    common = ["--config", config_path("twolayer"), "--lambda-steps", "200"]
    assert cli.main(["forward", *common, "--input", "gauss_bump", "--output", str(image)]) == 0
    capsys.readouterr()
    runs = [
        ["forward", *common, "--input", "gauss_bump", "--output", str(folder)],
        ["forward", *common, "--input", str(folder), "--output", str(tmp_path / "o.csv")],
        ["inverse", *common, "--input", str(folder), "--output", str(tmp_path / "o.csv")],
        ["inverse", *common, "--input", str(image), "--output", str(folder)],
        ["poisson", "--dim", "3", "--input", "gauss_bump", "--heights", "0.5",
         "--output", str(folder)],
        ["forward", "--config", str(folder), "--input", "gauss_bump",
         "--output", str(tmp_path / "o.csv")],
    ]
    for argv in runs:
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Is a directory" in err


def test_cli_exit_code_config_error(tmp_path):
    r = run_cli("forward", "--config", str(tmp_path / "missing.cfg"),
                "--input", "gauss_bump", "--output", str(tmp_path / "o.csv"))
    assert r.returncode == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem: {r: 1, shape: oval}\nlayers: [{left: 0, right: inf, a2: 1}]\n")
    r = run_cli("forward", "--config", str(bad), "--input", "gauss_bump",
                "--output", str(tmp_path / "o.csv"))
    assert r.returncode == 3


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("gauss_bump", "center", "nan"),
        ("gauss_bump", "width", "nan"),
        ("gauss_bump", "width", "inf"),
        ("sine_packet", "wavenumber", "inf"),
        ("poly_cutoff", "left", "-inf"),
        # finite parameters whose derivative stack overflows
        ("gauss_bump", "width", "1e-120"),
        ("gauss_bump", "width", "1e-300"),
        ("sine_packet", "wavenumber", "1e200"),
        ("sine_packet", "width", "1e-200"),
        ("poly_cutoff", "right", "1e300"),
    ],
)
def test_nonfinite_profile_parameters_rejected(tmp_path, name, key, value):
    with pytest.raises(ParseError, match="finite"):
        cat.make_profile(name, **{key: float(value)})
    out = tmp_path / "o.csv"
    r = run_cli("forward", "--config", config_path("twolayer"), "--input",
                f"{name}:{key}={value}", "--output", str(out))
    assert r.returncode == 3
    assert "finite" in r.stderr
    assert not out.exists()


def test_cli_exit_code_regularity(tmp_path):
    # singular.cfg's zero junction blocks: the transform's pencils and heat's
    # finite-difference oracle both report them as a regularity violation
    for args in (["forward", "--input", "gauss_bump", "--lambda-steps", "50"],
                 ["heat", "--input", "gauss_bump:center=3.2,width=0.38", "--time", "0.05",
                  "--fd-check", "--fd-dx", "0.05", "--lambda-max", "12", "--lambda-steps", "400"]):
        r = run_cli(*args, "--config", config_path("singular"), "--output", str(tmp_path / "o.csv"))
        assert r.returncode == 4, r.stderr
        assert "junction" in r.stderr


def test_cli_exit_code_numerical(tmp_path):
    # incompatible heat data trips the compatibility gate: generic failure, 1
    r = run_cli("heat", "--config", config_path("twolayer"), "--input",
                "gauss_bump:center=2.0,width=0.5", "--time", "0.05",
                "--output", str(tmp_path / "h.csv"),
                "--lambda-steps", "100", "--lambda-max", "10")
    assert r.returncode == 1
    assert "compatibility" in r.stderr


def test_heat_fd_check_skips_the_oracle_on_lambda_dependent_conditions(tmp_path, capsys):
    # the finite-difference oracle needs lambda-free conditions: heat says so on stderr,
    # skips it and writes the solution it writes without --fd-check
    args = ["heat", "--config", config_path("lambda_interface"), "--input",
            "gauss_bump:center=6,width=0.3", "--time", "0.05", "--lambda-max", "10",
            "--lambda-steps", "100"]
    checked, plain = tmp_path / "checked.csv", tmp_path / "plain.csv"
    assert cli.main([*args, "--fd-check", "--output", str(checked)]) == 0
    out, err = capsys.readouterr()
    assert err == ("finite-difference oracle unavailable: interface conditions depend on the "
                   "spectral parameter\n")
    assert out == f"heat solution at t = 0.05 written to {checked}\n"
    assert cli.main([*args, "--output", str(plain)]) == 0
    assert checked.read_bytes() == plain.read_bytes()


def test_cli_inverse_foreign_grid_is_config_error(tmp_path):
    img = tmp_path / "img.csv"
    r = run_cli("forward", "--config", config_path("sine"), "--input", "gauss_bump",
                "--output", str(img), "--lambda-steps", "100", "--lambda-max", "10")
    assert r.returncode == 0, r.stderr
    r = run_cli("inverse", "--config", config_path("sine"), "--input", str(img),
                "--output", str(tmp_path / "rec.csv"), "--samples", "11")
    assert r.returncode == 3
    assert "canonical" in r.stderr


def test_cli_emit_roundtrip(tmp_path):
    out = tmp_path / "long.cfg"
    r = run_cli("emit", "--config", config_path("threelayer_r2"), "--output", str(out))
    assert r.returncode == 0, r.stderr
    cfg, _ = parse_config(str(out))
    assert cfg.r == 2 and cfg.n_layers == 3


def test_cli_poisson_table(tmp_path):
    out = tmp_path / "p.csv"
    r = run_cli("poisson", "--dim", "3", "--input", "gauss_bump:center=0,width=2",
                "--heights", "0.001", "--radii", "0,0.9", "--output", str(out))
    assert r.returncode == 0, r.stderr
    rows = out.read_text().splitlines()
    assert rows[0] == "x,y,value"
    vals = [float(line.split(",")[2]) for line in rows[1:]]
    assert vals[0] == pytest.approx(1.0, abs=2e-3)
    assert vals[1] == pytest.approx(np.exp(-0.81 / 8), abs=2e-3)


def test_cli_poisson_tiny_height_is_finite(capsys):
    # printed nan with exit 0: the squares of rho, |y| and x underflowed
    values = []
    for height in ("1e-10", "1e-300", "5e-324"):
        assert cli.main(["poisson", "--dim", "3", "--input", "gauss_bump:center=0,width=2",
                         "--heights", height]) == 0
        values.append(float(capsys.readouterr().out.splitlines()[-1].split()[-1]))
    assert values[0] == pytest.approx(0.99999999992, abs=1e-11)
    assert values[1:] == [pytest.approx(values[0], abs=1e-9)] * 2


def test_cli_tau_flag_parses(tmp_path):
    r = run_cli("forward", "--config", config_path("sine"), "--input", "gauss_bump",
                "--output", str(tmp_path / "o.csv"),
                "--lambda-steps", "60", "--lambda-max", "8", "--tau", "1e-2,5e-3,2.5e-3")
    assert r.returncode == 0, r.stderr
    r = run_cli("forward", "--config", config_path("sine"), "--input", "gauss_bump",
                "--output", str(tmp_path / "o.csv"), "--tau", "oops")
    assert r.returncode == 3


@pytest.mark.parametrize("name", ["twolayer", "fullaxis_twolayer"])
def test_cli_roundtrip_writes_reconstruction(tmp_path, monkeypatch, name):
    cfg, spec = parse_config(config_path(name))
    spec = dataclasses.replace(spec, lambda_max=10.0, lambda_steps=200)
    forward = tr.forward_transform
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return forward(*args, **kwargs)

    monkeypatch.setattr(tr, "forward_transform", counted)
    out = tmp_path / "recon.csv"
    rc = cli.main(["roundtrip", "--config", config_path(name), "--input", "gauss_bump",
                   "--lambda-max", "10", "--lambda-steps", "200", "--output", str(out)])
    assert rc == 0
    assert len(calls) == 1

    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg, spec.x_max,
                             samples_per_layer=401)
    recon = tr.roundtrip_report(cfg, f, spec).reconstruction
    with open(out, newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["trace_side"] == ""]
    x = np.concatenate([ls.x for ls in recon.layers])
    values = np.concatenate([ls.values[:, 0] for ls in recon.layers])
    assert np.array_equal([float(row["x"]) for row in rows], x)
    assert np.array_equal([complex(float(row["re_1"]), float(row["im_1"])) for row in rows], values)
    reference = np.concatenate([f.values_on(m, ls.x)[:, 0] for m, ls in enumerate(recon.layers)])
    assert np.max(np.abs(values - reference)) <= 1e-2


@pytest.mark.parametrize("flag, text, field, value", [
    ("--lambda-min", "0.01", "lambda_min", 0.01),
    ("--lambda-max", "25", "lambda_max", 25.0),
    ("--lambda-steps", "300", "lambda_steps", 300),
    ("--tau", "0.02,0.01", "tau_schedule", (0.02, 0.01)),
    ("--xmax", "7.5", "x_max", 7.5),
])
def test_each_spec_flag_sets_its_own_field(tmp_path, flag, text, field, value):
    _, spec = parse_config(config_path("sine"))
    assert getattr(spec, field) != value
    out = tmp_path / "long.cfg"
    assert cli.main(["emit", "--config", config_path("sine"), flag, text, "--output", str(out)]) == 0
    assert parse_config(str(out))[1] == dataclasses.replace(spec, **{field: value})


# the xi panel order and the tail tolerance are the constants quadrature.PANEL_ORDER
# and quadrature.TAIL_TOLERANCE: a document or a flag that still sets them is refused,
# even at their old default values
@pytest.mark.parametrize("key, value", [("xi_quadrature_order", "12"), ("tail_tolerance", "10.0")])
def test_retired_quadrature_key_exits_3_naming_it(tmp_path, capsys, key, value):
    old = tmp_path / "old.cfg"
    old.write_text(SINE + f"  {key}: {value}\n")
    assert cli.main(["emit", "--config", str(old)]) == 3
    assert key in capsys.readouterr().err


def test_retired_xi_order_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["emit", "--config", config_path("sine"), "--xi-order", "12"])
    assert exc.value.code == 2
    assert "--xi-order" in capsys.readouterr().err


def test_every_quadrature_field_survives_parse_emit_parse():
    values = {"lambda_min": 0.003, "lambda_max": 17.5, "lambda_steps": 321,
              "tau_schedule": [0.04, 0.02, 0.005], "x_max": 6.25}
    assert list(values) == [f.name for f in dataclasses.fields(QuadratureSpec)]
    default = QuadratureSpec()
    assert all(getattr(default, k) != (tuple(v) if isinstance(v, list) else v)
               for k, v in values.items())
    doc = yaml.safe_load(SINE)
    doc["quadrature"] = values
    config, spec = parse_config(yaml.safe_dump(doc))
    assert spec == QuadratureSpec(**values)
    text = emit_config(config, spec)
    assert list(yaml.safe_load(text)["quadrature"]) == list(values)
    assert parse_config(text)[1] == spec


def test_cli_oversized_transform_exits_3(tmp_path):
    argv = ["forward", "--config", config_path("sine"), "--input", "gauss_bump",
            "--output", str(tmp_path / "img.csv"), "--lambda-steps", str(10**9)]
    assert cli.main(argv) == 3


def test_cli_internal_error_exits_5(tmp_path, monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(tr, "forward_transform", broken)
    argv = ["forward", "--config", config_path("sine"), "--input", "gauss_bump",
            "--output", str(tmp_path / "img.csv")]
    assert cli.main(argv) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "RuntimeError: boom" in err


@pytest.mark.parametrize("flag", [("--heights", "nan"), ("--heights", "inf"),
                                  ("--radii", "inf"), ("--rho-max", "nan")])
def test_cli_poisson_nonfinite_input_exits_3(monkeypatch, capsys, flag):
    from layerft import radial as rad

    def no_panels(*_args, **_kwargs):
        raise AssertionError("a Poisson panel was built for non-finite input")

    monkeypatch.setattr(rad, "panel_gauss", no_panels)
    argv = ["poisson", "--dim", "4", "--input", "gauss_bump:center=0,width=2",
            "--heights", "0.5", *flag]
    assert cli.main(argv) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--heights", "1e300"], ["--heights", "1", "--radii", "1e300"],
                                   ["--heights", "1", "--rho-max", "1e300"]])
def test_cli_poisson_huge_input_is_size_error(monkeypatch, capsys, flags):
    # the panel count overflowed the integers; it must be refused before any panel exists
    def no_panels(*_args, **_kwargs):
        raise AssertionError("a Poisson panel was built past the size limit")

    monkeypatch.setattr(np, "repeat", no_panels)
    argv = ["poisson", "--dim", "3", "--input", "gauss_bump:center=0,width=2", *flags]
    assert cli.main(argv) == 3
    assert "exceeds the limit" in capsys.readouterr().err


def test_cli_basis_table_matches_per_value_format(tmp_path):
    from layerft import basis as bas

    out = tmp_path / "bas.csv"
    assert cli.main(["basis", "--config", config_path("threelayer_r2"), "--lambda", "0.7",
                     "--output", str(out), "--samples", "41"]) == 0
    config, spec = parse_config(config_path("threelayer_r2"))
    b = bas.build_basis(config, 0.7)
    lines = []
    for m, layer in enumerate(config.layers):
        xs = np.linspace(max(layer.left, -spec.x_max), min(layer.right, spec.x_max), 41)
        for x, u, us in zip(xs, bas.u_on_layer(b, m, xs), bas.u_star_on_layer(b, m, xs)):
            row = [f"{x:.17g}"]
            for v in (*u.ravel(), *us.ravel()):
                row += [f"{v.real:.17g}", f"{v.imag:.17g}"]
            lines.append(",".join(row))
    assert out.read_text().splitlines()[1:] == lines
