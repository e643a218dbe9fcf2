"""One entry of the benchmark trajectory: speed and accuracy of the transform pair per config.

    python scripts/bench_trajectory.py [--output BENCH_<n>.json] [--configs NAME ...]
                                       [--lambda-max L --lambda-steps N]

For the bundled configs twolayer, r2diag, threelayer_r2, fullaxis_twolayer,
sine and laminate, and a scalar laminate of 320 ideal-contact layers on
[0, 2] (a2 alternating 1 and 2, a tail with a2 = 4/3, a Dirichlet end;
`laminate320`), it records at each config's own spec:

* forward_s and inverse_s, the median wall seconds of REPEATS calls on
  the default gauss_bump (401 samples per layer); the inverse reuses the
  image's basis and kept phase tables, as a second inversion of an
  in-process image does;
* roundtrip_l2_relative and tau_error_estimate of transform.roundtrip_report
  on the same data;
* identity_residual, the largest residual of operator.verify_basic_identity
  on a bump far from the junctions (semi-axis configs; null on the full axis).

BLAS runs one thread unless the environment sets its count, as in
perfbench.  The host block holds the median time of perfbench/hostref.py's
reference() over the run and its factor REFERENCE_S / median: a timing
times the factor reads as on the reference host.  Without --output the
JSON goes to standard output.  --lambda-max and --lambda-steps override
every config's spec (for a quick check; a trajectory entry keeps the
configs' own).
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import pathlib
import platform
import statistics
import sys
import time

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREADS:          # before NumPy loads its BLAS
    os.environ.setdefault(_name, "1")

import numpy as np

from layerft import catalog as cat
from layerft import operator as op
from layerft import transform as tr
from layerft.configio import parse_config
from layerft.problem import SEMI_AXIS

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ("twolayer", "r2diag", "threelayer_r2", "fullaxis_twolayer", "sine", "laminate",
           "laminate320")
DATA = "gauss_bump"
IDENTITY_DATA = "gauss_bump:center=5,width=0.4"
REPEATS = 5
SCHEMA = 1


def scalar_laminate(k):
    """Config text of k scalar layers on [0, 2], a2 alternating 1 and 2, in ideal contact."""
    h = 2.0 / k
    layers = [f"  - {{left: {i * h!r}, right: {(i + 1) * h!r}, a2: {1.0 + i % 2}}}"
              for i in range(k)]
    return "\n".join(["problem:", "  r: 1", "  mode: semi-axis", "layers:", *layers,
                      f"  - {{left: 2.0, right: inf, a2: {4 / 3!r}}}", "interfaces:",
                      *["  - {ideal_contact: true}"] * k, "boundary:", "  dirichlet: true", ""])


def load(name):
    if name == "laminate320":
        return parse_config(scalar_laminate(320))
    return parse_config(ROOT / "configs" / f"{name}.cfg")


def host_reference():
    """perfbench/hostref.py as a module, loaded by path without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("hostref", ROOT / "perfbench" / "hostref.py")
    module = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def median_seconds(call):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(name, overrides):
    config, spec = load(name)
    spec = dataclasses.replace(spec, **overrides)
    f = cat.to_grid_function(cat.parse_profile(DATA), config, spec.x_max)
    window = [ls.x[np.abs(ls.x) <= spec.x_max * (1 + 1e-12)] for ls in f.layers]
    image = tr.forward_transform(config, f, spec)
    tr.inverse_transform(config, image, window, spec)     # keeps the phase tables
    report = tr.roundtrip_report(config, f, spec)
    identity = None
    if config.mode == SEMI_AXIS:
        g = cat.to_grid_function(cat.parse_profile(IDENTITY_DATA), config, spec.x_max)
        identity = op.verify_basic_identity(config, g, spec).max_residual()
    return {
        "name": name,
        "mode": config.mode,
        "r": config.r,
        "n_layers": config.n_layers,
        "spec": dataclasses.asdict(spec),
        "lambda_nodes": int(image.lambdas.size),
        "points": int(sum(xs.size for xs in window)),
        "data": DATA,
        "repeats": REPEATS,
        "forward_s": median_seconds(lambda: tr.forward_transform(config, f, spec)),
        "inverse_s": median_seconds(lambda: tr.inverse_transform(config, image, window, spec)),
        "roundtrip_l2_relative": report.l2_relative,
        "tau_error_estimate": report.tau_error_estimate,
        "n_flagged": report.n_flagged,
        "identity_data": IDENTITY_DATA if identity is not None else None,
        "identity_residual": identity,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--output", help="JSON file to write (default: standard output)")
    ap.add_argument("--configs", nargs="+", choices=CONFIGS, default=list(CONFIGS))
    ap.add_argument("--lambda-max", dest="lambda_max", type=float)
    ap.add_argument("--lambda-steps", dest="lambda_steps", type=int)
    args = ap.parse_args(argv)
    overrides = {k: v for k, v in (("lambda_max", args.lambda_max),
                                   ("lambda_steps", args.lambda_steps)) if v is not None}

    hostref = host_reference()
    hostref.reference()         # the first call pays for NumPy's lazy set-up
    refs, entries = [], []
    for name in args.configs:
        refs += [hostref.time_reference() for _ in range(hostref.REPEATS)]
        entries.append(measure(name, overrides))
    reference_s = statistics.median(refs)
    result = {
        "schema": SCHEMA,
        "host": {
            "reference_s": reference_s,
            "factor": hostref.REFERENCE_S / reference_s,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "blas_threads": {name: os.environ[name] for name in BLAS_THREADS},
        },
        "configs": entries,
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
