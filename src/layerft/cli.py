"""Command-line front end.

Exit codes: 0 success, 1 numerical failure, 2 usage error, 3 bad problem
description or a file that cannot be read or written (including a transform
past quadrature.MAX_TRANSFORM_SIZE and a document past configio.MAX_BLOCK_BYTES),
4 regularity violation at a junction, 5 internal error (an exception that is
not a LayerFTError; one line on stderr instead of a traceback).
"""

import argparse
import dataclasses
import pathlib
import sys
import traceback

import numpy as np

from . import basis as bas
from . import catalog as cat
from . import operator as op
from . import quadrature as quad
from . import radial as rad
from . import transform as tr
from .configio import emit_config, parse_config
from .errors import ConfigError, LayerFTError, ParseError, RegularityViolation, SizeLimitExceeded
from .gridfn import (
    complex_columns,
    complex_rows,
    read_function_csv,
    read_image_csv,
    write_function_csv,
    write_image_csv,
    write_table,
)

# Memory the arrays sampled for --samples may take (_check_samples).
MAX_SAMPLE_BYTES = 1 << 28


def _common_flags():
    """The problem flags every subcommand but poisson takes, as a parents= parser.

    One parser shared by reference: building its arguments once, not per
    subcommand, is most of what build_parser costs.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", required=True, help="problem description file")
    # each spec flag stores to its QuadratureSpec field (_load_problem)
    p.add_argument("--lambda-min", dest="lambda_min", type=float)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--lambda-steps", dest="lambda_steps", type=int)
    p.add_argument("--tau", dest="tau_schedule", metavar="TAU",
                   help="comma-separated decreasing damping schedule")
    p.add_argument("--xmax", dest="x_max", metavar="XMAX", type=float,
                   help="spatial truncation radius")
    return p


def _samples(text):
    """argparse type of every --samples flag: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="layerft",
        description="Spectral transforms for layered media with matrix coefficients",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p = sub.add_parser("basis", help="tabulate the kernel pair at one spectral point",
                       parents=[common])
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--samples", type=_samples, default=201, help="points per layer")

    p = sub.add_parser("forward", help="transform a function to its spectral image",
                       parents=[common])
    p.add_argument("--input", required=True,
                   help="function CSV or catalog profile (e.g. gauss_bump:center=2)")
    p.add_argument("--output", required=True, help="image CSV")
    p.add_argument("--samples", type=_samples, default=401)

    p = sub.add_parser("inverse", help="reconstruct a function from an image",
                       parents=[common])
    p.add_argument("--input", required=True, help="image CSV")
    p.add_argument("--output", required=True, help="function CSV")
    p.add_argument("--samples", type=_samples, default=201, help="points per layer")

    p = sub.add_parser("roundtrip", help="forward + inverse, report reconstruction error",
                       parents=[common])
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="optional reconstruction CSV")
    p.add_argument("--samples", type=_samples, default=401)

    p = sub.add_parser("identity", help="check the operational multiplication identity",
                       parents=[common])
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="optional residual CSV")
    p.add_argument("--samples", type=_samples, default=401)
    p.add_argument("--no-boundary-term", action="store_true",
                   help="drop the boundary brace from the right-hand side")

    p = sub.add_parser("heat", help="heat evolution via the transform", parents=[common])
    p.add_argument("--input", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--output", required=True, help="solution CSV")
    p.add_argument("--samples", type=_samples, default=401)
    p.add_argument("--fd-check", action="store_true",
                   help="also run the finite-difference oracle and report the gap")
    p.add_argument("--fd-dx", type=float, default=0.01)
    p.add_argument("--fd-dt", type=float, default=None)

    p = sub.add_parser("emit", help="rewrite a problem description in long form",
                       parents=[common])
    p.add_argument("--output", default=None)

    p = sub.add_parser("poisson", help="half-space harmonic extension of radial data")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--input", required=True, help="catalog profile for the boundary data")
    p.add_argument("--heights", required=True, help="comma-separated heights x > 0")
    p.add_argument("--radii", default="0", help="comma-separated offsets |y|")
    p.add_argument("--rho-max", type=float, default=30.0)
    p.add_argument("--output", default=None, help="optional CSV of (x, y, value)")

    return ap


def _load_problem(args):
    # a path, not text: any file name parses, and errors name the file
    config, spec = parse_config(pathlib.Path(args.config))
    if args.tau_schedule is not None:
        try:
            args.tau_schedule = tuple(float(t) for t in args.tau_schedule.split(","))
        except ValueError:
            raise ParseError(f"--tau: cannot parse {args.tau_schedule!r}") from None
    return config, dataclasses.replace(spec, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(spec)
        if getattr(args, f.name, None) is not None})


def _check_samples(config, spec, samples, inverted):
    """Refuse --samples past MAX_SAMPLE_BYTES, or an inversion at them past quad.plan's size.

    Both before any sampling.  The bytes are those of a kernel table row per
    sample, the largest sampled array of any command: the abscissa and the
    Re/Im cells of two r x r blocks.  An inverting command's points are
    n_layers x samples, checked by quad.plan.
    """
    nbytes = 8.0 * config.n_layers * samples * (1 + 4 * config.r**2)
    if nbytes > MAX_SAMPLE_BYTES:
        raise SizeLimitExceeded(f"--samples {samples}: bytes of samples {nbytes:.3g} exceeds "
                                f"the limit {MAX_SAMPLE_BYTES:.3g}; lower --samples")
    if inverted:
        quad.plan(config, spec, config.n_layers * samples)


def _load_input(text, config, spec, samples, inverted=False):
    if cat.is_profile_reference(text):
        _check_samples(config, spec, samples, inverted)
        quad.plan(config, spec)             # its size check, before sampling out to x_max
        profile = cat.parse_profile(text)
        return cat.to_grid_function(profile, config, spec.x_max, samples_per_layer=samples)
    return read_function_csv(text, config)


def _per_layer_points(config, spec, samples, inverted=False):
    _check_samples(config, spec, samples, inverted)
    windows = (layer.window(spec.x_max) for layer in config.layers)
    return [np.linspace(a, b, samples) if b > a else np.empty(0) for a, b in windows]


def _floats(text, name):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"{name}: cannot parse {text!r}") from None


def dispatch(args):
    cmd = args.command

    if cmd == "poisson":
        profile_fn = cat.parse_profile(args.input)
        profile = rad.RadialProfile(n=args.dim, fn=profile_fn, rho_max=args.rho_max)
        heights = _floats(args.heights, "--heights")
        radii = _floats(args.radii, "--radii")
        rows = []
        print(f"{'x':>12} {'|y|':>12} {'value':>22}")
        for x in heights:
            for y in radii:
                val = rad.poisson_halfspace(profile, x, y)
                rows.append((x, y, val))
                print(f"{x:>12.6g} {y:>12.6g} {val:>22.12g}")
        if args.output:
            write_table(args.output, ["x", "y", "value"], [(np.reshape(rows, (-1, 3)), "")])
        return 0

    config, spec = _load_problem(args)

    if cmd == "emit":
        text = emit_config(config, spec)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    if cmd == "basis":
        b = bas.build_basis(config, args.lam)
        pts = _per_layer_points(config, spec, args.samples)
        # u and u* of every layer with points: r x r blocks, 1 x 2 and 2 x 1 on the full axis
        tables = [(xs, [k(b, m, xs) for k in (bas.u_on_layer, bas.u_star_on_layer)])
                  for m, xs in enumerate(pts) if xs.size]
        header = ["x"]
        for prefix, block in zip(("u_", "us_"), tables[0][1]):
            rows, cols = block.shape[1:]
            header += complex_columns([f"{i}{j}" for i in range(1, rows + 1)
                                       for j in range(1, cols + 1)], prefix)
        # one row per x: x, then Re/Im of u and of u* entry by entry
        blocks = [(complex_rows(xs, np.hstack([k.reshape(xs.size, -1) for k in ks])), "")
                  for xs, ks in tables]
        write_table(args.output, header, blocks)
        print(f"kernel tables at lambda = {args.lam} written to {args.output}")
        return 0

    if cmd == "forward":
        f = _load_input(args.input, config, spec, args.samples)
        image = tr.forward_transform(config, f, spec)
        write_image_csv(image, args.output)
        flagged = image.meta.get("flagged", [])
        print(
            f"image on {image.lambdas.size} spectral points written to {args.output}"
            + (f" ({len(flagged)} flagged)" if flagged else "")
        )
        return 0

    if cmd == "inverse":
        image = read_image_csv(args.input)
        pts = _per_layer_points(config, spec, args.samples, inverted=True)
        recon = tr.inverse_transform(config, image, pts, spec)
        write_function_csv(recon, args.output, config)
        dropped = recon.meta["dropped_rows"]
        print(
            f"reconstruction written to {args.output} "
            f"(tau error estimate {recon.meta['tau_error_estimate']:.2e})"
            + (f" ({len(dropped)} non-finite image rows dropped)" if dropped else "")
        )
        return 0

    if cmd == "roundtrip":
        f = _load_input(args.input, config, spec, args.samples, inverted=True)
        report = tr.roundtrip_report(config, f, spec)
        print(report)
        if args.output:
            write_function_csv(report.reconstruction, args.output, config)
        return 0

    if cmd == "identity":
        f = _load_input(args.input, config, spec, args.samples)
        report = op.verify_basic_identity(
            config, f, spec, include_boundary_term=not args.no_boundary_term
        )
        print(report)
        print(f"max residual for lambda <= 10: {report.max_residual(10.0):.3e}")
        if args.output:
            write_table(args.output, ["lambda", "residual"],
                        [(np.column_stack([report.lambdas, report.residuals]), "")])
        return 0

    if cmd == "heat":
        f0 = _load_input(args.input, config, spec, args.samples,
                         inverted=not (args.fd_check and config.is_lambda_free))
        if args.fd_check and not config.is_lambda_free:
            print("finite-difference oracle unavailable: interface conditions "
                  "depend on the spectral parameter", file=sys.stderr)
            args.fd_check = False
        if args.fd_check:
            fd = op.fd_reference(config, f0, args.time, args.fd_dx, args.fd_dt, x_max=spec.x_max)
            pts = [ls.x for ls in fd.layers]
            u = op.solve_heat(config, f0, args.time, pts, spec)
            gap = max(
                float(np.max(np.abs(u.layers[m].values - fd.layers[m].values)))
                for m in range(config.n_layers)
            )
            print(f"finite-difference oracle gap: {gap:.3e} "
                  f"(dx = {args.fd_dx}, dt = {fd.meta['dt']:.3e}, {fd.meta['steps']} steps)")
        else:
            pts = _per_layer_points(config, spec, args.samples, inverted=True)
            u = op.solve_heat(config, f0, args.time, pts, spec)
        write_function_csv(u, args.output, config)
        print(f"heat solution at t = {args.time} written to {args.output}")
        return 0

    raise ParseError(f"unknown command {cmd!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return dispatch(args)
    except RegularityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:     # a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LayerFTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: one line naming where it was raised
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"({where.filename}:{where.lineno})", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
