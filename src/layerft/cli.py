"""Command-line front end.

Exit codes: 0 success, 1 numerical failure, 2 usage error, 3 bad problem
description (including a transform past quadrature.MAX_TRANSFORM_SIZE),
4 regularity violation at a junction, 5 internal error (an exception that is
not a LayerFTError; one line on stderr instead of a traceback).
"""

import argparse
import dataclasses
import sys
import traceback

import numpy as np

from . import catalog as cat
from . import operator as op
from . import quadrature as quad
from . import radial as rad
from . import transform as tr
from .configio import emit_config, parse_config
from .errors import ConfigError, LayerFTError, ParseError, RegularityViolation
from .gridfn import (
    read_function_csv,
    read_image_csv,
    write_function_csv,
    write_image_csv,
    _fmt,
)


def _add_common(p, need_config=True):
    p.add_argument("--config", required=need_config, help="problem description file")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--lambda-steps", type=int, default=None)
    p.add_argument("--tau", type=str, default=None,
                   help="comma-separated decreasing damping schedule")
    p.add_argument("--xmax", type=float, default=None, help="spatial truncation radius")
    p.add_argument("--xi-order", type=int, default=None,
                   help="Gauss-Legendre order of the spatial panels")


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

    p = sub.add_parser("basis", help="tabulate the kernel pair at one spectral point")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--samples", type=_samples, default=201, help="points per layer")

    p = sub.add_parser("forward", help="transform a function to its spectral image")
    _add_common(p)
    p.add_argument("--input", required=True,
                   help="function CSV or catalog profile (e.g. gauss_bump:center=2)")
    p.add_argument("--output", required=True, help="image CSV")
    p.add_argument("--samples", type=_samples, default=401)

    p = sub.add_parser("inverse", help="reconstruct a function from an image")
    _add_common(p)
    p.add_argument("--input", required=True, help="image CSV")
    p.add_argument("--output", required=True, help="function CSV")
    p.add_argument("--samples", type=_samples, default=201, help="points per layer")

    p = sub.add_parser("roundtrip", help="forward + inverse, report reconstruction error")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="optional reconstruction CSV")
    p.add_argument("--samples", type=_samples, default=401)

    p = sub.add_parser("identity", help="check the operational multiplication identity")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="optional residual CSV")
    p.add_argument("--samples", type=_samples, default=401)
    p.add_argument("--no-boundary-term", action="store_true",
                   help="drop the boundary brace from the right-hand side")

    p = sub.add_parser("heat", help="heat evolution via the transform")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--output", required=True, help="solution CSV")
    p.add_argument("--samples", type=_samples, default=401)
    p.add_argument("--fd-check", action="store_true",
                   help="also run the finite-difference oracle and report the gap")
    p.add_argument("--fd-dx", type=float, default=0.01)
    p.add_argument("--fd-dt", type=float, default=None)

    p = sub.add_parser("emit", help="rewrite a problem description in long form")
    _add_common(p)
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
    config, spec = parse_config(args.config)
    updates = {}
    if args.lambda_min is not None:
        updates["lambda_min"] = args.lambda_min
    if args.lambda_max is not None:
        updates["lambda_max"] = args.lambda_max
    if args.lambda_steps is not None:
        updates["lambda_steps"] = args.lambda_steps
    if args.tau is not None:
        try:
            updates["tau_schedule"] = tuple(float(t) for t in args.tau.split(","))
        except ValueError:
            raise ParseError(f"--tau: cannot parse {args.tau!r}") from None
    if args.xmax is not None:
        updates["x_max"] = args.xmax
    if args.xi_order is not None:
        updates["xi_quadrature_order"] = args.xi_order
    if updates:
        spec = dataclasses.replace(spec, **updates)
    return config, spec


def _load_input(text, config, spec, samples):
    if cat.is_profile_reference(text):
        quad.check_size(config, spec)       # before sampling out to x_max
        profile = cat.parse_profile(text)
        return cat.to_grid_function(profile, config, spec.x_max, samples_per_layer=samples)
    return read_function_csv(text, config)


def _per_layer_points(config, spec, samples):
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
            with open(args.output, "w") as fh:
                fh.write("x,y,value\n")
                for x, y, val in rows:
                    fh.write(f"{_fmt(x)},{_fmt(y)},{_fmt(val)}\n")
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
        from . import basis as bas

        b = bas.build_basis(config, args.lam)
        pts = _per_layer_points(config, spec, args.samples)
        r = config.r
        header = ["x"]
        for kind in ("u", "us"):
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    header += [f"{kind}_re_{i}{j}", f"{kind}_im_{i}{j}"]
        with open(args.output, "w") as fh:
            fh.write(",".join(header) + "\n")
            for m, xs in enumerate(pts):
                if xs.size == 0:
                    continue
                # one row per x: x, then Re/Im of u and of u* entry by entry
                kernels = [np.ascontiguousarray(k(b, m, xs).reshape(xs.size, r * r)).view(float)
                           for k in (bas.u_on_layer, bas.u_star_on_layer)]
                np.savetxt(fh, np.column_stack([xs, *kernels]), fmt="%.17g", delimiter=",")
        print(f"kernel tables at lambda = {args.lam} written to {args.output}")
        return 0

    if cmd == "forward":
        f = _load_input(args.input, config, spec, args.samples)
        forward, _ = tr.transform_pair(config)
        image = forward(config, f, spec)
        write_image_csv(image, args.output)
        flagged = image.meta.get("flagged", [])
        print(
            f"image on {image.lambdas.size} spectral points written to {args.output}"
            + (f" ({len(flagged)} flagged)" if flagged else "")
        )
        return 0

    if cmd == "inverse":
        image = read_image_csv(args.input)
        pts = _per_layer_points(config, spec, args.samples)
        _, inverse = tr.transform_pair(config)
        recon = inverse(config, image, pts, spec)
        write_function_csv(recon, args.output)
        dropped = recon.meta["dropped_rows"]
        print(
            f"reconstruction written to {args.output} "
            f"(tau error estimate {recon.meta['tau_error_estimate']:.2e})"
            + (f" ({len(dropped)} non-finite image rows dropped)" if dropped else "")
        )
        return 0

    if cmd == "roundtrip":
        f = _load_input(args.input, config, spec, args.samples)
        report = tr.roundtrip_report(config, f, spec)
        print(report)
        if args.output:
            write_function_csv(report.reconstruction, args.output)
        return 0

    if cmd == "identity":
        f = _load_input(args.input, config, spec, args.samples)
        report = op.verify_basic_identity(
            config, f, spec, include_boundary_term=not args.no_boundary_term
        )
        print(report)
        print(f"max residual for lambda <= 10: {report.max_residual(10.0):.3e}")
        if args.output:
            with open(args.output, "w") as fh:
                fh.write("lambda,residual\n")
                for lam, res in zip(report.lambdas, report.residuals):
                    fh.write(f"{_fmt(lam)},{_fmt(res)}\n")
        return 0

    if cmd == "heat":
        f0 = _load_input(args.input, config, spec, args.samples)
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
            pts = _per_layer_points(config, spec, args.samples)
            u = op.solve_heat(config, f0, args.time, pts, spec)
        write_function_csv(u, args.output)
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
    except FileNotFoundError as exc:
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
