"""The three benchmark workloads.

Every workload fills the same metrics, so that each end-to-end metric
exists on every workload:

  forward_s   seconds per forward transform
  inverse_s   seconds per inverse transform
  aux_s       seconds per call of the workload's third operation (kernel
              table, FD oracle or Poisson table)
  output_err  the error of the workload's output against an exact or
              independent reference
  tau_error   the Neville extrapolation error estimate of the inversion

Inputs are drawn from the seed in setup(); iteration i uses draw i % draws.
An accuracy metric is the median over the draws a run gets through.
All calls into layerft go through module attributes (``tr.forward_transform``)
so that the tracer's patches see them.  The README next to this file says
why each workload exists and which numbers each one should move.
"""

import contextlib
import dataclasses
import io
import math
import os
import statistics
import time

import numpy as np


class Recorder:
    """Timings, accuracy values and failure counts of one run.

    With a HostClock, the reference computation runs before every operation
    and ``scaled`` gives the operation's times at the reference host speed.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.samples = {}
        self.errors = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._last_ok = True

    def op(self, metric, fn, *args, per=1, **kwargs):
        """Run one operation, time it into ``metric`` and return its result.

        An exception counts the operation as failed and returns None.
        ``per`` divides the duration when fn repeats the operation.
        """
        self.attempted += 1
        if self.clock:
            self.clock.probe()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            self.fail(f"{metric}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.samples.setdefault(metric, []).append(dt / per)
        self._last_ok = True
        return result

    def scaled(self, metric):
        """The times of ``metric`` at the reference host speed (raw without a clock)."""
        factor = self.clock.factor() if self.clock else 1.0
        return [dt * factor for dt in self.samples.get(metric, [])]

    def verify(self, ok, what):
        """Check the output of the latest operation; a failure counts it as failed."""
        if not ok and self._last_ok:
            self.fail(what)
        elif not ok:
            self.failures.append(what)
        return ok

    def fail(self, what):
        """Count the latest operation as failed."""
        self.failed += 1
        self._last_ok = False
        self.failures.append(what)

    def error(self, metric, draw, value):
        self.errors.setdefault(metric, {})[draw] = float(value)


def _finite(a):
    a = np.asarray(a)
    return bool(a.size) and bool(np.all(np.isfinite(a)))


def _gauss(x, center, width):
    return np.exp(-0.5 * ((np.asarray(x, dtype=float) - center) / width) ** 2)


class Workload:
    """Shared plumbing: the seed, the work directory and the size preset."""

    name = ""
    aliases = {}
    draws = 3

    def __init__(self, root, seed, tiny, workdir):
        self.root = root
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def config_path(self, name):
        return os.path.join(self.root, "configs", f"{name}.cfg")

    def path(self, name):
        return os.path.join(self.workdir, name)

    def tap(self):
        """Install result taps for the run; returns the function that removes them."""
        return lambda: None

    def report(self, rec):
        """Extra report lines beyond the end-to-end metrics."""
        return []


class CoupledTransform(Workload):
    """threelayer_r2 through the CLI: forward, inverse and a kernel table."""

    name = "coupled-transform"
    aliases = {"aux_s": "kernel_table_s", "output_err": "roundtrip_l2_rel"}
    SPEC = {"lambda_max": 12.0, "lambda_steps": 400}
    TINY_SPEC = {"lambda_max": 4.0, "lambda_steps": 40}
    KERNEL_LAMBDAS = 3          # kernel tables per iteration
    KERNEL_TOL = 1e-9           # criteria 2 and 3

    def setup(self):
        from layerft import configio

        self.cfg_path = self.config_path("threelayer_r2")
        self.config, spec = configio.parse_config(self.cfg_path)
        sizes = self.TINY_SPEC if self.tiny else self.SPEC
        self.spec = dataclasses.replace(spec, **sizes)
        self.flags = ["--lambda-max", repr(sizes["lambda_max"]),
                      "--lambda-steps", str(sizes["lambda_steps"])]
        self.inputs = []
        for _ in range(self.draws):
            center = float(self.rng.uniform(2.97, 3.03))
            width = float(self.rng.uniform(0.49, 0.51))
            lams = [float(v) for v in self.rng.uniform(0.5, sizes["lambda_max"],
                                                       self.KERNEL_LAMBDAS)]
            self.inputs.append({
                "center": center, "width": width, "lambdas": lams,
                "profile": f"gauss_bump:center={center!r},width={width!r}",
            })
        self._tau = []

    def info(self):
        from layerft import quadrature as quad

        return {
            "config": "configs/threelayer_r2.cfg",
            "lambda_nodes": int(quad.lambda_grid(self.config, self.spec).nodes.size),
            "xi_nodes": int(sum(n.size for n, _w in quad.xi_rules(self.config, self.spec))),
            "spec": {k: getattr(self.spec, k) for k in self.SPEC},
        }

    def tap(self):
        """Capture the tau error estimate, which the CLI prints rounded."""
        from layerft import transform as tr

        inverse = tr.inverse_transform
        taus = self._tau

        def tapped(*args, **kwargs):
            recon = inverse(*args, **kwargs)
            taus.append(recon.meta["tau_error_estimate"])
            return recon

        tr.inverse_transform = tapped
        return lambda: setattr(tr, "inverse_transform", inverse)

    def _cli(self, argv):
        from layerft import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def iteration(self, i, rec):
        from layerft import gridfn

        d = i % self.draws
        draw = self.inputs[d]
        common = ["--config", self.cfg_path] + self.flags
        image_csv, recon_csv = self.path("image.csv"), self.path("recon.csv")

        rc = rec.op("forward_s", self._cli,
                    ["forward"] + common + ["--input", draw["profile"], "--output", image_csv])
        if not rec.verify(rc == 0, f"forward exited {rc}"):
            return

        del self._tau[:]
        rc = rec.op("inverse_s", self._cli,
                    ["inverse"] + common + ["--input", image_csv, "--output", recon_csv])
        if not rec.verify(rc == 0, f"inverse exited {rc}"):
            return
        recon = gridfn.read_function_csv(recon_csv, self.config)
        num = den = 0.0
        finite = True
        for ls in recon.layers:
            finite &= _finite(ls.values)
            ref = np.outer(_gauss(ls.x, draw["center"], draw["width"]), np.ones(self.config.r))
            num += float(np.trapezoid(np.sum(np.abs(ls.values - ref) ** 2, axis=1), ls.x))
            den += float(np.trapezoid(np.sum(np.abs(ref) ** 2, axis=1), ls.x))
        if rec.verify(finite, "reconstruction is not finite"):
            rec.error("output_err", d, math.sqrt(num / den))
            if self._tau:
                rec.error("tau_error", d, max(self._tau))

        for lam in draw["lambdas"]:
            rc = rec.op("aux_s", self._cli,
                        ["basis", "--config", self.cfg_path, "--lambda", repr(lam),
                         "--output", self.path("kernel.csv")])
            if rec.verify(rc == 0, f"basis exited {rc}"):
                self._check_kernel_table(rec, lam)

    def _check_kernel_table(self, rec, lam):
        """u and u* are continuous across every ideal-contact junction."""
        table = np.loadtxt(self.path("kernel.csv"), delimiter=",", skiprows=1, ndmin=2)
        if not rec.verify(_finite(table), f"kernel table at lam={lam} is not finite"):
            return
        r = self.config.r
        vals = table[:, 1::2] + 1j * table[:, 2::2]
        worst = 0.0
        for lk in self.config.junctions:
            rows = np.flatnonzero(table[:, 0] == lk)
            if not rec.verify(rows.size == 2, f"kernel table lacks both sides of x={lk}"):
                return
            left, right = vals[rows[0]], vals[rows[1]]
            for part in (slice(0, r * r), slice(r * r, 2 * r * r)):
                scale = max(np.linalg.norm(left[part]), np.linalg.norm(right[part]), 1e-300)
                worst = max(worst, np.linalg.norm(left[part] - right[part]) / scale)
        rec.verify(worst <= self.KERNEL_TOL,
                   f"kernel junction mismatch {worst:.3e} at lam={lam}")


class HeatEvolution(Workload):
    """r2diag heat flow: one forward, four damped inversions, one FD oracle."""

    name = "heat-evolution"
    aliases = {"aux_s": "fd_oracle_s", "output_err": "heat_fd_gap"}
    SPEC = {"lambda_max": 12.0, "lambda_steps": 400}
    TINY_SPEC = {"lambda_max": 10.0, "lambda_steps": 40}
    TIMES = (0.01, 0.05, 0.2, 1.0)
    FD = {"t": 0.05, "dx": 0.01, "dt": 2.5e-5}
    AMPLITUDES = (1.0, 0.7)
    GAP_TOL = 1e-3              # criterion 8
    COMPAT_TOL = 1e-5           # solve_heat's compatibility gate

    def setup(self):
        from layerft import catalog as cat
        from layerft import configio
        from layerft import operator as op

        self.config, spec = configio.parse_config(self.config_path("r2diag"))
        self.spec = dataclasses.replace(spec, **(self.TINY_SPEC if self.tiny else self.SPEC))
        self.data = []
        for _ in range(self.draws):
            center = float(self.rng.uniform(3.45, 3.55))
            width = float(self.rng.uniform(0.37, 0.39))
            f0 = cat.to_grid_function(
                cat.make_profile("gauss_bump", center=center, width=width),
                self.config, self.spec.x_max, amplitudes=list(self.AMPLITUDES),
            )
            res = op.lambda_split_residuals(self.config, f0)
            worst = max(res["junction_value"] + res["junction_lam2"]
                        + [res["boundary_value"], res["boundary_lam2"]])
            if worst > self.COMPAT_TOL * max(1.0, f0.sup_norm()):
                raise ValueError(f"draw center={center}, width={width} is not heat-compatible "
                                 f"(residual {worst:.3e})")
            self.data.append(f0)

    def info(self):
        from layerft import quadrature as quad

        return {
            "config": "configs/r2diag.cfg",
            "lambda_nodes": int(quad.lambda_grid(self.config, self.spec).nodes.size),
            "xi_nodes": int(sum(n.size for n, _w in quad.xi_rules(self.config, self.spec))),
            "spec": {k: getattr(self.spec, k) for k in self.SPEC},
            "times": list(self.TIMES),
            "fd": self.FD,
        }

    def iteration(self, i, rec):
        from layerft import operator as op
        from layerft import transform as tr

        d = i % self.draws
        f0 = self.data[d]
        cfg, spec = self.config, self.spec

        image = rec.op("forward_s", tr.forward_transform, cfg, f0, spec)
        if image is None:
            return
        flagged = len(image.meta.get("flagged", ()))
        kept = np.all(np.isfinite(image.values), axis=1)
        if not rec.verify(kept.sum() + flagged == image.lambdas.size and kept.any(),
                          "forward image has non-finite rows that are not flagged"):
            return

        fd = rec.op("aux_s", op.fd_reference, cfg, f0, self.FD["t"], self.FD["dx"],
                    self.FD["dt"], x_max=spec.x_max)
        if fd is None or not rec.verify(all(_finite(ls.values) for ls in fd.layers),
                                        "FD oracle is not finite"):
            return
        pts = [ls.x for ls in fd.layers]

        def evolve(t):
            return tr.inverse_transform(cfg, op.heat_image(image, t), pts, spec)

        taus = []
        for t in self.TIMES:
            u = rec.op("inverse_s", evolve, t)
            if u is None or not rec.verify(all(_finite(ls.values) for ls in u.layers),
                                           f"heat solution at t={t} is not finite"):
                continue
            taus.append(u.meta["tau_error_estimate"])
            if t == self.FD["t"]:
                gap = max(float(np.max(np.abs(a.values - b.values)))
                          for a, b in zip(u.layers, fd.layers))
                rec.verify(gap <= self.GAP_TOL, f"heat/FD gap {gap:.3e} > {self.GAP_TOL}")
                rec.error("output_err", d, gap)
        if taus:
            rec.error("tau_error", d, max(taus))


class RadialPoisson(Workload):
    """Radial pair for n = 2, 3, 5 and a half-space Poisson table."""

    name = "radial-poisson"
    aliases = {"aux_s": "poisson_table_s", "output_err": "radial_origin_err"}
    DIMS = (2, 3, 5)
    INVERSE_REPS = 20           # inverse_nd takes well under a millisecond
    RHO_MAX = 30.0
    SPEC = {"lambda_max": 12.0, "lambda_steps": 2000}
    TINY_SPEC = {"lambda_max": 6.0, "lambda_steps": 200}
    POISSON_DIMS = (2, 3, 4)
    HEIGHTS = (1e-3, 0.1, 0.7, 2.0)
    OFFSETS = (0.0, 0.9, 2.5)
    ORIGIN_TOL = 1e-3           # criterion 9, n = 3
    POISSON_TOL = 1e-8          # criterion 9, n = 3 constant data

    def setup(self):
        from layerft import quadrature as quad

        self.spec = quad.QuadratureSpec(**(self.TINY_SPEC if self.tiny else self.SPEC))
        self.short_spec = dataclasses.replace(self.spec, tau_schedule=self.spec.tau_schedule[1:])
        self.widths = [float(self.rng.uniform(0.98, 1.02)) for _ in range(self.draws)]
        self.lambda_nodes = 0

    def info(self):
        return {
            "lambda_nodes": self.lambda_nodes,
            "spec": {"lambda_max": self.spec.lambda_max,
                     "lambda_steps": self.spec.lambda_steps},
            "dims": list(self.DIMS),
            "poisson_dims": list(self.POISSON_DIMS),
        }

    def iteration(self, i, rec):
        from layerft import radial as rad

        d = i % self.draws
        width = self.widths[d]

        def gauss(rho):
            return np.exp(-0.5 * (rho / width) ** 2)

        errs, taus = {}, []
        for n in self.DIMS:
            prof = rad.RadialProfile(n=n, fn=gauss, rho_max=self.RHO_MAX)
            image = rec.op("forward_s", rad.forward_nd_image, prof, self.spec)
            if image is None:
                continue
            self.lambda_nodes = int(image.lambdas.size)
            value = rec.op("inverse_s", self._repeat_inverse, image, per=self.INVERSE_REPS)
            if value is None or not rec.verify(np.isfinite(value), f"n={n} origin value is not finite"):
                continue
            errs[n] = abs(value - 1.0)
            taus.append(abs(value - rad.inverse_nd(image, self.short_spec)))
            if n == 3:
                rec.verify(errs[n] <= self.ORIGIN_TOL,
                           f"n=3 origin error {errs[n]:.3e} > {self.ORIGIN_TOL}")
        if errs:
            rec.error("output_err", d, max(errs.values()))
            for n, e in errs.items():
                rec.error(f"radial_origin_err.n{n}", d, e)
        if taus:
            rec.error("tau_error", d, max(taus))

        table = rec.op("aux_s", self._poisson_table, gauss)
        if table is None:
            return
        rec.verify(all(np.isfinite(v) for *_k, v in table), "Poisson table is not finite")
        for n in self.POISSON_DIMS:
            worst = max(abs(v - 1.0) for kind, m, _x, _y, v in table
                        if kind == "const" and m == n)
            rec.error(f"poisson_err.n{n}", d, worst)
            if n == 3:
                rec.verify(worst <= self.POISSON_TOL,
                           f"n=3 constant-data Poisson error {worst:.3e} > {self.POISSON_TOL}")

    def report(self, rec):
        lines = []
        forward, inverse = rec.scaled("forward_s"), rec.scaled("inverse_s")
        if forward and inverse:
            pair = statistics.median(forward) + statistics.median(inverse)
            lines.append(f"radial_pair_s {pair:.6g} s per dimension "
                         f"(median forward_s + median inverse_s)")
        for key, per_draw in sorted(rec.errors.items()):
            if "." in key:
                lines.append(f"{key} {statistics.median(per_draw.values()):.4e} (median over draws)")
        return lines

    def _repeat_inverse(self, image):
        from layerft import radial as rad

        for _ in range(self.INVERSE_REPS):
            value = rad.inverse_nd(image, self.spec)
        return value

    def _poisson_table(self, gauss):
        from layerft import radial as rad

        rows = []
        for n in self.POISSON_DIMS:
            profiles = (("const", rad.RadialProfile(n=n, fn=np.ones_like, rho_max=200.0)),
                        ("gauss", rad.RadialProfile(n=n, fn=gauss, rho_max=self.RHO_MAX)))
            for kind, prof in profiles:
                for x in self.HEIGHTS:
                    for y in self.OFFSETS:
                        rows.append((kind, n, x, y, rad.poisson_halfspace(prof, x, y)))
        return rows


WORKLOADS = {w.name: w for w in (CoupledTransform, HeatEvolution, RadialPoisson)}
