#!/usr/bin/env python3
"""Benchmark of the layerft transform pair, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload coupled-transform --seed 1 --seconds 35 --trace 0

One process drives the load as a closed loop: each operation is issued
after the previous one returned.  The run first times SETUP_PROBES fresh
interpreters from start to inputs ready (setup_s), then repeats the
workload's iteration while another one fits in --seconds.  Before each of
these steps it times a fixed reference computation (hostref.py) and scales
the run's timings to the reference host speed; the raw wall times are
printed beside them.  With --trace 1, every second iteration runs with the
tracer's wrappers installed and the run prints per-layer metrics instead of
end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The README next to this file
describes the workloads, the metrics and the known defects they show.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SELF_SUM_TOL = 0.10           # per-layer self times must cover the wall time
E2E_UNITS = {
    "setup_s": "s", "forward_s": "s", "inverse_s": "s", "aux_s": "s",
    "output_err": "1", "tau_error": "1", "peak_rss_mb": "MB",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small quadrature and one setup probe (smoke test)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="import, parse and generate inputs, then exit")
    return ap.parse_args(argv)


def _import_layerft():
    """Import layerft from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "layerft", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: layerft sources not found at {init}")
    sys.path.insert(0, SRC)
    import layerft

    if os.path.realpath(layerft.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported layerft from {layerft.__file__}, not {init}")
    return layerft


def _environment():
    import numpy
    import scipy

    nproc = os.cpu_count() or 1
    blas = nproc
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var, "").isdigit():
            blas = min(blas, int(os.environ[var]))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads_cap": blas,
        "layerft_workers": os.environ.get("LAYERFT_WORKERS", "unset"),
    }


def _setup_times(args, probes, clock):
    """Wall times of fresh interpreters that import, parse and build inputs.

    The host reference is probed before each of them.
    """
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(probes):
        clock.probe()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed:\n{proc.stderr}")
        out.append(dt)
    return out


def _tail(values):
    """Highest listed percentile with at least ten samples above it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


def _timing_line(name, alias, values, raw):
    med = statistics.median(values)
    tail = _tail(values)
    tail_txt = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                else f"no tail percentile (n < 11), max {max(values):.6g}")
    label = f"{name} ({alias})" if alias else name
    return (f"# {label:<34} median {med:.6g} s  {tail_txt}  n={len(values)}  "
            f"(raw wall median {statistics.median(raw):.6g} s)")


def _quartiles_ms(values):
    if len(values) < 2:
        return "n/a"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1 * 1e3:.4g}–{q3 * 1e3:.4g} ms"


def _run_loop(workload, rec, seconds, tracer):
    """Repeat the workload's iteration while another one fits in the time.

    Every run gets through at least one iteration per input draw, and in a
    traced run at least one iteration with and one without the wrappers.
    """
    walls = {False: [], True: []}
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.iteration(i, rec)
        except Exception as exc:  # a check that cannot run fails its operation
            rec.fail(f"iteration {i}: {type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(time.perf_counter() - t0)
        i += 1
        typical = statistics.median(walls[False] + walls[True])
        if i >= max(workload.draws, 2) and time.perf_counter() - start + typical > seconds:
            return walls


def _e2e_metrics(workload, rec, setup_raw):
    setup = [dt * rec.clock.factor() for dt in setup_raw]
    metrics = {"setup_s": statistics.median(setup)}
    lines = [_timing_line("setup_s", "", setup, setup_raw)]
    for key in ("forward_s", "inverse_s", "aux_s"):
        values = rec.scaled(key)
        if not values:
            raise RuntimeError(f"no successful {key} sample")
        metrics[key] = statistics.median(values)
        lines.append(_timing_line(key, workload.aliases.get(key, ""), values, rec.samples[key]))
    for key in ("output_err", "tau_error"):
        per_draw = rec.errors.get(key)
        if not per_draw:
            raise RuntimeError(f"no {key} value")
        metrics[key] = statistics.median(per_draw.values())
        alias = workload.aliases.get(key, "")
        label = f"{key} ({alias})" if alias else key
        draws = ", ".join(f"{v:.4e}" for _d, v in sorted(per_draw.items()))
        lines.append(f"# {label:<34} median {metrics[key]:.6g} over draws [{draws}]")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"# {'peak_rss_mb':<34} {metrics['peak_rss_mb']:.1f} MB")
    lines += [f"# {line}" for line in workload.report(rec)]
    return metrics, lines


def main(argv=None):
    args = _parse_args(argv)
    os.environ.pop("LAYERFT_WORKERS", None)     # package default: one worker
    for var in BLAS_THREAD_VARS:                # one BLAS thread, set before NumPy loads
        os.environ[var] = "1"
    _import_layerft()
    import hostref
    from tracing import Tracer, layer_metrics
    from workloads import Recorder, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(ROOT, args.seed, args.tiny, None).setup()
        return 0
    clock = None if args.trace else hostref.HostClock()
    if clock:
        hostref.reference()     # first call pays for NumPy's lazy set-up
        setup_raw = _setup_times(args, 1 if args.tiny else SETUP_PROBES, clock)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        workload = cls(ROOT, args.seed, args.tiny, workdir)
        workload.setup()
        rec = Recorder(clock)
        untap = workload.tap()
        tracer = Tracer() if args.trace else None
        try:
            walls = _run_loop(workload, rec, args.seconds, tracer)
        finally:
            untap()
        info = workload.info()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} iterations={len(walls[False]) + len(walls[True])}")
    print(f"# environment {json.dumps(_environment(), sort_keys=True)}")
    print(f"# inputs {json.dumps(info, sort_keys=True)}")
    correct = rec.failed == 0
    if args.trace:
        per_layer = layer_metrics(tracer, walls[True], walls[False])
        ratio = per_layer["trace.self_sum_ratio"][0]
        if abs(ratio - 1.0) > SELF_SUM_TOL:
            correct = False
            rec.failures.append(f"per-layer self times cover {ratio:.3f} of the wall time")
        if tracer.absent:
            print(f"# absent entry points: {', '.join(tracer.absent)}")
        for name, (value, unit) in per_layer.items():
            print(f"# {name:<44} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        values, lines = _e2e_metrics(workload, rec, setup_raw)
        refs = clock.refs
        lines.append(f"# host reference {statistics.median(refs) * 1e3:.4g} ms median "
                     f"(quartiles {_quartiles_ms(refs)}, n={len(refs)}); timings above are "
                     f"scaled to {hostref.REFERENCE_S * 1e3:g} ms")
        print("\n".join(lines))
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}
    failed_ops = rec.failed / rec.attempted if rec.attempted else 0.0
    print(f"# failed_ops {rec.failed}/{rec.attempted} = {failed_ops:.4g}")
    for what in rec.failures[:20]:
        print(f"# FAILED {what}")
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
