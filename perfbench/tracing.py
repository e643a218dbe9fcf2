"""Outside-in tracing of layerft: spans around the calls into each module.

Every traced entry point is wrapped where its caller looks it up.  Modules
that call a sibling through the module object (``bas.build_basis``) are
covered by patching the attribute on the defining module; names imported
into a caller (``cli`` imports ``write_image_csv``) are patched on the caller
as well.  Functions resolve module globals at call time, so a patched
attribute also catches calls made inside its own module.

Spans are kept in memory as (name, start, end, parent) tuples and reduced to
per-entry totals only when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

import functools
import importlib
import os
import statistics
import time

import numpy as np


def _size(a):
    return int(np.size(a))


def _add(key, fn):
    """Hook adding fn(args, result) to counter ``key``."""
    def hook(counts, args, result):
        counts[key] = counts.get(key, 0) + fn(args, result)
    return hook


def _last(key, fn):
    """Hook keeping the latest fn(args, result) in counter ``key``."""
    def hook(counts, args, result):
        counts[key] = fn(args, result)
    return hook


def _flagged(counts, args, result):
    _add("transform.flagged", lambda a, r: len(r.meta.get("flagged", ())))(counts, args, result)
    _add("transform.lambdas", lambda a, r: _size(r.lambdas))(counts, args, result)


def _file_bytes(entry, path_arg):
    return _add(f"{entry}.bytes", lambda a, r: os.path.getsize(a[path_arg]))


def _nodes(entry):
    return _add(f"{entry}.nodes", lambda a, r: _size(a[2]))


# (metric entry, patch targets as (module, attribute), counter hook or None).
# A hook runs after the call as hook(counts, args, result).
ENTRIES = (
    ("cli.main", [("layerft.cli", "main")], None),
    ("configio.parse_config",
     [("layerft.configio", "parse_config"), ("layerft.cli", "parse_config")], None),
    ("catalog.to_grid_function", [("layerft.catalog", "to_grid_function")], None),
    ("gridfn.write_image_csv",
     [("layerft.gridfn", "write_image_csv"), ("layerft.cli", "write_image_csv")],
     _file_bytes("gridfn.write_image_csv", 1)),
    ("gridfn.read_image_csv",
     [("layerft.gridfn", "read_image_csv"), ("layerft.cli", "read_image_csv")],
     _file_bytes("gridfn.read_image_csv", 0)),
    ("gridfn.read_function_csv",
     [("layerft.gridfn", "read_function_csv"), ("layerft.cli", "read_function_csv")],
     _file_bytes("gridfn.read_function_csv", 0)),
    ("gridfn.write_function_csv",
     [("layerft.gridfn", "write_function_csv"), ("layerft.cli", "write_function_csv")],
     _file_bytes("gridfn.write_function_csv", 1)),
    ("transform.forward_transform", [("layerft.transform", "forward_transform")], _flagged),
    ("transform.inverse_transform", [("layerft.transform", "inverse_transform")], None),
    ("basis.build_basis", [("layerft.basis", "build_basis")], None),
    ("basis.w_on_layer", [("layerft.basis", "w_on_layer")], _nodes("basis.w_on_layer")),
    ("basis.u_on_layer", [("layerft.basis", "u_on_layer")], _nodes("basis.u_on_layer")),
    ("basis.u_star_on_layer", [("layerft.basis", "u_star_on_layer")], None),
    ("linalg.principal_sqrt", [("layerft.linalg", "principal_sqrt")], None),
    ("linalg.rcond", [("layerft.linalg", "rcond")], None),
    ("linalg.matrix_exp", [("layerft.linalg", "matrix_exp")], None),
    ("quadrature.lambda_grid", [("layerft.quadrature", "lambda_grid")],
     _last("quadrature.lambda_nodes", lambda a, r: _size(r.nodes))),
    ("quadrature.xi_rules", [("layerft.quadrature", "xi_rules")],
     _last("quadrature.xi_nodes", lambda a, r: sum(_size(n) for n, _w in r))),
    ("quadrature.neville_to_zero",
     [("layerft.quadrature", "neville_to_zero"), ("layerft.radial", "neville_to_zero")],
     None),
    ("operator.heat_image", [("layerft.operator", "heat_image")], None),
    ("operator.fd_reference", [("layerft.operator", "fd_reference")], None),
    ("radial.forward_nd_image", [("layerft.radial", "forward_nd_image")], None),
    ("radial.forward_nd", [("layerft.radial", "forward_nd")], None),
    ("radial.bessel_ratio", [("layerft.radial", "bessel_ratio")], None),
    ("radial.inverse_nd", [("layerft.radial", "inverse_nd")], None),
    ("radial.poisson_halfspace", [("layerft.radial", "poisson_halfspace")], None),
)

ENTRY_NAMES = tuple(e[0] for e in ENTRIES)

# Counters that are not spans: (metric name, unit).
EXTRA_COUNTERS = (
    ("basis.w_on_layer.nodes", "count"),
    ("basis.u_on_layer.nodes", "count"),
    ("gridfn.write_image_csv.bytes", "B"),
    ("gridfn.read_image_csv.bytes", "B"),
    ("gridfn.read_function_csv.bytes", "B"),
    ("gridfn.write_function_csv.bytes", "B"),
    ("quadrature.lambda_nodes", "count"),
    ("quadrature.xi_nodes", "count"),
    ("transform.flagged_ratio", "ratio"),
    ("radial.profile_evals", "count"),
)


class Tracer:
    """Span recorder that patches layerft entry points while installed."""

    def __init__(self):
        self.spans = []
        self.current = None
        self.counts = {}
        self.absent = []
        self._saved = []
        self._installed = False

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            parent = tracer.current
            idx = len(spans)
            spans.append(None)
            tracer.current = idx
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.current = parent
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every entry point that exists; record the ones that do not."""
        if self._installed:
            return
        self.absent = []
        for name, targets, hook in ENTRIES:
            found = False
            for modname, attr in targets:
                try:
                    mod = importlib.import_module(modname)
                except ImportError:
                    continue
                fn = getattr(mod, attr, None)
                if fn is None or not callable(fn):
                    continue
                found = True
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, hook))
            if not found:
                self.absent.append(name)
        profile_cls = getattr(importlib.import_module("layerft"), "RadialProfile", None)
        if profile_cls is not None:
            call = profile_cls.__call__
            tracer = self

            def counted(prof, rho):
                counts = tracer.counts
                counts["radial.profile_evals"] = counts.get("radial.profile_evals", 0) + 1
                return call(prof, rho)

            self._saved.append((profile_cls, "__call__", call))
            profile_cls.__call__ = counted
        self._installed = True

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []
        self._installed = False

    def self_times(self):
        """Per-entry call counts and self seconds over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls = {n: 0 for n in ENTRY_NAMES}
        self_s = {n: 0.0 for n in ENTRY_NAMES}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        return calls, self_s


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Per-layer metrics from the spans of the traced iterations.

    Calls, self times and counters are per traced iteration; shares and the
    self-sum ratio are taken against the summed wall time of the traced
    iterations.  The overhead compares median iteration wall times with and
    without the wrappers.
    """
    calls, self_s = tracer.self_times()
    n = max(1, len(traced_walls))
    wall = sum(traced_walls)
    out = {}
    for name in ENTRY_NAMES:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.self_s"] = (self_s[name] / n, "s")
        out[f"{name}.share"] = (self_s[name] / wall, "ratio")
    counts = tracer.counts
    for key, unit in EXTRA_COUNTERS:
        if key in ("quadrature.lambda_nodes", "quadrature.xi_nodes"):
            out[key] = (counts.get(key, 0), unit)
        elif key == "transform.flagged_ratio":
            attempted = counts.get("transform.lambdas", 0)
            out[key] = (counts.get("transform.flagged", 0) / attempted if attempted else 0.0,
                        unit)
        else:
            out[key] = (counts.get(key, 0) / n, unit)
    out["trace.self_sum_ratio"] = (sum(self_s.values()) / wall, "ratio")
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(untraced_walls), "s")
    out["trace.iteration_s"] = (statistics.median(traced_walls), "s")
    out["trace.absent_entries"] = (len(tracer.absent), "count")
    return out
