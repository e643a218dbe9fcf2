"""Shared fixtures plus a terminal summary line per acceptance criterion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layerft.configio import parse_config
from layerft.gridfn import LayerSamples, PiecewiseGridFunction

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_acceptance_outcome = {}
_acceptance_doc = {}


def config_path(name):
    return str(CONFIG_DIR / f"{name}.cfg")


def run_python(*args):
    """Run `python args` in a fresh interpreter on this checkout's src/, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)


def run_cli(*args):
    """Run `python -m layerft args` on this checkout's src/, installed or not."""
    return run_python("-m", "layerft", *args)


@pytest.fixture(scope="session")
def load():
    cache = {}

    def _load(name):
        if name not in cache:
            cache[name] = parse_config(config_path(name))
        return cache[name]

    return _load


def hermite_he(n, x):
    """Probabilists' Hermite polynomial He_n by recurrence."""
    a, b = np.ones_like(x), x.copy()
    if n == 0:
        return a
    for k in range(1, n):
        a, b = b, x * b - k * a
    return b


def odd_gaussian_deriv(x, order=0):
    """order-th derivative of x exp(-x^2/2), shape (N, 1)."""
    x = np.asarray(x, dtype=float)
    val = (-1.0) ** order * hermite_he(order + 1, x) * np.exp(-(x**2) / 2)
    return val.astype(complex)[:, None]


def odd_gaussian_function(x_max=12.0, samples=241):
    """x exp(-x^2/2) on [0, x_max] as a single-layer grid function with traces."""
    xs = np.linspace(0.0, x_max, samples)
    return PiecewiseGridFunction(
        layers=[LayerSamples(x=xs, values=odd_gaussian_deriv(xs, 0))],
        traces={(0, "right"): np.stack([odd_gaussian_deriv(np.zeros(1), o)[0] for o in range(4)])},
        evaluator=odd_gaussian_deriv,
    )


def by_layer(config, xs):
    """Points xs routed to the layers of config (config.layer_index): inverse_transform's form."""
    index = config.layer_index(xs)
    return [xs[index == m] for m in range(config.n_layers)]


# --- acceptance criterion reporting ----------------------------------------


def _criterion_number(nodeid):
    m = re.search(r"test_criterion_(\d+)", nodeid)
    return int(m.group(1)) if m else None


def pytest_collection_modifyitems(items):
    for item in items:
        if _criterion_number(item.nodeid) is not None:
            doc = (item.function.__doc__ or "").strip().splitlines()
            _acceptance_doc[item.nodeid] = doc[0] if doc else item.name


def pytest_runtest_logreport(report):
    if _criterion_number(report.nodeid) is None:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_outcome[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcome:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_outcome, key=_criterion_number):
        status = "PASS" if _acceptance_outcome[nodeid] == "passed" else "FAIL"
        num = _criterion_number(nodeid)
        doc = _acceptance_doc.get(nodeid, nodeid)
        terminalreporter.write_line(f"criterion {num}: {status} — {doc}")
