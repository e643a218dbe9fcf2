"""Heat evolution through the transform vs. a Crank-Nicolson reference.

The image of the solution at time t is exp(-lam^2 t) times the image of the
initial data, so the whole evolution costs one forward transform plus one
damped inversion per output time.  The finite-difference run is independent
code and serves as the oracle.
"""

import pathlib
import time

import numpy as np

from layerft import catalog as cat
from layerft import operator as op
from layerft import transform as tr
from layerft.configio import parse_config

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def main():
    cfg, spec = parse_config(CONFIGS / "twolayer.cfg")
    f0 = cat.to_grid_function(
        cat.make_profile("gauss_bump", center=3.2, width=0.38), cfg, spec.x_max)

    print("two-layer bar, bump initial data, spectral vs Crank-Nicolson")
    t0 = time.perf_counter()
    image = tr.forward_transform(cfg, f0, spec)
    print(f"forward transform: {time.perf_counter() - t0:.2f}s")
    print(f"{'t':>6} {'max |gap|':>12} {'wall(inv)':>10} {'wall(fd)':>10}")
    for t in (0.02, 0.05, 0.1):
        t0 = time.perf_counter()
        fd = op.fd_reference(cfg, f0, t, 0.01, 2.5e-5, x_max=spec.x_max)
        t_fd = time.perf_counter() - t0
        pts = [ls.x for ls in fd.layers]
        t0 = time.perf_counter()
        # the decayed image keeps the forward's kernel batch, so no basis is
        # rebuilt, and its primal families keep the phase tables of the last
        # points they were inverted on: from the second time on, on the same
        # FD grid, an inversion exponentiates no phase
        u = tr.inverse_transform(cfg, image.decayed(t), pts, spec)
        t_sp = time.perf_counter() - t0
        gap = max(np.max(np.abs(u.layers[m].values - fd.layers[m].values))
                  for m in range(len(cfg.layers)))
        print(f"{t:>6.2f} {gap:>12.3e} {1e3 * t_sp:>8.1f}ms {t_fd:>9.1f}s")


if __name__ == "__main__":
    main()
