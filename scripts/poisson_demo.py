"""Half-space Poisson values from radially symmetric boundary data.

Checks the mass normalisation (constant data reproduces the constant, also
at height 1e-3 for n = 4, 5, 6), then tabulates the harmonic extension of a
Gaussian at a few heights, comparing against the boundary data as x -> 0.
"""

import numpy as np

from layerft import radial as rad


def main():
    for n in (2, 3, 4):
        ones = rad.RadialProfile(n=n, fn=lambda rho: np.ones_like(rho), rho_max=200.0)
        val = rad.poisson_halfspace(ones, 0.7)
        print(f"n={n}: constant data at height 0.7 -> {val:.12f} (want 1)")
    print()

    print("constant data near the boundary, x = 1e-3 (want 1):")
    for n in (4, 5, 6):
        ones = rad.RadialProfile(n=n, fn=np.ones_like, rho_max=200.0)
        row = [rad.poisson_halfspace(ones, 1e-3, y) for y in (0.0, 0.9, 2.5)]
        print(f"n={n}: " + " ".join(f"|y|={y:<4g} {v:.12f}" for y, v in zip((0.0, 0.9, 2.5), row)))
    print()

    prof = rad.RadialProfile(n=3, fn=lambda rho: np.exp(-(rho**2) / 8), rho_max=40.0)
    ys = (0.0, 0.5, 0.9, 1.5)
    print("n=3 Gaussian exp(-rho^2/8), extension u(x, y):")
    print(f"{'y':>5} {'boundary':>10} " + " ".join(f"x={x:<6g}" for x in (1e-3, 0.2, 1.0)))
    for y in ys:
        bdry = np.exp(-(y**2) / 8)
        row = [rad.poisson_halfspace(prof, x, y) for x in (1e-3, 0.2, 1.0)]
        print(f"{y:>5.2f} {bdry:>10.6f} " + " ".join(f"{v:8.6f}" for v in row))


if __name__ == "__main__":
    main()
