import numpy as np
import pytest

from layerft import basis as bas
from layerft.configio import parse_config
from layerft.errors import (
    InvariantViolation,
    OutOfDomain,
    RegularityViolation,
)
from layerft.problem import Layer, ProblemConfig, dirichlet
from layerft.quadrature import lambda_grid

from conftest import config_path

SWEEP = np.linspace(0.1, 20.0, 40)


def max_residual(basis):
    vals = [bas.boundary_residual(basis), bas.dual_boundary_residual(basis)]
    for k in range(1, basis.config.n_interfaces + 1):
        vals.append(bas.junction_residual_primal(basis, k))
        vals.append(bas.junction_residual_dual(basis, k))
    return max(vals)


def test_sine_kernels_exact(load):
    cfg, _ = load("sine")
    xs = np.linspace(0.0, 10.0, 23)
    for lam in (0.3, 1.7, 6.2):
        b = bas.build_basis(cfg, lam)
        u = bas.u_on_layer(b, 0, xs)[:, 0, 0]
        us = bas.u_star_on_layer(b, 0, xs)[:, 0, 0]
        assert np.max(np.abs(u - 2j * np.sin(lam * xs))) <= 1e-12
        assert np.max(np.abs(us + np.sin(lam * xs) / lam)) <= 1e-12


def test_sine_kernel_derivatives_exact(load):
    cfg, _ = load("sine")
    lam = 2.9
    b = bas.build_basis(cfg, lam)
    xs = np.linspace(0.0, 8.0, 17)
    u1 = b.primal[0].at(xs, 1)[:, 0, 0]
    u2 = b.primal[0].at(xs, 2)[:, 0, 0]
    s1 = b.dual[0].at(xs, 1)[:, 0, 0]
    s2 = b.dual[0].at(xs, 2)[:, 0, 0]
    assert np.max(np.abs(u1 - 2j * lam * np.cos(lam * xs))) <= 1e-12
    assert np.max(np.abs(u2 + 2j * lam**2 * np.sin(lam * xs))) <= 1e-11
    assert np.max(np.abs(s1 + np.cos(lam * xs))) <= 1e-12
    assert np.max(np.abs(s2 - lam * np.sin(lam * xs))) <= 1e-11


def test_two_layer_transfer_matrix_oracle(load):
    # closed form for ideal contact of two scalar layers, Gamma = 0:
    # value continuity gives C+ + C- = 1, flux continuity gives
    # C+ - C- = a2_2 q_2 / (a2_1 q_1) = a_2/a_1 =: rho.
    cfg, _ = load("twolayer")
    rho = np.sqrt(2.0)
    for lam in (0.4, 1.3, 9.7):
        b = bas.build_basis(cfg, lam)
        cp, cm, dp, dm = b.coefficients(0)
        assert abs(cp[0, 0] - (1 + rho) / 2) <= 1e-12
        assert abs(cm[0, 0] - (1 - rho) / 2) <= 1e-12
        assert abs(dp[0, 0] - (1 - rho) / 2) <= 1e-12
        assert abs(dm[0, 0] - (1 + rho) / 2) <= 1e-12
        # the tail layer is the normalization anchor
        cp2, cm2, dp2, dm2 = b.coefficients(1)
        assert np.allclose([cp2, dm2], [np.eye(1)] * 2) and np.allclose([cm2, dp2], 0)


@pytest.mark.parametrize("name", ["twolayer", "threelayer_r2", "r2diag", "lambda_interface"])
def test_junction_and_boundary_residuals(load, name):
    cfg, _ = load(name)
    worst = max(max_residual(bas.build_basis(cfg, lam)) for lam in SWEEP)
    assert worst <= 1e-11


def test_kernel_second_derivative_vs_finite_difference(load):
    cfg, _ = load("threelayer_r2")
    b = bas.build_basis(cfg, 2.2)
    h = 1e-3
    for m, x0 in ((0, 0.5), (1, 1.6), (2, 3.0)):
        xs = np.array([x0 - h, x0, x0 + h])
        u = bas.u_on_layer(b, m, xs)
        fd = (u[0] - 2 * u[1] + u[2]) / h**2
        exact = b.primal[m].at([x0], 2)[0]
        assert np.max(np.abs(fd - exact)) <= 1e-5 * max(1.0, np.max(np.abs(exact)))
        us = bas.u_star_on_layer(b, m, xs)
        fds = (us[0] - 2 * us[1] + us[2]) / h**2
        exacts = b.dual[m].at([x0], 2)[0]
        assert np.max(np.abs(fds - exacts)) <= 1e-5 * max(1.0, np.max(np.abs(exacts)))


def test_wavenumber_relation_is_exact(load):
    # a2 q^2 = a2 V diag(mu^2) V^{-1} must reproduce lam^2 E + g2 from the eigen factors
    cfg, _ = load("threelayer_r2")
    lam = 3.7
    b = bas.build_basis(cfg, lam)
    for ld, layer in zip(b.layers, cfg.layers):
        lhs = layer.a2 @ (ld.v * ld.mu**2) @ ld.vinv
        assert np.max(np.abs(lhs - (lam**2 * np.eye(2) + layer.g2))) <= 1e-12 * lam**2


def random_psd(rng, r, rank):
    m = rng.normal(size=(r, rank)) + 1j * rng.normal(size=(r, rank))
    return m @ m.conj().T


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_hermitian_wavenumber_squares_back(r):
    # a2 HPD and g2 PSD (full rank, rank-deficient, zero) need not commute
    rng = np.random.default_rng(7 + r)
    for rank in sorted({0, r - 1, r}):
        for lam in (1e-4, 3e-2, 0.7, 5.0, 40.0):
            a2 = random_psd(rng, r, r) + 0.1 * np.eye(r)
            g2 = random_psd(rng, r, rank)
            q = bas.compute_wavenumber(Layer(left=0.0, right=1.0, a2=a2, g2=g2), lam)
            q2 = np.linalg.solve(a2, lam**2 * np.eye(r) + g2)
            assert np.linalg.norm(q @ q - q2) <= 1e-12 * np.linalg.norm(q2)
            mu = np.linalg.eigvals(q)
            assert np.max(np.abs(mu.imag)) <= 1e-9 * np.max(np.abs(mu))
            assert np.min(mu.real) > 0


# conditions whose lam^2 terms do not cancel: lambda_interface multiplies both sides of
# its value row by 1 + 0.35 lam^2, so its M_1^{-1} M_2 is free of lam
LAMBDA_VARIANTS = {
    "lambda_interface:gamma21=+0.35": (
        "lambda_interface", "    gamma11: 0.35\n    gamma12: 0.35\n", "    gamma21: 0.35\n"),
    "lambda_interface:gamma21=-0.35": (
        "lambda_interface", "    gamma11: 0.35\n    gamma12: 0.35\n", "    gamma21: -0.35\n"),
    "threelayer_r2:lambda2-boundary": (
        "threelayer_r2", "  alpha0: [[0.1, 0.0], [0.0, 0.15]]\n",
        "  alpha0: [[0.1, 0.0], [0.0, 0.15]]\n  gamma0: [[0.02, 0.0], [0.01, 0.03]]\n"
        "  delta0: [[0.004, 0.0], [0.0, 0.002]]\n"),
}


def lambda_variant(name, old, new):
    """The bundled config name with the text old replaced by new."""
    with open(config_path(name)) as fh:
        text = fh.read()
    assert old in text
    cfg, _ = parse_config(text.replace(old, new))
    assert not cfg.is_lambda_free
    return cfg


@pytest.mark.parametrize("name", ["threelayer_r2", "lambda_interface", *LAMBDA_VARIANTS])
def test_dual_row_function_matches_definition(load, name):
    # oracle: w = (Phi0, Psi0) Omega^{-1} solved node by node
    cfg = lambda_variant(*LAMBDA_VARIANTS[name]) if name in LAMBDA_VARIANTS else load(name)[0]
    for lam in (0.05, 3.3, 11.9):
        b = bas.build_basis(cfg, lam)
        func_row = b.bnd_row @ bas._omega_stack(b.layers[0], cfg.left_end, cfg.r)
        for m, layer in enumerate(cfg.layers):
            right = layer.right if np.isfinite(layer.right) else layer.left + 4.0
            xs = np.linspace(layer.left, right, 13)
            omega = bas._omega_stack(b.layers[m], xs, cfg.r)
            ref = np.linalg.solve(omega.transpose(0, 2, 1), func_row.T).transpose(0, 2, 1)
            w = bas.w_on_layer(b, m, xs)
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "name", ["sine", "twolayer", "r2diag", "threelayer_r2", "lambda_interface"]
)
def test_batch_matches_pointwise_build(load, name):
    # every canonical node of one batched build against build_basis there
    cfg, spec = load(name)
    lams = lambda_grid(cfg, spec).nodes
    batch = bas.build_batch(cfg, lams)
    assert not batch.flags
    for i, lam in enumerate(lams):
        b = bas.build_basis(cfg, lam)
        pairs = [(ld.coef[i], ref.coef) for ld, ref in zip(batch.layers, b.layers)]
        for got, ref in pairs + [(batch.phi0_inv[i], b.phi0_inv)]:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_singular_interface_raises(load):
    cfg, _ = load("singular")
    with pytest.raises(RegularityViolation) as exc:
        bas.build_basis(cfg, 1.0)
    assert exc.value.junction == 1
    assert exc.value.lam == pytest.approx(1.0)


def test_well_posed_sweep_never_raises(load):
    for name in ("sine", "twolayer", "threelayer_r2", "r2diag", "lambda_interface"):
        cfg, _ = load(name)
        for lam in SWEEP:
            bas.build_basis(cfg, lam)


def test_nonpositive_lambda_rejected(load):
    cfg, _ = load("sine")
    with pytest.raises(InvariantViolation):
        bas.build_basis(cfg, 0.0)
    with pytest.raises(InvariantViolation):
        bas.build_basis(cfg, -2.0)


def test_eval_u_junction_tie_breaks_right(load):
    cfg, _ = load("twolayer")
    b = bas.build_basis(cfg, 1.3)
    for point, on_layer in ((bas.eval_u, bas.u_on_layer), (bas.eval_u_star, bas.u_star_on_layer)):
        from_layer2 = on_layer(b, 1, [1.0])[0]
        assert np.allclose(point(b, 1.0), from_layer2, atol=1e-14)
        with pytest.raises(OutOfDomain):
            point(b, -0.1)


def test_neumann_boundary_kernels():
    # free end: u = 2 cos(lam x), u* has -cos structure in the dual slot
    from layerft.problem import neumann

    cfg = ProblemConfig(
        r=1, mode="semi-axis",
        layers=(Layer(left=0.0, right=np.inf, a2=np.eye(1), g2=np.zeros((1, 1))),),
        interfaces=(), boundary=neumann(1),
    )
    lam = 1.9
    b = bas.build_basis(cfg, lam)
    xs = np.linspace(0.0, 5.0, 11)
    u = bas.u_on_layer(b, 0, xs)[:, 0, 0]
    # Phi0 = Psi0 = i lam resp. -i lam: u = e^{ilx}/(il) - e^{-ilx}/(-il) = 2 cos/(il)
    assert np.max(np.abs(u - 2 * np.cos(lam * xs) / (1j * lam))) <= 1e-12
    w0 = bas.w_on_layer(b, 0, [0.0])[0]
    assert np.allclose(w0, b.bnd_row, atol=1e-12)


def test_random_two_layer_configs_stay_regular():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a1, a2 = rng.uniform(0.5, 3.0, size=2)
        from layerft.problem import ideal_contact

        cfg = ProblemConfig(
            r=1, mode="semi-axis",
            layers=(
                Layer(left=0.0, right=1.0, a2=a1 * np.eye(1), g2=np.zeros((1, 1))),
                Layer(left=1.0, right=np.inf, a2=a2 * np.eye(1), g2=np.zeros((1, 1))),
            ),
            interfaces=(ideal_contact(a1 * np.eye(1), a2 * np.eye(1)),),
            boundary=dirichlet(1),
        )
        lam = rng.uniform(0.1, 15.0)
        assert max_residual(bas.build_basis(cfg, lam)) <= 1e-10


def test_coef_from_stack_inverts_omega_stack_at_center():
    # the backward sweep reads each layer's coefficients from its stack at its
    # centre, the right junction: five random r = 2 layers at six lam each
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a2, g2 = a @ a.conj().T + np.eye(2), g @ g.conj().T
        lams = rng.uniform(0.1, 8.0, size=6)
        mu, v, vinv = bas._wavenumber_eig(a2, g2, lams)
        coef = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        ld = bas._LayerKernels(mu=mu, v=v, vinv=vinv, a2inv=None, center=0.4, coef=coef)
        back = bas._coef_from_stack(ld, bas._omega_stack(ld, 0.4, 2))
        assert np.max(np.abs(back - coef)) <= 1e-12 * np.max(np.abs(coef))


def test_family_derivatives_match_central_differences():
    # a random non-normal r = 2 family stacked over five lam, in both calling
    # modes of Family.at: stacked at one x, and one lam at an array of x
    rng = np.random.default_rng(11)
    n, x0, h = 5, 1.1, 1e-4

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    mu = rng.uniform(0.2, 3.0, size=(n, 2))
    factors = [cplx(n, 2, 2) for _ in range(4)]
    fam = bas.Family(mu, 0.3, *factors)
    stacked = np.array([fam.at(x0 + dx) for dx in (-h, 0.0, h)])
    modes = [(stacked, lambda order: fam.at(x0, order))]
    for i in range(n):
        p = bas.Family(mu[i], 0.3, *(f[i] for f in factors))
        modes.append((p.at([x0 - h, x0, x0 + h]), lambda order, p=p: p.at([x0], order)[0]))
    for k, exact in modes:
        d1 = (k[2] - k[0]) / (2 * h)
        d2 = (k[2] - 2 * k[1] + k[0]) / h**2
        for order, fd in ((1, d1), (2, d2)):
            ref = exact(order)
            assert ref.shape == fd.shape
            assert np.max(np.abs(fd - ref)) <= 1e-6 * np.max(np.abs(ref))
    for order in (0, 1, 2):
        ref = fam.at(x0, order)
        for i, (_, exact) in enumerate(modes[1:]):
            assert np.max(np.abs(exact(order) - ref[i])) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("imag, tables", [(0.0, 1), (0.4, 2)])
def test_family_at_exponentiates_one_table_for_real_mu(monkeypatch, imag, tables):
    # real mu: e^{-i mu s} is the conjugate of e^{i mu s}; complex mu takes both signs
    rng = np.random.default_rng(13)
    mu = rng.uniform(0.2, 3.0, size=(6, 2))
    if imag:
        mu = mu + 1j * imag
    lp, rp, lm, rm = (rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2)) for _ in range(4))
    fam = bas.Family(mu, 0.3, lp, rp, lm, rm)
    s = 1.7 - 0.3
    ref = [(lp * (1j * mu[:, None, :]) ** k * np.exp(1j * mu * s)[:, None, :]) @ rp
           + (lm * (-1j * mu[:, None, :]) ** k * np.exp(-1j * mu * s)[:, None, :]) @ rm
           for k in (0, 1, 2)]
    entries = [0]
    exp = np.exp

    def counted(x, *args, **kwargs):
        entries[0] += np.size(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    for order in (0, 1, 2):
        got = fam.at(1.7, order)
        assert np.max(np.abs(got - ref[order])) <= 1e-13 * np.max(np.abs(ref[order]))
    assert entries[0] == 3 * tables * mu.size


def residual_functions(cfg):
    """The four kernel residual functions of cfg, each taking one basis or batch."""
    fns = [bas.boundary_residual, bas.dual_boundary_residual]
    for k in range(1, cfg.n_interfaces + 1):
        fns += [lambda b, k=k: bas.junction_residual_primal(b, k),
                lambda b, k=k: bas.junction_residual_dual(b, k)]
    return fns


@pytest.mark.parametrize("name", ["threelayer_r2", "r2diag", "lambda_interface"])
def test_batch_diagnostics_equal_the_one_point_calls(load, name):
    # one call per diagnostic on the whole canonical grid, one value per node
    cfg, spec = load(name)
    lams = lambda_grid(cfg, spec).nodes
    batch = bas.build_batch(cfg, lams)
    fns = residual_functions(cfg)
    whole = [fn(batch) for fn in fns]
    assert all(w.shape == lams.shape for w in whole)
    assert max(np.max(w) for w in whole) <= 1e-11
    for i, lam in enumerate(lams):
        for b in (bas.build_basis(cfg, lam), batch.at(i)):
            for fn, w in zip(fns, whole):
                one = fn(b)
                assert np.ndim(one) == 0 and one == w[i]


def test_batch_diagnostics_keep_the_unflagged_rows(load):
    from test_transform import singular_at_two

    cfg, _ = singular_at_two(load)
    batch = bas.build_batch(cfg, [1.0, 2.0, 3.0, 4.0])
    assert list(batch.flags) == [1]
    fns = residual_functions(cfg)
    whole = [fn(batch) for fn in fns]
    for i in (0, 2, 3):
        b = bas.build_basis(cfg, batch.lam[i])
        assert [fn(b) for fn in fns] == [w[i] for w in whole]


@pytest.mark.parametrize(
    "lam", [[3.0, 1.0], np.array([1.0, 2.0]), np.array([2.0]), "2.5", True, np.bool_(True),
            1.0 + 2.0j, None],
)
def test_one_point_builders_refuse_anything_but_one_real_number(load, monkeypatch, lam):
    def no_build(*args):
        raise AssertionError("a refused spectral parameter reached the build")

    monkeypatch.setattr(bas, "_build_families", no_build)
    for name in ("twolayer", "fullaxis_twolayer"):
        with pytest.raises(InvariantViolation, match="one real spectral parameter"):
            bas.build_basis(load(name)[0], lam)


def test_one_point_builders_take_any_real_scalar(load):
    cfg, _ = load("twolayer")
    ref = bas.build_basis(cfg, 2.0)
    for lam in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
        b = bas.build_basis(cfg, lam)
        assert b.lam == 2.0 and b.phi0_inv.tobytes() == ref.phi0_inv.tobytes()
