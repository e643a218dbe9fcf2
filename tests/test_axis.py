import dataclasses

import numpy as np
import pytest

import layerft
from layerft import basis as bas
from layerft import catalog as cat
from layerft import cli
from layerft import transform as tr
from layerft.configio import parse_config
from layerft.errors import ConfigError, DegenerateBoundary, DimensionMismatch
from layerft.problem import Interface, Layer, ProblemConfig, dirichlet, ideal_contact
from layerft.quadrature import QuadratureSpec, lambda_grid

from conftest import config_path


def gauss_ft(lam, c, w):
    # int f e^{-i lam x} dx for f = exp(-(x-c)^2 / (2 w^2))
    return w * np.sqrt(2 * np.pi) * np.exp(-((w * lam) ** 2) / 2 - 1j * lam * c)


J = np.array([[0, 1], [1, 0]], dtype=complex)


def q_sweep(b):
    """Oracle: the left-tail families (Q-, Q+) of every layer of an AxisBatch or its view.

    Q starts in the left layer as exp(-/+ i q (x - c_1)), coefficients J, and
    is swept left to right by solving M_1 (Q; Q')(l_k-) = M_2 (Q; Q')(l_k+)
    for the right layer's coefficients: the construction the closed-form
    connection S replaces.  Returns copies of b.layers holding those
    coefficients, columns (Q-, Q+).
    """
    cfg = b.config
    q = [dataclasses.replace(b.layers[0], coef=np.broadcast_to(J, b.layers[0].coef.shape))]
    for k, iface in enumerate(cfg.interfaces, start=1):
        lk, nxt = cfg.junction(k), b.layers[k]
        stack = np.linalg.solve(iface.pencil(2, b.lam),
                                iface.pencil(1, b.lam) @ bas._omega_stack(q[-1], lk, 1))
        unit = dataclasses.replace(nxt, coef=np.broadcast_to(np.eye(2), nxt.coef.shape))
        q.append(dataclasses.replace(nxt, coef=np.linalg.solve(bas._omega_stack(unit, lk, 1),
                                                               stack)))
    return q


def connection(q):
    """(c2, d1) = (T[1, 0], T[0, 1]) of T = Q in the right tail, where P is the identity."""
    t = q[-1].coef
    return np.stack([t[..., 1, 0], t[..., 0, 1]], axis=-1)


def oracle_column(b, q, m, x):
    """The column kernel (-Q-/(c2 w_m), -Q+/(d1 w_m)) on layer m at x, from the oracle Q."""
    return -bas.row_family(q[m]).at(x)[..., 0, :] / (connection(q) * b.omega[..., m, None])


def symmetry_defect(b, q, xs):
    """Max relative asymmetry of N(x, xi) = -P+(x) Q-(xi)/c2 - P-(x) Q+(xi)/d1, per lam of b.

    x on axis 0 of each layer's Family.at, the spectral points of a batch on axis 1.
    """
    xs = np.asarray(xs, dtype=float)
    idx = b.config.layer_index(xs)
    pq = np.empty((2, xs.size) + np.shape(b.lam) + (2,), dtype=complex)
    for m, (p, qm) in enumerate(zip(b.layers, q)):
        x = xs[idx == m].reshape((-1,) + (1,) * np.ndim(b.lam))
        pq[:, idx == m] = [bas.row_family(ld).at(x)[..., 0, :] for ld in (p, qm)]
    pp, qq = np.moveaxis(pq, 1, -2)                            # (..., Nx, 2)
    n = -(pp / connection(q)[..., None, :]) @ qq.swapaxes(-1, -2)
    scale = np.maximum(np.abs(n).max(axis=(-2, -1)), 1e-300)
    return np.abs(n - n.swapaxes(-1, -2)).max(axis=(-2, -1)) / scale


def assert_dual_is_oracle_column(b, q, xs):
    """u* of b equals the oracle's column to 1e-12 relative, on each layer's points of xs."""
    xs = np.asarray(xs, dtype=float)
    idx = b.config.layer_index(xs)
    for m in sorted(set(idx)):
        x = xs[idx == m] if np.ndim(b.lam) == 0 else xs[idx == m][:, None]
        ref = oracle_column(b, q, m, x)
        got = bas.u_star_on_layer(b, m, x)[..., 0]
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), m


def test_homogeneous_image_is_classical_fourier(load):
    cfg, spec = load("fullaxis")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.7, width=0.6), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec)
    lam = img.lambdas
    oracle = np.column_stack([
        1j * gauss_ft(lam, 0.7, 0.6) / (2 * lam),
        1j * gauss_ft(-lam, 0.7, 0.6) / (2 * lam),
    ])
    assert np.max(np.abs(img.values - oracle)) <= 1e-12
    assert img.values.shape[1] == 2


def test_homogeneous_scaled_medium_image():
    # for a2 = a^2 the branches sample the classical transform at lam / a
    a2 = 2.25
    a = 1.5
    cfg = ProblemConfig(
        r=1, mode="full-axis",
        layers=(Layer(left=-np.inf, right=np.inf, a2=a2 * np.eye(1), g2=np.zeros((1, 1))),),
        interfaces=(),
    )
    from layerft.quadrature import QuadratureSpec

    spec = QuadratureSpec()
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.0, width=0.8), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec)
    lam = img.lambdas
    oracle = 1j * gauss_ft(lam / a, 0.0, 0.8) / (2 * lam * a)
    assert np.max(np.abs(img.values[:, 0] - oracle)) <= 1e-12


def test_homogeneous_roundtrip(load):
    cfg, spec = load("fullaxis")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.7, width=0.6), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec)
    xs = f.layers[0].x
    recon = tr.inverse_transform(cfg, img, [xs], spec)
    assert np.max(np.abs(recon.layers[0].values - f.layers[0].values)) <= 1e-3


def test_two_layer_roundtrip(load):
    cfg, spec = load("fullaxis_twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.5, width=0.5), cfg, spec.x_max)
    img = tr.forward_transform(cfg, f, spec)
    pts = [ls.x for ls in f.layers]
    recon = tr.inverse_transform(cfg, img, pts, spec)
    sup = max(
        np.max(np.abs(recon.layers[m].values - f.layers[m].values)) for m in range(2)
    )
    assert sup <= 1e-3


def test_kernel_symmetry(load):
    cfg, _ = load("fullaxis_twolayer")
    xs = np.array([-4.0, -1.2, 0.1, 0.5, 0.9, 3.5])
    for lam in (0.3, 1.9, 6.4):
        b = bas.build_basis(cfg, lam)
        q = q_sweep(b)
        assert symmetry_defect(b, q, xs) <= 1e-12
        assert_dual_is_oracle_column(b, q, xs)
        # the closed-form kernel numerator -P(x) S P(xi)^T is symmetric as built
        assert np.array_equal(b.s, b.s.T)


def test_single_layer_centers_at_origin(load):
    cfg, _ = load("fullaxis")
    b = bas.build_basis(cfg, 1.3)
    assert [ld.center for ld in b.layers] == [0.0]
    xs = np.linspace(-5, 5, 11)
    p = bas.u_on_layer(b, 0, xs)
    assert p.shape == (xs.size, 1, 2)
    assert np.max(np.abs(p[:, 0, 0] - np.exp(1j * 1.3 * xs))) <= 1e-12
    assert np.max(np.abs(p[:, 0, 1] - np.exp(-1j * 1.3 * xs))) <= 1e-12


def test_image_must_have_two_branches(load):
    cfg, spec = load("fullaxis")
    from layerft.gridfn import SpectralImage
    from layerft.quadrature import lambda_grid

    grid = lambda_grid(cfg, spec)
    img = SpectralImage(lambdas=grid.nodes, values=np.zeros((grid.nodes.size, 1)), meta={})
    with pytest.raises(DimensionMismatch):
        tr.inverse_transform(cfg, img, [np.linspace(-1, 1, 5)], spec)


def test_full_axis_validation_rules():
    E = np.eye(1)
    Z = np.zeros((1, 1))
    # vector problems are not admitted on the axis
    with pytest.raises(ConfigError):
        ProblemConfig(
            r=2, mode="full-axis",
            layers=(Layer(left=-np.inf, right=np.inf, a2=np.eye(2), g2=np.zeros((2, 2))),),
            interfaces=(),
        )
    # boundary operators are meaningless without an endpoint
    with pytest.raises(ConfigError):
        ProblemConfig(
            r=1, mode="full-axis",
            layers=(Layer(left=-np.inf, right=np.inf, a2=E, g2=Z),),
            interfaces=(), boundary=dirichlet(1),
        )
    # junction blocks must be free of the spectral parameter
    blocks = {n: Z for n in Interface.BLOCK_NAMES}
    blocks.update(beta11=E, beta12=E, gamma11=0.2 * E, gamma12=0.2 * E,
                  alpha21=E, alpha22=2 * E)
    with pytest.raises(ConfigError):
        ProblemConfig(
            r=1, mode="full-axis",
            layers=(
                Layer(left=-np.inf, right=0.0, a2=E, g2=Z),
                Layer(left=0.0, right=np.inf, a2=2 * E, g2=Z),
            ),
            interfaces=(Interface(**blocks),),
        )


def test_reflectionless_junction_degenerates():
    # equal coefficients on both sides leave P the plane waves in both layers,
    # so C0 = I and S = J: no flag, but a contrived zero-block interface dies
    E = np.eye(1)
    Z = np.zeros((1, 1))
    cfg = ProblemConfig(
        r=1, mode="full-axis",
        layers=(
            Layer(left=-np.inf, right=0.0, a2=E, g2=Z),
            Layer(left=0.0, right=np.inf, a2=E, g2=Z),
        ),
        interfaces=(ideal_contact(E, E),),
    )
    batch = bas.build_batch(cfg, [1.1])
    assert not batch.flags and np.isfinite(batch.s).all()
    assert np.max(np.abs(batch.s[0] - J)) <= 1e-12

    blocks = {n: Z for n in Interface.BLOCK_NAMES}
    blocks.update(beta11=E, alpha21=E)  # one-sided rows: pencil singular
    cfg_bad = dataclasses.replace(cfg, interfaces=(Interface(**blocks),))
    with pytest.raises(Exception) as exc:
        bas.build_basis(cfg_bad, 1.1)
    from layerft.errors import LayerFTError

    assert isinstance(exc.value, LayerFTError)


def three_layer_axis():
    """Full axis whose first junction is not ideal contact: F(l-) = 1.5 G(l+), 0.3 F + F' = 2 G'."""
    E = np.eye(1)
    Z = np.zeros((1, 1))
    blocks = {n: Z for n in Interface.BLOCK_NAMES}
    blocks.update(beta11=E, beta21=0.3 * E, alpha21=E, beta12=1.5 * E, alpha22=2 * E)
    return ProblemConfig(
        r=1, mode="full-axis",
        layers=(
            Layer(left=-np.inf, right=-0.5, a2=E, g2=0.2 * E),
            Layer(left=-0.5, right=1.0, a2=2.25 * E, g2=Z),
            Layer(left=1.0, right=np.inf, a2=0.7 * E, g2=0.1 * E),
        ),
        interfaces=(Interface(**blocks), ideal_contact(2.25 * E, 0.7 * E)),
    )


@pytest.mark.parametrize("lam", [0.3, 2.1, 7.5])
def test_three_layer_sweeps_meet_junction_conditions(lam):
    cfg = three_layer_axis()
    b = bas.build_basis(cfg, lam)
    for k, iface in enumerate(cfg.interfaces, start=1):
        lk = cfg.junction(k)
        for layers in (b.layers, q_sweep(b)):       # P and the oracle's Q families
            left = iface.pencil(1, lam) @ bas._omega_stack(layers[k - 1], [lk], 1)[0]
            right = iface.pencil(2, lam) @ bas._omega_stack(layers[k], [lk], 1)[0]
            assert np.linalg.norm(left - right) <= 1e-12 * np.linalg.norm(right)

    # Q- and Q+ start in the left layer as exp(-/+ i q (x - l_1))
    xs = np.linspace(-6.0, -0.5, 9)
    q, s = np.sqrt(lam**2 + 0.2), xs - b.layers[0].center
    qq = bas._omega_stack(q_sweep(b)[0], xs, 1)[:, 0]
    assert np.max(np.abs(qq - np.column_stack([np.exp(-1j * q * s), np.exp(1j * q * s)]))) <= 1e-12

    pts = np.array([-4.0, -1.2, -0.5, 0.1, 0.9, 1.0, 3.5])
    assert symmetry_defect(b, q_sweep(b), pts) <= 1e-12
    assert_dual_is_oracle_column(b, q_sweep(b), pts)


def test_cli_singular_full_axis_pencil_exits_4(tmp_path):
    cfg = tmp_path / "singular_axis.cfg"
    cfg.write_text(
        "problem: {r: 1, mode: full-axis}\n"
        "layers:\n"
        "  - {left: -inf, right: 0.5, a2: 1.0}\n"
        "  - {left: 0.5, right: inf, a2: 2.0}\n"
        "interfaces:\n"
        "  - {}\n"
    )
    argv = ["forward", "--config", str(cfg), "--input", "gauss_bump",
            "--output", str(tmp_path / "img.csv"), "--lambda-steps", "50"]
    assert cli.main(argv) == 4
    assert not (tmp_path / "img.csv").exists()


def test_mirror_junction_degenerates_the_connection_at_every_point(tmp_path, capsys):
    # F(0-) = F(0+), F'(0-) = -F'(0+) between equal media: exp(+-i lam x) on
    # the right continues as exp(-+i lam x) on the left, so C00 = C11 = 0 at
    # every lam
    cfg_path = tmp_path / "mirror.cfg"
    cfg_path.write_text(
        "problem: {r: 1, mode: full-axis}\n"
        "layers:\n"
        "  - {left: -inf, right: 0.0, a2: 1.0}\n"
        "  - {left: 0.0, right: inf, a2: 1.0}\n"
        "interfaces:\n"
        "  - {beta11: 1.0, beta12: 1.0, alpha21: 1.0, alpha22: -1.0}\n"
    )
    cfg, _ = parse_config(cfg_path)
    lams = [0.3, 1.0, 7.5]
    batch = bas.build_batch(cfg, lams)
    assert sorted(batch.flags) == [0, 1, 2]
    for j, lam in enumerate(lams):
        assert isinstance(batch.flags[j], DegenerateBoundary)
        assert str(batch.flags[j]).startswith(f"kernel connection degenerates at lam = {lam} ")
    with pytest.raises(DegenerateBoundary, match="kernel connection degenerates at lam = 1.0 "):
        bas.build_basis(cfg, 1.0)
    argv = ["forward", "--config", str(cfg_path), "--input", "gauss_bump",
            "--output", str(tmp_path / "img.csv"), "--lambda-steps", "50"]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err.startswith(
        "error: every spectral point is degenerate; first: DegenerateBoundary: "
        "kernel connection degenerates at lam = ")
    assert not (tmp_path / "img.csv").exists()


def test_cli_basis_tabulates_the_full_axis_kernels(load, tmp_path):
    # u is the 1 x 2 row (e^{i lam x}, e^{-i lam x}) and u* the 2 x 1 column of the batch
    cfg, _ = load("fullaxis")
    out, lam = tmp_path / "basis.csv", 1.3
    assert cli.main(["basis", "--config", config_path("fullaxis"), "--lambda", str(lam),
                     "--output", str(out), "--samples", "9"]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["x", "u_re_11", "u_im_11", "u_re_12", "u_im_12",
                      "us_re_11", "us_im_11", "us_re_21", "us_im_21"]
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    xs, cells = table[:, 0], table[:, 1::2] + 1j * table[:, 2::2]
    assert xs.size == 9
    assert np.max(np.abs(cells[:, 0] - np.exp(1j * lam * xs))) <= 1e-12
    assert np.max(np.abs(cells[:, 1] - np.exp(-1j * lam * xs))) <= 1e-12
    dual = bas.build_batch(cfg, [lam]).dual[0].at(xs[:, None])[:, 0, :, 0]
    assert np.max(np.abs(cells[:, 2:] - dual)) <= 1e-12 * np.max(np.abs(dual))


def test_full_axis_image_carries_the_semi_axis_meta(load):
    # the shared forward driver estimates the xi tail at both truncated ends
    cfg, spec = load("fullaxis_twolayer")
    tails = []
    for center in (3.0, -11.8, 11.8):
        f = cat.to_grid_function(cat.make_profile("gauss_bump", center=center), cfg, spec.x_max)
        img = tr.forward_transform(cfg, f, spec)
        tails.append(img.meta["xi_tail_estimate"])
    assert tails[0] <= 1e-12
    assert min(tails[1:]) >= 1e-2
    semi_cfg, semi_spec = load("twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), semi_cfg, semi_spec.x_max)
    assert set(img.meta) == set(tr.forward_transform(semi_cfg, f, semi_spec).meta)


def axis_arrays(b):
    """Every array of an AxisBatch or of its one-point view, by name."""
    out = {"lam": b.lam, "s": b.s, "omega": b.omega}
    for m, ld in enumerate(b.layers):
        out.update({f"layers[{m}].{a}": getattr(ld, a)
                    for a in ("mu", "v", "vinv", "coef", "center")})
    return out


@pytest.mark.parametrize("name", ["fullaxis_twolayer", "three_layer_axis"])
def test_axis_batch_matches_pointwise_build(load, name):
    # every canonical node of one batched build against build_basis there
    cfg, spec = load(name) if name != "three_layer_axis" else (three_layer_axis(), QuadratureSpec())
    lams = lambda_grid(cfg, spec).nodes
    batch = bas.build_batch(cfg, lams)
    assert not batch.flags
    for i, lam in enumerate(lams):
        b, view = bas.build_basis(cfg, lam), batch.at(i)
        assert type(b) is type(view) is bas.AxisBatch
        assert b.flags == view.flags == {}
        ref, got = axis_arrays(b), axis_arrays(view)
        assert ref.keys() == got.keys()
        for key in ref:
            assert np.shape(got[key]) == np.shape(ref[key]), key
            assert np.max(np.abs(got[key] - ref[key])) <= 1e-13 * np.max(np.abs(ref[key])), key


def test_symmetry_defect_on_a_fine_grid_and_on_a_batch():
    cfg = three_layer_axis()
    xs = np.linspace(-6.0, 6.0, 2000)
    assert set(cfg.layer_index(xs)) == {0, 1, 2}
    lams = np.array([0.3, 2.1, 7.5])
    for lam in lams:
        b = bas.build_basis(cfg, lam)
        defect = symmetry_defect(b, q_sweep(b), xs)
        assert np.ndim(defect) == 0 and defect <= 1e-12
    batch = bas.build_batch(cfg, lams)
    q = q_sweep(batch)
    per_lam = symmetry_defect(batch, q, xs[::40])
    assert per_lam.shape == lams.shape and np.max(per_lam) <= 1e-12
    assert_dual_is_oracle_column(batch, q, xs[::40])


def test_every_exported_name_resolves():
    missing = [name for name in layerft.__all__ if not hasattr(layerft, name)]
    assert missing == []
    for gone in ("scalar_axis_forward", "scalar_axis_inverse", "SpectralBasisAtLambda"):
        assert not hasattr(layerft, gone)
