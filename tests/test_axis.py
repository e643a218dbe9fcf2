import dataclasses

import numpy as np
import pytest

import layerft
from layerft import axis as ax
from layerft import basis as bas
from layerft import catalog as cat
from layerft import cli
from layerft import transform as tr
from layerft.errors import (
    ConfigError,
    DegenerateBoundary,
    DimensionMismatch,
    InvariantViolation,
    WrongMode,
)
from layerft.problem import Interface, Layer, ProblemConfig, dirichlet, ideal_contact
from layerft.quadrature import QuadratureSpec, lambda_grid


def gauss_ft(lam, c, w):
    # int f e^{-i lam x} dx for f = exp(-(x-c)^2 / (2 w^2))
    return w * np.sqrt(2 * np.pi) * np.exp(-((w * lam) ** 2) / 2 - 1j * lam * c)


def test_homogeneous_image_is_classical_fourier(load):
    cfg, spec = load("fullaxis")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.7, width=0.6), cfg, spec.x_max)
    img = ax.scalar_axis_forward(cfg, f, spec)
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
    img = ax.scalar_axis_forward(cfg, f, spec)
    lam = img.lambdas
    oracle = 1j * gauss_ft(lam / a, 0.0, 0.8) / (2 * lam * a)
    assert np.max(np.abs(img.values[:, 0] - oracle)) <= 1e-12


def test_homogeneous_roundtrip(load):
    cfg, spec = load("fullaxis")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.7, width=0.6), cfg, spec.x_max)
    img = ax.scalar_axis_forward(cfg, f, spec)
    xs = f.layers[0].x
    recon = ax.scalar_axis_inverse(cfg, img, [xs], spec)
    assert np.max(np.abs(recon.layers[0].values - f.layers[0].values)) <= 1e-3


def test_two_layer_roundtrip(load):
    cfg, spec = load("fullaxis_twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump", center=0.5, width=0.5), cfg, spec.x_max)
    img = ax.scalar_axis_forward(cfg, f, spec)
    pts = [ls.x for ls in f.layers]
    recon = ax.scalar_axis_inverse(cfg, img, pts, spec)
    sup = max(
        np.max(np.abs(recon.layers[m].values - f.layers[m].values)) for m in range(2)
    )
    assert sup <= 1e-3


def test_kernel_symmetry(load):
    cfg, _ = load("fullaxis_twolayer")
    xs = np.array([-4.0, -1.2, 0.1, 0.5, 0.9, 3.5])
    for lam in (0.3, 1.9, 6.4):
        b = ax.build_axis_basis(cfg, lam)
        assert ax.symmetry_defect(b, xs) <= 1e-12


def test_single_layer_centers_at_origin(load):
    cfg, _ = load("fullaxis")
    b = ax.build_axis_basis(cfg, 1.3)
    assert b.centers == [0.0] or np.allclose(b.centers, [0.0])
    xs = np.linspace(-5, 5, 11)
    p = ax.axis_u_on_layer(b, 0, xs)
    assert np.max(np.abs(p[:, 0] - np.exp(1j * 1.3 * xs))) <= 1e-12
    assert np.max(np.abs(p[:, 1] - np.exp(-1j * 1.3 * xs))) <= 1e-12


def test_wrong_mode_guards(load):
    cfg_semi, spec = load("twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), cfg_semi, spec.x_max)
    with pytest.raises(WrongMode):
        ax.scalar_axis_forward(cfg_semi, f, spec)
    with pytest.raises(WrongMode):
        ax.build_axis_basis(cfg_semi, 1.0)


def test_image_must_have_two_branches(load):
    cfg, spec = load("fullaxis")
    from layerft.gridfn import SpectralImage
    from layerft.quadrature import lambda_grid

    grid = lambda_grid(cfg, spec)
    img = SpectralImage(lambdas=grid.nodes, values=np.zeros((grid.nodes.size, 1)), meta={})
    with pytest.raises(DimensionMismatch):
        ax.scalar_axis_inverse(cfg, img, [np.linspace(-1, 1, 5)], spec)


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
    # equal coefficients on both sides make T anti-diagonal; the off-diagonal
    # couplings c2, d1 survive, but a contrived zero-block interface dies
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
    b = ax.build_axis_basis(cfg, 1.1)
    assert abs(b.c2) > 1e-6 and abs(b.d1) > 1e-6

    blocks = {n: Z for n in Interface.BLOCK_NAMES}
    blocks.update(beta11=E, alpha21=E)  # one-sided rows: pencil singular
    cfg_bad = dataclasses.replace(cfg, interfaces=(Interface(**blocks),))
    with pytest.raises(Exception) as exc:
        ax.build_axis_basis(cfg_bad, 1.1)
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
    b = ax.build_axis_basis(cfg, lam)
    for k, iface in enumerate(cfg.interfaces, start=1):
        lk = cfg.junction(k)
        for layers in (b.layers, b.q_layers):       # P and Q families
            left = iface.pencil(1, lam) @ bas._omega_stack(layers[k - 1], [lk], 1)[0]
            right = iface.pencil(2, lam) @ bas._omega_stack(layers[k], [lk], 1)[0]
            assert np.linalg.norm(left - right) <= 1e-12 * np.linalg.norm(right)

    # Q- and Q+ start in the left layer as exp(-/+ i q (x - l_1))
    xs = np.linspace(-6.0, -0.5, 9)
    q, s = np.sqrt(lam**2 + 0.2), xs - b.centers[0]
    qq = bas._omega_stack(b.q_layers[0], xs, 1)[:, 0]
    assert np.max(np.abs(qq - np.column_stack([np.exp(-1j * q * s), np.exp(1j * q * s)]))) <= 1e-12

    pts = np.array([-4.0, -1.2, -0.5, 0.1, 0.9, 1.0, 3.5])
    assert ax.symmetry_defect(b, pts) <= 1e-12


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


def test_full_axis_image_carries_the_semi_axis_meta(load):
    # the shared forward driver estimates the xi tail at both truncated ends
    cfg, spec = load("fullaxis_twolayer")
    tails = []
    for center in (3.0, -11.8, 11.8):
        f = cat.to_grid_function(cat.make_profile("gauss_bump", center=center), cfg, spec.x_max)
        img = ax.scalar_axis_forward(cfg, f, spec)
        tails.append(img.meta["xi_tail_estimate"])
    assert tails[0] <= 1e-12
    assert min(tails[1:]) >= 1e-2
    semi_cfg, semi_spec = load("twolayer")
    f = cat.to_grid_function(cat.make_profile("gauss_bump"), semi_cfg, semi_spec.x_max)
    assert set(img.meta) == set(tr.forward_transform(semi_cfg, f, semi_spec).meta)


def axis_arrays(b):
    """Every array of an AxisBatch or of its one-point view, by name."""
    out = {"lam": b.lam, "c2": b.c2, "d1": b.d1, "omega": b.omega}
    for name in ("layers", "q_layers"):
        for m, ld in enumerate(getattr(b, name)):
            out.update({f"{name}[{m}].{a}": getattr(ld, a) for a in ("mu", "v", "vinv", "coef")})
    return out


@pytest.mark.parametrize("name", ["fullaxis_twolayer", "three_layer_axis"])
def test_axis_batch_matches_pointwise_build(load, name):
    # every canonical node of one batched build against build_axis_basis there
    cfg, spec = load(name) if name != "three_layer_axis" else (three_layer_axis(), QuadratureSpec())
    lams = lambda_grid(cfg, spec).nodes
    batch = ax.build_axis_batch(cfg, lams)
    assert not batch.flags
    for i, lam in enumerate(lams):
        b, view = ax.build_axis_basis(cfg, lam), batch.at(i)
        assert type(b) is type(view) is ax.AxisBatch and b.centers == batch.centers
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
        defect = ax.symmetry_defect(ax.build_axis_basis(cfg, lam), xs)
        assert np.ndim(defect) == 0 and defect <= 1e-12
    per_lam = ax.symmetry_defect(ax.build_axis_batch(cfg, lams), xs[::40])
    assert per_lam.shape == lams.shape and np.max(per_lam) <= 1e-12


def test_exported_one_point_name_is_the_built_type(load):
    cfg, _ = load("twolayer")
    assert isinstance(layerft.build_basis(cfg, 1.0), layerft.SpectralBasisAtLambda)
