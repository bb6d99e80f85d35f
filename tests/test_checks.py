import numpy as np
import pytest

from calabi import blaschke, checks, dsl, numerics
from calabi.dsl import parse_immersion
from conftest import make_grid


def test_sphere_report_passes_on_product(pair_product):
    grid = make_grid(-0.3, 0.3, 3, 3)
    report = checks.sphere_residual(pair_product, grid)
    assert report.passed
    assert report.max_residual <= 1e-8
    assert report.samples == 27


def test_sphere_report_fails_on_non_sphere():
    torus_like = parse_immersion(
        "immersion bump { vars: u, v; components: "
        "(u, v, 0.5*(u*u + v*v) + 0.05*u*u*u*u); }")
    report = checks.sphere_residual(torus_like, [(0.3, 0.3)])
    assert not report.passed
    assert report.worst_point == (0.3, 0.3)


def test_apolarity_on_products(point_product, mixed_product):
    grid2 = make_grid(-0.3, 0.3, 3, 2)
    assert checks.apolarity_residual(point_product, grid2).max_residual \
        <= 1e-8
    grid4 = make_grid(-0.2, 0.2, 2, 4)
    assert checks.apolarity_residual(mixed_product, grid4).max_residual \
        <= 1e-8


def test_gauss_codazzi_on_product(pair_product):
    grid = make_grid(-0.2, 0.2, 2, 3)
    reports = checks.gauss_codazzi_residual(pair_product, grid)
    assert reports["gauss"].passed
    assert reports["codazzi"].passed
    assert reports["gauss"].max_residual <= 1e-6
    assert reports["codazzi"].max_residual <= 1e-6


def test_gauss_codazzi_refuses_wrong_gauge():
    # the a = 1 hyperbola is a sphere with H != -1
    defn = parse_immersion(
        "immersion hyp { vars: s; components: (exp(s), exp(-s)); }")
    with pytest.raises(checks.GaugeError):
        checks.gauss_codazzi_residual(defn, [(0.0,), (0.2,)])


def test_quadric_curvature_is_constant_negative():
    """Hyperboloid sheet rescaled to H = -1: with K = 0 the Gauss
    identity forces constant curvature -1."""
    from calabi import decompose
    quadric = parse_immersion(
        "immersion hyperboloid { vars: u1, u2; components: "
        "(u1, u2, sqrt(1 + u1*u1 + u2*u2)); }")
    scaled = decompose.normalize_homothety(
        quadric, [(0.11, 0.22)]).def_scaled
    grid = make_grid(-0.4, 0.4, 3, 2)
    reports = checks.gauss_codazzi_residual(scaled, grid)
    assert reports["gauss"].max_residual <= 1e-6
    frame = blaschke.full_frame(scaled, (0.1, -0.2))
    want = -(np.einsum("jk,il->ijkl", frame.h, np.eye(2))
             - np.einsum("ik,jl->ijkl", frame.h, np.eye(2)))
    assert np.max(np.abs(frame.Rhat - want)) <= 1e-6


def test_parallel_cubic_on_products(pair_product, mixed_product):
    grid3 = make_grid(-0.2, 0.2, 2, 3)
    assert checks.parallel_cubic_residual(pair_product, grid3).passed
    grid4 = make_grid(-0.2, 0.2, 2, 4)
    assert checks.parallel_cubic_residual(mixed_product, grid4).passed


def test_unimodular_criterion_on_product(point_product):
    grid = make_grid(-0.3, 0.3, 3, 2)
    report = checks.unimodular_criterion(point_product, grid)
    assert report.passed
    assert report.max_residual <= 1e-8


def test_unimodular_criterion_rejects_off_center_gauge():
    defn = parse_immersion(
        "immersion hyp { vars: s; components: (exp(s), exp(-s)); }")
    # xi = phi fails for the a = 1 gauge, and the criterion must say so
    with pytest.raises(checks.GaugeError):
        checks.unimodular_criterion(defn, [(0.0,), (0.3,)])


def test_unimodular_criterion_frames_match_definition(pair_product):
    grid = make_grid(-0.3, 0.3, 3, 3)
    frames = blaschke.frames_on_grid(pair_product, grid)
    assert checks.unimodular_criterion(frames) == \
        checks.unimodular_criterion(pair_product, grid)


def test_unimodular_criterion_is_scale_free_in_the_parameters(pair_product):
    """u -> 1e-4 u shrinks det(d psi, psi) to about 5e-13; the degeneracy
    test compares it with the column lengths, not with a constant."""
    slow = {v: dsl.mul(dsl.const(1e-4), dsl.var(v)) for v in pair_product.vars}
    reparam = dsl.ImmersionDef(
        name="slow", vars=pair_product.vars,
        components=tuple(dsl.substitute(c, slow)
                         for c in pair_product.components))
    report = checks.unimodular_criterion(
        reparam, make_grid(-0.3, 0.3, 3, 3) / 1e-4)
    assert report.passed
    assert report.samples == 27


def test_report_from_samples_picks_worst_point():
    report = checks.CheckReport.from_samples(
        "demo", [1e-9, 5e-7, 2e-9], [(0.0,), (1.0,), (2.0,)], 1e-6)
    assert report.passed
    assert report.worst_point == (1.0,)
    assert report.max_residual == pytest.approx(5e-7)


def test_report_below_noise_floor_names_the_first_point():
    """Residuals below NOISE_FLOOR * tolerance are rounding, so the worst
    point is the first sample, not an argmax chosen by rounding."""
    floor = checks.NOISE_FLOOR * 1e-6
    report = checks.CheckReport.from_samples(
        "demo", [0.2 * floor, 0.9 * floor, 0.5 * floor],
        [(0.0,), (1.0,), (2.0,)], 1e-6)
    assert report.worst_point == (0.0,)
    assert report.max_residual == pytest.approx(0.9 * floor)
    above = checks.CheckReport.from_samples(
        "demo", [0.2 * floor, 2.0 * floor, 0.5 * floor],
        [(0.0,), (1.0,), (2.0,)], 1e-6)
    assert above.worst_point == (1.0,)


def _per_frame_residuals(frames) -> dict:
    """The five checks as loops over the one-point frames of a batch, the
    reference for their array forms: {report name: residual per point}."""
    res = {name: [] for name in ("sphere", "apolarity", "gauss", "codazzi",
                                 "parallel_cubic", "unimodular")}
    h_first = frames[0].H
    for fr in frames:
        n = fr.n
        eye = np.eye(n)
        b = numerics.metric_orthonormal_basis(fr.h)
        dev = np.max(np.abs(b.T @ fr.h @ fr.S @ b - fr.H * eye))
        res["sphere"].append(max(dev, abs(fr.H - h_first)))
        tvec = np.einsum("ijj->i", fr.K)
        res["apolarity"].append(float(np.max(np.abs(tvec @ b))))
        h_term = np.einsum("jk,il->ijkl", fr.h, eye) - np.einsum(
            "ik,jl->ijkl", fr.h, eye)
        commutator = np.einsum("iml,jkm->ijkl", fr.K, fr.K) - np.einsum(
            "jml,ikm->ijkl", fr.K, fr.K)
        res["gauss"].append(float(np.max(np.abs(fr.Rhat + h_term
                                                + commutator))))
        res["codazzi"].append(float(np.max(np.abs(
            fr.nabla_K - fr.nabla_K.transpose(1, 0, 2, 3)))))
        res["parallel_cubic"].append(float(np.max(np.abs(fr.nabla_K))))
        basis = np.vstack([fr.tangent, fr.position]).T
        g = np.linalg.solve(basis, fr.second.reshape(n * n, n + 1).T)[n]
        res["unimodular"].append(abs(np.linalg.det(basis) ** 2
                                     - np.linalg.det(g.reshape(n, n))))
    return res


@pytest.mark.parametrize("fixture, grid", [
    ("pair_product", make_grid(-0.3, 0.3, 3, 3)),
    ("point_product", make_grid(-0.3, 0.3, 5, 2)),
    ("mixed_product", make_grid(-0.2, 0.2, 3, 4)),
])
def test_array_checks_match_the_per_frame_loops(request, fixture, grid):
    frames = blaschke.frames_on_grid(request.getfixturevalue(fixture), grid)
    reports = {report.name: report for report in (
        checks.sphere_residual(frames), checks.apolarity_residual(frames),
        *checks.gauss_codazzi_residual(frames).values(),
        checks.parallel_cubic_residual(frames),
        checks.unimodular_criterion(frames))}
    for name, residuals in _per_frame_residuals(frames).items():
        ref = checks.CheckReport.from_samples(name, residuals, grid,
                                              reports[name].tolerance)
        assert reports[name].max_residual == ref.max_residual, name
        assert reports[name].worst_point == ref.worst_point, name


@pytest.mark.parametrize("src, c, dims", [
    ("immersion h2 { vars: s; components: "
     "(0.7071067811865476*exp(s), 0.7071067811865476*exp(-s)); }", 2.5, 1),
    ("immersion h2 { vars: s; components: "
     "(0.7071067811865476*exp(s), 0.7071067811865476*exp(-s)); }", 0.3, 1),
    ("immersion orthant { vars: u, v; components: "
     "(exp(u), exp(v), exp(-u-v)); }", 1.0, 2),
])
def test_centroaffine_sphere_passes_centered_hyperbolic_spheres(src, c, dims):
    """c h2 and the orthant surface xyz = 1 are hyperbolic affine spheres
    centered at 0: rho is constant, |T|_g is rounding, and H = -rho^(1/(n+2))
    is the H of the frames at every point."""
    from calabi import decompose
    defn = decompose._scaled_def(parse_immersion(src), c)
    grid = make_grid(-0.4, 0.3, 4, dims)
    rho, sphere = checks.centroaffine_sphere(defn, grid)
    root = 1.0 / (defn.nvars + 2)
    assert -rho ** root == pytest.approx(
        blaschke.frames_on_grid(defn, grid).H, rel=0, abs=1e-12)
    assert np.max(np.abs((rho / rho[0]) ** root - 1.0)) <= 1e-12
    assert sphere <= 1e-12


@pytest.mark.parametrize("components, affine_sphere", [
    ("(exp(s), exp(-2*s))", False), ("(exp(s) + 0.3, exp(-s))", True)])
def test_centroaffine_sphere_fails_a_curve_that_is_not_a_centered_sphere(
        components, affine_sphere):
    """y = x^-2 is no affine sphere: |T|_g = sqrt(2) at every point. The
    hyperbola centered at (0.3, 0) is an affine sphere, which the frame
    check S = H id with H constant passes, but not one centered at 0,
    which a factor of a product must be (xi = phi)."""
    defn = parse_immersion(f"immersion c {{ vars: s; components: {components}; }}")
    grid = make_grid(-0.3, 0.3, 5, 1)
    _rho, sphere = checks.centroaffine_sphere(defn, grid)
    assert sphere > 1e-6
    assert checks.sphere_residual(defn, grid).passed == affine_sphere
    if not affine_sphere:
        assert sphere == pytest.approx(np.sqrt(2.0), rel=1e-12)
