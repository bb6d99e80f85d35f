import math

import numpy as np
import pytest

from calabi import blaschke
from calabi.dsl import parse_immersion
from conftest import make_grid


def test_paraboloid_is_parabolic(paraboloid):
    """Graph of (u1^2 + u2^2)/2: improper affine sphere with constant
    normal (0, 0, 1) and H = 0."""
    for u in [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.1)]:
        frame = blaschke.full_frame(paraboloid, u)
        assert np.allclose(frame.xi, [0.0, 0.0, 1.0], atol=1e-9)
        assert frame.H == pytest.approx(0.0, abs=1e-9)
        assert np.max(np.abs(frame.S)) <= 1e-9


def test_hyperbola_gauge():
    # xy = 1/2 parametrized by arc of exponentials: the H = -1 gauge
    defn = parse_immersion(
        "immersion h2 { vars: s; components: "
        "(0.7071067811865476*exp(s), 0.7071067811865476*exp(-s)); }")
    for s in (-0.4, 0.0, 0.7):
        frame = blaschke.full_frame(defn, (s,))
        assert frame.H == pytest.approx(-1.0, abs=1e-8)
        assert np.allclose(frame.xi, frame.position, atol=1e-8)


def test_quadric_has_zero_difference_tensor(quadric):
    grid = make_grid(-0.4, 0.4, 3, 2)
    worst = max(float(np.max(np.abs(blaschke.full_frame(quadric, tuple(u)).K)))
                for u in grid)
    assert worst <= 1e-7


def test_quadric_normal_is_radial(quadric):
    # centered affine sphere: xi parallel to phi
    frame = blaschke.full_frame(quadric, (0.3, -0.2))
    cosine = float(frame.xi @ frame.position
                   / (np.linalg.norm(frame.xi)
                      * np.linalg.norm(frame.position)))
    assert abs(abs(cosine) - 1.0) <= 1e-8


def test_second_derivative_reconstruction(pair_product):
    """The Gauss formula D_i D_j phi = Gamma^k_ij D_k phi + h_ij xi must
    reproduce the raw second derivatives."""
    frame = blaschke.full_frame(pair_product, (0.1, 0.2, -0.1))
    recon = (np.einsum("ijk,ka->ija", frame.gamma, frame.tangent)
             + np.einsum("ij,a->ija", frame.h, frame.xi))
    assert np.max(np.abs(recon - frame.second)) <= 1e-9
    assert frame.recon_residual <= 1e-9


def test_normal_derivative_gives_shape_operator(point_product):
    # d xi = -S dphi, computed here by finite differences of xi
    u0 = np.array([0.15, -0.2])
    frame = blaschke.full_frame(point_product, tuple(u0))
    eps = 1e-6
    for d in range(2):
        step = np.zeros(2)
        step[d] = eps
        plus = blaschke.full_frame(point_product, tuple(u0 + step)).xi
        minus = blaschke.full_frame(point_product, tuple(u0 - step)).xi
        dxi = (plus - minus) / (2 * eps)
        want = -(frame.S[:, d] @ frame.tangent)
        assert np.allclose(dxi, want, atol=1e-7)


def test_cubic_form_is_totally_symmetric(pair_product):
    frame = blaschke.full_frame(pair_product, (0.2, -0.1, 0.3))
    c = frame.C
    assert np.max(np.abs(c - c.transpose(1, 0, 2))) <= 1e-12
    assert np.max(np.abs(c - c.transpose(0, 2, 1))) <= 1e-12


def test_apolarity_from_normalization(mixed_product):
    frame = blaschke.full_frame(mixed_product, (0.1, 0.05, -0.1, 0.2))
    trace = np.einsum("ijj->i", frame.K)
    assert np.max(np.abs(trace)) <= 1e-10


def _random_unimodular(rng, m):
    a = rng.standard_normal((m, m))
    det = np.linalg.det(a)
    if abs(det) < 1e-3:
        a += np.eye(m)
        det = np.linalg.det(a)
    return a / np.sign(det) / abs(det) ** (1.0 / m)


def test_equiaffine_invariance(point_product):
    """H and the K_T spectrum are unchanged by unimodular ambient maps."""
    from calabi import decompose, dsl

    base = blaschke.full_frame(point_product, (0.1, -0.2))
    base_axes = decompose.find_axes(base)
    base_lams = sorted(round(c.lambda1, 9) for c in base_axes)

    rng = np.random.default_rng(5)
    for _ in range(10):
        a = _random_unimodular(rng, 3)
        assert abs(np.linalg.det(a) - 1.0) <= 1e-9
        comps = []
        for row in a:
            terms = None
            for coef, comp in zip(row, point_product.components):
                term = dsl.mul(dsl.const(float(coef)), comp)
                terms = term if terms is None else dsl.add(terms, term)
            comps.append(terms)
        mapped = dsl.ImmersionDef(name="mapped", vars=point_product.vars,
                                  components=tuple(comps))
        frame = blaschke.full_frame(mapped, (0.1, -0.2))
        assert frame.H == pytest.approx(base.H, abs=1e-8)
        axes = decompose.find_axes(frame)
        lams = sorted(round(c.lambda1, 9) for c in axes)
        assert len(lams) == len(base_lams)
        assert np.allclose(lams, base_lams, atol=1e-8)


def test_degenerate_surface_rejected():
    flat = parse_immersion(
        "immersion flat { vars: u, v; components: (u, v, u + v); }")
    with pytest.raises(blaschke.GeometryError):
        blaschke.full_frame(flat, (0.0, 0.0))


def test_indefinite_metric_rejected():
    saddle = parse_immersion(
        "immersion saddle { vars: u, v; components: (u, v, u*u - v*v); }")
    with pytest.raises(blaschke.IndefiniteMetricError):
        blaschke.full_frame(saddle, (0.1, 0.2))


def test_arity_mismatch_rejected():
    curve = parse_immersion(
        "immersion flat { vars: u1, u2; components: (u1, u2); }")
    with pytest.raises(blaschke.ArityError):
        blaschke.full_frame(curve, (0.1, 0.2))


def test_wrong_point_length_rejected(quadric):
    with pytest.raises(ValueError, match="coordinates"):
        blaschke.full_frame(quadric, (0.1,))


# ---------------------------------------------------------------------------
# batched frame pipeline


def test_jet_matrix_inverse_is_exact_at_the_jet_order():
    from calabi.jets import _space, matmul
    rng = np.random.default_rng(11)
    for nvars, order, m in [(1, 4, 2), (3, 4, 4), (4, 2, 5)]:
        sp = _space(nvars, order)
        a = rng.uniform(-1.0, 1.0, size=(3, m, m, sp.size))
        a[..., 0] += 3.0 * np.eye(m)
        inv = blaschke._solve(a, None, nvars)
        ident = np.zeros(a.shape)
        ident[..., 0] = np.eye(m)
        assert np.max(np.abs(matmul(a, inv, nvars) - ident)) <= 1e-12
        assert np.max(np.abs(matmul(inv, a, nvars) - ident)) <= 1e-12


_FIELDS = list(blaschke.BlaschkeFrame.__dataclass_fields__)


def _assert_same_frames(batched, single):
    for fb, fs in zip(batched, single):
        for name in _FIELDS:
            a = np.asarray(getattr(fb, name), dtype=float)
            b = np.asarray(getattr(fs, name), dtype=float)
            scale = max(float(np.max(np.abs(b))), 1.0)
            assert np.max(np.abs(a - b)) <= 1e-13 * scale, name


@pytest.mark.parametrize("fixture, grid", [
    ("pair_product", make_grid(-0.3, 0.3, 3, 3)),
    ("mixed_product", np.array([[0.1, 0.05, -0.1, 0.2], [-0.2, 0.1, 0.0, 0.1],
                                [0.0, -0.15, 0.2, -0.05]])),
])
def test_frames_on_grid_matches_full_frame(request, fixture, grid):
    defn = request.getfixturevalue(fixture)
    blaschke.clear_frame_cache()
    batched = blaschke.frames_on_grid(defn, grid)
    blaschke.clear_frame_cache()
    single = [blaschke.full_frame(defn, tuple(u)) for u in grid]
    _assert_same_frames(batched, single)


def test_frame_cache_counts_one_miss_per_frame(pair_product):
    def misses():
        return blaschke._full_frame_cached.cache_info().misses

    grid = make_grid(-0.3, 0.3, 3, 3)
    blaschke.clear_frame_cache()
    first = blaschke.frames_on_grid(pair_product, grid)
    assert misses() == 27
    again = blaschke.frames_on_grid(pair_product, grid)
    assert misses() == 27
    assert all(np.array_equal(getattr(first, name), getattr(again, name))
               for name in vars(first))
    cached = [blaschke.full_frame(pair_product, u) for u in grid]
    assert misses() == 27
    assert all(blaschke.full_frame(pair_product, u) is frame
               for u, frame in zip(grid, cached))
    shifted = make_grid(0.0, 0.6, 3, 3)      # shares 8 points with grid
    blaschke.frames_on_grid(pair_product, shifted)
    assert misses() == 27 + 19
    blaschke.full_frame(pair_product, (0.6, 0.6, 0.6))
    assert misses() == 46


def test_frames_on_grid_returns_its_computed_batch(pair_product):
    """A grid computed in one batch is that batch, on the second call
    too, so a cached grid costs no copy."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    blaschke.clear_frame_cache()
    first = blaschke.frames_on_grid(pair_product, grid)
    assert blaschke.frames_on_grid(pair_product, grid) is first


@pytest.mark.parametrize("grid", [
    [(0.1, 0.2, -0.1), (0.2, -0.1, 0.1), (0.1, 0.2, -0.1), (0.2, -0.1, 0.1),
     (0.0, 0.1, 0.2)],
    [(0.0, 0.1, 0.2), (0.3, -0.1, 0.0), (0.2, 0.2, 0.2), (0.1, 0.2, -0.1),
     (0.0, 0.1, 0.2)],
], ids=["repeated_points", "rows_of_two_batches"])
def test_gathered_rows_are_the_one_point_frames(pair_product, grid):
    """Rows gathered from the cache, with repeated points or from two
    batches, are the one-point frames bit for bit."""
    blaschke.clear_frame_cache()
    blaschke.frames_on_grid(pair_product, [(0.1, 0.2, -0.1), (0.0, 0.1, 0.2)])
    batch = blaschke.frames_on_grid(pair_product, grid)
    assert len(batch) == len(grid)
    for p, u in enumerate(grid):
        frame = blaschke.full_frame(pair_product, u)
        for name in _FIELDS:
            assert np.array_equal(getattr(batch, name)[p],
                                  getattr(frame, name)), name


@pytest.mark.parametrize("grid, message", [
    ([], "no grid points"),
    ([(0.1, 0.0, 0.0), (0.1, math.nan, 0.0)], r"point \(0.1, nan, 0.0\)"),
    ([(math.inf, 0.0, 0.0)], r"point \(inf, 0.0, 0.0\) is not finite"),
], ids=["empty", "nan", "inf"])
def test_bad_grid_is_a_value_error(pair_product, grid, message):
    blaschke.clear_frame_cache()
    with pytest.raises(ValueError, match=message):
        blaschke.frames_on_grid(pair_product, grid)
    if grid:
        with pytest.raises(ValueError, match=message):
            blaschke.full_frame(pair_product, grid[-1])
    assert blaschke._full_frame_cached.cache_info().misses == 0


def test_grid_leaving_the_domain_raises_the_one_point_error():
    from calabi.jets import JetDomainError
    lg = parse_immersion(
        "immersion lg { vars: u, v; components: (u, v, u*u + v*v - log(u)); }")
    grid = [(0.5, 0.1), (0.3, -0.2), (-0.4, 0.0)]
    with pytest.raises(JetDomainError) as single:
        blaschke.full_frame(lg, grid[-1])
    blaschke.clear_frame_cache()
    with pytest.raises(JetDomainError) as batched:
        blaschke.frames_on_grid(lg, grid)
    assert str(batched.value) == str(single.value)
