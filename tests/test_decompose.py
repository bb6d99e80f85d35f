import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from calabi import blaschke, construct, decompose, dsl, numerics
from calabi.dsl import parse_immersion
from calabi.jets import JetDomainError
from conftest import _bent, _linear_reparam, make_grid


@pytest.fixture(scope="module")
def pair_verdict(pair_product):
    grid = make_grid(-0.3, 0.3, 3, 3)
    return decompose.detect(pair_product, grid), grid


@pytest.fixture(scope="module")
def point_verdict(point_product):
    grid = make_grid(-0.3, 0.3, 5, 2)
    return decompose.detect(point_product, grid), grid


@pytest.fixture(scope="module")
def mixed_verdict(mixed_product):
    grid = make_grid(-0.2, 0.2, 2, 4)
    return decompose.detect(mixed_product, grid), grid


@pytest.fixture(scope="module")
def double_point_product(hyperbola, hyperbola_b):
    """n = 5 with (n2, n3) = (2, 2): both blocks have two directions, so
    the metric ratio has off-diagonal terms."""
    return construct.calabi_pair(construct.calabi_point(hyperbola),
                                 construct.calabi_point(hyperbola_b))


@pytest.fixture(scope="module")
def point_quadric_product(quadric):
    """n = 3 with a quadric factor: K(X,X) = mu X has curves of solutions
    on the lambda2 block, as on the quadric itself."""
    return construct.calabi_point(quadric)


@pytest.fixture(scope="module")
def pair_quadric_product(hyperbola, quadric):
    """n = 4, (n2, n3) = (1, 2), the quadric factor in the lambda3 block."""
    return construct.calabi_pair(hyperbola, quadric)


@pytest.fixture(scope="module")
def double_point_verdict(double_point_product):
    grid = make_grid(-0.2, 0.2, 2, 5)
    return decompose.detect(double_point_product, grid), grid


# ---------------------------------------------------------------------------
# homothety


def test_normalize_homothety_closed_form(pair_product):
    defn = parse_immersion(
        "immersion hyp { vars: s; components: (exp(s), exp(-s)); }")
    result = decompose.normalize_homothety(defn, [(0.11,)])
    assert result.scale == pytest.approx(1 / math.sqrt(2), abs=1e-10)
    frame = blaschke.full_frame(result.def_scaled, (0.3,))
    assert frame.H == pytest.approx(-1.0, abs=1e-9)
    # c * phi at H = -1 must come back with scale 1/c to rounding
    for c in (1.7, 1e3, 1e6):
        scaled = decompose._scaled_def(pair_product, c)
        result = decompose.normalize_homothety(scaled, [(0.11, 0.22, 0.33)])
        assert abs(result.scale * c - 1.0) <= 1e-13, c


@pytest.mark.parametrize("c", [1e-4, 1.7, 1e4])
@pytest.mark.parametrize("product", ["pair_product", "quadric"])
def test_homothety_law_matches_recomputed_frames(request, product, c):
    """Every field of the frames of c phi mapped by the law agrees with
    the frames computed from c phi, to 1e-12 relative to the field or to
    c^e, e its exponent: rounding is all that fields zero in exact
    arithmetic show (K on the quadric, Rhat and nabla_K on the products,
    the residuals). The bent product has gamma_hat and dh, the quadric
    Rhat. The mapped rows serve the rescaled definition as cached frames
    and count as no frame computed; their basis is that of their h bit
    for bit."""
    defn = request.getfixturevalue(product)
    if product == "pair_product":
        defn = _bent(defn)
    grid = make_grid(-0.3, 0.3, 3, defn.nvars)
    frames = blaschke._frame_batch([(defn, grid)])
    scaled = decompose._scaled_def(defn, c)
    blaschke.clear_frame_cache()
    mapped = blaschke.homothetic_frames(scaled, frames, c)
    assert blaschke.frames_on_grid(scaled, grid) is mapped
    # the basis is factored from the mapped h, in every reading of the rows
    for batch in (mapped, mapped[3:7], mapped[[8, 0, 8]],
                  blaschke.full_frame(scaled, grid[-1])):
        assert np.array_equal(batch.basis,
                              numerics.metric_orthonormal_basis(batch.h))
    assert _frames_computed() == 0
    fresh = blaschke._frame_batch([(scaled, grid)])
    a = 2.0 * (defn.nvars + 1) / (defn.nvars + 2)
    exponents = {"h": a, "C": a, "dh": a, "recon_residual": a, "h_inv": -a,
                 "S": -a, "H": -a, "position": 1.0, "tangent": 1.0,
                 "second": 1.0, "xi": 1.0 - a}
    for name in blaschke.BlaschkeFrame.FIELDS:
        want = getattr(fresh, name)
        floor = max(np.max(np.abs(want)), c ** exponents.get(name, 0.0))
        error = np.max(np.abs(getattr(mapped, name) - want))
        assert error <= 1e-12 * floor, name
    nonzero = ("gamma_hat", "dh") if product == "pair_product" else ("Rhat",)
    for name in nonzero:
        assert np.max(np.abs(getattr(frames, name))) > 0.1, name


def test_normalize_homothety_is_idempotent(pair_product):
    result = decompose.normalize_homothety(pair_product, [(0.11, 0.22, 0.33)])
    assert result.scale == 1.0
    assert result.def_scaled is pair_product


def test_normalize_homothety_rejects_parabolic(paraboloid):
    with pytest.raises(decompose.NotHyperbolicError):
        decompose.normalize_homothety(paraboloid, [(0.11, 0.22)])


# ---------------------------------------------------------------------------
# axes and spectra


def test_find_axes_pair(pair_product):
    frame = blaschke.full_frame(pair_product, (0.1, 0.2, -0.15))
    axes = decompose.find_axes(frame)
    assert not decompose.is_quadric(frame)
    best = min(axes, key=lambda c: abs(c.lambda1))
    assert best.lambda1 == pytest.approx(0.0, abs=1e-8)
    assert best.axis_residual <= 1e-8
    # every candidate is h-unit
    for cand in axes:
        assert cand.T @ frame.h @ cand.T == pytest.approx(1.0, abs=1e-10)


def test_find_axes_flags_quadric(quadric):
    """On a quadric every h-unit direction solves K(X,X) = 0 X; the
    search has no canonical axis to offer, and `is_quadric` says so."""
    frame = blaschke.full_frame(quadric, (0.1, -0.2))
    axes = decompose.find_axes(frame)
    assert len(axes) >= 3 * frame.n
    assert all(abs(c.lambda1) <= 1e-7 for c in axes)
    assert decompose.is_quadric(frame)


@pytest.mark.parametrize("s", [1.0, 1e-8, 1e4])
def test_is_quadric_does_not_depend_on_the_coordinates(pair_product, quadric,
                                                      s):
    """Under u -> s u the coordinate entries of K scale with s, but |K|
    in the metric does not: with s = 1e-8 the largest entry of K on the
    pair product is 1e-8, which a test of the entries read as a
    quadric."""
    pair = _linear_reparam(pair_product, s * np.eye(3))
    assert not decompose.is_quadric(
        blaschke.frames_on_grid(pair, make_grid(-0.3, 0.3, 3, 3) / s))
    assert decompose.is_quadric(blaschke.frames_on_grid(
        _linear_reparam(quadric, s * np.eye(2)),
        make_grid(-0.4, 0.4, 3, 2) / s))
    if s == 1e-8:
        verdict = decompose.detect(pair, make_grid(-0.3, 0.3, 3, 3) / s)
        assert decompose.QUADRIC_NOTE not in verdict.notes
        assert verdict.kind == "PairProduct", verdict.notes


def test_classify_pair_spectrum(pair_product):
    frame = blaschke.full_frame(pair_product, (0.1, 0.2, -0.15))
    axes = decompose.find_axes(frame)
    axis = min(axes, key=lambda c: abs(c.lambda1))
    structure = decompose.classify_spectrum(frame, axis)
    assert structure.pattern == "pair"
    assert structure.lambda2 == pytest.approx(1.0, abs=1e-8)
    assert structure.lambda3 == pytest.approx(-1.0, abs=1e-8)
    assert (structure.n2, structure.n3) == (1, 1)
    assert structure.cross_residual <= 1e-7
    assert set(structure.relation_residuals) == {"thm1", "sum", "prod",
                                                 "apolar"}
    assert all(r <= 1e-8 for r in structure.relation_residuals.values())
    # multiplicities plus the axis span everything
    assert 1 + structure.n2 + structure.n3 == frame.n


def test_classify_flips_axis_to_positive_lambda2(point_product):
    frame = blaschke.full_frame(point_product, (0.1, -0.2))
    axes = decompose.find_axes(frame)
    axis = min(axes, key=lambda c: c.lambda1)
    flipped = axis.flipped()
    left = decompose.classify_spectrum(frame, axis)
    right = decompose.classify_spectrum(frame, flipped)
    assert left.pattern == right.pattern == "point"
    assert left.lambda2 > 0 and right.lambda2 > 0
    assert left.lambda2 == pytest.approx(right.lambda2, abs=1e-10)
    assert left.lambda1 == pytest.approx(right.lambda1, abs=1e-10)


def _split(values):
    """`decompose._gate` of a hand-made ascending spectrum, read as a
    structure: K_T = diag(0, values) at the axis e_0 of lambda1 = 0, with
    h = B = id."""
    n = len(values) + 1
    k = np.zeros((n, n, n))
    for i, value in enumerate(values, 1):
        k[0, i, i] = k[i, 0, i] = k[i, i, 0] = value
    frames = SimpleNamespace(K_ortho=k[None], basis=np.eye(n)[None],
                             u=np.zeros((1, n)))
    axis = decompose.CandidateAxis(T=np.eye(n)[0], lambda1=0.0,
                                   axis_residual=0.0, y=np.eye(n)[0])
    return decompose._spectral_structure(decompose._gate(frames, [axis]), 0)


def test_structure_chains_close_eigenvalues_into_one_cluster():
    """Steps of 2e-7 span 1.2e-6, past the 1e-6 gap, and still make one
    cluster: the split reads the steps, not the spread."""
    values = 0.5 + 2e-7 * np.arange(7)
    s = _split(values)
    assert [(mult, len(basis)) for _mean, mult, basis in s.clusters] == [
        (7, 7)]
    assert s.clusters[0][0] == pytest.approx(0.5 + 6e-7, abs=1e-15)
    assert (s.pattern, s.n2, s.n3) == ("point", 7, 0)
    assert type(s.n2) is int


def test_structure_splits_at_a_step_past_the_gap():
    """A step of 1e-5 splits a cluster; a step of 5e-8 does not."""
    s = _split([-0.5, -0.5 + 5e-8, 1.0, 1.0 + 1e-5])
    assert [mult for _mean, mult, _basis in s.clusters] == [2, 1, 1]
    assert [mean for mean, _mult, _basis in s.clusters] == pytest.approx(
        [-0.5, 1.0, 1.0 + 1e-5], abs=1e-7)
    assert s.pattern == "unclassified"
    s = _split([-0.5, -0.5 + 5e-8, 1.0, 1.0 + 2e-7])
    assert (s.pattern, s.n2, s.n3) == ("pair", 2, 2)


def test_eigenspaces_are_h_orthonormal(mixed_product):
    frame = blaschke.full_frame(mixed_product, (0.1, 0.05, -0.1, 0.2))
    axes = decompose.find_axes(frame)
    structure = None
    for cand in axes:
        s = decompose.classify_spectrum(frame, cand)
        if s.pattern == "pair" and s.n2 == 1 and s.n3 == 2:
            structure = s
            break
    assert structure is not None
    vectors = [structure.axis.T]
    for _mean, _mult, basis in structure.clusters:
        vectors.extend(basis)
    gram = np.array([[v @ frame.h @ w for w in vectors] for v in vectors])
    assert np.allclose(gram, np.eye(len(vectors)), atol=1e-9)


# ---------------------------------------------------------------------------
# detect


def test_detect_pair(pair_verdict):
    verdict, _ = pair_verdict
    assert verdict.kind == "PairProduct"
    s = verdict.spectrum
    assert s.lambda1 == pytest.approx(0.0, abs=1e-6)
    assert s.lambda2 == pytest.approx(1.0, abs=1e-6)
    assert s.lambda3 == pytest.approx(-1.0, abs=1e-6)
    assert s.cross_residual <= 1e-7
    assert verdict.constancy_residual <= 1e-8
    assert verdict.orientation_ok
    assert all(rep.passed for rep in verdict.evidence)


def test_detect_on_a_one_point_grid(pair_product):
    """With no point to track to, the eigenvalues cannot drift."""
    verdict = decompose.detect(pair_product, np.array([[0.1, 0.1, 0.1]]))
    assert verdict.kind == "PairProduct"
    assert verdict.constancy_residual == 0.0


@pytest.mark.parametrize("grid, message", [
    (np.empty((0, 3)), "no grid points"),
    ([], "no grid points"),
    ([(0.1, 0.0, 0.0), (0.1, math.nan, 0.0)],
     r"point \(0.1, nan, 0.0\) is not finite"),
    ([(math.inf, 0.0, 0.0)], r"point \(inf, 0.0, 0.0\) is not finite"),
], ids=["empty_array", "empty_list", "nan", "inf"])
@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_bad_grid_is_a_value_error(pair_product, grid, message, scale):
    """A grid with no points or a non-finite coordinate is refused up
    front, on and off the H = -1 gauge, not reported as a jet division."""
    defn = decompose._scaled_def(pair_product, scale)
    for run in (decompose.detect, decompose.theorem3_gate):
        with pytest.raises(ValueError, match=message):
            run(defn, grid)


def test_detect_point(point_verdict):
    verdict, _ = point_verdict
    assert verdict.kind == "PointProduct"
    s = verdict.spectrum
    assert s.lambda1 == pytest.approx(-1 / math.sqrt(2), abs=1e-6)
    assert s.lambda2 == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert s.relation_residuals["thm1"] <= 1e-8
    assert verdict.constancy_residual <= 1e-8


def test_detect_mixed(mixed_verdict):
    verdict, _ = mixed_verdict
    assert verdict.kind == "PairProduct"
    s = verdict.spectrum
    assert s.lambda2 == pytest.approx(math.sqrt(3) / math.sqrt(2), abs=1e-6)
    assert s.lambda3 == pytest.approx(-math.sqrt(2) / math.sqrt(3), abs=1e-6)
    assert (s.n2, s.n3) == (1, 2)


def test_detect_quadric_returns_none(quadric):
    verdict = decompose.detect(quadric, make_grid(-0.4, 0.4, 3, 2))
    assert verdict.kind is None
    assert verdict.notes
    assert "K ≈ 0" in verdict.notes[0]


def test_detect_perturbed_product_fails_sphere_gate(pair_product):
    u1 = dsl.var(pair_product.vars[0])
    bump = dsl.add(dsl.const(1.0),
                   dsl.mul(dsl.const(0.01), dsl.mul(u1, u1)))
    perturbed = dsl.ImmersionDef(
        name="perturbed", vars=pair_product.vars,
        components=tuple(dsl.mul(bump, c) for c in pair_product.components))
    verdict = decompose.detect(perturbed, make_grid(-0.3, 0.3, 2, 3))
    assert verdict.kind is None
    assert not any(rep.passed for rep in verdict.evidence
                   if rep.name == "sphere")


def test_detect_refuses_a_translated_sphere_at_the_orientation_gate(
        pair_product):
    """A translation keeps the affine sphere but moves its center off the
    origin, so xi = phi fails by the offset (here 2, the largest shift)."""
    moved = dsl.ImmersionDef(
        name="moved", vars=pair_product.vars,
        components=tuple(dsl.add(c, dsl.const(shift)) for c, shift
                         in zip(pair_product.components,
                                (0.5, 1.0, 1.5, 2.0))))
    verdict = decompose.detect(moved, make_grid(-0.3, 0.3, 3, 3))
    assert verdict.kind is None
    assert verdict.orientation_ok is False
    assert verdict.notes == ("affine normal is not the position field "
                             "(offset 2); recenter the sphere first",)
    assert [rep.name for rep in verdict.evidence] == ["sphere"]
    assert verdict.evidence[0].passed


def test_detect_returns_verdict_on_indefinite_metric():
    saddle = parse_immersion(
        "immersion saddle { vars: u, v; components: (u, v, u*v); }")
    verdict = decompose.detect(saddle, make_grid(-0.3, 0.3, 3, 2))
    assert verdict.kind is None
    assert verdict.notes == ("tentative second fundamental form is not "
                             "definite",)


def test_detect_refuses_a_paraboloid_as_not_hyperbolic(paraboloid):
    """An improper affine sphere passes the sphere gate with H = 0."""
    verdict = decompose.detect(paraboloid, make_grid(-0.4, 0.4, 3, 2))
    assert verdict.kind is None
    assert verdict.notes == ("not hyperbolic (H = 0 >= 0)",)
    (sphere,) = verdict.evidence
    assert sphere.name == "sphere" and sphere.passed


def test_detect_refuses_a_non_sphere_with_h_not_negative():
    bowl = parse_immersion("immersion bowl { vars: u, v; "
                           "components: (u, v, u*u + v*v + u*u*u*u); }")
    verdict = decompose.detect(bowl, make_grid(-0.3, 0.3, 3, 2))
    assert verdict.kind is None
    assert verdict.notes == ("not an affine sphere",)
    (sphere,) = verdict.evidence
    assert not sphere.passed
    assert sphere.max_residual == pytest.approx(10.4, abs=0.05)


def test_detect_is_scale_free_on_a_small_homothety(pair_product):
    verdict = decompose.detect(decompose._scaled_def(pair_product, 1e-4),
                               make_grid(-0.3, 0.3, 3, 3))
    assert verdict.kind == "PairProduct", verdict.notes
    s = verdict.spectrum
    assert s.lambda1 == pytest.approx(0.0, abs=1e-6)
    assert s.lambda2 == pytest.approx(1.0, abs=1e-6)
    assert s.lambda3 == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("c", [0.7, 1.0, 1.3])
def test_detect_block_sizes_do_not_depend_on_the_homothety(mixed_product, c):
    """T and -T give (n2, n3) = (1, 2) and (2, 1) with residuals equal up
    to rounding; the choice must not follow the rounding."""
    scaled = decompose._scaled_def(mixed_product, c)
    grid = make_grid(-0.2, 0.2, 2, 4)
    verdict = decompose.detect(scaled, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    s = verdict.spectrum
    assert (s.n2, s.n3) == (1, 2)
    assert s.lambda1 == pytest.approx(
        math.sqrt(1.5) - math.sqrt(2.0 / 3.0), abs=1e-6)
    data = decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert data.metric_ratio == pytest.approx(2.5, abs=1e-12)


def test_detect_normalizes_off_gauge_input(hyperbola, hyperbola_b):
    """A product scaled off the H = -1 gauge is still detected, with the
    homothety scale reported."""
    c1, c2 = construct.base_coefficients("pair", 1, 1)
    off = dsl.build_scaled_embedding(
        [hyperbola, hyperbola_b],
        weights=[(1.7 * c1, 1.0), (1.7 * c2, -1.0)],
        axis_var="t", name="off_gauge")
    verdict = decompose.detect(off, make_grid(-0.2, 0.2, 2, 3))
    assert verdict.kind == "PairProduct"
    assert verdict.scale == pytest.approx(1 / 1.7, rel=1e-9)
    assert verdict.spectrum.lambda2 == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# work counts: deterministic, so a lost optimization fails without timing


def _counted(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(decompose, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(decompose, name, wrapper)
    return calls


def _frames_computed() -> int:
    return blaschke._full_frame_cached.cache_info().misses


def _batches(monkeypatch) -> list:
    """The sizes of the frame batches computed from now on; a batch of
    several definitions counts once, with all its rows."""
    sizes = []
    real = blaschke._frame_batch

    def wrapper(parts):
        sizes.append(sum(len(points) for _, points in parts))
        return real(parts)

    monkeypatch.setattr(blaschke, "_frame_batch", wrapper)
    return sizes


def _tracker_rounds(monkeypatch, failing=(), rounds=math.inf):
    """Return the number of rows of each tracker round from now on, and
    make the tracker's Newton solve fail at the rows at the grid points
    `failing` in the first `rounds` rounds of each `_track` call. A round
    is a solve inside `_track`; the base search solves outside it."""
    state = SimpleNamespace(round=None, sizes=[])
    real_track, real_solve = decompose._track, decompose._solve_axis

    def track(*args):
        state.round = 0
        try:
            return real_track(*args)
        finally:
            state.round = None

    def solve(frames, y0, *args):
        axes = real_solve(frames, y0, *args)
        if state.round is not None:
            state.round += 1
            state.sizes.append(len(y0))
            if state.round <= rounds:
                hit = (frames.u[:, None] == np.reshape(
                    failing, (-1, frames.u.shape[1]))).all(-1)
                axes = [None if fail else axis
                        for fail, axis in zip(hit.any(-1), axes)]
        return axes

    monkeypatch.setattr(decompose, "_track", track)
    monkeypatch.setattr(decompose, "_solve_axis", solve)
    return state.sizes


def test_detect_searches_once_and_computes_each_frame_once(pair_product,
                                                           monkeypatch):
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, make_grid(-0.3, 0.3, 3, 3))
    assert verdict.kind == "PairProduct"
    assert len(searches) == 1
    assert _frames_computed() == 27


def test_normalize_homothety_computes_at_most_two_frames(pair_product):
    """The probe frame is computed at the input scale; the frame of the
    rescaled definition there is mapped from it."""
    scaled = decompose._scaled_def(pair_product, 1.7)
    blaschke.clear_frame_cache()
    result = decompose.normalize_homothety(scaled, [(0.11, 0.22, 0.33)])
    assert result.scale == pytest.approx(1 / 1.7, rel=1e-13)
    assert _frames_computed() <= 1


def test_detect_off_gauge_computes_each_grid_frame_once(pair_product,
                                                        monkeypatch):
    """One batch computes the grid at the input scale, and the rescaled
    grid is mapped from it. Mapping it again keeps the cached rows, so
    the theorem 3 gate shares the search of detection."""
    scaled = decompose._scaled_def(pair_product, 1.7)
    batches = _batches(monkeypatch)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    grid = make_grid(-0.2, 0.2, 2, 3)
    verdict = decompose.detect(scaled, grid)
    assert verdict.kind == "PairProduct"
    assert decompose.theorem3_gate(scaled, grid).applies
    assert _frames_computed() == 8
    assert batches == [8]
    assert len(searches) == 1


def test_extract_on_an_off_gauge_verdict_computes_no_frame(pair_product):
    """Extraction on `verdict.def_scaled` reads the rows that detection
    mapped; without provenance there are no factors to calibrate, so it
    computes no frame at all."""
    anonymous = dsl.ImmersionDef(pair_product.name, pair_product.vars,
                                 pair_product.components)
    grid = make_grid(-0.2, 0.2, 2, 3)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(decompose._scaled_def(anonymous, 1.7), grid)
    assert verdict.kind == "PairProduct"
    assert verdict.def_scaled != anonymous
    warm = _frames_computed()
    data = decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert _frames_computed() == warm
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-12)


def test_detect_solves_failed_rows_from_their_neighbours(pair_product,
                                                          pair_verdict,
                                                          monkeypatch):
    """The 13 rows whose tracked solve fails in the first round are solved
    in the second from the axes of their accepted neighbours, with no
    search past the base frame's, and detect reads the same verdict."""
    tracked, grid = pair_verdict
    sizes = _tracker_rounds(monkeypatch, grid[1::2], rounds=1)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()   # the base search is not memoized yet
    verdict = decompose.detect(pair_product, grid)
    assert len(searches) == 1
    assert sizes == [len(grid) - 1, 13]
    assert verdict.kind == tracked.kind
    assert verdict.notes == tracked.notes
    for attr in ("lambda1", "lambda2", "lambda3", "n2", "n3",
                 "cross_residual", "relation_residuals"):
        assert getattr(verdict.spectrum, attr) == getattr(
            tracked.spectrum, attr), attr
    assert verdict.constancy_residual == pytest.approx(
        tracked.constancy_residual, abs=1e-12)


def test_roundtrip_searches_each_base_frame_once(point_product,
                                                 pair_product, monkeypatch):
    """detect, the theorem 3 gate and extraction share the search of
    their base frame: two searches for the two products of a round
    trip. The 63 frames of the trip come in 4 batches: one per product
    grid, one for the factor grid of the point product, and one for both
    factor grids of the pair product, whose factors have the same n.
    Each factor is rescaled by the homothety law without computing its
    frames again."""
    searches = _counted(monkeypatch, "find_axes")
    batches = _batches(monkeypatch)
    blaschke.clear_frame_cache()
    g25, g27 = make_grid(-0.3, 0.3, 5, 2), make_grid(-0.3, 0.3, 3, 3)
    v_point = decompose.detect(point_product, g25)
    decompose.extract_point_factor(v_point.def_scaled, v_point, g25)
    v_pair = decompose.detect(pair_product, g27)
    assert decompose.theorem3_gate(pair_product, g27).applies
    decompose.extract_pair_factors(v_pair.def_scaled, v_pair, g27)
    assert (len(batches), sum(batches), _frames_computed()) == (4, 63, 63)
    assert len(searches) == 2
    assert {id(args[0]) for args in searches} == {
        id(blaschke.full_frame(point_product, g25[0])),
        id(blaschke.full_frame(pair_product, g27[0]))}


def _factor_parts(defn, grid) -> list:
    """The (factor definition, factor grid) pairs of a product with
    provenance, its blocks in component order; a zero-dimensional block
    has none."""
    m2 = defn.provenance.n2 + 1
    parts = []
    for k, idx in enumerate((range(m2), range(m2, defn.ncomponents))):
        factor = decompose._slice_factor_def(defn, list(idx), f"factor{k + 1}")
        if factor is not None:
            parts.append((factor, decompose._factor_grid(defn, factor, grid)))
    return parts


@pytest.mark.parametrize("product, dims", [("pair_product", 3),
                                           ("double_point_product", 5)])
def test_merged_factor_batch_matches_separate_batches(request, product, dims):
    """Both factors of a pair, of one n, share one batch after their
    component jets. Every field of its rows equals, bit for bit, that of
    the factor's own batch, and `cache_frames` caches each row under its
    own definition for `frames_on_grid` to read."""
    defn = request.getfixturevalue(product)
    parts = _factor_parts(defn, make_grid(-0.3, 0.3, 3, dims) + 0.01)
    merged = blaschke._frame_batch(parts)
    start = 0
    for part in parts:
        alone = blaschke._frame_batch([part])
        rows = merged[start:start + len(alone)]
        start += len(alone)
        for name in blaschke.BlaschkeFrame.FIELDS:
            got, want = getattr(rows, name), getattr(alone, name)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
    assert start == len(merged)
    blaschke.clear_frame_cache()
    blaschke.cache_frames(parts)
    assert _frames_computed() == len(merged)
    for factor, grid in parts:
        frames = blaschke.frames_on_grid(factor, grid)
        assert np.array_equal(frames.u, grid)
    assert _frames_computed() == len(merged)


def test_a_failed_factor_batch_raises_from_its_own_factor(pair_verdict,
                                                          monkeypatch):
    """When the batch of both factors fails, nothing of it is cached:
    each factor computes its own batch, in order, and the failing one
    raises its error from the first failing point, as when every factor
    had a batch of its own."""
    verdict, grid = pair_verdict
    real = blaschke._frame_batch
    batches = []

    def frame_batch(parts):
        batches.append([(d.name[-7:], len(points)) for d, points in parts])
        for d, points in parts:
            if d.name.endswith("factor2") and np.any(points[:, 0] > 0.0):
                raise JetDomainError(f"{d.name} fails")
        return real(parts)

    monkeypatch.setattr(blaschke, "_frame_batch", frame_batch)
    blaschke.clear_frame_cache()
    with pytest.raises(JetDomainError, match="factor2 fails"):
        decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert batches[1:] == [[("factor1", 3), ("factor2", 3)], [("factor1", 3)],
                           [("factor2", 3)], [("factor2", 1)],
                           [("factor2", 1)], [("factor2", 1)]]


def test_factor_grid_is_that_of_np_unique(point_product, pair_product):
    """The sorted distinct rows of the round trip's factor grids, with the
    grid offsets the benchmark draws, are those np.unique(axis=0) gave."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        offset = rng.uniform(-0.05, 0.05, size=3)
        for defn, grid in ((point_product, make_grid(-0.3, 0.3, 5, 2)),
                           (pair_product, make_grid(-0.3, 0.3, 3, 3))):
            grid = grid + offset[:defn.nvars]
            for factor, points in _factor_parts(defn, grid):
                cols = [defn.vars.index(v) for v in factor.vars]
                want = np.unique(np.round(grid[:, cols], 12), axis=0)
                assert points.dtype == want.dtype
                assert points.shape == want.shape
                assert points.tobytes() == want.tobytes()


def _linalg_calls(monkeypatch, *names) -> dict:
    """The number of calls of each named `np.linalg` function from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_roundtrip_factors_each_metric_once(point_product, pair_product,
                                            monkeypatch):
    """A round trip shaped like the benchmark op factors h once per frame
    batch and once per homothety map: 7 Cholesky factorizations for its
    4 batches and 3 mapped factor batches, where the checks, the search,
    the tracker and every eigensolve factored h again (23), and each
    factor grid had a batch of its own (8). The axis solve tests the
    symmetric bordered Jacobian of each Newton iteration with eigvalsh,
    where an SVD of the Jacobian read in the h-orthonormal frame ran
    (17 SVDs, 23 before the solve stopped before an SVD of no rows): 6
    SVDs, all in the extraction's subspace ranks, and 14 eigvalsh, 4 in
    the frame batches and 10 in the two searches' Newton iterations (16
    before the searches stopped at 2^n - 1 classes; the pass that stops
    reads the Jacobians of the rows it counts)."""
    counts = _linalg_calls(monkeypatch, "cholesky", "svd", "eigvalsh")
    blaschke.clear_frame_cache()
    g25, g27 = make_grid(-0.3, 0.3, 5, 2), make_grid(-0.3, 0.3, 3, 3)
    v_point = decompose.detect(point_product, g25)
    decompose.extract_point_factor(v_point.def_scaled, v_point, g25)
    v_pair = decompose.detect(pair_product, g27)
    assert decompose.theorem3_gate(pair_product, g27).applies
    decompose.extract_pair_factors(v_pair.def_scaled, v_pair, g27)
    assert counts == {"cholesky": 7, "svd": 6, "eigvalsh": 14}


def _structures_built(monkeypatch) -> list:
    """The patterns of the `SpectralStructure`s built from now on."""
    built = []
    real = decompose.SpectralStructure.__new__

    def new(cls, *args, **kwargs):
        built.append(kwargs.get("pattern"))
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(decompose.SpectralStructure, "__new__", new)
    return built


@pytest.mark.parametrize("product, grid", [
    ("point_product", make_grid(-0.3, 0.3, 5, 2)),
    ("pair_product", make_grid(-0.3, 0.3, 3, 3)),
    ("mixed_product", make_grid(-0.2, 0.2, 3, 4)),
    ("double_point_product", make_grid(-0.2, 0.2, 2, 5)),
])
def test_detect_builds_only_the_structure_it_reports(request, product, grid,
                                                     monkeypatch):
    """The base search is gated as arrays, so detect builds one
    `SpectralStructure`, its verdict's; it built one per candidate of the
    search, 3, 7, 13 and 18 on these products."""
    defn = request.getfixturevalue(product)
    built = _structures_built(monkeypatch)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(defn, grid)
    assert verdict.kind is not None, verdict.notes
    assert built == [verdict.spectrum.pattern]


def test_roundtrip_builds_at_most_three_structures(point_product,
                                                   pair_product, monkeypatch):
    """A round trip shaped like the benchmark op builds the structures it
    reports: one per verdict and the theorem 3 gate's (10 before)."""
    built = _structures_built(monkeypatch)
    blaschke.clear_frame_cache()
    g25, g27 = make_grid(-0.3, 0.3, 5, 2), make_grid(-0.3, 0.3, 3, 3)
    v_point = decompose.detect(point_product, g25)
    decompose.extract_point_factor(v_point.def_scaled, v_point, g25)
    v_pair = decompose.detect(pair_product, g27)
    assert decompose.theorem3_gate(pair_product, g27).applies
    decompose.extract_pair_factors(v_pair.def_scaled, v_pair, g27)
    assert len(built) <= 3


def _cholesky_failing_at(monkeypatch, h_bad):
    """Make np.linalg.cholesky fail on any stack that holds the metric
    h_bad, as it fails on a metric that is not positive definite."""
    real = np.linalg.cholesky

    def cholesky(a, *args, **kwargs):
        a = np.asarray(a)
        hit = np.all(np.isclose(a, h_bad, rtol=1e-12, atol=0.0),
                     axis=(-2, -1))
        if np.any(hit):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)


def test_a_failed_basis_is_a_verdict_not_an_exception(pair_product,
                                                      tmp_path, capsys,
                                                      monkeypatch):
    """The frames factor h once, in the frame batch, so a failed Cholesky
    is an IndefiniteMetricError there, which detect and the CLI report:
    the batch of the grid fails, its points go one at a time, and the
    point whose h does not factor names the failure. When the checks
    factored h themselves, the NotPositiveDefiniteError escaped detect."""
    from calabi import cli
    path = tmp_path / "pair.immersion"
    path.write_text(dsl.print_immersion(pair_product) + "\n",
                    encoding="utf-8")
    grid = cli._resolve_grid("g27", 3, {})
    blaschke.clear_frame_cache()
    h_bad = blaschke.full_frame(pair_product, grid[-1]).h
    blaschke.clear_frame_cache()
    _cholesky_failing_at(monkeypatch, h_bad)
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind is None
    assert verdict.notes == ("affine metric is not positive definite",)
    with pytest.raises(blaschke.IndefiniteMetricError):
        blaschke.frames_on_grid(pair_product, grid)
    assert decompose.theorem3_gate(pair_product, grid).note == (
        "affine metric is not positive definite")
    capsys.readouterr()
    assert cli.main(["detect", str(path), "--grid", "g27"]) == 1
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["kind"] == "None"
    assert verdict["note"] == "affine metric is not positive definite"
    assert cli.main(["check", str(path), "--grid", "g27"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "affine metric is not positive definite"


def test_search_memo_is_dropped_with_the_frames(pair_product):
    decompose.detect(pair_product, make_grid(-0.3, 0.3, 2, 3))
    assert len(decompose._STRUCTURES) > 0
    blaschke.clear_frame_cache()
    gc.collect()
    assert len(decompose._STRUCTURES) == 0


def test_detect_reports_an_asymmetric_k_t_as_a_verdict(pair_product,
                                                       monkeypatch):
    """An asymmetry past symmetrize's tolerance at a tracked point is a
    None verdict naming the point, not a raised ValueError. The skew
    reaches every eigensolve after the first, which classifies the base
    point's search; the next one is the stacked solve of the tracked
    points."""
    grid = make_grid(-0.3, 0.3, 2, 3)
    blaschke.clear_frame_cache()
    real = numerics.solve_sym_eig_generalized
    calls = []

    def skewed(reduced):
        calls.append(len(reduced))
        if len(calls) == 1:
            return real(reduced)
        return real(reduced + 1e-6 * np.triu(np.ones(reduced.shape[-2:]), 1))

    monkeypatch.setattr(numerics, "solve_sym_eig_generalized", skewed)
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind is None
    (note,) = verdict.notes
    assert "asymmetry" in note
    assert blaschke.format_point(grid[1]) in note
    assert calls == [7, len(grid) - 1]   # the base candidates, the tracked


def test_detect_with_a_tol_below_the_axis_residuals_gives_a_verdict(
        pair_product):
    """The search and its memo do not depend on tol; the callers compare
    each axis residual with it, so no candidate raises. The tol is half
    the smallest axis residual of the base point's search, so every
    candidate there fails."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    blaschke.clear_frame_cache()
    gated = decompose._axis_structures(pair_product, grid[0], 32, 42)
    tol = 0.5 * float(np.min(gated.tests[:, 0]))   # the axis residuals
    verdict = decompose.detect(pair_product, grid, tol=tol)
    assert verdict.kind is None
    assert verdict.notes == (
        "no axis matches either product pattern within tolerance",)


def test_detect_tests_the_cross_block_at_every_tracked_point(pair_product,
                                                             monkeypatch):
    """A cross residual K(V,W) of 1e-3 at one tracked point refuses the
    product there, once a second round seeded from its neighbours accepts
    no row; the tracker once tested K(V,W) only at the base point. The
    residual is read as 1e-3 wherever K is that of the point, in the
    stacked gate of the tracked points and in the structure of the
    search."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    k_at = blaschke.frames_on_grid(pair_product, grid).K_ortho[5]
    real = decompose._cross_residual

    def cross(k_ortho, basis2, basis3):
        at = np.all(k_ortho == k_at, axis=(-3, -2, -1))
        return np.where(at, 1e-3, real(k_ortho, basis2, basis3))

    monkeypatch.setattr(decompose, "_cross_residual", cross)
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind is None
    assert verdict.notes == (
        "cross residual K(V, W) 0.001 exceeds tolerance 1e-06 at grid "
        f"point {blaschke.format_point(grid[5])}",)


def test_drift_note_names_its_worst_point(pair_product, monkeypatch):
    """lambda2 moved by 1e-3 at one point after the tracker's gate passed
    it, with the relation residuals left as they were, fails the drift
    test there."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    real = decompose._track

    def track(frames, *args):
        rows, lams, failure = real(frames, *args)
        lams[np.all(frames.u == grid[7], axis=1), 1] += 1e-3
        return rows, lams, failure

    monkeypatch.setattr(decompose, "_track", track)
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind is None
    assert verdict.notes == (
        "eigenvalues drift across the grid by 0.001 at grid point "
        f"{blaschke.format_point(grid[7])}",)


def test_a_round_that_accepts_no_row_names_its_first_point(pair_product,
                                                           pair_verdict,
                                                           monkeypatch):
    """When the tracked solve fails at every point, the first round
    accepts no row and the refusal names the first point tracked: the
    one after the base point in detect, the base point in extraction.
    Nothing is searched past the base frame."""
    verdict, grid = pair_verdict
    sizes = _tracker_rounds(monkeypatch, grid)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    refused = decompose.detect(pair_product, grid)
    assert refused.kind is None
    assert refused.notes == ("the tracked axis solve fails at grid point "
                             f"{blaschke.format_point(grid[1])}",)
    with pytest.raises(blaschke.GeometryError) as refusal:
        decompose.extract_pair_factors(pair_product, verdict, grid)
    assert str(refusal.value) == ("the tracked axis solve fails at grid "
                                  f"point {blaschke.format_point(grid[0])}")
    assert len(searches) == 1
    assert sizes == [len(grid) - 1, len(grid)]


@pytest.fixture(scope="module")
def point_pair_product(hyperbola, hyperbola_b):
    """n = 4 with (n2, n3) = (1, 2): the point product of h2 as the first
    factor of a pair."""
    return construct.calabi_pair(construct.calabi_point(hyperbola),
                                 hyperbola_b)


@pytest.mark.parametrize("product, extract", [
    ("point_product", decompose.extract_point_factor),
    ("point_pair_product", decompose.extract_pair_factors),
    ("pair_product", decompose.extract_pair_factors),
])
def test_extraction_reads_the_rows_detect_tracked(request, product, extract,
                                                  monkeypatch):
    """When the recorded axis is the verdict's own axis, on the frames
    detect tracked, extraction reads the rows detect tracked and makes no
    `_track` call, and reads what it reads when it tracks them itself; at
    another tol, or for another axis, it tracks. The verdict's axis is
    the recorded +d_t/|d_t|_h on the point product only: on the pair
    product of h2 and h2b it is that of the other (1, 1) structure, and on
    the point-first pair it leaves the t direction."""
    defn = request.getfixturevalue(product)
    grid = make_grid(-0.2, 0.2, 2, defn.nvars)
    axes = []
    real = decompose._recorded_axis
    monkeypatch.setattr(decompose, "_recorded_axis",
                        lambda *args: axes.append(real(*args)) or axes[-1])
    calls = _counted(monkeypatch, "_track")
    blaschke.clear_frame_cache()
    verdict = decompose.detect(defn, grid)
    calls.clear()
    data = extract(verdict.def_scaled, verdict, grid)
    own = np.array_equal(axes[0][0], verdict.spectrum.axis.T)
    assert own == (product == "point_product")
    assert len(calls) == (0 if own else 1)
    extract(verdict.def_scaled, verdict, grid, tol=1e-5)
    assert len(calls) == (1 if own else 2)
    decompose._TRACKED.clear()
    tracked = extract(verdict.def_scaled, verdict, grid)
    assert len(calls) == (2 if own else 3)
    assert data.failed_residuals == tracked.failed_residuals
    assert data.residuals == pytest.approx(tracked.residuals, abs=1e-12)
    for name in ("phi2_samples", "phi3_samples", "metric_ratio"):
        assert np.allclose(getattr(data, name), getattr(tracked, name),
                           rtol=0, atol=1e-12), name


@pytest.mark.parametrize("lo, count", [(-0.2, 2), (-0.3, 3)])
def test_point_first_pair_reads_the_constructor_gauge(point_pair_product,
                                                      lo, count):
    """The verdict's (n2, n3) = (1, 2) is the recorded (2, 1) swapped, so
    the lambda2 block is the second factor, read along -d_t: the gauge
    d1 = d2 = 1 the constructors emit, with no failed residual."""
    grid = make_grid(lo, -lo, count, 4)
    verdict = decompose.detect(point_pair_product, grid)
    data = decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert data.failed_residuals == ()
    assert data.d1 == pytest.approx(1.0, abs=1e-8)
    assert data.d2 == pytest.approx(1.0, abs=1e-8)


def test_extraction_refuses_a_verdict_of_another_shape(hyperbola):
    """A point product of a point product detects as the pair of the two
    inner blocks, a shape that is not the recorded (2, 0) in either
    order; extraction refuses it and names both."""
    nested = construct.calabi_point(construct.calabi_point(hyperbola))
    grid = make_grid(-0.2, 0.2, 2, 3)
    verdict = decompose.detect(nested, grid)
    assert verdict.kind == "PairProduct"
    assert (verdict.spectrum.n2, verdict.spectrum.n3) == (1, 1)
    with pytest.raises(blaschke.GeometryError,
                       match=r"\(1, 1\).*\(2, 0\)"):
        decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)


def test_extract_with_another_tol_reuses_the_base_search(pair_product,
                                                         monkeypatch):
    grid = make_grid(-0.3, 0.3, 3, 3)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, grid)
    data = decompose.extract_pair_factors(verdict.def_scaled, verdict, grid,
                                          tol=1e-5)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-12)
    assert len(searches) == 1


def test_detect_and_extract_classify_each_pass_in_one_eigensolve(
        pair_product, monkeypatch):
    """One eigensolve for the base candidates and one per tracked pass:
    2 for detect over g27 (33 one-matrix solves before they were
    stacked), 1 for the extraction after it (27 before)."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    solves = []
    real = numerics.solve_sym_eig_generalized

    def counted(reduced):
        solves.append(np.shape(reduced))
        return real(reduced)

    monkeypatch.setattr(numerics, "solve_sym_eig_generalized", counted)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind == "PairProduct"
    assert solves == [(7, 3, 3), (26, 3, 3)]
    solves.clear()
    decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert solves == [(27, 3, 3)]


@pytest.mark.parametrize("broken", [2, 5])
def test_a_solve_failing_inside_a_chain_is_solved_from_its_neighbour(
        pair_product, pair_verdict, broken, monkeypatch):
    """When the tracked solve fails at one point in the middle of the grid
    in the first round, the other points are classified together, and
    that point is solved again in a second round from the axis of its
    nearest accepted point and classified alone: each point is classified
    once, and nothing is searched past the base frame."""
    tracked, grid = pair_verdict
    _tracker_rounds(monkeypatch, grid[broken:broken + 1], rounds=1)
    searches = _counted(monkeypatch, "find_axes")
    solves = []
    real_eig = numerics.solve_sym_eig_generalized

    def counted(reduced):
        solves.append(len(reduced))
        return real_eig(reduced)

    monkeypatch.setattr(numerics, "solve_sym_eig_generalized", counted)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind == "PairProduct"
    assert len(searches) == 1
    assert solves == [7, len(grid) - 2, 1]
    for attr in ("lambda1", "lambda2", "lambda3"):
        assert getattr(verdict.spectrum, attr) == getattr(
            tracked.spectrum, attr), attr
    assert verdict.constancy_residual == pytest.approx(
        tracked.constancy_residual, abs=1e-12)
    solves.clear()
    data = decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-12)
    assert len(searches) == 1
    assert solves == [len(grid) - 1, 1]


@pytest.mark.parametrize("product", ["point_product", "pair_product",
                                     "mixed_product", "double_point_product"])
def test_restarts_solve_alike_in_one_stack_and_one_by_one(request, product,
                                                          monkeypatch):
    """find_axes gives the same candidates, in the same order, when every
    restart is solved alone; the order is that of the rounded
    deduplication key, so last-bit ties in lambda1 do not decide it."""
    defn = request.getfixturevalue(product)
    points = np.random.default_rng(5).uniform(-0.3, 0.3, (4, defn.nvars))
    frames = [blaschke.full_frame(defn, tuple(u)) for u in points]
    stacked = [decompose.find_axes(frame) for frame in frames]
    for axes in stacked:
        keys = [(round(c.lambda1, 7),) + tuple(np.round(c.y, 7))
                for c in axes]
        assert keys == sorted(keys)
    real = decompose._solve_axis

    def one_by_one(frames, x0, classes):
        return [real(SimpleNamespace(**{
            k: getattr(frames, k)[r:r + 1] for k in ("u", "basis", "K_ortho")
        }), x0[r:r + 1])[0] for r in range(len(x0))]

    monkeypatch.setattr(decompose, "_solve_axis", one_by_one)
    for frame, reference in zip(frames, stacked):
        alone = decompose.find_axes(frame)
        assert len(alone) == len(reference) > 0
        for a, b in zip(alone, reference):
            assert abs(a.lambda1 - b.lambda1) <= 1e-13
            assert np.allclose(a.T, b.T, rtol=0, atol=1e-13)


def test_a_singular_jacobian_fails_only_its_own_row(pair_product,
                                                   monkeypatch):
    """The zero seed has an all-zero Jacobian, which made a stacked
    np.linalg.solve raise for every row. The second h-orthonormal basis
    vector, e_2 in the rows' coordinates y = B^-1 x, is orthogonal to the
    axis here, where the Jacobian is singular only up to rounding: the
    solve did not raise, and the row halved its step 40 times before it
    was dropped. The conditioning test stops both before the solve, after
    the one evaluation at the seed, and the other rows of the stack solve
    as they do alone."""
    frame = blaschke.full_frame(pair_product, (0.1, -0.2, 0.15))
    calls = _counted(monkeypatch, "_axis_system")
    for singular in (np.zeros(3), np.eye(3)[1]):
        calls.clear()
        assert decompose._solve_axis(decompose._repeated(frame, 1),
                                     singular[None]) == [None]
        assert len(calls) == 1
        seeds = np.array([singular, [0.6, 0.5, -0.2], [-0.1, 0.3, 0.8]])
        stacked = decompose._solve_axis(decompose._repeated(frame, 3), seeds)
        assert stacked[0] is None
        for seed, axis in zip(seeds[1:], stacked[1:]):
            (alone,) = decompose._solve_axis(decompose._repeated(frame, 1),
                                             seed[None])
            assert axis is not None and alone is not None
            assert np.array_equal(axis.T, alone.T)
            assert axis.lambda1 == alone.lambda1
            assert axis.axis_residual == alone.axis_residual


@pytest.mark.parametrize("product, u", [
    ("point_product", (0.1, -0.2)),
    ("pair_product", (0.1, -0.2, 0.15)),
])
def test_find_axes_evaluates_the_axis_system_at_most_12_times(
        request, product, u, monkeypatch):
    """Stacked evaluations of F and its Jacobian in one search: 45 and 46
    when the seeds orthogonal to the axis, whose Jacobian is singular,
    halved their steps 40 times each before they were dropped."""
    frame = blaschke.full_frame(request.getfixturevalue(product), u)
    calls = _counted(monkeypatch, "_axis_system")
    assert decompose.find_axes(frame)
    assert len(calls) <= 12


@pytest.mark.parametrize("product, count, evaluations", [
    ("point_product", 3, 5),
    ("pair_product", 7, 10),
])
def test_find_axes_stops_at_2n_minus_1_classes(request, product, count,
                                              evaluations, monkeypatch):
    """At the base point of a benchmark-shaped grid the search holds all
    2^n - 1 classes (Cartwright and Sturmfels) before its rows stop: it
    stops there, after 5 and 10 stacked evaluations of F and its Jacobian
    on the point and the pair product, where it made 11 and 12."""
    defn = request.getfixturevalue(product)
    frame = blaschke.full_frame(defn, (-0.3,) * defn.nvars)
    calls = _counted(monkeypatch, "_axis_system")
    assert len(decompose.find_axes(frame)) == count == 2 ** frame.n - 1
    assert len(calls) == evaluations


def _class_keys(axes) -> list:
    return [(round(a.lambda1, 7),) + tuple(np.round(a.y, 7)) for a in axes]


@pytest.mark.parametrize("product, form", [
    (product, form) for form in ("plain", "bent") for product in (
        "point_product", "pair_product", "mixed_product",
        "double_point_product")] + [("pair_product", "scaled"),
                                    ("point_quadric_product", "plain"),
                                    ("pair_quadric_product", "plain")])
def test_the_class_bound_stop_keeps_every_class(request, product, form,
                                                monkeypatch):
    """find_axes finds the same class keys, in the same order, whether
    its solve stops at 2^n - 1 classes or runs every row to its end, on
    the products, their bent forms, the pair scaled by 1.7 and the two
    products with a quadric factor, at four points each; the candidates
    agree to 1e-12."""
    defn = request.getfixturevalue(product)
    defn = {"plain": defn, "bent": _bent(defn),
            "scaled": decompose._scaled_def(defn, 1.7)}[form]
    points = np.random.default_rng(3).uniform(-0.2, 0.2, (4, defn.nvars))
    frames = [blaschke.full_frame(defn, tuple(u)) for u in points]
    stopped = [decompose.find_axes(frame) for frame in frames]
    real = decompose._solve_axis
    monkeypatch.setattr(decompose, "_solve_axis",
                        lambda frames, y0, classes: real(frames, y0))
    for frame, axes in zip(frames, stopped):
        full = decompose.find_axes(frame)
        assert _class_keys(axes) == _class_keys(full)
        for a, b in zip(axes, full):
            assert abs(a.lambda1 - b.lambda1) <= 1e-12
            assert np.allclose(a.T, b.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("product, keyed", [
    ("mixed_product", [23, 28, 30, 30]),
    ("pair_quadric_product", [20, 7, 22, 8, 28]),
])
def test_the_class_bound_keys_the_converged_rows_only_when_they_grow(
        request, product, keyed, monkeypatch):
    """Converged rows do not change, so the stop keys them with `_classes`
    only in a Newton pass where more of them converged, then keys the
    isolated ones when the keys reach the bound, and find_axes keys its
    candidates once. Both products (n = 4) stay below the bound of 15
    isolated classes at the base point. The mixed product converges more
    rows in each pass it keys, as before. On the pair product with a
    quadric factor the rows on its curves of solutions run all 80
    passes, and the search keyed the same 22 rows and their 8 isolated
    ones in 74 of them, 151 calls in all."""
    defn = request.getfixturevalue(product)
    frame = blaschke.full_frame(defn, (-0.2,) * 4)
    sizes, real = [], decompose._classes
    monkeypatch.setattr(decompose, "_classes",
                        lambda mu, y: sizes.append(len(y)) or real(mu, y))
    decompose.find_axes(frame)
    assert sizes == keyed


@pytest.mark.parametrize("product, kind, shape", [
    ("point_quadric_product", "PointProduct", (2, 0)),
    ("pair_quadric_product", "PairProduct", (1, 2)),
])
def test_a_quadric_factor_does_not_stop_the_search(request, product, kind,
                                                   shape, monkeypatch):
    """On a product with a quadric factor of dimension 2 every X = a T + W,
    W in that factor's block with |W|^2 fixed by a, solves K(X,X) = mu X:
    the search holds more than 2^n - 1 keys, 25 and 24 at the base point.
    Rows on such a curve have a singular Jacobian and do not count toward
    the bound, so a row still on its way to T is not cut off: detect
    reads the same structure and axis with the stop as without it."""
    defn = request.getfixturevalue(product)
    grid = make_grid(-0.2, 0.2, 2, defn.nvars)
    frame = blaschke.full_frame(defn, tuple(grid[0]))
    assert len(decompose.find_axes(frame)) > 2 ** frame.n - 1
    blaschke.clear_frame_cache()
    verdict = decompose.detect(defn, grid)
    assert verdict.kind == kind, verdict.notes
    assert (verdict.spectrum.n2, verdict.spectrum.n3) == shape
    real = decompose._solve_axis
    monkeypatch.setattr(decompose, "_solve_axis",
                        lambda frames, y0, classes=0: real(frames, y0))
    blaschke.clear_frame_cache()
    full = decompose.detect(defn, grid)
    assert full.kind == kind
    assert np.array_equal(full.spectrum.axis.T, verdict.spectrum.axis.T)


def _loop_seeds(n: int, count: int, seed: int) -> np.ndarray:
    """The seed's standard normal draws in R^n, one vector at a time, each
    scaled to unit length."""
    rng = np.random.default_rng(seed)
    seeds = [v / np.linalg.norm(v) for v in
             (rng.standard_normal(n) for _ in range(count))]
    return np.array(seeds).reshape(-1, n)


@pytest.mark.parametrize("n", range(1, 6))
def test_seeds_drawn_as_one_array_are_those_of_the_loop(n):
    """The array draw gives the seeds of the per-vector loop bit for bit:
    the Generator stream is the same, and so are the norms. No count of
    seeds gives no rows."""
    for seed in range(10):
        for count in (n, 32 - n, 0, -1):
            want = _loop_seeds(n, count, seed)
            got = decompose._random_seeds(n, count, seed)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (seed, count)


@pytest.mark.parametrize("s", [1.0, 1e-9])
@pytest.mark.parametrize("product, u", [
    ("point_product", (0.1, -0.2)),
    ("pair_product", (0.1, -0.2, 0.15)),
])
def test_find_axes_solves_from_the_seeds_of_the_loop(request, product, u, s,
                                                     monkeypatch):
    """The rows `find_axes` hands to the Newton solve, in the frame's
    h-orthonormal coordinates y = B^-1 x, are the basis vectors e_i and
    then the seeds of the per-vector loop, so they do not depend on the
    scale s of u -> s u."""
    defn = request.getfixturevalue(product)
    defn = _linear_reparam(defn, s * np.eye(defn.nvars))
    frame = blaschke.full_frame(defn, tuple(np.array(u) / s))
    seen = []
    real = decompose._solve_axis
    monkeypatch.setattr(decompose, "_solve_axis",
                        lambda frames, y0, *args: seen.append(y0)
                        or real(frames, y0, *args))
    assert decompose.find_axes(frame)
    want = np.concatenate([np.eye(frame.n),
                           _loop_seeds(frame.n, 32 - frame.n, 42)])
    assert np.array_equal(seen[0], want)


def test_find_axes_finds_the_same_classes_under_a_rescale(pair_product):
    """Under u -> s u, T scales by 1/s, and the stop, keep, dedupe and sign
    tests of the search once read it in coordinates: 7, 4, 1, 5 and 6
    classes at s = 1, 1e-8, 1e4, 1e-9 and 1e-12. In y = B^-1 T they read
    coordinates of unit length at every s."""
    lams = []
    for s in (1e-12, 1e-9, 1e-8, 1.0, 1e4):
        mapped = _linear_reparam(pair_product, s * np.eye(3))
        frame = blaschke.full_frame(mapped,
                                    tuple(np.array([0.1, 0.2, -0.15]) / s))
        axes = decompose.find_axes(frame)
        assert len(axes) == 7, s
        lams.append([axis.lambda1 for axis in axes])
    assert np.allclose(lams, lams[3], rtol=0, atol=1e-9)


_DETECT_CHILD = """
import json, sys
import numpy as np
from calabi import decompose, parse_immersion
defn = parse_immersion(sys.stdin.read())
print(decompose.detect(defn, np.array(json.loads(sys.argv[1]))).kind)
"""


@pytest.mark.parametrize("s", [1e-9, 1e-12])
def test_detect_returns_under_a_tiny_rescale(pair_product, s):
    """Under u -> s u the metric is s^2 h, and `find_axes` kept a random
    seed only at an h-norm above an absolute 1e-8, so at these scales it
    drew seeds forever. The floor is now relative to the seed and to h.
    detect runs in a child process with a timeout, so that a hang fails
    this test instead of blocking the suite."""
    mapped = _linear_reparam(pair_product, s * np.eye(3))
    grid = make_grid(-0.3, 0.3, 3, 3) / s
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _DETECT_CHILD, json.dumps(grid.tolist())],
        input=dsl.print_immersion(mapped), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["PairProduct"]


def test_a_solve_stopped_at_its_rounding_floor_is_kept(pair_product):
    """In coordinates u -> P u the axes are P^-1 T, solved as y = B^-1 P^-1
    T in the h-orthonormal basis B there. The cubic form of that basis is
    scaled by 1e3, as that of c phi is at c^(-a/2) = 1e3, so that rounding
    leaves |F| above 1e-13 at some of the axes, where backtracking cannot
    reduce it; such a row has solved the system and is kept."""
    frame = blaschke.full_frame(pair_product, (0.1, -0.2, 0.15))
    axes = decompose.find_axes(frame)
    p = np.array([[1.0, 8.0, 0.0], [0.0, 1.0, 8.0], [0.0, 0.0, 1.0]])
    p_inv = np.linalg.inv(p)
    basis = numerics.metric_orthonormal_basis(p.T @ frame.h @ p)
    c_p = np.einsum("abc,ai,bj,ck->ijk", frame.C, p, p, p)
    k_ortho = 1e3 * np.einsum("abc,ai,bj,ck->ijk", c_p, basis, basis, basis)
    rows = SimpleNamespace(K_ortho=np.stack([k_ortho] * len(axes)),
                           basis=np.stack([basis] * len(axes)))
    solved = decompose._solve_axis(rows, np.stack(
        [np.linalg.solve(basis, p_inv @ axis.T) for axis in axes]))
    for axis, ref in zip(solved, axes):
        assert axis is not None
        assert np.allclose(p @ axis.T, ref.T, rtol=0, atol=1e-9)
        assert axis.lambda1 == pytest.approx(1e3 * ref.lambda1, abs=1e-6)
    f, _jac, _mu = decompose._axis_system(
        rows.K_ortho, np.stack([axis.y for axis in solved]))
    assert np.max(decompose._norms(f)) > 1e-13


@pytest.mark.parametrize("seed", range(12))
def test_balanced_split_wins_under_linear_reparametrization(
        double_point_product, seed):
    """The n = 5 product of two point products has equivalent (2, 2) and
    (1, 3) structures with residuals equal up to rounding; seeds 0, 1, 4,
    6, 9, 10 and 11 chose (1, 3) when the residuals decided."""
    a = np.eye(5) + 0.3 * np.random.default_rng(seed).standard_normal((5, 5))
    mapped = _linear_reparam(double_point_product, a)
    grid = make_grid(-0.1, 0.1, 2, 5)
    verdict = decompose.detect(mapped, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    s = verdict.spectrum
    assert (s.n2, s.n3) == (2, 2)
    assert (s.lambda1, s.lambda2, s.lambda3) == pytest.approx(
        (0.0, 1.0, -1.0), abs=1e-6)
    data = decompose.extract_pair_factors(mapped, verdict, grid)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("seed", [9, 17, 18, 28])
def test_k_t_rounding_asymmetry_passes_the_symmetry_gate(
        double_point_product, seed):
    """On these stronger reparametrizations rounding leaves K_T asymmetric
    by 1e-12 to 5e-12, which a 1e-12 symmetry gate refused as a None
    verdict; the gate now holds K_T to the 1e-8 of order-three checks."""
    a = np.eye(5) + 0.6 * np.random.default_rng(seed).standard_normal((5, 5))
    mapped = _linear_reparam(double_point_product, a)
    grid = make_grid(-0.1, 0.1, 2, 5)
    verdict = decompose.detect(mapped, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    s = verdict.spectrum
    assert (s.n2, s.n3) == (2, 2)
    assert (s.lambda1, s.lambda2, s.lambda3) == pytest.approx(
        (0.0, 1.0, -1.0), abs=1e-6)
    data = decompose.extract_pair_factors(mapped, verdict, grid)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("seed", [6, 8])
def test_sphere_gate_does_not_depend_on_the_coordinates(
        double_point_product, seed):
    """Under these maps S - H id reads 1.3e-6 and 2.4e-6 in coordinate
    entries, past the 1e-6 gate, but about 1e-7 in an h-orthonormal
    frame, where the sphere gate now measures it."""
    a = np.eye(5) + 0.6 * np.random.default_rng(seed).standard_normal((5, 5))
    mapped = _linear_reparam(double_point_product, a)
    grid = make_grid(-0.1, 0.1, 2, 5)
    verdict = decompose.detect(mapped, grid)
    assert verdict.evidence[0].name == "sphere"
    assert verdict.evidence[0].max_residual < 2e-7
    assert verdict.kind == "PairProduct", verdict.notes
    s = verdict.spectrum
    assert (s.n2, s.n3) == (2, 2)
    assert (s.lambda1, s.lambda2, s.lambda3) == pytest.approx(
        (0.0, 1.0, -1.0), abs=1e-6)
    data = decompose.extract_pair_factors(mapped, verdict, grid)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-8)


def test_homothety_does_not_recheck_h_on_a_mapped_product(
        double_point_product):
    """Under this map H is accurate to a few 1e-8 at a grid point. A
    recomputed rescale that held H + 1 to 1e-9 at the probe point refused
    the sphere with "scale 1 misses H = -1 by -7.63e-09"."""
    a = np.eye(5) + 0.6 * np.random.default_rng(39).standard_normal((5, 5))
    mapped = _linear_reparam(double_point_product, a)
    grid = make_grid(-0.1, 0.1, 2, 5)
    verdict = decompose.detect(mapped, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    s = verdict.spectrum
    assert (s.n2, s.n3) == (2, 2)
    assert (s.lambda1, s.lambda2, s.lambda3) == pytest.approx(
        (0.0, 1.0, -1.0), abs=1e-6)
    data = decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("seed", [6, 8, 39])
def test_theorem3_gate_applies_under_a_linear_map(double_point_product,
                                                  seed):
    """A linear reparametrization keeps the cubic form parallel. With h
    solved from the decomposition of d_i d_j phi against (d phi, unit
    normal) these maps read a parallel residual of 1.9e-6 to 3.8e-6,
    past its 1e-6 tolerance; in closed form it reads below 3e-8."""
    a = np.eye(5) + 0.6 * np.random.default_rng(seed).standard_normal((5, 5))
    mapped = _linear_reparam(double_point_product, a)
    gate = decompose.theorem3_gate(mapped, make_grid(-0.1, 0.1, 2, 5))
    assert gate.parallel.max_residual <= 1e-7
    assert gate.applies, gate.note


def test_an_ill_conditioned_map_is_still_refused(double_point_product):
    """cond(A) = 941: the sphere gate refuses this map, and reading H once
    must not let it through. The note is not asserted: it says "not an
    affine sphere" where it should name the conditioning."""
    a = np.eye(5) + 0.6 * np.random.default_rng(38).standard_normal((5, 5))
    mapped = _linear_reparam(double_point_product, a)
    verdict = decompose.detect(mapped, make_grid(-0.1, 0.1, 2, 5))
    assert verdict.kind is None


def test_rounding_in_the_residuals_does_not_choose_the_structure(
        mixed_product, mixed_verdict, monkeypatch):
    """Equivalent structures have residuals equal up to rounding. Offsets
    of at most 1e-13, largest on the first structure `find_axes` returns,
    must not move the detected axis."""
    verdict, grid = mixed_verdict
    real = decompose._axis_structures

    def offset(*args):
        gated = real(*args)
        n, tests = len(gated.tests), gated.tests.copy()
        tests[:, decompose.GATE_TESTS.index("cross")] += (
            1e-13 * (n - np.arange(n)) / n)
        return gated._replace(tests=tests)

    monkeypatch.setattr(decompose, "_axis_structures", offset)
    again = decompose.detect(mixed_product, grid)
    assert (again.spectrum.n2, again.spectrum.n3) == (1, 2)
    assert np.array_equal(again.spectrum.axis.T, verdict.spectrum.axis.T)


def test_detect_invariant_under_unimodular_map(point_product):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    a /= np.sign(np.linalg.det(a)) * abs(np.linalg.det(a)) ** (1 / 3)
    comps = []
    for row in a:
        term = None
        for coef, comp in zip(row, point_product.components):
            piece = dsl.mul(dsl.const(float(coef)), comp)
            term = piece if term is None else dsl.add(term, piece)
        comps.append(term)
    mapped = dsl.ImmersionDef(name="mapped", vars=point_product.vars,
                              components=tuple(comps))
    grid = make_grid(-0.3, 0.3, 3, 2)
    left = decompose.detect(point_product, grid)
    right = decompose.detect(mapped, grid)
    assert left.kind == right.kind == "PointProduct"
    assert right.spectrum.lambda1 == pytest.approx(
        left.spectrum.lambda1, abs=1e-8)
    assert right.spectrum.lambda2 == pytest.approx(
        left.spectrum.lambda2, abs=1e-8)


# ---------------------------------------------------------------------------
# theorem3 gate


def test_theorem3_gate_applies_on_pair(pair_product):
    gate = decompose.theorem3_gate(pair_product, make_grid(-0.2, 0.2, 2, 3))
    assert gate.applies
    assert gate.parallel.passed
    assert gate.curvature_action_residual <= 1e-6
    assert all(r <= 1e-6 for r in gate.derived_relations.values())
    assert all(m >= 1e-3 for m in gate.margins.values())
    assert gate.cross_residual <= 1e-6


def test_theorem3_gate_returns_a_note_on_indefinite_metric():
    saddle = parse_immersion(
        "immersion saddle { vars: u, v; components: (u, v, u*v); }")
    gate = decompose.theorem3_gate(saddle, make_grid(-0.3, 0.3, 3, 2))
    assert not gate.applies
    assert gate.note == "tentative second fundamental form is not definite"


def test_theorem3_gate_reports_an_asymmetric_k_t_as_a_note(pair_product,
                                                          monkeypatch):
    real = numerics.solve_sym_eig_generalized

    def skewed(reduced):
        return real(reduced + 1e-6 * np.triu(np.ones_like(reduced), 1))

    monkeypatch.setattr(numerics, "solve_sym_eig_generalized", skewed)
    blaschke.clear_frame_cache()   # the base search must run, not the memo
    gate = decompose.theorem3_gate(pair_product, make_grid(-0.2, 0.2, 2, 3))
    assert not gate.applies
    assert "asymmetry" in gate.note


def test_theorem3_gate_needs_a_two_cluster_spectrum(point_product):
    gate = decompose.theorem3_gate(point_product, make_grid(-0.3, 0.3, 3, 2))
    assert not gate.applies
    assert gate.note == "no axis with a two-cluster spectrum"


def test_theorem3_gate_quadric_collapses(quadric):
    gate = decompose.theorem3_gate(quadric, make_grid(-0.4, 0.4, 3, 2))
    assert not gate.applies
    assert gate.note is not None


def test_theorem3_derived_relation_arithmetic():
    lam1, lam2 = 0.0, 1.0
    assert (lam1 - 2 * lam2) * (-1 - lam1 * lam2 + lam2 ** 2) == 0.0


# ---------------------------------------------------------------------------
# extraction


def test_extract_pair_factors(pair_product, pair_verdict):
    verdict, grid = pair_verdict
    data = decompose.extract_pair_factors(pair_product, verdict, grid)
    assert data.kind == "pair"
    assert data.d1 == pytest.approx(1.0, abs=1e-8)
    assert data.d2 == pytest.approx(1.0, abs=1e-8)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-12)
    assert data.immersion_rate == pytest.approx(2.0, abs=1e-8)
    assert data.subspace2.shape[0] == 2
    assert data.subspace3.shape[0] == 2
    assert data.residuals["subspace_overlap"] == 0
    for key in ("phi2_axis", "phi2_cokernel", "phi3_axis",
                "phi3_cokernel"):
        assert data.residuals[key] <= 1e-6
    assert data.residuals["totally_geodesic"] <= 1e-6
    # reconstructed factors are unit hyperbolic spheres
    assert data.factor_defs is not None
    assert data.residuals["factor1_mean_curvature"] <= 1e-6
    assert data.residuals["factor2_mean_curvature"] <= 1e-6
    assert data.d1 ** 2 * data.d2 ** 2 == pytest.approx(1.0, abs=1e-8)


def test_extract_mixed_factors(mixed_product, mixed_verdict):
    verdict, grid = mixed_verdict
    data = decompose.extract_pair_factors(mixed_product, verdict, grid)
    assert data.subspace2.shape[0] == 2
    assert data.subspace3.shape[0] == 3
    assert data.metric_ratio == pytest.approx(2.5, abs=1e-12)
    lam2 = verdict.spectrum.lambda2
    lam3 = verdict.spectrum.lambda3
    assert (lam2 - lam3) * lam2 == pytest.approx(2.5, abs=1e-9)
    assert data.residuals["gauge_consistency"] <= 1e-8


def test_extract_point_factor(point_product, point_verdict):
    verdict, grid = point_verdict
    data = decompose.extract_point_factor(point_product, verdict, grid)
    assert data.kind == "point"
    assert data.metric_ratio == pytest.approx(1.5, abs=1e-12)
    assert data.immersion_rate == pytest.approx(3 / math.sqrt(2), abs=1e-8)
    assert data.residuals["phi3_constant"] <= 1e-8
    assert data.subspace2.shape[0] == 2
    assert data.subspace3.shape[0] == 1
    assert data.residuals["axis_geodesic"] <= 1e-6


@pytest.mark.parametrize("product, verdict, ratio", [
    ("point_product", "point_verdict", 1.5),
    ("pair_product", "pair_verdict", 2.0),
    ("mixed_product", "mixed_verdict", 2.5),
    ("double_point_product", "double_point_verdict", 2.0),
])
def test_metric_ratio_is_exact(request, product, verdict, ratio):
    """The Gauss-formula closed form leaves no differencing error: the
    ratio matches (lambda2 - lambda3) lambda2 to rounding."""
    defn = request.getfixturevalue(product)
    verdict, grid = request.getfixturevalue(verdict)
    s = verdict.spectrum
    if verdict.kind == "PointProduct":
        data = decompose.extract_point_factor(defn, verdict, grid)
        lam3 = s.lambda1 - s.lambda2
    else:
        data = decompose.extract_pair_factors(defn, verdict, grid)
        lam3 = s.lambda3
    assert abs(data.metric_ratio - (s.lambda2 - lam3) * s.lambda2) <= 1e-12
    assert abs(data.metric_ratio - ratio) <= 1e-12
    assert data.residuals["metric_ratio"] <= 1e-12


@pytest.mark.parametrize("product, grid", [
    ("pair_product", make_grid(-0.3, 0.3, 3, 3)),
    ("mixed_product", make_grid(-0.2, 0.2, 3, 4)),
])
def test_tracker_follows_the_moving_axis_of_a_bent_product(
        request, product, grid, monkeypatch):
    """In bent coordinates T moves across the grid, so the tracked Newton
    solve iterates from the base axis at every point. Detection and
    extraction still search only the base frame, every point keeps the
    base structure, and each tracked T is the candidate a full search
    at that point finds closest to the base axis. Extraction reads the
    rows detection tracked on the same frames, so it tracks nothing."""
    bent = _bent(request.getfixturevalue(product))
    tracked = []
    real_track = decompose._track

    def spy(frames, ref, *args):
        rows, lams, failure = real_track(frames, ref, *args)
        tracked.append((frames, ref, rows, lams))
        return rows, lams, failure

    monkeypatch.setattr(decompose, "_track", spy)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    verdict = decompose.detect(bent, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    decompose.extract_pair_factors(bent, verdict, grid)
    assert len(searches) == 1
    assert [len(frames) for frames, *_ in tracked] == [len(grid) - 1]
    for frames, ref, rows, lams in tracked:
        assert np.max(np.abs(rows[-1, 0] - ref.axis.T)) > 0.1
        for p, (row, lam) in enumerate(zip(rows, lams)):
            structure = decompose.classify_spectrum(frames[p], (
                decompose.CandidateAxis(T=row[0], lambda1=lam[0],
                                        axis_residual=0.0)))
            assert ((structure.pattern, structure.n2, structure.n3)
                    == (ref.pattern, ref.n2, ref.n3))
            search = decompose.find_axes(frames[p])
            cosines = [float(c.T @ frames.h[p] @ ref.axis.T) for c in search]
            best = int(np.argmax(np.abs(cosines)))
            aligned = np.sign(cosines[best]) * search[best].T
            assert np.max(np.abs(row[0] - aligned)) <= 1e-12


@pytest.mark.parametrize("product, grid", [
    ("pair_product", make_grid(-0.3, 0.3, 3, 3)),
    ("mixed_product", make_grid(-0.2, 0.2, 3, 4)),
])
def test_failed_rows_on_a_bent_product_keep_the_tracked_axes(
        request, product, grid, monkeypatch):
    """With the tracked solve failing in the first round at every point
    past the middle of the grid, each of them is solved in a later round
    from the axis of its nearest accepted point, which moves with the
    bend, and the extraction reads as with every row solved from the base
    axis. Nothing is searched: detect, run again under the failing solve,
    makes the one `_track` call, and the extraction reads its rows."""
    bent = _bent(request.getfixturevalue(product))
    verdict = decompose.detect(bent, grid)
    tracked = decompose.extract_pair_factors(bent, verdict, grid)
    sizes = _tracker_rounds(monkeypatch, grid[len(grid) // 2:], rounds=1)
    searches = _counted(monkeypatch, "find_axes")
    verdict = decompose.detect(bent, grid)
    data = decompose.extract_pair_factors(bent, verdict, grid)
    assert searches == []
    assert sizes == [len(grid) - 1, len(grid) - len(grid) // 2]
    assert data.metric_ratio == pytest.approx(tracked.metric_ratio,
                                              abs=1e-12)
    assert np.allclose(data.phi2_samples, tracked.phi2_samples, atol=1e-12)
    assert np.allclose(data.phi3_samples, tracked.phi3_samples, atol=1e-12)


@pytest.mark.parametrize("product, count, box, second", [
    ("pair_product", 3, 0.8, 10),
    ("pair_product", 5, 0.8, 40),
    ("mixed_product", 3, 0.4, 13),
])
def test_continuation_detects_the_wide_bent_boxes(
        request, product, count, box, second, monkeypatch):
    """The wide boxes of ROADMAP item 2. Seeded from the base axis, the
    far rows solve to the axis of another structure, and detect refused
    with "axis spectrum is point (2, 0), not pair (1, 1)" ((3, 0) and
    (1, 2) on the mixed product). Seeded again from the axes of their
    nearest accepted points, `second` rows keep the base structure in a
    second round, in detect and in extraction alike. Both read the closed
    forms, every residual is at most 1e-6, and only the base frame is
    searched, once. Where detect works on the input itself (H = -1 to
    rounding at the base point), the extraction of it rereads the rows
    detect tracked; where it works on a rescaled copy, extracting the
    input tracks its own frames in two more rounds."""
    bent = _bent(request.getfixturevalue(product))
    grid = make_grid(-box, box, count, bent.nvars)
    closed = ((0.0, 1.0, -1.0, 2.0) if product == "pair_product" else (
        math.sqrt(1.5) - math.sqrt(2 / 3), math.sqrt(1.5), -math.sqrt(2 / 3),
        2.5))    # lambda1, lambda2, lambda3 and the metric ratio
    sizes = _tracker_rounds(monkeypatch)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    verdict = decompose.detect(bent, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    data = decompose.extract_pair_factors(bent, verdict, grid)
    s = verdict.spectrum
    assert (s.lambda1, s.lambda2, s.lambda3, data.metric_ratio) == (
        pytest.approx(closed, abs=1e-9))
    assert verdict.constancy_residual <= 1e-6
    assert max(data.residuals.values()) <= 1e-6
    assert len(searches) == 1
    reread = verdict.def_scaled is bent
    assert sizes == [len(grid) - 1, second] + (
        [] if reread else [len(grid), second])


def test_the_bent_point_product_on_the_wide_box_is_refused_unsearched(
        point_product, monkeypatch):
    """On [-0.8, 0.8]^2 the point next to the base point, whose nearest
    accepted point stays the base point, solves against the base axis in
    every round. Its note is the one the fallback search gave: the first
    three rounds accept 5, 1 and 1 rows, and the fourth, which solves that
    point alone, none. Only the base frame is searched."""
    grid = make_grid(-0.8, 0.8, 3, 2)
    sizes = _tracker_rounds(monkeypatch)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    verdict = decompose.detect(_bent(point_product), grid)
    assert verdict.kind is None
    assert verdict.notes == (
        "h(T, T_ref) = -3.06 < 0 at grid point "
        f"{blaschke.format_point(grid[1])}",)
    assert len(searches) == 1
    assert sizes == [8, 3, 2, 1]


def test_a_later_round_names_the_point_whose_axis_seeds_it(point_product,
                                                          monkeypatch):
    """From its second round on the tracker seeds a row with the axis of
    the nearest accepted point, and an orientation refusal names that
    point's axis, not T_ref. The bent point product over [-0.8, 0.8]^2
    from the base point (-0.8, 0.8), with the solve at (0.8, 0.0) failing
    in the first two rounds: the second round holds that point and
    (0.8, -0.8), seeded from (0.0, -0.8), and passes neither."""
    grid = make_grid(-0.8, 0.8, 3, 2)
    grid = np.vstack([grid[2], np.delete(grid, 2, axis=0)])
    sizes = _tracker_rounds(monkeypatch, [(0.8, 0.0)], rounds=2)
    verdict = decompose.detect(_bent(point_product), grid)
    assert verdict.kind is None
    assert sizes == [8, 2]
    assert verdict.notes == ("h(T, T at (0.0, -0.8)) = -0.0483 < 0 at grid "
                             "point (0.8, -0.8)",)


@pytest.mark.parametrize("bend", [False, True])
def test_extraction_names_its_failed_residuals(point_product, bend):
    """FactorData lists the residuals above the tol given to extraction,
    sorted, as the CLI reports them: on the unbent point product, at a
    tol below its largest nonzero residual. On [-0.8, 0.8]^2 the bent
    point product is refused: 2 of its 8 tracked axes point against the
    base axis, h(T, T_ref) < 0, which the tracker's fallback accepted
    before it tested the orientation, and the extraction of that wrong
    split read phi3_constant 0.54 and subspace_overlap 2 (ROADMAP item
    2)."""
    grid = make_grid(-0.8, 0.8, 3, 2)
    if bend:
        verdict = decompose.detect(_bent(point_product), grid)
        assert verdict.kind is None
        assert verdict.notes == (
            "h(T, T_ref) = -3.06 < 0 at grid point "
            f"{blaschke.format_point(grid[1])}",)
        return
    verdict = decompose.detect(point_product, grid)
    assert verdict.kind == "PointProduct"
    data = decompose.extract_point_factor(point_product, verdict, grid,
                                          tol=1e-6)
    assert data.failed_residuals == ()
    largest = max(data.residuals.values())
    assert 0.0 < largest <= 1e-14
    tol = 0.5 * largest
    data = decompose.extract_point_factor(point_product, verdict, grid,
                                          tol=tol)
    assert data.failed_residuals
    assert data.failed_residuals == tuple(sorted(
        k for k, v in data.residuals.items() if v > tol))
    assert decompose.extract_point_factor(
        point_product, verdict, grid, tol=largest).failed_residuals == ()


@pytest.mark.parametrize("product, ratio", [
    ("point_product", 1.5),
    ("pair_product", 2.0),
    ("double_point_product", 2.0),
])
def test_metric_ratio_is_invariant_under_reparametrization(request, product,
                                                           ratio):
    """In bent coordinates a constant coordinate vector leaves the
    lambda2 block away from the base point; the ratio is still the
    geometric one (constant coordinate vectors read 3.23 on the pair)."""
    bent = _bent(request.getfixturevalue(product))
    grid = make_grid(-0.1, 0.1, 2, bent.nvars)
    verdict = decompose.detect(bent, grid)
    assert verdict.kind is not None, verdict.notes
    extract = (decompose.extract_point_factor
               if verdict.kind == "PointProduct"
               else decompose.extract_pair_factors)
    data = extract(bent, verdict, grid)
    assert abs(data.metric_ratio - ratio) <= 1e-12
    assert data.residuals["metric_ratio"] <= 1e-12


def test_double_point_product_detect_and_extract(double_point_product,
                                                 double_point_verdict):
    verdict, grid = double_point_verdict
    assert verdict.kind == "PairProduct", verdict.notes
    assert (verdict.spectrum.n2, verdict.spectrum.n3) == (2, 2)
    data = decompose.extract_pair_factors(double_point_product, verdict,
                                          grid)
    assert data.subspace2.shape[0] == 3
    assert data.subspace3.shape[0] == 3
    assert data.d1 == pytest.approx(1.0, abs=1e-8)
    assert data.d2 == pytest.approx(1.0, abs=1e-8)
    for key, value in data.residuals.items():
        assert value <= 1e-6, key


@pytest.mark.parametrize("product, verdict", [
    ("pair_product", "pair_verdict"),
    ("double_point_product", "double_point_verdict"),
])
def test_extract_computes_only_factor_frames(request, product, verdict):
    """With the grid frames cached, extraction computes the frames of
    each factor and nothing else, one per point of the factor grid: the
    rescaled factor's frames are mapped from them."""
    defn = request.getfixturevalue(product)
    verdict, grid = request.getfixturevalue(verdict)
    blaschke.clear_frame_cache()
    decompose.detect(defn, grid)
    warm = _frames_computed()
    data = decompose.extract_pair_factors(defn, verdict, grid)
    factor_frames = sum(len(decompose._factor_grid(defn, fac, grid))
                        for fac in data.factor_defs)
    assert _frames_computed() - warm == factor_frames


def test_array_forms_match_the_per_vector_loops(mixed_product, mixed_verdict):
    """_grid_fields, _d_phi and _cross_residual against per-point,
    per-vector loop references; the rows extraction reads are [T | V | W]."""
    verdict, grid = mixed_verdict
    s = verdict.spectrum
    lam2, lam3 = s.lambda2, s.lambda3
    frames = blaschke.frames_on_grid(mixed_product, grid)
    rows, lams, failure = decompose._track(frames, s, 1e-6, frames.u[0])
    assert failure is None
    f = decompose._grid_fields(frames, rows, s.n2)
    xs = np.concatenate([f.T[:, None], f.basis2, f.basis3], axis=1)
    assert np.array_equal(f.rows, xs) and np.array_equal(rows, xs)
    d2, d3, amb = decompose._d_phi(f, xs, lam2, lam3)
    n = frames[0].n
    for p, frame in enumerate(frames):
        # dT by implicit differentiation of K(T,T) = mu T, h(T,T) = 1 at
        # one point, in the parameters
        t, mu = f.T[p], lams[p, 0]
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = 2.0 * np.einsum("ijk,i->kj", frame.K, t) - mu * np.eye(n)
        jac[:n, n], jac[n, :n] = -t, 2.0 * frame.h @ t
        rhs = np.zeros((n + 1, n))
        for d in range(n):
            rhs[:n, d] = -sum(frame.dK[d, i, j] * f.T[p, i] * f.T[p, j]
                              for i in range(n) for j in range(n))
            rhs[n, d] = -sum(frame.dh[d, i, j] * f.T[p, i] * f.T[p, j]
                             for i in range(n) for j in range(n))
        assert np.allclose(f.dT[p], np.linalg.solve(jac, rhs)[:n].T,
                           rtol=0, atol=1e-13)
        for x, row2, row3, row_amb in zip(xs[p], d2[p], d3[p], amb[p]):
            ref_amb = x @ frame.tangent
            d_t = ((x @ f.dT[p]) @ frame.tangent
                   + sum(x[i] * f.T[p, k] * frame.second[i, k]
                         for i in range(n) for k in range(n)))
            assert np.allclose(row_amb, ref_amb, rtol=0, atol=1e-14)
            assert np.allclose(row2, -lam3 * ref_amb + d_t, rtol=0,
                               atol=1e-13)
            assert np.allclose(row3, lam2 * ref_amb - d_t, rtol=0,
                               atol=1e-13)
        cross = max(math.sqrt(max(k @ frame.h @ k, 0.0))
                    for v in f.basis2[p] for w in f.basis3[p]
                    for k in [np.einsum("ijk,i,j->k", frame.K, v, w)])
        # the bases in the h-orthonormal basis B of the point, B^-1 x
        y2, y3 = (np.linalg.solve(frame.basis, b.T).T
                  for b in (f.basis2[p], f.basis3[p]))
        assert decompose._cross_residual(frame.K_ortho, y2, y3) \
            == pytest.approx(cross, rel=0, abs=1e-15)


@pytest.mark.parametrize("case", ["mixed", "bent_pair", "bent_mixed", 0, 9])
def test_the_array_gate_agrees_with_gate_at_every_tracked_point(
        mixed_product, pair_product, double_point_product, case):
    """`_gate` classifies a row inside a stack exactly as it classifies the
    row alone: every field bit for bit, and the same first failing test and
    residual against the shape of `ref` with the tracker's orientation
    test. Every classified candidate of the base search serves as ref;
    every point is solved from T_ref and from -T_ref, whose point spectra
    flip back and whose pair spectra change shape, at tol 1e-6 and at the
    median of the rows' largest residuals, so that both outcomes occur. An
    integer case is the seed of a map of the n = 5 product."""
    if case == "mixed":
        defn, grid = mixed_product, make_grid(-0.2, 0.2, 2, 4)
    elif case == "bent_pair":
        defn, grid = _bent(pair_product), make_grid(-0.3, 0.3, 3, 3)
    elif case == "bent_mixed":
        defn, grid = _bent(mixed_product), make_grid(-0.2, 0.2, 3, 4)
    else:
        a = np.eye(5) + 0.3 * np.random.default_rng(case).standard_normal(
            (5, 5))
        defn = _linear_reparam(double_point_product, a)
        grid = make_grid(-0.1, 0.1, 2, 5)
    verdict = decompose.detect(defn, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    frames = blaschke.frames_on_grid(verdict.def_scaled, grid)
    frames = frames[np.tile(np.arange(len(grid)), 2)]
    base = decompose._axis_structures(verdict.def_scaled, grid[0], 32, 42)
    outcomes = set()
    for ref in np.flatnonzero(base.n2 > 0):
        shape = (base.n2[ref], base.n3[ref])
        t_ref = np.repeat([base.rows[ref, 0], -base.rows[ref, 0]], len(grid),
                          axis=0)
        y_ref = ((t_ref[:, None] @ frames.h) @ frames.basis)[:, 0]
        axes = decompose._solve_axis(frames, y_ref)
        solved = [p for p, axis in enumerate(axes) if axis is not None]
        # a row is returned only at |F| <= 1e-11, and the axis residual is
        # a part of F, so no residual test can drop a returned row
        assert all(axes[p].axis_residual <= 1e-11 for p in solved)
        stack = decompose._gate(frames[solved], [axes[p] for p in solved])
        alone = [decompose._gate(frames[[p]], [axes[p]]) for p in solved]
        for i, row in enumerate(alone):
            for name in stack._fields:
                assert (getattr(row, name)[0].tobytes()
                        == getattr(stack, name)[i].tobytes()), name
        for tol in (1e-6, float(np.median(np.max(stack.tests, axis=1)))):
            failed, resid = stack.failures(tol, shape, y_ref[solved])
            for i, (row, p) in enumerate(zip(alone, solved)):
                assert row.failures(tol, shape, y_ref[p:p + 1]) == (
                    failed[i], resid[i])
                outcomes.add(failed[i] == len(decompose.GATE_TESTS))
    assert outcomes == {True, False}


def test_the_array_gate_refuses_clusters_that_do_not_straddle_zero():
    """K_T with eigenvalues 0.5 and 2 beside the axis e0, h = id: two
    clusters at the cut of a (1, 1) pair, but both positive, so the
    spectrum is unclassified. At a tolerance of 1e3 the eigenvalue
    relations pass; the gate must still refuse it at the shape test."""
    K = np.zeros((3, 3, 3))
    K[0, 0, 0], K[0, 1, 1], K[1, 0, 1], K[1, 1, 0] = 0.3, 0.5, 0.5, 0.5
    K[0, 2, 2], K[2, 0, 2], K[2, 2, 0] = 2.0, 2.0, 2.0
    frames = SimpleNamespace(K=K[None], C=K[None], h=np.eye(3)[None],
                             basis=np.eye(3)[None], K_ortho=K[None],
                             u=np.zeros((1, 3)))
    axis = decompose.CandidateAxis(T=np.eye(3)[0], lambda1=0.3,
                                   axis_residual=0.0, y=np.eye(3)[0])
    gated = decompose._gate(frames, [axis])
    assert decompose._spectral_structure(gated, 0).pattern == "unclassified"
    (failed,), _resid = gated.failures(1e3, (1, 1))
    assert decompose.GATE_TESTS[failed] == "shape"
    assert gated.refusal(0, 1e3, (1, 1)) == (
        "axis spectrum is unclassified (0, 0), not pair (1, 1)")


def test_extract_solves_failed_rows_from_their_neighbours(pair_product,
                                                           pair_verdict,
                                                           monkeypatch):
    """Extraction follows the axis through the same tracker as detect, so
    the 13 rows whose Newton solve fails in the first round are solved in
    the second from their accepted neighbours, with no search."""
    verdict, grid = pair_verdict
    tracked = decompose.extract_pair_factors(pair_product, verdict, grid)
    sizes = _tracker_rounds(monkeypatch, grid[1::2], rounds=1)
    searches = _counted(monkeypatch, "find_axes")
    data = decompose.extract_pair_factors(pair_product, verdict, grid)
    assert searches == []
    assert sizes == [len(grid), 13]
    assert data.residuals.keys() == tracked.residuals.keys()
    for key, value in tracked.residuals.items():
        assert data.residuals[key] == pytest.approx(value, abs=1e-12), key
    assert np.allclose(data.phi2_samples, tracked.phi2_samples, atol=1e-12)
    assert np.allclose(data.phi3_samples, tracked.phi3_samples, atol=1e-12)
    assert data.metric_ratio == pytest.approx(tracked.metric_ratio,
                                              abs=1e-12)


def test_extract_makes_no_axis_search(pair_product, monkeypatch):
    """detect searches its base frame once; extraction reads the recorded
    axis and searches nothing."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    searches = []
    real = decompose.find_axes

    def counted(frame, restarts=32, seed=42):
        searches.append((restarts, seed))
        return real(frame, restarts=restarts, seed=seed)

    monkeypatch.setattr(decompose, "find_axes", counted)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, grid, restarts=16, seed=7)
    data = decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-12)
    assert searches == [(16, 7)]


def test_extract_requires_matching_kind(point_product, point_verdict):
    verdict, grid = point_verdict
    with pytest.raises(decompose.VerdictError):
        decompose.extract_pair_factors(point_product, verdict, grid)


def test_gauge_freedom_measured_and_harmless(hyperbola, hyperbola_b,
                                             pair_product):
    """The axis translation d1 = 2 is recovered exactly and leaves every
    structural residual unchanged, since the checks are homogeneous in
    the gauge."""
    c1, c2 = construct.base_coefficients("pair", 1, 1)
    gauged = dsl.build_scaled_embedding(
        [hyperbola, hyperbola_b],
        weights=[(2.0 * c1, 1.0), (0.5 * c2, -1.0)],
        axis_var="t", name="gauged", provenance=pair_product.provenance)
    grid = make_grid(-0.3, 0.3, 3, 3)
    verdict = decompose.detect(gauged, grid)
    assert verdict.kind == "PairProduct"
    data = decompose.extract_pair_factors(gauged, verdict, grid)
    assert data.d1 == pytest.approx(2.0, abs=1e-8)
    assert data.d2 == pytest.approx(0.5, abs=1e-8)
    assert data.residuals["gauge_consistency"] <= 1e-8

    base = decompose.extract_pair_factors(
        pair_product, decompose.detect(pair_product, grid), grid)
    for key in ("phi2_axis", "phi2_cokernel", "phi2_immersion",
                "phi3_axis", "phi3_cokernel", "phi3_immersion"):
        assert data.residuals[key] == pytest.approx(
            base.residuals[key], abs=1e-9)


def test_point_round_trip(point_product, point_verdict):
    """Rebuilding the product from the extracted factor reproduces the
    original immersion pointwise."""
    verdict, grid = point_verdict
    data = decompose.extract_point_factor(point_product, verdict, grid)
    factor = data.factor_defs[0]
    rebuilt = construct.calabi_point(factor)
    for u in [(0.0, 0.0), (0.2, -0.1), (-0.3, 0.25)]:
        left = dsl.eval_components(point_product, u)
        right = dsl.eval_components(rebuilt, u)
        assert np.allclose(left, right, atol=1e-6)


def test_pair_round_trip(pair_product, pair_verdict):
    verdict, grid = pair_verdict
    data = decompose.extract_pair_factors(pair_product, verdict, grid)
    f1, f2 = data.factor_defs
    rebuilt = construct.calabi_pair(f1, f2)
    for u in [(0.0, 0.0, 0.0), (0.1, -0.2, 0.3)]:
        left = dsl.eval_components(pair_product, u)
        right = dsl.eval_components(rebuilt, u)
        assert np.allclose(left, right, atol=1e-6)
