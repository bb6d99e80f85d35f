import dataclasses
import gc
import math

import numpy as np
import pytest

from calabi import blaschke, construct, decompose, dsl, numerics
from calabi.dsl import parse_immersion
from conftest import make_grid


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
def double_point_verdict(double_point_product):
    grid = make_grid(-0.2, 0.2, 2, 5)
    return decompose.detect(double_point_product, grid), grid


# ---------------------------------------------------------------------------
# homothety


def test_normalize_homothety_closed_form(pair_product):
    defn = parse_immersion(
        "immersion hyp { vars: s; components: (exp(s), exp(-s)); }")
    result = decompose.normalize_homothety(defn)
    assert result.scale == pytest.approx(1 / math.sqrt(2), abs=1e-10)
    frame = blaschke.full_frame(result.def_scaled, (0.3,))
    assert frame.H == pytest.approx(-1.0, abs=1e-9)
    # c * phi at H = -1 must come back with scale 1/c to rounding
    for c in (1.7, 1e3, 1e6):
        scaled = decompose._scaled_def(pair_product, c)
        result = decompose.normalize_homothety(scaled)
        assert abs(result.scale * c - 1.0) <= 1e-13, c


def test_normalize_homothety_is_idempotent(pair_product):
    result = decompose.normalize_homothety(pair_product)
    assert result.scale == 1.0
    assert result.def_scaled is pair_product


def test_normalize_homothety_rejects_parabolic(paraboloid):
    with pytest.raises(decompose.NotHyperbolicError):
        decompose.normalize_homothety(paraboloid)


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
    """The sizes of the frame batches computed from now on."""
    sizes = []
    real = blaschke._frame_batch

    def wrapper(definition, points):
        sizes.append(len(points))
        return real(definition, points)

    monkeypatch.setattr(blaschke, "_frame_batch", wrapper)
    return sizes


def _failing_tracker(monkeypatch, row_at):
    """Make the tracker's solve fail at the row `row_at(rows)` returns,
    for the number of rows in the solve, or at every row for None. The
    tracker's solve is the one whose rows all start from the base axis;
    the restarts of a search do not."""
    real = decompose._solve_axis

    def solve(h, K, x0):
        axes = real(h, K, x0)
        if np.all(x0 == x0[0]):
            row = row_at(len(x0))
            axes = [None if row is None or r == row else axis
                    for r, axis in enumerate(axes)]
        return axes

    monkeypatch.setattr(decompose, "_solve_axis", solve)


def test_detect_searches_once_and_computes_each_frame_once(pair_product,
                                                           monkeypatch):
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, make_grid(-0.3, 0.3, 3, 3))
    assert verdict.kind == "PairProduct"
    assert len(searches) == 1
    assert _frames_computed() == 27


def test_normalize_homothety_computes_at_most_two_frames(pair_product):
    scaled = decompose._scaled_def(pair_product, 1.7)
    blaschke.clear_frame_cache()
    result = decompose.normalize_homothety(scaled)
    assert result.scale == pytest.approx(1 / 1.7, rel=1e-13)
    assert _frames_computed() <= 2


def test_detect_off_gauge_computes_each_grid_frame_once(pair_product,
                                                        monkeypatch):
    """One frame reads H at the first point, and one batch verifies the
    homothety there and computes the rescaled grid with it."""
    scaled = decompose._scaled_def(pair_product, 1.7)
    batches = _batches(monkeypatch)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(scaled, make_grid(-0.2, 0.2, 2, 3))
    assert verdict.kind == "PairProduct"
    assert _frames_computed() <= 9
    assert batches == [1, 8]


def test_detect_falls_back_to_search_when_tracking_fails(pair_product,
                                                         pair_verdict,
                                                         monkeypatch):
    tracked, grid = pair_verdict
    _failing_tracker(monkeypatch, lambda rows: None)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()   # the base search is not memoized yet
    verdict = decompose.detect(pair_product, grid)
    assert len(searches) == len(grid)
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
    trip. The 69 frames of the trip come in 10 batches: each homothety
    check shares its batch with the grid its caller reads next."""
    searches = _counted(monkeypatch, "find_axes")
    batches = _batches(monkeypatch)
    blaschke.clear_frame_cache()
    g25, g27 = make_grid(-0.3, 0.3, 5, 2), make_grid(-0.3, 0.3, 3, 3)
    v_point = decompose.detect(point_product, g25)
    decompose.extract_point_factor(v_point.def_scaled, v_point, g25)
    v_pair = decompose.detect(pair_product, g27)
    assert decompose.theorem3_gate(pair_product, g27).applies
    decompose.extract_pair_factors(v_pair.def_scaled, v_pair, g27)
    assert (len(batches), sum(batches), _frames_computed()) == (10, 69, 69)
    assert len(searches) == 2
    assert {id(args[0]) for args in searches} == {
        id(blaschke.full_frame(point_product, g25[0])),
        id(blaschke.full_frame(pair_product, g27[0]))}


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
    reaches the one stacked eigensolve of the tracked points, in every
    matrix whose metric is not the base point's."""
    grid = make_grid(-0.3, 0.3, 2, 3)
    blaschke.clear_frame_cache()
    base_h = blaschke.full_frame(pair_product, grid[0]).h
    real = numerics.solve_sym_eig_generalized

    def skewed(a, m):
        off_base = np.any(m != base_h, axis=(-2, -1))[..., None, None]
        return real(a + off_base * 1e-6 * np.triu(np.ones(a.shape[-2:]), 1),
                    m)

    monkeypatch.setattr(numerics, "solve_sym_eig_generalized", skewed)
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind is None
    (note,) = verdict.notes
    assert "asymmetry" in note
    assert blaschke.format_point(grid[1]) in note


def test_detect_with_a_tol_below_the_axis_residuals_gives_a_verdict(
        pair_product):
    """The search and its memo do not depend on tol; the callers compare
    each axis residual with it, so no candidate raises."""
    verdict = decompose.detect(pair_product, make_grid(-0.3, 0.3, 3, 3),
                               tol=1e-16)
    assert verdict.kind is None
    assert verdict.notes == (
        "no axis matches either product pattern within tolerance",)


def _altered_at(monkeypatch, point, **changes):
    """Classify as before, with `changes` made to the structure of every
    axis classified at the grid point `point`."""
    real = decompose._classify

    def classify(frames, axes):
        return [dataclasses.replace(s, **{
                    name: change(s) for name, change in changes.items()})
                if np.array_equal(u, point) else s
                for u, s in zip(frames.u, real(frames, axes))]

    monkeypatch.setattr(decompose, "_classify", classify)


def test_detect_tests_the_cross_block_at_every_tracked_point(pair_product,
                                                             monkeypatch):
    """A cross residual K(V,W) of 1e-3 at one tracked point refuses the
    product there, after the fallback search finds the same structure;
    the tracker once tested K(V,W) only at the base point."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    _altered_at(monkeypatch, grid[5], cross_residual=lambda s: 1e-3)
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind is None
    assert verdict.notes == (
        "cross residual K(V, W) 0.001 exceeds tolerance 1e-06 at grid "
        f"point {blaschke.format_point(grid[5])}",)


def test_drift_note_names_its_worst_point(pair_product, monkeypatch):
    """lambda2 moved by 1e-3 at one point, with the relation residuals
    left as they were, passes the gate there and fails the drift test."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    _altered_at(monkeypatch, grid[7], lambda2=lambda s: s.lambda2 + 1e-3)
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind is None
    assert verdict.notes == (
        "eigenvalues drift across the grid by 0.001 at grid point "
        f"{blaschke.format_point(grid[7])}",)


def test_an_empty_fallback_search_names_its_point(pair_product,
                                                  monkeypatch):
    grid = make_grid(-0.3, 0.3, 3, 3)
    decompose.detect(pair_product, grid)   # memoizes the base search
    _failing_tracker(monkeypatch, lambda rows: 3 - (len(grid) - rows))
    monkeypatch.setattr(decompose, "find_axes", lambda *args, **kw: [])
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind is None
    assert verdict.notes == (
        f"axis disappears at grid point {blaschke.format_point(grid[3])}",)


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

    def counted(a, m):
        solves.append(np.shape(a))
        return real(a, m)

    monkeypatch.setattr(numerics, "solve_sym_eig_generalized", counted)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind == "PairProduct"
    assert solves == [(7, 3, 3), (26, 3, 3)]
    solves.clear()
    decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert solves == [(27, 3, 3)]


@pytest.mark.parametrize("broken", [2, 5])
def test_a_solve_failing_inside_a_chain_searches_only_its_point(
        pair_product, pair_verdict, broken, monkeypatch):
    """When the tracked solve fails at one point in the middle of the grid,
    the other points are classified together, that point is searched in
    full and classified alone: each point is classified once."""
    tracked, grid = pair_verdict
    # detect tracks the grid past its base point, extraction all of it
    _failing_tracker(monkeypatch, lambda rows: broken - (len(grid) - rows))
    searches = _counted(monkeypatch, "find_axes")
    solves = []
    real_eig = numerics.solve_sym_eig_generalized

    def counted(a, m):
        solves.append(len(a))
        return real_eig(a, m)

    monkeypatch.setattr(numerics, "solve_sym_eig_generalized", counted)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind == "PairProduct"
    assert len(searches) == 2
    assert solves == [7, len(grid) - 2, 1]
    for attr in ("lambda1", "lambda2", "lambda3"):
        assert getattr(verdict.spectrum, attr) == getattr(
            tracked.spectrum, attr), attr
    assert verdict.constancy_residual == pytest.approx(
        tracked.constancy_residual, abs=1e-12)
    solves.clear()
    data = decompose.extract_pair_factors(verdict.def_scaled, verdict, grid)
    assert data.metric_ratio == pytest.approx(2.0, abs=1e-12)
    assert len(searches) == 3
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
        keys = [(round(c.lambda1, 7),) + tuple(np.round(c.T, 7))
                for c in axes]
        assert keys == sorted(keys)
    real = decompose._solve_axis
    monkeypatch.setattr(decompose, "_solve_axis", lambda h, K, x0: [
        real(h[r:r + 1], K[r:r + 1], x0[r:r + 1])[0] for r in range(len(x0))])
    for frame, reference in zip(frames, stacked):
        alone = decompose.find_axes(frame)
        assert len(alone) == len(reference) > 0
        for a, b in zip(alone, reference):
            assert abs(a.lambda1 - b.lambda1) <= 1e-13
            assert np.allclose(a.T, b.T, rtol=0, atol=1e-13)


def test_a_singular_jacobian_fails_only_its_own_row(pair_product):
    """The zero seed has an all-zero Jacobian, which makes a stacked
    np.linalg.solve raise for every row."""
    frame = blaschke.full_frame(pair_product, (0.1, -0.2, 0.15))
    seeds = np.array([[0.0, 0.0, 0.0], [0.6, 0.5, -0.2], [-0.1, 0.3, 0.8]])
    stacked = decompose._solve_axis(np.stack([frame.h] * 3),
                                    np.stack([frame.K] * 3), seeds)
    assert stacked[0] is None
    for seed, axis in zip(seeds[1:], stacked[1:]):
        (alone,) = decompose._solve_axis(frame.h[None], frame.K[None],
                                         seed[None])
        assert axis is not None and alone is not None
        assert np.array_equal(axis.T, alone.T)
        assert axis.lambda1 == alone.lambda1
        assert axis.axis_residual == alone.axis_residual


def test_a_solve_stopped_at_its_rounding_floor_is_kept(pair_product):
    """In coordinates u -> P u the axes are P^-1 T. With this P rounding
    leaves |F| above 1e-13 at some of them, where backtracking cannot
    reduce it; such a row has solved the system and is kept."""
    frame = blaschke.full_frame(pair_product, (0.1, -0.2, 0.15))
    axes = decompose.find_axes(frame)
    p = np.array([[1.0, 8.0, 0.0], [0.0, 1.0, 8.0], [0.0, 0.0, 1.0]])
    p_inv = np.linalg.inv(p)
    h = p.T @ frame.h @ p
    K = np.einsum("abk,ai,bj,ck->ijc", frame.K, p, p, p_inv)
    solved = decompose._solve_axis(
        np.stack([h] * len(axes)), np.stack([K] * len(axes)),
        np.stack([p_inv @ axis.T for axis in axes]))
    for axis, ref in zip(solved, axes):
        assert axis is not None
        assert np.allclose(p @ axis.T, ref.T, rtol=0, atol=1e-9)
        assert axis.lambda1 == pytest.approx(ref.lambda1, abs=1e-9)


def _linear_reparam(defn: dsl.ImmersionDef, a: np.ndarray):
    """The definition in coordinates u -> A u."""
    sub = {}
    for row, name in zip(a, defn.vars):
        term = None
        for coef, other in zip(row, defn.vars):
            piece = dsl.mul(dsl.const(float(coef)), dsl.var(other))
            term = piece if term is None else dsl.add(term, piece)
        sub[name] = term
    return dsl.ImmersionDef(
        name=f"{defn.name}_mapped", vars=defn.vars,
        components=tuple(dsl.substitute(c, sub) for c in defn.components))


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


def test_rounding_in_the_residuals_does_not_choose_the_structure(
        mixed_product, mixed_verdict, monkeypatch):
    """Equivalent structures have residuals equal up to rounding. Offsets
    of at most 1e-13, largest on the first structure `find_axes` returns,
    must not move the detected axis."""
    verdict, grid = mixed_verdict
    real = decompose._axis_structures

    def offset(*args):
        search, structures = real(*args)
        n = len(structures)
        return search, tuple(
            dataclasses.replace(s, cross_residual=s.cross_residual
                                + 1e-13 * (n - i) / n)
            for i, s in enumerate(structures))

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

    def skewed(a, m):
        return real(a + 1e-6 * np.triu(np.ones_like(a), 1), m)

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


def _bent(defn: dsl.ImmersionDef) -> dsl.ImmersionDef:
    """A nonlinear reparametrization u_i -> u_i + 0.3 u_j^2 + 0.2 u_j u_k
    (j = i + 1, k = i + 2 cyclically); it mixes the factor coordinates
    with each other and with the axis, and drops the provenance."""
    names = defn.vars
    sub = {}
    for i, name in enumerate(names):
        uj = dsl.var(names[(i + 1) % len(names)])
        uk = dsl.var(names[(i + 2) % len(names)])
        sub[name] = dsl.add(dsl.var(name), dsl.add(
            dsl.mul(dsl.const(0.3), dsl.mul(uj, uj)),
            dsl.mul(dsl.const(0.2), dsl.mul(uj, uk))))
    return dsl.ImmersionDef(
        name=f"{defn.name}_bent", vars=names,
        components=tuple(dsl.substitute(c, sub) for c in defn.components))


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
    at that point finds closest to the base axis."""
    bent = _bent(request.getfixturevalue(product))
    tracked = []
    real_track = decompose._track

    def spy(frames, ref, *args):
        structures, failure = real_track(frames, ref, *args)
        tracked.append((frames, ref, structures))
        return structures, failure

    monkeypatch.setattr(decompose, "_track", spy)
    searches = _counted(monkeypatch, "find_axes")
    blaschke.clear_frame_cache()
    verdict = decompose.detect(bent, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    decompose.extract_pair_factors(bent, verdict, grid)
    assert len(searches) == 1
    assert [len(frames) for frames, _ref, _s in tracked] == [
        len(grid) - 1, len(grid)]
    for frames, ref, structures in tracked:
        assert np.max(np.abs(structures[-1].axis.T - ref.axis.T)) > 0.1
        for p, structure in enumerate(structures):
            assert ((structure.pattern, structure.n2, structure.n3)
                    == (ref.pattern, ref.n2, ref.n3))
            search = decompose.find_axes(frames[p])
            cosines = [float(c.T @ frames.h[p] @ ref.axis.T) for c in search]
            best = int(np.argmax(np.abs(cosines)))
            aligned = np.sign(cosines[best]) * search[best].T
            assert np.max(np.abs(structure.axis.T - aligned)) <= 1e-12


@pytest.mark.parametrize("product, grid", [
    ("pair_product", make_grid(-0.3, 0.3, 3, 3)),
    ("mixed_product", make_grid(-0.2, 0.2, 3, 4)),
])
def test_search_fallback_on_a_bent_product_keeps_the_tracked_axes(
        request, product, grid, monkeypatch):
    """With every tracked solve failing, each point is searched in full
    and the candidate closest to the base axis in the metric of the point
    decides. In bent coordinates the largest Euclidean product with the
    base axis picked the point-structure axis at the base point of the
    pair product, and extraction failed with "axis spectrum changes shape
    across the grid"."""
    bent = _bent(request.getfixturevalue(product))
    verdict = decompose.detect(bent, grid)
    tracked = decompose.extract_pair_factors(bent, verdict, grid)
    _failing_tracker(monkeypatch, lambda rows: None)
    searches = _counted(monkeypatch, "find_axes")
    data = decompose.extract_pair_factors(bent, verdict, grid)
    assert len(searches) == len(grid)
    assert data.metric_ratio == pytest.approx(tracked.metric_ratio,
                                              abs=1e-12)
    assert np.allclose(data.phi2_samples, tracked.phi2_samples, atol=1e-12)
    assert np.allclose(data.phi3_samples, tracked.phi3_samples, atol=1e-12)


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
    each factor and nothing else: one reads H at the probe point, one
    verifies the homothety, and one per point of the factor grid."""
    defn = request.getfixturevalue(product)
    verdict, grid = request.getfixturevalue(verdict)
    blaschke.clear_frame_cache()
    decompose.detect(defn, grid)
    warm = _frames_computed()
    data = decompose.extract_pair_factors(defn, verdict, grid)
    factor_frames = sum(2 + len(decompose._factor_grid(defn, fac, grid))
                        for fac in data.factor_defs)
    assert _frames_computed() - warm == factor_frames


def test_array_forms_match_the_per_vector_loops(mixed_product, mixed_verdict):
    """_grid_fields, _d_phi and _cross_residual against per-point,
    per-vector loop references."""
    verdict, grid = mixed_verdict
    s = verdict.spectrum
    lam2, lam3 = s.lambda2, s.lambda3
    frames = blaschke.frames_on_grid(mixed_product, grid)
    structures, failure = decompose._track(frames, s, 1e-6, 32, 42)
    assert failure is None
    f = decompose._grid_fields(frames, structures)
    xs = np.concatenate([f.T[:, None], f.basis2, f.basis3], axis=1)
    d2, d3, amb = decompose._d_phi(f, xs, lam2, lam3)
    n = frames[0].n
    for p, frame in enumerate(frames):
        # dT by implicit differentiation of the axis system at one point
        _res, jac = decompose._axis_system(frame.h, frame.K, f.T[p],
                                           structures[p].lambda1)
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
        assert decompose._cross_residual(frame.K, frame.h, f.basis2[p],
                                         f.basis3[p]) \
            == pytest.approx(cross, rel=0, abs=1e-15)


def test_extract_falls_back_to_search_when_tracking_fails(pair_product,
                                                          pair_verdict,
                                                          monkeypatch):
    """Extraction follows the axis through the same tracker as detect,
    so a point where the Newton solve fails is searched in full."""
    verdict, grid = pair_verdict
    tracked = decompose.extract_pair_factors(pair_product, verdict, grid)
    _failing_tracker(monkeypatch, lambda rows: None)
    searches = _counted(monkeypatch, "find_axes")
    data = decompose.extract_pair_factors(pair_product, verdict, grid)
    assert len(searches) == len(grid)
    assert data.residuals.keys() == tracked.residuals.keys()
    for key, value in tracked.residuals.items():
        assert data.residuals[key] == pytest.approx(value, abs=1e-12), key
    assert np.allclose(data.phi2_samples, tracked.phi2_samples, atol=1e-12)
    assert np.allclose(data.phi3_samples, tracked.phi3_samples, atol=1e-12)
    assert data.metric_ratio == pytest.approx(tracked.metric_ratio,
                                              abs=1e-12)


def test_extract_searches_with_the_verdict_settings(pair_product,
                                                    monkeypatch):
    """detect and extraction share one base search, made with the
    restarts and seed the verdict was found with."""
    grid = make_grid(-0.3, 0.3, 3, 3)
    searches = []
    real = decompose.find_axes

    def counted(frame, restarts=32, seed=42):
        searches.append((restarts, seed))
        return real(frame, restarts=restarts, seed=seed)

    monkeypatch.setattr(decompose, "find_axes", counted)
    blaschke.clear_frame_cache()
    verdict = decompose.detect(pair_product, grid, restarts=16, seed=7)
    assert (verdict.restarts, verdict.seed) == (16, 7)
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
