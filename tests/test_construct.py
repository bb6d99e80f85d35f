import math

import numpy as np
import pytest

from calabi import blaschke, checks, construct, dsl
from calabi.dsl import parse_immersion
from conftest import make_grid


def test_base_coefficients_pair():
    c1, c2 = construct.base_coefficients("pair", 1, 1)
    assert c1 == pytest.approx(1 / math.sqrt(2))
    assert c2 == pytest.approx(1 / math.sqrt(2))
    c1, c2 = construct.base_coefficients("pair", 1, 2)
    assert c1 == pytest.approx(math.sqrt(2.0 / 5.0))
    assert c2 == pytest.approx(math.sqrt(3.0 / 5.0))
    # the single displayed constant is the product of the block pair
    assert c1 * c2 == pytest.approx(math.sqrt(2 * 3) / 5)


def test_base_coefficients_point():
    # n = n1 + 1 total dimensions, second block zero-dimensional
    c1, c2 = construct.base_coefficients("point", 1)
    assert c1 == pytest.approx(math.sqrt(2.0 / 3.0))
    assert c2 == pytest.approx(math.sqrt(1.0 / 3.0))
    n = 2
    assert c1 * c2 == pytest.approx(math.sqrt(n) / (n + 1))


def test_point_product_shape(point_product, hyperbola):
    assert point_product.nvars == 2
    assert point_product.ncomponents == 3
    assert point_product.vars[0] == "t"
    prov = point_product.provenance
    assert prov.kind == "point"
    assert (prov.n2, prov.n3) == (1, 0)
    assert prov.factors == (hyperbola.name,)


def test_pair_product_is_unit_hyperbolic_sphere(pair_product):
    grid = make_grid(-0.3, 0.3, 3, 3)
    frames = blaschke.frames_on_grid(pair_product, grid)
    assert all(abs(fr.H + 1.0) <= 1e-7 for fr in frames)
    assert checks.sphere_residual(frames).passed
    assert checks.apolarity_residual(frames).max_residual <= 1e-8
    assert checks.unimodular_criterion(pair_product, grid).max_residual \
        <= 1e-8


def test_point_product_is_unit_hyperbolic_sphere(point_product):
    grid = make_grid(-0.3, 0.3, 3, 2)
    frames = blaschke.frames_on_grid(point_product, grid)
    assert all(abs(fr.H + 1.0) <= 1e-7 for fr in frames)
    assert checks.sphere_residual(frames).passed
    gc = checks.gauss_codazzi_residual(frames)
    assert gc["gauss"].max_residual <= 1e-6
    assert gc["codazzi"].max_residual <= 1e-6


def test_double_point_product_matches_exponential_chain(hyperbola):
    """Two nested point products give four exponential coordinates whose
    exponents are known in closed form, fixing every constant in the
    construction."""
    inner = construct.calabi_point(hyperbola)
    outer = construct.calabi_point(inner)
    assert outer.nvars == 3
    assert outer.ncomponents == 4
    grid = make_grid(-0.2, 0.2, 2, 3)
    frames = blaschke.frames_on_grid(outer, grid)
    assert all(abs(fr.H + 1.0) <= 1e-7 for fr in frames)
    # c2_outer * e^{-sqrt(3) t2} is the last coordinate
    c1o, c2o = construct.base_coefficients("point", 2)
    t2 = 0.17
    vals = dsl.eval_components(outer, (t2, 0.0, 0.0))
    assert vals[-1] == pytest.approx(c2o * math.exp(-math.sqrt(3) * t2),
                                     rel=1e-12)


def test_factor_gate_rejects_wrong_gauge():
    bad = parse_immersion(
        "immersion hyp { vars: s; components: (exp(s), exp(-s)); }")
    with pytest.raises(construct.FactorGaugeError, match="factor 'hyp' is not"):
        construct.calabi_point(bad)


def test_factor_gate_rejects_non_sphere(paraboloid):
    with pytest.raises(construct.FactorGaugeError,
                       match="factor 'paraboloid' is not an affine sphere "
                             "with H = -1 .* not hyperbolic"):
        construct.calabi_point(paraboloid)


@pytest.mark.parametrize("components", [
    "(0.7071067811865476*exp(s) + 0.3, 0.7071067811865476*exp(-s))",
    "(s, s*s + 0.0625)"])
def test_factor_gate_rejects_a_factor_off_the_origin(hyperbola, components):
    """The hyperbola moved off the origin is an affine sphere with H = -1,
    but xi = phi fails: no factor of a product. The parabola's position is
    tangent to it at s = -0.25, a corner of the gate."""
    moved = parse_immersion(f"immersion moved {{ vars: s; components: {components}; }}")
    with pytest.raises(construct.FactorGaugeError,
                       match="factor 'moved' is not an affine sphere"):
        construct.calabi_pair(hyperbola, moved)


def test_factor_gate_computes_no_frame(hyperbola, hyperbola_b):
    """The gate reads each factor's order-3 jets, not its frames."""
    misses = blaschke._full_frame_cached.cache_info().misses
    construct.calabi_point(hyperbola)
    construct.calabi_pair(hyperbola, hyperbola_b)
    assert blaschke._full_frame_cached.cache_info().misses == misses


def test_axis_variable_renamed_on_collision(hyperbola):
    taken = parse_immersion(
        "immersion t2 { vars: t; components: "
        "(0.7071067811865476*exp(t), 0.7071067811865476*exp(-t)); }")
    product = construct.calabi_point(taken)
    assert product.provenance.axis != "t"
    assert product.provenance.axis in product.vars


def test_predicted_spectrum_pair():
    pred = construct.predicted_spectrum("pair", 1, 1)
    assert pred.lambda1 == pytest.approx(0.0)
    assert pred.lambda2 == pytest.approx(1.0)
    assert pred.lambda3 == pytest.approx(-1.0)
    pred = construct.predicted_spectrum("pair", 1, 2)
    assert pred.lambda2 == pytest.approx(math.sqrt(3) / math.sqrt(2))
    assert pred.lambda3 == pytest.approx(-math.sqrt(2) / math.sqrt(3))
    # theorem relations hold for every block size
    for n2, n3 in [(1, 1), (1, 2), (2, 2), (3, 1)]:
        p = construct.predicted_spectrum("pair", n2, n3)
        assert 1 + p.lambda1 * p.lambda2 - p.lambda2 ** 2 \
            == pytest.approx(0.0, abs=1e-12)
        assert p.lambda1 + n2 * p.lambda2 + n3 * p.lambda3 \
            == pytest.approx(0.0, abs=1e-12)


def test_predicted_spectrum_point():
    pred = construct.predicted_spectrum("point", 1)
    assert pred.lambda1 == pytest.approx(-1 / math.sqrt(2))
    assert pred.lambda2 == pytest.approx(1 / math.sqrt(2))
    assert pred.lambda3 is None


def test_ode_identity_on_products(pair_product, mixed_product):
    grid3 = make_grid(-0.2, 0.2, 2, 3)
    report = construct.product_ode_identity(pair_product, grid3)
    assert report.max_residual <= 1e-9
    assert construct.ode_coefficient(pair_product) == pytest.approx(0.0)

    grid4 = make_grid(-0.2, 0.2, 2, 4)
    report = construct.product_ode_identity(mixed_product, grid4)
    assert report.max_residual <= 1e-9
    assert construct.ode_coefficient(mixed_product) == pytest.approx(
        1 / math.sqrt(6))


def test_ode_coefficient_point(point_product):
    # (n3 - n2)/sqrt((n2+1)(n3+1)) with n2 = 1, n3 = 0
    assert construct.ode_coefficient(point_product) == pytest.approx(
        -1 / math.sqrt(2))
    grid = make_grid(-0.3, 0.3, 3, 2)
    report = construct.product_ode_identity(point_product, grid)
    assert report.max_residual <= 1e-9


def test_ode_identity_requires_provenance(quadric):
    with pytest.raises(construct.ProvenanceError):
        construct.product_ode_identity(quadric, [(0.0, 0.0)])


def test_scaled_off_gauge_product_obeys_scaling_law(hyperbola, hyperbola_b):
    """Multiplying both blocks by a common c rescales H by the homothety
    exponent, pinning the normalization convention."""
    c1, c2 = construct.base_coefficients("pair", 1, 1)
    factor = 1.3
    off = dsl.build_scaled_embedding(
        [hyperbola, hyperbola_b],
        weights=[(factor * c1, 1.0), (factor * c2, -1.0)],
        axis_var="t", name="off_gauge")
    frame = blaschke.full_frame(off, (0.1, 0.2, -0.1))
    n = 3
    want = -(factor ** (-2.0 * (n + 1) / (n + 2)))
    assert frame.H == pytest.approx(want, rel=1e-10)
