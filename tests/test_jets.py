import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calabi import blaschke, construct, dsl, jets
from calabi.jets import (_ELEMENTARY, Jet, JetDomainError, _real_pow, _space,
                         eval_jets, jet_exp, jet_log, jet_sqrt, matmul, mul)
from conftest import _bent, _linear_reparam, make_grid


def test_product_rule_second_order():
    # d2/du2 of u^2 * e^u at u = 0.5, against the closed form
    u = Jet.variable(0.5, 0, nvars=1, order=4)
    f = u * u * jet_exp(u)
    want = math.exp(0.5) * (0.25 + 4 * 0.5 + 2)
    assert f.partial((2,)) == pytest.approx(want, rel=1e-14)


def test_mixed_partials_commute():
    u = Jet.variable(0.3, 0, nvars=2, order=4)
    v = Jet.variable(-0.7, 1, nvars=2, order=4)
    f = jet_exp(u * v) * jet_sqrt(1 + u * u + v * v)
    assert f.deriv(0).deriv(1).value == pytest.approx(
        f.deriv(1).deriv(0).value, rel=1e-13)


def test_log_exp_inverse():
    u = Jet.variable(0.4, 0, nvars=1, order=4)
    f = jet_log(jet_exp(u))
    assert f.value == pytest.approx(0.4, abs=1e-14)
    assert f.partial((1,)) == pytest.approx(1.0, abs=1e-13)
    assert f.partial((2,)) == pytest.approx(0.0, abs=1e-12)


def test_division_by_zero_value_rejected():
    from calabi.jets import JetDomainError
    u = Jet.variable(0.0, 0, nvars=1, order=3)
    with pytest.raises(JetDomainError):
        _ = 1.0 / u


def test_power_matches_repeated_product():
    u = Jet.variable(1.3, 0, nvars=1, order=4)
    f = (1 + u * u) ** 3
    g = (1 + u * u) * (1 + u * u) * (1 + u * u)
    assert np.allclose(f.c, g.c, rtol=1e-13)


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_a_non_finite_exponent_is_a_domain_error(p):
    """int(p) of a non-finite float raised OverflowError or ValueError."""
    with pytest.raises(JetDomainError, match="non-finite exponent"):
        Jet.variable(0.5, 0, 1, 4) ** p


def test_finite_float_exponents_keep_their_values():
    """The finiteness test changes no result: 2.0 is still an integer
    power and 0.5 a real one, bit for bit."""
    u = Jet.variable(0.5, 0, 1, 4)
    assert np.array_equal((u ** 2.0).c, (u ** 2).c)
    assert np.array_equal((u ** 0.5).c, _real_pow(u, 0.5).c)


def _finite_difference(defn, point, comp_idx, var_idx, step=1e-5):
    shift = list(point)
    shift[var_idx] += step
    plus = dsl.eval_components(defn, shift)[comp_idx]
    shift[var_idx] -= 2 * step
    minus = dsl.eval_components(defn, shift)[comp_idx]
    return (plus - minus) / (2 * step)


def test_first_derivatives_match_central_differences():
    """Jet gradients agree with a finite-difference oracle on random
    expressions.

    Expressions are rebuilt from a fixed seed so failures are
    reproducible; relative tolerance 1e-5 matches the truncation error
    of the symmetric difference."""
    rng = np.random.default_rng(2024)
    fns = ["exp", "sin", "cos", "sinh", "cosh"]
    checked = 0
    while checked < 50:
        a, b, c = rng.uniform(-1.5, 1.5, size=3)
        fn = fns[rng.integers(0, len(fns))]
        u, v = dsl.var("u"), dsl.var("v")
        expr = dsl.add(
            dsl.mul(dsl.const(a), dsl.call(fn, dsl.mul(u, v))),
            dsl.mul(dsl.const(b), dsl.mul(u, dsl.add(v, dsl.const(c)))),
        )
        defn = dsl.ImmersionDef(name="r", vars=("u", "v"),
                                components=(expr,))
        point = tuple(rng.uniform(-0.8, 0.8, size=2))
        jets = eval_jets(defn, point, order=2)
        for var_idx in range(2):
            alpha = tuple(1 if i == var_idx else 0 for i in range(2))
            exact = jets[0].partial(alpha)
            approx = _finite_difference(defn, point, 0, var_idx)
            scale = max(1.0, abs(exact))
            assert abs(exact - approx) <= 1e-5 * scale
        checked += 1


# ---------------------------------------------------------------------------
# batched jets: every point of a batch equals the one-point computation

_BATCHED_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "rdiv": lambda a, b: 2.5 / b,
    "scalar": lambda a, b: 1.5 - 0.5 * a + a * 3,
    "int_pow": lambda a, b: a ** 3,
    "neg_pow": lambda a, b: b ** -2,
    "real_pow": lambda a, b: b ** 1.5,
    **{fn: (lambda a, b, impl=impl: impl(b)) for fn, impl in _ELEMENTARY.items()},
}


@settings(max_examples=60, deadline=None)
@given(nvars=st.integers(1, 4), order=st.integers(0, 4),
       points=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_batched_jets_match_one_point_jets(nvars, order, points, seed):
    rng = np.random.default_rng(seed)
    sp = _space(nvars, order)
    ca = rng.uniform(-1.0, 1.0, size=(points, sp.size))
    cb = rng.uniform(-1.0, 1.0, size=(points, sp.size))
    cb[:, 0] = rng.uniform(0.5, 2.0, size=points)   # inside every domain
    for name, op in _BATCHED_OPS.items():
        batched = op(Jet(sp, ca), Jet(sp, cb))
        assert batched.c.shape == (points, sp.size), name
        for p in range(points):
            single = op(Jet(sp, ca[p]), Jet(sp, cb[p]))
            scale = max(1.0, float(np.max(np.abs(single.c))))
            np.testing.assert_allclose(batched.c[p], single.c, rtol=0.0,
                                       atol=1e-13 * scale, err_msg=name)


def test_batched_eval_jets_match_one_point_eval():
    defn = dsl.parse_immersion(
        "immersion e { vars: u, v; components: "
        "(u * exp(v), sqrt(1 + u*u) / (2 + v), log(3 + u*v) + sin(u) * v^2); }")
    pts = np.array([[0.1, -0.2], [0.4, 0.3], [-0.5, 0.7]])
    batched = eval_jets(defn, pts, order=4)
    for p, point in enumerate(pts):
        for jb, js in zip(batched, eval_jets(defn, tuple(point), order=4)):
            np.testing.assert_allclose(jb.c[p], js.c, rtol=1e-13, atol=1e-15)


def test_batched_domain_error_names_the_first_bad_point():
    defn = dsl.parse_immersion(
        "immersion lg { vars: u; components: (u, log(u)); }")
    with pytest.raises(JetDomainError, match="-0.5"):
        eval_jets(defn, np.array([[0.2], [-0.5], [-0.7]]), order=2)


def test_a_domain_error_over_some_variables_names_the_first_bad_point():
    """log(v) is taken in the space of v alone, before u joins it."""
    defn = dsl.parse_immersion(
        "immersion lg2 { vars: u, v; components: (u, v, u * log(v)); }")
    with pytest.raises(JetDomainError, match=r"log of nonpositive value -0\.5$"):
        eval_jets(defn, np.array([[0.1, 0.2], [0.3, -0.5], [-0.4, -0.7]]), 2)


# ---------------------------------------------------------------------------
# jets over their own variables: the same coefficients as the full space


_EVERY_OPERATION = (
    "immersion every { vars: u, v, w; components: ("
    "exp(u) * sin(v) * (u + w) - cosh(u) / (2 + v^2), "
    "sqrt(1 + u*u) + log(2 + w) * cos(u*v) - sinh(-w), "
    "(1.5 + v)^-2 + (2 - w)^1.5 * u^3 - v / (3 + u*w), "
    "cos(0.3) * 2 - exp(1)); }")


def _products(request):
    hyperbola = request.getfixturevalue("hyperbola")
    hyperbola_b = request.getfixturevalue("hyperbola_b")
    double_point = construct.calabi_pair(construct.calabi_point(hyperbola),
                                         construct.calabi_point(hyperbola_b))
    return {"point": request.getfixturevalue("point_product"),
            "pair": request.getfixturevalue("pair_product"),
            "mixed": request.getfixturevalue("mixed_product"),
            "double_point": double_point}


@pytest.mark.parametrize("name", [
    f"{product}{form}" for form in ("", "_bent")
    for product in ("point", "pair", "mixed", "double_point")]
    + ["pair_linear", "every_operation"])
def test_component_jets_equal_the_full_space_evaluation(request, name):
    """Each component, evaluated subexpression by subexpression over the
    variables it holds, has bit for bit the coefficients of the same
    expression evaluated over all n variables: products, their bent
    forms (products and sums over overlapping variables), a product
    under a linear map, and a definition with every operator and
    function and a component without variables."""
    if name == "every_operation":
        defn = dsl.parse_immersion(_EVERY_OPERATION)
    elif name == "pair_linear":
        a = np.array([[1.0, 0.3, -0.2], [0.1, 0.9, 0.4], [-0.3, 0.2, 1.1]])
        defn = _linear_reparam(request.getfixturevalue("pair_product"), a)
    else:
        defn = _products(request)[name.removesuffix("_bent")]
        defn = _bent(defn) if name.endswith("_bent") else defn
    n = defn.nvars
    points = np.random.default_rng(n).uniform(-0.3, 0.3, (7, n))
    env = {v: Jet.variable(points[:, i], i, n, 4)
           for i, v in enumerate(defn.vars)}
    want = np.stack([np.broadcast_to(
        (c if isinstance(c, Jet) else Jet.constant(c, n, 4)).c,
        (len(points), math.comb(n + 4, 4)))
        for c in (dsl.eval_expr(comp, env) for comp in defn.components)], 1)
    assert np.array_equal(blaschke._component_jets(defn, points, 4), want)


def test_the_pair_product_composes_in_one_variable_and_multiplies_in_two(
        pair_product, monkeypatch):
    """c1 e^(a t) psi1(s) holds no subexpression of all three variables:
    every exp composes in the space of t, of s or of r alone, and every
    product of jets is taken in a space of at most two variables."""
    composed, products = [], []
    real_compose, real_mul = jets._compose, Jet.__mul__

    def compose(a, series):
        composed.append(a.vars)
        return real_compose(a, series)

    def product(self, other):
        out = real_mul(self, other)
        if isinstance(other, Jet):
            products.append(out.vars)
        return out

    monkeypatch.setattr(jets, "_compose", compose)
    monkeypatch.setattr(Jet, "__mul__", product)
    comps = eval_jets(pair_product, make_grid(-0.3, 0.3, 3, 3), 4)
    assert all(c.vars == (0, 1, 2) for c in comps)
    assert sorted(set(composed)) == [(0,), (1,), (2,)]
    assert sorted(set(products)) == [(0, 1), (0, 2)]


def test_jets_of_different_variable_counts_meet_in_their_union():
    """A jet made with nvars variables is a function of x_0 ... x_{nvars-1}:
    one of 2 variables and one of 3 combine in the space of 3, where the
    first is constant in x_2, bit for bit as if both were made there."""
    u = Jet.variable(2.0, 1, 2, 3)
    w = Jet.variable(3.0, 2, 3, 3)
    got = u * w + u
    u3 = Jet.variable(2.0, 1, 3, 3)
    want = u3 * w + u3
    assert got.vars == (0, 1, 2) and got.nvars == 3
    assert np.array_equal(got.c, want.c)
    assert got.partial((0, 1, 1)) == 1.0 and got.value == 8.0


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("shapes", [
    ((4, 2, 3), (4, 3, 2)),      # a stack of 4 products (2 x 3)(3 x 2)
    ((1, 1, 1), (1, 1, 1)),
    ((3, 1, 4), (1, 4, 3)),      # leading axes broadcast
    ((2, 5, 2, 1), (2, 5, 1, 4)),
])
@pytest.mark.parametrize("orders", [(4, 4), (2, 4), (3, 1)])
def test_matmul_is_the_sum_of_jet_products(nvars, shapes, orders):
    """matmul(a, b)[..., i, j, :] = sum_k mul(a[..., i, k, :],
    b[..., k, j, :]), at the lower of the two orders, on stacks of jet
    matrices with the coefficient axis last."""
    rng = np.random.default_rng(nvars)
    a, b = (rng.standard_normal(shape + (math.comb(nvars + r, r),))
            for shape, r in zip(shapes, orders))
    got = matmul(a, b, nvars)
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    size = min(a.shape[-1], b.shape[-1])
    want = np.zeros(lead + (a.shape[-3], b.shape[-2], size))
    for i in range(a.shape[-3]):
        for j in range(b.shape[-2]):
            for k in range(a.shape[-2]):
                want[..., i, j, :] += mul(a[..., i, k, :], b[..., k, j, :],
                                          nvars)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
