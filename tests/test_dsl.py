import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from calabi import dsl
from calabi.dsl import (ImmersionSyntaxError, ImmersionValidationError,
                        parse_immersion, parse_program, print_immersion)


def test_round_trip_is_stable():
    source = "immersion anon { vars: u; components: ((u*u)); }"
    first = print_immersion(parse_immersion(source))
    second = print_immersion(parse_immersion(first))
    assert first == second == source


def test_round_trip_all_functions():
    source = (
        "immersion f { vars: u, v; components: "
        "(exp(u), log(1 + u*u), sqrt(1 + v*v), sin(u)*cos(v), "
        "sinh(u) + cosh(v), (u + v)^1.5); }"
    )
    defn = parse_immersion(source)
    again = parse_immersion(print_immersion(defn))
    assert print_immersion(again) == print_immersion(defn)
    pt = (0.3, -0.2)
    assert dsl.eval_components(defn, pt) == pytest.approx(
        dsl.eval_components(again, pt), abs=0.0)


def test_eval_matches_direct_arithmetic():
    defn = parse_immersion(
        "immersion g { vars: u, v; components: "
        "(u*exp(v) - 3/(1 + u*u), sqrt(4 + sin(u*v))); }")
    u, v = 0.37, -0.81
    want0 = u * math.exp(v) - 3 / (1 + u * u)
    want1 = math.sqrt(4 + math.sin(u * v))
    got = dsl.eval_components(defn, (u, v))
    assert got[0] == pytest.approx(want0, abs=1e-14)
    assert got[1] == pytest.approx(want1, abs=1e-14)


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ImmersionSyntaxError) as err:
        parse_immersion("immersion x { vars: u;\n components: (u*) ; }")
    assert "line 2" in str(err.value)
    assert "column" in str(err.value)


def test_undeclared_variable_rejected():
    with pytest.raises(ImmersionValidationError) as err:
        parse_immersion("immersion x { vars: u; components: (v); }")
    assert "undeclared" in str(err.value)
    assert "'v'" in str(err.value)


@pytest.mark.parametrize("component", ["exp(s)^1e999", "exp(s)*1e999",
                                       "exp(s)*(-1e999)"])
def test_parser_refuses_a_non_finite_constant(component):
    """1e999 reads as inf: the exponent of the first form crashed the jet
    power with an OverflowError, the factor of the second made the
    tangent map degenerate."""
    with pytest.raises(ImmersionValidationError, match="non-finite"):
        parse_immersion(f"immersion x {{ vars: s; components: "
                        f"({component}, exp(-s)); }}")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_definition_refuses_a_non_finite_constant(value):
    s = dsl.var("s")
    for comp in (dsl.const(value), dsl.mul(dsl.const(value), s),
                 dsl.Apply("^", (dsl.call("exp", s), dsl.const(value)))):
        with pytest.raises(ImmersionValidationError, match="non-finite"):
            dsl.ImmersionDef(name="x", vars=("s",),
                             components=(comp, dsl.call("exp", s)))


def test_program_with_multiple_definitions():
    source = (
        "immersion a { vars: u; components: (u, u*u); }\n"
        "immersion b { vars: w; components: (exp(w), exp(-w)); }\n"
    )
    defs = parse_program(source)
    assert [d.name for d in defs] == ["a", "b"]
    assert defs[1].vars == ("w",)


def test_provenance_comment_round_trip():
    from calabi.construct import calabi_point
    h2 = parse_immersion(
        "immersion h2 { vars: s; components: "
        "(0.7071067811865476*exp(s), 0.7071067811865476*exp(-s)); }")
    product = calabi_point(h2)
    text = print_immersion(product)
    assert text.startswith("#@product(")
    again = parse_immersion(text)
    assert again.provenance == product.provenance
    assert again.provenance.kind == "point"
    assert again.provenance.axis == "t"


def test_builders_match_parsed_forms():
    built = dsl.mul(dsl.add(dsl.var("u"), dsl.const(2.0)),
                    dsl.call("exp", dsl.neg(dsl.var("u"))))
    parsed = dsl.parse_immersion(
        "immersion b { vars: u; components: ((u + 2) * exp(-u)); }")
    for x in (-0.7, 0.0, 1.3):
        assert dsl.eval_expr(built, {"u": x}) == pytest.approx(
            dsl.eval_expr(parsed.components[0], {"u": x}), abs=1e-15)
    # neg is the one folding builder: negating a literal stays a literal
    assert isinstance(dsl.neg(dsl.const(2.0)), dsl.Constant)
    assert dsl.neg(dsl.const(2.0)).value == -2.0


def test_substitute_replaces_variables():
    e = dsl.mul(dsl.var("t"), dsl.add(dsl.var("u"), dsl.const(1.0)))
    swapped = dsl.substitute(e, {"t": dsl.const(0.0)})
    env = {"u": 5.0}
    assert dsl.eval_expr(swapped, env) == 0.0


_leaf = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
              allow_infinity=False).map(dsl.const),
    st.sampled_from(["u", "v"]).map(dsl.var),
)


def _exprs(depth: int):
    """Trees over every operator and function: + - * /, ^ with a constant
    exponent, unary minus and the seven functions."""
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    exponent = st.floats(min_value=-3.0, max_value=3.0).map(dsl.const)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: dsl.Apply(t[0], t[1:])),
        st.tuples(sub, exponent).map(lambda t: dsl.Apply("^", t)),
        sub.map(dsl.neg),
        st.tuples(st.sampled_from(dsl.FUNCTIONS), sub).map(
            lambda t: dsl.call(*t)),
    )


@settings(max_examples=150, deadline=None)
@given(_exprs(3), st.floats(min_value=-1, max_value=1, allow_nan=False),
       st.floats(min_value=-1, max_value=1, allow_nan=False))
def test_printed_expression_evaluates_identically(expr, u, v):
    """Printing and reparsing an AST gives the same tree and never changes
    its value. Draws whose value raises or is not a finite float are
    skipped."""
    defn = dsl.ImmersionDef(name="p", vars=("u", "v"),
                            components=(expr, dsl.add(dsl.var("u"),
                                                      dsl.var("v"))))
    try:
        left = dsl.eval_components(defn, (u, v))
    except (ArithmeticError, TypeError, ValueError):
        assume(False)
    assume(all(isinstance(x, float) and math.isfinite(x) for x in left))
    again = parse_immersion(print_immersion(defn))
    assert again == defn
    assert dsl.eval_components(again, (u, v)) == left
