import numpy as np
import pytest

from calabi import construct, dsl
from calabi.dsl import parse_immersion

INV_SQRT2 = 0.7071067811865476

HYPERBOLA_SRC = (
    "immersion h2 { vars: s; components: "
    "(0.7071067811865476*exp(s), 0.7071067811865476*exp(-s)); }"
)
HYPERBOLA_B_SRC = (
    "immersion h2b { vars: r; components: "
    "(0.7071067811865476*exp(r), 0.7071067811865476*exp(-r)); }"
)
QUADRIC_SRC = (
    "immersion quadric { vars: u1, u2; components: "
    "(u1, u2, sqrt(1 + u1*u1 + u2*u2)); }"
)
PARABOLOID_SRC = (
    "immersion paraboloid { vars: u1, u2; components: "
    "(u1, u2, 0.5*(u1*u1 + u2*u2)); }"
)


def make_grid(lo: float, hi: float, count: int, dims: int) -> np.ndarray:
    axis = np.linspace(lo, hi, count)
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


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


@pytest.fixture(scope="session")
def hyperbola():
    return parse_immersion(HYPERBOLA_SRC)


@pytest.fixture(scope="session")
def hyperbola_b():
    return parse_immersion(HYPERBOLA_B_SRC)


@pytest.fixture(scope="session")
def quadric():
    return parse_immersion(QUADRIC_SRC)


@pytest.fixture(scope="session")
def paraboloid():
    return parse_immersion(PARABOLOID_SRC)


@pytest.fixture(scope="session")
def pair_product(hyperbola, hyperbola_b):
    return construct.calabi_pair(hyperbola, hyperbola_b)


@pytest.fixture(scope="session")
def point_product(hyperbola):
    return construct.calabi_point(hyperbola)


@pytest.fixture(scope="session")
def mixed_product(hyperbola, hyperbola_b):
    inner = construct.calabi_point(hyperbola_b)
    return construct.calabi_pair(hyperbola, inner)
