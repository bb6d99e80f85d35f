"""Truncated multivariate Taylor (jet) arithmetic over batches of points.

A jet stores the Taylor coefficients c_alpha = (d^alpha f / alpha!) of a
scalar function at a point, for all multi-indices |alpha| <= order, in
graded lexicographic order: the coefficients of every lower order form a
prefix, so truncation is a slice and an array's order follows from its
size. Orders up to 4 and up to 8 variables are supported, which is what
the Blaschke pipeline needs (shape operator and curvature at order 4).

Coefficient arrays carry leading batch axes, shape (..., size): one array
holds a function, or a matrix of functions, at many points, and every
operation acts on all of them at once; the frame pipeline keeps jet
matrices as (points, rows, cols, size). `Jet` wraps such an array for the
operator syntax of `dsl.eval_expr`; `value` and `partial` read one point.

Arithmetic is exact truncation: the product of jets of orders r and s is
the truncated Cauchy product at order min(r, s), one gather through the
`mul_a`/`mul_b` tables and one segmented sum per output coefficient over
the whole batch. `matmul` gathers the terms of a product of jet matrices
from views with the coefficient axis first, (size, ..., rows, cols), so
one stacked matrix product covers every term, and returns such a view;
no call moves an axis of the data. Elementary functions compose the
univariate Taylor series of the function at each point's constant term,
an array (..., order+1), with the zero-constant part of the jet (Horner
form, which is exact for truncated series).

A `Jet` is a function of its `vars`, increasing variable indices, in the
space of that many variables (A. Griewank and A. Walther, Evaluating
Derivatives, SIAM 2008, ch. 7 and 13): `eval_jets` seeds x_i over (i,),
so exp(s) composes in one variable, and places each component among all
variables at the end. Operands over other variables meet in the space of
their union; a product over disjoint ones, c e^(a t) psi(s), is one term
per coefficient. Each coefficient sums the full space's terms in order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement

import numpy as np

MAX_ORDER = 4
MAX_NVARS = 8

_SPACES: dict[tuple[int, int], "_JetSpace"] = {}   # keyed by (nvars, size)
_FACTORIAL = np.array([1.0, 1.0, 2.0, 6.0, 24.0])   # k! for k <= MAX_ORDER
_SCALARS = (int, float, np.floating, np.integer)


def _multi_indices(nvars: int, order: int) -> list[tuple[int, ...]]:
    """Multi-indices of degree <= order, by degree, each degree sorted."""
    return [alpha for deg in range(order + 1) for alpha in sorted(
        {tuple(map(combo.count, range(nvars)))
         for combo in combinations_with_replacement(range(nvars), deg)})]


class _JetSpace:
    """Shared index tables for all jets with the same (nvars, order)."""

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        self.indices = _multi_indices(nvars, order)
        self.size = len(self.indices)
        self.pos = {alpha: k for k, alpha in enumerate(self.indices)}
        # the Cauchy product's terms (output, a, b), sorted by output
        out, self.mul_a, self.mul_b = np.array(sorted(
            (self.pos[tuple(map(sum, zip(ap, aq)))], p, q)
            for p, ap in enumerate(self.indices) for q, aq in enumerate(self.indices)
            if sum(ap) + sum(aq) <= order)).T.copy()
        self.mul_starts = np.searchsorted(out, np.arange(self.size))
        # d/dx_i maps the parent space onto the order-1 lower prefix:
        # grad_src[i] are the source coefficients, grad_fac[i] the factors
        lower = [a for a in self.indices if sum(a) <= order - 1]
        self.grad_src = np.array([[self.pos[a[:i] + (a[i] + 1,) + a[i + 1:]]
                                   for a in lower] for i in range(nvars)], dtype=int)
        self.grad_fac = np.array([[a[i] + 1.0 for a in lower] for i in range(nvars)])


def _space(nvars: int, order: int) -> _JetSpace:
    if not 1 <= nvars <= MAX_NVARS:
        raise ValueError(f"nvars must be in 1..{MAX_NVARS}, got {nvars}")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
    return space_of(nvars, math.comb(nvars + order, order))


def space_of(nvars: int, size: int) -> _JetSpace:
    """The jet space of coefficient arrays with `size` coefficients."""
    sp = _SPACES.get((nvars, size))
    if sp is None:
        order = next(r for r in range(MAX_ORDER + 1)
                     if math.comb(nvars + r, r) == size)
        sp = _SPACES[(nvars, size)] = _JetSpace(nvars, order)
    return sp


@lru_cache(maxsize=None)
def _union(va: tuple, vb: tuple, order: int):
    """The union of the variables va and vb, its space at `order` and, for
    each of va and vb, where its coefficients sit there and, for every
    coefficient there, the index of its restriction to those variables."""
    vars = tuple(sorted({*va, *vb}))
    sp, tables = _space(len(vars), order), []
    for sub in (va, vb):
        slots, pos = [vars.index(v) for v in sub], _space(len(sub), order).pos
        tables += [np.flatnonzero([sum(a) == sum(a[k] for k in slots)
                                   for a in sp.indices]),
                   np.array([pos[tuple(a[k] for k in slots)] for a in sp.indices])]
    return (vars, sp, *tables)


# --- coefficient-array operations (batched) --------------------------------


def mul(a: np.ndarray, b: np.ndarray, nvars: int) -> np.ndarray:
    """Truncated Cauchy product of coefficient arrays, broadcast over
    their leading axes, at the lower of the two orders."""
    sp = space_of(nvars, min(a.shape[-1], b.shape[-1]))
    return np.add.reduceat(a.take(sp.mul_a, -1) * b.take(sp.mul_b, -1),
                           sp.mul_starts, axis=-1)


def matmul(a: np.ndarray, b: np.ndarray, nvars: int) -> np.ndarray:
    """Product of jet matrices (..., r, k, size) @ (..., k, c, size) with
    as many leading axes: one stacked matrix product over the terms of the
    Cauchy product, summed by term; a view of an array (size, ..., r, c)."""
    sp = space_of(nvars, min(a.shape[-1], b.shape[-1]))
    terms = (a.transpose(-1, *range(a.ndim - 1)).take(sp.mul_a, 0)
             @ b.transpose(-1, *range(b.ndim - 1)).take(sp.mul_b, 0))
    out = np.add.reduceat(terms, sp.mul_starts, axis=0)
    return out.transpose(*range(1, out.ndim), 0)


def grad(a: np.ndarray, nvars: int) -> np.ndarray:
    """All first partials, one order lower: (..., size) -> (..., nvars, size')."""
    sp = space_of(nvars, a.shape[-1])
    if sp.order == 0:
        raise ValueError("cannot differentiate an order-0 jet")
    return a[..., sp.grad_src] * sp.grad_fac


def grad0(a: np.ndarray, nvars: int) -> np.ndarray:
    """The first partials at the point, grad(a)[..., 0]: (..., nvars)."""
    return a.take(space_of(nvars, a.shape[-1]).grad_src[:, 0], -1)


class JetDomainError(ArithmeticError):
    """Elementary function applied outside its domain (log of a
    nonpositive value, fractional power at a nonpositive base, division
    by a jet whose value vanishes)."""


def _positive(a: "Jet", what: str) -> np.ndarray:
    """The values of a; raise for the first point where one is not > 0."""
    a0 = a.c[..., :1]
    if (a0 <= 0.0).any():
        raise JetDomainError(f"{what} {float(a0[a0 <= 0.0][0])!r}")
    return a0


class Jet:
    __slots__ = ("space", "c", "vars")

    def __init__(self, space: _JetSpace, coeffs: np.ndarray, vars=None):
        self.space = space
        self.c = coeffs
        self.vars = tuple(range(space.nvars)) if vars is None else vars

    # construction ---------------------------------------------------

    @staticmethod
    def constant(value, nvars: int, order: int) -> "Jet":
        sp = _space(nvars, order)
        c = np.zeros(np.shape(value) + (sp.size,))
        c[..., 0] = value
        return Jet(sp, c)

    @staticmethod
    def variable(value, index: int, nvars: int, order: int) -> "Jet":
        """The coordinate x_index at `value` (a float or an array of
        values, one per point of the batch)."""
        jet = Jet.constant(value, nvars, order)
        if order >= 1:
            e = tuple(1 if k == index else 0 for k in range(nvars))
            jet.c[..., jet.space.pos[e]] = 1.0
        return jet

    # inspection -----------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.space.nvars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self) -> float:
        return float(self.c[..., 0])

    def partial(self, alpha: tuple[int, ...]) -> float:
        """Partial derivative d^alpha f (coefficient times alpha!)."""
        return float(self.c[..., self.space.pos[tuple(alpha)]]
                     * math.prod(map(math.factorial, alpha)))

    def deriv(self, i: int) -> "Jet":
        """Jet of d f / d x_i, one order lower."""
        d = grad(self.c, self.nvars)[..., i, :]
        return Jet(space_of(self.nvars, d.shape[-1]), d, self.vars)

    def __repr__(self) -> str:
        return (f"Jet(nvars={self.nvars}, order={self.order}, "
                f"value={self.c[..., 0].tolist()!r})")

    # ring operations ------------------------------------------------

    def _placed(self, vars: tuple, order: int):
        """The space of `vars` (self's and more) at `order`, self placed in it."""
        _, sp, where, *_ = _union(self.vars, vars, order)
        if where.size == sp.size:
            return sp, self.c[..., : sp.size]
        out = np.zeros(self.c.shape[:-1] + (sp.size,))
        out[..., where] = self.c[..., : where.size]
        return sp, out

    def _pair(self, other: "Jet"):
        """Both jets' variables, their space at the lower order, both placed."""
        vars = tuple(sorted({*self.vars, *other.vars}))
        order = min(self.order, other.order)
        (sp, a), (_, b) = self._placed(vars, order), other._placed(vars, order)
        return vars, sp, a, b

    def __add__(self, other):
        if isinstance(other, Jet):
            vars, sp, a, b = self._pair(other)
            return Jet(sp, a + b, vars)
        if isinstance(other, _SCALARS):
            c = self.c.copy()
            c[..., 0] += other
            return Jet(self.space, c, self.vars)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c, self.vars)

    def __sub__(self, other):
        if isinstance(other, (Jet,) + _SCALARS):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, _SCALARS) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            if set(self.vars).isdisjoint(other.vars):   # one term each
                vars, sp, _, ia, _, ib = _union(self.vars, other.vars,
                                                min(self.order, other.order))
                return Jet(sp, self.c.take(ia, -1) * other.c.take(ib, -1), vars)
            vars, sp, a, b = self._pair(other)
            return Jet(sp, mul(a, b, sp.nvars), vars)
        if isinstance(other, _SCALARS):
            return Jet(self.space, self.c * other, self.vars)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _reciprocal(other)
        if isinstance(other, _SCALARS):
            if other == 0.0:
                raise JetDomainError("division by a jet with vanishing value")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return _reciprocal(self) * other
        return NotImplemented

    def __pow__(self, p):
        integral = isinstance(p, (int, np.integer))
        if not integral and not math.isfinite(p):
            raise JetDomainError(f"non-finite exponent {p}")
        if integral or isinstance(p, float) and p == int(p) and abs(p) < 64:
            return _int_pow(self, int(p))
        return _real_pow(self, float(p))


def _compose(a: Jet, series: np.ndarray) -> Jet:
    """f(a) where series[..., k] holds the univariate Taylor coefficients
    of f at each point's a.value. Exact for truncated jets because
    (a - a0) has no constant term."""
    sp = a.space
    u = a.c.copy()
    u[..., 0] = 0.0
    ub = u.take(sp.mul_b, -1)     # the factors of u in `mul`, gathered once
    out = series[..., sp.order, None] * u
    for k in range(sp.order - 1, 0, -1):
        out[..., 0] += series[..., k]
        out = np.add.reduceat(out.take(sp.mul_a, -1) * ub, sp.mul_starts, -1)
    out[..., 0] += series[..., 0]
    return Jet(a.space, out, a.vars)


def _reciprocal(b: Jet) -> Jet:
    b0 = b.c[..., :1]
    if np.any((b0 == 0.0) | ~np.isfinite(b0)):
        raise JetDomainError("division by a jet with vanishing value")
    k = np.arange(b.order + 1)
    return _compose(b, (-1.0) ** k / b0 ** (k + 1))


def _int_pow(a: Jet, p: int) -> Jet:
    if p < 0:
        return _reciprocal(_int_pow(a, -p))
    result, base = Jet(a.space, Jet.constant(1.0, a.nvars, a.order).c, a.vars), a
    while p:
        if p & 1:
            result = result * base
        base = base * base if p > 1 else base
        p >>= 1
    return result


def _real_pow(a: Jet, p: float) -> Jet:
    a0 = _positive(a, "fractional power of nonpositive base")
    coef = np.array(list(accumulate([(p - k) / (k + 1) for k in range(a.order)],
                                    lambda c, f: c * f, initial=1.0)))
    return _compose(a, coef * a0 ** (p - np.arange(a.order + 1)))


def _taylor(a: Jet, derivs) -> Jet:
    """f(a) from derivs(a0, k), the k-th derivatives of f at each a0."""
    k = np.arange(a.order + 1)
    return _compose(a, derivs(a.c[..., :1], k) / _FACTORIAL[: a.order + 1])


def jet_exp(a: Jet) -> Jet:
    return _taylor(a, lambda x, k: np.exp(x))


def jet_log(a: Jet) -> Jet:
    a0 = _positive(a, "log of nonpositive value")
    k = np.arange(a.order + 1)
    series = (-1.0) ** (k + 1) / (np.maximum(k, 1) * a0 ** k)
    series[..., 0] = np.log(a0[..., 0])
    return _compose(a, series)


def jet_sqrt(a: Jet) -> Jet:
    return _real_pow(a, 0.5)


# the others as `_taylor` of their k-th derivatives at each point x
_ELEMENTARY = {"exp": jet_exp, "log": jet_log, "sqrt": jet_sqrt, **{
    fn: lambda a, derivs=derivs: _taylor(a, derivs) for fn, derivs in (
        ("sin", lambda x, k: np.sin(x + k * math.pi / 2)),
        ("cos", lambda x, k: np.cos(x + k * math.pi / 2)),
        ("sinh", lambda x, k: np.where(k % 2, np.cosh(x), np.sinh(x))),
        ("cosh", lambda x, k: np.where(k % 2, np.sinh(x), np.cosh(x))))}}


def jet_elementary(a: Jet, fn: str) -> Jet:
    """Apply a named elementary function to a jet."""
    if fn not in _ELEMENTARY:
        raise ValueError(f"unknown elementary function {fn!r}")
    return _ELEMENTARY[fn](a)


def eval_jets(definition, point, order: int) -> list:
    """Evaluate every component of an immersion as a jet at `point`.

    Returns one Jet per component, each carrying all partial
    derivatives of that component up to `order`, over all the variables.
    `point` may also be an array of points, shape (P, nvars): every jet
    then carries the batch axis, coefficients of shape (P, size). A
    component without variables evaluates to a plain float.
    """
    from . import dsl

    names = definition.vars
    pts = np.asarray(point, dtype=float)
    if pts.shape[-1:] != (len(names),):
        raise ValueError(
            f"point has {pts.shape[-1] if pts.ndim else 0} coordinates, "
            f"immersion has {len(names)} variables")
    sp, seeds = _space(1, order), np.zeros(pts.shape + (order + 1,))  # x_i over (i,)
    seeds[..., 0], seeds[..., 1:2] = pts, 1.0
    env = {name: Jet(sp, seeds[..., i, :], (i,)) for i, name in enumerate(names)}
    every = tuple(range(len(names)))     # where each component ends up
    comps = [dsl.eval_expr(c, env) for c in definition.components]
    return [Jet(*c._placed(every, c.order)) if isinstance(c, Jet) and c.vars != every
            else c for c in comps]
