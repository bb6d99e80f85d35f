"""Calabi products of hyperbolic affine spheres.

Both constructions take hyperbolic affine spheres normalized to mean
curvature -1 (with the affine normal equal to the position) and produce
a sphere of the same kind one dimension higher.  With N = n2 + n3 + 2:

  pair product of factors of dimensions n2 and n3, n = n2 + n3 + 1:

      (c1 e^(a t) psi1(p),  c2 e^(-b t) psi2(q))

      c1 = sqrt(n2+1)/sqrt(N),  c2 = sqrt(n3+1)/sqrt(N),
      a = sqrt(n3+1)/sqrt(n2+1),  b = sqrt(n2+1)/sqrt(n3+1)

  point product of an n1-dimensional factor psi1 (the degenerate pair
  with a zero-dimensional second factor, n2 = n1, n3 = 0):

      (c1 e^(t/sqrt(n)) psi1(p),  c2 e^(-sqrt(n) t)),   n = n1 + 1,
      c1 = sqrt(n)/sqrt(n+1),  c2 = 1/sqrt(n+1)

The axis rates a and -b are lambda2 and lambda3, the K_T eigenvalues on
the factor blocks, and lambda1 = lambda2 + lambda3 (Dillen and Vrancken,
"Calabi-type composition of affine spheres", 1994); `_rates` gives
them, at n3 = 0 for a point product.

The block coefficients are forced by the unimodular normalization: a
pair (c1, c2) yields mean curvature -1 exactly when c1^(n2+1) c2^(n3+1)
has the value above, leaving the one-parameter gauge freedom
d1^(n2+1) d2^(n3+1) = 1 (a translation of the axis parameter, so the
same surface).  The constructors emit the d1 = d2 = 1 gauge.  Products
carry provenance metadata so the decomposition round trip can
reconstruct the factors.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import blaschke, checks
from .blaschke import GeometryError
from .dsl import ImmersionDef, Provenance, build_scaled_embedding, fresh_name
from .jets import eval_jets


class FactorGaugeError(GeometryError):
    """Factor is not a hyperbolic affine sphere in the H = -1 gauge."""


class ProvenanceError(ValueError):
    """Operation needs product provenance metadata the def does not carry."""


class SpectrumPrediction(namedtuple("SpectrumPrediction",
                                    "kind n2 n3 lambda1 lambda2 lambda3")):
    """Eigenstructure of K_T along the product axis.

    kind is "point" or "pair". lambda1 belongs to the axis direction T
    itself, lambda2 to the first factor block (multiplicity n2) and
    lambda3 to the second block (multiplicity n3; None for point products,
    where the second block is a constant vector)."""

    __slots__ = ()


def _rates(n2: int, n3: int) -> tuple[float, float]:
    """The axis rates (lambda2, lambda3) of the blocks of a product with
    factor dimensions n2 and n3; lambda1 = lambda2 + lambda3."""
    return (math.sqrt(n3 + 1) / math.sqrt(n2 + 1),
            -math.sqrt(n2 + 1) / math.sqrt(n3 + 1))


def predicted_spectrum(kind: str, n2: int, n3: int = 0) -> SpectrumPrediction:
    if kind == "point":
        n3 = 0
    elif kind != "pair":
        raise ValueError(f"unknown product kind {kind!r}")
    lam2, lam3 = _rates(n2, n3)
    return SpectrumPrediction(
        kind=kind, n2=n2, n3=n3, lambda1=lam2 + lam3, lambda2=lam2,
        lambda3=lam3 if kind == "pair" else None)


# the factor gate samples the corners of [-0.25, 0.25]^n
_GATE_AXIS = np.array([-0.25, 0.25])


def _check_factor(defn: ImmersionDef) -> None:
    if defn.ncomponents != defn.nvars + 1:
        raise FactorGaugeError(
            f"factor {defn.name!r} must be a hypersurface immersion "
            f"({defn.nvars + 1} components for {defn.nvars} variables)"
        )
    grid = checks.mesh([_GATE_AXIS] * defn.nvars)
    frames = blaschke.frames_on_grid(defn, grid)
    report = checks.sphere_residual(frames)
    worst_h = float(np.max(np.abs(frames.H + 1.0)))
    if not report.passed or worst_h > 1e-6:
        raise FactorGaugeError(
            f"factor {defn.name!r} is not an affine sphere with H = -1 "
            f"(sphere residual {report.max_residual:.3g}, |H+1| {worst_h:.3g})"
        )
    offset = checks.xi_offset(frames)
    if offset is not None:
        raise FactorGaugeError(
            f"factor {defn.name!r} does not satisfy xi = phi "
            f"(offset {offset[0]:.3g}); recenter or rescale it first"
        )


def base_coefficients(kind: str, n2: int, n3: int = 0) -> tuple[float, float]:
    """Block coefficients (c1, c2) of the d1 = d2 = 1 gauge."""
    if kind == "point":
        n3 = 0
    elif kind != "pair":
        raise ValueError(f"unknown product kind {kind!r}")
    big_n = n2 + n3 + 2
    return (math.sqrt((n2 + 1) / big_n), math.sqrt((n3 + 1) / big_n))


def calabi_point(psi1: ImmersionDef) -> ImmersionDef:
    """Calabi product of a hyperbolic affine sphere with a point."""
    return _product("point", [psi1], [psi1, (1.0,)])


def calabi_pair(psi1: ImmersionDef, psi2: ImmersionDef) -> ImmersionDef:
    """Calabi product of two hyperbolic affine spheres."""
    return _product("pair", [psi1, psi2], [psi1, psi2])


def _product(kind: str, factors, blocks) -> ImmersionDef:
    """The product of the factors, whose second block is psi2, or the
    constant (1.0,) for a point product (the pair formulas at n3 = 0)."""
    for psi in factors:
        _check_factor(psi)
    n2 = factors[0].nvars
    n3 = factors[1].nvars if len(factors) == 2 else 0
    c1, c2 = base_coefficients(kind, n2, n3)
    rate1, rate2 = _rates(n2, n3)
    axis = fresh_name("t", [v for psi in factors for v in psi.vars])
    names = tuple(psi.name for psi in factors)
    prov = Provenance(kind=kind, n2=n2, n3=n3, axis=axis, factors=names)
    return build_scaled_embedding(
        blocks,
        weights=[(c1, rate1), (c2, rate2)],
        axis_var=axis,
        name="_".join(("calabi", kind) + names),
        provenance=prov,
    )


def product_ode_identity(defn: ImmersionDef, grid,
                         tol: float = 1e-9) -> checks.CheckReport:
    """Second-order identity along the product axis.

    A Calabi product satisfies, componentwise,

        psi_tt = lambda1 psi_t + psi,   lambda1 = lambda2 + lambda3,

    with n3 = 0 for point products. Requires provenance metadata; the
    report residual is the worst componentwise violation on the grid.
    """
    coeff = ode_coefficient(defn)
    axis = defn.provenance.axis
    if axis not in defn.vars:
        raise ProvenanceError(
            f"provenance axis {axis!r} is not a variable of {defn.name!r}")
    t_index = defn.vars.index(axis)
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    res = np.zeros(len(pts))
    for comp in eval_jets(defn, pts, order=2):
        dt = comp.deriv(t_index)
        dtt = dt.deriv(t_index)
        res = np.maximum(res, np.abs(dtt.c[..., 0] - coeff * dt.c[..., 0]
                                     - comp.c[..., 0]))
    return checks.CheckReport.from_samples("product_ode", res, pts, tol)


def ode_coefficient(defn: ImmersionDef) -> float:
    """The psi_t coefficient lambda1 in the product ODE, from provenance."""
    prov = defn.provenance
    if prov is None:
        raise ProvenanceError(
            f"{defn.name!r} carries no product provenance; it was not "
            "produced by the Calabi constructors")
    return sum(_rates(prov.n2, prov.n3))
