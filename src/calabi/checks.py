"""Residual reports for the structural identities of affine spheres.

Each check walks a list of Blaschke frames (or a definition plus grid),
measures the worst violation of one identity, and returns a CheckReport
with the residual, the tolerance and the worst sample point. Tolerances
default to 1e-6 for quantities built from fourth derivatives (shape
operator constancy, Gauss, Codazzi, parallel cubic form) and 1e-8 for
quantities of order three and below (apolarity, the determinant
criterion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blaschke
from .blaschke import BlaschkeFrame, DegenerateSurfaceError, GeometryError
from .dsl import ImmersionDef
from .numerics import metric_orthonormal_basis


# Residuals below NOISE_FLOOR * tolerance are rounding: a worst point
# chosen among them would follow the order of floating-point work.
NOISE_FLOOR = 1e-6


class GaugeError(GeometryError):
    """Check requires the H = -1 normalization."""


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    samples: int
    worst_point: tuple

    @staticmethod
    def from_samples(name: str, residuals, points, tolerance: float) -> "CheckReport":
        """The worst point is the argmax of the residuals, or the first
        sample point when every residual is below the noise floor."""
        residuals = np.asarray(residuals, dtype=float)
        worst = int(np.argmax(residuals))
        where = worst if residuals[worst] > NOISE_FLOOR * tolerance else 0
        return CheckReport(
            name=name,
            max_residual=float(residuals[worst]),
            tolerance=float(tolerance),
            passed=bool(residuals[worst] <= tolerance),
            samples=len(residuals),
            worst_point=tuple(float(x) for x in np.atleast_1d(points[where])),
        )


def mesh(axes) -> np.ndarray:
    """All points of the grid spanned by the coordinate axes, one per row."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _frames(definition_or_frames, grid=None) -> list[BlaschkeFrame]:
    if isinstance(definition_or_frames, ImmersionDef):
        if grid is None:
            raise ValueError("a grid is required with an immersion definition")
        return blaschke.frames_on_grid(definition_or_frames, grid)
    frames = list(definition_or_frames)
    if not frames:
        raise ValueError("no frames to check")
    return frames


def sphere_residual(definition_or_frames, grid=None, tol: float = 1e-6) -> CheckReport:
    """Affine sphere test: S = H id with H constant across the frames."""
    frames = _frames(definition_or_frames, grid)
    h_first = frames[0].H
    res, pts = [], []
    for fr in frames:
        dev = np.max(np.abs(fr.S - fr.H * np.eye(fr.n)))
        res.append(max(dev, abs(fr.H - h_first)))
        pts.append(fr.u)
    return CheckReport.from_samples("sphere", res, pts, tol)


def apolarity_residual(definition_or_frames, grid=None, tol: float = 1e-8) -> CheckReport:
    """trace_h(K_X) = 0, measured against an h-orthonormal frame.

    The trace of the endomorphism Y -> K(X, Y) is frame independent, so
    it is the coordinate trace sum_j K^j_ij contracted with the
    h-orthonormal basis vectors.
    """
    frames = _frames(definition_or_frames, grid)
    res, pts = [], []
    for fr in frames:
        b = metric_orthonormal_basis(fr.h)
        tvec = np.einsum("ijj->i", fr.K)
        res.append(float(np.max(np.abs(tvec @ b))) if fr.n else 0.0)
        pts.append(fr.u)
    return CheckReport.from_samples("apolarity", res, pts, tol)


def _require_unit_hyperbolic(frames, who: str) -> None:
    for fr in frames:
        if abs(fr.H + 1.0) > 1e-6:
            raise GaugeError(
                f"{who} requires H = -1 (found H = {fr.H:.6g}); "
                "normalize the surface first"
            )


def gauss_codazzi_residual(definition_or_frames, grid=None,
                           tol: float = 1e-6) -> dict[str, CheckReport]:
    """Gauss and Codazzi identities at H = -1.

    Gauss:   R(X,Y)Z = -(h(Y,Z)X - h(X,Z)Y) - [K_X, K_Y]Z
    Codazzi: (hat nabla K)(X,Y,Z) symmetric in X and Y.
    """
    frames = _frames(definition_or_frames, grid)
    _require_unit_hyperbolic(frames, "gauss_codazzi_residual")
    gauss_res, codazzi_res, pts = [], [], []
    for fr in frames:
        n = fr.n
        eye = np.eye(n)
        h_term = np.einsum("jk,il->ijkl", fr.h, eye) - np.einsum(
            "ik,jl->ijkl", fr.h, eye
        )
        commutator = np.einsum("iml,jkm->ijkl", fr.K, fr.K) - np.einsum(
            "jml,ikm->ijkl", fr.K, fr.K
        )
        gauss_res.append(float(np.max(np.abs(fr.Rhat + h_term + commutator))))
        codazzi_res.append(
            float(np.max(np.abs(fr.nabla_K - fr.nabla_K.transpose(1, 0, 2, 3))))
        )
        pts.append(fr.u)
    return {
        "gauss": CheckReport.from_samples("gauss", gauss_res, pts, tol),
        "codazzi": CheckReport.from_samples("codazzi", codazzi_res, pts, tol),
    }


def parallel_cubic_residual(definition_or_frames, grid=None,
                            tol: float = 1e-6) -> CheckReport:
    """Largest component of hat nabla K over the frames."""
    frames = _frames(definition_or_frames, grid)
    res = [float(np.max(np.abs(fr.nabla_K))) for fr in frames]
    pts = [fr.u for fr in frames]
    return CheckReport.from_samples("parallel_cubic", res, pts, tol)


def unimodular_criterion(definition_or_frames, grid=None,
                         tol: float = 1e-8) -> CheckReport:
    """Determinant test for a hyperbolic affine sphere with xi = phi.

    With the position as transversal, write d_i d_j psi =
    Gamma^k_ij d_k psi + g_ij psi. The surface is such a sphere exactly
    when det(d_1 psi, ..., d_n psi, psi)^2 = det(g). One batched solve
    against the basis B = (d_1 psi, ..., d_n psi, psi) gives every g.
    """
    frames = _frames(definition_or_frames, grid)
    n = frames[0].n
    for fr in frames:
        offset = np.linalg.norm(fr.xi - fr.position)
        if offset > 1e-6 * max(np.linalg.norm(fr.position), 1.0):
            raise GaugeError(
                "unimodular_criterion requires the orientation xi = phi "
                f"(offset {offset:.3g} at {blaschke.format_point(fr.u)})"
            )
    basis = np.stack([np.vstack([fr.tangent, fr.position]).T for fr in frames])
    det_basis = np.linalg.det(basis)
    # Hadamard's bound: |det B| <= the product of its column lengths
    bound = np.prod(np.linalg.norm(basis, axis=1), axis=1)
    flat = np.flatnonzero(np.abs(det_basis) < 1e-12 * bound)
    if flat.size:
        where = blaschke.format_point(frames[flat[0]].u)
        raise DegenerateSurfaceError(
            f"position is tangent to the surface at {where}")
    second = np.stack([fr.second.reshape(n * n, n + 1).T for fr in frames])
    g = np.linalg.solve(basis, second)[:, n].reshape(-1, n, n)
    res = np.abs(det_basis ** 2 - np.linalg.det(g))
    pts = [fr.u for fr in frames]
    return CheckReport.from_samples("unimodular", res, pts, tol)
