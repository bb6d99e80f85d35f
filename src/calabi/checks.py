"""Residual reports for the structural identities of affine spheres.

Each check reads a batch of Blaschke frames (or a definition plus grid,
see `blaschke.frames_on_grid`), measures the violation of one identity
at every grid point in one array expression, and returns a CheckReport
with the residual, the tolerance and the worst sample point. Tolerances
default to 1e-6 for quantities built from fourth derivatives (shape
operator constancy, Gauss, Codazzi, parallel cubic form) and 1e-8 for
quantities of order three and below (apolarity, the determinant
criterion).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import blaschke
from .blaschke import BlaschkeFrame, DegenerateSurfaceError, GeometryError
from .dsl import ImmersionDef


# Residuals below NOISE_FLOOR * tolerance are rounding: a worst point
# chosen among them would follow the order of floating-point work.
NOISE_FLOOR = 1e-6


class GaugeError(GeometryError):
    """Check requires the H = -1 normalization."""


class CheckReport(namedtuple("CheckReport", "name max_residual tolerance "
                             "passed samples worst_point")):
    __slots__ = ()

    @staticmethod
    def from_samples(name: str, residuals, points, tolerance: float) -> "CheckReport":
        """The residual of a point is residuals[p], or its largest entry
        when residuals[p] is an array. The worst point is the argmax of
        the residuals, or the first sample point when every residual is
        below the noise floor."""
        residuals = np.asarray(residuals, dtype=float)
        residuals = residuals.reshape(len(residuals), -1).max(axis=1)
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


def _frames(definition_or_frames, grid=None) -> BlaschkeFrame:
    if isinstance(definition_or_frames, ImmersionDef):
        if grid is None:
            raise ValueError("a grid is required with an immersion definition")
        return blaschke.frames_on_grid(definition_or_frames, grid)
    return definition_or_frames


def xi_offset(frames: BlaschkeFrame) -> tuple[float, int] | None:
    """The orientation gate xi = phi: the largest entry of |xi - phi| over
    the frames and its grid point, as (offset, p), when it exceeds 1e-6
    relative to max(1, max |phi|); None when the gate passes."""
    offsets = np.max(np.abs(frames.xi - frames.position), axis=1)
    worst = int(np.argmax(offsets))
    if offsets[worst] > 1e-6 * max(1.0, float(np.max(np.abs(frames.position)))):
        return float(offsets[worst]), worst
    return None


def sphere_residual(definition_or_frames, grid=None, tol: float = 1e-6) -> CheckReport:
    """Affine sphere test: S = H id with H constant across the frames.

    S - H id is measured in the h-orthonormal basis B of the frames, where
    S reads B^T h S B, so the residual does not depend on the coordinates.
    """
    fr = _frames(definition_or_frames, grid)
    s_ortho = fr.basis.swapaxes(1, 2) @ fr.h @ fr.S @ fr.basis
    dev = np.max(np.abs(s_ortho - fr.H[:, None, None] * np.eye(fr.n)), axis=(1, 2))
    res = np.maximum(dev, np.abs(fr.H - fr.H[0]))
    return CheckReport.from_samples("sphere", res, fr.u, tol)


def apolarity_residual(definition_or_frames, grid=None, tol: float = 1e-8) -> CheckReport:
    """trace_h(K_X) = 0, measured against an h-orthonormal frame.

    The trace of the endomorphism Y -> K(X, Y) is frame independent, so
    it is the coordinate trace sum_j K^j_ij contracted with the
    h-orthonormal basis vectors the frames carry.
    """
    fr = _frames(definition_or_frames, grid)
    tvec = np.einsum("pijj->pi", fr.K)[:, None]
    res = np.abs(tvec @ fr.basis)
    return CheckReport.from_samples("apolarity", res, fr.u, tol)


def gauss_codazzi_residual(definition_or_frames, grid=None,
                           tol: float = 1e-6) -> dict[str, CheckReport]:
    """Gauss and Codazzi identities at H = -1.

    Gauss:   R(X,Y)Z = -(h(Y,Z)X - h(X,Z)Y) - [K_X, K_Y]Z
    Codazzi: (hat nabla K)(X,Y,Z) symmetric in X and Y.
    """
    fr = _frames(definition_or_frames, grid)
    off = np.flatnonzero(np.abs(fr.H + 1.0) > 1e-6)
    if off.size:
        raise GaugeError(
            f"gauss_codazzi_residual requires H = -1 (found H = "
            f"{fr.H[off[0]]:.6g}); normalize the surface first"
        )
    eye = np.eye(fr.n)
    h_term = np.einsum("pjk,il->pijkl", fr.h, eye) - np.einsum(
        "pik,jl->pijkl", fr.h, eye
    )
    commutator = np.einsum("piml,pjkm->pijkl", fr.K, fr.K) - np.einsum(
        "pjml,pikm->pijkl", fr.K, fr.K
    )
    gauss = np.abs(fr.Rhat + h_term + commutator)
    codazzi = np.abs(fr.nabla_K - fr.nabla_K.transpose(0, 2, 1, 3, 4))
    return {
        "gauss": CheckReport.from_samples("gauss", gauss, fr.u, tol),
        "codazzi": CheckReport.from_samples("codazzi", codazzi, fr.u, tol),
    }


def parallel_cubic_residual(definition_or_frames, grid=None,
                            tol: float = 1e-6) -> CheckReport:
    """Largest component of hat nabla K over the frames."""
    fr = _frames(definition_or_frames, grid)
    return CheckReport.from_samples("parallel_cubic", np.abs(fr.nabla_K),
                                    fr.u, tol)


def unimodular_criterion(definition_or_frames, grid=None,
                         tol: float = 1e-8) -> CheckReport:
    """Determinant test for a hyperbolic affine sphere with xi = phi.

    With the position as transversal, write d_i d_j psi =
    Gamma^k_ij d_k psi + g_ij psi. The surface is such a sphere exactly
    when det(d_1 psi, ..., d_n psi, psi)^2 = det(g). One batched solve
    against the basis B = (d_1 psi, ..., d_n psi, psi) gives every g.
    """
    fr = _frames(definition_or_frames, grid)
    n = fr.n
    offset = xi_offset(fr)
    if offset is not None:
        where = blaschke.format_point(fr.u[offset[1]])
        raise GaugeError("unimodular_criterion requires the orientation "
                         f"xi = phi (offset {offset[0]:.3g} at {where})")
    basis = np.concatenate([fr.tangent, fr.position[:, None]], 1).swapaxes(1, 2)
    det_basis = np.linalg.det(basis)
    # Hadamard's bound: |det B| <= the product of its column lengths
    bound = np.prod(np.linalg.norm(basis, axis=1), axis=1)
    flat = np.flatnonzero(np.abs(det_basis) < 1e-12 * bound)
    if flat.size:
        where = blaschke.format_point(fr.u[flat[0]])
        raise DegenerateSurfaceError(
            f"position is tangent to the surface at {where}")
    second = fr.second.reshape(-1, n * n, n + 1).swapaxes(1, 2)
    g = np.linalg.solve(basis, second)[:, n].reshape(-1, n, n)
    res = np.abs(det_basis ** 2 - np.linalg.det(g))
    return CheckReport.from_samples("unimodular", res, fr.u, tol)
