"""Dense symmetric linear algebra for small dimensions.

Everything here targets matrices of size <= 8. The generalized
symmetric eigenproblem A v = lambda M v is solved as B^T A B q = lambda q,
v = B q, in the M-orthonormal basis B the caller factors once per M (a
frame batch carries that of its h), by LAPACK (`numpy.linalg.eigh`) for
one matrix or for stacks (..., n, n) in one call. Eigenvalues ascend, and
each vector's sign is fixed so its first entry of significant size is
positive; so is each row of a `subspace_rank` basis.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np


class NotPositiveDefiniteError(ValueError):
    pass


class AsymmetricMatrixError(ValueError):
    """A matrix that should be symmetric is not, beyond rounding; `index`
    locates it in a stack, () for a single matrix."""

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Validate near-symmetry and return the symmetric part, of one matrix
    or of each in a stack (..., n, n).

    The asymmetry must not exceed 1e-8 relative to the largest entry (or
    to 1, if larger): the checks hold order-three quantities such as K to
    1e-8, and rounding alone leaves K_T asymmetric by several 1e-12. A
    larger one raises AsymmetricMatrixError naming the first such matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1), initial=0.0), 1.0)
    gap = np.max(np.abs(a - _t(a)), axis=(-2, -1), initial=0.0)
    bad = np.argwhere(gap > 1e-8 * scale)
    if len(bad):
        index = tuple(int(i) for i in bad[0])
        where = f" at stack index {index}" if index else ""
        raise AsymmetricMatrixError(
            f"matrix asymmetry {gap[index]:.3e} exceeds tolerance{where}",
            index)
    return 0.5 * (a + _t(a))


# values ascending, vectors as orthonormal columns
EigenResult = namedtuple("EigenResult", "values vectors")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    size = np.abs(vectors)
    big = size > 1e-10 * np.max(size, axis=-2, keepdims=True)
    lead = np.take_along_axis(vectors, big.argmax(-2)[..., None, :], -2)
    return np.where(lead < 0, -vectors, vectors)


def solve_sym_eig_generalized(reduced: np.ndarray) -> EigenResult:
    """Solve A v = lambda M v, symmetric A and positive definite M, given
    as the reduced matrix B^T A B, B = `metric_orthonormal_basis(M)`, and
    checked for symmetry by `symmetrize`: the eigenvalues, ascending, and
    orthonormal eigenvectors q, v = B q, of one matrix or of a stack."""
    values, q = np.linalg.eigh(symmetrize(reduced))
    return EigenResult(values=values, vectors=_fix_signs(q))


# basis rows form an orthonormal basis of the span
SubspaceBasis = namedtuple("SubspaceBasis", "rank basis")


def subspace_rank(vectors, tol: float = 1e-7) -> SubspaceBasis:
    """Numerical rank and orthonormal basis of the span of sample rows.

    Rank counts singular values above `tol` relative to the largest one.
    Each basis row's sign is fixed as the eigenvectors' are, so that its
    first entry of significant size is positive.
    """
    stack = np.atleast_2d(np.asarray(vectors, dtype=float))
    if stack.size == 0:
        return SubspaceBasis(rank=0, basis=np.zeros((0, stack.shape[1])))
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return SubspaceBasis(rank=rank, basis=_fix_signs(vh[:rank].T).T)


def find_root_bisection(f, lo: float, hi: float, tol: float = 1e-12,
                        max_iter: int = 200) -> float:
    """Root of a continuous scalar function by bisection.

    The endpoints must straddle a sign change. Stops when the residual
    drops below `tol` or the interval collapses.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError("bisection endpoints do not straddle a sign change")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol or hi - lo <= 1e-16 * max(abs(lo), abs(hi), 1.0):
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def metric_orthonormal_basis(h: np.ndarray) -> np.ndarray:
    """Columns b_i with b_i^T h b_j = delta_ij, for symmetric positive
    definite h or each matrix of a stack of them (its lower triangle is
    read, so h is not checked for symmetry)."""
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("metric is not positive definite") from None
    return _t(np.linalg.inv(chol))
