"""Equiaffine (Blaschke) structure of a parametrized hypersurface.

Given an immersion phi: U subset R^n -> R^(n+1) and a point u, the
pipeline produces the affine metric h, the affine normal xi, the induced
and Levi-Civita connections, the difference tensor K = nabla - hat
nabla, the cubic form C = h(K(.,.),.), the shape operator S with
D_X xi = -S X, the curvature of h, and the covariant derivative of K.

Everything is computed in exact truncated jet arithmetic: the component
jets of phi at order 4 are pushed through the same algebra one would
write on paper, and each differentiation lowers the jet order by one.
The orders work out so that S, the curvature tensor and hat nabla K are
still exact at the point; no finite differences are involved.

The pipeline runs on a batch of points at once, with jet matrices as
coefficient arrays of shape (points, rows, cols, size) (see `jets`);
`full_frame` and `blaschke_metric_and_normal` are the one-point case. A
jet matrix A = A0 + N, A0 its constant term, is inverted as A^-1 =
sum_{k <= order} (-A0^-1 N)^k A0^-1, exact at the jet order since N has
no constant term, so LAPACK only inverts the A0.
The cross product and det gtilde use a division-free Laplace expansion:
minors that vanish at a point are harmless.

Frames are cached per (definition, point) in an LRU of 4096 entries,
`_full_frame_cached`, as rows of the batches that computed them, and
`cache_info().misses` counts one miss per frame computed. `frames_on_grid`
computes only its misses, in one batch, and returns the grid as one batch
with a leading grid-point axis (the computed batch itself when it is the
whole grid): the checks and the decomposition read it directly.

Index conventions for the stored arrays: tensors with one contravariant
slot keep it last, so gamma[i, j, k] is Gamma^k_ij, K[i, j, k] is
K^k_ij, Rhat[i, j, k, l] is the l-component of R(d_i, d_j) d_k, and
nabla_K[i, j, k, l] is the l-component of (hat nabla_{d_i} K)(d_j, d_k).
S[k, i] is the matrix with S(d_i) = S[k, i] d_k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby

import numpy as np

from .dsl import ImmersionDef
from .jets import (Jet, JetDomainError, eval_jets, grad, jet_sqrt, matmul, mul,
                   space_of)


class GeometryError(ValueError):
    pass


class DegenerateSurfaceError(GeometryError):
    """Tangent map drops rank or the second fundamental form degenerates."""


class IndefiniteMetricError(GeometryError):
    """The tentative metric is indefinite; the pipeline requires a
    locally convex (definite) hypersurface."""


class ArityError(GeometryError):
    """Component count is not (number of variables) + 1."""


# --- batched jet-matrix algebra ------------------------------------------


@lru_cache(maxsize=None)
def _laplace(m: int, s: int):
    """Column subsets of size s of range(m), in combinations order, and
    for each subset and position the index of the subset without that
    column among the subsets of size s - 1."""
    subsets = list(combinations(range(m), s))
    prev = {c: k for k, c in enumerate(combinations(range(m), s - 1))}
    sub = [[prev[c[:p] + c[p + 1:]] for p in range(s)] for c in subsets]
    return np.array(subsets), np.array(sub), np.where(np.arange(s) % 2, -1.0, 1.0)


def _minors(a: np.ndarray, n: int) -> np.ndarray:
    """All maximal minors of jet matrices (P, r, m, size), one per r-subset
    of the m columns in combinations order, by Laplace expansion from the
    bottom row up."""
    r, m = a.shape[1], a.shape[2]
    d = a[:, r - 1]
    for s in range(2, r + 1):
        cols, sub, sign = _laplace(m, s)
        terms = mul(a[:, r - s][:, cols], d[:, sub], n)
        d = (terms * sign[:, None]).sum(axis=2)
    return d


def _solve(a: np.ndarray, b, n: int) -> np.ndarray:
    """A^-1 B = sum_{k <= order} (-A0^-1 N)^k A0^-1 B for jet matrices
    A = A0 + N (P, m, m, size) and B (P, m, c, size); B = None stands for
    the identity."""
    if b is None:
        b = np.zeros(a.shape)
        b[..., 0] = np.eye(a.shape[1])
    size = min(a.shape[-1], b.shape[-1])
    a, a0 = a[..., :size], a[..., 0]
    try:
        inv0 = np.linalg.inv(a0)
    except np.linalg.LinAlgError:
        inv0 = np.full(a0.shape, np.inf)
    # the conditioning of A0, not the size of its pivots: scale free
    cond = np.abs(a0).sum(-1).max(-1) * np.abs(inv0).sum(-1).max(-1)
    if not np.all(cond <= 1e13):
        raise DegenerateSurfaceError("singular jet system (degenerate frame)")
    y = np.einsum("pik,pkjt->pijt", inv0, b[..., :size])
    step = np.einsum("pik,pkjt->pijt", -inv0, a)   # -A0^-1 N
    step[..., 0] = 0.0
    x = y
    for _ in range(space_of(n, size).order):
        x = y + matmul(step, x, n)
    return x


def _values(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a[..., 0])   # values, detached from the jets


def format_point(u) -> str:
    """A parameter point as a tuple of plain floats, for messages."""
    return str(tuple(float(x) for x in u))


# --- result types ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MetricNormal:
    h: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True, eq=False)
class BlaschkeFrame:
    """Full second-order equiaffine data of an immersion at one point, or
    at P grid points with a leading grid-point axis on every field: u is
    then (P, n) and H, recon_residual and normal_defect are (P,). A
    batch has len P, and batch[p] is the frame at point p (a slice or an
    index array gives a smaller batch)."""

    u: np.ndarray
    position: np.ndarray
    tangent: np.ndarray          # rows are d_i phi
    second: np.ndarray           # second[i, j] = d_i d_j phi, ambient vectors
    h: np.ndarray
    h_inv: np.ndarray
    xi: np.ndarray
    gamma: np.ndarray            # induced connection
    gamma_hat: np.ndarray        # Levi-Civita connection of h
    K: np.ndarray                # difference tensor
    C: np.ndarray                # cubic form, fully covariant
    S: np.ndarray                # shape operator as a matrix
    H: float                     # affine mean curvature trace(S)/n
    Rhat: np.ndarray             # curvature of h
    nabla_K: np.ndarray          # hat nabla K
    dh: np.ndarray               # dh[k, i, j] = d_k h_ij
    dK: np.ndarray               # dK[m, i, j, k] = d_m K^k_ij
    recon_residual: float        # | d_i d_j phi - Gamma d phi - h xi |
    normal_defect: float         # transversal part of d_i xi

    @property
    def n(self) -> int:
        return self.tangent.shape[-2]

    def __len__(self) -> int:
        return len(self.H)

    def __getitem__(self, p) -> "BlaschkeFrame":
        rows = {name: value[p] for name, value in vars(self).items()}
        return BlaschkeFrame(**{name: row if np.ndim(row) else float(row)
                                for name, row in rows.items()})


# --- pipeline -------------------------------------------------------------


def _component_jets(definition: ImmersionDef, points, order: int) -> np.ndarray:
    """Component jets at a batch of points, shape (P, n + 1, size)."""
    n = definition.nvars
    if definition.ncomponents != n + 1:
        raise ArityError(
            f"hypersurface needs {n + 1} components for {n} variables, "
            f"got {definition.ncomponents}"
        )
    shape = (len(points), math.comb(n + order, order))
    comps = eval_jets(definition, points, order)
    return np.stack([np.broadcast_to(
        c.c if isinstance(c, Jet) else Jet.constant(c, n, order).c, shape)
        for c in comps], axis=1)


def _metric_and_levi(comps: np.ndarray, n: int):
    """Tangent and second-derivative jets, the affine metric h, its
    inverse, dh, the Levi-Civita connection and the affine normal."""
    P = comps.shape[0]
    tang = np.swapaxes(grad(comps, n), 1, 2)      # tang[p, i, a] = d_i phi^a
    idx = np.arange(n)
    second = np.swapaxes(grad(tang, n), 2, 3)     # second[p, i, j, a]
    second = second[:, np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)]

    # generalized cross product: zhat_a = (-1)^(n+a) det(tangent minus column
    # a), at the order of the second derivatives, all that its uses need
    low = tang[..., : second.shape[-1]]
    signs = (-1.0) ** (n + np.arange(n + 1))
    zhat = _minors(low, n)[:, ::-1] * signs[:, None]
    norm2 = mul(zhat, zhat, n).sum(axis=1)
    # |zhat| is the volume of the tangent vectors, at most prod_i |d_i phi|
    lengths2 = np.prod(np.sum(tang[..., 0] ** 2, axis=2), axis=1)
    if np.any(norm2[:, 0] <= 1e-20 * lengths2):
        raise DegenerateSurfaceError("tangent map is degenerate at this point")
    norm = jet_sqrt(Jet(space_of(n, norm2.shape[-1]), norm2))
    zeta = mul(zhat, (1.0 / norm).c[:, None], n)

    # decompose d_i d_j phi = gamma_tilde^k_ij d_k phi + gtilde_ij zeta
    basis = np.concatenate([low, zeta[:, None]], axis=1).swapaxes(1, 2)
    rhs = second.reshape(P, n * n, n + 1, -1).swapaxes(1, 2)
    gt = _solve(basis, rhs, n)[:, n].reshape(P, n, n, -1)

    gt0 = gt[..., 0]
    scale = np.maximum(np.max(np.abs(gt0), axis=(1, 2)), 1e-30)
    eig = np.linalg.eigvalsh(0.5 * (gt0 + gt0.swapaxes(1, 2))) / scale[:, None]
    flip = np.all(eig < -1e-12, axis=1)
    if not np.all(flip | np.all(eig > 1e-12, axis=1)):
        raise IndefiniteMetricError(
            "tentative second fundamental form is not definite"
        )
    sign = np.where(flip, -1.0, 1.0)
    gt = gt * sign[:, None, None, None]
    det_gt = _minors(gt, n)[:, 0]
    if np.any(np.abs(det_gt[:, 0]) < 1e-12 * scale ** n):
        raise DegenerateSurfaceError("second fundamental form is degenerate")

    # Blaschke normalization: h = (Dvol^2 / det gtilde)^(1/(n+2)) gtilde
    dv = Jet(norm.space, norm.c * sign[:, None])
    factor = (dv * dv / Jet(space_of(n, det_gt.shape[-1]), det_gt)) ** (1.0 / (n + 2))
    h = mul(factor.c[:, None, None], gt, n)
    h_inv = _solve(h, None, n)

    # gamma_hat^k_ij = h^kl (d_i h_jl + d_j h_il - d_l h_ij) / 2
    dh = grad(h, n)                               # dh[p, i, j, k] = d_k h_ij
    christ = dh.transpose(0, 3, 1, 2, 4) + dh.transpose(0, 1, 3, 2, 4) - dh
    gamma_hat = 0.5 * matmul(christ.reshape(P, n * n, n, -1), h_inv.swapaxes(1, 2),
                             n).reshape(P, n, n, n, -1)

    # affine normal: n xi = Laplace_h phi = h^ij (dd phi - gamma_hat d phi)
    drift = matmul(gamma_hat.reshape(P, n * n, n, -1), tang, n)
    inner = second.reshape(P, n * n, n + 1, -1)[..., : drift.shape[-1]] - drift
    xi = matmul(h_inv.reshape(P, 1, n * n, -1), inner, n)[:, 0] * (1.0 / n)
    return tang, second, h, h_inv, dh, gamma_hat, xi


def blaschke_metric_and_normal(definition: ImmersionDef, u) -> MetricNormal:
    """Affine metric and affine normal at a point (order-3 jets)."""
    comps = _component_jets(definition, [u], order=3)
    _, _, h, _, _, _, xi = _metric_and_levi(comps, definition.nvars)
    return MetricNormal(h=_values(h)[0], xi=_values(xi)[0])


def _frame_batch(definition: ImmersionDef, points: np.ndarray) -> BlaschkeFrame:
    """Complete Blaschke frames at a batch of points (order-4 jets)."""
    n = definition.nvars
    P = len(points)
    comps = _component_jets(definition, points, order=4)
    tang, second, h, h_inv, dh, gamma_hat, xi = _metric_and_levi(comps, n)

    # induced connection: decompose second derivatives against (d phi, xi)
    basis = np.concatenate([tang[..., :xi.shape[-1]], xi[:, None]], 1).swapaxes(1, 2)
    sol = _solve(basis, second.reshape(P, n * n, n + 1, -1).swapaxes(1, 2), n)
    gamma = _values(sol[:, :n]).reshape(P, n, n, n).transpose(0, 2, 3, 1)
    recon = np.max(np.abs(sol[:, n, :, 0] - h[..., 0].reshape(P, n * n)), axis=1)
    K_jets = (sol[:, :n].reshape(P, n, n, n, -1).transpose(0, 2, 3, 1, 4)
              - gamma_hat[..., : sol.shape[-1]])
    K, gh, h_vals = _values(K_jets), _values(gamma_hat), _values(h)
    C = np.einsum("pijl,plk->pijk", K, h_vals)

    # shape operator from d_i xi = -S^k_i d_k phi (+ transversal defect)
    coeffs = np.linalg.solve(basis[..., 0], grad(xi, n)[..., 0])
    S = -coeffs[:, :n]
    defect = np.max(np.abs(coeffs[:, n]), axis=1)
    H = np.trace(S, axis1=1, axis2=2) / n

    # derivative tensors, derivative index first: dK[p, m, i, j, k] = d_m K^k_ij
    dgh = np.moveaxis(grad(gamma_hat, n)[..., 0], 4, 1)
    dK = np.moveaxis(grad(K_jets, n)[..., 0], 4, 1)

    # curvature: R[i,j,k,l] = d_i Gh[j,k,l] - d_j Gh[i,k,l]
    #            + Gh[j,k,m] Gh[i,m,l] - Gh[i,k,m] Gh[j,m,l]
    Rhat = (dgh - dgh.transpose(0, 2, 1, 3, 4)
            + np.einsum("pjkm,piml->pijkl", gh, gh)
            - np.einsum("pikm,pjml->pijkl", gh, gh))

    # hat nabla K: dK + Gh K - K Gh - K Gh, all slots
    nabla_K = (dK + np.einsum("piml,pjkm->pijkl", gh, K)
               - np.einsum("pijm,pmkl->pijkl", gh, K)
               - np.einsum("pikm,pjml->pijkl", gh, K))

    position, tangent, second_vals = _values(comps), _values(tang), _values(second)
    h_inv_vals, xi_vals = _values(h_inv), _values(xi)
    dh_vals = np.moveaxis(dh[..., 0], 3, 1)       # dh[p, k, i, j] = d_k h_ij
    return BlaschkeFrame(
        u=points, position=position, tangent=tangent, second=second_vals,
        h=h_vals, h_inv=h_inv_vals, xi=xi_vals, gamma=gamma, gamma_hat=gh,
        K=K, C=C, S=S, H=H, Rhat=Rhat, nabla_K=nabla_K, dh=dh_vals, dK=dK,
        recon_residual=recon, normal_defect=defect)


# --- frame cache ----------------------------------------------------------


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _FrameCache:
    """LRU of entries [batch, row, one-point frame or None] keyed by
    (definition, point tuple). `misses` counts frames computed, one per
    frame; `hits` counts lookups it served."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.frames: dict = {}
        self.hits = self.misses = 0

    def get(self, key):
        entry = self.frames.pop(key, None)
        if entry is not None:
            self.frames[key] = entry      # most recently used goes last
            self.hits += 1
        return entry

    def put(self, key, batch: BlaschkeFrame, row: int) -> None:
        self.misses += 1
        self.frames[key] = [batch, row, None]
        if len(self.frames) > self.maxsize:
            del self.frames[next(iter(self.frames))]

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, self.maxsize, len(self.frames))

    def cache_clear(self) -> None:
        self.frames.clear()
        self.hits = self.misses = 0


_full_frame_cached = _FrameCache(maxsize=4096)


def _points(grid) -> list[tuple]:
    """Parameter points as tuples of floats, the point half of a cache
    key; an empty grid or a non-finite coordinate is a ValueError."""
    points = [tuple(float(x) for x in u) for u in grid]
    if not points:
        raise ValueError("no grid points")
    for u in points:
        if not all(map(math.isfinite, u)):
            raise ValueError(f"point {format_point(u)} is not finite")
    return points


def _gather(entries) -> BlaschkeFrame:
    """The rows entry[1] of the batches entry[0] as one batch: one gather
    per run of rows from one batch, or that batch if the run is all of it."""
    runs = [(batch, [e[1] for e in run])
            for batch, run in groupby(entries, lambda e: e[0])]
    if len(runs) == 1 and runs[0][1] == list(range(len(runs[0][0]))):
        return runs[0][0]
    return BlaschkeFrame(**{name: np.concatenate([
        getattr(batch, name)[rows] for batch, rows in runs])
        for name in BlaschkeFrame.__dataclass_fields__})


def _computed(definition: ImmersionDef, points: list[tuple]) -> BlaschkeFrame:
    """Compute the frames at `points` in one batch, cache a row of it per
    point and return it. When the batch fails, the points go one at a
    time, so the error raised is the one of the first failing point."""
    try:
        batch = _frame_batch(definition, np.array(points, dtype=float))
    except (GeometryError, JetDomainError):
        if len(points) == 1:
            raise
        return _gather([(_computed(definition, [u]), 0) for u in points])
    for row, u in enumerate(points):
        _full_frame_cached.put((definition, u), batch, row)
    return batch


def full_frame(definition: ImmersionDef, u) -> BlaschkeFrame:
    """Complete Blaschke frame at a point (order-4 jets), cached."""
    key = (definition, _points([u])[0])
    if _full_frame_cached.get(key) is None:
        _computed(definition, [key[1]])
    entry = _full_frame_cached.frames[key]
    if entry[2] is None:
        entry[2] = entry[0][entry[1]]     # made once: one object per key
    return entry[2]


def frames_on_grid(definition: ImmersionDef, grid) -> BlaschkeFrame:
    """The frames at every point of an iterable of parameter points, as
    one batch frame in grid order. The points missing from the cache are
    computed in one batch, returned itself when it is the whole grid."""
    points = _points(grid)
    found = [_full_frame_cached.get((definition, u)) for u in points]
    missing = list(dict.fromkeys(u for u, e in zip(points, found) if e is None))
    if missing:
        batch = _computed(definition, missing)
        rows = {u: (batch, row) for row, u in enumerate(missing)}
        found = [e or rows[u] for u, e in zip(points, found)]
    return _gather(found)


def clear_frame_cache() -> None:
    _full_frame_cached.cache_clear()
