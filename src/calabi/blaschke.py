"""Equiaffine (Blaschke) structure of a parametrized hypersurface.

Given an immersion phi: U subset R^n -> R^(n+1) and a point u, the
pipeline produces the affine metric h, the affine normal xi, the induced
and Levi-Civita connections, the difference tensor K = nabla - hat
nabla, the cubic form C = h(K(.,.),.), the shape operator S with
D_X xi = -S X, the curvature of h, and the covariant derivative of K.

The metric comes in closed form, h = |det G|^(-1/(n+2)) G with
G_ij = det(d_1 phi, ..., d_n phi, d_i d_j phi), the sign of G chosen so
that h is positive definite (K. Nomizu and T. Sasaki, Affine
Differential Geometry, Cambridge 1994, ch. II); xi = Laplace_h phi / n.

Everything is computed in exact truncated jet arithmetic: the component
jets of phi at order 4 are pushed through the same algebra one would
write on paper, and each differentiation lowers the jet order by one.
The orders work out so that S, the curvature tensor and hat nabla K are
still exact at the point; no finite differences are involved.

A batch holds the points of one or more definitions of one n: only the
component jets depend on the definition, and every later stage runs once
over all the rows, with jet matrices as (points, rows, cols, size) and
their products taken by `jets.matmul`. A jet matrix A = A0 + N, A0 its
constant term, is inverted as A^-1 = sum_{k <= order} (-A0^-1 N)^k A0^-1,
exact at the jet order since N has no constant term, so LAPACK only
inverts the A0. The cross product and det G use a division-free Laplace
expansion: minors that vanish at a point are harmless.

Frames are cached per (definition, point) in an LRU of 4096 entries,
`_full_frame_cached`, as rows of the batches that computed them, or that
`homothetic_frames` mapped from the frames of phi to those of c phi;
`cache_info().misses` counts one miss per frame computed. `frames_on_grid`
computes only its misses, in one batch, and returns the grid as one batch
with a leading grid-point axis (the computed batch, or a slice of it,
when the grid is a run of its rows); `cache_frames` computes the grids
of several definitions in one batch, as extraction does for the factors
of a pair. `full_frame` is the one-point case.

Index conventions for the stored arrays: tensors with one contravariant
slot keep it last, so gamma[i, j, k] is Gamma^k_ij, K[i, j, k] is
K^k_ij, Rhat[i, j, k, l] is the l-component of R(d_i, d_j) d_k, and
nabla_K[i, j, k, l] is the l-component of (hat nabla_{d_i} K)(d_j, d_k).
S[k, i] is the matrix with S(d_i) = S[k, i] d_k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import suppress
from functools import lru_cache
from itertools import combinations, groupby

import numpy as np

from . import numerics
from .dsl import ImmersionDef
from .jets import (Jet, JetDomainError, eval_jets, grad, grad0, matmul, mul,
                   space_of)


class GeometryError(ValueError):
    pass


class DegenerateSurfaceError(GeometryError):
    """Tangent map drops rank or the second fundamental form degenerates."""


class IndefiniteMetricError(GeometryError):
    """The form G, h up to a factor, is indefinite; the pipeline requires
    a locally convex (definite) hypersurface."""


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
    size = a.shape[-1] if b is None else min(a.shape[-1], b.shape[-1])
    a, a0 = a[..., :size], a[..., 0]
    try:
        inv0 = np.linalg.inv(a0)
    except np.linalg.LinAlgError:
        inv0 = np.full(a0.shape, np.inf)
    # the conditioning of A0, not the size of its pivots: scale free
    cond = abs(a0).sum(-1).max(-1) * abs(inv0).sum(-1).max(-1)
    if not (cond <= 1e13).all():
        raise DegenerateSurfaceError("singular jet system (degenerate frame)")
    if b is None:
        y = np.zeros(a.shape)
        y[..., 0] = inv0
    else:
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


MetricNormal = namedtuple("MetricNormal", "h xi")


class BlaschkeFrame:
    """Full second-order equiaffine data of an immersion at one point, or
    at P grid points with a leading grid-point axis on every field: u is
    then (P, n) and H, recon_residual and normal_defect are (P,). A
    batch has len P, and batch[p] is the frame at point p (a slice or an
    index array gives a smaller batch). Read-only; built from FIELDS, in
    order, by position or by name."""

    FIELDS = (
        "u", "position",
        "tangent",           # rows are d_i phi
        "second",            # second[i, j] = d_i d_j phi, ambient vectors
        "h", "h_inv",
        "basis",             # h-orthonormal columns, basis^T h basis = id
        "K_ortho",           # C(b_i, b_j, b_k) over the columns b of basis
        "xi",
        "gamma",             # induced connection
        "gamma_hat",         # Levi-Civita connection of h
        "K",                 # difference tensor
        "C",                 # cubic form, fully covariant
        "S",                 # shape operator as a matrix
        "H",                 # affine mean curvature trace(S)/n, a float
        "Rhat",              # curvature of h
        "nabla_K",           # hat nabla K
        "dh",                # dh[k, i, j] = d_k h_ij
        "dK",                # dK[m, i, j, k] = d_m K^k_ij
        "recon_residual",    # | d_i d_j phi - Gamma d phi - h xi |, a float
        "normal_defect",     # transversal part of d_i xi, a float
    )
    __slots__ = FIELDS + ("__weakref__",)

    def __init__(self, *args, **kwargs):
        values = dict(zip(self.FIELDS, args), **kwargs)
        if (len(values) != len(args) + len(kwargs)
                or values.keys() != set(self.FIELDS)):
            raise TypeError(f"BlaschkeFrame takes the fields {self.FIELDS}")
        for name in self.FIELDS:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"BlaschkeFrame is read-only: cannot set {name!r}")

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __reduce__(self):
        return BlaschkeFrame, tuple(self._asdict().values())

    @property
    def n(self) -> int:
        return self.tangent.shape[-2]

    def __len__(self) -> int:
        return len(self.H)

    def __getitem__(self, p) -> "BlaschkeFrame":
        rows = [getattr(self, name)[p] for name in self.FIELDS]
        return BlaschkeFrame(*[row if np.ndim(row) else float(row)
                               for row in rows])


# --- pipeline -------------------------------------------------------------


def _component_jets(definition: ImmersionDef, points, order: int) -> np.ndarray:
    """Component jets at a batch of points, shape (P, n + 1, size)."""
    n = definition.nvars
    if definition.ncomponents != n + 1:
        raise ArityError(
            f"hypersurface needs {n + 1} components for {n} variables, "
            f"got {definition.ncomponents}")
    out = np.zeros((len(points), n + 1, math.comb(n + order, order)))
    for k, c in enumerate(eval_jets(definition, points, order)):
        out[:, k] = c.c if isinstance(c, Jet) else Jet.constant(c, n, order).c
    return out


def _metric_and_levi(comps: np.ndarray, n: int):
    """Tangent and second-derivative jets, the affine metric h, its
    inverse, dh, the Levi-Civita connection and the affine normal, with
    h = |det G|^(-1/(n+2)) G, G_ij = zhat . d_i d_j phi (Nomizu and Sasaki
    1994). G carries the tangent volume, so its definiteness and
    degeneracy are judged at unit size, on G / max|G|."""
    P = comps.shape[0]
    tang = grad(comps, n).swapaxes(1, 2)          # tang[p, i, a] = d_i phi^a
    idx = np.arange(n)
    second = grad(tang, n).swapaxes(2, 3)         # second[p, i, j, a]
    second = second[:, np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)]

    # zhat . v = det(d_1 phi, ..., d_n phi, v): zhat_a is (-1)^(n+a) times
    # the minor without column a, at the order of the second derivatives
    low = tang[..., : second.shape[-1]]
    signs = (-1.0) ** (n + np.arange(n + 1))
    zhat = _minors(low, n)[:, ::-1] * signs[:, None]
    # |zhat| is the volume of the tangent vectors, at most prod_i |d_i phi|
    norm2 = (zhat[..., 0] ** 2).sum(1)
    lengths2 = (tang[..., 0] ** 2).sum(2).prod(1)
    if (norm2 <= 1e-20 * lengths2).any():
        raise DegenerateSurfaceError("tangent map is degenerate at this point")

    G = matmul(second.reshape(P, n * n, n + 1, -1), zhat[:, :, None],
               n).reshape(P, n, n, -1)
    scale = abs(G[..., 0]).max((1, 2))
    G = G / np.where(scale > 0.0, scale, 1.0)[:, None, None, None]
    eig = np.linalg.eigvalsh(G[..., 0])           # symmetric by construction
    flip = (eig < -1e-12).all(1)
    if not (flip | (eig > 1e-12).all(1)).all():
        raise IndefiniteMetricError(
            "tentative second fundamental form is not definite")
    G = G * np.where(flip, -1.0, 1.0)[:, None, None, None]
    det_g = _minors(G, n)[:, 0]
    if (abs(det_g[:, 0]) < 1e-12).any():
        raise DegenerateSurfaceError("second fundamental form is degenerate")

    # Blaschke normalization at unit size, the scale restored: G = scale G1
    # gives |det G|^(-1/(n+2)) G = scale^(2/(n+2)) |det G1|^(-1/(n+2)) G1
    factor = Jet(space_of(n, det_g.shape[-1]), det_g) ** (-1.0 / (n + 2))
    factor = factor.c * (scale ** (2.0 / (n + 2)))[:, None]
    h = mul(factor[:, None, None], G, n)
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


def _orthonormal(h: np.ndarray, C: np.ndarray) -> dict:
    """The h-orthonormal basis B of each h of a batch and K_ortho = C(B, B, B)."""
    try:
        basis = numerics.metric_orthonormal_basis(h)
    except numerics.NotPositiveDefiniteError as exc:
        raise IndefiniteMetricError(f"affine {exc}") from None
    b_t = basis.swapaxes(1, 2)
    c_b = (b_t[:, None] @ C @ basis[:, None]).reshape(C.shape[:2] + (-1,))
    return dict(basis=basis, K_ortho=(b_t @ c_b).reshape(C.shape))


def _frame_batch(parts) -> BlaschkeFrame:
    """Complete Blaschke frames (order-4 jets) at the points of each
    (definition, points) part, definitions of one n, as one batch with the
    rows of the parts in order; only the component jets are per part."""
    n = parts[0][0].nvars
    points = np.concatenate([pts for _, pts in parts])
    P = len(points)
    comps = np.concatenate([_component_jets(d, pts, 4) for d, pts in parts])
    tang, second, h, h_inv, dh, gamma_hat, xi = _metric_and_levi(comps, n)

    # induced connection: decompose second derivatives against (d phi, xi)
    basis = np.concatenate([tang[..., :xi.shape[-1]], xi[:, None]], 1).swapaxes(1, 2)
    sol = _solve(basis, second.reshape(P, n * n, n + 1, -1).swapaxes(1, 2), n)
    gamma = _values(sol[:, :n]).reshape(P, n, n, n).transpose(0, 2, 3, 1)
    recon = abs(sol[:, n, :, 0] - h[..., 0].reshape(P, n * n)).max(1)
    K_jets = (sol[:, :n].reshape(P, n, n, n, -1).transpose(0, 2, 3, 1, 4)
              - gamma_hat[..., : sol.shape[-1]])
    K, gh, h_vals = _values(K_jets), _values(gamma_hat), _values(h)
    C = K @ h_vals[:, None]

    # shape operator from d_i xi = -S^k_i d_k phi (+ transversal defect)
    coeffs = np.linalg.solve(basis[..., 0], grad0(xi, n))
    S = -coeffs[:, :n]
    defect = abs(coeffs[:, n]).max(1)
    H = S.trace(axis1=1, axis2=2) / n

    # derivative tensors, derivative index first: dK[p, m, i, j, k] = d_m K^k_ij
    dgh = grad0(gamma_hat, n).transpose(0, 4, 1, 2, 3)
    dK = grad0(K_jets, n).transpose(0, 4, 1, 2, 3)

    # curvature R = A - A^(ij), A[i,j,k,l] = d_i Gh[j,k,l] + Gh[j,k,m] Gh[i,m,l]
    A = dgh + gh[:, None] @ gh[:, :, None]
    Rhat = A - A.swapaxes(1, 2)

    # hat nabla K: dK + Gh K - K Gh - K Gh, all slots; K is symmetric in its
    # lower slots, so the last term is the one before with j and k swapped
    gh_k = (gh @ K.reshape(P, 1, n, n * n)).reshape(P, n, n, n, n)
    nabla_K = dK + K[:, None] @ gh[:, :, None] - gh_k - gh_k.swapaxes(2, 3)

    position, tangent, second_vals = _values(comps), _values(tang), _values(second)
    h_inv_vals, xi_vals = _values(h_inv), _values(xi)
    dh_vals = dh[..., 0].transpose(0, 3, 1, 2)    # dh[p, k, i, j] = d_k h_ij
    return BlaschkeFrame(
        u=points, position=position, tangent=tangent, second=second_vals,
        h=h_vals, h_inv=h_inv_vals, **_orthonormal(h_vals, C), xi=xi_vals,
        gamma=gamma, gamma_hat=gh, K=K, C=C, S=S, H=H, Rhat=Rhat, dh=dh_vals,
        nabla_K=nabla_K, dK=dK, recon_residual=recon, normal_defect=defect)


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
    """The rows of a point array (or sequence) as tuples of floats, the
    point half of a cache key; no rows or a non-finite one: ValueError."""
    points = np.asarray(grid, dtype=float)
    if not len(points):
        raise ValueError("no grid points")
    finite = np.isfinite(points).all(axis=-1)
    if not finite.all():
        raise ValueError(
            f"point {format_point(points[np.argmin(finite)])} is not finite")
    return list(map(tuple, points.tolist()))


def _gather(entries) -> BlaschkeFrame:
    """The rows entry[1] of the batches entry[0] as one batch: that batch
    or a slice of it when the rows are consecutive rows of one batch,
    else one gather per run of rows from one batch."""
    runs = [(batch, [e[1] for e in run])
            for batch, run in groupby(entries, lambda e: e[0])]
    batch, rows = runs[0]
    if len(runs) == 1 and rows == list(range(rows[0], rows[0] + len(rows))):
        return batch if len(rows) == len(batch) else batch[rows[0]:rows[-1] + 1]
    return BlaschkeFrame(*[np.concatenate([
        getattr(batch, name)[rows] for batch, rows in runs])
        for name in BlaschkeFrame.FIELDS])


def _computed(parts, one_by_one: bool = True) -> BlaschkeFrame:
    """Compute the frames at the points of each (definition, point tuples)
    part in one batch, cache each row under its definition and return the
    batch. A failed batch goes one point at a time, so the error raised
    is that of the first failing point, unless not `one_by_one`."""
    keys = [(d, u) for d, points in parts for u in points]
    try:
        batch = _frame_batch([(d, np.array(points, dtype=float))
                              for d, points in parts])
    except (GeometryError, JetDomainError):
        if len(keys) == 1 or not one_by_one:
            raise
        return _gather([(_computed([(d, [u])]), 0) for d, u in keys])
    _full_frame_cached.misses += len(keys)
    for row, key in enumerate(keys):
        _full_frame_cached.put(key, batch, row)
    return batch


def cache_frames(items) -> None:
    """Compute the frames missing from the cache at the points of each
    (definition, grid) of `items`, one batch per n, each row cached under
    its own definition. A failed batch caches nothing: each definition
    then computes its frames, and raises its error, on its own."""
    groups = {}
    for definition, grid in items:
        missing = [u for u in dict.fromkeys(_points(grid))
                   if (definition, u) not in _full_frame_cached.frames]
        if missing:
            groups.setdefault(definition.nvars, []).append((definition, missing))
    for parts in groups.values():
        with suppress(GeometryError, JetDomainError):
            _computed(parts, one_by_one=False)


def full_frame(definition: ImmersionDef, u) -> BlaschkeFrame:
    """Complete Blaschke frame at a point (order-4 jets), cached."""
    key = (definition, _points([u])[0])
    if _full_frame_cached.get(key) is None:
        _computed([(definition, [key[1]])])
    entry = _full_frame_cached.frames[key]
    if entry[2] is None:
        entry[2] = entry[0][entry[1]]     # made once: one object per key
    return entry[2]


def blaschke_metric_and_normal(definition: ImmersionDef, u) -> MetricNormal:
    """Affine metric and affine normal at a point, read from `full_frame`."""
    frame = full_frame(definition, u)
    return MetricNormal(h=frame.h, xi=frame.xi)


def frames_on_grid(definition: ImmersionDef, grid) -> BlaschkeFrame:
    """The frames at every point of an array or sequence of points, as
    one batch frame in grid order. The points missing from the cache are
    computed in one batch, returned itself when it is the whole grid."""
    points = _points(grid)
    found = [_full_frame_cached.get((definition, u)) for u in points]
    missing = list(dict.fromkeys(u for u, e in zip(points, found) if e is None))
    if missing:
        batch = _computed([(definition, missing)])
        rows = {u: (batch, row) for row, u in enumerate(missing)}
        found = [e or rows[u] for u, e in zip(points, found)]
    return _gather(found)


def homothetic_frames(scaled: ImmersionDef, frames: BlaschkeFrame,
                      c: float) -> BlaschkeFrame:
    """The frames of `scaled` = c phi mapped from `frames`, those of phi,
    and cached as rows of the mapped batch where a point has no entry yet.
    With a = 2(n+1)/(n+2), h, C, dh and recon_residual scale by c^a, h_inv,
    S and H by c^-a, position, tangent and second by c and xi by c^(1-a);
    the rest does not change (K. Nomizu and T. Sasaki, Affine Differential
    Geometry, Cambridge 1994, ch. II); basis and K_ortho are formed again."""
    a = 2.0 * (frames.n + 1) / (frames.n + 2)
    powers = dict(h=a, C=a, dh=a, recon_residual=a, h_inv=-a, S=-a, H=-a,
                  position=1.0, tangent=1.0, second=1.0, xi=1.0 - a)
    fields = {name: getattr(frames, name) * c ** e
              for name, e in powers.items()}
    mapped = BlaschkeFrame(**{**frames._asdict(), **fields,
                              **_orthonormal(fields["h"], fields["C"])})
    for row, u in enumerate(_points(mapped.u)):
        if (scaled, u) not in _full_frame_cached.frames:
            _full_frame_cached.put((scaled, u), mapped, row)
    return mapped


def clear_frame_cache() -> None:
    _full_frame_cached.cache_clear()
