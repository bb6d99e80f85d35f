"""Detection and extraction of product structure from the difference tensor.

Given a hyperbolic affine sphere, the pipeline is: rescale to mean
curvature -1 (in closed form, with the frames mapped by the homothety
law rather than computed again; see `normalize_homothety`), locate axis
candidates T with K(T,T) = lambda1 T among h-unit directions, classify
the spectrum of K_T, and test the eigenvalue relations that
characterize the two product patterns:

  one cluster  {lambda2 > 0}                    point product
  two clusters {lambda2 > 0 > lambda3}          pair product

In either pattern the factors are recovered pointwise from

  phi2 = f (-lambda3 phi + T),   phi3 = g (lambda2 phi - T),

with f = d1 exp(-lambda2 t), g = d2 exp(-lambda3 t) along the axis flow
(for point products lambda3 stands for the formal value lambda1 -
lambda2 belonging to the empty second block).  All structural checks on
phi2/phi3 are pointwise derivative identities, so no integration of the
axis flow is needed; d1 and d2 are the axis-translation gauge measured
relative to the d1 = d2 = 1 constants the constructors emit.

Axes are solved as y = B^-1 T in the h-orthonormal basis B of a frame,
unit Z-eigenvectors of K_ortho = C(B, B, B) (L. Qi, J. Symbolic Comput.
40, 2005), which a linear change of the parameters does not move. One
function, `_gate`, classifies and tests every structure as arrays, a
stack of (frame row, axis) pairs in one eigensolve: the candidates of
the one search of a base frame (memoized by `_axis_structures`) and the
points `_track` continues the axis to, in rounds of one batched Newton
solve seeded from accepted neighbours. A Newton row stops at a singular
Jacobian, when backtracking cannot reduce |F|, or at |F| <= 1e-13
(fails above 1e-11), all read in y. Grid frames are one batch
(`blaschke.frames_on_grid`): arrays carry a leading point axis.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from . import blaschke, checks, numerics
from .blaschke import BlaschkeFrame, GeometryError
from .checks import CheckReport
from .construct import base_coefficients
from .dsl import (ImmersionDef, const, eval_components, mul, substitute,
                  _free_vars)
from .jets import JetDomainError

QUADRIC_K_TOL = 1e-7
QUADRIC_NOTE = "K ≈ 0: quadric, no canonical axis"
CLUSTER_GAP = 1e-6
MARGIN_MIN = 1e-3


class NotHyperbolicError(GeometryError):
    """Mean curvature is not negative."""


class VerdictError(ValueError):
    """Extraction called with an incompatible verdict."""


# ---------------------------------------------------------------------------
# homothety normalization


HomothetyResult = namedtuple("HomothetyResult", "def_scaled scale")


def _scaled_def(defn: ImmersionDef, c: float) -> ImmersionDef:
    comps = tuple(mul(const(c), comp) for comp in defn.components)
    return ImmersionDef(name=defn.name, vars=defn.vars, components=comps,
                        provenance=defn.provenance)


def normalize_homothety(defn: ImmersionDef, grid) -> HomothetyResult:
    """Rescale phi -> c phi so the mean curvature becomes -1.

    H(c phi) = c^(-2(n+1)/(n+2)) H(phi) (Nomizu and Sasaki 1994) gives c
    from H at the first point of `grid`. The grid's frames are computed
    once, at the input scale, and mapped to those of c phi
    (`blaschke.homothetic_frames`), which callers read next.
    """
    n = defn.nvars
    frames = blaschke.frames_on_grid(defn, grid)
    h0 = float(frames.H[0])
    if h0 >= 0.0:
        raise NotHyperbolicError(
            f"{defn.name!r} has H = {h0:.6g} >= 0 at "
            f"{blaschke.format_point(frames.u[0])}; only hyperbolic "
            "spheres can be rescaled to H = -1")
    scale = abs(h0) ** ((n + 2) / (2.0 * (n + 1)))
    if abs(scale - 1.0) < 1e-12:
        return HomothetyResult(def_scaled=defn, scale=1.0)
    scaled = _scaled_def(defn, scale)
    blaschke.homothetic_frames(scaled, frames, scale)
    return HomothetyResult(def_scaled=scaled, scale=float(scale))


# ---------------------------------------------------------------------------
# axis search


class CandidateAxis(namedtuple("CandidateAxis", "T lambda1 axis_residual y",
                               defaults=(None,))):
    """h-unit direction T with K(T,T) = lambda1 T, and T = B y in the
    h-orthonormal basis B of its frame (y None for an axis made by hand)."""

    __slots__ = ()

    def flipped(self) -> "CandidateAxis":
        return CandidateAxis(-self.T, -self.lambda1, self.axis_residual,
                             None if self.y is None else -self.y)


def _axis_system(k_ortho: np.ndarray, y: np.ndarray):
    """mu = K_ortho(y, y, y), F = (K_ortho(y, y) - mu y, (1 - |y|^2) / 2)
    and its Jacobian in (y, mu), [[2 K_ortho(y) - mu I, -y], [-y^T, 0]],
    which is symmetric, for the rows y with K_ortho of one point or one per
    row: K(X,X) = mu X, h(X,X) = 1 in y = B^-1 X, as (F, J, mu). Stacked
    matmuls round as one row alone does, so a row solves alike in any
    stack."""
    n = y.shape[-1]
    k_y = (y[..., None, :] @ k_ortho.reshape(k_ortho.shape[:-2] + (n * n,))
           ).reshape(y.shape + (n,)).swapaxes(-1, -2)   # y^i K_ortho[i, j, k]
    k_yy = (k_y @ y[..., None])[..., 0]
    mu = (y[..., None, :] @ k_yy[..., None])[..., 0]
    y_y = (y[..., None, :] @ y[..., None])[..., 0]
    f = np.concatenate([k_yy - mu * y, 0.5 - 0.5 * y_y], axis=-1)
    jac = np.zeros(y.shape[:-1] + (n + 1, n + 1))
    jac[..., :n, :n] = 2.0 * k_y - mu[..., None] * np.eye(n)
    jac[..., :n, n] = jac[..., n, :n] = -y
    return f, jac, mu[..., 0]


def _repeated(frame: BlaschkeFrame, rows: int) -> SimpleNamespace:
    """A one-point frame's u, basis and K_ortho as `rows` equal rows."""
    fields = {name: getattr(frame, name) for name in ("u", "basis", "K_ortho")}
    return SimpleNamespace(**{name: np.broadcast_to(v, (rows,) + v.shape)
                              for name, v in fields.items()})


def _fields(frames: BlaschkeFrame, rows: np.ndarray):
    """The batch, or the u, h, basis and K_ortho of some of its rows."""
    return frames if len(rows) == len(frames) else SimpleNamespace(**{
        name: getattr(frames, name)[rows]
        for name in ("u", "h", "basis", "K_ortho")})


def _norms(f: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as np.linalg.norm of one row."""
    return np.sqrt((f[..., None, :] @ f[..., None])[..., 0, 0])


def _classes(mu: np.ndarray, y: np.ndarray) -> dict:
    """{key: (first row r, sign s)} of each class of solutions (mu, y), y
    unit: s y has its first |y_i| > 1e-8 positive; key (s mu, s y), 7 digits."""
    sign = np.sign(y[np.arange(len(y)), np.argmax(np.abs(y) > 1e-8, axis=1)])
    keys = np.round(sign[:, None] * np.column_stack([mu, y]), 7).tolist()
    return {tuple(key): (r, s) for r, s, key in reversed(
        list(zip(range(len(y)), sign.tolist(), keys)))}


def _solve_axis(frames, y0, classes: int = 0) -> list[CandidateAxis | None]:
    """The axis T = B y a damped Newton solve of `_axis_system` reaches
    from each row of y0, (R, n), in the basis B of frames[r]. The rows
    share one batched linear solve per iteration and each backtracks on
    its own, trial points put back on the unit sphere. A row stops at
    |F| <= 1e-13, at a singular Jacobian (an |eigenvalue| <= 1e-13 times
    the largest, the conditioning bound of `blaschke._solve`), or when
    backtracking cannot reduce |F|, which past 1e-13 is the rounding floor
    of its point; None if it stops with |F| above 1e-11, or still runs
    once rows at |F| <= 1e-13 with a regular Jacobian (each |eigenvalue|
    above 1e-6 times the largest: isolated solutions, not points of a
    curve as on a quadric factor) hold `classes` `_classes`."""
    k_ortho, y = frames.K_ortho, np.array(y0, dtype=float)
    f, jac, mu = _axis_system(k_ortho, y)
    norm = _norms(f)
    stopped, held = np.zeros(len(y), dtype=bool), 0
    for _ in range(80):
        rows, conv = np.flatnonzero(~stopped & (norm > 1e-13)), norm <= 1e-13
        # converged rows stay as they are: key them again only when more
        grew, held = np.count_nonzero(conv) > held, np.count_nonzero(conv)
        if grew and 0 < classes <= held and classes <= len(_classes(
                mu[conv], y[conv])):
            ev = np.abs(np.linalg.eigvalsh(jac[conv]))
            iso = ev.min(axis=1) > 1e-6 * ev.max(axis=1)
            if classes <= len(_classes(mu[conv][iso], y[conv][iso])):
                norm[rows] = np.inf
                break
        if rows.size:
            ev = np.abs(np.linalg.eigvalsh(jac[rows]))
            singular = ev.min(axis=1) <= 1e-13 * ev.max(axis=1)
            stopped[rows[singular]], rows = True, rows[~singular]
        if rows.size == 0:
            break
        step = np.linalg.solve(jac[rows], -f[rows, :, None])[..., 0]
        damp = np.ones(len(rows))
        for _ in range(40):
            y_new = y[rows] + damp[:, None] * step[:, :-1]
            y_new /= _norms(y_new)[:, None]
            f_new, jac_new, mu_new = _axis_system(k_ortho[rows], y_new)
            norm_new = _norms(f_new)
            ok = ((norm_new < norm[rows] * (1.0 - 1e-4 * damp))
                  | (norm_new <= 1e-13))
            done = rows[ok]
            y[done], mu[done], f[done], jac[done], norm[done] = (
                y_new[ok], mu_new[ok], f_new[ok], jac_new[ok], norm_new[ok])
            rows, step, damp = rows[~ok], step[~ok], 0.5 * damp[~ok]
            if rows.size == 0:
                break
        stopped[rows] = True
    resid, t = _norms(f[:, :-1]), (frames.basis @ y[..., None])[..., 0]
    return [CandidateAxis(T=t[r], lambda1=float(mu[r]),
                          axis_residual=float(resid[r]), y=y[r])
            if norm[r] <= 1e-11 else None
            for r in range(len(y))]


def _random_seeds(n: int, count: int, seed: int) -> np.ndarray:
    """`count` unit rows of the seed's standard normal draws in R^n."""
    v = np.random.default_rng(seed).standard_normal((max(count, 0), n))
    return v / _norms(v)[:, None]


def find_axes(frame: BlaschkeFrame, restarts: int = 32,
              seed: int = 42) -> list[CandidateAxis]:
    """All h-unit solutions of K(X,X) = mu X found from seeded restarts,
    solved in y = B^-1 X together in one batched Newton call: the basis
    vectors e_i, then the seed's normalized standard normal draws.

    y and -y solve together (with mu and -mu), so solutions are
    deduplicated by fixing the sign of the first significant coordinate
    of y, and ordered by that rounded key (mu, then y, to 7 digits),
    which rounding in the solve does not change. It stops once 2^n - 1
    keys are isolated solutions (a regular Jacobian): besides [0 : 1] the
    n quadrics K(x, x) = t x of P^n meet in at most 2^n - 1 isolated
    points, even where curves of solutions, which do not count, run
    through a quadric factor (refined Bezout theorem, W. Fulton,
    Intersection Theory, 12.3; with finitely many classes, 2^n - 1 with
    multiplicity: D. Cartwright and B. Sturmfels, Linear Algebra Appl. 438,
    2013). Newton handles mu = 0 axes, which pure ascent on the cubic
    misses. The pipeline searches only its base frames, each once, via
    `_axis_structures`."""
    seeds = np.concatenate([np.eye(frame.n), _random_seeds(
        frame.n, restarts - frame.n, seed)])
    axes = list(filter(None, _solve_axis(_repeated(frame, len(seeds)), seeds,
                                         2 ** frame.n - 1)))
    return [axes[r].flipped() if s < 0.0 else axes[r] for _, (r, s) in sorted(
        _classes(np.array([a.lambda1 for a in axes]),
                 np.reshape([a.y for a in axes], (-1, frame.n))).items())]


def is_quadric(frames: BlaschkeFrame) -> bool:
    """Whether K ≈ 0 at every frame: by the Pick-Berwald theorem the
    surface is then a quadric, with no canonical axis. |K| is read in the
    h-orthonormal basis, as |K_ortho|, which no change of coordinates
    moves, so a rescaled parameter does not make K look small."""
    k_sq = np.sum(frames.K_ortho ** 2, axis=(-3, -2, -1))
    return float(np.max(k_sq)) <= QUADRIC_K_TOL ** 2


# ---------------------------------------------------------------------------
# spectrum classification


class SpectralStructure(namedtuple(
        "SpectralStructure", "axis clusters n2 n3 lambda2 lambda3 "
        "cross_residual relation_residuals pattern")):
    """Eigenstructure of K_T split off the axis eigenpair (a CandidateAxis).

    `clusters` holds (eigenvalue, multiplicity, basis) triples, ascending,
    each basis an array of h-orthonormal rows in parameter coordinates;
    lambda2 and lambda3 are None where the pattern has no such block;
    `relation_residuals` maps each eigenvalue relation to its residual;
    `pattern` is "point", "pair" or "unclassified" for any other spectrum."""

    __slots__ = ()

    @property
    def lambda1(self) -> float:
        return self.axis.lambda1


def _cross_residual(k_ortho: np.ndarray, basis2, basis3):
    """Largest h-norm of K(V, W) over the rows v, w of the two bases, in
    the h-orthonormal basis: the norm of K_ortho(v, w)."""
    kvw = np.einsum("...ijk,...ai,...bj->...abk", k_ortho, basis2, basis3)
    return np.max(_norms(kvw), axis=(-2, -1), initial=0.0)


# the tests of a product structure in the order `_gate` applies them; the
# last one is the tracker's
GATE_TESTS = ("axis", "shape", "thm1", "sum", "prod", "apolar", "cross",
              "orientation")


def _pattern(n2, n3) -> str:
    return "unclassified" if not n2 else "pair" if n3 else "point"


class Gated(namedtuple("Gated", "y rows means lams n2 n3 tests")):
    """`_gate`'s structures, one per row: the oriented axis y = B^-1 T;
    the rows [T | V | W], T and the eigenvectors of K_T in parameter
    coordinates, cluster by cluster, the top one of the unoriented K_T
    first; the oriented mean of each one's cluster; (lambda1, the first
    and the last of those means); n2 and n3, 0 when unclassified; and the
    residuals of the first seven GATE_TESTS (0 where none applies)."""

    __slots__ = ()

    def failures(self, tol: float, shape=None, y_ref=None):
        """The index in GATE_TESTS of the first test each row fails, or
        len(GATE_TESTS), and its residual (h for a row that passes): the
        residuals against tol; the shape, (n2, n3) = `shape` or else any
        product pattern; with y_ref, the rows of T_ref in each row's basis,
        h(T, T_ref) = y.y_ref >= 0."""
        h = (np.full((len(self.y), 1), np.inf) if y_ref is None
             else (self.y[:, None] @ y_ref[..., None])[:, 0])
        bad = np.concatenate([self.tests > tol, h < 0.0], axis=1)
        bad[:, 1] = (self.n2 == 0 if shape is None else
                     (self.n2 != shape[0]) | (self.n3 != shape[1]))
        first = np.where(bad.any(axis=1), bad.argmax(axis=1), len(GATE_TESTS))
        return first, np.concatenate([self.tests, h, h], axis=1)[
            np.arange(len(h)), first]

    def refusal(self, p: int, tol: float, shape=None, y_ref=None, ref="T_ref"):
        """The note of the first test row p fails; ref names y_ref's axis."""
        failed, resid = self.failures(tol, shape, y_ref)
        test, r = GATE_TESTS[failed[p]], resid[p]
        n2, n3 = self.n2[p], self.n3[p]
        if test == "shape":
            want = ("{} ({}, {})".format(_pattern(*shape), *shape) if shape
                    else "a product pattern")
            return "axis spectrum is {} ({}, {}), not {}".format(
                _pattern(n2, n3), n2, n3, want)
        if test == "orientation":
            return f"h(T, {ref}) = {r:.3g} < 0"
        name = {"axis": "axis residual", "cross": "cross residual K(V, W)"}
        return (f"{name.get(test, 'eigenvalue relation ' + test)} {r:.3g} "
                f"exceeds tolerance {tol:.3g}")


def _gate(frames, axes) -> Gated:
    """The structure of K_T at frames[p] for T = axes[p], for every row at
    once, with the residuals `Gated.failures` holds to a tolerance.

    One eigensolve of B^T K_T B = K_ortho(y), T = B y, gives the spectrum
    beside T (the eigenvector closest to y split off), cut into clusters
    at steps larger than CLUSTER_GAP. T is oriented so that the top
    cluster is not negative (K_(-T) = -K_T). One cluster is the point
    pattern, two the pair pattern if lambda2 > 0 > lambda3; the tests of
    a pattern are its eigenvalue relations (which with the shape fix the
    eigenvalues) and the cross block K(V, W). Rows with the same cuts
    share arrays, so a row rounds alike in any stack."""
    y, t, lam1, resid = (np.array([getattr(axis, name) for axis in axes])
                         for name in ("y", "T", "lambda1", "axis_residual"))
    reduced = (y[:, None] @ frames.K_ortho.reshape(y.shape + (-1,))).reshape(
        y.shape + y.shape[1:])                    # y^i K_ortho[i, j, k]
    try:
        eig = numerics.solve_sym_eig_generalized(reduced)
    except numerics.AsymmetricMatrixError as exc:
        point = blaschke.format_point(frames.u[exc.index[0]])
        raise numerics.AsymmetricMatrixError(
            f"K_T at grid point {point}: {exc}") from None
    overlap = np.abs((y[:, None] @ eig.vectors)[:, 0])
    is_t = np.arange(y.shape[1]) == np.argmax(overlap, axis=1)[:, None]
    keep = np.argsort(is_t, axis=1, kind="stable")[:, :-1]
    values = np.take_along_axis(eig.values, keep, axis=1)
    vectors = np.take_along_axis(eig.vectors, keep[:, None], axis=2)
    (npts, m), cuts = values.shape, np.diff(values, axis=1) > CLUSTER_GAP
    rows, means = np.empty((npts,) + t.shape[1:] * 2), np.empty_like(values)
    sign, tests = np.empty((npts, 1)), np.zeros((npts, len(GATE_TESTS) - 1))
    n2s, n3s = np.zeros(npts, int), np.zeros(npts, int)
    keys = cuts @ (1 << np.arange(m - 1))    # rows with the same cuts
    for key in sorted(set(keys.tolist())):
        at = np.flatnonzero(keys == key)
        bounds = [0, *(np.flatnonzero(cuts[at[0]]) + 1).tolist(), m]
        down = list(zip(bounds[-2::-1], bounds[:0:-1]))    # the top first
        order = np.concatenate([np.arange(a, b) for a, b in down])
        v, mu = values[at], np.empty((len(at), m))
        for a, b in down:   # summed as np.mean sums a slice
            mu[:, a:b] = (np.add.reduce(v[:, a:b], axis=1) / (b - a))[:, None]
        sign[at] = s = np.where(mu[:, -1:] < 0.0, -1.0, 1.0)
        means[at] = mu = s * mu[:, order]
        vw = np.swapaxes(vectors[at][..., order], 1, 2)     # rows [V | W]
        rows[at, 1:] = vw @ np.swapaxes(frames.basis[at], 1, 2)
        if len(down) > 2:
            continue
        n3 = bounds[1] if len(down) == 2 else 0
        ok = (mu[:, -1] < 0.0) & (0.0 < mu[:, 0]) if n3 else slice(None)
        at, n2, vw = at[ok], m - n3, vw[ok]
        lam1_at, lam2, lam3 = s[ok, 0] * lam1[at], mu[ok, 0], mu[ok, -1]
        n2s[at], n3s[at] = n2, n3
        tests[at, 2] = abs(1.0 + lam1_at * lam2 - lam2 ** 2)
        tests[at, 5] = abs(lam1_at + n2 * lam2 + n3 * lam3)
        if n3:
            tests[at, 3] = abs(lam1_at - lam2 - lam3)
            tests[at, 4] = abs(lam2 * lam3 + 1.0)
            tests[at, 6] = _cross_residual(frames.K_ortho[at], vw[:, :n2],
                                           vw[:, n2:])
    rows[:, 0], tests[:, 0] = sign * t, resid
    return Gated(sign * y, rows, means, np.stack(
        [sign[:, 0] * lam1, means[:, 0], means[:, -1]], axis=1), n2s, n3s,
        tests)


def _spectral_structure(g: Gated, p: int) -> SpectralStructure:
    """Row p of `_gate` as the one `SpectralStructure` a verdict, the
    theorem 3 gate or `calabi analyze` reports."""
    n2, n3 = int(g.n2[p]), int(g.n3[p])
    pattern = _pattern(n2, n3)
    means, first, mults = np.unique(g.means[p], return_index=True,
                                    return_counts=True)
    names = GATE_TESTS[2:6] if n3 else ("thm1", "apolar") if n2 else ()
    return SpectralStructure(
        axis=CandidateAxis(T=g.rows[p, 0], lambda1=float(g.lams[p, 0]),
                           axis_residual=float(g.tests[p, 0]), y=g.y[p]),
        clusters=tuple((float(mean), int(mult), g.rows[p, 1 + i:1 + i + mult])
                       for mean, i, mult in zip(means, first, mults)),
        n2=n2, n3=n3, lambda2=float(g.lams[p, 1]) if n2 else None,
        lambda3=float(g.lams[p, 2]) if n3 else None,
        cross_residual=float(g.tests[p, GATE_TESTS.index("cross")]),
        relation_residuals={name: float(g.tests[p, GATE_TESTS.index(name)])
                            for name in names},
        pattern=pattern)


def _preferred(g: Gated, ok) -> int | None:
    """The row detect prefers among the rows `ok`, or None.

    Highly symmetric spheres admit several product structures at once
    (the orthant hypersurface is the extreme case); prefer the finer
    two-cluster split, then n2 <= n3, then the most balanced split.
    Residuals of equivalent structures differ only by rounding, so they
    never choose: among equal keys the first row wins, for a search the
    first in the rounded-key order of `find_axes`."""
    n2, n3 = g.n2.tolist(), g.n3.tolist()
    return min(np.flatnonzero(ok).tolist(), default=None, key=lambda p: (
        n3[p] == 0, n2[p] > n3[p], -min(n2[p], n3[p])))


def classify_spectrum(frame: BlaschkeFrame, axis) -> SpectralStructure:
    """The structure `_gate` finds for an axis at one frame (y = B^T h T
    for an axis made by hand); an asymmetry of K_T past rounding raises
    AsymmetricMatrixError naming the point. For a list of axes, the one
    detect would prefer, unclassified spectra included (`calabi
    analyze`)."""
    axes = [axis] if isinstance(axis, CandidateAxis) else axis
    axes = [a if a.y is not None else a._replace(y=a.T @ frame.h @ frame.basis)
            for a in axes]
    g = _gate(_repeated(frame, len(axes)), axes)
    return _spectral_structure(g, _preferred(g, np.ones(len(axes), bool)))


# cached frame -> {(restarts, seed): Gated or None}
_STRUCTURES = weakref.WeakKeyDictionary()
_TRACKED = weakref.WeakKeyDictionary()   # batch -> {(T, n2, n3, tol): rows}


def _axis_structures(defn: ImmersionDef, u, restarts: int, seed: int):
    """`_gate` of every `find_axes` candidate at the frame of defn at the
    point u, in the search's order, or None when the search finds none;
    callers hold it to their tolerance with `Gated.failures`.

    Memoized for the lifetime of the cached frame `full_frame(defn, u)`,
    keyed on (restarts, seed): the frame cache makes frames unique per
    (definition, point), so detection and the theorem 3 gate at one base
    point share one search, and `blaschke.clear_frame_cache()` drops the
    memo. Extraction makes no search."""
    frame = blaschke.full_frame(defn, u)
    memo = _STRUCTURES.setdefault(frame, {})
    if (restarts, seed) not in memo:
        search = find_axes(frame, restarts=restarts, seed=seed)
        memo[restarts, seed] = (_gate(_repeated(frame, len(search)), search)
                                if search else None)
    return memo[restarts, seed]


# ---------------------------------------------------------------------------
# detection


class DecompositionVerdict(namedtuple(
        "DecompositionVerdict", "kind spectrum constancy_residual "
        "orientation_ok evidence def_scaled scale notes", defaults=((),))):
    """`kind` is "PointProduct", "PairProduct" or None, with `notes` saying
    why; `evidence` holds the CheckReports of the gates; `def_scaled` is
    the input at H = -1, `scale` times it."""

    __slots__ = ()


def _none_verdict(note, evidence=(), orientation_ok=False, def_scaled=None,
                  scale=1.0):
    return DecompositionVerdict(
        kind=None, spectrum=None, constancy_residual=math.inf,
        orientation_ok=orientation_ok, evidence=tuple(evidence),
        def_scaled=def_scaled, scale=scale, notes=(note,),
    )


def _prepare(defn: ImmersionDef, grid):
    """Common gates: sphere test, H < 0, homothety, orientation xi = phi.

    Returns (work_def, scale, frames, evidence, failure_note): no note
    means the orientation holds, and work_def and frames are None when a
    gate before it fails. Refused geometry is a note, not an exception."""
    try:
        frames = blaschke.frames_on_grid(defn, grid)
        h0 = frames.H[0]
        if h0 >= 0.0:
            # the input frames only choose which of the two gates failed
            sphere = checks.sphere_residual(frames)
            note = ("not an affine sphere" if not sphere.passed
                    else f"not hyperbolic (H = {h0:.6g} >= 0)")
            return None, 1.0, None, [sphere], note
        norm = normalize_homothety(defn, grid)
        work, scale = norm.def_scaled, norm.scale
        # S = H id survives homotheties: the sphere gate reads the work
        # frames, where H = -1 makes its absolute tolerance scale free
        frames = blaschke.frames_on_grid(work, grid)
    except (GeometryError, JetDomainError) as exc:
        return None, 1.0, None, [], str(exc)
    sphere = checks.sphere_residual(frames)
    evidence = [sphere]
    if not sphere.passed:
        return None, 1.0, None, evidence, "not an affine sphere"
    offset = checks.xi_offset(frames)
    if offset is not None:
        return work, scale, frames, evidence, (
            "affine normal is not the position field "
            f"(offset {offset[0]:.3g}); recenter the sphere first")
    evidence.append(checks.apolarity_residual(frames))
    return work, scale, frames, evidence, None


def _track(frames: BlaschkeFrame, ref: SpectralStructure, tol: float,
           u_ref, t_ref=None):
    """The structure of `ref` continued across the frames from its axis
    T_ref (or t_ref) at u_ref, as (rows [T | V | W], lambdas, None) with a
    leading point axis, or (None, None, failure note). Each round solves
    and gates the pending rows as one batch, a row from y_s = B^T h T_s in
    its basis B: T_s is T_ref, then the T of the row's nearest accepted
    point, u_ref first (Allgower and Georg, Introduction to Numerical
    Continuation Methods, 2003). A row passes with the shape of `ref` and
    y.y_s >= 0; a round that passes none refuses at its first pending one."""
    t_ref = ref.axis.T if t_ref is None else t_ref
    shape, t_s, seed = (ref.n2, ref.n3), t_ref, [0]   # near[seed]: seed points
    rows = np.empty((len(frames),) + t_ref.shape * 2)
    lams, ok = np.empty((len(frames), 3)), np.zeros(len(frames), bool)
    while not ok.all():
        pending = np.flatnonzero(~ok)
        part = _fields(frames, pending)
        y_s = ((t_s[..., None, :] @ part.h) @ part.basis)[:, 0]
        axes = _solve_axis(part, y_s)
        solved = [i for i, axis in enumerate(axes) if axis is not None]
        passed = np.zeros(len(solved), bool)
        if solved:
            g = _gate(_fields(frames, pending[solved]),
                      [axes[i] for i in solved])
            passed = g.failures(tol, shape, y_s[solved])[0] == len(GATE_TESTS)
        if not passed.any():
            point = blaschke.format_point(frames.u[pending[0]])
            name = f"T at {blaschke.format_point(near[seed[0]])}" if seed[0] else "T_ref"
            note = ("the tracked axis solve fails" if 0 not in solved
                    else g.refusal(0, tol, shape, y_s[solved], name))
            return None, None, f"{note} at grid point {point}"
        at = pending[solved][passed]
        ok[at], rows[at], lams[at] = True, g.rows[passed], g.lams[passed]
        near = np.vstack([u_ref, frames.u[ok]])
        dist = np.sum((frames.u[~ok, None] - near) ** 2, axis=-1)
        seed = np.argmin(dist, axis=1)
        t_s = np.vstack([t_ref, rows[ok, 0]])[seed]
    return rows, lams, None


def _follow_axis(work: ImmersionDef, frames: BlaschkeFrame, tol: float,
                 restarts: int, seed: int):
    """The preferred product structure at the base point and the largest
    eigenvalue drift from it across the grid, as (structure, drift,
    failure note); a drift above tol fails at its worst point."""
    gated = _axis_structures(work, frames.u[0], restarts, seed)
    if gated is None:
        return None, math.inf, "no axis direction solves K(X,X) = mu X"
    p = _preferred(gated, gated.failures(tol)[0] == len(GATE_TESTS))
    if p is None:
        return None, math.inf, ("no axis matches either product pattern "
                                "within tolerance")
    base = _spectral_structure(gated, p)
    rows, lams, failure = _track(frames[1:], base, tol, frames.u[0])
    if failure is not None:
        return None, math.inf, failure
    drifts = np.append(0.0, np.max(np.abs(lams - gated.lams[p]), axis=1))
    worst = int(np.argmax(drifts))
    if drifts[worst] > tol:
        return None, math.inf, (
            f"eigenvalues drift across the grid by {drifts[worst]:.3g} at "
            f"grid point {blaschke.format_point(frames.u[worst])}")
    _TRACKED.setdefault(frames, {})[base.axis.T.tobytes(), base.n2, base.n3,
                                    tol] = np.vstack([gated.rows[p:p + 1], rows])
    return base, float(drifts[worst]), None


def detect(defn: ImmersionDef, grid, tol: float = 1e-6,
           restarts: int = 32, seed: int = 42) -> DecompositionVerdict:
    """Decide whether the surface is a Calabi product and of which kind.

    Never raises on structural mismatch or on geometry the frame
    pipeline refuses: every failure mode is a verdict with kind None and
    an explanatory note.
    """
    work, scale, frames, evidence, failure = _prepare(defn, grid)
    if failure is not None:
        return _none_verdict(failure, evidence, def_scaled=work, scale=scale)

    if is_quadric(frames):
        return _none_verdict(QUADRIC_NOTE, evidence, True, work, scale)

    try:
        best, drift, failure = _follow_axis(work, frames, tol, restarts,
                                            seed)
    except numerics.AsymmetricMatrixError as exc:
        failure = str(exc)
    if failure is not None:
        return _none_verdict(failure, evidence, True, work, scale)

    kind = "PointProduct" if best.pattern == "point" else "PairProduct"
    return DecompositionVerdict(
        kind=kind, spectrum=best, constancy_residual=drift,
        orientation_ok=True, evidence=tuple(evidence), def_scaled=work,
        scale=scale, notes=(),
    )


# ---------------------------------------------------------------------------
# parallel cubic form gate


class Theorem3Gate(namedtuple(
        "Theorem3Gate", "applies parallel curvature_action_residual "
        "derived_relations margins cross_residual spectrum note",
        defaults=(False,) + (None,) * 7)):
    """`theorem3_gate`'s finding: whether the gate applies, the parallel
    cubic form report, the residuals and margins behind it, and a note
    when it does not apply."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # a dict of its own for each unset derived_relations and margins
        gate = super().__new__(cls, *args, **kwargs)
        return gate._replace(**{name: {} for name in ("derived_relations",
                                                      "margins")
                                if getattr(gate, name) is None})


def _curvature_action_residual(frames: BlaschkeFrame) -> float:
    # R K(z,u) - K(Rz,u) - K(z,Ru); K(z,Ru) = K(Ru,z), the middle term z<->u
    R, (P, n) = frames.Rhat, frames.K.shape[:2]
    lhs = (frames.K.reshape(P, 1, 1, n * n, n) @ R).reshape(R.shape + (n,))
    rhs = (R @ frames.K.reshape(P, 1, 1, n, n * n)).reshape(R.shape + (n,))
    return float(np.max(np.abs(lhs - rhs - rhs.swapaxes(3, 4))))


def theorem3_gate(defn: ImmersionDef, grid, tol: float = 1e-6,
                  restarts: int = 32, seed: int = 42) -> Theorem3Gate:
    """Parallel cubic form reduction: does K(V,W) = 0 come for free?

    When the cubic form is parallel, the curvature acts on K as a
    derivation; combined with the eigenvalue relations this forces the
    cross blocks of K to vanish, provided the spectrum is nondegenerate
    (lambda2 != lambda3 and 2*lambda2 != lambda1 != 2*lambda3, all at
    margin >= 1e-3). When the gate applies, detection may treat the
    two-cluster pattern as established without measuring K(V,W) itself.
    """
    work, scale, frames, _evidence, failure = _prepare(defn, grid)
    if failure is not None:
        return Theorem3Gate(note=failure)

    parallel = checks.parallel_cubic_residual(frames)
    rk = _curvature_action_residual(frames)
    gate = Theorem3Gate(parallel=parallel, curvature_action_residual=rk)
    if is_quadric(frames):
        return gate._replace(
            note="K ≈ 0: spectrum collapses, no (V, W) split to gate")

    try:
        gated = _axis_structures(work, frames.u[0], restarts, seed)
    except numerics.AsymmetricMatrixError as exc:
        return gate._replace(note=str(exc))
    # pairs whose axis residual and shape pass
    p = None if gated is None else _preferred(
        gated, (gated.failures(tol)[0] > 1) & (gated.n3 > 0))
    if p is None:
        return gate._replace(note="no axis with a two-cluster spectrum")
    best = _spectral_structure(gated, p)

    lam1, lam2, lam3 = best.lambda1, best.lambda2, best.lambda3
    derived = {f"lambda{k}_branch": abs((lam1 - 2.0 * lam)
                                        * (-1.0 - lam1 * lam + lam ** 2))
               for k, lam in ((2, lam2), (3, lam3))}
    margins = {
        "lambda2_vs_lambda3": abs(lam2 - lam3),
        "lambda1_vs_2lambda2": abs(lam1 - 2.0 * lam2),
        "lambda1_vs_2lambda3": abs(lam1 - 2.0 * lam3),
    }
    applies = (parallel.passed
               and rk <= tol
               and all(r <= tol for r in derived.values())
               and all(m >= MARGIN_MIN for m in margins.values())
               and best.cross_residual <= tol)
    return gate._replace(applies=bool(applies), derived_relations=derived,
                         margins=margins, cross_residual=best.cross_residual,
                         spectrum=best)


# ---------------------------------------------------------------------------
# factor extraction


class FactorData(namedtuple(
        "FactorData", "kind d1 d2 phi2_samples phi3_samples subspace2 "
        "subspace3 factor_defs residuals metric_ratio immersion_rate "
        "failed_residuals", defaults=((),))):
    """The factors read off a product: the sample clouds of phi2 and phi3
    and the bases of their subspaces, the factor definitions (None when
    the input carries no provenance), the residuals of the round trip,
    and `failed_residuals`, the sorted names of those above tol."""

    __slots__ = ()


def _grid_fields(frames: BlaschkeFrame, rows: np.ndarray,
                 n2: int) -> SimpleNamespace:
    """The frame fields with the rows [T | V | W] `_track` returns, of the
    tracked axis T and of the bases of its lambda2 and lambda3 blocks, T,
    basis2 and basis3 as views of them, and dT[p, d, k] = d_d T^k, each
    with a leading grid-point axis p.

    dT follows from implicit differentiation of the axis system
    (K(T,T) = mu T, (1 - h(T,T)) / 2 = 0) in the parameters, in one solve
    for all points. Its Jacobian in T is diag(B, 1) J diag(B^-1, 1), with
    J that of `_axis_system` at y = B^-1 T (K(T) = B K_ortho(y) B^-1 and
    h T = B^-T y), so the solve is J's, read in and out through B. A point
    structure has no lambda3 block: its basis3 has no rows."""
    T = rows[:, 0]
    npts, n = T.shape
    b_inv = np.linalg.inv(frames.basis)
    _f, jac, _mu = _axis_system(frames.K_ortho, (b_inv @ T[..., None])[..., 0])
    rhs = np.zeros((npts, n + 1, n))
    rhs[:, :n] = -b_inv @ np.einsum("pdijk,pi,pj->pkd", frames.dK, T, T)
    rhs[:, n] = 0.5 * np.einsum("pdij,pi,pj->pd", frames.dh, T, T)
    d_t = frames.basis @ np.linalg.solve(jac, rhs)[:, :n]
    return SimpleNamespace(
        **frames._asdict(), rows=rows, T=T, basis2=rows[:, 1:1 + n2],
        basis3=rows[:, 1 + n2:], dT=d_t.transpose(0, 2, 1))


def _d_phi(f: SimpleNamespace, xs: np.ndarray, lam2: float, lam3: float):
    """D_x phi2, D_x phi3 and the ambient image of x for the rows x of
    xs, of shape (P, rows, n), each of shape (P, rows, n + 1).

    phi2 = -lambda3 phi + T and phi3 = lambda2 phi - T, and D_x of the
    ambient image of the axis field is the chain rule through the
    coordinates of T plus the bending of the tangent basis."""
    amb = xs @ f.tangent
    d_t = ((xs @ f.dT) @ f.tangent
           + np.einsum("pri,pk,pika->pra", xs, f.T, f.second))
    return -lam3 * amb + d_t, lam2 * amb - d_t, amb


def _nabla_t(xs: np.ndarray, dT: np.ndarray, T: np.ndarray,
             gamma: np.ndarray) -> np.ndarray:
    """nabla_x T = x^i (d_i T^k + gamma^k_ij T^j) for the rows x of xs,
    with a leading grid-point axis on every argument."""
    return xs @ dT + np.einsum("pri,pijk,pj->prk", xs, gamma, T)


def _amax(a) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _metric_ratio(f: SimpleNamespace, lam2: float, lam3: float):
    """phi2 coefficient of the second derivatives along the lambda2 block.

    By the Gauss formula phi_ij = Gamma^k_ij phi_k + h_ij phi (xi = phi;
    Nomizu & Sasaki, Affine Differential Geometry, 1994, ch. II), a
    field V in the lambda2 block, where h(V, T) = 0, has

      D_V phi2 = X^k phi_k,   X = -lambda3 V + nabla_V T,

    with nabla_V T = V^i (d_i T^k + Gamma^k_ij T^j). Differentiating once
    more along w, the phi coefficient of D_w D_V phi2 is h(X, w), and
    phi2 = -lambda3 phi + T has phi coefficient -lambda3, so

      m(v, w) = h(-lambda3 v + nabla_v T, w) / (-lambda3),

    exact and free of the coordinates. Returns, at the base point, the
    mean diagonal of m over the h-orthonormal block basis and the largest
    deviation of m from (lambda2 - lambda3) lambda2 times the identity.
    """
    b = f.basis2[:1]                      # the base point, a batch of one
    nab = _nabla_t(b, f.dT[:1], f.T[:1], f.gamma[:1])
    m = ((-lam3 * b + nab) @ f.h[:1] @ b.transpose(0, 2, 1))[0] / -lam3
    expected = (lam2 - lam3) * lam2
    worst = float(np.max(np.abs(m - expected * np.eye(len(m)))))
    return float(np.mean(np.diag(m))), worst


def _recorded_axis(defn: ImmersionDef, frames: BlaschkeFrame,
                   spectrum: SpectralStructure):
    """The axis of the recorded product at the base point, +-d_t/|d_t|_h,
    and whether its lambda2 block is the first recorded block, as
    (T, lambda2_first). The constructors emit (c1 e^(lambda2 t) psi1,
    c2 e^(lambda3 t) psi2), so +d_t has the recorded blocks and rates and
    -d_t has them swapped; a verdict of neither shape raises GeometryError.
    `_track` gates every grid row from this seed, so a wrong provenance is
    still refused."""
    prov, shape = defn.provenance, (spectrum.n2, spectrum.n3)
    first = shape == (prov.n2, prov.n3)
    if not first and shape != (prov.n3, prov.n2):
        raise GeometryError(
            f"the verdict's blocks {shape} are not the recorded blocks "
            f"{(prov.n2, prov.n3)} in either order")
    t = defn.vars.index(prov.axis)
    axis = np.zeros(defn.nvars)
    axis[t] = (1.0 if first else -1.0) / math.sqrt(frames.h[0, t, t])
    return axis, first


def _slice_factor_def(defn: ImmersionDef, indices, label: str):
    prov = defn.provenance
    zero = const(0.0)
    comps = tuple(substitute(defn.components[i], {prov.axis: zero})
                  for i in indices)
    used = set().union(*map(_free_vars, comps))
    kept = tuple(v for v in defn.vars if v in used)
    if not kept:
        return None
    return ImmersionDef(name=f"{defn.name}_{label}", vars=kept,
                        components=comps, provenance=None)


def _factor_grid(defn: ImmersionDef, factor: ImmersionDef, grid):
    """The sorted distinct rows of the factor's columns, to 12 digits."""
    cols = [defn.vars.index(v) for v in factor.vars]
    rows = np.round(np.atleast_2d(grid)[:, cols], 12).tolist()
    return np.array(sorted(set(map(tuple, rows))))


def _calibrate_from_provenance(defn: ImmersionDef, grid,
                               lam2_first: bool, kind: str,
                               n2: int, n3: int, residuals: dict):
    """Reconstruct the factor defs and measure the translation gauge.

    Provenance fixes the component block sizes, and `lam2_first` says
    whether the first block holds the lambda2 eigenspace. The sliced
    lambda2 block equals c1 * psi1 at axis parameter zero; normalizing
    it back to H = -1 measures c1, and d1 is c1 over the base constant
    the constructors emit. d2 then follows from the gauge constraint
    d1^(n2+1) d2^(n3+1) = 1.
    """
    c_base = base_coefficients(kind, n2, n3)
    m2 = defn.provenance.n2 + 1
    first, second = list(range(m2)), list(range(m2, defn.ncomponents))
    blocks = (first, second) if lam2_first else (second, first)
    factors = [_slice_factor_def(defn, idx, f"factor{k + 1}")
               for k, idx in enumerate(blocks)]
    grids = {f: _factor_grid(defn, f, grid) for f in factors if f is not None}
    blaschke.cache_frames(grids.items())   # factors of one n: one batch
    defs, gauges = [], []
    for k, (idx, factor) in enumerate(zip(blocks, factors)):
        label = f"factor{k + 1}"
        if factor is None:
            # zero-dimensional block: a constant vector, gauge read directly
            vals = eval_components(defn, np.zeros(defn.nvars))
            gauges.append(float(np.linalg.norm([vals[i] for i in idx]))
                          / c_base[k])
            continue
        # H + 1 and the sphere test over the factor grid, on mapped frames
        norm = normalize_homothety(factor, grids[factor])
        frames = blaschke.frames_on_grid(norm.def_scaled, grids[factor])
        residuals[f"{label}_mean_curvature"] = float(
            np.max(np.abs(frames.H + 1.0)))
        residuals[f"{label}_sphere"] = checks.sphere_residual(
            frames).max_residual
        defs.append(norm.def_scaled)
        gauges.append(1.0 / (norm.scale * c_base[k]))
    d1 = gauges[0]
    d2 = d1 ** (-(n2 + 1.0) / (n3 + 1.0))
    residuals["gauge_consistency"] = abs(d2 - gauges[1])
    return tuple(defs), float(d1), float(d2)


def _extract(defn: ImmersionDef, verdict: DecompositionVerdict, grid,
             tol: float, kind: str) -> FactorData:
    if verdict.spectrum is None:
        raise VerdictError("verdict carries no spectral structure")
    if not verdict.orientation_ok:
        raise VerdictError("extraction requires the xi = phi orientation")
    spectrum = verdict.spectrum
    lam2, lam3 = spectrum.lambda2, spectrum.lambda3
    if lam3 is None:
        lam3 = spectrum.lambda1 - lam2  # the formal lambda3 of a point
    n2, n3 = spectrum.n2, spectrum.n3

    frames = blaschke.frames_on_grid(defn, grid)
    prov = defn.provenance
    axis_idx, t_ref = None, spectrum.axis.T
    if prov is not None and prov.axis in defn.vars:
        axis_idx = defn.vars.index(prov.axis)
        t_ref, lam2_first = _recorded_axis(defn, frames, spectrum)
    rows = _TRACKED.get(frames, {}).get((t_ref.tobytes(), n2, n3, tol))
    if rows is None:
        rows, _, failure = _track(frames, spectrum, tol, frames.u[0], t_ref)
        if failure is not None:
            raise GeometryError(failure)
    f = _grid_fields(frames, rows, n2)

    t_amb = (f.T[:, None] @ f.tangent)[:, 0]
    phi2_raw = -lam3 * f.position + t_amb
    phi3_raw = lam2 * f.position - t_amb

    # one pass over the rows [T | V | W]: D phi2, D phi3, the ambient
    # images and hat nabla T, each read in slices below
    dphi2, dphi3, amb = _d_phi(f, f.rows, lam2, lam3)
    geo = _nabla_t(f.rows, f.dT, f.T, f.gamma_hat)
    v, w = slice(1, 1 + n2), slice(1 + n2, None)
    residuals = {
        "phi2_axis": _amax(dphi2[:, 0] - lam2 * phi2_raw),
        "phi3_axis": _amax(dphi3[:, 0] - lam3 * phi3_raw),
        "phi2_cokernel": _amax(dphi2[:, w]),
        "phi3_cokernel": _amax(dphi3[:, v]),
        "phi2_immersion": _amax(dphi2[:, v] - (lam2 - lam3) * amb[:, v]),
        "phi3_immersion": _amax(dphi3[:, w] - (lam2 - lam3) * amb[:, w]),
        "totally_geodesic": max(
            _amax(geo[:, v] @ f.h @ f.basis3.transpose(0, 2, 1)),
            _amax(geo[:, w] @ f.h @ f.basis2.transpose(0, 2, 1))),
    }

    # the axis flow parameter at each point
    if axis_idx is not None:
        t_par = frames.u[:, axis_idx]
    elif kind == "point":
        mags = np.linalg.norm(phi3_raw, axis=1)
        t_par = np.log(mags / mags[0]) / lam3
    else:
        t_par = np.zeros(len(frames))
    phi2_samples = np.exp(-lam2 * t_par)[:, None] * phi2_raw
    phi3_samples = np.exp(-lam3 * t_par)[:, None] * phi3_raw

    width = phi2_raw.shape[1]
    sub2 = numerics.subspace_rank(
        np.vstack([phi2_raw, dphi2[:, v].reshape(-1, width)]))
    sub3 = numerics.subspace_rank(
        np.vstack([phi3_raw, dphi3[:, w].reshape(-1, width)]))
    joint = numerics.subspace_rank(np.vstack([sub2.basis, sub3.basis]))
    residuals["subspace_overlap"] = float(sub2.rank + sub3.rank - joint.rank)

    metric_ratio, residuals["metric_ratio"] = _metric_ratio(f, lam2, lam3)
    rate = float(np.linalg.norm(dphi2[0, 1]) / np.linalg.norm(amb[0, 1]))

    if kind == "point":
        residuals["axis_geodesic"] = math.sqrt(max(
            float(geo[0, 0] @ f.h[0] @ geo[0, 0]), 0.0))
        residuals["phi3_constant"] = _amax(phi3_samples - phi3_samples[0])

    factor_defs, d1, d2 = None, 1.0, 1.0
    if axis_idx is not None:
        factor_defs, d1, d2 = _calibrate_from_provenance(
            defn, frames.u, lam2_first, kind, n2, n3, residuals)

    return FactorData(
        kind=kind, d1=d1, d2=d2,
        phi2_samples=phi2_samples, phi3_samples=phi3_samples,
        subspace2=sub2.basis, subspace3=sub3.basis,
        factor_defs=factor_defs, residuals=residuals,
        metric_ratio=float(metric_ratio), immersion_rate=rate,
        failed_residuals=tuple(sorted(k for k, v in residuals.items()
                                      if v > tol)),
    )


def extract_pair_factors(defn: ImmersionDef, verdict: DecompositionVerdict,
                         grid, tol: float = 1e-6) -> FactorData:
    """Recover both factors of a detected pair product.

    The sample clouds are taken in the d1 = d2 = 1 gauge that the
    constructors emit; the structural residuals do not depend on the
    gauge. With provenance the factor defs are reconstructed and brought
    back to H = -1, and d1, d2 report the measured translation gauge of
    the input; without provenance they are 1.
    """
    if verdict.kind != "PairProduct":
        raise VerdictError(f"verdict kind is {verdict.kind!r}, "
                           "extract_pair_factors needs PairProduct")
    return _extract(defn, verdict, grid, tol, "pair")


def extract_point_factor(defn: ImmersionDef, verdict: DecompositionVerdict,
                         grid, tol: float = 1e-6) -> FactorData:
    """Recover the factor of a detected point product.

    The second block is zero-dimensional: phi3 compensated along the
    axis flow must be a constant vector, and the formal second
    eigenvalue lambda1 - lambda2 plays the role of lambda3 in the
    shared extraction formulas.
    """
    if verdict.kind != "PointProduct":
        raise VerdictError(f"verdict kind is {verdict.kind!r}, "
                           "extract_point_factor needs PointProduct")
    return _extract(defn, verdict, grid, tol, "point")
