"""Detection and extraction of product structure from the difference tensor.

Given a hyperbolic affine sphere, the pipeline is: rescale to mean
curvature -1, locate axis candidates T with K(T,T) = lambda1 T among
h-unit directions, classify the spectrum of K_T, and test the
eigenvalue relations that characterize the two product patterns:

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

Each base frame is searched once: `_axis_structures` memoizes the
candidates and their classified spectra on the frame. One gate, `_gate`,
holds a structure to the tolerance at every point. Away from the base
point one tracker, `_track`, follows the axis for both detection and
extraction: one batched Newton solve with a row per point, each seeded
from the base axis, and a full search only where that solve fails or
its structure fails the gate. A search solves all its restarts in one
batched Newton call, and one stacked eigensolve classifies a search or
the tracked points. The grid frames are one batch (see
`blaschke.frames_on_grid`), so detection and extraction work on arrays
with a leading grid-point axis.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
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
AXIS_RESIDUAL_TOL = 1e-8
CLUSTER_GAP = 1e-6
MARGIN_MIN = 1e-3


class NotHyperbolicError(GeometryError):
    """Mean curvature is not negative."""


class VerdictError(ValueError):
    """Extraction called with an incompatible verdict."""


# ---------------------------------------------------------------------------
# homothety normalization


@dataclass(frozen=True)
class HomothetyResult:
    def_scaled: ImmersionDef
    scale: float


def _scaled_def(defn: ImmersionDef, c: float) -> ImmersionDef:
    comps = tuple(mul(const(c), comp) for comp in defn.components)
    return ImmersionDef(name=defn.name, vars=defn.vars, components=comps,
                        provenance=defn.provenance)


def normalize_homothety(defn: ImmersionDef, probe=None,
                        grid=()) -> HomothetyResult:
    """Rescale phi -> c phi so the mean curvature becomes -1.

    The exact scaling law H(c phi) = c^(-2(n+1)/(n+2)) H(phi) gives the
    scale in closed form, c = |H|^((n+2)/(2(n+1))) with H read at the
    probe point. The scaled frame at the probe point verifies it, in one
    batch with the scaled frames at `grid`, which callers read next.
    """
    n = defn.nvars
    if probe is None:
        probe = tuple(0.11 * (i + 1) for i in range(n))
    h0 = blaschke.full_frame(defn, probe).H
    if h0 >= 0.0:
        raise NotHyperbolicError(
            f"{defn.name!r} has H = {h0:.6g} >= 0 at the probe point; "
            "only hyperbolic spheres can be rescaled to H = -1"
        )
    scale = abs(h0) ** ((n + 2) / (2.0 * (n + 1)))
    if abs(scale - 1.0) < 1e-12:
        return HomothetyResult(def_scaled=defn, scale=1.0)
    scaled = _scaled_def(defn, scale)
    miss = blaschke.frames_on_grid(scaled, [probe, *grid]).H[0] + 1.0
    if abs(miss) > 1e-9:
        raise GeometryError(
            f"scale {scale:.6g} misses H = -1 by {miss:.3g} at the probe "
            "point; H does not follow the homothety law"
        )
    return HomothetyResult(def_scaled=scaled, scale=float(scale))


# ---------------------------------------------------------------------------
# axis search


@dataclass(frozen=True)
class CandidateAxis:
    """h-unit direction T with K(T,T) = lambda1 T."""

    T: np.ndarray
    lambda1: float
    axis_residual: float

    def flipped(self) -> "CandidateAxis":
        return CandidateAxis(T=-self.T, lambda1=-self.lambda1,
                             axis_residual=self.axis_residual)


def _h_norms(h: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """h-norm of each vector along the last axis of vs, under one metric
    or one per leading index of vs."""
    return np.sqrt(np.maximum(np.einsum("...i,...ij,...j->...", vs, h, vs),
                              0.0))


def _axis_system(h: np.ndarray, K: np.ndarray, x: np.ndarray, mu):
    """F = (K(X,X) - mu X, h(X,X) - 1) and its Jacobian in (X, mu) for
    the rows X of x, with h and K of one point or one per row; stacked
    matmuls round as one row alone does, so a row solves alike in any
    stack."""
    n = x.shape[-1]
    mu = np.asarray(mu, dtype=float)[..., None]
    h_xx = (x[..., None, :] @ h @ x[..., None])[..., 0]
    f = np.concatenate([np.einsum("...ijk,...i,...j->...k", K, x, x)
                        - mu * x, h_xx - 1.0], axis=-1)
    jac = np.zeros(x.shape[:-1] + (n + 1, n + 1))
    jac[..., :n, :n] = (2.0 * np.einsum("...ijk,...i->...kj", K, x)
                        - mu[..., None] * np.eye(n))
    jac[..., :n, n] = -x
    jac[..., n, :n] = (2.0 * h @ x[..., None])[..., 0]
    return f, jac


def _repeated(frame: BlaschkeFrame, rows: int) -> BlaschkeFrame:
    """A one-point frame as a batch of `rows` equal rows, broadcast."""
    return BlaschkeFrame(**{
        name: np.broadcast_to(value, (rows,) + np.shape(value))
        for name, value in vars(frame).items()})


def _norms(f: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as np.linalg.norm of one row."""
    return np.sqrt((f[..., None, :] @ f[..., None])[..., 0, 0])


def _solve_rows(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve on a stack, halved until a singular matrix, which
    fails the whole call, is alone; its row gets NaN."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full_like(rhs, np.nan)
        mid = len(rhs) // 2
        return np.concatenate([_solve_rows(jac[:mid], rhs[:mid]),
                               _solve_rows(jac[mid:], rhs[mid:])])


def _solve_axis(h: np.ndarray, K: np.ndarray,
                x0: np.ndarray) -> list[CandidateAxis | None]:
    """The axis a damped Newton solve of (K(X,X) - mu X, h(X,X) - 1) = 0
    reaches from each row of x0, (R, n), under the metric h[r] and the
    difference tensor K[r] of that row, with mu seeded by the cubic form
    C(x0, x0, x0); None for a row that ends with |F| above 1e-11. The
    rows share one batched linear solve per iteration and each backtracks
    on its own. A row stops at a singular Jacobian or when backtracking
    cannot reduce |F|, which past 1e-13 is the rounding floor of its
    point."""
    x = np.array(x0, dtype=float)
    kxx = np.einsum("rijk,ri,rj->rk", K, x, x)
    mu = (kxx[:, None] @ h @ x[..., None])[:, 0, 0]
    f, jac = _axis_system(h, K, x, mu)
    norm = _norms(f)
    stopped = np.zeros(len(x), dtype=bool)
    for _ in range(80):
        rows = np.flatnonzero(~stopped & (norm > 1e-13))
        if rows.size == 0:
            break
        step = _solve_rows(jac[rows], -f[rows])
        finite = np.isfinite(step).all(axis=-1)
        stopped[rows[~finite]] = True
        rows, step, damp = rows[finite], step[finite], np.ones(finite.sum())
        for _ in range(40):
            x_new = x[rows] + damp[:, None] * step[:, :-1]
            mu_new = mu[rows] + damp * step[:, -1]
            f_new, jac_new = _axis_system(h[rows], K[rows], x_new, mu_new)
            norm_new = _norms(f_new)
            ok = ((norm_new < norm[rows] * (1.0 - 1e-4 * damp))
                  | (norm_new <= 1e-13))
            done = rows[ok]
            x[done], mu[done], f[done], jac[done], norm[done] = (
                x_new[ok], mu_new[ok], f_new[ok], jac_new[ok], norm_new[ok])
            rows, step, damp = rows[~ok], step[~ok], 0.5 * damp[~ok]
            if rows.size == 0:
                break
        stopped[rows] = True
    resid = _h_norms(h, f[:, :-1])
    return [CandidateAxis(T=x[r], lambda1=float(mu[r]),
                          axis_residual=float(resid[r]))
            if norm[r] <= 1e-11 else None
            for r in range(len(x))]


def find_axes(frame: BlaschkeFrame, restarts: int = 32,
              seed: int = 42) -> list[CandidateAxis]:
    """All h-unit solutions of K(X,X) = mu X found from seeded restarts,
    solved together in one batched Newton call.

    T and -T solve together (with mu and -mu), so solutions are
    deduplicated by fixing the sign of the first significant coordinate,
    and ordered by that rounded key (mu, then T, to 7 digits), which
    rounding in the solve does not change. Newton handles mu = 0 axes,
    which pure ascent on the cubic misses. The pipeline searches each
    base frame once, through the memo of `_axis_structures`; only the
    fallback of `_track` calls it directly.
    """
    n = frame.n
    basis = numerics.metric_orthonormal_basis(frame.h)
    rng = np.random.default_rng(seed)
    seeds = [basis[:, j] for j in range(n)]
    while len(seeds) < restarts:
        v = rng.standard_normal(n)
        nv = float(_h_norms(frame.h, v))
        if nv > 1e-8:
            seeds.append(v / nv)

    rows = _repeated(frame, len(seeds))
    found: dict[tuple, CandidateAxis] = {}
    for axis in filter(None, _solve_axis(rows.h, rows.K, seeds)):
        lead = next((comp for comp in axis.T if abs(comp) > 1e-8), 0.0)
        if lead < 0.0:
            axis = axis.flipped()
        key = (round(axis.lambda1, 7),) + tuple(np.round(axis.T, 7))
        if key not in found and axis.axis_residual <= AXIS_RESIDUAL_TOL:
            found[key] = axis
    return [found[key] for key in sorted(found)]


def is_quadric(frames: BlaschkeFrame) -> bool:
    """Whether K ≈ 0 at every frame: by the Pick-Berwald theorem the
    surface is then a quadric, with no canonical axis. K is measured in
    the metric, |K|^2 = h^ia tr(K_i K_a), which no change of coordinates
    moves, so a rescaled parameter does not make K look small."""
    k_sq = np.einsum("...ikj,...ajk->...ia", frames.K, frames.K) * frames.h_inv
    return float(np.max(k_sq.sum(axis=(-2, -1)))) <= QUADRIC_K_TOL ** 2


# ---------------------------------------------------------------------------
# spectrum classification


@dataclass(frozen=True)
class SpectralStructure:
    """Eigenstructure of K_T split off the axis eigenpair.

    `clusters` holds (eigenvalue, multiplicity, basis) triples, ascending,
    each basis an array of h-orthonormal coordinate rows; `pattern` is
    "point", "pair" or "unclassified" for any other spectrum."""

    axis: CandidateAxis
    clusters: tuple
    n2: int
    n3: int
    lambda2: float | None
    lambda3: float | None
    cross_residual: float
    relation_residuals: dict
    pattern: str

    @property
    def lambda1(self) -> float:
        return self.axis.lambda1


def _cross_residual(K: np.ndarray, h: np.ndarray, basis2, basis3) -> float:
    """Largest h-norm of K(v, w) over the rows v, w of the two bases."""
    kvw = np.einsum("ijk,ai,bj->abk", K, basis2, basis3)
    return float(np.max(_h_norms(h, kvw), initial=0.0))


def _classify(frames: BlaschkeFrame, axes) -> list[SpectralStructure]:
    """`classify_spectrum` of axes[p] at frames[p] for every p, in one
    eigensolve and without the tolerance check."""
    if not axes:
        return []
    t_vecs = np.stack([axis.T for axis in axes])
    a = np.einsum("pi,pijk->pjk", t_vecs, frames.C)
    try:
        eig = numerics.solve_sym_eig_generalized(a, frames.h)
    except numerics.AsymmetricMatrixError as exc:
        point = blaschke.format_point(frames.u[exc.index[0]])
        raise numerics.AsymmetricMatrixError(
            f"K_T at grid point {point}: {exc}") from None
    overlap = np.abs(np.einsum("pjs,pjk,pk->ps", eig.vectors, frames.h,
                               t_vecs))
    is_t = np.arange(t_vecs.shape[1]) == np.argmax(overlap, axis=1)[:, None]
    keep = np.argsort(is_t, axis=1, kind="stable")[:, :-1]
    values = np.take_along_axis(eig.values, keep, axis=1)
    vectors = np.take_along_axis(eig.vectors, keep[:, None], axis=2)
    return [_structure(*args)
            for args in zip(frames.K, frames.h, axes, values, vectors)]


def classify_spectrum(frame: BlaschkeFrame,
                      axis: CandidateAxis) -> SpectralStructure:
    """Cluster the K_T spectrum and test it against the product patterns.

    K_T is assembled in the h-inner product, symmetric by total symmetry
    of the cubic form; an asymmetry past rounding raises
    AsymmetricMatrixError naming the point. The T eigenpair, found by
    eigenvector overlap, is split off and the rest is clustered with the
    1e-6 merge gap. T is oriented so that the top cluster is not
    negative: K_(-T) = -K_T, so the flip negates the spectrum and
    reverses the clusters in closed form. One cluster then matches the
    point pattern, two the pair pattern with lambda2 > 0 > lambda3;
    anything else is unclassified rather than raised; `_gate` holds the
    result to a tolerance.
    """
    return _classify(_repeated(frame, 1), [axis])[0]


def _structure(K: np.ndarray, h: np.ndarray, axis: CandidateAxis, values,
               vectors) -> SpectralStructure:
    """`classify_spectrum` from the split-off spectrum of K_T."""
    clusters = [(mean, len(members), vectors[:, members].T)
                for mean, members in numerics.cluster_values(
                    values, gap=CLUSTER_GAP)]
    if clusters and clusters[-1][0] < 0.0:
        axis = axis.flipped()
        clusters = [(-mean, mult, basis)
                    for mean, mult, basis in reversed(clusters)]
    lam1, lam2, lam3, n2, n3 = axis.lambda1, None, None, 0, 0
    pattern, cross, relations = "unclassified", 0.0, {}
    if len(clusters) == 1:
        pattern, (lam2, n2, _basis) = "point", clusters[0]
        relations = {"thm1": abs(1.0 + lam1 * lam2 - lam2 ** 2),
                     "apolar": abs(lam1 + n2 * lam2)}
    elif len(clusters) == 2 and clusters[0][0] < 0.0 < clusters[1][0]:
        pattern, ((lam3, n3, basis3), (lam2, n2, basis2)) = "pair", clusters
        relations = {"thm1": abs(1.0 + lam1 * lam2 - lam2 ** 2),
                     "sum": abs(lam1 - lam2 - lam3),
                     "prod": abs(lam2 * lam3 + 1.0),
                     "apolar": abs(lam1 + n2 * lam2 + n3 * lam3)}
        cross = _cross_residual(K, h, basis2, basis3)
    return SpectralStructure(
        axis=axis, clusters=tuple(clusters), n2=n2, n3=n3, lambda2=lam2,
        lambda3=lam3, cross_residual=cross, relation_residuals=relations,
        pattern=pattern)


def _gate(structure: SpectralStructure, tol: float,
          ref: SpectralStructure | None = None) -> str | None:
    """The first product-structure test that `structure` fails, named with
    its residual, or None: the axis residual; the shape, (pattern, n2, n3)
    of `ref` or else any classified pattern; each eigenvalue relation
    (with the shape, these fix the eigenvalues); the cross block K(V,W)."""
    axis, cross = structure.axis.axis_residual, structure.cross_residual
    shape = (structure.pattern, structure.n2, structure.n3)
    if axis > tol:
        return f"axis residual {axis:.3g} exceeds tolerance {tol:.3g}"
    if structure.pattern == "unclassified" or (
            ref and shape != (ref.pattern, ref.n2, ref.n3)):
        base = ("{} ({}, {})".format(ref.pattern, ref.n2, ref.n3) if ref
                else "a product pattern")
        return "axis spectrum is {} ({}, {}), not ".format(*shape) + base
    for name, r in structure.relation_residuals.items():
        if r > tol:
            return (f"eigenvalue relation {name} {r:.3g} exceeds tolerance "
                    f"{tol:.3g}")
    if cross > tol:
        return (f"cross residual K(V, W) {cross:.3g} exceeds tolerance "
                f"{tol:.3g}")
    return None


# cached frame -> {(restarts, seed): (search, structures)}
_STRUCTURES = weakref.WeakKeyDictionary()


def _axis_structures(defn: ImmersionDef, u, restarts: int, seed: int):
    """`find_axes` at the frame of defn at the point u and the structure
    of every candidate, from one eigensolve, as (search, structures);
    callers compare the axis residuals with their tolerance.

    Memoized for the lifetime of the cached frame `full_frame(defn, u)`,
    keyed on (restarts, seed): the frame cache makes frames unique per
    (definition, point), so detection, the theorem 3 gate and extraction
    at one base point share one search, and
    `blaschke.clear_frame_cache()` drops the memo."""
    frame = blaschke.full_frame(defn, u)
    memo = _STRUCTURES.setdefault(frame, {})
    if (restarts, seed) not in memo:
        search = find_axes(frame, restarts=restarts, seed=seed)
        memo[restarts, seed] = (search, tuple(_classify(
            _repeated(frame, len(search)), search)))
    return memo[restarts, seed]


# ---------------------------------------------------------------------------
# detection


@dataclass(frozen=True)
class DecompositionVerdict:
    """`restarts` and `seed` are the axis search settings behind the
    verdict; extraction searches with the same ones."""

    kind: str | None
    spectrum: SpectralStructure | None
    constancy_residual: float
    orientation_ok: bool
    evidence: tuple
    def_scaled: ImmersionDef | None
    scale: float
    notes: tuple = ()
    restarts: int = 32
    seed: int = 42


def _none_verdict(note, evidence=(), orientation_ok=False, def_scaled=None,
                  scale=1.0):
    return DecompositionVerdict(
        kind=None, spectrum=None, constancy_residual=math.inf,
        orientation_ok=orientation_ok, evidence=tuple(evidence),
        def_scaled=def_scaled, scale=scale, notes=(note,),
    )


def _prepare(defn: ImmersionDef, grid):
    """Common gates: sphere test, H < 0, homothety, orientation xi = phi.

    Returns (work_def, scale, frames, evidence, failure_note,
    orientation_ok). Geometry the frame pipeline refuses is a failure
    note too, not an exception."""
    try:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        if not grid.size:
            raise ValueError("no grid points")
        h0 = blaschke.full_frame(defn, tuple(grid[0])).H
        if h0 >= 0.0:
            # the input frames only choose which of the two gates failed
            sphere = checks.sphere_residual(defn, grid)
            note = ("not an affine sphere" if not sphere.passed
                    else f"not hyperbolic (H = {h0:.6g} >= 0)")
            return defn, 1.0, None, [sphere], note, False
        if abs(h0 + 1.0) > 1e-9:
            scaled = normalize_homothety(defn, tuple(grid[0]), grid[1:])
            work, scale = scaled.def_scaled, scaled.scale
        else:
            work, scale = defn, 1.0
        # S = H id is invariant under homotheties, so the sphere gate runs
        # on the work frames, where H = -1 makes its absolute tolerance
        # scale free
        frames = blaschke.frames_on_grid(work, grid)
    except (GeometryError, JetDomainError) as exc:
        return defn, 1.0, None, [], str(exc), False
    sphere = checks.sphere_residual(frames)
    evidence = [sphere]
    if not sphere.passed:
        return defn, 1.0, None, evidence, "not an affine sphere", False
    offset = checks.xi_offset(frames)
    if offset is not None:
        return work, scale, frames, evidence, (
            "affine normal is not the position field "
            f"(offset {offset[0]:.3g}); recenter the sphere first"), False
    evidence.append(checks.apolarity_residual(frames))
    return work, scale, frames, evidence, None, True


def _structure_key(structure: SpectralStructure) -> tuple:
    """Preference among the product structures found at one point.

    Highly symmetric spheres admit several product structures at once
    (the orthant hypersurface is the extreme case); prefer the finer
    two-cluster split, then n2 <= n3, then the most balanced split.
    Equivalent structures have residuals that differ only by rounding (T
    and -T describe one structure with the blocks swapped), so residuals
    never choose: among equal keys `min` keeps the first structure in the
    rounded-key order of `find_axes`.
    """
    rank = 0 if structure.pattern == "pair" else 1
    return (rank, structure.n2 > structure.n3,
            -min(structure.n2, structure.n3))


def _track(frames: BlaschkeFrame, ref: SpectralStructure, tol: float,
           restarts: int, seed: int):
    """The product structure of `ref` followed across the frames from its
    axis, as (one structure per frame, None) or (None, failure note).

    One batched Newton solve, every row seeded from the axis of `ref`,
    and one eigensolve classify every point. A point whose solve fails,
    whose structure fails `_gate` against `ref`, or whose axis points
    away from that of `ref` in the metric of the point, is searched in
    full, and the candidate closest to the axis of `ref` decides there;
    the note names the first point where this fails the gate too."""
    t_ref = ref.axis.T
    axes = _solve_axis(frames.h, frames.K,
                       np.broadcast_to(t_ref, frames.u.shape))
    solved = [p for p, axis in enumerate(axes) if axis is not None
              and axis.axis_residual <= AXIS_RESIDUAL_TOL]
    structures = [None] * len(frames)
    for p, structure in zip(solved, _classify(frames[solved],
                                              [axes[p] for p in solved])):
        if (float(structure.axis.T @ frames.h[p] @ t_ref) >= 0.0
                and _gate(structure, tol, ref) is None):
            structures[p] = structure
    for p in [p for p, structure in enumerate(structures) if structure is None]:
        point = blaschke.format_point(frames.u[p])
        search = find_axes(frames[p], restarts=restarts, seed=seed)
        if not search:
            return None, f"axis disappears at grid point {point}"
        aligned = max(search, key=lambda c: abs(c.T @ frames.h[p] @ t_ref))
        if float(aligned.T @ frames.h[p] @ t_ref) < 0.0:
            aligned = aligned.flipped()
        (structures[p],) = _classify(frames[p:p + 1], [aligned])
        failure = _gate(structures[p], tol, ref)
        if failure is not None:
            return None, f"{failure} at grid point {point}"
    return structures, None


def _lambdas(structure: SpectralStructure) -> list:
    return [lam for lam in (structure.lambda1, structure.lambda2,
                            structure.lambda3) if lam is not None]


def _follow_axis(work: ImmersionDef, frames: BlaschkeFrame, tol: float,
                 restarts: int, seed: int):
    """The preferred product structure at the base point and the largest
    eigenvalue drift from it across the grid, as (structure, drift,
    failure note); a drift above tol fails at its worst point."""
    search, structures = _axis_structures(work, frames.u[0], restarts, seed)
    if not search:
        return None, math.inf, "no axis direction solves K(X,X) = mu X"
    scored = [s for s in structures if _gate(s, tol) is None]
    if not scored:
        return None, math.inf, ("no axis matches either product pattern "
                                "within tolerance")
    base = min(scored, key=_structure_key)
    tracked, failure = _track(frames[1:], base, tol, restarts, seed)
    if failure is not None:
        return None, math.inf, failure
    drifts = [0.0] + [max(abs(a - b) for a, b in zip(_lambdas(s),
                                                     _lambdas(base)))
                      for s in tracked]
    worst = int(np.argmax(drifts))
    if drifts[worst] > tol:
        return None, math.inf, (
            f"eigenvalues drift across the grid by {drifts[worst]:.3g} at "
            f"grid point {blaschke.format_point(frames.u[worst])}")
    return base, float(drifts[worst]), None


def detect(defn: ImmersionDef, grid, tol: float = 1e-6,
           restarts: int = 32, seed: int = 42) -> DecompositionVerdict:
    """Decide whether the surface is a Calabi product and of which kind.

    Never raises on structural mismatch or on geometry the frame
    pipeline refuses: every failure mode is a verdict with kind None and
    an explanatory note.
    """
    work, scale, frames, evidence, failure, orientation_ok = _prepare(
        defn, grid)
    if failure is not None:
        return _none_verdict(failure, evidence, orientation_ok,
                             work if frames is not None else None, scale)

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
        scale=scale, notes=(), restarts=restarts, seed=seed,
    )


# ---------------------------------------------------------------------------
# parallel cubic form gate


@dataclass(frozen=True)
class Theorem3Gate:
    applies: bool = False
    parallel: CheckReport | None = None
    curvature_action_residual: float | None = None
    derived_relations: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    cross_residual: float | None = None
    spectrum: SpectralStructure | None = None
    note: str | None = None


def _curvature_action_residual(frames: BlaschkeFrame) -> float:
    lhs = np.einsum("pijml,pzum->pijzul", frames.Rhat, frames.K)
    rhs = (np.einsum("pijzm,pmul->pijzul", frames.Rhat, frames.K)
           + np.einsum("pijum,pzml->pijzul", frames.Rhat, frames.K))
    return float(np.max(np.abs(lhs - rhs)))


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
    work, scale, frames, _evidence, failure, _ok = _prepare(defn, grid)
    if failure is not None:
        return Theorem3Gate(note=failure)

    parallel = checks.parallel_cubic_residual(frames)
    rk = _curvature_action_residual(frames)
    if is_quadric(frames):
        return Theorem3Gate(
            parallel=parallel, curvature_action_residual=rk,
            note="K ≈ 0: spectrum collapses, no (V, W) split to gate")

    try:
        _search, structures = _axis_structures(work, frames.u[0], restarts,
                                               seed)
    except numerics.AsymmetricMatrixError as exc:
        return Theorem3Gate(parallel=parallel, curvature_action_residual=rk,
                            note=str(exc))
    pairs = [s for s in structures
             if s.pattern == "pair" and s.axis.axis_residual <= tol]
    if not pairs:
        return Theorem3Gate(parallel=parallel, curvature_action_residual=rk,
                            note="no axis with a two-cluster spectrum")
    best = min(pairs, key=_structure_key)

    lam1, lam2, lam3 = best.lambda1, best.lambda2, best.lambda3
    derived = {
        "lambda2_branch": abs((lam1 - 2.0 * lam2)
                              * (-1.0 - lam1 * lam2 + lam2 ** 2)),
        "lambda3_branch": abs((lam1 - 2.0 * lam3)
                              * (-1.0 - lam1 * lam3 + lam3 ** 2)),
    }
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
    return Theorem3Gate(
        applies=bool(applies), parallel=parallel,
        curvature_action_residual=float(rk), derived_relations=derived,
        margins=margins, cross_residual=best.cross_residual,
        spectrum=best, note=None,
    )


# ---------------------------------------------------------------------------
# factor extraction


@dataclass(frozen=True)
class FactorData:
    kind: str
    d1: float
    d2: float
    phi2_samples: np.ndarray
    phi3_samples: np.ndarray
    subspace2: np.ndarray
    subspace3: np.ndarray
    factor_defs: tuple | None
    residuals: dict
    metric_ratio: float
    immersion_rate: float


def _grid_fields(frames: BlaschkeFrame, structures) -> SimpleNamespace:
    """The frame fields with the tracked axis T, its derivative
    dT[p, d, k] = d_d T^k and the rows spanning the lambda2 and lambda3
    blocks, each with a leading grid-point axis p.

    dT follows from implicit differentiation of the axis system
    (K(T,T) = mu T, h(T,T) = 1), with the Jacobian of `_axis_system` at
    each point, in one solve for all of them. A point structure has no
    lambda3 block: its basis3 has no rows."""
    T = np.stack([s.axis.T for s in structures])
    npts, n = T.shape
    basis3 = (np.stack([s.clusters[0][2] for s in structures])
              if structures[0].pattern == "pair" else np.zeros((npts, 0, n)))
    _f, jac = _axis_system(frames.h, frames.K, T,
                           [s.lambda1 for s in structures])
    rhs = np.zeros((npts, n + 1, n))
    rhs[:, :n] = -np.einsum("pdijk,pi,pj->pkd", frames.dK, T, T)
    rhs[:, n] = -np.einsum("pdij,pi,pj->pd", frames.dh, T, T)
    return SimpleNamespace(
        **vars(frames), T=T, basis3=basis3,
        basis2=np.stack([s.clusters[-1][2] for s in structures]),
        dT=np.linalg.solve(jac, rhs)[:, :n].transpose(0, 2, 1))


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


def _nabla_t(f: SimpleNamespace, xs: np.ndarray,
             gamma: np.ndarray) -> np.ndarray:
    """nabla_x T = x^i (d_i T^k + gamma^k_ij T^j) for the rows x of xs."""
    return xs @ f.dT + np.einsum("pri,pijk,pj->prk", xs, gamma, f.T)


def _amax(a) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _drift_residuals(f: SimpleNamespace, phi2_raw, phi3_raw, lam2: float,
                     lam3: float) -> dict:
    t2, t3, _ = _d_phi(f, f.T[:, None], lam2, lam3)
    v2, v3, v_amb = _d_phi(f, f.basis2, lam2, lam3)
    w2, w3, w_amb = _d_phi(f, f.basis3, lam2, lam3)
    geo_vw = (_nabla_t(f, f.basis2, f.gamma_hat) @ f.h
              @ f.basis3.transpose(0, 2, 1))
    geo_wv = (_nabla_t(f, f.basis3, f.gamma_hat) @ f.h
              @ f.basis2.transpose(0, 2, 1))
    return {
        "phi2_axis": _amax(t2[:, 0] - lam2 * phi2_raw),
        "phi3_axis": _amax(t3[:, 0] - lam3 * phi3_raw),
        "phi2_cokernel": _amax(w2),
        "phi3_cokernel": _amax(v3),
        "phi2_immersion": _amax(v2 - (lam2 - lam3) * v_amb),
        "phi3_immersion": _amax(w3 - (lam2 - lam3) * w_amb),
        "totally_geodesic": max(_amax(geo_vw), _amax(geo_wv)),
    }


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
    b = f.basis2
    m = ((-lam3 * b + _nabla_t(f, b, f.gamma)) @ f.h
         @ b.transpose(0, 2, 1))[0] / -lam3
    expected = (lam2 - lam3) * lam2
    worst = float(np.max(np.abs(m - expected * np.eye(len(m)))))
    return float(np.mean(np.diag(m))), worst


def _provenance_aligned_axis(defn: ImmersionDef, frames: BlaschkeFrame,
                             spectrum: SpectralStructure, tol: float,
                             restarts: int, seed: int):
    """The structure matching the verdict spectrum whose lambda2 block
    spans a single recorded component block, and whether that block is
    the first one, as (structure, lambda2_first).

    On surfaces with several equivalent product structures the detected
    axis may belong to a grouping other than the recorded one; factor
    reconstruction needs the recorded grouping, which is identified by
    where the lambda2 eigenvectors point in ambient coordinates. Raises
    GeometryError when no candidate keeps to one block."""
    m2 = defn.provenance.n2 + 1
    best, best_score, lam2_first = None, math.inf, True
    _search, structures = _axis_structures(defn, frames.u[0], restarts, seed)
    for structure in structures:
        if _gate(structure, tol, spectrum) is not None:
            continue
        lam3 = structure.lambda3
        if lam3 is None:
            lam3 = structure.lambda1 - structure.lambda2
        # clusters ascend, so the lambda2 block (the positive one) is last
        mat = np.vstack([-lam3 * frames.position[0]
                         + structure.axis.T @ frames.tangent[0],
                         structure.clusters[-1][2] @ frames.tangent[0]])
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        first = float(np.sum(np.abs(mat[:, :m2])))
        second = float(np.sum(np.abs(mat[:, m2:])))
        if min(first, second) < best_score:
            best, best_score = structure, min(first, second)
            lam2_first = first >= second
    if best is None or best_score > 1e-6:
        raise GeometryError(
            "no axis with the verdict spectrum keeps its lambda2 block in "
            "one recorded component block; the axis does not match the "
            "recorded grouping")
    return best, lam2_first


def _slice_factor_def(defn: ImmersionDef, indices, label: str):
    prov = defn.provenance
    zero = const(0.0)
    comps = tuple(substitute(defn.components[i], {prov.axis: zero})
                  for i in indices)
    used = set()
    for comp in comps:
        used |= _free_vars(comp)
    kept = tuple(v for v in defn.vars if v in used)
    if not kept:
        return None
    return ImmersionDef(name=f"{defn.name}_{label}", vars=kept,
                        components=comps, provenance=None)


def _factor_grid(defn: ImmersionDef, factor: ImmersionDef, grid):
    cols = [defn.vars.index(v) for v in factor.vars]
    return np.unique(np.round(np.atleast_2d(grid)[:, cols], 12), axis=0)


def _factor_at_unit_curvature(defn: ImmersionDef, factor: ImmersionDef,
                              grid, label: str, residuals: dict):
    """The factor rescaled to H = -1, with its mean curvature and sphere
    residuals over the factor grid recorded under `label`."""
    points = _factor_grid(defn, factor, grid)
    norm = normalize_homothety(factor, grid=points)
    frames = blaschke.frames_on_grid(norm.def_scaled, points)
    residuals[f"{label}_mean_curvature"] = float(np.max(np.abs(frames.H
                                                              + 1.0)))
    residuals[f"{label}_sphere"] = checks.sphere_residual(frames).max_residual
    return norm


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
    c1_base, c2_base = base_coefficients(kind, n2, n3)
    m2 = defn.provenance.n2 + 1
    first, second = list(range(m2)), list(range(m2, defn.ncomponents))
    idx2, idx3 = (first, second) if lam2_first else (second, first)
    fac1 = _slice_factor_def(defn, idx2, "factor1")
    fac2 = _slice_factor_def(defn, idx3, "factor2")

    norm1 = _factor_at_unit_curvature(defn, fac1, grid, "factor1", residuals)
    d1 = 1.0 / (norm1.scale * c1_base)
    d2 = d1 ** (-(n2 + 1.0) / (n3 + 1.0))

    defs = [norm1.def_scaled]
    if fac2 is not None:
        norm2 = _factor_at_unit_curvature(defn, fac2, grid, "factor2",
                                          residuals)
        d2_direct = 1.0 / (norm2.scale * c2_base)
        residuals["gauge_consistency"] = abs(d2 - d2_direct)
        defs.append(norm2.def_scaled)
    else:
        # zero-dimensional block: a constant vector, gauge read directly
        probe = np.zeros(defn.nvars)
        vals = eval_components(defn, probe)
        block = np.array([vals[i] for i in idx3])
        d2_direct = float(np.linalg.norm(block)) / c2_base
        residuals["gauge_consistency"] = abs(d2 - d2_direct)
    return tuple(defs), float(d1), float(d2)


def _extract(defn: ImmersionDef, verdict: DecompositionVerdict, grid,
             lam3_formal: float, tol: float, kind: str) -> FactorData:
    if verdict.spectrum is None:
        raise VerdictError("verdict carries no spectral structure")
    if not verdict.orientation_ok:
        raise VerdictError("extraction requires the xi = phi orientation")
    spectrum = verdict.spectrum
    lam2 = spectrum.lambda2
    lam3 = lam3_formal
    n2, n3 = spectrum.n2, spectrum.n3

    frames = blaschke.frames_on_grid(defn, grid)
    prov = defn.provenance
    axis_idx = None
    if prov is not None and prov.axis in defn.vars:
        axis_idx = defn.vars.index(prov.axis)

    ref = spectrum
    if axis_idx is not None:
        ref, lam2_first = _provenance_aligned_axis(
            defn, frames, spectrum, tol, verdict.restarts, verdict.seed)
    structures, failure = _track(frames, ref, tol, verdict.restarts,
                                 verdict.seed)
    if failure is not None:
        raise GeometryError(failure)
    f = _grid_fields(frames, structures)

    t_amb = (f.T[:, None] @ f.tangent)[:, 0]
    phi2_raw = -lam3 * f.position + t_amb
    phi3_raw = lam2 * f.position - t_amb
    residuals = _drift_residuals(f, phi2_raw, phi3_raw, lam2, lam3)

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

    d_v_phi2, _, v_amb = _d_phi(f, f.basis2, lam2, lam3)
    width = phi2_raw.shape[1]
    sub2 = numerics.subspace_rank(
        np.vstack([phi2_raw, d_v_phi2.reshape(-1, width)]))
    sub3 = numerics.subspace_rank(
        np.vstack([phi3_raw, _d_phi(f, f.basis3, lam2, lam3)[1]
                   .reshape(-1, width)]))
    joint = numerics.subspace_rank(
        np.vstack([sub2.basis, sub3.basis]))
    residuals["subspace_overlap"] = float(
        sub2.rank + sub3.rank - joint.rank)

    metric_ratio, residuals["metric_ratio"] = _metric_ratio(f, lam2, lam3)
    rate = float(np.linalg.norm(d_v_phi2[0, 0]) / np.linalg.norm(v_amb[0, 0]))

    if kind == "point":
        nab_t_t = _nabla_t(f, f.T[:, None], f.gamma_hat)[0, 0]
        residuals["axis_geodesic"] = float(_h_norms(f.h[0], nab_t_t))
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
    return _extract(defn, verdict, grid, verdict.spectrum.lambda3, tol,
                    "pair")


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
    spectrum = verdict.spectrum
    lam3_formal = spectrum.lambda1 - spectrum.lambda2
    return _extract(defn, verdict, grid, lam3_formal, tol, "point")
