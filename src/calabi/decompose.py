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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blaschke, checks, numerics
from .blaschke import BlaschkeFrame, GeometryError
from .checks import CheckReport
from .construct import base_coefficients
from .dsl import (ImmersionDef, const, eval_components, mul, substitute,
                  _free_vars)
from .jets import JetDomainError

QUADRIC_K_TOL = 1e-7
AXIS_RESIDUAL_TOL = 1e-8
CLUSTER_GAP = 1e-6
MARGIN_MIN = 1e-3


class NotHyperbolicError(GeometryError):
    """Mean curvature is not negative."""


class BracketError(GeometryError):
    """The closed-form homothety misses H = -1."""


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


def normalize_homothety(defn: ImmersionDef, probe=None) -> HomothetyResult:
    """Rescale phi -> c phi so the mean curvature becomes -1.

    The exact scaling law H(c phi) = c^(-2(n+1)/(n+2)) H(phi) gives the
    scale in closed form, c = |H|^((n+2)/(2(n+1))) with H read at the
    probe point. One frame of the scaled definition at the probe point
    verifies the result.
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
    miss = blaschke.full_frame(scaled, probe).H + 1.0
    if abs(miss) > 1e-9:
        raise BracketError(
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


class AxisSearchResult(list):
    """List of CandidateAxis; `note` flags the degenerate K = 0 case.

    A plain list subclass so callers can iterate candidates directly
    while the all-directions diagnostic stays attached to the result.
    """

    def __init__(self, items=(), note: str | None = None):
        super().__init__(items)
        self.note = note


def _h_norm(h: np.ndarray, v: np.ndarray) -> float:
    return float(math.sqrt(max(v @ h @ v, 0.0)))


def _axis_system(frame: BlaschkeFrame, x: np.ndarray, mu: float):
    kxx = np.einsum("ijk,i,j->k", frame.K, x, x)
    f = np.concatenate([kxx - mu * x, [x @ frame.h @ x - 1.0]])
    n = frame.n
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = 2.0 * np.einsum("ijk,i->kj", frame.K, x) - mu * np.eye(n)
    jac[:n, n] = -x
    jac[n, :n] = 2.0 * frame.h @ x
    return f, jac


def _axis_newton(frame: BlaschkeFrame, x0: np.ndarray, mu0: float,
                 max_iter: int = 80):
    """Damped Newton on (K(X,X) - mu X, h(X,X) - 1) = 0."""
    x, mu = np.array(x0, dtype=float), float(mu0)
    f, jac = _axis_system(frame, x, mu)
    norm = np.linalg.norm(f)
    for _ in range(max_iter):
        if norm <= 1e-13:
            break
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        damp = 1.0
        for _ in range(40):
            x_new = x + damp * step[:-1]
            mu_new = mu + damp * step[-1]
            f_new, jac_new = _axis_system(frame, x_new, mu_new)
            norm_new = np.linalg.norm(f_new)
            if norm_new < norm * (1.0 - 1e-4 * damp) or norm_new <= 1e-13:
                x, mu, f, jac, norm = x_new, mu_new, f_new, jac_new, norm_new
                break
            damp *= 0.5
        else:
            return None
    if norm > 1e-11:
        return None
    return x, mu


def _canonical_sign(x: np.ndarray, mu: float):
    lead = next((comp for comp in x if abs(comp) > 1e-8), 0.0)
    return (-x, -mu) if lead < 0.0 else (x, mu)


def _track_axis(frame: BlaschkeFrame,
                t_prev: np.ndarray) -> CandidateAxis | None:
    """The axis one Newton solve reaches from t_prev, sign-matched to
    t_prev; None when the solve fails."""
    mu_seed = float(np.einsum("ijk,i,j->k", frame.K, t_prev, t_prev)
                    @ frame.h @ t_prev)
    sol = _axis_newton(frame, t_prev, mu_seed)
    if sol is None:
        return None
    t_vec, mu = sol
    if float(t_vec @ t_prev) < 0.0:
        t_vec, mu = -t_vec, -mu
    resid_vec = np.einsum("ijk,i,j->k", frame.K, t_vec, t_vec) - mu * t_vec
    return CandidateAxis(T=t_vec, lambda1=float(mu),
                         axis_residual=_h_norm(frame.h, resid_vec))


def find_axes(frame: BlaschkeFrame, restarts: int = 32,
              seed: int = 42) -> AxisSearchResult:
    """All h-unit solutions of K(X,X) = mu X found from seeded restarts.

    T and -T solve together (with mu and -mu), so solutions are
    deduplicated by fixing the sign of the first significant coordinate.
    Newton handles mu = 0 axes, which pure ascent on the cubic misses.
    """
    n = frame.n
    basis = numerics.metric_orthonormal_basis(frame.h)
    rng = np.random.default_rng(seed)
    seeds = [basis[:, j] for j in range(n)]
    while len(seeds) < restarts:
        v = rng.standard_normal(n)
        nv = _h_norm(frame.h, v)
        if nv > 1e-8:
            seeds.append(v / nv)

    found: dict[tuple, CandidateAxis] = {}
    for x0 in seeds[:max(restarts, n)]:
        mu0 = float(np.einsum("ijk,i,j->k", frame.K, x0, x0) @ frame.h @ x0)
        sol = _axis_newton(frame, x0, mu0)
        if sol is None:
            continue
        x, mu = _canonical_sign(*sol)
        key = tuple(np.round(x, 7)) + (round(mu, 7),)
        if key in found:
            continue
        resid_vec = np.einsum("ijk,i,j->k", frame.K, x, x) - mu * x
        resid = _h_norm(frame.h, resid_vec)
        if resid <= AXIS_RESIDUAL_TOL:
            found[key] = CandidateAxis(T=x, lambda1=float(mu),
                                       axis_residual=resid)

    axes = sorted(found.values(), key=lambda c: (c.lambda1, tuple(c.T)))
    note = None
    k_scale = float(np.max(np.abs(frame.K))) if frame.K.size else 0.0
    if (len(axes) >= 3 * n
            and all(abs(c.lambda1) <= 1e-7 for c in axes)
            and k_scale <= QUADRIC_K_TOL):
        note = "K ≈ 0: quadric, no canonical axis"
    return AxisSearchResult(axes, note=note)


# ---------------------------------------------------------------------------
# spectrum classification


@dataclass(frozen=True)
class SpectralStructure:
    """Eigenstructure of K_T split off the axis eigenpair.

    `clusters` holds (eigenvalue, multiplicity, basis) triples with
    h-orthonormal coordinate bases; `pattern` is "point", "pair" or
    "unclassified" when three or more clusters remain."""

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


def _cross_residual(frame: BlaschkeFrame, basis2, basis3) -> float:
    worst = 0.0
    for v in basis2:
        for w in basis3:
            kvw = np.einsum("ijk,i,j->k", frame.K, v, w)
            worst = max(worst, _h_norm(frame.h, kvw))
    return worst


def classify_spectrum(frame: BlaschkeFrame, axis: CandidateAxis,
                      tol: float = 1e-6,
                      _flipped: bool = False) -> SpectralStructure:
    """Cluster the K_T spectrum and test it against the product patterns.

    The matrix of K_T is assembled in the h-inner product (symmetric by
    total symmetry of the cubic form), the T eigenpair is removed by
    eigenvector overlap, and the rest is clustered with the 1e-6 merge
    gap. One cluster matches the point pattern, two the pair pattern
    with lambda2 > 0 > lambda3 (flipping T when needed); anything else
    is reported as unclassified rather than raised.
    """
    if axis.axis_residual > tol:
        raise ValueError(
            f"axis residual {axis.axis_residual:.3g} exceeds {tol:.3g}"
        )
    n = frame.n
    t_vec = axis.T
    a = np.einsum("i,ijk->jk", t_vec, frame.C)
    eig = numerics.solve_sym_eig_generalized(a, frame.h)
    overlaps = np.abs(eig.vectors.T @ frame.h @ t_vec)
    t_slot = int(np.argmax(overlaps))

    rest = [(float(eig.values[j]), j) for j in range(n) if j != t_slot]
    raw_clusters = numerics.cluster_values([v for v, _ in rest],
                                           gap=CLUSTER_GAP)
    clusters = []
    for mean, members in raw_clusters:
        cols = [rest[m][1] for m in members]
        basis = tuple(eig.vectors[:, j] for j in cols)
        clusters.append((mean, len(cols), basis))

    lam1 = axis.lambda1

    if len(clusters) == 1:
        mean, mult, basis = clusters[0]
        if mean < 0.0 and not _flipped:
            return classify_spectrum(frame, axis.flipped(), tol,
                                     _flipped=True)
        lam2 = mean
        relations = {
            "thm1": abs(1.0 + lam1 * lam2 - lam2 ** 2),
            "apolar": abs(lam1 + mult * lam2),
        }
        return SpectralStructure(
            axis=axis, clusters=tuple(clusters), n2=mult, n3=0,
            lambda2=lam2, lambda3=None, cross_residual=0.0,
            relation_residuals=relations, pattern="point",
        )

    if len(clusters) == 2:
        low, high = clusters[0], clusters[1]
        if not (low[0] < 0.0 < high[0]):
            if not _flipped:
                return classify_spectrum(frame, axis.flipped(), tol,
                                         _flipped=True)
            return SpectralStructure(
                axis=axis, clusters=tuple(clusters), n2=high[1], n3=low[1],
                lambda2=None, lambda3=None,
                cross_residual=_cross_residual(frame, high[2], low[2]),
                relation_residuals={}, pattern="unclassified",
            )
        lam2, n2, basis2 = high
        lam3, n3, basis3 = low
        relations = {
            "thm1": abs(1.0 + lam1 * lam2 - lam2 ** 2),
            "sum": abs(lam1 - lam2 - lam3),
            "prod": abs(lam2 * lam3 + 1.0),
            "apolar": abs(lam1 + n2 * lam2 + n3 * lam3),
        }
        return SpectralStructure(
            axis=axis, clusters=tuple(clusters), n2=n2, n3=n3,
            lambda2=lam2, lambda3=lam3,
            cross_residual=_cross_residual(frame, basis2, basis3),
            relation_residuals=relations, pattern="pair",
        )

    return SpectralStructure(
        axis=axis, clusters=tuple(clusters), n2=0, n3=0,
        lambda2=None, lambda3=None, cross_residual=0.0,
        relation_residuals={}, pattern="unclassified",
    )


# ---------------------------------------------------------------------------
# detection


@dataclass(frozen=True)
class DecompositionVerdict:
    kind: str | None
    spectrum: SpectralStructure | None
    constancy_residual: float
    orientation_ok: bool
    evidence: tuple
    def_scaled: ImmersionDef | None
    scale: float
    notes: tuple = ()


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
    orientation_ok)."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    h0 = blaschke.full_frame(defn, tuple(grid[0])).H
    if h0 >= 0.0:
        # the input frames only choose which of the two gates failed
        sphere = checks.sphere_residual(defn, grid)
        note = ("not an affine sphere" if not sphere.passed
                else f"not hyperbolic (H = {h0:.6g} >= 0)")
        return defn, 1.0, None, [sphere], note, False
    if abs(h0 + 1.0) > 1e-9:
        scaled = normalize_homothety(defn, probe=tuple(grid[0]))
        work, scale = scaled.def_scaled, scaled.scale
    else:
        work, scale = defn, 1.0
    # S = H id is invariant under homotheties, so the sphere gate runs on
    # the work frames, where H = -1 makes its absolute tolerance scale free
    frames = blaschke.frames_on_grid(work, grid)
    sphere = checks.sphere_residual(frames)
    evidence = [sphere]
    if not sphere.passed:
        return defn, 1.0, None, evidence, "not an affine sphere", False
    worst_xi = max(float(np.max(np.abs(fr.xi - fr.position)))
                   for fr in frames)
    pos_scale = max(1.0, max(float(np.max(np.abs(fr.position)))
                             for fr in frames))
    if worst_xi > 1e-6 * pos_scale:
        return work, scale, frames, evidence, (
            "affine normal is not the position field "
            f"(offset {worst_xi:.3g}); recenter the sphere first"), False
    evidence.append(checks.apolarity_residual(frames))
    return work, scale, frames, evidence, None, True


def _structure_key(structure: SpectralStructure) -> tuple:
    """Preference among the product structures found at one point.

    Highly symmetric spheres admit several product structures at once
    (the orthant hypersurface is the extreme case); prefer the finer
    two-cluster split, then n2 <= n3, then the smallest combined
    residual. T and -T describe one structure with the blocks swapped,
    and their residuals differ only by rounding, so the block sizes,
    not the residuals, choose between them.
    """
    rank = 0 if structure.pattern == "pair" else 1
    total = sum(structure.relation_residuals.values()) + structure.cross_residual
    return (rank, structure.n2 > structure.n3, total)


def detect(defn: ImmersionDef, grid, tol: float = 1e-6,
           restarts: int = 32, seed: int = 42) -> DecompositionVerdict:
    """Decide whether the surface is a Calabi product and of which kind.

    Never raises on structural mismatch or on geometry the frame
    pipeline refuses: every failure mode is a verdict with kind None and
    an explanatory note.
    """
    try:
        work, scale, frames, evidence, failure, orientation_ok = _prepare(
            defn, grid)
    except (GeometryError, JetDomainError) as exc:
        return _none_verdict(str(exc))
    if failure is not None:
        return _none_verdict(failure, evidence, orientation_ok,
                             work if frames is not None else None, scale)

    k_scale = max(float(np.max(np.abs(fr.K))) for fr in frames)
    if k_scale <= QUADRIC_K_TOL:
        return _none_verdict(
            "K ≈ 0: quadric, no canonical axis",
            evidence, True, work, scale)

    search = find_axes(frames[0], restarts=restarts, seed=seed)
    if search.note is not None:
        return _none_verdict(search.note, evidence, True, work, scale)
    if not search:
        return _none_verdict("no axis direction solves K(X,X) = mu X",
                             evidence, True, work, scale)

    scored = []
    for cand in search:
        structure = classify_spectrum(frames[0], cand, tol)
        if structure.pattern == "unclassified":
            continue
        if any(r > tol for r in structure.relation_residuals.values()):
            continue
        if structure.pattern == "pair" and structure.cross_residual > tol:
            continue
        scored.append(structure)
    if not scored:
        return _none_verdict(
            "no axis matches either product pattern within tolerance",
            evidence, True, work, scale)
    base_best = min(scored, key=_structure_key)

    def mismatch(structure: SpectralStructure) -> str | None:
        if ((structure.pattern, structure.n2, structure.n3)
                != (base_best.pattern, base_best.n2, base_best.n3)):
            return "axis spectrum changes shape across the grid"
        if any(r > tol for r in structure.relation_residuals.values()):
            return "eigenvalue relations fail away from the base point"
        return None

    prev_t = base_best.axis.T
    drift = 0.0
    for frame in frames[1:]:
        # Track the axis from the previous point; search this point in
        # full only when the tracked axis fails a check.
        structure = None
        tracked = _track_axis(frame, prev_t)
        if tracked is not None and tracked.axis_residual <= AXIS_RESIDUAL_TOL:
            structure = classify_spectrum(frame, tracked, tol)
            if mismatch(structure) is not None:
                structure = None
        if structure is None:
            search = find_axes(frame, restarts=restarts, seed=seed)
            if not search:
                return _none_verdict(
                    "axis disappears at grid point "
                    f"{blaschke.format_point(frame.u)}",
                    evidence, True, work, scale)
            aligned = max(search, key=lambda c: abs(float(c.T @ prev_t)))
            if float(aligned.T @ prev_t) < 0.0:
                aligned = aligned.flipped()
            structure = classify_spectrum(frame, aligned, tol)
            failure = mismatch(structure)
            if failure is not None:
                return _none_verdict(failure, evidence, True, work, scale)
        drift = max(drift, abs(structure.lambda1 - base_best.lambda1),
                    abs(structure.lambda2 - base_best.lambda2))
        if base_best.lambda3 is not None:
            drift = max(drift, abs(structure.lambda3 - base_best.lambda3))
        prev_t = structure.axis.T

    if drift > tol:
        return _none_verdict(
            f"eigenvalues drift across the grid by {drift:.3g}",
            evidence, True, work, scale)

    kind = "PointProduct" if base_best.pattern == "point" else "PairProduct"
    return DecompositionVerdict(
        kind=kind, spectrum=base_best, constancy_residual=float(drift),
        orientation_ok=True, evidence=tuple(evidence), def_scaled=work,
        scale=scale, notes=(),
    )


# ---------------------------------------------------------------------------
# parallel cubic form gate


@dataclass(frozen=True)
class Theorem3Gate:
    applies: bool
    parallel: CheckReport | None
    curvature_action_residual: float | None
    derived_relations: dict
    margins: dict
    cross_residual: float | None
    spectrum: SpectralStructure | None
    note: str | None = None


def _curvature_action_residual(frame: BlaschkeFrame) -> float:
    lhs = np.einsum("ijml,zum->ijzul", frame.Rhat, frame.K)
    rhs = (np.einsum("ijzm,mul->ijzul", frame.Rhat, frame.K)
           + np.einsum("ijum,zml->ijzul", frame.Rhat, frame.K))
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
        return Theorem3Gate(applies=False, parallel=None,
                            curvature_action_residual=None,
                            derived_relations={}, margins={},
                            cross_residual=None, spectrum=None, note=failure)

    k_scale = max(float(np.max(np.abs(fr.K))) for fr in frames)
    parallel = checks.parallel_cubic_residual(frames)
    rk = max(_curvature_action_residual(fr) for fr in frames)
    if k_scale <= QUADRIC_K_TOL:
        return Theorem3Gate(
            applies=False, parallel=parallel,
            curvature_action_residual=rk, derived_relations={}, margins={},
            cross_residual=None, spectrum=None,
            note="K ≈ 0: spectrum collapses, no (V, W) split to gate")

    structures = [classify_spectrum(frames[0], cand, tol)
                  for cand in find_axes(frames[0], restarts=restarts, seed=seed)]
    pairs = [s for s in structures if s.pattern == "pair"]
    if not pairs:
        return Theorem3Gate(
            applies=False, parallel=parallel,
            curvature_action_residual=rk, derived_relations={}, margins={},
            cross_residual=None, spectrum=None,
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


def _axis_field_derivative(frame: BlaschkeFrame, t_vec: np.ndarray,
                           mu: float) -> np.ndarray:
    """dT[d, k] = d_d T^k by implicit differentiation of the axis system."""
    n = frame.n
    _f, jac = _axis_system(frame, t_vec, mu)
    rhs = np.zeros((n + 1, n))
    rhs[:n, :] = -np.einsum("dijk,i,j->kd", frame.dK, t_vec, t_vec)
    rhs[n, :] = -np.einsum("dij,i,j->d", frame.dh, t_vec, t_vec)
    sol = np.linalg.solve(jac, rhs)
    return sol[:n, :].T


def _ambient(frame: BlaschkeFrame, x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float) @ frame.tangent


def _ambient_axis_derivative(frame: BlaschkeFrame, dT: np.ndarray,
                             t_vec: np.ndarray, x: np.ndarray) -> np.ndarray:
    # D_X of the ambient image of the axis field: chain rule through the
    # coordinates of T plus the bending of the tangent basis.
    coord_part = (np.asarray(x) @ dT) @ frame.tangent
    bend_part = np.einsum("i,k,ika->a", x, t_vec, frame.second)
    return coord_part + bend_part


@dataclass
class _PointData:
    frame: BlaschkeFrame
    t_vec: np.ndarray
    mu: float
    dT: np.ndarray
    basis2: tuple
    basis3: tuple
    phi2_raw: np.ndarray
    phi3_raw: np.ndarray


def _per_point_structure(frame: BlaschkeFrame, t_prev: np.ndarray,
                         lam2: float, lam3: float, tol: float) -> _PointData:
    axis = _track_axis(frame, t_prev)
    if axis is None:
        raise GeometryError(
            "axis tracking lost at grid point "
            f"{blaschke.format_point(frame.u)}")
    t_vec, mu = axis.T, axis.lambda1
    a = np.einsum("i,ijk->jk", t_vec, frame.C)
    eig = numerics.solve_sym_eig_generalized(a, frame.h)
    overlaps = np.abs(eig.vectors.T @ frame.h @ t_vec)
    t_slot = int(np.argmax(overlaps))
    basis2, basis3 = [], []
    for j in range(frame.n):
        if j == t_slot:
            continue
        if abs(float(eig.values[j]) - lam2) <= 100 * tol:
            basis2.append(eig.vectors[:, j])
        elif abs(float(eig.values[j]) - lam3) <= 100 * tol:
            basis3.append(eig.vectors[:, j])
        else:
            raise GeometryError(
                f"eigenvalue {eig.values[j]:.6g} matches neither cluster "
                f"at grid point {blaschke.format_point(frame.u)}")
    dT = _axis_field_derivative(frame, t_vec, mu)
    t_amb = _ambient(frame, t_vec)
    phi2_raw = -lam3 * frame.position + t_amb
    phi3_raw = lam2 * frame.position - t_amb
    return _PointData(frame=frame, t_vec=t_vec, mu=mu, dT=dT,
                      basis2=tuple(basis2), basis3=tuple(basis3),
                      phi2_raw=phi2_raw, phi3_raw=phi3_raw)


def _drift_residuals(pd: _PointData, lam2: float, lam3: float) -> dict:
    fr = pd.frame
    res = {}
    d_t_phi2 = (-lam3 * _ambient(fr, pd.t_vec)
                + _ambient_axis_derivative(fr, pd.dT, pd.t_vec, pd.t_vec))
    res["phi2_axis"] = float(np.max(np.abs(d_t_phi2 - lam2 * pd.phi2_raw)))
    d_t_phi3 = (lam2 * _ambient(fr, pd.t_vec)
                - _ambient_axis_derivative(fr, pd.dT, pd.t_vec, pd.t_vec))
    res["phi3_axis"] = float(np.max(np.abs(d_t_phi3 - lam3 * pd.phi3_raw)))

    w_kill = v_kill = 0.0
    v_imm = w_imm = 0.0
    for w in pd.basis3:
        d_w_phi2 = (-lam3 * _ambient(fr, w)
                    + _ambient_axis_derivative(fr, pd.dT, pd.t_vec, w))
        w_kill = max(w_kill, float(np.max(np.abs(d_w_phi2))))
        d_w_phi3 = (lam2 * _ambient(fr, w)
                    - _ambient_axis_derivative(fr, pd.dT, pd.t_vec, w))
        w_imm = max(w_imm, float(np.max(np.abs(
            d_w_phi3 - (lam2 - lam3) * _ambient(fr, w)))))
    for v in pd.basis2:
        d_v_phi3 = (lam2 * _ambient(fr, v)
                    - _ambient_axis_derivative(fr, pd.dT, pd.t_vec, v))
        v_kill = max(v_kill, float(np.max(np.abs(d_v_phi3))))
        d_v_phi2 = (-lam3 * _ambient(fr, v)
                    + _ambient_axis_derivative(fr, pd.dT, pd.t_vec, v))
        v_imm = max(v_imm, float(np.max(np.abs(
            d_v_phi2 - (lam2 - lam3) * _ambient(fr, v)))))
    res["phi2_cokernel"] = w_kill
    res["phi3_cokernel"] = v_kill
    res["phi2_immersion"] = v_imm
    res["phi3_immersion"] = w_imm

    geo = 0.0
    for v in pd.basis2:
        nab_v_t = v @ pd.dT + np.einsum("i,ijk,j->k", v, fr.gamma_hat,
                                        pd.t_vec)
        for w in pd.basis3:
            geo = max(geo, abs(float(nab_v_t @ fr.h @ w)))
    for w in pd.basis3:
        nab_w_t = w @ pd.dT + np.einsum("i,ijk,j->k", w, fr.gamma_hat,
                                        pd.t_vec)
        for v in pd.basis2:
            geo = max(geo, abs(float(nab_w_t @ fr.h @ v)))
    res["totally_geodesic"] = geo
    return res


def _metric_ratio(base_pd: _PointData, lam2: float, lam3: float):
    """phi2 coefficient of the second derivatives along the lambda2 block.

    By the Gauss formula phi_ij = Gamma^k_ij phi_k + h_ij phi (xi = phi;
    Nomizu & Sasaki, Affine Differential Geometry, 1994, ch. II), a
    field V in the lambda2 block, where h(V, T) = 0, has

      D_V phi2 = X^k phi_k,   X = -lambda3 V + nabla_V T,

    with nabla_V T = V^i (d_i T^k + Gamma^k_ij T^j). Differentiating once
    more along w, the phi coefficient of D_w D_V phi2 is h(X, w), and
    phi2 = -lambda3 phi + T has phi coefficient -lambda3, so

      m(v, w) = h(-lambda3 v + nabla_v T, w) / (-lambda3),

    exact and free of the coordinates. Returns the mean diagonal of m
    over the h-orthonormal block basis and the largest deviation of m
    from (lambda2 - lambda3) lambda2 times the identity.
    """
    fr = base_pd.frame
    b = np.array(base_pd.basis2)
    nabla_t = b @ base_pd.dT + np.einsum("ai,ijk,j->ak", b, fr.gamma,
                                         base_pd.t_vec)
    m = (-lam3 * b + nabla_t) @ fr.h @ b.T / -lam3
    expected = (lam2 - lam3) * lam2
    worst = float(np.max(np.abs(m - expected * np.eye(len(b)))))
    return float(np.mean(np.diag(m))), worst


def _block_slices(defn: ImmersionDef, subspace2: np.ndarray):
    """Split a provenance-carrying def into its two component blocks.

    Provenance fixes the block sizes; which block belongs to the
    lambda2 eigenspace is decided by projecting the recovered subspace
    onto each coordinate block. The projection must be decisive: a
    subspace straddling both blocks means the detected axis belongs to
    a different grouping than the recorded one."""
    prov = defn.provenance
    m2 = prov.n2 + 1
    first = list(range(m2))
    secondb = list(range(m2, defn.ncomponents))
    weight_first = float(np.sum(np.abs(subspace2[:, first])))
    weight_second = float(np.sum(np.abs(subspace2[:, secondb])))
    if min(weight_first, weight_second) > 1e-6 * max(weight_first,
                                                     weight_second):
        raise GeometryError(
            "recovered factor subspace straddles the recorded component "
            "blocks; the axis does not match the recorded grouping")
    if weight_first >= weight_second:
        return first, secondb
    return secondb, first


def _lambda2_cluster_basis(structure: SpectralStructure):
    if structure.pattern == "point":
        return structure.clusters[0][2]
    for mean, _mult, basis in structure.clusters:
        if mean > 0.0:
            return basis
    raise GeometryError("no positive cluster in the spectrum")


def _provenance_aligned_axis(defn: ImmersionDef, frame: BlaschkeFrame,
                             spectrum: SpectralStructure, tol: float,
                             restarts: int = 32, seed: int = 42):
    """Axis matching the verdict spectrum whose lambda2 block spans a
    single recorded component block.

    On surfaces with several equivalent product structures the detected
    axis may belong to a grouping other than the recorded one; factor
    reconstruction needs the recorded grouping, which is identified by
    where the lambda2 eigenvectors point in ambient coordinates."""
    prov = defn.provenance
    m2 = prov.n2 + 1
    best_t, best_score = None, math.inf
    for cand in find_axes(frame, restarts=restarts, seed=seed):
        structure = classify_spectrum(frame, cand, tol)
        if structure.pattern != spectrum.pattern:
            continue
        if (structure.n2, structure.n3) != (spectrum.n2, spectrum.n3):
            continue
        if abs(structure.lambda1 - spectrum.lambda1) > 100 * tol:
            continue
        lam3 = structure.lambda3
        if lam3 is None:
            lam3 = structure.lambda1 - structure.lambda2
        rows = [-lam3 * frame.position
                + _ambient(frame, structure.axis.T)]
        for v in _lambda2_cluster_basis(structure):
            rows.append(_ambient(frame, v))
        mat = np.array(rows)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        w_first = float(np.sum(np.abs(mat[:, :m2])))
        w_second = float(np.sum(np.abs(mat[:, m2:])))
        score = min(w_first, w_second)
        if score < best_score:
            best_score = score
            best_t = structure.axis.T
    if best_t is None or best_score > 1e-6:
        return None
    return best_t


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
    pts = np.unique(np.round(np.atleast_2d(grid)[:, cols], 12), axis=0)
    return pts


def _calibrate_from_provenance(defn: ImmersionDef, grid,
                               subspace2: np.ndarray, kind: str,
                               n2: int, n3: int, residuals: dict):
    """Reconstruct the factor defs and measure the translation gauge.

    The sliced lambda2 block equals c1 * psi1 at axis parameter zero;
    normalizing it back to H = -1 measures c1, and d1 is c1 over the
    base constant the constructors emit. d2 then follows from the
    gauge constraint d1^(n2+1) d2^(n3+1) = 1.
    """
    c1_base, c2_base = base_coefficients(kind, n2, n3)
    idx2, idx3 = _block_slices(defn, subspace2)
    fac1 = _slice_factor_def(defn, idx2, "factor1")
    fac2 = _slice_factor_def(defn, idx3, "factor2")

    norm1 = normalize_homothety(fac1)
    d1 = 1.0 / (norm1.scale * c1_base)
    d2 = d1 ** (-(n2 + 1.0) / (n3 + 1.0))
    fgrid1 = _factor_grid(defn, fac1, grid)
    sphere1 = checks.sphere_residual(norm1.def_scaled, fgrid1)
    frames1 = blaschke.frames_on_grid(norm1.def_scaled, fgrid1)
    residuals["factor1_mean_curvature"] = max(
        abs(fr.H + 1.0) for fr in frames1)
    residuals["factor1_sphere"] = sphere1.max_residual

    defs = [norm1.def_scaled]
    if fac2 is not None:
        norm2 = normalize_homothety(fac2)
        d2_direct = 1.0 / (norm2.scale * c2_base)
        residuals["gauge_consistency"] = abs(d2 - d2_direct)
        fgrid2 = _factor_grid(defn, fac2, grid)
        frames2 = blaschke.frames_on_grid(norm2.def_scaled, fgrid2)
        residuals["factor2_mean_curvature"] = max(
            abs(fr.H + 1.0) for fr in frames2)
        residuals["factor2_sphere"] = checks.sphere_residual(
            frames2).max_residual
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
             lam3_formal: float, tol: float, d1: float, d2: float | None,
             kind: str) -> FactorData:
    if verdict.spectrum is None:
        raise VerdictError("verdict carries no spectral structure")
    if not verdict.orientation_ok:
        raise VerdictError("extraction requires the xi = phi orientation")
    spectrum = verdict.spectrum
    lam2 = spectrum.lambda2
    lam3 = lam3_formal
    n2, n3 = spectrum.n2, spectrum.n3
    if d2 is None:
        d2 = d1 ** (-(n2 + 1.0) / (n3 + 1.0))

    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    frames = blaschke.frames_on_grid(defn, grid)
    prov = defn.provenance
    axis_idx = None
    if prov is not None and prov.axis in defn.vars:
        axis_idx = defn.vars.index(prov.axis)

    t_prev = spectrum.axis.T
    if axis_idx is not None:
        aligned = _provenance_aligned_axis(defn, frames[0], spectrum, tol)
        if aligned is not None:
            t_prev = aligned
    pds = []
    for fr in frames:
        pd = _per_point_structure(fr, t_prev, lam2, lam3, tol)
        t_prev = pd.t_vec
        pds.append(pd)

    residuals: dict[str, float] = {}
    for pd in pds:
        for key, val in _drift_residuals(pd, lam2, lam3).items():
            residuals[key] = max(residuals.get(key, 0.0), val)

    def flow_parameter(pd: _PointData) -> float:
        if axis_idx is not None:
            return float(pd.frame.u[axis_idx])
        if kind == "point":
            mag0 = float(np.linalg.norm(pds[0].phi3_raw))
            mag = float(np.linalg.norm(pd.phi3_raw))
            return math.log(mag / mag0) / lam3
        return 0.0

    phi2_rows, phi3_rows = [], []
    for pd in pds:
        t_par = flow_parameter(pd)
        phi2_rows.append(d1 * math.exp(-lam2 * t_par) * pd.phi2_raw)
        phi3_rows.append(d2 * math.exp(-lam3 * t_par) * pd.phi3_raw)
    phi2_samples = np.array(phi2_rows)
    phi3_samples = np.array(phi3_rows)

    cloud2 = [pd.phi2_raw for pd in pds]
    cloud3 = [pd.phi3_raw for pd in pds]
    for pd in pds:
        for v in pd.basis2:
            cloud2.append(-lam3 * _ambient(pd.frame, v)
                          + _ambient_axis_derivative(pd.frame, pd.dT,
                                                     pd.t_vec, v))
        for w in pd.basis3:
            cloud3.append(lam2 * _ambient(pd.frame, w)
                          - _ambient_axis_derivative(pd.frame, pd.dT,
                                                     pd.t_vec, w))
    sub2 = numerics.subspace_rank(cloud2)
    sub3 = numerics.subspace_rank(cloud3)
    joint = numerics.subspace_rank(
        np.vstack([sub2.basis, sub3.basis]))
    residuals["subspace_overlap"] = float(
        sub2.rank + sub3.rank - joint.rank)

    base_pd = pds[0]
    metric_ratio, metric_resid = _metric_ratio(base_pd, lam2, lam3)
    residuals["metric_ratio"] = metric_resid

    v0 = base_pd.basis2[0]
    d_v_phi2 = (-lam3 * _ambient(base_pd.frame, v0)
                + _ambient_axis_derivative(base_pd.frame, base_pd.dT,
                                           base_pd.t_vec, v0))
    rate = float(np.linalg.norm(d_v_phi2)
                 / np.linalg.norm(_ambient(base_pd.frame, v0)))

    if kind == "point":
        nab_t_t = base_pd.t_vec @ base_pd.dT + np.einsum(
            "i,ijk,j->k", base_pd.t_vec, base_pd.frame.gamma_hat,
            base_pd.t_vec)
        residuals["axis_geodesic"] = _h_norm(base_pd.frame.h, nab_t_t)
        center = phi3_samples[0]
        residuals["phi3_constant"] = float(
            np.max(np.abs(phi3_samples - center))) if len(phi3_samples) > 1 \
            else 0.0

    factor_defs = None
    if prov is not None and axis_idx is not None:
        factor_defs, d1, d2 = _calibrate_from_provenance(
            defn, grid, sub2.basis, kind, n2, n3, residuals)

    return FactorData(
        kind=kind, d1=float(d1), d2=float(d2),
        phi2_samples=phi2_samples, phi3_samples=phi3_samples,
        subspace2=sub2.basis, subspace3=sub3.basis,
        factor_defs=factor_defs, residuals=residuals,
        metric_ratio=float(metric_ratio), immersion_rate=rate,
    )


def extract_pair_factors(defn: ImmersionDef, verdict: DecompositionVerdict,
                         grid, tol: float = 1e-6, d1: float = 1.0,
                         d2: float | None = None) -> FactorData:
    """Recover both factors of a detected pair product.

    The structural residuals are homogeneous in d1 and d2 (the gauge
    scales out), so passing a different gauge changes only the sample
    clouds. With provenance the factor defs are reconstructed, brought
    back to H = -1, and the reported d1, d2 become the measured
    translation gauge of the input.
    """
    if verdict.kind != "PairProduct":
        raise VerdictError(f"verdict kind is {verdict.kind!r}, "
                           "extract_pair_factors needs PairProduct")
    return _extract(defn, verdict, grid, verdict.spectrum.lambda3, tol,
                    d1, d2, "pair")


def extract_point_factor(defn: ImmersionDef, verdict: DecompositionVerdict,
                         grid, tol: float = 1e-6, d1: float = 1.0,
                         d2: float | None = None) -> FactorData:
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
    return _extract(defn, verdict, grid, lam3_formal, tol, d1, d2, "point")
