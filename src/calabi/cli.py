"""Batch front end: immersion files in, JSON reports and DSL files out.

Subcommands:

  analyze   frame summary at one parameter point
  check     structural residual reports over a grid
  construct build a point or pair product from factor files
  detect    product-structure verdict over a grid
  extract   factor recovery: JSON report, point-cloud CSVs, factor defs

Every command prints one JSON document to stdout with the shape
{command, inputs, seed, reports?, ...}. Exit code 0 means every report
passed, 1 means some check failed or the geometry refused an operation
(the report is still written), 2 means a usage or parse error. All
randomness sits behind --seed, so output is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import blaschke, checks, construct, decompose
from .blaschke import GeometryError
from .checks import CheckReport, GaugeError
from .dsl import (ImmersionDef, ImmersionSyntaxError,
                  ImmersionValidationError, parse_program, print_immersion)
from .jets import JetDomainError

BUILTIN_GRIDS = {
    "g9": (3, -0.4, 0.4),
    "g16": (2, -0.2, 0.2),
    "g25": (5, -0.3, 0.3),
    "g27": (3, -0.3, 0.3),
}


class UsageError(ValueError):
    """Bad arguments, bad project file, or unresolvable inputs."""


# ---------------------------------------------------------------------------
# input resolution


def _load_project(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read project file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("project file must hold a JSON object")
    return data


def _resolve_immersion(token: str, project: dict) -> ImmersionDef:
    path = project.get("immersions", {}).get(token, token)
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read immersion {token!r}: {exc}") from exc
    defs = parse_program(source)
    if len(defs) > 1:
        names = ", ".join(d.name for d in defs)
        raise UsageError(f"{path} holds {len(defs)} immersion definitions "
                         f"({names}); give one per file")
    return defs[0]


def _grid_axis(label: str, lo, hi, count) -> np.ndarray:
    """np.linspace(lo, hi, count) for finite numbers lo, hi and an
    integer count >= 1."""
    try:
        lo, hi, count = float(lo), float(hi), int(count)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"grid axis {label}: {exc}") from exc
    if count < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"grid axis {label} needs finite ends and count >= 1")
    return np.linspace(lo, hi, count)


def _parse_axis_spec(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid axis {text!r} is not lo:hi:count")
    return _grid_axis(repr(text), *parts)


def _resolve_grid(token: str, nvars: int, project: dict) -> np.ndarray:
    named = project.get("grids", {})
    if token in named:
        spec = named[token]
        if not isinstance(spec, list) or len(spec) != nvars:
            raise UsageError(f"project grid {token!r} needs a list of "
                             f"{nvars} axes, one per variable")
        if not all(isinstance(axis, dict) and {"min", "max", "count"}
                   <= axis.keys() for axis in spec):
            raise UsageError(f"project grid {token!r}: each axis needs "
                             "min, max and count")
        return checks.mesh([_grid_axis(json.dumps(axis), axis["min"],
                                       axis["max"], axis["count"])
                            for axis in spec])
    if token in BUILTIN_GRIDS:
        count, lo, hi = BUILTIN_GRIDS[token]
        return checks.mesh([np.linspace(lo, hi, count)] * nvars)
    if token.endswith(".csv"):
        try:
            pts = np.loadtxt(token, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read grid file {token}: {exc}") from exc
        if pts.shape[1] != nvars:
            raise UsageError(
                f"{token} has {pts.shape[1]} columns, immersion has "
                f"{nvars} variables")
        if not np.all(np.isfinite(pts)):
            raise UsageError(f"{token} holds a coordinate that is not finite")
        return pts
    if ":" in token:
        specs = token.split(",")
        if len(specs) == 1:
            axes = [_parse_axis_spec(specs[0])] * nvars
        elif len(specs) == nvars:
            axes = [_parse_axis_spec(s) for s in specs]
        else:
            raise UsageError(
                f"grid {token!r} has {len(specs)} axes, immersion has "
                f"{nvars} variables")
        return checks.mesh(axes)
    raise UsageError(f"unknown grid {token!r}")


def _parse_tols(pairs: list[str]) -> dict[str, float]:
    tols = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise UsageError(f"--tol expects name=value, got {pair!r}")
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"--tol {pair!r}: {exc}") from exc
    return tols


# ---------------------------------------------------------------------------
# serialization


def _round_trip_float(x) -> float | None:
    if x is None:
        return None
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    return x


def _report_row(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "max_residual": _round_trip_float(report.max_residual),
        "tolerance": _round_trip_float(report.tolerance),
        "pass": bool(report.passed),
        "worst_point": [float(x) for x in report.worst_point],
    }


def _refused_row(name: str, tol: float, note: str) -> dict:
    return {
        "name": name,
        "max_residual": None,
        "tolerance": _round_trip_float(tol),
        "pass": False,
        "worst_point": None,
        "note": note,
    }


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, ensure_ascii=False)
    print(text)
    if out_path:
        _write_atomic(Path(out_path), text + "\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (body, failed), and main puts the
# {command, inputs, seed} envelope in front of the body


def _cmd_analyze(args, project: dict) -> tuple[dict, bool]:
    defn = _resolve_immersion(args.file, project)
    if args.at is None:
        point = tuple(0.0 for _ in range(defn.nvars))
    else:
        point = tuple(float(x) for x in args.at.split(","))
    if len(point) != defn.nvars:
        raise UsageError(
            f"--at has {len(point)} coordinates, immersion has "
            f"{defn.nvars} variables")
    frame = blaschke.full_frame(defn, point)
    axes = decompose.find_axes(frame, restarts=args.restarts, seed=args.seed)
    summary = {
        "name": defn.name,
        "variables": list(defn.vars),
        "point": [float(x) for x in point],
        "mean_curvature": float(frame.H),
        "metric": [[float(x) for x in row] for row in frame.h],
        "affine_normal": [float(x) for x in frame.xi],
        "position": [float(x) for x in frame.position],
        "difference_tensor_max": float(np.max(np.abs(frame.K))),
        "axis_note": axes.note,
    }
    if axes and axes.note is None:
        best = min(axes, key=lambda c: c.axis_residual)
        structure = decompose.classify_spectrum(frame, best)
        spectrum = [float(structure.lambda1)]
        for mean, mult, _basis in structure.clusters:
            spectrum.extend([float(mean)] * mult)
        summary["axis_lambda1"] = float(structure.lambda1)
        summary["axis_spectrum"] = spectrum
        summary["axis_pattern"] = structure.pattern
    return {"summary": summary}, False


def _check_reports(defn: ImmersionDef, grid: np.ndarray,
                   tols: dict[str, float]) -> list[dict]:
    frames = blaschke.frames_on_grid(defn, grid)
    rows = []
    rows.append(_report_row(checks.sphere_residual(
        frames, tol=tols.get("sphere", 1e-6))))
    rows.append(_report_row(checks.apolarity_residual(
        frames, tol=tols.get("apolarity", 1e-8))))
    gc_tol = tols.get("gauss", tols.get("codazzi", 1e-6))
    try:
        pair = checks.gauss_codazzi_residual(frames, tol=gc_tol)
        rows.append(_report_row(pair["gauss"]))
        rows.append(_report_row(pair["codazzi"]))
    except GaugeError as exc:
        rows.append(_refused_row("gauss", gc_tol, str(exc)))
        rows.append(_refused_row("codazzi", gc_tol, str(exc)))
    rows.append(_report_row(checks.parallel_cubic_residual(
        frames, tol=tols.get("parallel_cubic", 1e-6))))
    try:
        rows.append(_report_row(checks.unimodular_criterion(
            frames, tol=tols.get("unimodular", 1e-8))))
    except GaugeError as exc:
        rows.append(_refused_row("unimodular", tols.get("unimodular", 1e-8),
                                 str(exc)))
    return rows


def _cmd_check(args, project: dict) -> tuple[dict, bool]:
    defn = _resolve_immersion(args.file, project)
    grid = _resolve_grid(args.grid, defn.nvars, project)
    tols = _parse_tols(args.tol)
    rows = _check_reports(defn, grid, tols)
    return {"reports": rows}, any(not row["pass"] for row in rows)


def _cmd_construct(args, project: dict) -> tuple[dict, bool]:
    factors = [_resolve_immersion(token, project) for token in args.factors]
    if args.kind == "point":
        if len(factors) != 1:
            raise UsageError("construct point takes exactly one factor")
        product = construct.calabi_point(factors[0])
    else:
        if len(factors) != 2:
            raise UsageError("construct pair takes exactly two factors")
        product = construct.calabi_pair(factors[0], factors[1])
    if args.name:
        product = ImmersionDef(name=args.name, vars=product.vars,
                               components=product.components,
                               provenance=product.provenance)
    text = print_immersion(product)
    _write_atomic(Path(args.output), text + "\n")
    prov = product.provenance
    return {
        "output": args.output,
        "product": {
            "name": product.name,
            "kind": prov.kind,
            "variables": list(product.vars),
            "components": product.ncomponents,
            "n2": prov.n2,
            "n3": prov.n3,
            "axis": prov.axis,
        },
    }, False


def _verdict_json(verdict: decompose.DecompositionVerdict) -> dict:
    out = {
        "kind": verdict.kind if verdict.kind is not None else "None",
        "orientation_ok": bool(verdict.orientation_ok),
        "scale": _round_trip_float(verdict.scale),
        "constancy_residual": _round_trip_float(verdict.constancy_residual),
    }
    if verdict.spectrum is not None and verdict.kind is not None:
        spectrum = verdict.spectrum
        lam = [spectrum.lambda1, spectrum.lambda2]
        if spectrum.lambda3 is not None:
            lam.append(spectrum.lambda3)
        out["lambda"] = [_round_trip_float(v) for v in lam]
        out["n2"] = spectrum.n2
        out["n3"] = spectrum.n3
        out["cross_residual"] = _round_trip_float(spectrum.cross_residual)
        out["relation_residuals"] = {
            k: _round_trip_float(v)
            for k, v in sorted(spectrum.relation_residuals.items())
        }
    if verdict.notes:
        out["note"] = "; ".join(verdict.notes)
    return out


def _detect_step(args, project: dict):
    """Detection shared by detect and extract: (grid, tol, verdict, body)
    with the reports and verdict rows of the JSON document."""
    defn = _resolve_immersion(args.file, project)
    grid = _resolve_grid(args.grid, defn.nvars, project)
    tol = _parse_tols(args.tol).get("detect", 1e-6)
    verdict = decompose.detect(defn, grid, tol=tol,
                               restarts=args.restarts, seed=args.seed)
    body = {"reports": [_report_row(rep) for rep in verdict.evidence],
            "verdict": _verdict_json(verdict)}
    return grid, tol, verdict, body


def _cmd_detect(args, project: dict) -> tuple[dict, bool]:
    body = _detect_step(args, project)[3]
    rows = body["reports"]
    # No report at all means the geometry refused the sphere test itself.
    return body, not rows or any(not row["pass"] for row in rows)


def _csv_text(samples: np.ndarray) -> str:
    lines = []
    for row in np.atleast_2d(samples):
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _cmd_extract(args, project: dict) -> tuple[dict, bool]:
    grid, tol, verdict, body = _detect_step(args, project)
    if verdict.kind is None:
        body["error"] = "no product structure detected; nothing to extract"
        return body, True
    if verdict.kind == "PairProduct":
        data = decompose.extract_pair_factors(
            verdict.def_scaled, verdict, grid, tol=tol)
    else:
        data = decompose.extract_point_factor(
            verdict.def_scaled, verdict, grid, tol=tol)

    out_dir = Path(args.output)
    files = {}
    _write_atomic(out_dir / "phi2.csv", _csv_text(data.phi2_samples))
    files["phi2_samples"] = str(out_dir / "phi2.csv")
    _write_atomic(out_dir / "phi3.csv", _csv_text(data.phi3_samples))
    files["phi3_samples"] = str(out_dir / "phi3.csv")
    if data.factor_defs:
        for idx, fdef in enumerate(data.factor_defs, start=1):
            path = out_dir / f"factor{idx}.immersion"
            _write_atomic(path, print_immersion(fdef) + "\n")
            files[f"factor{idx}"] = str(path)

    residual_rows = {k: _round_trip_float(v)
                     for k, v in sorted(data.residuals.items())}
    failed_residuals = [k for k, v in data.residuals.items() if v > tol]
    body["factors"] = {
        "kind": data.kind,
        "d1": _round_trip_float(data.d1),
        "d2": _round_trip_float(data.d2),
        "metric_ratio": _round_trip_float(data.metric_ratio),
        "immersion_rate": _round_trip_float(data.immersion_rate),
        "subspace_dims": [int(data.subspace2.shape[0]),
                          int(data.subspace3.shape[0])],
        "residuals": residual_rows,
        "failed_residuals": sorted(failed_residuals),
        "files": files,
    }
    failed = (any(not row["pass"] for row in body["reports"])
              or bool(failed_residuals))
    return body, failed


# ---------------------------------------------------------------------------
# driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calabi",
        description="Blaschke structure, product construction and "
                    "decomposition of affine spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, run, grid: bool = True) -> None:
        p.set_defaults(run=run)
        p.add_argument("--project", help="JSON project file with named "
                                         "immersions, grids and options")
        # None means "not given": the project file's options, then the
        # built-in defaults, fill it in main.
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override a tolerance, repeatable")
        if grid:
            p.add_argument("--grid", required=True,
                           help="named grid (g9/g16/g25/g27 or from the "
                                "project file), lo:hi:count spec, or a "
                                ".csv point file")

    p = sub.add_parser("analyze", help="frame summary at one point")
    p.add_argument("file")
    p.add_argument("--at", help="comma-separated parameter point")
    common(p, _cmd_analyze, grid=False)

    p = sub.add_parser("check", help="structural residual reports")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="also write the JSON report here")
    common(p, _cmd_check)

    p = sub.add_parser("construct", help="build a point or pair product")
    p.add_argument("kind", choices=["point", "pair"])
    p.add_argument("factors", nargs="+")
    p.add_argument("-o", "--output", required=True,
                   help="output .immersion file")
    p.add_argument("--name", default="product")
    common(p, _cmd_construct, grid=False)

    p = sub.add_parser("detect", help="product-structure verdict")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="also write the JSON report here")
    common(p, _cmd_detect)

    p = sub.add_parser("extract", help="recover the factors of a product")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True,
                   help="output directory for CSVs and factor defs")
    common(p, _cmd_extract)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code not in (0, None) else 0

    try:
        project = _load_project(args.project)
        opts = project.get("options", {})
        try:
            if args.seed is None:
                args.seed = int(opts.get("seed", 42))
            if args.restarts is None:
                args.restarts = int(opts.get("restarts", 32))
            if "tolerances" in opts:
                args.tol = [f"{k}={v}" for k, v in
                            sorted(opts["tolerances"].items())] + args.tol
        except (AttributeError, TypeError, ValueError) as exc:
            raise UsageError(f"project options: {exc}") from exc
        envelope = {
            "command": args.command,
            "inputs": ([args.file] if hasattr(args, "file")
                       else list(args.factors)),
            "seed": args.seed,
        }
        body, failed = args.run(args, project)
    except (UsageError, ImmersionSyntaxError,
            ImmersionValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, JetDomainError, decompose.VerdictError,
            construct.ProvenanceError) as exc:
        print(json.dumps({**envelope, "error": str(exc)}, indent=2,
                         ensure_ascii=False))
        return 1

    out_json = None
    if args.command in ("check", "detect"):
        out_json = getattr(args, "output", None)
    elif args.command == "extract":
        out_json = str(Path(args.output) / "report.json")
    _emit({**envelope, **body}, out_json)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
