"""The benchmark's workloads: inputs, one operation each, and its checks.

Every workload has the same shape:

  setup(work_dir, tracer)        build the fixed inputs after a fresh import
  make_input(state, rng)         per-op inputs that no earlier op has used
  run(state, inp, step, tracer)  the op; returns its outputs
  check(state, inp, out)         a list of problems, empty when output is right

`run` makes each timed call through `step(fn, *args)`, which times the
call on its own (see run.Stopwatch); work outside `step` is not timed.

`in_process` says whether the operation runs in the benchmark's own
process (and is traced there) or in a child process that traces itself.

Expected values are closed forms from the construction (see README.md),
never stored copies of earlier output.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

H2_SRC = ("immersion h2 { vars: s; components: "
          "(0.7071067811865476*exp(s), 0.7071067811865476*exp(-s)); }")
H2B_SRC = ("immersion h2b { vars: r; components: "
           "(0.7071067811865476*exp(r), 0.7071067811865476*exp(-r)); }")

TOL = 1e-6           # the library's default detect/extract tolerance
GRID_OFFSET = 0.05   # per-op grid offsets are uniform in [-0.05, 0.05]


def fresh_calabi(tracer=None) -> types.SimpleNamespace:
    """Import the package from the checkout's source, dropping any earlier
    import, so that each set-up pays the full import cost. A tracer is
    installed on the new modules before any input is built."""
    for name in [m for m in sys.modules
                 if m == "calabi" or m.startswith("calabi.")]:
        del sys.modules[name]
    importlib.import_module("calabi")
    importlib.import_module("calabi.cli")
    if tracer is not None:
        tracer.install()
    return types.SimpleNamespace(**{
        name: sys.modules[f"calabi.{name}"]
        for name in ("blaschke", "cli", "construct", "decompose", "dsl")})


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CALABI_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def mesh(lo: float, hi: float, count: int, dims: int) -> np.ndarray:
    axis = np.linspace(lo, hi, count)
    grids = np.meshgrid(*([axis] * dims), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _close(problems: list, label: str, got, want, tol: float) -> None:
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{label}: got {got!r}, want {want!r} +- {tol:g}")


def _check_product(problems: list, label: str, verdict, data, kind: str,
                   n2: int, n3: int, lambdas, ratio: float) -> None:
    """Shared closed-form checks on one detect + extract round trip."""
    if verdict.kind != kind:
        problems.append(f"{label}: kind {verdict.kind!r} ({verdict.notes}), "
                        f"want {kind!r}")
        return
    s = verdict.spectrum
    if (s.n2, s.n3) != (n2, n3):
        problems.append(f"{label}: (n2, n3) = {(s.n2, s.n3)}, want {(n2, n3)}")
    got = (s.lambda1, s.lambda2, s.lambda3)
    for i, want in enumerate(lambdas):
        _close(problems, f"{label} lambda{i + 1}", got[i], want, TOL)
    _close(problems, f"{label} 1 + l1 l2 - l2^2",
           1.0 + s.lambda1 * s.lambda2 - s.lambda2 ** 2, 0.0, TOL)
    _close(problems, f"{label} metric ratio", data.metric_ratio, ratio, TOL)
    _close(problems, f"{label} d1^(n2+1) d2^(n3+1)",
           data.d1 ** (n2 + 1) * data.d2 ** (n3 + 1), 1.0, TOL)
    for key, value in sorted(data.residuals.items()):
        if not value <= TOL:
            problems.append(f"{label}: residual {key} = {value!r} > {TOL:g}")


# ---------------------------------------------------------------------------
# unit_roundtrip: point product of h2 on 5x5, pair product h2 x h2b on 3^3


class UnitRoundtrip:
    in_process = True

    def setup(self, work_dir: Path, tracer=None):
        cal = fresh_calabi(tracer)
        h2 = cal.dsl.parse_immersion(H2_SRC)
        h2b = cal.dsl.parse_immersion(H2B_SRC)
        return types.SimpleNamespace(
            cal=cal, point=cal.construct.calabi_point(h2),
            pair=cal.construct.calabi_pair(h2, h2b))

    def make_input(self, state, rng):
        offset = rng.uniform(-GRID_OFFSET, GRID_OFFSET, size=3)
        return {"grid_point": mesh(-0.3, 0.3, 5, 2) + offset[:2],
                "grid_pair": mesh(-0.3, 0.3, 3, 3) + offset}

    def run(self, state, inp, step, tracer=None):
        dec = state.cal.decompose
        g5, g27 = inp["grid_point"], inp["grid_pair"]
        v_point = step(dec.detect, state.point, g5)
        f_point = step(dec.extract_point_factor, v_point.def_scaled, v_point,
                       g5)
        v_pair = step(dec.detect, state.pair, g27)
        gate = step(dec.theorem3_gate, state.pair, g27)
        f_pair = step(dec.extract_pair_factors, v_pair.def_scaled, v_pair,
                      g27)
        return v_point, f_point, v_pair, gate, f_pair

    def check(self, state, inp, out):
        v_point, f_point, v_pair, gate, f_pair = out
        problems = []
        r = 1.0 / math.sqrt(2.0)
        _check_product(problems, "point", v_point, f_point, "PointProduct",
                       1, 0, (-r, r), 1.5)
        if v_point.spectrum is not None and v_point.spectrum.lambda3 is not None:
            problems.append("point: spectrum has a lambda3")
        _check_product(problems, "pair", v_pair, f_pair, "PairProduct",
                       1, 1, (0.0, 1.0, -1.0), 2.0)
        for label, data in (("point", f_point), ("pair", f_pair)):
            _close(problems, f"{label} d1", data.d1, 1.0, TOL)
            _close(problems, f"{label} d2", data.d2, 1.0, TOL)
        if not gate.applies:
            problems.append(f"pair: theorem3_gate does not apply ({gate.note})")
        return problems


# ---------------------------------------------------------------------------
# cli_check: `python -m calabi.cli check` on the pair product over 3^3


class CliCheck:
    in_process = False
    reports = ("sphere", "apolarity", "gauss", "codazzi", "parallel_cubic",
               "unimodular")

    def setup(self, work_dir: Path, tracer=None):
        cal = fresh_calabi(tracer)
        work_dir.mkdir(parents=True, exist_ok=True)
        files = []
        for name, src in (("h2", H2_SRC), ("h2b", H2B_SRC)):
            defn = cal.dsl.parse_program(src)[0]
            path = work_dir / f"{name}.immersion"
            path.write_text(cal.dsl.print_immersion(defn) + "\n",
                            encoding="utf-8")
            files.append(str(path))
        pair = work_dir / "pair.immersion"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cal.cli.main(["construct", "pair", *files, "-o", str(pair)])
        if code != 0:
            raise RuntimeError(f"calabi construct pair exited {code}")
        return types.SimpleNamespace(cal=cal, pair=str(pair),
                                     work_dir=work_dir)

    def make_input(self, state, rng):
        offset = rng.uniform(-GRID_OFFSET, GRID_OFFSET, size=3)
        spec = ",".join(f"{-0.3 + o!r}:{0.3 + o!r}:3" for o in offset.tolist())
        return {"grid": f"--grid={spec}"}

    def run(self, state, inp, step, tracer=None):
        argv = ["check", state.pair, inp["grid"]]
        if tracer is None:
            cmd = [sys.executable, "-m", "calabi.cli", *argv]
        else:
            trace_file = state.work_dir / "child-trace.json"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   str(trace_file), *argv]
        proc = step(subprocess.run, cmd, capture_output=True,
                    env=child_env(), cwd=ROOT, check=False)
        if tracer is not None and proc.returncode == 0:
            tracer.merge(json.loads(trace_file.read_text(encoding="utf-8")),
                         tracer.op)
        return proc

    def check(self, state, inp, out):
        proc = out
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[-400:]}"]
        text = proc.stdout.decode()
        try:
            doc, end = json.JSONDecoder().raw_decode(text)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        problems = []
        if text[end:].strip():
            problems.append("stdout holds more than one JSON document")
        rows = doc.get("reports", [])
        names = tuple(row.get("name") for row in rows)
        if doc.get("command") != "check" or names != self.reports:
            problems.append(f"unexpected document: command "
                            f"{doc.get('command')!r}, reports {names}")
        for row in rows:
            if row.get("pass") is not True:
                problems.append(f"report {row.get('name')} failed: {row}")
        return problems


WORKLOADS = {
    "unit_roundtrip": UnitRoundtrip(),
    "cli_check": CliCheck(),
}
