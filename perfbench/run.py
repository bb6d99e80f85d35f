"""Benchmark of the calabi pipeline. See README.md in this directory.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

A run sets up its inputs several times, then repeats its operation (op)
on fresh inputs for S seconds and prints, as its last line, one JSON
object {correct, attempted, failed, metrics}. With --trace 0 the metrics
are op_s, setup_s and peak_rss_mb; with --trace 1 ops alternate between
untraced and traced and the metrics are the per-layer counts and times.
--smoke runs one untraced and one traced op of every workload, checks
them, and exits 0 only if all of them are right.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
PROBES = 8              # probes before and after every timed step
PROBE_LOOPS = 400
# Probe time on an idle host of the machine where the figures in
# README.md were taken (the fastest probe seen over many runs there).
IDLE_PROBE_S = 0.0034


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "calabi" / "__init__.py").is_file():
    _fail(f"no calabi package under {ROOT / 'src'}; run from a checkout")
os.environ.pop("CALABI_THREADS", None)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402


_PROBE_M = np.arange(25.0).reshape(5, 5) / 10.0
_PROBE_T = np.arange(27.0).reshape(3, 3, 3)


def _probe() -> float:
    """Time a fixed mix of small numpy calls and Python arithmetic, the
    same kind of work the pipeline does, without calling the package."""
    start = time.perf_counter()
    x = _PROBE_M
    for _ in range(PROBE_LOOPS):
        x = (_PROBE_M @ x) * 0.1 + np.einsum(
            "ijk,k->ij", _PROBE_T, _PROBE_M[0, :3])[0, 0]
        float(np.max(np.abs(x)))
    return time.perf_counter() - start


class Stopwatch:
    """Times the steps of one op, and the host's speed around each step.

    Other tenants of the host slow this process by a factor that changes
    from one millisecond to the next (on a shared 2-core virtual machine
    a probe took either about 3.5 ms or about 7.7 ms). Before the
    first step and after every step the stopwatch runs PROBES probes.
    `corrected` divides each step's time by the mean slowdown its
    neighbouring probes saw, relative to IDLE_PROBE_S: an estimate of the
    step's time on an idle host. A fixed reference, not the fastest probe
    of the run, because in a crowded run even the fastest probe is slow.
    Probe time is never part of a step.
    """

    def __init__(self):
        self.steps: list[float] = []
        self.probes = [self._probe_set()]

    @staticmethod
    def _probe_set() -> list[float]:
        return [_probe() for _ in range(PROBES)]

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.steps.append(time.perf_counter() - start)
            self.probes.append(self._probe_set())

    @property
    def raw(self) -> float:
        return sum(self.steps)

    def fastest_probe(self) -> float:
        return min(min(p) for p in self.probes)

    def corrected(self) -> float:
        total = 0.0
        for k, step in enumerate(self.steps):
            around = self.probes[k] + self.probes[k + 1]
            total += step * IDLE_PROBE_S / statistics.fmean(around)
        return total


def _run_op(workload, state, inp, tracer, op_index):
    """One op from an empty frame cache; returns (stopwatch, output, error)."""
    gc.collect()
    state.cal.blaschke.clear_frame_cache()
    if tracer is not None:
        tracer.op = op_index
        if workload.in_process:
            tracer.install()
    watch = Stopwatch()
    try:
        out = workload.run(state, inp, watch, tracer)
        error = None
    except Exception:  # an op that raises counts as failed, the run goes on
        out, error = None, traceback.format_exc()
    if tracer is not None:
        tracer.uninstall()
        tracer.op = None
    return watch, out, error


def _import_seconds() -> float:
    """Fastest fresh-interpreter `import calabi.cli`."""
    best = float("inf")
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import calabi.cli"],
                       env=child_env(), cwd=ROOT, check=True)
        best = min(best, time.perf_counter() - start)
    return best


def run(name: str, seed: int, seconds: float, trace: bool,
        setups: int = SETUP_REPEATS, rounds: int | None = None) -> dict:
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    setup_watches = []
    for _ in range(setups):
        watch = Stopwatch()
        state = watch(workload.setup, OUT / name, tracer)
        setup_watches.append(watch)
    if tracer is not None:
        tracer.uninstall()

    rng = np.random.default_rng(seed)
    watches: dict[bool, list[Stopwatch]] = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    done = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            inp = workload.make_input(state, rng)
            watch, out, error = _run_op(workload, state, inp,
                                        tracer if traced else None, attempted)
            attempted += 1
            if error is not None:
                failed += 1
                print(f"op {attempted} failed:\n{error}", file=sys.stderr)
                continue
            watches[traced].append(watch)
            for problem in workload.check(state, inp, out):
                problems.append(f"op {attempted}: {problem}")
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    for problem in problems:
        print(problem, file=sys.stderr)

    every = setup_watches + watches[False] + watches[True]
    fastest_probe = min(w.fastest_probe() for w in every)
    setup_s = [w.corrected() for w in setup_watches]
    plain = [w.corrected() for w in watches[False]]
    traced = [w.corrected() for w in watches[True]]
    raw = [w.raw for w in watches[False]]
    if raw:
        print(f"# {name} seed {seed}: {len(raw)} untraced ops; corrected "
              f"median {statistics.median(plain):.4f} s; raw fastest "
              f"{min(raw):.4f} s, raw median {statistics.median(raw):.4f} s; "
              f"set-ups {', '.join(f'{t:.4f}' for t in setup_s)} s")
    if not trace:
        if workload.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {"op_s": (_median(plain), "s"),
                  "setup_s": (statistics.median(setup_s), "s"),
                  "peak_rss_mb": (rss_kb / 1024.0, "MB")}
    else:
        layers = layer_metrics(tracer, max(len(traced), 1), setups)
        layers["cli.import_s"] = _import_seconds()
        layers["trace.overhead_s"] = _median(traced) - _median(plain)
        values = {key: (value, _unit(key)) for key, value in layers.items()}
        _write_trace(name, seed, tracer, len(traced))
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in values.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.result.json").write_text(json.dumps(
        {"seed": seed, "trace": trace, "result": result,
         "fastest_probe_s": fastest_probe, "untraced_op_s": plain,
         "traced_op_s": traced, "untraced_raw_op_s": raw,
         "setup_s": setup_s}, indent=1) + "\n", encoding="utf-8")
    return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _unit(metric: str) -> str:
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith("hit_ratio") or metric.endswith("per_restart"):
        return "ratio"
    return "count"


def _write_trace(name: str, seed: int, tracer: Tracer, ops: int) -> None:
    """Spans as [name, start, end, parent, op, frames, arg_n, self_s]."""
    spans = [span + [own] for span, own in
             zip(tracer.spans, self_times(tracer.spans))]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.trace.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "traced_ops": ops,
         "bisection_evals": tracer.evals, "axes_kept": tracer.kept,
         "axis_restarts": tracer.restarts, "spans": spans}),
        encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one untraced and one traced op per workload")
    args = parser.parse_args()
    # One CPU for the run and its children, so that the probes see the
    # same core as the steps they correct.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.smoke:
        results = [run(name, seed=0, seconds=0.0, trace=True, setups=1,
                       rounds=1) for name in WORKLOADS]
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {}}
    else:
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    if args.smoke:
        return 0 if result["correct"] and result["failed"] == 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
