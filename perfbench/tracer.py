"""Spans and counts for the calabi pipeline, recorded from outside the package.

`Tracer.install` replaces each public function named in TARGETS with a
wrapper in every loaded `calabi` module that holds it (modules that did
`from .jets import eval_jets` hold their own reference, so patching only
the defining module would miss their calls). Each call becomes a span
(name, start, end, parent, op, frames computed inside it); spans stay in
memory and are summarised per op by `layer_metrics`. `uninstall` puts the
original functions back, so untraced ops run the unmodified package.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

TARGETS = (
    ("jets", "eval_jets"),
    ("blaschke", "full_frame"),
    ("blaschke", "blaschke_metric_and_normal"),
    ("numerics", "solve_sym_eig_generalized"),
    ("numerics", "find_root_bisection"),
    ("decompose", "find_axes"),
    ("decompose", "classify_spectrum"),
    ("decompose", "normalize_homothety"),
    ("decompose", "detect"),
    ("decompose", "theorem3_gate"),
    ("decompose", "extract_pair_factors"),
    ("decompose", "extract_point_factor"),
    ("checks", "sphere_residual"),
    ("checks", "apolarity_residual"),
    ("checks", "gauss_codazzi_residual"),
    ("checks", "parallel_cubic_residual"),
    ("checks", "unimodular_criterion"),
    ("construct", "calabi_pair"),
    ("construct", "calabi_point"),
    ("dsl", "parse_program"),
    ("cli", "main"),
)

# Span fields, in the order they are stored and written out.
NAME, START, END, PARENT, OP, FRAMES, ARG_N = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.evals = 0          # bisection objective evaluations
        self.kept = 0           # axis candidates returned by find_axes
        self.restarts = 0       # restarts requested from find_axes
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._misses = lambda: 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every TARGETS function in the loaded calabi modules."""
        self.uninstall()
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "calabi" or name.startswith("calabi.")}
        cached = mods["calabi.blaschke"]._full_frame_cached
        self._misses = lambda: cached.cache_info().misses
        for modname, fn in TARGETS:
            home = mods.get(f"calabi.{modname}")
            if home is None:
                continue
            original = getattr(home, fn)
            wrapper = self._wrap(f"{modname}.{fn}", original)
            for mod in mods.values():
                if mod.__dict__.get(fn) is original:
                    self._restore.append((mod, fn, original))
                    setattr(mod, fn, wrapper)

    def uninstall(self) -> None:
        for mod, fn, original in self._restore:
            setattr(mod, fn, original)
        self._restore = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            in_op = self.op is not None
            if name == "numerics.find_root_bisection" and in_op:
                objective = args[0]

                def counted(x):
                    self.evals += 1
                    return objective(x)
                args = (counted,) + args[1:]
            arg_n = len(args[1]) if name == "blaschke.full_frame" else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    self._misses(), arg_n]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                span[FRAMES] = self._misses() - span[FRAMES]
            if name == "decompose.find_axes" and in_op:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.kept += len(result)
                self.restarts += bound.arguments["restarts"]
            return result

        return wrapper

    # -- records ---------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "evals": self.evals, "kept": self.kept,
                "restarts": self.restarts}

    def merge(self, data: dict, op: int) -> None:
        """Append the spans of a traced child process as op `op`."""
        offset = len(self.spans)
        for span in data["spans"]:
            span = list(span)
            span[OP] = op
            if span[PARENT] >= 0:
                span[PARENT] += offset
            self.spans.append(span)
        self.evals += data["evals"]
        self.kept += data["kept"]
        self.restarts += data["restarts"]


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (recursion)."""
    flags = []
    for s in spans:
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != s[NAME]:
            parent = spans[parent][PARENT]
        flags.append(parent < 0)
    return flags


def layer_metrics(tracer: Tracer, ops: int, setups: int) -> dict[str, float]:
    """Per-op counts and times (construct.* per set-up) from the spans.

    blaschke.frame_s is the median cold frame at the largest dimension
    the ops computed frames for.
    """
    spans = tracer.spans
    own = self_times(spans)
    outer = _outermost(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    frames: dict[str, int] = {}
    setup_total: dict[str, float] = {}
    cold: dict[int, list[float]] = {}
    for s, own_s, top in zip(spans, own, outer):
        name = s[NAME]
        if s[OP] is None:
            if top:
                setup_total[name] = setup_total.get(name, 0.0) + s[END] - s[START]
            continue
        calls[name] = calls.get(name, 0) + 1
        selft[name] = selft.get(name, 0.0) + own_s
        if top:
            total[name] = total.get(name, 0.0) + s[END] - s[START]
            frames[name] = frames.get(name, 0) + s[FRAMES]
        if name == "blaschke.full_frame" and s[FRAMES]:
            cold.setdefault(s[ARG_N], []).append(s[END] - s[START])

    def per_op(table, name):
        return table.get(name, 0) / ops

    ff_calls = calls.get("blaschke.full_frame", 0)
    computed = frames.get("blaschke.full_frame", 0)
    find_calls = calls.get("decompose.find_axes", 0)
    return {
        "jets.eval_jets.calls": per_op(calls, "jets.eval_jets"),
        "jets.eval_jets.s": per_op(total, "jets.eval_jets"),
        "blaschke.full_frame.calls": per_op(calls, "blaschke.full_frame"),
        "blaschke.frames_computed": computed / ops,
        "blaschke.frame_cache.hit_ratio":
            (ff_calls - computed) / ff_calls if ff_calls else 0.0,
        "blaschke.full_frame.s": per_op(total, "blaschke.full_frame"),
        "blaschke.frame_s":
            statistics.median(cold[max(cold)]) if cold else 0.0,
        "blaschke.metric_and_normal.s":
            per_op(total, "blaschke.blaschke_metric_and_normal"),
        "numerics.eig.calls":
            per_op(calls, "numerics.solve_sym_eig_generalized"),
        "numerics.eig.s": per_op(total, "numerics.solve_sym_eig_generalized"),
        "numerics.bisection.calls":
            per_op(calls, "numerics.find_root_bisection"),
        "numerics.bisection.evals": tracer.evals / ops,
        "decompose.find_axes.calls": find_calls / ops,
        "decompose.find_axes.s": per_op(total, "decompose.find_axes"),
        "decompose.find_axes.kept_per_restart":
            tracer.kept / tracer.restarts if tracer.restarts else 0.0,
        "decompose.classify_spectrum.s":
            per_op(total, "decompose.classify_spectrum"),
        "decompose.normalize_homothety.calls":
            per_op(calls, "decompose.normalize_homothety"),
        "decompose.normalize_homothety.s":
            per_op(total, "decompose.normalize_homothety"),
        "decompose.normalize_homothety.frames":
            per_op(frames, "decompose.normalize_homothety"),
        "decompose.detect.s": per_op(selft, "decompose.detect"),
        "decompose.extract.s":
            (selft.get("decompose.extract_pair_factors", 0.0)
             + selft.get("decompose.extract_point_factor", 0.0)) / ops,
        "decompose.theorem3_gate.s": per_op(selft, "decompose.theorem3_gate"),
        "checks.sphere_residual.s": per_op(total, "checks.sphere_residual"),
        "checks.apolarity_residual.s":
            per_op(total, "checks.apolarity_residual"),
        "checks.gauss_codazzi_residual.s":
            per_op(total, "checks.gauss_codazzi_residual"),
        "checks.parallel_cubic_residual.s":
            per_op(total, "checks.parallel_cubic_residual"),
        "checks.unimodular_criterion.s":
            per_op(total, "checks.unimodular_criterion"),
        "construct.calabi_pair.s":
            setup_total.get("construct.calabi_pair", 0.0) / setups,
        "construct.calabi_point.s":
            setup_total.get("construct.calabi_point", 0.0) / setups,
        "dsl.parse_program.s": per_op(total, "dsl.parse_program"),
        "cli.main.s": per_op(total, "cli.main"),
    }
