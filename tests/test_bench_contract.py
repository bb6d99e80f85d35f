"""The benchmark under perfbench/ looks calabi functions up by name.

A rename or deletion in src/ would break `perfbench/run.py --trace 1`
and `--smoke` without failing any library test; these tests make it
fail here. They read perfbench/ and change nothing in it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from calabi import blaschke, cli, construct, decompose

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname, fn", _tracer_targets())
def test_tracer_target_resolves(modname, fn):
    module = importlib.import_module(f"calabi.{modname}")
    assert callable(getattr(module, fn, None)), f"calabi.{modname}.{fn}"


# the calls perfbench/workloads.py makes, with its positional arguments
WORKLOAD_CALLS = [
    (decompose.detect, ("defn", "grid")),
    (decompose.theorem3_gate, ("defn", "grid")),
    (decompose.extract_point_factor, ("defn", "verdict", "grid")),
    (decompose.extract_pair_factors, ("defn", "verdict", "grid")),
    (construct.calabi_point, ("h2",)),
    (construct.calabi_pair, ("h2", "h2b")),
    (cli.main, (["construct", "pair", "h2", "h2b", "-o", "pair"],)),
]


@pytest.mark.parametrize("fn, args", WORKLOAD_CALLS,
                         ids=[fn.__name__ for fn, _ in WORKLOAD_CALLS])
def test_workload_call_binds_to_the_signature(fn, args):
    inspect.signature(fn).bind(*args)


def test_find_axes_keeps_its_restarts_parameter():
    # the tracer binds the call's arguments and reads `restarts`
    assert "restarts" in inspect.signature(decompose.find_axes).parameters


def test_frame_cache_reports_misses():
    # the tracer counts frames computed from the cache's miss counter
    assert hasattr(blaschke._full_frame_cached.cache_info(), "misses")
