"""The record types of calabi: read-only, equal by value where they key
a cache, and free of shared mutable defaults."""

import copy
import pickle
import re

import pytest

from calabi import blaschke, checks, construct, decompose, dsl
from conftest import HYPERBOLA_SRC, make_grid


@pytest.fixture(scope="module")
def records(pair_product):
    """One instance of each record type, made by the pipeline."""
    grid = make_grid(-0.2, 0.2, 2, 3)
    frame = blaschke.full_frame(pair_product, grid[0])
    axes = decompose.find_axes(frame)
    verdict = decompose.detect(pair_product, grid)
    assert verdict.kind == "PairProduct", verdict.notes
    return {
        "Expr": dsl.Expr(),
        "Variable": dsl.var("t"),
        "Constant": dsl.const(0.5),
        "Apply": pair_product.components[0],
        "Provenance": pair_product.provenance,
        "ImmersionDef": pair_product,
        "BlaschkeFrame": frame,
        "CheckReport": checks.sphere_residual(pair_product, grid),
        "SpectrumPrediction": construct.predicted_spectrum("pair", 1, 1),
        "CandidateAxis": axes[0],
        "SpectralStructure": decompose.classify_spectrum(frame, axes),
        "DecompositionVerdict": verdict,
        "Theorem3Gate": decompose.theorem3_gate(pair_product, grid),
        "FactorData": decompose.extract_pair_factors(
            verdict.def_scaled, verdict, grid),
    }


FIELD = {"Expr": None, "Variable": "name", "Constant": "value",
         "Apply": "op", "Provenance": "kind", "ImmersionDef": "name",
         "BlaschkeFrame": "h", "CheckReport": "max_residual",
         "SpectrumPrediction": "lambda1", "CandidateAxis": "T",
         "SpectralStructure": "pattern", "DecompositionVerdict": "kind",
         "Theorem3Gate": "applies", "FactorData": "residuals"}


@pytest.mark.parametrize("kind", sorted(FIELD))
def test_a_record_refuses_assignment(records, kind):
    record = records[kind]
    assert type(record).__name__ == kind
    for name in filter(None, (FIELD[kind], "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("kind", sorted(FIELD))
def test_a_record_survives_pickle_and_copy(records, kind):
    record, name = records[kind], FIELD[kind]
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert name is None or (repr(getattr(clone, name))
                                == repr(getattr(record, name)))
    if kind in ("ImmersionDef", "Provenance", "Variable", "Apply"):
        assert pickle.loads(pickle.dumps(record)) == record


def test_equal_definitions_are_equal_and_share_frames():
    """Definitions key the frame cache: two separate parses of one text
    are equal and hash alike, so the second grid computes no frame, and
    the cached hash shows in neither the repr nor the printed form."""
    first, second = (dsl.parse_immersion(HYPERBOLA_SRC) for _ in range(2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert "_hash" not in repr(first)
    assert dsl.print_immersion(first) == dsl.print_immersion(second)
    grid = make_grid(-0.3, 0.3, 3, 1)
    blaschke.clear_frame_cache()
    blaschke.frames_on_grid(first, grid)
    misses = blaschke._full_frame_cached.cache_info().misses
    blaschke.frames_on_grid(second, grid)
    assert blaschke._full_frame_cached.cache_info().misses == misses == 3
    blaschke.clear_frame_cache()


@pytest.mark.parametrize("text", [
    HYPERBOLA_SRC.replace("0.7071067811865476*exp(s)",
                          "0.7071067811865475*exp(s)"),
    re.sub(r"\bs\b", "r", HYPERBOLA_SRC),
], ids=["constant", "variable"])
def test_definitions_differing_in_one_token_are_unequal(text):
    """One constant, or the name of the variable, tells them apart."""
    assert text != HYPERBOLA_SRC
    base, other = dsl.parse_immersion(HYPERBOLA_SRC), dsl.parse_immersion(text)
    assert other.name == base.name and other != base


def test_theorem3_gates_do_not_share_dict_defaults():
    first, second = decompose.Theorem3Gate(), decompose.Theorem3Gate()
    assert first.derived_relations == first.margins == {}
    assert first.derived_relations is not second.derived_relations
    assert first.margins is not second.margins
    assert first.derived_relations is not first.margins
    given = {"lambda2_vs_lambda3": 1.0}
    assert decompose.Theorem3Gate(margins=given).margins is given
