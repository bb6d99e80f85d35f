"""Equiaffine structure, Calabi products, and product decomposition.

The package is organized as a pipeline: closed-form immersions written
in a small DSL (`dsl`) are differentiated exactly with truncated Taylor
jets (`jets`), turned into full Blaschke frames (`blaschke`), validated
against the classical structure equations (`checks`), combined into
product spheres (`construct`), and decomposed back into factors from
the eigenstructure of the difference tensor (`decompose`). `cli` is the
batch front end over files.
"""

from .blaschke import (ArityError, BlaschkeFrame, DegenerateSurfaceError,
                       GeometryError, IndefiniteMetricError, frames_on_grid,
                       full_frame)
from .checks import (CheckReport, GaugeError, apolarity_residual,
                     gauss_codazzi_residual, parallel_cubic_residual,
                     sphere_residual, unimodular_criterion)
from .construct import (FactorGaugeError, ProvenanceError,
                        SpectrumPrediction, base_coefficients, calabi_pair,
                        calabi_point, ode_coefficient, predicted_spectrum,
                        product_ode_identity)
from .decompose import (CandidateAxis, DecompositionVerdict, FactorData,
                        HomothetyResult, NotHyperbolicError,
                        SpectralStructure, Theorem3Gate, VerdictError,
                        classify_spectrum, detect, extract_pair_factors,
                        extract_point_factor, find_axes, is_quadric,
                        normalize_homothety, theorem3_gate)
from .dsl import (ImmersionDef, ImmersionSyntaxError,
                  ImmersionValidationError, Provenance, build_scaled_embedding,
                  parse_immersion, parse_program, print_immersion)

__version__ = "0.1.0"

__all__ = [
    "ArityError", "BlaschkeFrame", "CandidateAxis", "CheckReport",
    "DecompositionVerdict", "DegenerateSurfaceError", "FactorData",
    "FactorGaugeError", "GaugeError", "GeometryError", "HomothetyResult",
    "ImmersionDef", "ImmersionSyntaxError", "ImmersionValidationError",
    "IndefiniteMetricError", "NotHyperbolicError", "Provenance",
    "ProvenanceError", "SpectralStructure", "SpectrumPrediction",
    "Theorem3Gate", "VerdictError", "apolarity_residual",
    "base_coefficients", "build_scaled_embedding", "calabi_pair",
    "calabi_point", "classify_spectrum", "detect", "extract_pair_factors",
    "extract_point_factor", "find_axes", "frames_on_grid", "full_frame",
    "gauss_codazzi_residual", "is_quadric", "normalize_homothety",
    "ode_coefficient", "parallel_cubic_residual", "parse_immersion",
    "parse_program", "predicted_spectrum", "print_immersion",
    "product_ode_identity", "sphere_residual", "theorem3_gate",
    "unimodular_criterion",
]
