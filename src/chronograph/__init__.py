"""Linear evolution problems coupled along the edges of a time graph."""

from .cli import run_compare, run_scenario, run_solve
from .graph import (CAUCHY_SEQUENCE, GLOBAL_ONLY, IVP_SEQUENCE, BlockPattern,
                    SolvabilityReport, TimeGraph, classify_solvability,
                    pattern_of)
from .problem import (ConstantForcing, EdgeOperator, Forcing, HypothesisReport,
                      SampledForcing, TimeGraphProblem, TransmissionOperator,
                      ZeroForcing, diagnose, validate)
from .solver import (EdgeSolution, Monodromy, NotWellPosed, SolveReport,
                     assemble_monodromy, propagate, resolvent_Dt, solve,
                     solution_grade, solve_boundary)
from .variants import (HypothesesNotMet, MappingReport, NonCommuting,
                       SecondOrderProblem, UnitarityReport,
                       schrodinger_effective, second_order_solve,
                       unitarity_check, verify_mapping_properties)

__version__ = "0.1.0"

__all__ = [
    "BlockPattern", "CAUCHY_SEQUENCE", "ConstantForcing", "EdgeOperator",
    "EdgeSolution", "Forcing", "GLOBAL_ONLY", "HypothesesNotMet",
    "HypothesisReport", "IVP_SEQUENCE", "MappingReport", "Monodromy",
    "NonCommuting", "NotWellPosed", "SampledForcing", "SecondOrderProblem",
    "SolvabilityReport", "SolveReport", "TimeGraph", "TimeGraphProblem",
    "TransmissionOperator", "UnitarityReport", "ZeroForcing",
    "assemble_monodromy", "classify_solvability", "diagnose", "pattern_of",
    "propagate", "resolvent_Dt", "run_compare", "run_scenario", "run_solve",
    "schrodinger_effective", "second_order_solve", "solution_grade", "solve",
    "solve_boundary", "unitarity_check", "validate",
    "verify_mapping_properties",
]
