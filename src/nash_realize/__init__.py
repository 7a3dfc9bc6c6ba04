"""Realization theory for power-law control systems.

Symbolic power-law expressions, input-word algebra, ODE response oracles,
transcendence-degree estimation, reachability/observability reduction,
minimality verdicts, and local isomorphisms. See README.md for a tour.
"""

import os as _os

# cap BLAS/OpenMP pools before numpy's first import: one thread each
# unless NASH_REALIZE_THREADS asks for more; a pool's own variable, when
# set, wins
_threads = _os.environ.get("NASH_REALIZE_THREADS") or "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .errors import (NashRealizeError, DomainViolation, ExactnessUnavailable,
                     AlphabetMismatch, ArityMismatch, DomainExit, BlowUp,
                     OffGrid, DegenerateSamples, IllConditioned,
                     ExpressionBlowup, FitFailure, NoValidShiftInput,
                     NotReachableInput, NewtonDiverged, DerivativeVanished,
                     NotBijective, DimensionMismatch)
from .expr import NashExpr, ALL_REAL, POSITIVE_ORTHANT, lie_derivative
from .inputs import (InputAlphabet, GeneralizedInput, concat, reverse,
                     sample_inputs, diverse_word)
from .system import (Box, NashSystem, Trajectory, flow, ResponseOracle,
                     SystemOracle, TableFamily, TableOracle, shift_oracle)
from .config import RunConfig
from .analysis import (ObsAlgebraBasis, generate_obs_algebra,
                       TranscendenceReport, estimate_trdeg,
                       estimate_response_trdeg, estimate_reachable_trdeg,
                       tabulate_response_plan, PolynomialRelation,
                       fit_relation, box_sampler)
from .reduction import (ImplicitMap, probe_radius,
                        LocalRealization, ReachReduced, ObsReduced,
                        realization_from_json, VerificationReport,
                        verify_local_realization, reachability_reduce,
                        observability_reduce, minimize, resymbolize)
from .minimality import (MINIMAL, NOT_MINIMAL, INCONCLUSIVE,
                         MinimalityVerdict, check_minimality,
                         LocalIsomorphism, construct_isomorphism,
                         IsomorphismReport, verify_isomorphism)
from . import catalog

__all__ = [
    "NashRealizeError", "DomainViolation", "ExactnessUnavailable",
    "AlphabetMismatch", "ArityMismatch",
    "DomainExit", "BlowUp", "OffGrid", "DegenerateSamples", "IllConditioned",
    "ExpressionBlowup", "FitFailure", "NoValidShiftInput",
    "NotReachableInput", "NewtonDiverged", "DerivativeVanished",
    "NotBijective", "DimensionMismatch",
    "NashExpr", "ALL_REAL", "POSITIVE_ORTHANT", "lie_derivative",
    "InputAlphabet", "GeneralizedInput", "concat", "reverse",
    "sample_inputs", "diverse_word",
    "Box", "NashSystem", "Trajectory", "flow",
    "ResponseOracle", "SystemOracle", "TableFamily", "TableOracle",
    "shift_oracle",
    "RunConfig",
    "ObsAlgebraBasis", "generate_obs_algebra", "TranscendenceReport",
    "estimate_trdeg", "estimate_response_trdeg", "estimate_reachable_trdeg",
    "tabulate_response_plan", "PolynomialRelation", "fit_relation",
    "box_sampler",
    "ImplicitMap", "probe_radius", "LocalRealization",
    "ReachReduced", "ObsReduced", "realization_from_json",
    "VerificationReport", "verify_local_realization",
    "reachability_reduce", "observability_reduce", "minimize",
    "resymbolize",
    "MINIMAL", "NOT_MINIMAL", "INCONCLUSIVE", "MinimalityVerdict",
    "check_minimality", "LocalIsomorphism", "construct_isomorphism",
    "IsomorphismReport", "verify_isomorphism",
    "catalog",
    "__version__",
]
