"""Exact linear algebra for finite-grid persistence modules over F_p."""

from .errors import BudgetExceeded, ValidationError
from .fields import PrimeField
from .stepmodule import (Grid, Morphism, StepModule, direct_sum,
                         restrict_extend, union_grids, validate,
                         validate_morphism, zero_module)
from .calculus import (discretize, eta, lattice_grid, persistent_rank, shift,
                       smooth)
from .decompose import Decomposition, decompose, iso_test, split_once
from .metric import (INF, DistanceBracket, Interleaving, decide,
                     distance_bracket, rank_lower_bound, verify)
from .limits import (CauchyChain, cauchy_limit, precompact_probe,
                     uniform_bounds_report)
from .stability import (perturbation_experiment, shift_factor_morphism,
                        strictly_trivial, tau_indecomposable)
from .pipelines import (Bifiltration, FiniteMetricSpace, SimplicialComplex,
                        complex_from_simplices, degree_rips, homology_module,
                        metric_space, sublevel_bifiltration,
                        vertex_perturbation_pair)
from . import library, serialize

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "ValidationError", "PrimeField",
    "Grid", "Morphism", "StepModule", "direct_sum",
    "restrict_extend", "union_grids", "validate", "validate_morphism",
    "zero_module",
    "discretize", "eta", "lattice_grid", "persistent_rank", "shift", "smooth",
    "Decomposition", "decompose", "iso_test", "split_once",
    "INF", "DistanceBracket", "Interleaving", "decide", "distance_bracket",
    "rank_lower_bound", "verify",
    "CauchyChain", "cauchy_limit", "precompact_probe", "uniform_bounds_report",
    "perturbation_experiment", "shift_factor_morphism", "strictly_trivial",
    "tau_indecomposable",
    "Bifiltration", "FiniteMetricSpace", "SimplicialComplex",
    "complex_from_simplices", "degree_rips", "homology_module", "metric_space",
    "sublevel_bifiltration", "vertex_perturbation_pair",
    "library", "serialize",
]
