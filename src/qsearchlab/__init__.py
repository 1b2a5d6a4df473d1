"""Query-counting statevector laboratory for quantum search algorithms."""

from .sim import (
    BitOracle,
    NormalizationError,
    ParameterError,
    SeededRng,
    SizeCapError,
    StateVector,
    UnsupportedModeError,
    ValueOracle,
    apply_diffusion,
    apply_phase_flip,
    basis_state,
    measure,
    uniform_state,
)
from .grover import (
    GroverParams,
    optimal_query_count,
    search,
    search_unknown_count,
    search_with_certainty,
    success_probability,
)
from .amplify import (
    AmplifyParams,
    AmplifyResult,
    StatePreparation,
    amplification_schedule_scale,
    amplitude_amplify,
    classical_repetitions,
    predicted_repetitions,
    uniform_preparation,
)
from .minima import (
    HypercubeOracle,
    LocalMinParams,
    MinimumResult,
    find_local_minimum,
    find_minimum,
    verify_local_min,
)
from .walks import (
    MarkovChain,
    TorusGrid,
    WalkCosts,
    classical_hitting,
    collision_vertex_probability,
    cycle_chain,
    default_shot_cap,
    ed_walk,
    exact_hitting_mean,
    grid_walk_search,
    johnson_chain,
    szegedy_find_marked,
    szegedy_step,
    torus_chain,
)
from .applications import (
    Cnf3Formula,
    ed_base_run,
    ed_hybrid_query_model,
    estimate_success,
    quantum_speedup_report,
    random_planted_formula,
    schoening_run,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sim
    "BitOracle", "NormalizationError", "ParameterError", "SeededRng",
    "SizeCapError", "StateVector", "UnsupportedModeError", "ValueOracle",
    "apply_diffusion", "apply_phase_flip", "basis_state", "measure",
    "uniform_state",
    # grover
    "GroverParams", "optimal_query_count", "search", "search_unknown_count",
    "search_with_certainty", "success_probability",
    # amplify
    "AmplifyParams", "AmplifyResult", "StatePreparation",
    "amplification_schedule_scale", "amplitude_amplify",
    "classical_repetitions", "predicted_repetitions", "uniform_preparation",
    # minima
    "HypercubeOracle", "LocalMinParams", "MinimumResult", "find_local_minimum",
    "find_minimum", "verify_local_min",
    # walks
    "MarkovChain", "TorusGrid", "WalkCosts", "classical_hitting",
    "collision_vertex_probability", "cycle_chain", "default_shot_cap",
    "ed_walk", "exact_hitting_mean", "grid_walk_search", "johnson_chain",
    "szegedy_find_marked", "szegedy_step", "torus_chain",
    # applications
    "Cnf3Formula", "ed_base_run", "ed_hybrid_query_model", "estimate_success",
    "quantum_speedup_report", "random_planted_formula", "schoening_run",
    "wilson_interval",
]
