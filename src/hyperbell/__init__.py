"""Bell inequalities for block-structured hyperentangled states."""

from .bell import (
    BellTerm,
    enumerate_terms,
    n_terms,
    quantum_value,
    term_at,
)
from .efficiency import (
    BoundsReport,
    MinBlocksResult,
    NoiseParams,
    NoViolationError,
    bounds_report,
    eta_threshold,
    expected_estimate,
    min_blocks,
    noisy_bounds,
    visibility_factor,
)
from .lhv import (
    LhvAssignment,
    LhvBoundResult,
    brute_force_bound,
    evaluate,
    factored_bound,
)
from .montecarlo import (
    BetaEstimate,
    CountsTable,
    TermEstimate,
    UndefinedEstimateError,
    estimate_beta,
    estimate_term,
)
from .pauli import (
    Observable,
    PauliOp,
    QubitIndex,
    commutes,
    identity,
    named_observable,
    parse_pauli,
    pauli_mul,
    pauli_to_string,
)
from .state import (
    CorrelationReport,
    DenseState,
    StabilizerState,
    build_state,
    dense_expectation,
    dense_state,
    expectation,
    verify_perfect_correlations,
)

__version__ = "0.1.0"
