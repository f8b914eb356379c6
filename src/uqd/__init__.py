"""Unambiguous discrimination of two unknown qubits from program registers.

A register interleaves n copies each of two unknown program qubits and one
data qubit equal to one of them.  The package builds the measurement that
identifies which and never errs.  Its conclusive elements scale the
complements of two symmetric projectors by c1 and c2 (the two-scale
family), and within that family the scales maximize the average success
over uniformly random program qubits; no claim is made about measurements
outside it.  The package also carries the spectral feasibility analysis, a
brute-force full-space oracle, and Monte Carlo validation.
"""

from .symmetric import (
    WALK_N_MAX,
    Block,
    BlochQubit,
    ReducedIndex,
    ReducedOperator,
    ReducedState,
    build_input_state,
    build_input_states,
    build_symmetric_projector,
    dicke_amplitudes,
    reduced_dim,
)
from .povm import (
    PovmParams,
    PovmTriple,
    build_povm,
    closed_form_expectation,
    closed_form_expectations,
    success_probabilities,
    success_probability,
)
from .spectral import (
    SECTOR_N_MAX,
    BlockStructureError,
    SpectrumReport,
    TransformedBasis,
    build_transform,
    closed_form_extreme_eigenvalues,
    closed_form_spectrum,
    constraint_c2,
    extract_blocks,
    least_eigenvalues,
    positivity_check,
    principal_cosines,
    sector_blocks,
    spectrum_report,
    transformed_pi0,
)
from .strategy import (
    DiscriminatorConfig,
    Regime,
    StrategyDecision,
    avg_success_expression,
    avg_success_povm,
    avg_success_projective,
    decide,
    optimal_c,
    validity_range,
)
from .fullspace import (
    FULL_N_MAX,
    FullState,
    run_verification,
    symmetric_projector_full,
    tensor_input,
)
from .montecarlo import (
    McReport,
    OutcomeCounts,
    make_rng,
    mc_average_success,
    sample_qubit,
    sample_qubits,
    simulate_outcomes,
)

__version__ = "0.1.0"
