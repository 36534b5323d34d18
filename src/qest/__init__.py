"""Quantum estimation and robust-control toolkit.

Linear-regression state tomography (batch and recursive/adaptive), process
tomography with Hamiltonian identification for unitary channels, and
sampling-based learning control, all driven by a seeded simulated-measurement
harness and the ``qest`` CLI.
"""

from .adaptive import (
    AdaptiveSchedule,
    RecursiveState,
    continuum_qubit_basis,
    rls_update,
    run_adaptive_protocol,
    select_next_povm,
    trace_gain,
)
from .control import (
    ControlField,
    SampleSet,
    SlidingConfig,
    UncertainSystem,
    augmented_j,
    gradient_j,
    in_sliding_domain,
    periodic_measurement_demo,
    slc_test,
    slc_train,
)
from .errors import (
    BranchAmbiguityWarning,
    ConfigError,
    ContractViolationError,
    SingularDesignError,
)
from .identification import (
    apply_channel,
    build_b_matrix,
    estimate_lambda,
    identify_hamiltonian,
    natural_state_basis,
    raw_process_matrix,
)
from .linalg import (
    HermitianBasis,
    gell_mann_basis,
    herm_expm,
    matrix_from_json,
    matrix_to_json,
    nearest_unitary,
    unitary_log,
    vec,
    vec_inv,
)
from .states import (
    Povm,
    Records,
    born_probabilities,
    cube_povms,
    cube_records,
    expected_records,
    mse,
    rho_from_theta,
    simulate_measurements,
    theta_from_rho,
)
from .tomography import (
    RegressionProblem,
    build_regression,
    project_physical,
    solve_weighted_ls,
    tomography_pipeline,
)

__version__ = "0.1.0"
