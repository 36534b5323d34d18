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
    select_next_basis,
    trace_gain,
)
from .control import (
    ControlField,
    SampleSet,
    UncertainSystem,
    evaluate_pulse,
    periodic_measurement_demo,
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
    estimate_lambda,
    identify_hamiltonian,
    natural_probes,
    raw_process_matrix,
)
from .linalg import (
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
    Records,
    cube_records,
    cube_rows,
    mse,
    rho_from_theta,
)
from .tomography import (
    RegressionProblem,
    build_regression,
    project_physical,
    solve_weighted_ls,
    tomography_pipeline,
)

__version__ = "0.1.0"
