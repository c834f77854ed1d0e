"""Coherency analysis for power grids mixing synchronous generators with
droop-controlled grid-forming inverters."""

from .coherency import (
    EpsilonSplit,
    ModeShape,
    Partition,
    SlowSubspace,
    SubspaceComparison,
    compare_subspaces,
    epsilon_decompose,
    group_machines,
    mode_shapes,
    slow_eigensolve,
    slow_variable,
    track_modes,
)
from .errors import (
    CoherenceLabError,
    ConvergenceError,
    InputOutputError,
    PipelineError,
    ValidationError,
)
from .linearize import (
    LaplacianPair,
    build_linear_model,
    check_equilibrium,
    reactive_laplacian,
    row_sum_check,
    state_matrix,
    symmetry_gap,
)
from .machines import Gfm, MachineSet, Sg, load_machines
from .network import Branch, Bus, Network, build_admittance, connectivity_check, load_network
from .powerflow import (
    OperatingPoint,
    PowerFlowOptions,
    PowerFlowSolution,
    init_dynamic_states,
    solve_power_flow,
)
from .scenario import (
    BatchJob,
    Replacement,
    ScenarioReport,
    ScenarioSpec,
    apply_scenario,
    batch_run,
    compare_cases,
    load_scenario,
    run_pipeline,
)

__version__ = "0.1.0"
