"""Steady-state stability analysis and communication-link planning for power grids.

The pipeline: a bus/branch/generator case is solved with an AC power flow,
generators are replaced by constant EMFs behind transient reactance, loads
become constant impedances, and the network is Kron-reduced to the generator
internal nodes.  The swing dynamics around the resulting equilibrium are
linearized, the spectral abscissa alpha_max of the state Jacobian measures
stability, and a greedy planner picks a budgeted set of generator-pair
communication links (phase-difference feedback on mechanical power) that
drives alpha_max down.
"""

from gridlink.case import (
    BranchRecord,
    BusRecord,
    CaseError,
    CaseSchemaError,
    CaseSyntaxError,
    GeneratorRecord,
    InputError,
    PowerCase,
    build_ybus,
    case_path,
    load_case,
    parse_case,
    validate,
)
from gridlink.dynamics import (
    ControlConfig,
    DisturbanceSpec,
    MachineState,
    SimulationBlowUp,
    Trajectory,
    control_matrix,
    decay_rate,
    electrical_power,
    integrate,
    link_laplacian,
    simulate,
    swing_rhs,
)
from gridlink.linearization import (
    SpectrumReport,
    alpha_for_links,
    coupling_matrix,
    jacobian,
    spectral_abscissa,
)
from gridlink.model import SystemModel, build_system
from gridlink.planner import (
    PlanIteration,
    PlanResult,
    candidate_links,
    exhaustive_plan,
    greedy_plan,
)
from gridlink.powerflow import PowerFlowError, PowerFlowSolution, mismatch, solve_powerflow
from gridlink.reduction import (
    KronReductionError,
    OperatingPoint,
    ReducedNetwork,
    augment_internal_nodes,
    coupling_coefficients,
    equilibrium,
    kron_reduce,
    reduce_case,
)

__version__ = "0.1.0"
