"""Distributed planar formation control: gain design, controllers, simulation.

The package designs stabilizing distributed gain matrices for planar
formations over undirected sensing graphs, and simulates teams of
single-integrator, higher-order, unicycle, and car-like agents running the
resulting controllers with saturation, actuator dynamics, inter-agent
collision avoidance, and switching topologies.
"""

from .collision import AvoidanceConfig, adjust_control, build_cones
from .controllers import ControllerConfig, PerturbationConfig, ScaleConfig
from .dynamics import ActuatorParams
from .errors import (
    BcbformError,
    ConfigurationError,
    DegenerateFormationError,
    DimensionError,
    GuaranteeViolationError,
    InfeasibleTopologyError,
    JointInfeasibilityError,
    SolverFailureError,
    TooFewAgentsError,
)
from .gains import (
    GainMatrix,
    SolverOptions,
    SpectrumReport,
    chain_characteristic,
    design_gains,
    design_joint_gains,
    verify_gains,
    verify_higher_order_gains,
)
from .geometry import (
    FormationSpec,
    KernelBasis,
    SensingGraph,
    build_kernel_basis,
    formation_error,
    validate_graph,
)
from .sim import (
    AgentModel,
    InitSpec,
    Scenario,
    SimConfig,
    TrajectoryLog,
    lyapunov_monitor,
    run,
    write_csv,
)

__version__ = "1.0.0"

__all__ = [
    "ActuatorParams",
    "AgentModel",
    "AvoidanceConfig",
    "BcbformError",
    "ConfigurationError",
    "ControllerConfig",
    "DegenerateFormationError",
    "DimensionError",
    "FormationSpec",
    "GainMatrix",
    "GuaranteeViolationError",
    "InfeasibleTopologyError",
    "InitSpec",
    "JointInfeasibilityError",
    "KernelBasis",
    "PerturbationConfig",
    "ScaleConfig",
    "Scenario",
    "SensingGraph",
    "SimConfig",
    "SolverFailureError",
    "SolverOptions",
    "SpectrumReport",
    "TooFewAgentsError",
    "TrajectoryLog",
    "adjust_control",
    "build_cones",
    "build_kernel_basis",
    "chain_characteristic",
    "design_gains",
    "design_joint_gains",
    "formation_error",
    "lyapunov_monitor",
    "run",
    "validate_graph",
    "verify_gains",
    "verify_higher_order_gains",
    "write_csv",
]
