"""Observer toolkit for left-invariant kinematics with direction outputs.

The state lives on a rotation group, the measurement is the action of the
state on a reference direction, and the observer is an internal model plus a
gradient innovation derived from an invariant cost.  The package provides the
group/sphere primitives, the plant and its projected realisation, the observer
constructions on both spaces, geometric integrators with Monte Carlo sweeps,
a planar-circle oracle instance, and a batch CLI.
"""

from .circle import error_closed_form, wrap
from .observer import (
    AnisotropicCost,
    HorizontalSubspace,
    SectionedCost,
    SphereCost,
    canonical_error_from_group,
    check_innovation_equivariance,
    check_synchrony,
    error_angle,
    error_angle_closed_form,
    grad1_lifted_cost,
    lifted_cost,
    lifted_observer_field,
    omega_bar,
    projected_observer_field,
    right_invariant_error,
)
from .sampling import random_rotation, random_tangent, random_unit
from .scenario import (
    McSpec,
    Scenario,
    ScenarioError,
    parse_scenario,
    preset,
    preset_names,
    scenario_from_dict,
    scenario_to_dict,
)
from .simulate import (
    IntegratorSpec,
    MonteCarloResult,
    RunSummary,
    SimulationAbort,
    So2OracleResult,
    TrajectoryRecord,
    closed_form_deviation,
    fit_rate,
    monte_carlo,
    simulate_circle,
    simulate_cosim,
    simulate_lifted,
    simulate_projected,
    so2_oracle_run,
    summarize,
)
from .so3 import (
    AntipodalError,
    TangentVector,
    act,
    compose,
    drift,
    group_exp,
    hat,
    orthonormalize,
    section,
    unit,
    vee,
)
from .systems import (
    InputSignal,
    plant_vector_field,
    project_dynamics,
)
from .verify import PropertyCheck, run_verification

__version__ = "0.1.0"
