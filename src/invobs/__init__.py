"""Observer toolkit for left-invariant kinematics with direction outputs.

The state lives on a rotation group, the measurement is the action of the
state on a reference direction, and the observer is an internal model plus a
gradient innovation derived from an invariant cost.  The package provides the
group/sphere primitives, the plant and its projected realisation, the observer
constructions on both spaces, geometric integrators with Monte Carlo sweeps,
a planar-circle oracle instance, and a batch CLI.  The top level exports what
the README tour, the CLI and the verify API use (README, "Public API"); every
other name is imported from its submodule.
"""

from .observer import (
    HorizontalSubspace,
    SectionedCost,
    SphereCost,
    lifted_observer_field,
    projected_pair_field,
    projected_pair_rates,
)
from .sampling import random_rotation
from .scenario import ScenarioError, parse_scenario, preset, scenario_to_dict
from .simulate import (
    SimulationAbort,
    closed_form_deviation,
    fit_rate,
    monte_carlo,
    simulate_circle,
    simulate_cosim,
    simulate_lifted,
    simulate_projected,
    summarize,
)
from .so3 import act, compose, group_exp, hat, orthonormalize, unit
from .systems import InputSignal
from .verify import PropertyCheck, run_verification

__version__ = "0.1.0"
