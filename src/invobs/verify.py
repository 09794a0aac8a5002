"""Numerical verification sweeps for the structural identities of the design.

Each check returns a worst-case residual over seeded random samples together
with its documented tolerance.  Most are upper bounds (the identity holds to
rounding or to finite-difference accuracy); the negative controls are lower
bounds, passing only when deliberately broken symmetry shows up at full size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .observer import (
    AnisotropicCost,
    FD_EPS,
    HorizontalSubspace,
    SectionedCost,
    SphereCost,
    check_innovation_equivariance,
    check_synchrony,
    grad1_lifted_cost,
    lifted_cost,
    lifted_observer_field,
    omega_bar,
    worst_residual,
)
from .sampling import random_rotation, random_tangent, random_unit
from .scenario import InitState
from .simulate import _integrate, _sphere_pair, simulate_cosim, simulate_projected, so2_oracle_run
from .so3 import TangentVector, act, group_exp, hat, unit
from .systems import InputSignal, plant_vector_field

N_SAMPLES = 1000
N_AUTONOMY_INPUTS = 6


@dataclass
class PropertyCheck:
    """One verified property: worst residual against its tolerance.

    ``bound`` is "max" when the residual must stay below the tolerance and
    "min" for negative controls that must exceed it.
    """

    name: str
    residual: float
    tolerance: float
    bound: str = "max"

    @property
    def passed(self) -> bool:
        if self.bound == "max":
            return self.residual <= self.tolerance
        return self.residual >= self.tolerance


def _upper(name, residual, tol) -> PropertyCheck:
    return PropertyCheck(name, float(residual), tol, "max")


def _lower(name, residual, tol) -> PropertyCheck:
    return PropertyCheck(name, float(residual), tol, "min")


# --- algebraic identities ---------------------------------------------------

def cost_closed_forms_residual(rng, n=N_SAMPLES) -> float:
    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        yh, y = random_unit(rng), random_unit(rng)
        a = c.value(yh, y)
        b = 0.5 * c.k * float(np.sum((yh - y) ** 2))
        return abs(a - b)

    return worst_residual(residual() for _ in range(n))


def innovation_cross_form_residual(rng, n=N_SAMPLES) -> float:
    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        yh, y = random_unit(rng), random_unit(rng)
        direct = -c.grad1(yh, y)
        cross = c.k * np.cross(np.cross(yh, y), yh)
        return float(np.linalg.norm(direct - cross))

    return worst_residual(residual() for _ in range(n))


def metric_identity_residual(rng, n=N_SAMPLES) -> float:
    def residual():
        base = random_unit(rng)
        v = TangentVector(base, rng.uniform(0.2, 2.0) * random_tangent(rng, base))
        w = TangentVector(base, rng.uniform(0.2, 2.0) * random_tangent(rng, base))
        lhs = float(v.vec @ w.vec)
        rhs = 0.5 * float(np.trace(hat(omega_bar(v)).T @ hat(omega_bar(w))))
        return abs(lhs - rhs)

    return worst_residual(residual() for _ in range(n))


def lift_round_trip_residual(rng, y0, n=N_SAMPLES) -> float:
    """Finite differences of the output along the lifted direction recover the
    original tangent vector."""
    H = HorizontalSubspace(y0)

    def residual():
        Xh = random_rotation(rng)
        yh = act(Xh, y0)
        v = TangentVector(yh, rng.uniform(0.2, 2.0) * random_tangent(rng, yh))
        w = np.cross(v.vec, v.base)  # body generator of the lift
        assert H.contains(Xh, H.lift(Xh, v))
        fd = (act(Xh @ group_exp(FD_EPS * w), y0) - act(Xh @ group_exp(-FD_EPS * w), y0)) / (2 * FD_EPS)
        return float(np.linalg.norm(fd - v.vec))

    return worst_residual(residual() for _ in range(n))


def lifted_gradient_identity_residual(rng, y0, n=N_SAMPLES) -> float:
    """Closed-form gradient of the pulled-back cost vs. the horizontal lift of
    the sphere gradient."""
    H = HorizontalSubspace(y0)

    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        Xh, X = random_rotation(rng), random_rotation(rng)
        yh, y = act(Xh, y0), act(X, y0)
        direct = grad1_lifted_cost(c, Xh, X, y0)
        lifted = H.lift(Xh, TangentVector(yh, c.grad1(yh, y)))
        return float(np.linalg.norm(direct - lifted))

    return worst_residual(residual() for _ in range(n))


def observer_two_forms_residual(rng, y0, n=N_SAMPLES) -> float:
    """Complementary-filter form of the group observer vs. internal model
    minus lifted gradient."""
    H = HorizontalSubspace(y0)

    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        Xh, X = random_rotation(rng), random_rotation(rng)
        yh, y = act(Xh, y0), act(X, y0)
        u = rng.uniform(-1.5, 1.5, 3)
        explicit = np.asarray(Xh) @ hat(np.asarray(u) + c.k * np.cross(y, yh))
        body = lifted_observer_field(c, Xh, y, u, y0)
        via_lift = plant_vector_field(Xh, u) - H.lift(Xh, TangentVector(yh, c.grad1(yh, y)))
        return (float(np.linalg.norm(np.asarray(Xh) @ hat(body) - via_lift)),
                float(np.linalg.norm(explicit - via_lift)))

    return worst_residual(residual() for _ in range(n))


def gradient_fd_residual(rng, cost_factory, n=N_SAMPLES) -> float:
    """Directional derivatives of the cost match the gradient pairing."""
    def residual():
        c = cost_factory(rng)
        yh, y = random_unit(rng), random_unit(rng)
        w = random_tangent(rng, yh)
        fd = (c.value(unit(yh + FD_EPS * w), y) - c.value(unit(yh - FD_EPS * w), y)) / (2 * FD_EPS)
        return abs(fd - float(c.grad1(yh, y) @ w))

    return worst_residual(residual() for _ in range(n))


def lifted_gradient_fd_residual(rng, y0, n=N_SAMPLES) -> float:
    """Derivative of the pulled-back cost along group directions matches the
    half-trace metric pairing with its gradient."""
    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        Xh, X = random_rotation(rng), random_rotation(rng)
        Om = rng.uniform(-1.0, 1.0, 3)
        fp = lifted_cost(c, Xh @ group_exp(FD_EPS * Om), X, y0)
        fm = lifted_cost(c, Xh @ group_exp(-FD_EPS * Om), X, y0)
        fd = (fp - fm) / (2 * FD_EPS)
        G = grad1_lifted_cost(c, Xh, X, y0)
        pairing = 0.5 * float(np.trace((np.asarray(Xh).T @ G).T @ hat(Om)))
        return abs(fd - pairing)

    return worst_residual(residual() for _ in range(n))


def invariant_cost_construction_residual(rng, y0, n=N_SAMPLES) -> float:
    """The section-generated cost from the candidate k(1 - <z, y0>) is
    invariant under simultaneous rotations and matches the direct cost."""
    k = 1.3
    made = SectionedCost(lambda z: k * (1.0 - float(z @ y0)), y0)
    direct = SphereCost(k)

    def residual():
        y1, y2 = random_unit(rng), random_unit(rng)
        S = random_rotation(rng)
        base = made.value(y1, y2)
        return (abs(base - made.value(act(S, y1), act(S, y2))),
                abs(base - direct.value(y1, y2)))

    return worst_residual(residual() for _ in range(n))


# --- simulation properties --------------------------------------------------

def _random_sinusoid(rng) -> InputSignal:
    return InputSignal.sinusoid(
        rng.uniform(-1.2, 1.2, 3), float(rng.uniform(0.1, 0.6)), float(rng.uniform(0, 2 * np.pi))
    )


def _random_piecewise(rng, h) -> InputSignal:
    """Bounded piecewise-constant signal with switch times snapped to the
    integrator grid, so no step straddles a discontinuity."""
    times = np.round(np.sort(rng.uniform(1.0, 8.0, 2)) / h) * h
    if times[1] <= times[0]:
        times[1] = times[0] + round(1.0 / h) * h
    return InputSignal.piecewise(times, rng.uniform(-1.0, 1.0, (3, 3)))


def _smooth_inputs(rng, n) -> list[InputSignal]:
    """Constant, sinusoidal, and sum-of-sinusoid signals: the class fixed-step
    RK4 integrates at its nominal order."""
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(_random_sinusoid(rng))
        elif i % 3 == 1:
            out.append(InputSignal.constant(rng.uniform(-1.0, 1.0, 3)))
        else:
            out.append(InputSignal.sum_of(_random_sinusoid(rng), _random_sinusoid(rng)))
    return out


def _autonomy_inputs(rng, n, h) -> list[InputSignal]:
    """Deterministic family of bounded admissible inputs, mixing smooth and
    grid-aligned piecewise signals."""
    out = []
    for i in range(n):
        if i % 3 == 2:
            out.append(InputSignal.sum_of(_random_sinusoid(rng), _random_piecewise(rng, h)))
        else:
            out.extend(_smooth_inputs(rng, 1))
    return out


class _InputStack:
    """The inputs of a batch of runs: ``eval(t)`` gives their (n, 3) rates."""

    def __init__(self, signals):
        self.signals = signals

    def eval(self, t) -> np.ndarray:
        return np.array([sig.eval(t) for sig in self.signals])


def _batch_theta(scenario, inputs, cost, y, yhat):
    """Sample times and (samples, n) error angles of n projected runs stepped
    as one batch: run i has input inputs[i] and starts at rows i of the
    (n, 3) plant and observer outputs y and yhat."""
    return _integrate(scenario, _sphere_pair(_InputStack(inputs), cost), (y, yhat), False)[:2]


def autonomy_spread(scenario, inputs, cost=None) -> float:
    """Pointwise spread of the error angle across runs differing only in the
    input signal, stepped as one batch from the scenario's initial pair."""
    y, yhat = (np.tile(v, (len(inputs), 1)) for v in scenario.initial_sphere_pair())
    cost = SphereCost(scenario.k) if cost is None else cost
    _, theta = _batch_theta(scenario, inputs, cost, y, yhat)
    return float(np.max(np.ptp(theta, axis=1)))


def synchrony_residual(scenario, inputs) -> float:
    return worst_residual(check_synchrony(simulate_projected(
        dc_replace(scenario, input=sig, mode="synchrony"))) for sig in inputs)


def cosim_residual(scenario) -> float:
    rec = simulate_cosim(dc_replace(scenario, mode="co-sim"))
    return float(np.max(rec.consistency))


def antipodal_stationarity_residual(scenario) -> float:
    """Exact antipodal initialisation must stay at error angle pi."""
    sc = dc_replace(scenario, mode="projected")
    y = sc.initial_sphere_pair()[0]
    sc = dc_replace(sc, observer=InitState("direction", -y))
    rec = simulate_projected(sc)
    return float(np.max(np.abs(rec.theta - np.pi)))


# --- suite ------------------------------------------------------------------

def run_verification(scenario) -> list[PropertyCheck]:
    """Run every applicable property for the scenario's instance.

    Sweep sizes and tolerances are fixed; the scenario contributes the gain,
    seed, horizon, integrator, and initial conditions for the
    simulation-level properties.
    """
    if scenario.instance == "so2-s1":
        return _run_verification_circle(scenario)
    return _run_verification_sphere(scenario)


def _run_verification_sphere(scenario) -> list[PropertyCheck]:
    rng = np.random.default_rng(scenario.seed)
    y0 = scenario.y0_vec
    h = scenario.integrator.h
    checks = [
        _upper("cost_closed_forms", cost_closed_forms_residual(rng), 1e-12),
        _upper("innovation_cross_form", innovation_cross_form_residual(rng), 1e-12),
        _upper("metric_trace_identity", metric_identity_residual(rng), 1e-12),
        _upper("innovation_equivariance",
               check_innovation_equivariance(SphereCost(scenario.k), N_SAMPLES, scenario.seed),
               1e-12),
        _lower("equivariance_negative_control",
               check_innovation_equivariance(AnisotropicCost(), N_SAMPLES, scenario.seed),
               1e-3),
        _upper("horizontal_lift_round_trip", lift_round_trip_residual(rng, y0), 1e-6),
        _upper("lifted_gradient_identity", lifted_gradient_identity_residual(rng, y0), 1e-12),
        _upper("observer_two_forms", observer_two_forms_residual(rng, y0), 1e-12),
        _upper("cost_gradient_fd",
               gradient_fd_residual(rng, lambda r: SphereCost(float(r.uniform(0.5, 2.0)))),
               1e-5),
        _upper("lifted_cost_gradient_fd", lifted_gradient_fd_residual(rng, y0), 1e-5),
        _upper("invariant_cost_construction",
               invariant_cost_construction_residual(rng, y0), 1e-9),
    ]
    inputs = _autonomy_inputs(rng, N_AUTONOMY_INPUTS, h)
    # Smooth signals under the default integrator; grid-aligned piecewise
    # signals under lie-euler, whose start-of-step sampling integrates them
    # exactly.  Fixed-step RK4 loses local order at a jump, which would show
    # up here as integrator error rather than a property violation.
    sync_runs = [(sig, scenario) for sig in _smooth_inputs(rng, 3)]
    lie = dc_replace(scenario,
                     integrator=dc_replace(scenario.integrator, method="lie-euler"))
    sync_runs.append((_random_piecewise(rng, h), lie))
    checks.append(_upper("synchrony_constancy",
                         worst_residual(synchrony_residual(s, [sig]) for sig, s in sync_runs), 1e-8))
    checks.append(_upper("autonomy_spread", autonomy_spread(scenario, inputs), 1e-6))
    checks.append(_lower("autonomy_negative_control",
                         autonomy_spread(scenario, inputs[:2], cost=AnisotropicCost()), 1e-3))
    checks.append(_upper("cosim_projection_consistency", cosim_residual(scenario), 1e-6))
    checks.append(_upper("antipodal_stationarity", antipodal_stationarity_residual(scenario), 1e-9))
    return checks


def _run_verification_circle(scenario) -> list[PropertyCheck]:
    result = so2_oracle_run(scenario)
    return [
        _upper("so2_oracle_deviation", result.max_deviation, 1e-8),
        _upper("so2_state_convergence", result.final_state_error, 1e-6),
    ]
