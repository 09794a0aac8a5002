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
    observer_body_rate,
    projected_observer_field,
    projected_pair_field,
    projected_pair_rates,
    worst_residual,
)
from .sampling import _draws, random_rotation, random_tangent, random_unit
from .scenario import InitState
from .simulate import _integrate, _sphere_pair, simulate_cosim, simulate_projected, so2_oracle_run
from .so3 import act, cross, group_exp, hat, unit, vee
from .systems import InputSignal, plant_vector_field, project_dynamics

N_SAMPLES = 1000
N_AUTONOMY_INPUTS = 6
COSIM_TOL = 1e-6      # output gaps of the co-simulated group and sphere pairs
SYNCHRONY_TOL = 1e-8  # innovation-free observer against the plant


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
    # Per sample: a stacked SphereCost.value would need a second dot branch.
    def residual():
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        yh, y = random_unit(rng), random_unit(rng)
        a = c.value(yh, y)
        b = 0.5 * c.k * float(np.sum((yh - y) ** 2))
        return abs(a - b)

    return worst_residual(residual() for _ in range(n))


def innovation_cross_form_residual(rng, n=N_SAMPLES) -> float:
    k, yh, y = _draws(n, lambda: (rng.uniform(0.5, 2.0), random_unit(rng), random_unit(rng)))
    c = SphereCost(k[:, None])
    cross_form = c.k * np.cross(np.cross(yh, y), yh)
    return worst_residual(np.linalg.norm(-c.grad1(yh, y) - cross_form, axis=-1))


def metric_identity_residual(rng, n=N_SAMPLES) -> float:
    def draw():
        base = random_unit(rng)
        return (base, rng.uniform(0.2, 2.0) * random_tangent(rng, base),
                rng.uniform(0.2, 2.0) * random_tangent(rng, base))

    base, v, w = _draws(n, draw)
    # base x v is the body rate whose cross product with base is v; tr(A^T B) = sum(A * B).
    rhs = 0.5 * np.sum(hat(cross(base, v)) * hat(cross(base, w)), axis=(-2, -1))
    return worst_residual(np.abs(np.sum(v * w, axis=-1) - rhs))


def lift_round_trip_residual(rng, y0, n=N_SAMPLES) -> float:
    """Finite differences of the output along the lifted direction recover the
    original tangent vector, and the lift has no component along the
    stabiliser direction act(Xh, y0) in the body frame."""
    H = HorizontalSubspace(y0)

    # Per sample: the bench reference pins this finite difference's rounding.
    def residual():
        Xh = random_rotation(rng)
        yh = act(Xh, y0)
        v = rng.uniform(0.2, 2.0) * random_tangent(rng, yh)
        w = np.cross(v, yh)  # body generator of the lift
        vertical = abs(float(vee(Xh.T @ H.lift(Xh, v)) @ yh))
        fd = (act(Xh @ group_exp(FD_EPS * w), y0) - act(Xh @ group_exp(-FD_EPS * w), y0)) / (2 * FD_EPS)
        return float(np.linalg.norm(fd - v)), vertical

    return worst_residual(residual() for _ in range(n))


def lifted_gradient_identity_residual(rng, y0, n=N_SAMPLES) -> float:
    """Closed-form gradient of the pulled-back cost vs. the horizontal lift of
    the sphere gradient."""
    k, Xh, X = _draws(n, lambda: (rng.uniform(0.5, 2.0), random_rotation(rng), random_rotation(rng)))
    direct = grad1_lifted_cost(SphereCost(k[:, None, None]), Xh, X, y0)
    lifted = HorizontalSubspace(y0).lift(Xh, SphereCost(k[:, None]).grad1(act(Xh, y0), act(X, y0)))
    return worst_residual(np.linalg.norm(direct - lifted, axis=(-2, -1)))


def observer_two_forms_residual(rng, y0, n=N_SAMPLES) -> float:
    """Complementary-filter form of the group observer vs. internal model
    minus lifted gradient."""
    k, Xh, X, u = _draws(n, lambda: (rng.uniform(0.5, 2.0), random_rotation(rng),
                                     random_rotation(rng), rng.uniform(-1.5, 1.5, 3)))
    c = SphereCost(k[:, None])
    yh, y = act(Xh, y0), act(X, y0)
    via_lift = plant_vector_field(Xh, u) - HorizontalSubspace(y0).lift(Xh, c.grad1(yh, y))
    body = Xh @ hat(lifted_observer_field(c, Xh, y, u, y0))
    explicit = Xh @ hat(u + c.k * np.cross(y, yh))
    return worst_residual(np.linalg.norm(np.stack((body, explicit)) - via_lift, axis=(-2, -1)))


def gradient_fd_residual(rng, cost_factory, n=N_SAMPLES) -> float:
    """Directional derivatives of the cost match the gradient pairing."""
    # Per sample: the bench reference pins this finite difference's rounding.
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
    # Per sample: the bench reference pins this finite difference's rounding.
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

    # Per sample: section and the candidate fhat take one point.
    def residual():
        y1, y2 = random_unit(rng), random_unit(rng)
        S = random_rotation(rng)
        base = made.value(y1, y2)
        return (abs(base - made.value(act(S, y1), act(S, y2))),
                abs(base - direct.value(y1, y2)))

    return worst_residual(residual() for _ in range(n))


def pair_fields_residual(rng, y0, n=N_SAMPLES) -> float:
    """The stacked pair fields that step every run against the per-component
    fields they stand for, row by row: projected_pair_field against
    project_dynamics (the plant row, and every row without a cost) and
    projected_observer_field; projected_pair_rates against u and
    observer_body_rate; plant_vector_field of projected_pair_rates at a group
    pair's outputs against plant_vector_field of u and of
    lifted_observer_field.  Each sample checks, with and without a cost, a
    single pair, a shared-plant stack of several observers, and a stack of
    runs, each run with its own plant, input and gain."""
    def by_component(c, S, G, u):
        y, X = S[0], G[0]
        field = [project_dynamics(y, u)] + [
            project_dynamics(yh, u) if c is None else projected_observer_field(c, yh, y, u)
            for yh in S[1:]]
        rates = [u] + [u if c is None else observer_body_rate(c, yh, y, u) for yh in S[1:]]
        if c is None:
            return field, rates
        y = act(X, y0)
        group = [plant_vector_field(X, u)] + [
            plant_vector_field(Xh, lifted_observer_field(c, Xh, y, u, y0)) for Xh in G[1:]]
        return field, rates, group

    def stacked(c, S, G, u):
        out = projected_pair_field(c, S, hat(u)), projected_pair_rates(c, S, u)
        if c is None:
            return out
        return out + (plant_vector_field(G, projected_pair_rates(c, act(G, y0), u)),)

    def gap(got, want):
        return worst_residual(float(np.max(np.abs(g - np.asarray(w)))) for g, w in zip(got, want))

    def residual():
        m = int(rng.integers(2, 6))
        k = rng.uniform(0.5, 2.0, m)
        u = rng.uniform(-1.5, 1.5, (m, 3))
        S, G = random_unit(rng, m + 1), random_rotation(rng, m + 1)
        S_runs = random_unit(rng, 2 * m).reshape(m, 2, 3)
        G_runs = random_rotation(rng, 2 * m).reshape(m, 2, 3, 3)
        out = []
        for gains, costs in ((SphereCost(k[:, None, None]), [SphereCost(g) for g in k]),
                             (None, [None] * m)):
            c = costs[0]
            out.append(gap(stacked(c, S[:2], G[:2], u[0]), by_component(c, S[:2], G[:2], u[0])))
            out.append(gap(stacked(c, S, G, u[0]), by_component(c, S, G, u[0])))
            got = stacked(gains, S_runs, G_runs, u)
            out.extend(gap([g[r] for g in got], by_component(costs[r], S_runs[r], G_runs[r], u[r]))
                       for r in range(m))
        return worst_residual(out)

    # Per sample: its single-pair and shared-plant layouts exercise the dot branches.
    return worst_residual(residual() for _ in range(n))


# --- simulation properties --------------------------------------------------

def _random_sinusoid(rng) -> InputSignal:
    return InputSignal.sinusoid(
        rng.uniform(-1.2, 1.2, 3), float(rng.uniform(0.1, 0.6)), float(rng.uniform(0, 2 * np.pi))
    )


def _random_piecewise(rng, h) -> InputSignal:
    """Bounded piecewise-constant signal with switch times snapped to the
    integrator grid: each step lies in one segment, which the stepping
    engine holds at every stage, so both integrators take the jumps."""
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


def _batch_theta(scenario, inputs, cost, S):
    """Sample times and (samples, n) error angles of n projected runs stepped
    as one batch: run i has input inputs[i] and starts at the plant and
    observer rows S[i] of the (n, 2, 3) pair stack S."""
    def rates(t, at):
        return np.stack([sig.eval(t, at) for sig in inputs], axis=-2)  # (..., n, 3)

    t, theta = _integrate(scenario, rates, _sphere_pair(cost), S, False)[:2]
    return t, theta[..., 0]


def autonomy_spread(scenario, inputs, cost=None) -> float:
    """Pointwise spread of the error angle across runs differing only in the
    input signal, stepped as one batch from the scenario's initial pair."""
    cost = SphereCost(scenario.k) if cost is None else cost
    S = np.tile(scenario.initial_sphere_pair(), (len(inputs), 1, 1))
    _, theta = _batch_theta(scenario, inputs, cost, S)
    return float(np.max(np.ptp(theta, axis=1)))


def synchrony_residual(scenario, inputs) -> float:
    """Largest excursion of the error angle from its initial value over runs
    of the innovation-free pair (the internal model alone), one per input,
    stepped as one batch from the scenario's initial pair."""
    S = np.tile(scenario.initial_sphere_pair(), (len(inputs), 1, 1))
    return check_synchrony(_batch_theta(scenario, inputs, None, S)[1])


def cosim_residual(scenario) -> float:
    """Worst plant- or observer-output gap between the group pair and the
    sphere pair started on its outputs (simulate_cosim)."""
    rec = simulate_cosim(scenario)
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
    synchrony = synchrony_residual(scenario, _smooth_inputs(rng, 3) + [_random_piecewise(rng, h)])
    checks.append(_upper("synchrony_constancy", synchrony, SYNCHRONY_TOL))
    checks.append(_upper("autonomy_spread", autonomy_spread(scenario, inputs), 1e-6))
    checks.append(_lower("autonomy_negative_control",
                         autonomy_spread(scenario, inputs[:2], cost=AnisotropicCost()), 1e-3))
    checks.append(_upper("cosim_projection_consistency", cosim_residual(scenario), COSIM_TOL))
    checks.append(_upper("antipodal_stationarity", antipodal_stationarity_residual(scenario), 1e-9))
    return checks


def _run_verification_circle(scenario) -> list[PropertyCheck]:
    result = so2_oracle_run(scenario)
    return [
        _upper("so2_oracle_deviation", result.worst_deviation, 1e-8),
        _upper("so2_state_convergence", result.final_state_error, 1e-6),
    ]
