"""Scenario documents: a JSON schema describing one complete simulation.

A scenario fixes the problem instance (rotation group with sphere outputs, or
the planar circle instance), the gain, the reference direction, the input
signal, initial conditions for plant and observer, the integrator, horizon,
sampling stride, and the run mode.  Parsing validates every constraint with a
field-precise message and rejects unknown keys; the canonical dictionary echo
round-trips so a run can be reproduced from its own summary file.

A circle document is read as the planar restriction of the rotation-group
instance: rotations about the z axis, outputs on the equator and body rates
along z, so both instances run on the same pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import circle
from .simulate import CONVERGENCE_THRESHOLD, IntegratorSpec, _n_records, _n_steps
from .so3 import AntipodalError, act, cross, drift, group_exp, section
from .systems import InputSignal

SCHEMA_VERSION = 1

INSTANCES = ("so3-s2", "so2-s1")
MODES = ("projected", "lifted", "co-sim", "synchrony", "monte-carlo", "verify")
MC_SPACES = ("projected", "lifted")
MAX_STEPS = 10 ** 8  # integrator steps in one run; far beyond any useful horizon
MAX_RUN_SAMPLES = 10 ** 6  # recorded samples in one run; the presets record 1001
MAX_MC_RUNS = 10 ** 5  # runs in one sweep; 100x the preset
# Recorded values in one sweep (runs x samples per run); keeps its float64
# angle history, which the sweep holds about once, at 0.4 GB or less: traced
# peaks read 1.04 to 1.13 times the history for 2000 x 1501, 10000 x 301 and
# 10000 x 1001 sweeps.  The preset records 1.5 * 10**6.
MAX_MC_VALUES = 5 * 10 ** 7

_TOP_KEYS = {
    "schema_version", "instance", "mode", "k", "y0", "input", "init",
    "integrator", "t_end", "sample_every", "seed", "mc",
}


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field."""


@dataclass
class McSpec:
    """Monte Carlo controls: run count, which observer space is sampled, and
    the convergence threshold on the final error angle."""

    runs: int = 1000
    space: str = "projected"
    threshold: float = CONVERGENCE_THRESHOLD


@dataclass
class InitState:
    """Initial condition in one of the accepted forms: an explicit rotation,
    an axis-angle rotation, an output direction, or a plain angle (circle)."""

    kind: str  # "rotation" | "direction" | "angle"
    value: np.ndarray | float


@dataclass
class Scenario:
    instance: str
    mode: str
    k: float
    y0: np.ndarray | float
    input: InputSignal
    plant: InitState
    observer: InitState
    integrator: IntegratorSpec
    t_end: float
    sample_every: int
    seed: int
    mc: McSpec | None = None

    @property
    def y0_vec(self) -> np.ndarray:
        """The reference direction; an so2-s1 angle y0 is the equator point
        (cos y0, sin y0, 0)."""
        if self.instance == "so2-s1":
            return np.array([np.cos(self.y0), np.sin(self.y0), 0.0])
        return self.y0

    def body_rates(self, t, at=None) -> np.ndarray:
        """The input at times t, segments held at ``at`` (see
        InputSignal.eval), as body rates; an so2-s1 angular rate w is the
        body rate (0, 0, w) about the z axis."""
        u = self.input.eval(t, at)
        if self.instance == "so3-s2":
            return u
        return np.concatenate((np.zeros(u.shape[:-1] + (2,)), u), axis=-1)

    @property
    def y0_angle(self) -> float:
        return float(self.y0)

    def initial_sphere_pair(self):
        """The (2, 3) pair stack [y(0), yhat(0)] on the sphere for
        projected-space runs."""
        return np.stack((_sphere_point(self.plant, self.y0_vec),
                         _sphere_point(self.observer, self.y0_vec)))

    def initial_group_pair(self):
        """The (2, 3, 3) pair stack [X(0), Xhat(0)] on the group for lifted
        runs.  Direction-form initial conditions are lifted through the
        minimal-rotation section."""
        return np.stack((_rotation(self.plant, self.y0_vec),
                         _rotation(self.observer, self.y0_vec)))

    def initial_angle_pair(self):
        return float(self.plant.value), float(self.observer.value)


def _sphere_point(init: InitState, y0v: np.ndarray) -> np.ndarray:
    if init.kind == "direction":
        return np.array(init.value, dtype=float)
    return act(_rotation(init, y0v), y0v)


def _rotation(init: InitState, y0v: np.ndarray) -> np.ndarray:
    if init.kind == "direction":
        return section(init.value, y0v)
    if init.kind == "angle":  # its output is the equator point at angle y0 - phi
        return group_exp(np.array([0.0, 0.0, init.value]))
    return np.array(init.value, dtype=float)


# --- parsing ----------------------------------------------------------------

# Each input kind's fields after "kind", in echo order, for both parse and echo.
_INPUT_FIELDS = {
    "constant": ("amplitude",),
    "sinusoid": ("amplitude", "frequency", "phase"),
    "piecewise-constant": ("times", "values"),
    "sum": ("terms",),
}


def _require(cond: bool, message: str):
    if not cond:
        raise ScenarioError(message)


def _check_keys(d: dict, allowed, path: str):
    unknown = set(d).difference(allowed)
    if unknown:
        name = sorted(unknown)[0]
        where = f"{path}.{name}" if path else name
        raise ScenarioError(f"unknown key {where!r}")


def _object(value, path: str, allowed) -> dict:
    """value, which must be an object with no keys outside allowed."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{path} must be an object")
    _check_keys(value, allowed, path)
    return value


def _in_int_range(x) -> bool:
    """False for a JSON integer outside every 64-bit type."""
    return not isinstance(x, int) or -2 ** 63 <= x < 2 ** 64


def _number(d: dict, key: str, default, path: str = "", positive=False, integer=False):
    label = f"{path}.{key}" if path else key
    if key not in d:
        if default is None:
            raise ScenarioError(f"missing required field {label!r}")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{label} must be a number")
    if integer and isinstance(v, float) and v.is_integer():
        v = int(v)  # range-checked as the integer it stands for
    if not _in_int_range(v):
        raise ScenarioError(f"{label} is out of the 64-bit integer range")
    if not np.isfinite(v):
        raise ScenarioError(f"{label} must be finite")
    if integer and int(v) != v:
        raise ScenarioError(f"{label} must be an integer")
    if positive and v <= 0:
        raise ScenarioError(f"{label} must be positive")
    return int(v) if integer else float(v)


def _vector(value, length: int, label: str) -> np.ndarray:
    if (not isinstance(value, (list, tuple)) or len(value) != length
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)):
        raise ScenarioError(f"{label} must be a list of {length} numbers")
    if not all(map(_in_int_range, value)):
        raise ScenarioError(f"{label} is out of the 64-bit integer range")
    v = np.array(value, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ScenarioError(f"{label} must be finite")
    return v


def _parse_input(spec, dim: int, path: str, t_last: float) -> InputSignal:
    """The input signal; t_last is the latest time a step samples it."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{path} must be an object")
    kind = spec.get("kind")
    _require(kind in InputSignal.KINDS, f"{path}.kind must be one of {list(InputSignal.KINDS)}")
    _check_keys(spec, ("kind",) + _INPUT_FIELDS[kind], path)
    try:
        if kind == "constant":
            return InputSignal.constant(_vector(spec.get("amplitude"), dim, f"{path}.amplitude"))
        if kind == "sinusoid":
            amplitude = _vector(spec.get("amplitude"), dim, f"{path}.amplitude")
            frequency = _number(spec, "frequency", None, path)
            phase = _number(spec, "phase", 0.0, path)
            sig = InputSignal.sinusoid(amplitude, frequency, phase)
            # eval forms this argument, which grows with t; its sine of inf is NaN.
            _require(np.isfinite(2.0 * np.pi * frequency * t_last + phase),
                     f"{path}.frequency: 2 pi frequency t + phase overflows within t_end")
            return sig
        if kind == "piecewise-constant":
            times = spec.get("times")
            values = spec.get("values")
            if not isinstance(times, (list, tuple)):
                raise ScenarioError(f"{path}.times must be a list of numbers")
            if not isinstance(values, (list, tuple)) or len(values) != len(times) + 1:
                raise ScenarioError(f"{path}.values must hold len({path}.times) + 1 segment values")
            rows = [_vector(v, dim, f"{path}.values[{i}]") for i, v in enumerate(values)]
            return InputSignal.piecewise(_vector(times, len(times), f"{path}.times"), np.array(rows))
        terms = spec.get("terms")
        if not isinstance(terms, (list, tuple)) or not terms:
            raise ScenarioError(f"{path}.terms must be a non-empty list")
        return InputSignal.sum_of(
            *[_parse_input(t, dim, f"{path}.terms[{i}]", t_last) for i, t in enumerate(terms)]
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        # The signal's messages start with the name of the parameter at fault.
        raise ScenarioError(f"{path}.{exc}") from exc


def _finite_rotation(omega, path: str) -> np.ndarray:
    """group_exp(omega), rejected with the field named where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        R = group_exp(omega)
    if not np.all(np.isfinite(R)):
        raise ScenarioError(f"{path} does not give a finite rotation")
    return R


def _parse_init(spec, instance: str, path: str, y0, lifts: bool) -> InitState:
    """An initial state; where the run lifts it, a direction antipodal to y0
    is refused."""
    if spec == "identity":
        spec = {"angle": 0.0} if instance == "so2-s1" else {"rotation": np.eye(3).tolist()}
    if not isinstance(spec, dict):
        raise ScenarioError(f'{path} must be "identity" or an object')
    if instance == "so2-s1":
        _check_keys(spec, ("angle",), path)
        angle = _number(spec, "angle", None, path)
        _finite_rotation([0.0, 0.0, angle], f"{path}.angle")
        return InitState("angle", angle)
    _check_keys(spec, ("rotation", "direction", "axis_angle"), path)
    forms = [k for k in ("rotation", "direction", "axis_angle") if k in spec]
    if len(forms) != 1:
        raise ScenarioError(f"{path} needs exactly one of rotation/direction/axis_angle")
    form = forms[0]
    if form == "rotation":
        rows = spec["rotation"]
        if not isinstance(rows, (list, tuple)) or len(rows) != 3:
            raise ScenarioError(f"{path}.rotation must be a 3x3 matrix")
        R = np.array([_vector(r, 3, f"{path}.rotation[{i}]") for i, r in enumerate(rows)])
        # A rotation's entries are at most 1 in magnitude; checked first, since
        # huge entries overflow X^T X in drift.
        too_large = np.abs(R).max() > 1.0 + 1e-9
        if too_large or drift(R) > 1e-9 or float(cross(R[0], R[1]) @ R[2]) < 0.0:  # det < 0
            raise ScenarioError(f"{path}.rotation is not special-orthogonal")
        return InitState("rotation", R)
    if form == "axis_angle":
        return InitState("rotation", _finite_rotation(
            _vector(spec["axis_angle"], 3, f"{path}.axis_angle"), f"{path}.axis_angle"))
    d = _vector(spec["direction"], 3, f"{path}.direction")
    if abs(math.hypot(*d) - 1.0) > 1e-9:  # hypot does not overflow on huge entries
        raise ScenarioError(f"{path}.direction not unit norm")
    if lifts:
        try:
            section(d, y0)
        except AntipodalError as exc:
            raise ScenarioError(
                f"{path}.direction: cannot lift an antipodal direction ({exc})") from exc
    return InitState("direction", d)


def scenario_from_dict(d: dict) -> Scenario:
    """Read a document in one pass, in the order schema_version, instance,
    mode, k, y0, integrator, t_end, sample_every, seed, mc, input, init; each
    check runs where its field is read, so the first fault is reported."""
    if not isinstance(d, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _check_keys(d, _TOP_KEYS, "")
    version = _number(d, "schema_version", SCHEMA_VERSION, integer=True)
    _require(version == SCHEMA_VERSION, f"schema_version must be {SCHEMA_VERSION}")

    instance = d.get("instance")
    _require(instance in INSTANCES, f"instance must be one of {list(INSTANCES)}")
    mode = d.get("mode", "projected")
    _require(mode in MODES, f"mode must be one of {list(MODES)}")
    _require(not (instance == "so2-s1" and mode == "monte-carlo"),
             "mode monte-carlo is only available for instance so3-s2")
    k = _number(d, "k", 1.0, positive=True)
    if instance == "so3-s2":
        y0 = _vector(d.get("y0", [0.0, 0.0, 1.0]), 3, "y0")
        if abs(math.hypot(*y0) - 1.0) > 1e-9:
            raise ScenarioError("y0 not unit norm")
        dim = 3
    else:
        y0 = circle.wrap(_number(d, "y0", 0.0))
        dim = 1

    integ = _object(d.get("integrator", {}), "integrator", ("method", "h"))
    method = integ.get("method", "rk4-project")
    h = _number(integ, "h", 1e-3, "integrator", positive=True)
    try:
        spec = IntegratorSpec(method=method, h=h)
    except ValueError as exc:
        raise ScenarioError(f"integrator.{exc}") from exc
    t_end = _number(d, "t_end", 10.0, positive=True)
    _require(t_end >= spec.h, "t_end must be at least one integrator step")
    _require(t_end / spec.h <= MAX_STEPS, f"t_end must span at most {MAX_STEPS} steps of integrator.h")
    steps = _n_steps(t_end, spec.h)
    _require(abs(t_end / spec.h - steps) <= 1e-9, "t_end must be a whole number of integrator.h steps")
    sample_every = _number(d, "sample_every", 10, integer=True, positive=True)
    samples = _n_records(steps, sample_every)
    seed = _number(d, "seed", 0, integer=True)
    _require(0 <= seed < 2 ** 64, "seed must fit in an unsigned 64-bit integer")

    mc = None
    if "mc" in d or mode == "monte-carlo":
        _require(mode == "monte-carlo", "mc settings are only valid in monte-carlo mode")
        mspec = _object(d.get("mc", {}), "mc", ("runs", "space", "threshold"))
        space = mspec.get("space", McSpec.space)
        _require(space in MC_SPACES, f"mc.space must be one of {list(MC_SPACES)}")
        mc = McSpec(
            runs=_number(mspec, "runs", McSpec.runs, "mc", integer=True, positive=True),
            space=space,
            threshold=_number(mspec, "threshold", McSpec.threshold, "mc", positive=True),
        )
        _require(mc.runs <= MAX_MC_RUNS, f"mc.runs must be at most {MAX_MC_RUNS}")
        _require(mc.runs * samples <= MAX_MC_VALUES, f"mc.runs x samples per run (set by t_end, "
                 f"integrator.h and sample_every) must be at most {MAX_MC_VALUES}")
    _require(samples <= MAX_RUN_SAMPLES, f"t_end must give at most {MAX_RUN_SAMPLES} samples per "
             f"run at the given integrator.h and sample_every")
    # The last RK4 stage samples the input at (steps - 1) h + h, at most t_end + h.
    inp = _parse_input(d.get("input", {"kind": "constant", "amplitude": [0.0] * dim}),
                       dim, "input", t_end + spec.h)
    # Lifted and co-sim runs, lifted sweeps and verify's co-simulation lift
    # both initial states through the section.
    lifts = mode in ("lifted", "co-sim", "verify") or (mc is not None and mc.space == "lifted")
    init = _object(d.get("init", {}), "init", ("plant", "observer"))
    default_obs = ({"axis_angle": [0.5 * np.pi, 0.0, 0.0]} if instance == "so3-s2"
                   else {"angle": 0.5 * np.pi})
    plant = _parse_init(init.get("plant", "identity"), instance, "init.plant", y0, lifts)
    observer = _parse_init(init.get("observer", default_obs), instance, "init.observer", y0, lifts)
    return Scenario(
        instance=instance, mode=mode, k=k, y0=y0, input=inp,
        plant=plant, observer=observer, integrator=spec,
        t_end=t_end, sample_every=sample_every, seed=seed, mc=mc,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(doc)


# --- serialisation ----------------------------------------------------------

def _input_to_dict(sig: InputSignal) -> dict:
    return {"kind": sig.kind, **{
        name: ([_input_to_dict(t) for t in sig.terms] if name == "terms"
               else np.asarray(getattr(sig, name)).tolist())
        for name in _INPUT_FIELDS[sig.kind]}}


def scenario_to_dict(sc: Scenario) -> dict:
    """Canonical fully-resolved echo of a scenario; reparsing it reproduces
    the run bit for bit."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "instance": sc.instance,
        "mode": sc.mode,
        "k": sc.k,
        "y0": np.asarray(sc.y0).tolist(),
        "input": _input_to_dict(sc.input),
        "init": {name: {st.kind: np.asarray(st.value).tolist()}
                 for name, st in (("plant", sc.plant), ("observer", sc.observer))},
        "integrator": {"method": sc.integrator.method, "h": sc.integrator.h},
        "t_end": sc.t_end,
        "sample_every": sc.sample_every,
        "seed": sc.seed,
    }
    if sc.mc is not None:
        out["mc"] = {"runs": sc.mc.runs, "space": sc.mc.space, "threshold": sc.mc.threshold}
    return out


# --- presets ----------------------------------------------------------------

_PRESETS: dict[str, tuple[str, dict]] = {
    "metni-s2": (
        "proportional direction observer on the sphere, sinusoidal velocity",
        {
            "instance": "so3-s2", "mode": "projected", "k": 1.0,
            "input": {"kind": "sinusoid", "amplitude": [1.0, 0.5, 0.8],
                      "frequency": 0.5, "phase": 0.3},
            "init": {"plant": "identity", "observer": {"axis_angle": [2.0, 0.0, 0.0]}},
            "t_end": 10.0,
        },
    ),
    "explicit-complementary": (
        "proportional complementary filter on the rotation group",
        {
            "instance": "so3-s2", "mode": "lifted", "k": 1.0,
            "input": {"kind": "sinusoid", "amplitude": [0.8, 0.6, 1.0],
                      "frequency": 0.4, "phase": 0.0},
            "init": {"plant": "identity", "observer": {"axis_angle": [0.0, 2.2, 0.0]}},
            "t_end": 10.0,
        },
    ),
    "autonomy-demo": (
        "error angle follows the input-free decay law under a wild input",
        {
            "instance": "so3-s2", "mode": "projected", "k": 1.0,
            "input": {"kind": "sum", "terms": [
                {"kind": "sinusoid", "amplitude": [0.9, -0.4, 0.6],
                 "frequency": 0.7, "phase": 1.1},
                {"kind": "piecewise-constant", "times": [2.0, 5.0, 7.5],
                 "values": [[0.2, 0.0, -0.3], [-0.5, 0.4, 0.1],
                            [0.3, -0.2, 0.5], [0.0, 0.1, -0.4]]},
            ]},
            "init": {"plant": "identity", "observer": {"axis_angle": [1.2, 1.2, 0.4]}},
            "t_end": 10.0,
        },
    ),
    "almost-global-sweep": (
        "1000-run Monte Carlo over uniform sphere initialisations",
        {
            "instance": "so3-s2", "mode": "monte-carlo", "k": 1.0,
            "input": {"kind": "sinusoid", "amplitude": [0.6, 0.4, 0.5],
                      "frequency": 0.3, "phase": 0.0},
            "t_end": 15.0, "seed": 7,
            "mc": {"runs": 1000, "space": "projected", "threshold": 1e-3},
        },
    ),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_description(name: str) -> str:
    return _PRESETS[name][0]


def preset(name: str) -> Scenario:
    """A canned, fully specified scenario by name."""
    if name not in _PRESETS:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return scenario_from_dict(json.loads(json.dumps(_PRESETS[name][1], allow_nan=False)))
