"""Experiment configuration: the hand, objects, amplifier, presets.

A configuration is one JSON document with blocks for stacks, tendons,
fingers, objects, amplifier, sim, detection and presets. Stacks and
tendon paths are keyed by the same chain id (e.g. "index_mcp"), which
is how a finger's tendons join up with their actuators.

The document mirrors the dataclasses below field by field, and one
encoder/decoder pair (encode, decode) walks the field types to convert
between them. Every default lives only on its dataclass field: a key
may be left out exactly when its field has a default, except for the
keys whose field metadata marks them required (fingers.*.tendons,
presets.*.profiles). Field metadata may also rename a key ("json").
An entry of fingers, objects or presets is named by its key alone: its
dataclass has no name field. Unknown keys are ignored.

Field metadata also declares each field's domain next to its default:
"gt", "ge", "lt", "le" bounds and "in" choices. Each dataclass checks
them when it is built (errors.check_domains), from a document or in
code; decode prefixes a block's errors with the block's key path.

HandConfig checks the rules between blocks: names that key trace
columns, references (a preset's in check_references) and preset
durations. A Scenario checks itself however it is built, by
resolve_preset or dataclasses.replace: the rig's limits per chain
(target <= amplifier ceiling and v_max, each stack driven once), its
duration, episode and monitored stack. A config is not mutated after
construction: a changed one is built with dataclasses.replace, so
HandConfig.fingerprint, its config_hash, is computed once per object.

The shipped defaults are calibration values: the two quoted points of
the 2-stack force curve are the only numbers treated as ground truth,
everything else (extensor rates, friction split, contact angles) is
tuned so the simulated bench reproduces the characterization targets.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from .actuator import StackConfig
from .errors import ConfigError, check_domains
from .kinematics import FingerLayout, JointSpec, ObjectModel
from .trace import json_text, read_json, write_atomic
from .transmission import TendonPath, excursion_of

FINGER_NAMES = ("thumb", "index", "middle", "ring", "pinky")

# Effective rolling radii from the full-flexion excursions:
# 17 mm -> 90 deg at the MCP, 12 mm shared by the coupled PIP/DIP pair.
R_MCP = 34.0 / math.pi
R_PIP = 12.0 / math.pi
R_DIP = 12.0 / math.pi
R_THUMB_IP = 24.0 / math.pi

HALF_PI = math.pi / 2

# Per-stack force knots (contraction mm, force N) at 5.5 kV. The
# 2-stack points are the measured anchors; 1- and 3-stack tables scale
# them per parallel unit.
STACK_KNOTS = {
    1: ((0.0, 12.65), (6.0, 1.0)),
    2: ((0.0, 25.3), (6.0, 2.0)),
    3: ((0.0, 37.95), (6.0, 3.0)),
}


V_CEILING_DOMAIN = {"ge": 0.0, "le": 6.0}  # kV: the amplifier's output range
CONTROLLERS = {"in": ("none", "detect", "contact_aware")}

# Internal steps one episode may ask of each chain: 50 times the shipped
# 2 s at 10 kHz. Run time and the mechanics record grow with it, so a
# mistyped dt_internal or duration is a config error, not an hours-long run.
MAX_INTERNAL_STEPS = 10 ** 6


@dataclass(frozen=True)
class AmplifierModel:
    """High-voltage amplifier with slew limit, ceiling and noisy monitors."""

    v_ceiling: float = field(default=5.5, metadata=V_CEILING_DOMAIN)  # 6.0 for contact-aware
    slew_max: float = field(default=100.0, metadata={"gt": 0.0})     # kV/s
    monitor_noise_v: float = field(default=0.005, metadata={"ge": 0.0})  # kV std dev
    monitor_noise_i: float = field(default=0.05, metadata={"ge": 0.0})   # uA std dev
    __post_init__ = check_domains


@dataclass(frozen=True)
class SimConfig:
    dt_internal: float = field(default=1e-4, metadata={"gt": 0.0})  # integration step, s
    dt_sample: float = field(default=1e-3, metadata={"gt": 0.0})    # monitor period, s (1 kHz)
    tau_mech: float = field(default=0.08, metadata={"gt": 0.0})     # mechanical relaxation, s
    duration: float = field(default=2.0, metadata={"ge": 0.0})      # default episode length, s

    def __post_init__(self):
        check_domains(self)
        if self.dt_internal > self.dt_sample:
            raise ConfigError("dt_internal must be <= dt_sample")
        ratio = self.dt_sample / self.dt_internal
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("dt_sample must be an integer multiple of dt_internal")
        # Each internal step moves x by the fraction dt_internal / tau_mech
        # of its gap to the stall target; past 1 it would overshoot.
        if self.tau_mech < self.dt_internal:
            raise ConfigError(f"tau_mech {self.tau_mech} s must be >= "
                              f"dt_internal {self.dt_internal} s")
        self.check_duration(self.duration)

    def check_duration(self, duration: float, where: str = "duration") -> None:
        """The rule for every episode length (s): whole sample periods,
        within the step budget. where names the length in the message."""
        n = duration / self.dt_sample
        if abs(n - round(n)) > 1e-9:
            raise ConfigError(f"{where} {duration} s is not a multiple of "
                              f"dt_sample {self.dt_sample} s")
        if duration / self.dt_internal > MAX_INTERNAL_STEPS:
            raise ConfigError(f"{where} {duration} s asks for more than {MAX_INTERNAL_STEPS} "
                              f"internal steps of {self.dt_internal} s per chain")

    @property
    def steps_per_sample(self) -> int:
        return round(self.dt_sample / self.dt_internal)


@dataclass(frozen=True)
class DetectionConfig:
    """Current-threshold grasp detection parameters."""

    monitored_stack: str = "index_mcp"
    i_threshold: Optional[float] = field(default=None, metadata={"gt": 0.0})  # uA; calibrated
    window: tuple[float, float] = (0.88, 0.99)  # evaluation window, s
    smoothing: int = field(default=5, metadata={"ge": 1})   # moving-average length, samples
    debounce: int = field(default=10, metadata={"ge": 1})   # consecutive sub-threshold samples
    # contact-aware: multiples of baseline residual std; floor (uA) of the deviation threshold
    deviation_mult: float = field(default=3.0, metadata={"gt": 0.0})
    deviation_floor: float = field(default=0.05, metadata={"ge": 0.0})
    baseline_seed: int = field(default=10000019, metadata={"ge": 0})  # seeds auto-recorded baselines

    def __post_init__(self):
        check_domains(self)
        lo, hi = self.window
        if not 0 <= lo < hi:
            raise ConfigError("window must satisfy 0 <= start < end")


@dataclass(frozen=True)
class ProfileSpec:
    """Declarative voltage profile: hold | ramp_hold."""

    kind: str = field(default="ramp_hold", metadata={"in": ("hold", "ramp_hold")})
    target_kv: float = field(default=5.5, metadata={"ge": 0.0})
    ramp_s: float = 1.0

    def __post_init__(self):
        check_domains(self)
        if self.kind != "hold" and self.ramp_s <= 0:
            raise ConfigError("ramp duration must be > 0")

    def doc(self) -> dict[str, Any]:
        """The schedule's canonical document: the fields its kind reads."""
        return {k: v for k, v in encode(self).items() if k != "ramp_s" or self.kind == "ramp_hold"}

    @functools.cached_property
    def identity(self) -> tuple[str, bytes]:
        """doc() by bit pattern, so -0.0 is not 0.0; computed once per object."""
        kind, *numbers = self.doc().values()
        return kind, np.array(numbers).tobytes()

    def __call__(self, t):
        """Commanded voltage (kV) at time t (s): a float for a float, an
        array for an array of times."""
        if self.kind == "hold":
            v = np.full(np.shape(t), self.target_kv)
        else:
            v = self.target_kv * np.minimum(t, self.ramp_s) / self.ramp_s
        return v if np.ndim(v) else float(v)


@dataclass(frozen=True)
class ScenarioPreset:
    fingers: tuple[str, ...]
    obj: Optional[str] = field(default=None, metadata={"json": "object"})
    profiles: dict[str, ProfileSpec] = field(
        default_factory=lambda: {"*": ProfileSpec()}, metadata={"required": True})
    duration: Optional[float] = field(default=None, metadata={"ge": 0.0})  # else sim.duration
    controller: str = field(default="none", metadata=CONTROLLERS)
    amp_ceiling: Optional[float] = field(default=None, metadata=V_CEILING_DOMAIN)  # overrides

    def __post_init__(self):
        check_domains(self)
        if not self.fingers:
            raise ConfigError("needs at least one finger")
        if "*" not in self.profiles:
            raise ConfigError("profiles needs a '*' default entry")


def joint_key(finger: str, joint: str) -> str:
    """The trace key "<finger>_<joint>" of a joint's theta and contact-force columns."""
    return f"{finger}_{joint}"


@dataclass(frozen=True)
class HandConfig:
    """The whole experiment configuration document; not mutated once built."""

    stacks: dict[str, StackConfig]
    tendons: dict[str, TendonPath]
    fingers: dict[str, FingerLayout]
    objects: dict[str, ObjectModel]
    presets: dict[str, ScenarioPreset]
    amplifier: AmplifierModel = field(default_factory=AmplifierModel)
    sim: SimConfig = field(default_factory=SimConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    def __post_init__(self):
        """Cross-references between blocks; each error names its key path."""
        # Stack ids and finger and joint names key trace columns, whose header is
        # one comma-separated line, and two joints with one key would share columns.
        def plain(where: str, name: str) -> None:
            if {",", "\r", "\n"} & set(name):
                raise ConfigError(f"{where}: {name!r} names trace columns, "
                                  f"so it may not contain a comma, CR or LF")
        for tid in self.stacks:
            plain(f"stacks.{tid}", tid)
        keyed: dict[str, str] = {}
        for fname, layout in self.fingers.items():
            plain(f"fingers.{fname}", fname)
            for i, joint in enumerate(layout.joints):
                where, key = f"fingers.{fname}.joints[{i}].name", joint_key(fname, joint.name)
                plain(where, joint.name)
                if key in keyed:
                    raise ConfigError(f"{where}: trace key {key!r} is already "
                                      f"the key of {keyed[key]}")
                keyed[key] = where
            for tid in layout.tendon_ids:
                if tid not in self.stacks:
                    raise ConfigError(f"fingers.{fname}.tendons: unknown stack {tid!r}")
                if tid not in self.tendons:
                    raise ConfigError(f"fingers.{fname}.tendons: unknown tendon path {tid!r}")
        for tid, path in self.tendons.items():  # the slack must leave some tendon stroke
            stroke = path.pulley_ratio * self.stacks[tid].x_free if tid in self.stacks else None
            if stroke is not None and path.slack >= stroke:
                raise ConfigError(f"tendons.{tid}.slack: {path.slack} mm must be < pulley_ratio "
                                  f"* stacks.{tid}.x_free = {stroke} mm")
        for oname, obj in self.objects.items():
            for fname, angles in obj.theta_contact.items():
                where = f"objects.{oname}.theta_contact.{fname}"
                if fname not in self.fingers:
                    raise ConfigError(f"{where}: unknown finger {fname!r}")
                limits = {j.name: j.theta_max for j in self.fingers[fname].joints}
                for jname, theta in angles.items():
                    if jname not in limits:
                        raise ConfigError(f"{where}.{jname}: finger {fname} has no joint {jname!r}")
                    if not 0.0 <= theta <= limits[jname]:
                        raise ConfigError(f"{where}.{jname}: contact angle {theta} rad "
                                          f"outside [0, theta_max={limits[jname]}]")
        if self.detection.monitored_stack not in self.stacks:
            raise ConfigError(
                f"detection.monitored_stack: {self.detection.monitored_stack!r} is not a stack"
            )
        for pname, preset in self.presets.items():
            self.check_references(preset, f"presets.{pname}.")
            if preset.duration is not None:
                self.sim.check_duration(preset.duration, f"presets.{pname}.duration")

    @functools.cached_property
    def fingerprint(self) -> str:
        return config_hash(self)

    def check_references(self, preset: ScenarioPreset, where: str) -> None:
        """Refuse a preset naming a finger or object this config lacks, or
        profiling a stack it does not drive; where prefixes each message."""
        for fname in preset.fingers:
            if fname not in self.fingers:
                raise ConfigError(f"{where}fingers: unknown finger {fname!r}")
        driven = {tid for fname in preset.fingers for tid in self.fingers[fname].tendon_ids}
        for tid in preset.profiles:
            if tid != "*" and tid not in driven:
                raise ConfigError(f"{where}profiles.{tid}: the preset drives no stack "
                                  f"{tid!r} (it drives {', '.join(sorted(driven))})")
        if preset.obj is not None and preset.obj not in self.objects:
            raise ConfigError(f"{where}object: unknown object {preset.obj!r}")


# ---------------------------------------------------------------------------
# Shipped defaults
# ---------------------------------------------------------------------------

def _stack(n_units: int) -> StackConfig:
    return StackConfig(
        force_knots=STACK_KNOTS[n_units],
        v_ref=5.5,
        c0=0.2 * n_units,
        c_slope=0.05 * n_units,
    )


def default_config() -> HandConfig:
    stacks: dict[str, StackConfig] = {}
    tendons: dict[str, TendonPath] = {}
    fingers: dict[str, FingerLayout] = {}

    # Thumb: two active joints (MCP, IP), CMC abduction fixed.
    fingers["thumb"] = FingerLayout(
        joints=(
            JointSpec("mcp", R_MCP, HALF_PI, 32.0),
            JointSpec("ip", R_THUMB_IP, HALF_PI, 25.0),
        ),
        coupled_pair=None,
        tendon_ids=("thumb_mcp", "thumb_ip"),
    )
    stacks["thumb_mcp"] = _stack(2)
    stacks["thumb_ip"] = _stack(2)
    tendons["thumb_mcp"] = TendonPath(k_ext=0.05, f_ext0=4.764)
    tendons["thumb_ip"] = TendonPath(k_ext=0.249, f_ext0=3.0)

    # Long fingers: independent MCP tendon, coupled PIP/DIP tendon.
    for name in ("index", "middle", "ring", "pinky"):
        fingers[name] = FingerLayout(
            joints=(
                JointSpec("mcp", R_MCP, HALF_PI, 45.0),
                JointSpec("pip", R_PIP, HALF_PI, 28.0),
                JointSpec("dip", R_DIP, HALF_PI, 22.0),
            ),
            coupled_pair=(1, 2),
            tendon_ids=(f"{name}_mcp", f"{name}_pip_dip"),
        )
        stacks[f"{name}_mcp"] = _stack(3)
        stacks[f"{name}_pip_dip"] = _stack(2)
        tendons[f"{name}_mcp"] = TendonPath(k_ext=0.02, f_ext0=4.96)
        tendons[f"{name}_pip_dip"] = TendonPath(k_ext=0.249, f_ext0=3.0)

    def _contacts(thumb_mcp, thumb_ip, mcp, pip, dip, engaged=FINGER_NAMES):
        out = {"thumb": {"mcp": thumb_mcp, "ip": thumb_ip}}
        for f in engaged:
            if f != "thumb":
                out[f] = {"mcp": mcp, "pip": pip, "dip": dip}
        return out

    # The paper's masses, unsimulated: cube 49 g, mushroom 18, toy 107, bottle 26, balloon 2.
    objects = {
        "cube": ObjectModel("rigid", 1e4, _contacts(0.10, 0.15, 0.18, 0.18, 0.18)),
        "mushroom": ObjectModel("rigid", 1e4, _contacts(0.10, 0.18, 0.30, 0.30, 0.30)),
        "stuffed_toy": ObjectModel(
            "compliant", 60.0, _contacts(0.10, 0.15, 0.25, 0.25, 0.25)),
        "pet_bottle": ObjectModel(
            "compliant", 300.0, _contacts(0.10, 0.18, 0.22, 0.22, 0.22)),
        "paper_balloon": ObjectModel(
            "fragile", 150.0, _contacts(0.10, 0.15, 0.15, 0.15, 0.15),
            f_crush=0.5),
    }

    # Presets without profiles run the default ProfileSpec, the 5.5 kV ramp.
    presets = {
        "free_motion": ScenarioPreset(("thumb", "index")),
        "pinch_mushroom": ScenarioPreset(("thumb", "index"), "mushroom"),
        "pinch_cube": ScenarioPreset(("thumb", "index"), "cube"),
        "tripod_toy": ScenarioPreset(("thumb", "index", "middle"), "stuffed_toy"),
        "power_grasp_bottle": ScenarioPreset(FINGER_NAMES, "pet_bottle"),
        "detect_free": ScenarioPreset(
            ("thumb", "index"), controller="detect"),
        "detect_cube": ScenarioPreset(
            ("thumb", "index"), "cube", controller="detect"),
        "balloon_hold": ScenarioPreset(
            ("thumb", "index"), "paper_balloon",
            {"*": ProfileSpec(target_kv=6.0, ramp_s=1.2)},
            controller="contact_aware", amp_ceiling=6.0),
    }

    return HandConfig(
        stacks=stacks,
        tendons=tendons,
        fingers=fingers,
        objects=objects,
        presets=presets,
    )


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _path(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


@functools.cache
def _schema(cls) -> tuple[tuple[str, str, Any, bool], ...]:
    """(field name, JSON key, resolved type, required) per field of dataclass cls."""
    types = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("json", f.name), types[f.name],
         f.metadata.get("required", f.default is MISSING and f.default_factory is MISSING))
        for f in fields(cls)
    )


def encode(value: Any) -> Any:
    """JSON document of a dataclass value: objects for dataclasses and
    dicts, arrays for tuples."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return {key: encode(getattr(value, name))
            for name, key, _, _ in _schema(type(value))}


def _object(doc: Any, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config'}: expected a JSON object, "
                          f"got {type(doc).__name__}")
    return doc


def decode(cls, doc: Any, where: str = ""):
    """Build dataclass cls from a JSON object, the inverse of encode.

    Absent keys take the field default; a field without one, or marked
    required in its metadata, must be present. where is the key path used
    in error messages: it prefixes the errors of cls's own checks, joined
    to a domain error's key by ".".
    """
    doc = _object(doc, where)
    kwargs = {}
    for fname, key, tp, required in _schema(cls):
        if key in doc:
            kwargs[fname] = _decode_value(tp, doc[key], _path(where, key))
        elif required:
            raise ConfigError(f"{where or 'config'}: missing required key {key!r}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if not where:
            raise
        raise ConfigError(f"{where}{'.' if exc.key else ': '}{exc}") from None


def _decode_value(tp, value: Any, where: str) -> Any:
    # A JSON number only: bool is an int subclass in Python but not a
    # number here, an int field takes no fraction and a float field no
    # NaN or infinity (every range check in the model is false for NaN).
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if tp is float:
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number; an int beyond float range
            finite = False
        if not finite:
            raise ConfigError(f"{where}: expected a finite number, got {value!r}")
        return float(value)
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if is_dataclass(tp):
        return decode(tp, value, where)
    origin = typing.get_origin(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
        return _decode_value(tp, value, where)
    if origin is dict:
        item = typing.get_args(tp)[1]
        return {k: _decode_value(item, v, _path(where, k))
                for k, v in _object(value, where).items()}
    # The remaining annotations are tuples.
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a JSON array, got {type(value).__name__}")
    items = typing.get_args(tp)
    if items[-1] is Ellipsis:
        items = items[:1] * len(value)
    elif len(items) != len(value):
        raise ConfigError(f"{where}: expected {len(items)} items, got {len(value)}")
    return tuple(_decode_value(t, v, f"{where}[{i}]")
                 for i, (t, v) in enumerate(zip(items, value)))


def config_to_dict(cfg: HandConfig) -> dict[str, Any]:
    return encode(cfg)


def config_from_dict(doc: Any) -> HandConfig:
    return decode(HandConfig, doc)


def load_config(path) -> HandConfig:
    return config_from_dict(read_json(path))


def save_config(cfg: HandConfig, path) -> None:
    write_atomic(Path(path), json_text(config_to_dict(cfg)))


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: HandConfig) -> str:
    """Stable 16-hex-digit fingerprint of the whole configuration."""
    return hashlib.sha256(canonical_json(config_to_dict(cfg)).encode()).hexdigest()[:16]


def profile_hash(schedule: ProfileSpec, duration: float, dt_sample: float) -> str:
    """Fingerprint of the monitored chain's schedule, duration and dt_sample."""
    doc = {"profiles": {"*": schedule.doc()}, "duration": duration, "dt_sample": dt_sample}
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Scenario resolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    """One actuator chain: stack -> pulley/tendon -> joint group.

    The chain geometry lives here only: theta_at maps stack contraction
    to the driven joints' common angle, x_at inverts it (stroke cap,
    contact onsets), and contact_table says where an object meets the
    group. The plant's load table, the trace's theta/f_contact columns
    and the controller's force bound are all built from these.
    """

    tendon_id: str
    finger: str
    layout: FingerLayout
    joint_group: tuple[int, ...]
    stack: StackConfig
    path: TendonPath
    profile: ProfileSpec

    @property
    def radius(self) -> float:
        """Rolling radius (mm) of the group: the sum over a coupled pair."""
        return self.layout.group_radius(self.joint_group)

    @property
    def joint_keys(self) -> tuple[str, ...]:
        """The trace key "<finger>_<joint>" of each driven joint, in group order."""
        return tuple(joint_key(self.finger, self.layout.joints[j].name) for j in self.joint_group)

    @property
    def theta_cap(self) -> float:
        """Flexion limit (rad) of the group: its lowest joint limit."""
        return min(self.layout.joints[j].theta_max for j in self.joint_group)

    def theta_at(self, x):
        """Common angle (rad) of the driven joints at stack contraction x (mm).

        x may be a float or an array; the result is a numpy value either way.
        """
        return np.minimum(excursion_of(self.path, x) / self.radius, self.theta_cap)

    def x_at(self, theta: float) -> float:
        """Contraction (mm) at which the joints reach theta: theta_at's inverse
        for 0 <= theta <= theta_cap."""
        return (theta * self.radius + self.path.slack) / self.path.pulley_ratio

    @property
    def x_cap(self) -> float:
        """Stroke limit (mm): the free stroke, or the joint hard stop if nearer."""
        return min(self.stack.x_free, self.x_at(self.theta_cap))

    def contact_table(self, obj: Optional[ObjectModel]) -> dict[int, tuple[float, ...]]:
        """joint -> (onset contraction, onset angle, k_obj, phalanx length)
        for each driven joint the object meets inside the stroke. The onset
        angle is theta_at(onset), which can differ from the object's contact
        angle in the last bits; every user of the table sees the same one."""
        if obj is None:
            return {}
        table, x_cap = {}, self.x_cap
        for j in self.joint_group:
            joint = self.layout.joints[j]
            theta_c = obj.contact_angle(self.finger, joint.name)
            x_on = self.x_at(theta_c) if theta_c is not None else math.inf
            if x_on < x_cap:
                table[j] = (x_on, float(self.theta_at(x_on)), obj.k_obj, joint.phalanx_len)
        return table


@dataclass(frozen=True)
class Scenario:
    """A fully resolved, runnable scenario, stepped and sampled under its sim."""

    name: str
    chains: tuple[ChainSpec, ...]
    obj: Optional[ObjectModel]
    obj_name: Optional[str]  # obj's key in the config's objects; None exactly when obj is
    amplifier: AmplifierModel
    sim: SimConfig
    duration: float = field(metadata={"ge": 0.0})
    episode: float = field(metadata={"ge": 0.0})  # the full episode, which the profile hash covers
    controller: str = field(metadata=CONTROLLERS)
    monitored_stack: str    # detection stack if the chains drive it, else the first chain
    config_fingerprint: str  # config_hash of the config that resolved the scenario

    def __post_init__(self):
        # The rig's limits per chain: amplifier ceiling, each stack driven once, v_max.
        for i, chain in enumerate(self.chains):
            tid, target = chain.tendon_id, chain.profile.target_kv
            if target > self.amplifier.v_ceiling:
                raise ConfigError(f"preset {self.name}: profile target {target} kV "
                                  f"exceeds amplifier ceiling {self.amplifier.v_ceiling} kV")
            if any(c.tendon_id == tid for c in self.chains[:i]):
                raise ConfigError(f"preset {self.name}: stack {tid!r} is driven twice")
            if target > chain.stack.v_max:
                raise ConfigError(f"preset {self.name}: profile target {target} kV "
                                  f"exceeds stack {tid} v_max {chain.stack.v_max} kV")
        try:
            check_domains(self)
        except ConfigError as exc:
            raise ConfigError(f"preset {self.name}: {exc}", exc.key) from None
        self.sim.check_duration(self.duration, f"preset {self.name}: duration")
        if self.duration > self.episode:
            raise ConfigError(f"preset {self.name}: duration {self.duration} s "
                              f"exceeds its episode {self.episode} s")
        if (self.obj is None) != (self.obj_name is None):
            raise ConfigError(f"preset {self.name}: obj and obj_name must both be set or both None")
        if all(c.tendon_id != self.monitored_stack for c in self.chains):
            raise ConfigError(f"preset {self.name}: no chain drives monitored_stack "
                              f"{self.monitored_stack!r}")

    @functools.cached_property
    def profile_fingerprint(self) -> str:
        """profile_hash of the monitored chain's schedule, episode and dt_sample."""
        schedule = next(c.profile for c in self.chains if c.tendon_id == self.monitored_stack)
        return profile_hash(schedule, self.episode, self.sim.dt_sample)

    def monitored(self) -> Scenario:
        """This scenario with its monitored chain alone. Each chain moves on
        its own, so that chain's columns and the monitored current are the
        full scenario's. The name and both fingerprints stay: the profile
        fingerprint covers the monitored chain's schedule and the full
        episode only, so a replace() of the duration keeps it too, and a
        shortened run carries the full episode's."""
        return replace(self, chains=tuple(c for c in self.chains
                                          if c.tendon_id == self.monitored_stack))


def resolve_scenario(
    cfg: HandConfig,
    preset_name: str,
    *,
    drop_object: bool = False,
    controller: Optional[str] = None,
) -> Scenario:
    """Turn a named preset into a runnable scenario, checked before any simulation."""
    if preset_name not in cfg.presets:
        raise ConfigError(
            f"unknown preset {preset_name!r}; available: {', '.join(sorted(cfg.presets))}"
        )
    return resolve_preset(cfg, preset_name, cfg.presets[preset_name],
                          drop_object=drop_object, controller=controller)


def resolve_preset(
    cfg: HandConfig,
    preset_name: str,
    preset: ScenarioPreset,
    *,
    drop_object: bool = False,
    controller: Optional[str] = None,
) -> Scenario:
    """Resolve a preset, named preset_name, against cfg: one chain per
    tendon of its fingers. Any preset is accepted: its references are
    checked here, and the Scenario checks its chains and duration."""
    cfg.check_references(preset, f"preset {preset_name}: ")
    obj_name = None if drop_object else preset.obj
    ceiling = preset.amp_ceiling if preset.amp_ceiling is not None else cfg.amplifier.v_ceiling
    chains = tuple(
        ChainSpec(tid, fname, layout, group, cfg.stacks[tid], cfg.tendons[tid],
                  preset.profiles.get(tid, preset.profiles["*"]))
        for fname in preset.fingers for layout in [cfg.fingers[fname]]
        for tid, group in zip(layout.tendon_ids, layout.tendon_joint_groups())
    )
    duration = preset.duration if preset.duration is not None else cfg.sim.duration
    ctrl = controller if controller is not None else preset.controller

    # The monitor reads the detection stack; a preset that does not drive
    # it is monitored on its first chain, which only an open-loop run may use.
    monitored = cfg.detection.monitored_stack
    if all(c.tendon_id != monitored for c in chains):
        if ctrl != "none":
            raise ConfigError(
                f"preset {preset_name}: controller {ctrl!r} needs "
                f"detection.monitored_stack {monitored!r}, which its fingers do not drive"
            )
        monitored = chains[0].tendon_id

    return Scenario(
        name=preset_name,
        chains=chains,
        obj=cfg.objects[obj_name] if obj_name is not None else None,
        obj_name=obj_name,
        amplifier=replace(cfg.amplifier, v_ceiling=ceiling),
        sim=cfg.sim,
        duration=duration,
        episode=duration,
        controller=ctrl,
        monitored_stack=monitored,
        config_fingerprint=cfg.fingerprint,
    )
