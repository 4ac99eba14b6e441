import ast
import copy
import math
import re
import sys
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haselhand
from haselhand import config_hash, default_config, load_config, save_config
from haselhand.actuator import StackConfig
from haselhand.config import (
    MAX_INTERNAL_STEPS,
    AmplifierModel,
    DetectionConfig,
    HandConfig,
    ProfileSpec,
    ScenarioPreset,
    SimConfig,
    config_from_dict,
    config_to_dict,
    decode,
    profile_hash,
    resolve_preset,
    resolve_scenario,
)
from haselhand.control import run_grasp_episode
from haselhand.errors import ConfigError
from haselhand.kinematics import FingerLayout, ObjectModel
from haselhand.plant import Plant, run_scenario
from haselhand.transmission import TendonPath


class TestRoundTrip:
    def test_dict_round_trip_preserves_hash(self, cfg):
        doc = config_to_dict(cfg)
        again = config_from_dict(doc)
        assert config_hash(again) == config_hash(cfg)

    def test_file_round_trip(self, cfg, tmp_path):
        path = tmp_path / "config.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert config_hash(loaded) == config_hash(cfg)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_missing_block_reported(self):
        with pytest.raises(ConfigError, match="stacks"):
            config_from_dict({"tendons": {}})

    @pytest.mark.parametrize("block, item, key", [
        ("stacks", "index_mcp", "v_ref"),
        ("fingers", "index", "tendons"),
        ("presets", "pinch_cube", "profiles"),
    ])
    def test_missing_required_key_reported(self, cfg, block, item, key):
        doc = config_to_dict(cfg)
        del doc[block][item][key]
        with pytest.raises(ConfigError, match=f"{block}.{item}: missing required key '{key}'"):
            config_from_dict(doc)

    def test_absent_blocks_take_field_defaults(self, cfg):
        doc = config_to_dict(cfg)
        for block in ("amplifier", "sim", "detection"):
            del doc[block]
        assert config_hash(config_from_dict(doc)) == config_hash(cfg)


def _floats(low, high=None, **kw):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False, **kw)


def _inside(cls, name, high=None, exclude_max=False):
    """Values of field name of cls inside its declared domain: "gt" excludes
    its bound, "ge" includes it. high, if given, is a rule between fields
    that caps the value; exclude_max leaves it out."""
    meta = next(f.metadata for f in fields(cls) if f.name == name)
    if high is None:
        high, exclude_max = meta.get("lt", meta.get("le")), "lt" in meta
    low = meta.get("gt", meta.get("ge"))
    if typing.get_type_hints(cls)[name] is int:
        return st.integers(low + ("gt" in meta), high)
    return _floats(low, high, exclude_min="gt" in meta, exclude_max=exclude_max)


@st.composite
def valid_config(draw):
    """The default config with one stack, one tendon path and the detection
    block replaced by values inside their validated ranges: each field's
    declared domain, capped by the rules between fields."""
    cfg = default_config()
    tid = draw(st.sampled_from(sorted(cfg.stacks)))
    v_max = draw(_floats(1e-3, 6.0))
    stack = replace(
        cfg.stacks[tid], v_max=v_max,
        v_ref=draw(_inside(StackConfig, "v_ref", v_max)),
        x_free=draw(_floats(cfg.stacks[tid].force_knots[-1][0], exclude_min=True)),
        **{name: draw(_inside(StackConfig, name)) for name in ("c0", "c_slope", "force_exponent")})
    stacks = {**cfg.stacks, tid: stack}
    pid = draw(st.sampled_from(sorted(cfg.tendons)))
    ratio = draw(_inside(TendonPath, "pulley_ratio"))
    # The slack must leave some of the stroke pulley_ratio * x_free.
    stroke = min(ratio * stacks[pid].x_free, sys.float_info.max)
    path = TendonPath(
        pulley_ratio=ratio, slack=draw(_inside(TendonPath, "slack", stroke, exclude_max=True)),
        **{name: draw(_inside(TendonPath, name))
           for name in ("eta_fwd", "f_breakaway", "k_ext", "f_ext0")})
    lo = draw(_floats(0.0, 1e6))
    detection = DetectionConfig(
        monitored_stack=draw(st.sampled_from(sorted(cfg.stacks))),
        i_threshold=draw(st.none() | _inside(DetectionConfig, "i_threshold")),
        window=(lo, draw(_floats(lo, exclude_min=True))),
        **{name: draw(_inside(DetectionConfig, name)) for name in (
            "smoothing", "debounce", "deviation_mult", "deviation_floor", "baseline_seed")})
    return replace(cfg, stacks=stacks, tendons={**cfg.tendons, pid: path},
                   detection=detection)


class TestValidRoundTrip:
    @given(valid_config())
    @settings(max_examples=100, deadline=None)
    def test_valid_config_round_trips_with_stable_hash(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("round_trip") / "config.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        assert config_hash(loaded) == config_hash(cfg)


class TestFingerprint:
    def test_is_the_hash_of_the_saved_and_loaded_config(self, tmp_path):
        cfg = default_config()
        save_config(cfg, tmp_path / "config.json")
        assert cfg.fingerprint == config_hash(load_config(tmp_path / "config.json"))

    def test_a_replaced_config_gets_its_own(self, cfg):
        before = cfg.fingerprint  # cached on the original before the replace
        changed = replace(cfg, sim=replace(cfg.sim, duration=3.0))
        doc = config_to_dict(cfg)
        doc["sim"]["duration"] = 3.0
        assert changed.fingerprint != before
        assert changed.fingerprint == config_hash(config_from_dict(doc))
        assert cfg.fingerprint == before == config_hash(cfg)

    def test_memo_is_no_part_of_the_config(self):
        # The memo is neither encoded nor compared, and a replace() starts an empty one.
        cfg = default_config()
        cfg.memo["probe"] = object()
        assert cfg == default_config()
        assert cfg.fingerprint == config_hash(default_config())
        assert "memo" not in config_to_dict(cfg)
        assert replace(cfg).memo == {}


class TestCrossReferences:
    def test_preset_with_unknown_finger(self, cfg):
        doc = config_to_dict(cfg)
        doc["presets"]["broken"] = {
            "fingers": ["tentacle"],
            "profiles": {"*": {"kind": "ramp_hold", "target_kv": 5.5, "ramp_s": 1.0}},
        }
        with pytest.raises(ConfigError, match="tentacle"):
            config_from_dict(doc)

    def test_preset_with_unknown_object(self, cfg):
        doc = config_to_dict(cfg)
        doc["presets"]["broken"] = {
            "fingers": ["index"],
            "object": "anvil",
            "profiles": {"*": {"kind": "ramp_hold", "target_kv": 5.5, "ramp_s": 1.0}},
        }
        with pytest.raises(ConfigError, match="anvil"):
            config_from_dict(doc)

    def test_finger_with_unknown_stack(self, cfg):
        doc = config_to_dict(cfg)
        doc["fingers"]["index"]["tendons"] = ["index_mcp", "missing_stack"]
        with pytest.raises(ConfigError, match="missing_stack"):
            config_from_dict(doc)

    def test_profile_target_above_ceiling(self, cfg):
        doc = config_to_dict(cfg)
        doc["presets"]["pinch_cube"]["profiles"]["*"]["target_kv"] = 5.9
        loaded = config_from_dict(doc)
        with pytest.raises(ConfigError, match="ceiling"):
            resolve_scenario(loaded, "pinch_cube")


def _dataclasses_in(tp, found: list) -> list:
    """found, extended by tp and every dataclass reachable from its field types."""
    if is_dataclass(tp):
        if tp not in found:
            found.append(tp)
            for field_type in typing.get_type_hints(tp).values():
                _dataclasses_in(field_type, found)
    else:
        for arg in typing.get_args(tp):
            _dataclasses_in(arg, found)
    return found


def test_every_field_is_read():
    # A field no code reads changes no output, yet a user can set it and
    # it moves the config hash.
    read = {node.attr for path in Path(haselhand.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.__name__}.{f.name}" for cls in _dataclasses_in(HandConfig, [])
              for f in fields(cls) if f.name not in read]
    assert unread == []


class TestSimConfig:
    def test_sample_period_must_divide_duration(self):
        with pytest.raises(ConfigError):
            SimConfig(duration=2.0005)

    def test_internal_step_must_divide_sample(self):
        with pytest.raises(ConfigError):
            SimConfig(dt_internal=3e-4)

    def test_steps_per_sample(self):
        assert SimConfig().steps_per_sample == 10

    def test_relaxation_of_one_internal_step_accepted(self):
        # dt_internal / tau_mech = 1 lands each step on its stall target.
        assert SimConfig(tau_mech=1e-4).tau_mech == SimConfig().dt_internal


class TestPresetValidation:
    def test_controller_name_checked(self):
        doc = {"fingers": ["index"], "profiles": {"*": {}}, "controller": "pid"}
        with pytest.raises(ConfigError, match="presets.x.controller: 'pid' must be one of"):
            decode(ScenarioPreset, doc, "presets.x")

    def test_wildcard_profile_required(self):
        with pytest.raises(ConfigError):
            ScenarioPreset(("index",), profiles={"index_mcp": ProfileSpec()})

    def test_default_config_self_consistent(self, cfg):
        # Every preset resolves; every chain's profile fits the ceiling.
        for name in cfg.presets:
            scenario = resolve_scenario(cfg, name)
            assert scenario.chains


class TestNamedByKey:
    """A finger, object or preset is named by its key in the config alone."""

    def test_no_entry_under_a_key_declares_a_name(self):
        # The item type of every dict field of every dataclass the config reaches.
        items = {typing.get_args(hint)[1] for cls in _dataclasses_in(HandConfig, [])
                 for hint in typing.get_type_hints(cls).values() if typing.get_origin(hint) is dict}
        keyed = {tp for tp in items if is_dataclass(tp)}
        assert keyed == {StackConfig, TendonPath, FingerLayout, ObjectModel,
                         ScenarioPreset, ProfileSpec}
        assert [cls for cls in keyed if "name" in {f.name for f in fields(cls)}] == []

    def test_trace_names_the_objects_key(self, cfg):
        # The cube's model under a second key: the meta names the key the preset uses.
        config = replace(cfg, objects={**cfg.objects, "ball": cfg.objects["cube"]},
                         presets={**cfg.presets,
                                  "pinch_cube": replace(cfg.presets["pinch_cube"], obj="ball")})
        for drop_object, name in ((False, "ball"), (True, None)):
            scenario = resolve_scenario(config, "pinch_cube", drop_object=drop_object)
            assert run_scenario(Plant(replace(scenario, duration=0.1)), 0).meta["object"] == name


PINCH_CUBE = resolve_scenario(default_config(), "pinch_cube")


class TestScenarioRefusals:
    """A scenario refuses what no run can give meaning to, naming its preset."""

    @pytest.mark.parametrize("change, message", [
        ({"controller": "bogus"}, "preset pinch_cube: controller: 'bogus' must be one of "
                                  "('none', 'detect', 'contact_aware')"),
        ({"monitored_stack": "nope"}, "preset pinch_cube: no chain drives monitored_stack 'nope'"),
        ({"monitored_stack": "middle_mcp"},
         "preset pinch_cube: no chain drives monitored_stack 'middle_mcp'"),
        ({"obj": None}, "preset pinch_cube: obj and obj_name must both be set or both None"),
        ({"obj_name": None}, "preset pinch_cube: obj and obj_name must both be set or both None"),
        # The rig's limits, with the messages a preset asking for the same gets at resolve time.
        ({"amplifier": AmplifierModel(v_ceiling=4.0)},
         "preset pinch_cube: profile target 5.5 kV exceeds amplifier ceiling 4.0 kV"),
        ({"chains": (replace(PINCH_CUBE.chains[0], stack=replace(
            PINCH_CUBE.chains[0].stack, v_ref=5.0, v_max=5.0)), *PINCH_CUBE.chains[1:])},
         "preset pinch_cube: profile target 5.5 kV exceeds stack thumb_mcp v_max 5.0 kV"),
        ({"chains": PINCH_CUBE.chains + PINCH_CUBE.chains[:1]},
         "preset pinch_cube: stack 'thumb_mcp' is driven twice"),
    ], ids=["controller", "unknown_stack", "undriven_stack", "obj_alone", "obj_name_alone",
            "above_ceiling", "above_v_max", "stack_driven_twice"])
    def test_scenario_refuses(self, cfg, change, message):
        scenario = resolve_scenario(cfg, "pinch_cube")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            replace(scenario, **change)

    @pytest.mark.parametrize("preset, message", [
        (ScenarioPreset(("nosuch",)), "preset adhoc: fingers: unknown finger 'nosuch'"),
        (ScenarioPreset(("index",), obj="nosuch"),
         "preset adhoc: object: unknown object 'nosuch'"),
        (ScenarioPreset(("index",), profiles={"*": ProfileSpec(), "thumb_mcp": ProfileSpec()}),
         "preset adhoc: profiles.thumb_mcp: the preset drives no stack 'thumb_mcp' "
         "(it drives index_mcp, index_pip_dip)"),
    ], ids=["unknown_finger", "unknown_object", "undriven_profile"])
    def test_ad_hoc_preset_references_checked_at_resolve(self, cfg, preset, message):
        # A preset built in code never passed HandConfig's checks.
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            resolve_preset(cfg, "adhoc", preset)

    def test_unknown_controller_refused_before_a_run(self, cfg):
        message = ("preset pinch_cube: controller: 'bogus' must be one of "
                   "('none', 'detect', 'contact_aware')")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            resolve_scenario(cfg, "pinch_cube", controller="bogus")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            run_grasp_episode(cfg, "pinch_cube", 0, controller="bogus")


def _numeric_leaves(doc, path=""):
    """(key path as error messages print it, value) of every number in doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        where = f"{path}[{key}]" if isinstance(doc, list) else f"{path}.{key}".lstrip(".")
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, where)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield where, value


DEFAULT_DOC = config_to_dict(default_config())
NUMERIC_LEAVES = list(_numeric_leaves(DEFAULT_DOC))


def _keys(where):
    return re.findall(r"[^.\[\]]+", where)


def _leaf(doc, keys):
    for key in keys:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def _with_leaf(doc, where, value):
    doc = copy.deepcopy(doc)
    *parents, last = _keys(where)
    node = _leaf(doc, parents)
    node[int(last) if isinstance(node, list) else last] = value
    return doc


@st.composite
def corrupted_leaf(draw):
    where, value = draw(st.sampled_from(NUMERIC_LEAVES))
    if isinstance(value, int):  # any JSON number with a fraction or an exponent
        bad = st.one_of(st.floats(), st.booleans())
    else:  # 10 ** 400 is an integer beyond float range
        bad = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, True, False])
    return where, draw(bad)


DOMAIN_KEYS = ("gt", "ge", "lt", "le", "in")


def _reached_fields(cls, doc, where=""):
    """(key path, field type, field) of every field at the first instance
    of each dataclass that doc holds."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        key = f.metadata.get("json", f.name)
        path, tp = f"{where}.{key}".lstrip("."), hints[f.name]
        if typing.get_origin(tp) is typing.Union:  # Optional[X]
            tp = typing.get_args(tp)[0]
        yield path, tp, f
        value, args = doc.get(key), typing.get_args(tp)
        if is_dataclass(tp):
            yield from _reached_fields(tp, value, path)
        elif typing.get_origin(tp) is dict and is_dataclass(args[1]):
            first = next(iter(value))
            yield from _reached_fields(args[1], value[first], f"{path}.{first}")
        elif args and args[-1] is Ellipsis and is_dataclass(args[0]):
            yield from _reached_fields(args[0], value[0], f"{path}[0]")


def _holds_float(tp) -> bool:
    return tp is float or any(map(_holds_float, typing.get_args(tp)))


REACHED = list(_reached_fields(HandConfig, DEFAULT_DOC))
# (key path, field type, domain) of every field that declares a domain.
DECLARED = [(path, tp, domain) for path, tp, f in REACHED
            if (domain := {k: f.metadata[k] for k in DOMAIN_KEYS if k in f.metadata})]
# Key paths of the fields that hold floats, alone or in tuples and dicts.
FLOAT_FIELDS = [path for path, tp, _ in REACHED if _holds_float(tp)]


def _field_name(obj, key):
    """The field of dataclass obj whose JSON key is key."""
    return next(f.name for f in fields(obj) if f.metadata.get("json", f.name) == key)


def _block(cfg, keys):
    """The value at key path keys of cfg, through dict keys, tuple indices and fields."""
    for key in keys:
        cfg = (cfg[key] if isinstance(cfg, dict) else cfg[int(key)] if isinstance(cfg, tuple)
               else getattr(cfg, _field_name(cfg, key)))
    return cfg


def _past(tp, bound, direction):
    """The next value of type tp beyond bound in direction (+1 or -1)."""
    return bound + direction if tp is int else math.nextafter(bound, direction * math.inf)


def _with_first_float(value, bad):
    """value with bad in place of its first float (or of None)."""
    if isinstance(value, tuple):
        return (_with_first_float(value[0], bad), *value[1:])
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _with_first_float(value[first], bad)}
    return bad


def _boundary_cases():
    """(key path, value, accepted) at and just past every declared bound."""
    for where, tp, domain in DECLARED:
        for key, bound in domain.items():
            if key == "in":
                yield where, "none_of_" + "_".join(bound), False
                continue
            below = key in ("gt", "ge")  # the domain lies above the bound
            yield where, bound, key in ("ge", "le")
            yield where, _past(tp, bound, -1 if below else 1), False


BOUNDARY_CASES = list(_boundary_cases())


class TestNumericBoundary:
    def test_every_domain_owning_block_is_reached(self):
        blocks = {re.sub(r"\.[^.]+$", "", where) for where, _, _ in DECLARED}
        assert blocks == {
            "amplifier", "sim", "detection", "stacks.thumb_mcp", "tendons.thumb_mcp",
            "fingers.thumb.joints[0]", "objects.cube", "presets.free_motion",
            "presets.free_motion.profiles.*"}

    @pytest.mark.parametrize("where, value, accepted", BOUNDARY_CASES,
                             ids=[f"{w}={v!r}" for w, v, _ in BOUNDARY_CASES])
    def test_declared_bound(self, where, value, accepted):
        doc = _with_leaf(DEFAULT_DOC, where, value)
        if accepted:
            assert _leaf(config_to_dict(config_from_dict(doc)), _keys(where)) == value
        else:
            with pytest.raises(ConfigError, match=re.escape(f"{where}: {value!r} must be")):
                config_from_dict(doc)

    # Each breaks a rule between fields, which the block's own type checks;
    # the decoder prefixes its message with the block's key path.
    @pytest.mark.parametrize("where, value, message", [
        ("sim.dt_internal", 3e-4, "sim: dt_sample must be an integer multiple of dt_internal"),
        ("sim.duration", 2.0005, "sim: duration 2.0005 s is not a multiple of dt_sample"),
        ("sim.tau_mech", 5e-5, "sim: tau_mech 5e-05 s must be >= dt_internal"),
        ("presets.pinch_cube.duration", 1.0005,
         "presets.pinch_cube.duration 1.0005 s is not a multiple of dt_sample"),
        ("detection.window", [0.99, 0.88], "detection: window must satisfy"),
        ("stacks.index_mcp.force_knots", [[0.0, 25.3], [0.0, 2.0]],
         "stacks.index_mcp: force_knots must be strictly increasing"),
        ("stacks.index_mcp.v_ref", 6.5, "stacks.index_mcp: v_ref must be <= v_max"),
        ("objects.cube.k_obj", 100.0, "objects.cube: rigid objects need k_obj"),
        ("objects.paper_balloon.f_crush", None, "objects.paper_balloon: fragile objects need"),
        ("fingers.index.coupled_pair", [0, 5], "fingers.index: invalid coupled_pair"),
        ("presets.balloon_hold.profiles", {"index_mcp": {}},
         "presets.balloon_hold: profiles needs a '*' default entry"),
        ("tendons.index_mcp.slack", 24.0, "tendons.index_mcp.slack: 24.0 mm must be <"),
        ("detection.monitored_stack", "elbow", "detection.monitored_stack: 'elbow'"),
    ], ids=["sample_divisibility", "sim_duration", "tau_below_step", "preset_duration",
            "window_order", "knots_not_monotone", "v_ref_above_v_max", "soft_rigid",
            "fragile_without_f_crush", "bad_coupled_pair", "no_wildcard_profile",
            "slack_eats_stroke", "unknown_monitored_stack"])
    def test_cross_field_violation_names_block(self, where, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(_with_leaf(DEFAULT_DOC, where, value))

    @given(corrupted_leaf())
    @settings(max_examples=200, deadline=None)
    def test_value_the_model_cannot_mean_is_rejected(self, case):
        where, bad = case
        with pytest.raises(ConfigError, match=re.escape(where)):
            config_from_dict(_with_leaf(DEFAULT_DOC, where, bad))

    def test_json_integer_in_float_field_accepted(self):
        doc = _with_leaf(DEFAULT_DOC, "stacks.index_mcp.c0", 1)
        assert config_from_dict(doc).stacks["index_mcp"].c0 == 1.0
        assert isinstance(config_from_dict(doc).stacks["index_mcp"].c0, float)


class TestBoundsInCode:
    """A dataclass built past the decoder is held to the same declared bounds."""

    @pytest.mark.parametrize("where, value, accepted", BOUNDARY_CASES,
                             ids=[f"{w}={v!r}" for w, v, _ in BOUNDARY_CASES])
    def test_declared_bound(self, cfg, where, value, accepted):
        *parents, key = _keys(where)
        block = _block(cfg, parents)
        name = _field_name(block, key)
        if accepted:
            assert getattr(replace(block, **{name: value}), name) == value
        else:
            with pytest.raises(ConfigError, match="^" + re.escape(f"{key}: {value!r} must be")):
                replace(block, **{name: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", FLOAT_FIELDS)
    def test_non_finite_number_is_refused(self, cfg, where, bad):
        # The decoder refuses these first; in code the block itself must.
        *parents, key = _keys(where)
        block = _block(cfg, parents)
        name = _field_name(block, key)
        with pytest.raises(ConfigError, match="^" + re.escape(f"{key}: ")) as exc:
            replace(block, **{name: _with_first_float(getattr(block, name), bad)})
        assert exc.value.key == key


class TestStepBudget:
    """Decoded only: a document over the budget must never reach the plant."""

    @pytest.mark.parametrize("where, value, message", [
        ("sim.dt_internal", 1e-9, "sim: duration 2.0 s asks for more than 1000000"),
        # One sample period past the budget of the shipped 0.1 ms step.
        ("presets.pinch_cube.duration", 100.001,
         "presets.pinch_cube.duration 100.001 s asks for more than 1000000"),
    ], ids=["tiny_internal_step", "long_preset"])
    def test_over_budget_rejected(self, where, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(_with_leaf(DEFAULT_DOC, where, value))

    def test_ad_hoc_preset_checked_at_resolve(self):
        # characterize builds its 2 s presets in code, past the decoder.
        cfg = config_from_dict(_with_leaf(_with_leaf(DEFAULT_DOC, "sim.dt_internal", 1e-9),
                                          "sim.duration", 0.0))
        preset = ScenarioPreset(("index",), duration=2.0)
        with pytest.raises(ConfigError, match="preset adhoc: duration 2.0 s asks for more"):
            resolve_preset(cfg, "adhoc", preset)

    @pytest.mark.parametrize("sim, message", [
        ({"dt_sample": 3e-3, "duration": 0.3},
         "preset detect_free: duration 2.0 s is not a multiple of dt_sample 0.003 s"),
        ({"dt_internal": 1e-6, "duration": 0.5},
         "preset detect_free: duration 2.0 s asks for more than 1000000 internal steps "
         "of 1e-06 s per chain"),
    ], ids=["off_the_sample_grid", "over_budget"])
    def test_scenario_checks_its_duration_against_a_replaced_sim(self, cfg, sim, message):
        # A run reads its sim from the scenario, so every scenario built is checked.
        scenario = resolve_scenario(cfg, "detect_free").monitored()
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            replace(scenario, sim=replace(cfg.sim, **sim))

    @pytest.mark.parametrize("change, message", [
        ({"duration": -1.0}, "preset pinch_cube: duration: -1.0 must be >= 0.0"),
        ({"duration": math.nan}, "preset pinch_cube: duration: nan must be >= 0.0"),
        ({"duration": math.inf}, "preset pinch_cube: duration: inf must be finite"),
        ({"duration": 3.0}, "preset pinch_cube: duration 3.0 s exceeds its episode 2.0 s"),
        ({"episode": -1.0}, "preset pinch_cube: episode: -1.0 must be >= 0.0"),
    ], ids=["negative", "nan", "inf", "past_its_episode", "negative_episode"])
    def test_scenario_checks_its_duration_and_episode(self, cfg, change, message):
        # Each once built and its run failed in numpy or carried another
        # episode's profile hash, or it failed in round() (NaN, infinity).
        scenario = resolve_scenario(cfg, "pinch_cube")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            replace(scenario, **change)
        assert replace(scenario, duration=-0.0).duration == 0.0

    def test_budget_itself_accepted(self):
        at_budget = MAX_INTERNAL_STEPS * DEFAULT_DOC["sim"]["dt_internal"]
        doc = _with_leaf(DEFAULT_DOC, "presets.pinch_cube.duration", at_budget)
        assert config_from_dict(doc).presets["pinch_cube"].duration == at_budget


BASE_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "base_config.json"

# Every shipped preset's profile hash, as each trace's meta records it.
SHIPPED_PROFILE_HASHES = {
    "free_motion": "46aa5c3b697082ab", "pinch_mushroom": "46aa5c3b697082ab",
    "pinch_cube": "46aa5c3b697082ab", "tripod_toy": "46aa5c3b697082ab",
    "power_grasp_bottle": "46aa5c3b697082ab", "detect_free": "46aa5c3b697082ab",
    "detect_cube": "46aa5c3b697082ab", "balloon_hold": "fe254373aded66d5",
}


class TestScheduleIdentity:
    """A schedule is its kind and the numbers that kind reads, by bit pattern."""

    @pytest.mark.parametrize("kind", ["ramp", "bogus"])
    def test_kind_outside_its_choices_is_refused_in_code(self, kind):
        with pytest.raises(ConfigError, match=re.escape(
                f"kind: {kind!r} must be one of ('hold', 'ramp_hold')")):
            ProfileSpec(kind, 5.5, 1.0)

    def test_identity_holds_what_the_kind_reads(self):
        assert ProfileSpec("hold", 3.0, 1.0).identity == ProfileSpec("hold", 3.0, 2.0).identity
        assert ProfileSpec("ramp_hold", 3.0, 1.0).identity != \
            ProfileSpec("ramp_hold", 3.0, 2.0).identity
        assert ProfileSpec("hold", 0.0).identity != ProfileSpec("hold", -0.0).identity
        assert ProfileSpec("hold", 3.0).identity != ProfileSpec("ramp_hold", 3.0).identity

    @pytest.mark.parametrize("config", [None, BASE_CONFIG], ids=["default", "base_config"])
    def test_every_shipped_preset_keeps_its_profile_hash(self, config):
        cfg = load_config(config) if config else default_config()
        assert set(cfg.presets) == set(SHIPPED_PROFILE_HASHES)
        for name, want in SHIPPED_PROFILE_HASHES.items():
            # The monitored chain alone: its trace carries the full episode's hash.
            trace = run_scenario(Plant(resolve_scenario(cfg, name).monitored()), 0)
            assert trace.meta["profile_hash"] == want, name

    def test_profile_hash_covers_the_scenarios_own_dt_sample(self, cfg):
        schedule = ProfileSpec("ramp_hold", 5.5, 1.0)
        preset = ScenarioPreset(("index",), profiles={"*": schedule}, duration=0.1)
        khz = resolve_preset(cfg, "probe", preset)
        want = run_scenario(Plant(khz), 0).meta["profile_hash"]
        assert want == profile_hash(schedule, 0.1, 1e-3)
        slow = run_scenario(Plant(replace(khz, sim=replace(cfg.sim, dt_sample=2e-3))), 0)
        assert slow.meta["dt_sample"] == 2e-3
        assert slow.meta["profile_hash"] == profile_hash(schedule, 0.1, 2e-3) != want
        # The one-chain and the shortened scenario keep the full episode's hash.
        assert len(khz.monitored().chains) < len(khz.chains)
        for kept in (khz.monitored(), replace(khz, duration=0.05)):
            assert run_scenario(Plant(kept), 0).meta["profile_hash"] == want
