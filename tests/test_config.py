import copy
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haselhand import config_hash, default_config, load_config, save_config
from haselhand.config import (
    DetectionConfig,
    ProfileSpec,
    ScenarioPreset,
    SimConfig,
    config_from_dict,
    config_to_dict,
    resolve_scenario,
)
from haselhand.errors import ConfigError
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


@st.composite
def valid_config(draw):
    """The default config with one stack, one tendon path and the detection
    block replaced by values inside their validated ranges."""
    cfg = default_config()
    tid = draw(st.sampled_from(sorted(cfg.stacks)))
    v_max = draw(_floats(1e-3, 6.0))
    stack = replace(
        cfg.stacks[tid], n_units=draw(st.integers(1, 10 ** 6)), v_max=v_max,
        v_ref=draw(_floats(1e-3, v_max)),
        x_free=draw(_floats(cfg.stacks[tid].force_knots[-1][0], exclude_min=True)),
        c0=draw(_floats(0.0, exclude_min=True)), c_slope=draw(_floats(0.0)),
        force_exponent=draw(_floats(0.0, exclude_min=True)))
    pid = draw(st.sampled_from(sorted(cfg.tendons)))
    path = TendonPath(
        pulley_ratio=draw(_floats(0.0, exclude_min=True)),
        eta_fwd=draw(_floats(0.0, 1.0, exclude_min=True)),
        f_breakaway=draw(_floats(0.0)), slack=draw(_floats(0.0)),
        k_ext=draw(_floats(0.0)), f_ext0=draw(_floats(0.0)))
    lo = draw(_floats(0.0, 1e6))
    detection = DetectionConfig(
        monitored_stack=draw(st.sampled_from(sorted(cfg.stacks))),
        i_threshold=draw(st.none() | _floats(0.0, exclude_min=True)),
        window=(lo, draw(_floats(lo, exclude_min=True))),
        smoothing=draw(st.integers(1, 10 ** 9)), debounce=draw(st.integers(1, 10 ** 9)),
        deviation_mult=draw(_floats(0.0, exclude_min=True)), deviation_floor=draw(_floats(0.0)),
        baseline_seed=draw(st.integers(-2 ** 63, 2 ** 63)))
    return replace(cfg, stacks={**cfg.stacks, tid: stack}, tendons={**cfg.tendons, pid: path},
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


class TestSimConfig:
    def test_sample_period_must_divide_duration(self):
        with pytest.raises(ConfigError):
            SimConfig(duration=2.0005)

    def test_internal_step_must_divide_sample(self):
        with pytest.raises(ConfigError):
            SimConfig(dt_internal=3e-4)

    def test_steps_per_sample(self):
        assert SimConfig().steps_per_sample == 10


class TestPresetValidation:
    def test_controller_name_checked(self):
        with pytest.raises(ConfigError):
            ScenarioPreset("x", ("index",), controller="pid")

    def test_wildcard_profile_required(self):
        with pytest.raises(ConfigError):
            ScenarioPreset("x", ("index",), profiles={"index_mcp": ProfileSpec()})

    def test_default_config_self_consistent(self, cfg):
        # Every preset resolves; every chain's profile fits the ceiling.
        for name in cfg.presets:
            scenario = resolve_scenario(cfg, name)
            assert scenario.chains


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


def _with_leaf(doc, where, value):
    doc = copy.deepcopy(doc)
    *parents, last = re.findall(r"[^.\[\]]+", where)
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
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


class TestNumericBoundary:
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
