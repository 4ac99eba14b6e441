import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haselhand import cli as cli_module
from haselhand.cli import main
from haselhand.config import config_hash, config_to_dict, default_config
from haselhand.errors import ConfigError, TraceSchemaError
from haselhand.plant import ChainSim, Plant
from haselhand.trace import load_trace
from oracles import onset_voltage


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(tmp_path: Path, mutate=None) -> Path:
    doc = config_to_dict(default_config())
    if mutate:
        mutate(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def rename_joint(finger, old, new):
    """A mutate that renames a joint of finger, with its contact angles."""
    def mutate(doc):
        for joint in doc["fingers"][finger]["joints"]:
            if joint["name"] == old:
                joint["name"] = new
        for obj in doc["objects"].values():
            angles = obj["theta_contact"].get(finger, {})
            if old in angles:
                angles[new] = angles.pop(old)
    return mutate


def rename_finger(old, new):
    """A mutate that renames a finger, with its contact angles and presets."""
    def mutate(doc):
        doc["fingers"][new] = doc["fingers"].pop(old)
        for obj in doc["objects"].values():
            if old in obj["theta_contact"]:
                obj["theta_contact"][new] = obj["theta_contact"].pop(old)
        for preset in doc["presets"].values():
            preset["fingers"] = [new if f == old else f for f in preset["fingers"]]
    return mutate


def rename_stack(old, new):
    """A mutate that renames a stack and its tendon path wherever they are named."""
    def mutate(doc):
        for block in ("stacks", "tendons"):
            doc[block][new] = doc[block].pop(old)
        for layout in doc["fingers"].values():
            layout["tendons"] = [new if t == old else t for t in layout["tendons"]]
        if doc["detection"]["monitored_stack"] == old:
            doc["detection"]["monitored_stack"] = new
    return mutate


def index_dip_renamed_pip(doc):
    """Two index joints named pip: the dip joint renamed, its contact angles dropped."""
    doc["fingers"]["index"]["joints"][2]["name"] = "pip"
    for obj in doc["objects"].values():
        obj["theta_contact"]["index"].pop("dip", None)


def index_mcp_key_collision(doc):
    """Finger index with joint mcp_1 and finger index_mcp (the renamed
    middle) with joint 1: both key their columns index_mcp_1."""
    rename_joint("index", "mcp", "mcp_1")(doc)
    rename_joint("middle", "mcp", "1")(doc)
    rename_finger("middle", "index_mcp")(doc)


def copy_meta(trace: Path, to: Path) -> None:
    """Copy the metadata file of trace to sit next to the trace file to."""
    to.with_suffix(".meta.json").write_bytes(trace.with_suffix(".meta.json").read_bytes())


class TestCharacterize:
    def test_default_regression_values(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("characterize", "--out", str(out)) == 0
        meta = json.loads((out / "characterize.meta.json").read_text())
        assert meta["fingertip_n"]["index"] == pytest.approx(0.53, rel=0.15)
        assert meta["fingertip_n"]["thumb"] == pytest.approx(0.26, rel=0.15)
        assert meta["saturation_deg"]["index_mcp"] == pytest.approx(30.0, abs=5.0)

    def test_angle_sweep_has_deadband(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("characterize", "--out", str(out)) == 0
        meta = json.loads((out / "characterize.meta.json").read_text())
        onset = meta["onset_voltage_kv"]["index_mcp"]
        rows = (out / "voltage_angle_index.csv").read_text().splitlines()
        header = rows[0].split(",")
        vi = header.index("v_cmd(kV)")
        ti = header.index("theta_index_mcp(rad)")
        half_deg = math.radians(0.5)
        checked = 0
        for row in rows[1:]:
            vals = [float(x) for x in row.split(",")]
            if vals[vi] < onset - 1e-9:
                assert vals[ti] < half_deg
                checked += 1
        assert checked > 100

    def test_zero_ceiling_gives_all_zero_outputs(self, tmp_path):
        cfg_path = write_config(
            tmp_path, lambda d: d["amplifier"].__setitem__("v_ceiling", 0.0))
        out = tmp_path / "out"
        assert run_cli("characterize", "--config", str(cfg_path), "--out", str(out)) == 0
        force_rows = (out / "fingertip_force.csv").read_text().splitlines()[1:]
        for row in force_rows:
            assert all(float(x) == 0.0 for x in row.split(","))
        angle_rows = (out / "voltage_angle_index.csv").read_text().splitlines()[1:]
        for row in angle_rows:
            assert all(float(x) == 0.0 for x in row.split(","))

    def test_fingertip_sweep_calls_the_force_law_once_per_finger(self, tmp_path, monkeypatch):
        calls = []
        law = cli_module.active_force
        monkeypatch.setattr(cli_module, "active_force",
                            lambda *args, **kw: calls.append(args[1]) or law(*args, **kw))
        assert run_cli("characterize", "--out", str(tmp_path / "o")) == 0
        assert [len(v) for v in calls] == [551, 551]

    # In-domain stacks whose force law overflows: in the fingertip sweep
    # (the first and third) or in the onset voltage's inverse (the second).
    @pytest.mark.parametrize("stack, named", [
        ({"v_ref": 0.5, "force_exponent": 400},
         "stack index_mcp: voltage scale 11.0 to the force exponent 400.0 overflows"),
        ({"force_knots": [[0, 10], [6, 1]], "force_exponent": 1e-4},
         "stack index_mcp: force ratio 2.1036363636363635 to the inverse force exponent "
         "10000.0 overflows"),
        ({"v_ref": 1e-300},
         "stack index_mcp: voltage scale 5.5e+300 to the force exponent 2.0 overflows"),
    ], ids=["steep_exponent", "flat_exponent", "tiny_v_ref"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_force_law_exits_2_with_nothing_written(self, tmp_path, capsys,
                                                                stack, named):
        cfg_path = write_config(tmp_path, lambda d: d["stacks"]["index_mcp"].update(stack))
        out = tmp_path / "o"
        assert run_cli("characterize", "--config", str(cfg_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not list(out.rglob("*"))

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("characterize", "--out", str(out1)) == 0
        assert run_cli("characterize", "--out", str(out2)) == 0
        for name in ("voltage_angle_index.csv", "voltage_angle_thumb.csv",
                     "fingertip_force.csv", "characterize.meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_monitor_noise_does_not_reach_the_sweeps(self, tmp_path):
        # The bench test reads no monitor, so a noise that overflows every
        # monitored sample changes nothing it writes but the config hash.
        noisy = write_config(tmp_path, lambda d: d["amplifier"].update(
            monitor_noise_v=1e308, monitor_noise_i=1e308))
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert run_cli("characterize", "--out", str(quiet)) == 0
        assert run_cli("characterize", "--config", str(noisy), "--out", str(loud)) == 0
        for name in ("voltage_angle_index.csv", "voltage_angle_thumb.csv", "fingertip_force.csv"):
            assert (quiet / name).read_bytes() == (loud / name).read_bytes()
        metas = [json.loads((out / "characterize.meta.json").read_text()) for out in (quiet, loud)]
        assert metas[0].pop("config_hash") != metas[1].pop("config_hash")
        assert metas[0] == metas[1]

    def test_onsets_are_the_transmission_laws(self, tmp_path):
        cfg = default_config()
        assert run_cli("characterize", "--out", str(tmp_path)) == 0
        onsets = json.loads((tmp_path / "characterize.meta.json").read_text())["onset_voltage_kv"]
        tendons = [tid for finger in ("index", "thumb") for tid in cfg.fingers[finger].tendon_ids]
        assert len(tendons) == 4
        assert onsets == {tid: onset_voltage(cfg, tid) for tid in tendons}

    def test_sweeps_run_the_configs_episode(self, tmp_path):
        # The bench test has no duration of its own: it runs sim.duration.
        cfg_path = write_config(tmp_path, lambda d: d.__setitem__(
            "sim", {"dt_sample": 0.003, "duration": 3.0}))
        out = tmp_path / "out"
        assert run_cli("characterize", "--config", str(cfg_path), "--out", str(out)) == 0
        for finger in ("index", "thumb"):
            rows = (out / f"voltage_angle_{finger}.csv").read_text().splitlines()
            assert len(rows) - 1 == 1001


class TestGrasp:
    def test_power_grasp_all_fingers_contact(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("grasp", "--preset", "power_grasp_bottle",
                       "--seed", "1", "--out", str(out)) == 0
        report = json.loads((out / "power_grasp_bottle_seed1.report.json").read_text())
        assert report["verdicts"]["stable"] is True
        assert report["verdicts"]["fingers_contacted"] == [
            "index", "middle", "pinky", "ring", "thumb"]

    def test_pinch_cube_contacts_thumb_and_index_only(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("grasp", "--preset", "pinch_cube",
                       "--seed", "0", "--out", str(out)) == 0
        report = json.loads((out / "pinch_cube_seed0.report.json").read_text())
        assert sorted(report["verdicts"]["fingers_contacted"]) == ["index", "thumb"]
        # Only the engaged fingers appear in the trace at all.
        trace = load_trace(out / "pinch_cube_seed0.csv")
        fingers = {k.rsplit("_", 1)[0] for k in trace.theta}
        assert fingers == {"index", "thumb"}

    def test_object_removed_not_grasped(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("grasp", "--preset", "pinch_cube", "--no-object",
                       "--out", str(out)) == 0
        report = json.loads((out / "pinch_cube_seed0.report.json").read_text())
        assert report["verdicts"]["stable"] is False
        assert report["verdicts"]["fingers_contacted"] == []

    def test_unknown_preset_lists_available(self, tmp_path, capsys):
        code = run_cli("grasp", "--preset", "wat", "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert "pinch_cube" in err and "power_grasp_bottle" in err

    def test_joint_name_with_an_underscore_reports_its_finger(self, tmp_path):
        # The trace key index_mcp_1 must not read as finger index_mcp.
        cfg_path = write_config(tmp_path, rename_joint("index", "mcp", "mcp_1"))
        out = tmp_path / "out"
        assert run_cli("grasp", "--preset", "pinch_cube", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        report = json.loads((out / "pinch_cube_seed0.report.json").read_text())
        assert report["verdicts"]["fingers_contacted"] == ["index", "thumb"]
        assert report["verdicts"]["stable"] is True

    def test_trace_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("grasp", "--preset", "pinch_cube", "--seed", "9",
                           "--out", str(out)) == 0
        assert (out1 / "pinch_cube_seed9.csv").read_bytes() == \
               (out2 / "pinch_cube_seed9.csv").read_bytes()
        assert (out1 / "pinch_cube_seed9.report.json").read_bytes() == \
               (out2 / "pinch_cube_seed9.report.json").read_bytes()


class TestDetectBatch:
    def test_small_batch_fully_correct(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("detect-batch", "--free", "1", "--grasp", "1",
                       "--seed", "0", "--out", str(out)) == 0
        summary = json.loads((out / "detect_batch_summary.json").read_text())
        assert summary["correct"] == 2 and summary["total"] == 2
        assert summary["misclassified"] == []
        detector = json.loads((out / "detector.json").read_text())
        assert detector["i_threshold"] == summary["threshold_ua"]

    def test_hundredfold_noise_breaks_calibration_or_classification(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            lambda d: d["amplifier"].__setitem__(
                "monitor_noise_i", 100 * d["amplifier"]["monitor_noise_i"]))
        out = tmp_path / "out"
        code = run_cli("detect-batch", "--free", "1", "--grasp", "1",
                       "--seed", "0", "--config", str(cfg_path), "--out", str(out))
        if code == 0:
            summary = json.loads((out / "detect_batch_summary.json").read_text())
            assert summary["misclassified"], "100x noise must at least misclassify"
        else:
            assert code == 4

    def test_zero_batch_rejected(self, tmp_path):
        assert run_cli("detect-batch", "--free", "0", "--grasp", "1",
                       "--out", str(tmp_path / "o")) == 2


@pytest.fixture(scope="module")
def batch_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("batch")
    assert run_cli("detect-batch", "--free", "1", "--grasp", "1",
                   "--seed", "0", "--out", str(out)) == 0
    assert run_cli("grasp", "--preset", "detect_cube", "--seed", "100000",
                   "--out", str(out)) == 0
    assert run_cli("grasp", "--preset", "detect_free", "--seed", "0",
                   "--out", str(out)) == 0
    return out


class TestReplay:

    def test_cube_replay_matches_live_batch(self, batch_out, tmp_path):
        out = tmp_path / "replay"
        code = run_cli("replay", "--trace", str(batch_out / "detect_cube_seed100000.csv"),
                       "--detector", str(batch_out / "detector.json"),
                       "--out", str(out))
        assert code == 0
        verdict = json.loads((out / "detect_cube_seed100000.verdict.json").read_text())
        assert verdict["grasped"] is True
        assert verdict["decision_time"] is not None

    def test_free_replay_not_grasped(self, batch_out, tmp_path):
        out = tmp_path / "replay"
        code = run_cli("replay", "--trace", str(batch_out / "detect_free_seed0.csv"),
                       "--detector", str(batch_out / "detector.json"),
                       "--out", str(out))
        assert code == 0
        verdict = json.loads((out / "detect_free_seed0.verdict.json").read_text())
        assert verdict["grasped"] is False

    def test_replay_is_byte_identical(self, batch_out, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert run_cli("replay",
                           "--trace", str(batch_out / "detect_cube_seed100000.csv"),
                           "--detector", str(batch_out / "detector.json"),
                           "--out", str(out)) == 0
            outs.append((out / "detect_cube_seed100000.verdict.json").read_bytes())
        assert outs[0] == outs[1]

    def test_truncated_trace_is_insufficient(self, batch_out, tmp_path, capsys):
        src = (batch_out / "detect_cube_seed100000.csv").read_text().splitlines()
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(src[:500]) + "\n")
        copy_meta(batch_out / "detect_cube_seed100000.csv", cut)
        code = run_cli("replay", "--trace", str(cut),
                       "--detector", str(batch_out / "detector.json"),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "window needs" in capsys.readouterr().err

    def test_schema_mismatch_names_column(self, batch_out, tmp_path, capsys):
        src = (batch_out / "detect_cube_seed100000.csv").read_text().splitlines()
        header = src[0].replace("i_meas(uA)", "current(uA)")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header] + src[1:]) + "\n")
        copy_meta(batch_out / "detect_cube_seed100000.csv", bad)
        code = run_cli("replay", "--trace", str(bad),
                       "--detector", str(batch_out / "detector.json"),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "i_meas(uA)" in capsys.readouterr().err

    def test_duplicate_column_rejected(self, batch_out, tmp_path, capsys):
        # A second i_meas(uA) column would otherwise replace the first,
        # and the detector would read the appended values.
        src = (batch_out / "detect_cube_seed100000.csv").read_text().splitlines()
        bad = tmp_path / "dup.csv"
        bad.write_text("\n".join([src[0] + ",i_meas(uA)"]
                                 + [row + ",999.0" for row in src[1:]]) + "\n")
        copy_meta(batch_out / "detect_cube_seed100000.csv", bad)
        with pytest.raises(TraceSchemaError, match="twice") as exc:
            load_trace(bad)
        assert exc.value.column == "i_meas(uA)"
        out = tmp_path / "o"
        code = run_cli("replay", "--trace", str(bad),
                       "--detector", str(batch_out / "detector.json"), "--out", str(out))
        assert code == 2
        assert "column 'i_meas(uA)' twice" in capsys.readouterr().err
        assert not list(out.rglob("*"))

    def test_trace_without_metadata_rejected(self, batch_out, tmp_path, capsys):
        # Without its metadata a trace cannot show its schedule, config
        # or stack, so the detector's checks could not run.
        bare = tmp_path / "bare.csv"
        bare.write_bytes((batch_out / "detect_cube_seed100000.csv").read_bytes())
        code = run_cli("replay", "--trace", str(bare),
                       "--detector", str(batch_out / "detector.json"),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "missing its metadata file bare.meta.json" in capsys.readouterr().err
        assert not list((tmp_path / "o").rglob("*"))

    @pytest.mark.parametrize("key", ["profile_hash", "config_hash", "monitored_stack"])
    def test_profile_hash_mismatch_rejected(self, batch_out, tmp_path, capsys, key):
        doc = json.loads((batch_out / "detector.json").read_text())
        doc[key] = "0" * 16
        bad_detector = tmp_path / "detector.json"
        bad_detector.write_text(json.dumps(doc))
        code = run_cli("replay", "--trace", str(batch_out / "detect_cube_seed100000.csv"),
                       "--detector", str(bad_detector),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{key} {'0' * 16}" in capsys.readouterr().err
        assert not list((tmp_path / "o").rglob("*"))

    @pytest.mark.parametrize("key", ["profile_hash", "config_hash", "monitored_stack"])
    def test_detector_without_key_rejected(self, batch_out, tmp_path, capsys, key):
        doc = json.loads((batch_out / "detector.json").read_text())
        del doc[key]
        bad_detector = tmp_path / "detector.json"
        bad_detector.write_text(json.dumps(doc))
        code = run_cli("replay", "--trace", str(batch_out / "detect_cube_seed100000.csv"),
                       "--detector", str(bad_detector),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"detector: missing required key '{key}'" in capsys.readouterr().err
        assert not list((tmp_path / "o").rglob("*"))


def with_presets(**presets):
    """A mutate that adds presets (name -> fingers, profiles document)."""
    def mutate(doc):
        for name, (fingers, profiles) in presets.items():
            doc["presets"][name] = {"fingers": fingers, "profiles": profiles}
    return mutate


HOLD_3KV = {"kind": "hold", "target_kv": 3.0}


class TestScheduleIdentity:
    """A trace's profile hash fingerprints the monitored chain's schedule
    (the numbers its kind reads), the duration and dt_sample, however the
    preset spells its profiles: a detector replays traces of equal schedules."""

    @pytest.mark.parametrize("first, second", [
        ((["index"], {"*": {**HOLD_3KV, "ramp_s": 1.0}}),
         (["index"], {"*": {**HOLD_3KV, "ramp_s": 2.0}})),
        ((["thumb", "index"], {"*": {}}),
         (["thumb", "index"], {"*": {}, "index_mcp": {}})),
    ], ids=["hold_ramp_s_unread", "profiles_spelled_twice"])
    def test_replay_across_equal_schedules_passes(self, tmp_path, first, second):
        cfg_path = write_config(tmp_path, with_presets(a=first, b=second))
        out = tmp_path / "o"
        for preset in ("a", "b"):
            assert run_cli("grasp", "--preset", preset, "--config", str(cfg_path),
                           "--out", str(out)) == 0
        meta_a, meta_b = (json.loads((out / f"{p}_seed0.meta.json").read_text())
                          for p in ("a", "b"))
        assert meta_a["profile_hash"] == meta_b["profile_hash"]
        detector = tmp_path / "detector.json"
        detector.write_text(json.dumps({
            "i_threshold": 1.0, **{key: meta_a[key] for key in (
                "monitored_stack", "profile_hash", "config_hash")}}))
        assert run_cli("replay", "--trace", str(out / "b_seed0.csv"),
                       "--detector", str(detector), "--out", str(out)) == 0
        verdict = json.loads((out / "b_seed0.verdict.json").read_text())
        assert verdict["profile_hash"] == meta_a["profile_hash"]


NAN_NET_AT_REST = "chain index_mcp: net force nan N at x = 0.0 mm is not finite"
INF_CURRENT = "scenario pinch_cube: non-finite value inf in column 'i_meas(uA)'"


def set_key(where, value):
    """A mutate that sets the value at dotted key path where."""
    *parents, key = where.split(".")

    def mutate(doc):
        for part in parents:
            doc = doc[part]
        doc[key] = value
    return mutate


def thumb_only_detection(doc):
    for name in ("detect_free", "detect_cube"):
        doc["presets"][name]["fingers"] = ["thumb"]


def index_without_tendons(doc):
    doc["fingers"]["index"]["tendons"] = []
    doc["presets"]["pinch_cube"]["fingers"] = ["index"]


def without_fingers(*names):
    """Remove fingers, their contact angles and the presets that use them."""
    def mutate(doc):
        for name in names:
            del doc["fingers"][name]
            for obj in doc["objects"].values():
                obj["theta_contact"].pop(name, None)
        doc["presets"] = {key: preset for key, preset in doc["presets"].items()
                          if not set(names) & set(preset["fingers"])}
    return mutate


def index_listed_twice(doc):
    doc["presets"]["pinch_cube"]["fingers"] = ["index", "index"]


def middle_on_index_tendons(doc):
    doc["fingers"]["middle"]["tendons"] = ["index_mcp", "index_pip_dip"]
    doc["presets"]["pinch_cube"]["fingers"] = ["index", "middle"]


class TestBadInputs:
    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("stacks", [1, 2]),
        lambda d: d.__setitem__("sim", "fast"),
    ], ids=["stacks_array", "sim_string"])
    def test_config_block_of_wrong_type_exits_2(self, tmp_path, capsys, mutate):
        cfg_path = write_config(tmp_path, mutate)
        code = run_cli("characterize", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("make_text", [
        lambda doc: "{not json",
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "i_threshold"}),
        lambda doc: json.dumps({**doc, "i_threshold": "abc"}),
    ], ids=["malformed_json", "no_threshold", "non_numeric_threshold"])
    def test_bad_detector_document_exits_2(self, batch_out, tmp_path, make_text):
        doc = json.loads((batch_out / "detector.json").read_text())
        bad = tmp_path / "detector.json"
        bad.write_text(make_text(doc))
        code = run_cli("replay", "--trace", str(batch_out / "detect_cube_seed100000.csv"),
                       "--detector", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2

    # "ramp" ran the same schedule as "ramp_hold" under a kernel key and a
    # profile hash of its own, so a detector refused the identical schedule.
    def test_ramp_profile_kind_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, set_key("presets.pinch_cube.profiles.*.kind", "ramp"))
        out = tmp_path / "o"
        assert run_cli("grasp", "--preset", "pinch_cube", "--config", str(cfg_path),
                       "--out", str(out)) == 2
        assert ("presets.pinch_cube.profiles.*.kind: 'ramp' must be one of ('hold', 'ramp_hold')"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_detection_window_without_a_sample_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, set_key("detection.window", [0.8805, 0.8808]))
        out = tmp_path / "o"
        assert run_cli("detect-batch", "--free", "1", "--grasp", "1", "--config", str(cfg_path),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            "config error: window [0.8805, 0.8808] s holds no sample\n"
        assert not out.exists()

    # Each value is JSON text: an integer beyond Python's int-to-string
    # limit cannot be written by json.dumps, and NaN/Infinity are written
    # as the constants json.dumps would give them.
    @pytest.mark.parametrize("where, text, named", [
        ("detection.smoothing", "5.9", "detection.smoothing"),
        ("detection.baseline_seed", "2.7", "detection.baseline_seed"),
        ("detection.baseline_seed", "-1", "detection.baseline_seed: -1 must be >= 0"),
        ("detection.debounce", "true", "detection.debounce"),
        ("stacks.index_mcp.c0", "true", "stacks.index_mcp.c0"),
        ("stacks.index_mcp.c0", "NaN", "NaN"),
        ("tendons.index_mcp.k_ext", "NaN", "NaN"),
        ("sim.tau_mech", "Infinity", "Infinity"),
        ("amplifier.slew_max", "NaN", "NaN"),
        ("detection.smoothing", "1" + "0" * 5000, "config.json"),
        ("objects.cube.theta_contact.index.mcp", "-0.5", "objects.cube.theta_contact.index.mcp"),
        ("objects.cube.theta_contact.thumb.mcp", "7.0", "objects.cube.theta_contact.thumb.mcp"),
        ("objects.cube.theta_contact.index.knuckle", "0.2",
         "objects.cube.theta_contact.index.knuckle"),
        ("objects.cube.theta_contact.pinkie", '{"mcp": 0.2}', "objects.cube.theta_contact.pinkie"),
        ("presets.pinch_cube.duration", "-1.0", "presets.pinch_cube.duration: -1.0 must be >="),
        ("presets.pinch_cube.duration", "1.0005", "presets.pinch_cube.duration 1.0005 s"),
        ("presets.pinch_cube.amp_ceiling", "6.5", "presets.pinch_cube.amp_ceiling: 6.5"),
        ("sim.tau_mech", "1e-5", "sim: tau_mech 1e-05 s must be >= dt_internal"),
        ("tendons.index_mcp.slack", "1e6", "tendons.index_mcp.slack: 1000000.0 mm must be <"),
        ("stacks.index_mcp.c0", "-1", "stacks.index_mcp.c0: -1.0 must be > 0.0"),
        ("presets.pinch_cube.profiles.index_mpc", '{"kind": "hold", "target_kv": 2.0}',
         "presets.pinch_cube.profiles.index_mpc: the preset drives no stack 'index_mpc'"),
    ], ids=["fractional_int", "fractional_baseline_seed", "negative_baseline_seed", "bool_int",
            "bool_float", "nan_c0", "nan_k_ext", "infinite_tau", "nan_slew", "huge_int",
            "negative_contact_angle", "contact_angle_past_limit", "contact_unknown_joint",
            "contact_unknown_finger", "negative_preset_duration", "preset_duration_off_grid",
            "preset_ceiling_above_amplifier", "tau_below_internal_step",
            "slack_longer_than_stroke", "negative_c0", "profile_of_undriven_stack"])
    def test_number_the_model_cannot_mean_exits_2(self, tmp_path, capsys, where, text, named):
        cfg_path = write_config(tmp_path, set_key(where, "@value@"))
        cfg_path.write_text(cfg_path.read_text().replace('"@value@"', text))
        code = run_cli("grasp", "--preset", "pinch_cube", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    # Each value lies inside its declared domain, yet gives the run an
    # infinite load (a NaN net force at rest), an infinite current or, on
    # balloon_hold, which ramps above v_ref, a force scale past the
    # largest float.
    @pytest.mark.parametrize("where, value, named, preset", [
        ("tendons.index_mcp.eta_fwd", 1e-308, NAN_NET_AT_REST, "pinch_cube"),
        ("tendons.index_mcp.f_ext0", 1e308, NAN_NET_AT_REST, "pinch_cube"),
        ("tendons.index_mcp.k_ext", 1e308, NAN_NET_AT_REST, "pinch_cube"),
        ("tendons.index_mcp.pulley_ratio", 1e308, NAN_NET_AT_REST, "pinch_cube"),
        ("stacks.index_mcp.c0", 1e308,
         "scenario pinch_cube: non-finite value inf in column 'i_meas(uA)' at sample 0",
         "pinch_cube"),
        ("stacks.index_mcp.c_slope", 1e308, INF_CURRENT, "pinch_cube"),
        ("amplifier.monitor_noise_i", 1e308, INF_CURRENT, "pinch_cube"),
        ("stacks.index_mcp.force_exponent", 1e308,
         "chain index_mcp: voltage scale 1.0909090909090908 to the force exponent 1e+308 "
         "overflows", "balloon_hold"),
        ("stacks.index_mcp.v_ref", 1e-300,
         "chain index_mcp: voltage scale 5.5e+300 to the force exponent 2.0 overflows",
         "pinch_cube"),
    ], ids=["tiny_eta_fwd", "huge_f_ext0", "huge_k_ext", "huge_pulley_ratio",
            "huge_c0", "huge_c_slope", "huge_current_noise", "huge_force_exponent",
            "tiny_v_ref"])
    # The refusal is the only thing printed: numpy's overflow and invalid
    # warnings on the way to it are silenced.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_in_domain_value_without_a_finite_run_exits_2(self, tmp_path, capsys, time_limit,
                                                          where, value, named, preset):
        cfg_path = write_config(tmp_path, set_key(where, value))
        out = tmp_path / "o"
        assert run_cli("grasp", "--preset", preset, "--config", str(cfg_path),
                       "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not list(out.rglob("*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_batch_with_infinite_current_exits_2(self, tmp_path, capsys, time_limit):
        # Calibration would otherwise compare inf with inf and exit 4.
        cfg_path = write_config(tmp_path, set_key("stacks.index_mcp.c0", 1e308))
        out = tmp_path / "o"
        assert run_cli("detect-batch", "--free", "1", "--grasp", "1", "--config", str(cfg_path),
                       "--out", str(out)) == 2
        assert ("scenario detect_free: non-finite value inf in column 'i_meas(uA)' at sample 0"
                in capsys.readouterr().err)
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("argv", [
        ("grasp", "--preset", "no_such_grasp"),
        ("detect-batch", "--free", "0", "--grasp", "1"),
        ("replay", "--trace", "absent.csv", "--detector", "absent.json"),
    ], ids=["grasp", "detect_batch", "replay"])
    def test_refused_run_leaves_no_output_directory(self, tmp_path, argv):
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert not out.exists()

    # numpy's seeded generators take no negative seed: refused before any work.
    @pytest.mark.parametrize("argv", [
        ("grasp", "--preset", "pinch_cube", "--seed", "-1"),
        ("detect-batch", "--seed=-5"),
    ], ids=["grasp", "detect_batch"])
    def test_negative_seed_is_refused(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        seed = argv[-1].removeprefix("--seed=")
        assert capsys.readouterr().err.endswith(f"error: argument --seed: {seed} must be >= 0\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ("characterize", "--seed", "1"),
        ("replay", "--trace", "t.csv", "--detector", "d.json", "--config", "x"),
        ("replay", "--trace", "t.csv", "--detector", "d.json", "--seed", "1"),
    ], ids=["characterize_seed", "replay_config", "replay_seed"])
    def test_option_the_verb_does_not_read_is_refused(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, mutate, named", [
        (("detect-batch", "--free", "1", "--grasp", "1"), thumb_only_detection,
         "preset detect_free: controller 'detect' needs detection.monitored_stack 'index_mcp'"),
        (("grasp", "--preset", "pinch_cube"), index_without_tendons,
         "fingers.index: 0 tendon ids for 2 tendon-driven groups"),
        (("grasp", "--preset", "pinch_cube"), index_listed_twice,
         "preset pinch_cube: stack 'index_mcp' is driven twice"),
        (("grasp", "--preset", "pinch_cube"), middle_on_index_tendons,
         "preset pinch_cube: stack 'index_mcp' is driven twice"),
    ], ids=["detection_stack_not_driven", "no_stack_driven", "finger_listed_twice",
            "tendon_shared_by_two_fingers"])
    def test_preset_without_its_monitored_stack_exits_2(self, tmp_path, capsys,
                                                        argv, mutate, named):
        cfg_path = write_config(tmp_path, mutate)
        out = tmp_path / "o"
        code = run_cli(*argv, "--config", str(cfg_path), "--out", str(out))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("mutate, named", [
        (index_without_tendons, "fingers.index: 0 tendon ids for 2 tendon-driven groups"),
        (without_fingers("thumb"), "the config has no thumb"),
        (without_fingers("index"), "the config has no index"),
        (without_fingers("index", "thumb"), "the config has no index and no thumb"),
    ], ids=["finger_without_tendons", "no_thumb", "no_index", "neither"])
    def test_characterize_without_its_fingers_exits_2(self, tmp_path, capsys, mutate, named):
        # A config without the index or thumb finger is valid for the
        # presets it keeps; only the characterize sweeps name both.
        cfg_path = write_config(tmp_path, mutate)
        out = tmp_path / "o"
        assert run_cli("characterize", "--config", str(cfg_path), "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mutate, where", [
        (rename_joint("index", "mcp", "m,cp"), "fingers.index.joints[0].name"),
        (rename_joint("index", "mcp", "mcp\n"), "fingers.index.joints[0].name"),
        (rename_joint("index", "mcp", "mcp\r"), "fingers.index.joints[0].name"),
        (rename_finger("index", "in,dex"), "fingers.in,dex"),
        (rename_stack("index_mcp", "index_mcp\n"), "stacks.index_mcp\n"),
        (index_dip_renamed_pip, "fingers.index.joints[2].name"),
        (index_mcp_key_collision, "fingers.index_mcp.joints[0].name"),
    ], ids=["joint_comma", "joint_lf", "joint_cr", "finger_comma", "stack_lf",
            "joint_name_twice", "finger_joint_key_collision"])
    def test_name_that_breaks_the_trace_header_exits_2(self, tmp_path, capsys, mutate, where):
        # Names key the trace's columns; a comma or line break in one would
        # write a header that replay cannot read back, and two joints with
        # one "<finger>_<joint>" key would write one column for both.
        cfg_path = write_config(tmp_path, mutate)
        out = tmp_path / "o"
        assert run_cli("grasp", "--preset", "pinch_cube", "--config", str(cfg_path),
                       "--out", str(out)) == 2
        assert f"config error: {where}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--trace", "--detector"])
    def test_missing_input_file_exits_2(self, batch_out, tmp_path, capsys, flag):
        files = {"--trace": str(batch_out / "detect_cube_seed100000.csv"),
                 "--detector": str(batch_out / "detector.json"),
                 "--config": str(write_config(tmp_path)),
                 flag: str(tmp_path / "absent.json")}
        out = tmp_path / "o"
        verb = ("replay", "--trace", files["--trace"], "--detector", files["--detector"])
        if flag == "--config":
            verb = ("grasp", "--preset", "pinch_cube", "--config", files["--config"])
        assert run_cli(*verb, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "absent.json" in err
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("flag", ["--config", "--trace", "--detector", "--out"])
    def test_path_of_the_wrong_kind_exits_2(self, batch_out, tmp_path, capsys, flag):
        # A directory given as an input file, or a file given as the output
        # directory, is refused in one line, with nothing written.
        files = {"--trace": str(batch_out / "detect_cube_seed100000.csv"),
                 "--detector": str(batch_out / "detector.json"),
                 "--config": str(write_config(tmp_path)),
                 "--out": str(tmp_path / "o")}
        wrong = tmp_path / "wrong"
        if flag == "--out":
            wrong.write_text("a file")
        else:
            wrong.mkdir()
        files[flag] = str(wrong)
        verb = ("replay", "--trace", files["--trace"], "--detector", files["--detector"])
        if flag == "--config":
            verb = ("grasp", "--preset", "pinch_cube", "--config", files["--config"])
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(*verb, "--out", files["--out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before
        if flag == "--out":
            assert wrong.read_text() == "a file"

    @pytest.mark.parametrize("column, cell", [("i_meas(uA)", "nan"), ("x_index_mcp(mm)", "inf")],
                             ids=["nan_current", "inf_contraction"])
    def test_non_finite_trace_cell_names_row_and_column(self, batch_out, tmp_path, capsys,
                                                        column, cell):
        # The package writes finite values only, so such a cell marks a
        # damaged file, not a trace to give a verdict on.
        rows = (batch_out / "detect_cube_seed100000.csv").read_text().splitlines()
        j = rows[0].split(",").index(column)
        cells = rows[3].split(",")
        cells[j] = cell
        rows[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        copy_meta(batch_out / "detect_cube_seed100000.csv", bad)
        with pytest.raises(TraceSchemaError) as exc:
            load_trace(bad)
        assert exc.value.column == column
        out = tmp_path / "o"
        code = run_cli("replay", "--trace", str(bad),
                       "--detector", str(batch_out / "detector.json"), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"row 3 has a non-finite value in column '{column}': {cell}" in err
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("damaged, change", [([3], -1), ([3], 1), (None, -1)],
                             ids=["one_short_row", "one_long_row", "every_row_short"])
    def test_row_with_wrong_field_count_names_row(self, batch_out, tmp_path, capsys,
                                                  damaged, change):
        # A trace whose every row is one value short is a table of
        # consistent shape, one column too narrow for its header.
        rows = (batch_out / "detect_cube_seed100000.csv").read_text().splitlines()
        n = len(rows[0].split(","))
        damaged = damaged or range(1, len(rows))
        for k in damaged:
            cells = rows[k].split(",")
            rows[k] = ",".join(cells[:-1] if change < 0 else cells + ["0.0"])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        copy_meta(batch_out / "detect_cube_seed100000.csv", bad)
        message = f"row {damaged[0]} has {n + change} values for {n} columns"
        with pytest.raises(TraceSchemaError) as exc:
            load_trace(bad)
        assert str(exc.value) == message
        out = tmp_path / "o"
        code = run_cli("replay", "--trace", str(bad),
                       "--detector", str(batch_out / "detector.json"), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list(out.rglob("*"))

    def test_non_numeric_trace_cell_names_row(self, batch_out, tmp_path, capsys):
        rows = (batch_out / "detect_cube_seed100000.csv").read_text().splitlines()
        cells = rows[3].split(",")
        cells[3] = "abc"
        rows[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(TraceSchemaError, match="row 3"):
            load_trace(bad)
        code = run_cli("replay", "--trace", str(bad),
                       "--detector", str(batch_out / "detector.json"),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "row 3" in capsys.readouterr().err


class TestLateRefusal:
    @pytest.mark.parametrize("argv", [
        ("characterize",),
        ("grasp", "--preset", "pinch_cube"),
        ("detect-batch", "--free", "1", "--grasp", "1"),
        ("replay", "--trace", "{batch}/detect_cube_seed100000.csv",
         "--detector", "{batch}/detector.json"),
    ], ids=["characterize", "grasp", "detect_batch", "replay"])
    def test_refusal_at_the_last_document_writes_nothing(self, batch_out, tmp_path, capsys,
                                                          monkeypatch, argv):
        # A verb's last JSON document is made after all its work: a refusal
        # there must leave no file of the run behind, not even the earlier ones.
        argv = [arg.format(batch=batch_out) for arg in argv]
        encode, calls = cli_module.json_text, []
        monkeypatch.setattr(cli_module, "json_text", lambda doc: calls.append(doc) or encode(doc))
        assert run_cli(*argv, "--out", str(tmp_path / "first")) == 0
        last = len(calls)
        calls.clear()

        def refuse_last(doc):
            calls.append(doc)
            if len(calls) == last:
                raise ConfigError("refused late")
            return encode(doc)

        monkeypatch.setattr(cli_module, "json_text", refuse_last)
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: refused late\n"
        assert not out.exists()


_stall_walk = ChainSim.stall_walk


def halfway_walk(chain, a, offset):
    """A broken ChainSim.stall_walk: lands halfway to each stall point,
    with the residual there."""
    target = 0.5 * _stall_walk(chain, a, offset)[0]
    return target, np.abs(chain.net(a, target) - offset)


class TestModelConsistency:
    def test_broken_stall_walk_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ChainSim, "stall_walk", halfway_walk)
        out = tmp_path / "o"
        assert run_cli("grasp", "--preset", "pinch_cube", "--out", str(out)) == 3
        assert "stall residual" in capsys.readouterr().err
        assert not list(out.rglob("*"))


class TestOutputDirOverride:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("HASELHAND_OUT", str(target))
        assert run_cli("characterize", "--out", str(tmp_path / "ignored")) == 0
        assert (target / "characterize.meta.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestOneProcess:
    def test_repeated_calls_write_the_same_bytes(self, batch_out, tmp_path, monkeypatch):
        # The parser and the built-in config are built once per process:
        # no call may change what a later call writes.
        builtin = cli_module._builtin_config()

        def good_calls(root):
            return [
                ("characterize", "--out", root / "characterize"),
                ("grasp", "--preset", "balloon_hold", "--out", root / "grasp"),
                ("detect-batch", "--free", "1", "--grasp", "1", "--out", root / "batch"),
                ("replay", "--trace", batch_out / "detect_cube_seed100000.csv",
                 "--detector", root / "batch" / "detector.json", "--out", root / "replay"),
            ]

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        monkeypatch.setenv("HASELHAND_OUT", str(tmp_path / "env"))
        assert run_cli("characterize", "--out", str(tmp_path / "ignored")) == 0
        monkeypatch.delenv("HASELHAND_OUT")
        for argv in good_calls(tmp_path / "first"):
            assert run_cli(*map(str, argv)) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli("grasp", "--preset", "pinch_cube", "--seed", "-1")
        assert exc.value.code == 2
        assert run_cli("grasp", "--preset", "no_such_preset",
                       "--out", str(tmp_path / "refused")) == 2
        for argv in good_calls(tmp_path / "second"):
            assert run_cli(*map(str, argv)) == 0

        first = files(tmp_path / "first")
        assert len(first) == 10
        assert files(tmp_path / "second") == first
        assert files(tmp_path / "env") == files(tmp_path / "first" / "characterize")
        assert not (tmp_path / "ignored").exists()
        assert not (tmp_path / "refused").exists()
        assert cli_module._builtin_config() is builtin
        assert builtin == default_config()
        assert builtin.fingerprint == config_hash(builtin) == config_hash(default_config())

    def test_second_calls_reuse_the_memo_and_write_the_same_bytes(self, tmp_path, monkeypatch):
        # The built-in config keeps detect-batch's two class records and
        # balloon_hold's baseline and episode records, the latter with its
        # held traces: a second call builds no Plant and steps nothing, yet
        # each writes the first call's bytes. A controlled grasp that holds
        # at a new sample steps a held copy from the hold on, and nothing
        # else. Each memoized call at a new seed writes what a freshly
        # loaded copy of the config does.
        batch = ("detect-batch", "--free", "1", "--grasp", "2", "--seed", "7")
        grasp = ("grasp", "--preset", "balloon_hold", "--seed", "3")
        for argv in (batch, grasp):
            assert run_cli(*argv, "--out", str(tmp_path / "first")) == 0

        counts = {"steps": 0, "plants": 0}

        def counting(key, fn, size=lambda *args: 1):
            def wrapper(*args):
                counts[key] += size(*args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ChainSim, "run",
                            counting("steps", ChainSim.run, lambda chain, v, r: len(v)))
        monkeypatch.setattr(Plant, "__init__", counting("plants", Plant.__init__))
        assert run_cli(*batch, "--out", str(tmp_path / "second")) == 0
        assert counts == {"steps": 0, "plants": 0}
        assert run_cli(*grasp, "--out", str(tmp_path / "second")) == 0
        assert counts == {"steps": 0, "plants": 0}
        memo = cli_module._builtin_config().memo.values()
        assert memo and all(None in record.free for record in memo)

        def files(root):
            return {p.name: p.read_bytes() for p in root.iterdir()}

        assert len(files(tmp_path / "first")) == 5
        assert files(tmp_path / "second") == files(tmp_path / "first")

        # Seed 3 holds at 0.886 s, seed 0 a sample earlier.
        config, new_hold = write_config(tmp_path), ("grasp", "--preset", "balloon_hold", "--seed", "0")
        assert run_cli(*new_hold, "--out", str(tmp_path / "held")) == 0
        record = cli_module._builtin_config().memo[("balloon_hold", False)]
        assert record.free.keys() == {None, 885, 886}
        held_steps = (record.n_samples - 1 - 885) * record.sim.steps_per_sample
        assert counts == {"steps": held_steps * len(record.kernels), "plants": 0}
        assert run_cli(*new_hold, "--config", str(config), "--out", str(tmp_path / "held_fresh")) == 0
        assert files(tmp_path / "held") == files(tmp_path / "held_fresh")

        counts["steps"] = 0
        new_seed = ("detect-batch", "--free", "2", "--grasp", "1", "--seed", "11")
        assert run_cli(*new_seed, "--out", str(tmp_path / "memo")) == 0
        assert counts["steps"] == 0
        assert run_cli(*new_seed, "--config", str(config), "--out", str(tmp_path / "fresh")) == 0
        assert counts["steps"] > 0
        assert files(tmp_path / "memo") == files(tmp_path / "fresh")

    def test_open_loop_grasp_reuses_its_record(self, tmp_path, monkeypatch):
        # A second uncontrolled grasp finds its record stepped and
        # assembled: it steps no chain and writes the first call's bytes.
        grasp = ("grasp", "--preset", "balloon_hold", "--no-controller")
        assert run_cli(*grasp, "--seed", "3", "--out", str(tmp_path / "first")) == 0
        steps = [0]
        real = ChainSim.run

        def counted(chain, v, dt_over_tau):
            steps[0] += len(v)
            return real(chain, v, dt_over_tau)

        monkeypatch.setattr(ChainSim, "run", counted)
        for seed in ("4", "3"):
            assert run_cli(*grasp, "--seed", seed, "--out", str(tmp_path / "second")) == 0
        assert steps == [0]
        first = {p.name: p.read_bytes() for p in (tmp_path / "first").iterdir()}
        assert len(first) == 3
        assert all((tmp_path / "second" / name).read_bytes() == text
                   for name, text in first.items())

    def test_a_failed_batch_is_not_kept(self, tmp_path, capsys, monkeypatch):
        # A record that failed its check may be stepped part-way: none is
        # kept, so the same call unpatched writes what a fresh process does.
        argv = ["detect-batch", "--free", "1", "--grasp", "1", "--seed", "5"]
        with monkeypatch.context() as patch:
            patch.setattr(ChainSim, "stall_walk", halfway_walk)
            assert run_cli(*argv, "--out", str(tmp_path / "broken")) == 3
        assert "stall residual" in capsys.readouterr().err
        memo = cli_module._builtin_config().memo
        assert memo == {}
        assert run_cli(*argv, "--out", str(tmp_path / "again")) == 0
        assert set(memo) == {("detect_free", "detect-batch"), ("detect_cube", "detect-batch")}

        src = Path(cli_module.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "HASELHAND_OUT"}
        subprocess.run([sys.executable, "-m", "haselhand.cli", *argv, "--out", "fresh"],
                       cwd=tmp_path, env={**env, "PYTHONPATH": str(src)}, check=True,
                       capture_output=True)
        names = ("detect_batch_summary.json", "detector.json")
        assert [(tmp_path / "again" / n).read_bytes() for n in names] == \
            [(tmp_path / "fresh" / n).read_bytes() for n in names]
        assert not (tmp_path / "broken").exists()

    def test_a_loaded_config_keeps_nothing(self, tmp_path, monkeypatch):
        # A --config call's records live and die with the config it loaded;
        # the built-in config's memo is left as it was.
        calls = [("detect-batch", "--free", "1", "--grasp", "1"),
                 ("grasp", "--preset", "balloon_hold")]
        builtin = cli_module._builtin_config()
        for argv in calls:
            assert run_cli(*argv, "--out", str(tmp_path / "builtin")) == 0
        kept = dict(builtin.memo)
        assert set(kept) == {("detect_free", "detect-batch"), ("detect_cube", "detect-batch"),
                             ("balloon_hold", "baseline"), ("balloon_hold", False)}
        assert all(isinstance(record, Plant) for record in kept.values())

        loaded, load = [], cli_module.load_config

        def load_config(path):
            cfg = load(path)
            loaded.append((weakref.ref(cfg), cfg.memo))
            return cfg

        monkeypatch.setattr(cli_module, "load_config", load_config)
        base = Path(__file__).resolve().parents[1] / "perfbench" / "base_config.json"
        for argv in calls:
            assert run_cli(*argv, "--config", str(base), "--out", str(tmp_path / "base")) == 0
        assert [len(memo) for _, memo in loaded] == [2, 2]
        assert [ref() for ref, _ in loaded] == [None, None]
        assert builtin.memo.keys() == kept.keys()
        assert all(builtin.memo[key] is value for key, value in kept.items())


BASE_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "base_config.json"

# The calls of TestCallOrder: a grasp or a detect-batch by its arguments,
# and a replay by the earlier grasp whose trace it reads (an index, taken
# modulo the grasps that wrote one).
GRASP_CALLS = st.tuples(st.just("grasp"), st.sampled_from(("balloon_hold", "pinch_cube", "tripod_toy")),
                        st.integers(0, 6), st.sampled_from(("", "--no-controller", "--no-object")))
# A controlled balloon_hold holds at sample 885 (seeds 0, 2, 9, 19 and 20)
# or 886 (the others), so two hold samples of one record meet in a list.
HELD_CALLS = st.tuples(st.just("grasp"), st.just("balloon_hold"), st.integers(0, 20), st.just(""))
BATCH_CALLS = st.tuples(st.just("detect-batch"), st.integers(1, 2), st.integers(1, 2),
                        st.integers(0, 6))
REPLAY_CALLS = st.tuples(st.just("replay"), st.integers(0, 7))


def argv_of(call) -> list[str]:
    """The CLI arguments, without --out, of a grasp or detect-batch call."""
    if call[0] == "grasp":
        _, preset, seed, flag = call
        return ["grasp", "--preset", preset, "--seed", str(seed), *([flag] if flag else [])]
    _, free, grasp, seed = call
    return ["detect-batch", "--free", str(free), "--grasp", str(grasp), "--seed", str(seed)]


def written(out: Path) -> dict[str, bytes]:
    """The files a call wrote into out, by name; none if it made no out."""
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """Runs a call once per key, under --config perfbench/base_config.json
    (the built-in config, loaded afresh, so the call computes everything
    anew); returns its exit code and output directory."""
    root, done = tmp_path_factory.mktemp("fresh"), {}

    def run(key, argv):
        if key not in done:
            out = root / str(len(done))
            done[key] = run_cli(*argv, "--out", str(out)), out
        return done[key]

    return run


class TestCallOrder:
    @given(st.one_of(st.none(), GRASP_CALLS, BATCH_CALLS),
           st.lists(st.one_of(GRASP_CALLS, HELD_CALLS, BATCH_CALLS, REPLAY_CALLS),
                    min_size=1, max_size=8))
    # Both hold samples, one held trace encoded three times and replayed, a
    # --no-object record beside its object one, and records a broken call
    # left behind; then a broken controlled grasp, and the same call again.
    @example(broken=("detect-batch", 1, 2, 5), calls=[
        ("grasp", "balloon_hold", 3, ""), ("grasp", "balloon_hold", 0, ""),
        ("grasp", "balloon_hold", 4, ""), ("grasp", "balloon_hold", 5, ""), ("replay", 3),
        ("detect-batch", 1, 2, 5), ("grasp", "pinch_cube", 1, "--no-object"),
        ("grasp", "pinch_cube", 1, "")])
    @example(broken=("grasp", "balloon_hold", 3, ""), calls=[("grasp", "balloon_hold", 3, "")])
    @settings(max_examples=15, deadline=None)
    def test_no_order_of_calls_changes_their_bytes(self, batch_out, fresh_run, broken, calls):
        # One process from a fresh built-in config runs the calls in order,
        # the first under a broken stall walk if broken names one, so that
        # it raises part-way. Each call writes the files and exit code of
        # its twin on a freshly loaded config, under the same walk.
        cli_module._builtin_config.cache_clear()
        grasps, detectors = [], [(("batch_out",), batch_out, batch_out)]
        with tempfile.TemporaryDirectory() as tmp:
            for i, call in enumerate(([] if broken is None else [broken]) + calls):
                patched = broken is not None and i == 0
                if call[0] == "replay":
                    if not grasps:
                        continue
                    (source, *traces), (det, *dets) = grasps[call[1] % len(grasps)], detectors[-1]
                    stem = f"{source[2]}_seed{source[3]}.csv"
                    key = ("replay", source, det)
                    mine, theirs = (["replay", "--trace", str(trace / stem), "--detector",
                                     str(d / "detector.json")] for trace, d in zip(traces, dets))
                else:
                    key = (patched, *call)
                    mine = argv_of(call)
                    theirs = [*mine, "--config", str(BASE_CONFIG)]
                out = Path(tmp) / str(i)
                with (mock.patch.object(ChainSim, "stall_walk", halfway_walk) if patched
                      else contextlib.nullcontext()):
                    code = run_cli(*mine, "--out", str(out))
                    fresh_code, fresh_out = fresh_run(key, theirs)
                assert (code, written(out)) == (fresh_code, written(fresh_out)), (i, call)
                assert code == 3 or not patched
                if code == 0 and call[0] == "grasp":
                    grasps.append((key, out, fresh_out))
                elif code == 0 and call[0] == "detect-batch":
                    detectors.append((key, out, fresh_out))
