import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haselhand import (
    BaselineExhaustedError,
    CalibrationError,
    ContactAwareController,
    InsufficientDataError,
    calibrate_threshold,
    detect_grasp,
    record_baseline,
    resolve_scenario,
    run_grasp_episode,
    run_scenario,
    smooth_causal,
)
from haselhand import config as config_module
from haselhand.config import DetectionConfig, ProfileSpec, ScenarioPreset, resolve_preset
from haselhand.errors import ConfigError
from haselhand.plant import Plant
from haselhand.trace import SignalTrace, load_trace
from oracles import StreamingDetector, slew, window_mean


def synthetic_trace(i_values, dt=1e-3, profile_hash="p0") -> SignalTrace:
    n = len(i_values)
    t = np.arange(n) * dt
    z = np.zeros(n)
    return SignalTrace(
        t=t, v_cmd=z, v_meas=z, i_meas=np.asarray(i_values, float),
        theta={}, f_contact={}, x={}, c={},
        meta={"profile_hash": profile_hash, "dt_sample": dt},
    )


def det_cfg(**kw) -> DetectionConfig:
    args = dict(monitored_stack="index_mcp", i_threshold=None,
                window=(0.88, 0.99), smoothing=5, debounce=10)
    args.update(kw)
    return DetectionConfig(**args)


class TestSmoothing:
    def test_warmup_then_window_mean(self):
        out = smooth_causal([1, 2, 3, 4, 5, 6], 3)
        assert out[0] == 1.0
        assert out[1] == 1.5
        assert out[2] == pytest.approx(2.0)
        assert out[5] == pytest.approx(5.0)

    def test_identity_for_length_one(self):
        vals = [3.0, 1.0, 4.0]
        assert list(smooth_causal(vals, 1)) == vals

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_equals_sliding_window_sum_bit_for_bit(self, cfg, n):
        # Detection, calibration and the controller all read this array,
        # so it must be the plain oldest-first window mean, not a cumsum
        # difference that drifts in the last bits.
        i = run_scenario(resolve_scenario(cfg, "detect_cube"), seed=3).i_meas
        expected = [window_mean(i[max(0, k + 1 - n):k + 1].tolist()) for k in range(len(i))]
        assert smooth_causal(i, n).tobytes() == np.array(expected).tobytes()


class TestCalibrateThreshold:
    def test_midpoint_rule(self):
        free = [synthetic_trace([1.0] * 1000)]
        grasp = [synthetic_trace([0.4] * 1000)]
        cfg = det_cfg()
        assert calibrate_threshold(free, grasp, cfg) == pytest.approx(0.7)

    def test_identical_classes_fail(self):
        same = [synthetic_trace([1.0] * 1000)]
        with pytest.raises(CalibrationError) as err:
            calibrate_threshold(same, same, det_cfg())
        assert err.value.min_free <= err.value.max_grasp

    def test_needs_both_classes(self):
        with pytest.raises(ConfigError):
            calibrate_threshold([], [synthetic_trace([0.4] * 1000)], det_cfg())

    def test_mixed_profiles_rejected(self):
        a = synthetic_trace([1.0] * 1000, profile_hash="pA")
        b = synthetic_trace([0.4] * 1000, profile_hash="pB")
        with pytest.raises(ConfigError):
            calibrate_threshold([a], [b], det_cfg())

    def test_separates_twenty_simulated_windows(self, cfg, calibration_traces,
                                                calibrated_detection):
        # Oracle: a brute-force scan over the pooled window samples must
        # find the same separating band the midpoint rule picked.
        free, grasp = calibration_traces
        det = calibrated_detection
        lo, hi = det.window

        def window_samples(trace):
            sm = smooth_causal(trace.i_meas, det.smoothing)
            mask = (trace.t >= lo - 1e-9) & (trace.t <= hi + 1e-9)
            return sm[mask]

        free_vals = np.concatenate([window_samples(t) for t in free])
        grasp_vals = np.concatenate([window_samples(t) for t in grasp])
        # Scan all candidate thresholds halfway between adjacent pooled samples.
        pooled = np.sort(np.concatenate([free_vals, grasp_vals]))
        candidates = 0.5 * (pooled[1:] + pooled[:-1])
        separating = [
            c for c in candidates
            if (grasp_vals < c).all() and (free_vals > c).all()
        ]
        assert separating, "oracle found no separating threshold"
        assert grasp_vals.max() < det.i_threshold < free_vals.min()

    def test_threshold_strictly_between_extrema(self, calibration_traces,
                                                calibrated_detection):
        free, grasp = calibration_traces
        det = calibrated_detection
        thr = det.i_threshold
        assert thr is not None and thr > 0


class TestDetectGrasp:
    def test_cube_episode_detected(self, cfg, calibrated_detection):
        trace = run_scenario(resolve_scenario(cfg, "detect_cube"), seed=0)
        grasped, t_dec = detect_grasp(trace, calibrated_detection)
        assert grasped
        assert calibrated_detection.window[0] <= t_dec <= calibrated_detection.window[1]

    def test_free_motion_not_detected(self, cfg, calibrated_detection):
        trace = run_scenario(resolve_scenario(cfg, "detect_free"), seed=0)
        grasped, t_dec = detect_grasp(trace, calibrated_detection)
        assert not grasped
        assert t_dec is None

    def test_constant_zero_detects_at_window_start(self):
        cfg = det_cfg(i_threshold=0.5)
        trace = synthetic_trace([0.0] * 1001)
        grasped, t_dec = detect_grasp(trace, cfg)
        assert grasped
        assert t_dec == pytest.approx(0.88)

    def test_short_trace_is_insufficient(self):
        cfg = det_cfg(i_threshold=0.5)
        with pytest.raises(InsufficientDataError):
            detect_grasp(synthetic_trace([0.0] * 500), cfg)

    def test_uncalibrated_detector_rejected(self):
        with pytest.raises(ConfigError):
            detect_grasp(synthetic_trace([0.0] * 1001), det_cfg())

    def test_streaming_matches_offline(self, cfg, calibrated_detection):
        trace = run_scenario(resolve_scenario(cfg, "detect_cube"), seed=3)
        offline = detect_grasp(trace, calibrated_detection)
        det = StreamingDetector(calibrated_detection)
        for k in range(len(trace)):
            det.feed(float(trace.t[k]), float(trace.i_meas[k]))
        assert det.verdict() == offline

    def test_debounce_swallows_single_dips(self):
        cfg = det_cfg(i_threshold=0.5)
        values = [1.0] * 1001
        values[900] = 0.0  # one-sample dip inside the window
        grasped, _ = detect_grasp(synthetic_trace(values), cfg)
        assert not grasped

    @given(data=st.data(), smoothing=st.integers(1, 8), debounce=st.integers(1, 15))
    @settings(max_examples=300, deadline=None)
    def test_vectorised_matches_streaming_oracle(self, data, smoothing, debounce):
        # Currents from a few levels around the threshold (long runs on
        # either side, also across either window edge) plus arbitrary
        # values; windows of any length, also shorter than the debounce,
        # and traces that end before the window does.
        n = data.draw(st.integers(1, 60), label="n")
        lo = data.draw(st.integers(0, n - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, n + 2), label="hi")
        level = st.sampled_from([0.0, 0.4, 0.5, 0.6, 1.0])
        values = data.draw(st.lists(level | st.floats(-5, 5), min_size=n, max_size=n),
                           label="values")
        thr = data.draw(st.sampled_from([0.5, 0.55]) | st.floats(0.01, 5), label="thr")
        cfg = det_cfg(i_threshold=thr, window=(lo * 1e-3, hi * 1e-3),
                      smoothing=smoothing, debounce=debounce)
        trace = synthetic_trace(values)
        oracle = StreamingDetector(cfg)
        for t, i in zip(trace.t.tolist(), values):
            oracle.feed(t, i)
        try:
            expected = oracle.verdict()
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                detect_grasp(trace, cfg)
            return
        got = detect_grasp(trace, cfg)
        assert got == expected
        assert type(got[0]) is bool


def flat_controller(level=1.0, n=1000, **det) -> ContactAwareController:
    """Controller on a noise-free flat baseline: the threshold is the floor."""
    return ContactAwareController(synthetic_trace([level] * n),
                                  det_cfg(deviation_floor=0.2, **det))


def hold_at(k):
    """Stub commander that holds at sample k as soon as it may name it."""
    return lambda i_meas: k if len(i_meas) >= k else None


def run_with_commander(cfg, decide):
    """pinch_cube under a stub commander; returns the trace and the
    number of samples the commander saw at each call."""
    calls = []

    def commander(i_meas):
        calls.append(len(i_meas))
        return decide(i_meas)

    trace = run_scenario(resolve_scenario(cfg, "pinch_cube"), 0, commander)
    return trace, calls


# Three distinct schedules; thumb_mcp is still below its onset at 0.85 s.
MIXED_SCHEDULES = ScenarioPreset(("thumb", "index"), profiles={
    "*": ProfileSpec("ramp_hold", 5.5, 1.0),
    "thumb_mcp": ProfileSpec("ramp_hold", 5.5, 1.4),
    "thumb_ip": ProfileSpec("hold", 4.0),
})


class TestContactAwareStep:
    def test_pass_through_below_threshold(self):
        ctrl = flat_controller(1.05)
        assert ctrl.deviation_threshold == 0.2
        assert ctrl.command(np.empty(0)) is None
        assert ctrl.command(np.array([1.0])) is None
        assert ctrl.command(np.full(1000, 0.86)) is None

    def test_holds_previous_command_on_deviation(self, cfg):
        ctrl = flat_controller(1.0)
        assert ctrl.command(np.ones(499)) is None
        # Sample 499 drops to -0.5: smoothed over five samples 0.7, so the
        # hold is at the next sample, 500.
        assert ctrl.command(np.append(np.ones(499), -0.5)) == 500
        assert ctrl.command(np.array([1.0, -0.5])) == 2  # warmup: mean 0.25
        # The plant holds the command of the sample before the decision.
        trace, _ = run_with_commander(cfg, hold_at(500))
        k = 500
        assert trace.t[k] == pytest.approx(0.5)
        assert trace.v_cmd[k - 1] > 0.0
        assert (trace.v_cmd[k:] == trace.v_cmd[k - 1]).all()
        assert trace.meta["events"]["hold"] == [
            {"t": float(trace.t[k]), "v_held": float(trace.v_cmd[k - 1])}]
        assert trace.meta["controller_modes"]["final"] == "holding"

    def test_immediate_contact_holds_at_zero(self, cfg):
        assert flat_controller(1.0).command(np.array([0.0])) == 1
        trace, calls = run_with_commander(cfg, lambda i: 0)
        # One call, on every sample of the open-loop run but the last.
        assert calls == [len(trace) - 1]
        assert trace.meta["events"]["hold"] == [{"t": 0.0, "v_held": 0.0}]
        assert (trace.v_cmd == 0.0).all()
        assert all((x == 0.0).all() for x in trace.x.values())

    def test_holding_never_reverts(self, cfg):
        trace, calls = run_with_commander(cfg, hold_at(400))
        # The commander is called once; the held run does not consult it.
        assert calls == [len(trace) - 1]
        held = trace.v_cmd[trace.t >= 0.4 - 1e-9]
        assert (held == held[0]).all()
        assert len(trace.meta["events"]["hold"]) == 1

    def test_hold_stops_every_schedule(self, cfg):
        # The hold at 0.85 s must rewrite each schedule, not only the
        # monitored one. Open loop, thumb_mcp goes on to 1.17 mm.
        scenario = resolve_preset(cfg, "mixed", MIXED_SCHEDULES)
        open_loop = run_scenario(scenario, 0)
        held = run_scenario(scenario, 0, hold_at(850))
        assert held.meta["events"]["hold"][0]["t"] == pytest.approx(0.85)
        for tid, x in held.x.items():
            assert x[-1] <= open_loop.x[tid][-1]
        assert open_loop.x["thumb_mcp"][-1] == pytest.approx(1.17, abs=0.01)
        assert held.x["thumb_mcp"][-1] == 0.0

    def test_hold_slews_each_schedule_from_the_hold_step(self, cfg, monkeypatch):
        # Up to step 8,500 (sample 850) each schedule's applied voltage is
        # the open-loop one; after it, the slew toward the held command.
        # The record the hold copies stays open loop.
        real, holds = Plant.held_at, []
        monkeypatch.setattr(Plant, "held_at", lambda plant, k: holds.append(
            (plant, real(plant, k))) or holds[-1][1])
        scenario = resolve_preset(cfg, "mixed", MIXED_SCHEDULES)
        run_scenario(scenario, 0, hold_at(850))
        ((record, held),) = holds
        open_loop = Plant(scenario).volts
        assert record.hold is None
        assert {key: v.tobytes() for key, v in record.volts.items()} == \
            {key: v.tobytes() for key, v in open_loop.items()}
        j, amp = 850 * cfg.sim.steps_per_sample, scenario.amplifier
        specs = {p.identity: p for p in held.schedules}
        assert len(held.volts) == 3
        for key, v in held.volts.items():
            p = specs[key]
            assert v[:j + 1].tobytes() == open_loop[key][:j + 1].tobytes()
            cmd = np.full(len(v) - j - 1, min(p(849 * cfg.sim.dt_sample), amp.v_ceiling))
            tail = slew(cmd, float(v[j]), amp.slew_max * cfg.sim.dt_internal, amp.v_ceiling)
            assert v[j + 1:].tobytes() == tail.tobytes()

    def test_baseline_is_read_only(self):
        # A controller decides from the baseline it was built with.
        ctrl = flat_controller(1.0)
        with pytest.raises(ValueError, match="read-only"):
            ctrl.baseline_smoothed[0] = 0.0

    def test_exhausted_baseline_raises(self):
        ctrl = flat_controller(1.0, n=10)
        assert ctrl.command(np.ones(10)) is None
        with pytest.raises(BaselineExhaustedError):
            ctrl.command(np.ones(11))
        # A drop inside the baseline still holds before it runs out.
        assert ctrl.command(np.append(np.ones(9), [-5.0, 1.0])) == 10


def oracle_hold_sample(i_meas, baseline_i, n, threshold):
    """First sample k whose previous sample's window mean lies more than
    threshold below the baseline's, walked sample by sample; a window of
    m < n samples takes threshold * sqrt(n / m)."""
    for k in range(1, len(baseline_i) + 1):
        lo = max(0, k - n)
        drop = window_mean(baseline_i[lo:k]) - window_mean(i_meas[lo:k])
        if drop > threshold * math.sqrt(n / (k - lo)):
            return k
    return None


class TestContactAwareSearch:
    def test_balloon_holds_where_per_sample_oracle_does(self, cfg):
        baseline = record_baseline(cfg, "balloon_hold")
        ctrl = ContactAwareController(baseline, cfg.detection)
        base_i = baseline.i_meas.tolist()
        for seed in range(25):
            report = run_grasp_episode(cfg, "balloon_hold", seed)
            k_hold = round(report.verdicts["contact_time"] / cfg.sim.dt_sample)
            # Samples before the hold are the open-loop ones the controller saw.
            expected = oracle_hold_sample(report.trace.i_meas.tolist(), base_i,
                                          cfg.detection.smoothing, ctrl.deviation_threshold)
            assert k_hold == expected, seed

    def test_hold_does_not_depend_on_later_samples(self, cfg):
        scenario = resolve_scenario(cfg, "balloon_hold")
        baseline = record_baseline(cfg, "balloon_hold")
        ctrl = ContactAwareController(baseline, cfg.detection)
        i_meas = run_scenario(scenario, seed=0).i_meas[:-1]
        k = ctrl.command(i_meas)
        assert k is not None and 0 < k < len(i_meas)
        assert ctrl.command(i_meas[:k]) == k
        for junk in (1e6, -1e6, np.nan):
            changed = i_meas.copy()
            changed[k:] = junk
            assert ctrl.command(changed) == k

    @pytest.mark.parametrize("mult", [3, 10])
    def test_noise_alone_never_holds_before_the_finger_moves(self, cfg, mult):
        # The first smoothing - 1 samples average fewer values, so their
        # noise is larger than a full window's. At mult times the shipped
        # monitor noise, a threshold that does not grow with it holds on
        # noise alone at 0.001 s (seed 13 at 3x).
        amp = cfg.amplifier
        noisy = replace(cfg, amplifier=replace(amp, monitor_noise_v=mult * amp.monitor_noise_v,
                                               monitor_noise_i=mult * amp.monitor_noise_i))
        free = run_grasp_episode(noisy, "balloon_hold", 0, drop_object=True,
                                 controller="none").trace
        moves = float(free.t[np.argmax(free.x[free.meta["monitored_stack"]] > 0.0)])
        assert moves == pytest.approx(0.819)
        for seed in range(100):
            held = run_grasp_episode(noisy, "balloon_hold", seed).verdicts["contact_time"]
            assert held is None or held >= moves, seed


class TestGraspEpisodes:
    def test_balloon_episode_holds_without_crushing(self, cfg):
        report = run_grasp_episode(cfg, "balloon_hold", seed=0)
        v = report.verdicts
        assert v["held"]
        assert not v["crushed"]
        assert v["max_contact_force"] < v["f_crush"]
        # The report's model-side bound covers what the trace shows.
        assert v["max_contact_force"] <= v["force_bound"] + 1e-9
        assert any(e["type"] == "hold" for e in report.events)

    def test_monotone_hold_after_transition(self, cfg):
        report = run_grasp_episode(cfg, "balloon_hold", seed=1)
        trace = report.trace
        hold_t = report.trace.meta["events"]["hold"][0]["t"]
        held_samples = trace.v_cmd[trace.t >= hold_t - 1e-9]
        assert len(held_samples) > 10
        assert (held_samples == held_samples[0]).all()

    def test_disabled_controller_crushes(self, cfg):
        report = run_grasp_episode(cfg, "balloon_hold", seed=0, controller="none")
        assert report.verdicts["crushed"]
        assert report.verdicts["max_contact_force"] > report.verdicts["f_crush"]

    def test_absurd_threshold_reports_crush_honestly(self, cfg):
        det = replace(cfg.detection, deviation_floor=1e9)
        report = run_grasp_episode(replace(cfg, detection=det), "balloon_hold", seed=0)
        # Oracle: the crush verdict must agree with the trace forces.
        max_fc = max(float(a.max()) for a in report.trace.f_contact.values())
        assert not report.verdicts["held"]
        assert report.verdicts["crushed"] == (max_fc > cfg.objects["paper_balloon"].f_crush)
        assert report.verdicts["crushed"]

    def test_cube_episode_verdict_matches_offline_replay(self, cfg, calibrated_detection):
        report = run_grasp_episode(replace(cfg, detection=calibrated_detection),
                                   "detect_cube", seed=0)
        assert report.verdicts["grasped"]
        offline = detect_grasp(report.trace, calibrated_detection)
        assert offline == (report.verdicts["grasped"], report.verdicts["decision_time"])

    def test_free_episode_not_grasped(self, cfg, calibrated_detection):
        report = run_grasp_episode(replace(cfg, detection=calibrated_detection),
                                   "detect_free", seed=0)
        assert not report.verdicts["grasped"]
        assert not report.verdicts["stable"]

    def test_controlled_episode_hashes_config_once(self, monkeypatch):
        # A fresh config: the session's has computed its fingerprint already.
        cfg = config_module.default_config()
        calls = []
        real = config_module.config_hash
        monkeypatch.setattr(config_module, "config_hash",
                            lambda c: calls.append(c) or real(c))
        run_grasp_episode(cfg, "balloon_hold", seed=0)
        assert len(calls) == 1
        run_grasp_episode(cfg, "balloon_hold", seed=0)
        assert len(calls) == 1

    def test_controlled_episodes_of_a_config_share_one_baseline(self, monkeypatch):
        # The baseline depends on the config and the preset alone: the
        # config records it once, for episodes of any seed or object, and
        # an episode on its memo is the episode on a fresh config.
        cfg, built = config_module.default_config(), []
        real = Plant.__init__
        monkeypatch.setattr(Plant, "__init__", lambda plant, scenario: built.append(scenario)
                            or real(plant, scenario))

        def baselines():  # the monitored chain alone, without the object
            return sum(len(s.chains) == 1 and s.obj is None for s in built)

        run_grasp_episode(cfg, "balloon_hold", seed=0)
        memoized = [run_grasp_episode(cfg, "balloon_hold", seed=5, drop_object=drop)
                    for drop in (False, True)]
        assert baselines() == 1
        for drop, report in zip((False, True), memoized):
            fresh = run_grasp_episode(config_module.default_config(), "balloon_hold",
                                      seed=5, drop_object=drop)
            assert report.trace.to_csv_text() == fresh.trace.to_csv_text()
            assert report.to_dict() == fresh.to_dict()
        assert baselines() == 3
        run_grasp_episode(replace(cfg), "balloon_hold", seed=0)
        assert baselines() == 4

    def test_negative_seed_is_refused(self, cfg):
        with pytest.raises(ConfigError, match="seed -1 must be >= 0"):
            run_grasp_episode(cfg, "pinch_cube", -1)

    def test_truncated_baseline_exhausts(self, cfg):
        scenario = resolve_scenario(cfg, "balloon_hold")
        baseline = record_baseline(cfg, "balloon_hold")
        cut = len(baseline.t) // 4
        truncated = replace(baseline, t=baseline.t[:cut], i_meas=baseline.i_meas[:cut])
        det = replace(cfg.detection, deviation_floor=1e9)  # never trigger
        ctrl = ContactAwareController(truncated, det)
        # Without the check, the ramp would run on past the baseline uncontrolled.
        i_meas = run_scenario(scenario, seed=0).i_meas
        assert ctrl.command(i_meas[:cut]) is None
        with pytest.raises(BaselineExhaustedError):
            ctrl.command(i_meas[:cut + 1])

    def test_baseline_round_trip(self, cfg, tmp_path):
        baseline = record_baseline(cfg, "balloon_hold")
        path = baseline.save(tmp_path / "baseline.csv")
        loaded = load_trace(path)
        assert np.array_equal(loaded.i_meas, baseline.i_meas)
        assert loaded.meta["profile_hash"] == baseline.meta["profile_hash"]
        threshold = ContactAwareController(baseline, cfg.detection).deviation_threshold
        assert ContactAwareController(loaded, cfg.detection).deviation_threshold == threshold
