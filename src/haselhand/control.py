"""Sensorless grasp sensing and control from the monitored current.

The drawn current of a stack carries its motion: the v * dC/dt term
collapses when an object halts the finger, so a grasp shows up as the
current dropping below a calibrated threshold, and contact shows up as
the current deviating from a pre-recorded free-motion baseline. Both
decisions are searches over one array, the monitor samples after the
moving average smooth_causal; detection additionally debounces over
consecutive samples so single noise excursions cannot trigger it.

Contact-aware control is one decision. The baseline is the free-motion
trace of the monitored chain under the same voltage schedule, recorded
with a fixed seed. ContactAwareController only names the sample at which
the plant stops ramping; the plant then holds every channel at its
previous command (see run_scenario).

Every run of a config starts from its scenario's open-loop record,
which does not depend on the seed: run_on_record is the one place that
takes it from the config's memo or builds and keeps it; the record
keeps its noise-free traces itself (Plant.noise_free). The baseline,
each grasp episode, open loop or closed, and detect-batch's episodes
all run there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from .config import (
    DetectionConfig,
    HandConfig,
    Scenario,
    profile_hash,  # noqa: F401 -- unused, kept: perfbench's config.hash span wraps it
    resolve_scenario,
)
from .errors import (
    BaselineExhaustedError,
    CalibrationError,
    ConfigError,
    InsufficientDataError,
)
from .kinematics import contact_force
from .plant import Plant, run_scenario
from .trace import SignalTrace

_T_EPS = 1e-9


def smooth_causal(values, n: int) -> np.ndarray:
    """Causal moving average of length n with a truncated warmup: the sum
    of the last min(k + 1, n) values, oldest first, over their count."""
    v = np.asarray(values, dtype=float)
    total = np.zeros(len(v))
    for lag in range(min(n, len(v)) - 1, -1, -1):
        total[lag:] += v[:len(v) - lag]
    return total / np.minimum(np.arange(1, len(v) + 1), n)


# ---------------------------------------------------------------------------
# Threshold calibration and grasp detection
# ---------------------------------------------------------------------------

def _in_window(t: np.ndarray, cfg: DetectionConfig) -> np.ndarray:
    """Which of the sample times t lie inside the evaluation window."""
    lo, hi = cfg.window
    return (t >= lo - _T_EPS) & (t <= hi + _T_EPS)


def detection_horizon(scenario: Scenario, cfg: DetectionConfig) -> float:
    """Length (s) of the shortest episode whose verdict a detector reads as
    it reads the scenario's: every sample through the window's last, plus
    the next, whose internal step that last sample's central-difference
    current takes. The smoothing is causal, so no later sample counts. It
    is the scenario's duration when the window holds none of its samples
    or ends at its last sample or after it."""
    duration, dt_sample = scenario.duration, scenario.sim.dt_sample
    last = round(duration / dt_sample)
    inside = np.flatnonzero(_in_window(np.arange(last + 1) * dt_sample, cfg))
    if len(inside) == 0 or inside[-1] + 1 >= last:
        return duration
    return float(inside[-1] + 1) * dt_sample


def _window_values(trace: SignalTrace, cfg: DetectionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and smoothed current inside the evaluation window."""
    hi = cfg.window[1]
    if len(trace) == 0 or trace.t[-1] + _T_EPS < hi:
        raise InsufficientDataError(
            f"trace ends at {trace.t[-1] if len(trace) else 0.0:.3f} s, "
            f"window needs {hi:.3f} s"
        )
    mask = _in_window(trace.t, cfg)
    if not mask.any():
        raise InsufficientDataError(f"window [{cfg.window[0]}, {hi}] s holds no sample")
    return trace.t[mask], smooth_causal(trace.i_meas, cfg.smoothing)[mask]


def _check_same_profile(traces: list[SignalTrace]) -> None:
    hashes = {t.meta["profile_hash"] for t in traces if "profile_hash" in t.meta}
    if len(hashes) > 1:
        raise ConfigError(f"traces mix voltage profiles: {sorted(hashes)}")


def calibrate_threshold(
    free_traces: list[SignalTrace],
    grasp_traces: list[SignalTrace],
    cfg: DetectionConfig,
) -> float:
    """Detection threshold (uA) separating free motion from grasps.

    Midpoint between the lowest smoothed free-motion current and the
    highest smoothed grasp current over the evaluation window. Raises
    CalibrationError (carrying both extrema) when the classes overlap,
    i.e. when no threshold can separate them.
    """
    if not free_traces or not grasp_traces:
        raise ConfigError("calibration needs at least one trace of each class")
    _check_same_profile(list(free_traces) + list(grasp_traces))
    min_free = min(float(_window_values(t, cfg)[1].min()) for t in free_traces)
    max_grasp = max(float(_window_values(t, cfg)[1].max()) for t in grasp_traces)
    if min_free <= max_grasp:
        raise CalibrationError(min_free, max_grasp)
    return 0.5 * (min_free + max_grasp)


def detect_grasp(trace: SignalTrace, cfg: DetectionConfig) -> tuple[bool, Optional[float]]:
    """Offline grasp verdict for a recorded trace.

    Returns (grasped, decision time). The decision time is the first
    sample of the first run of debounce consecutive window samples whose
    smoothed current lies below the threshold; free motion returns
    (False, None).
    """
    if cfg.i_threshold is None:
        raise ConfigError("detector has no calibrated i_threshold")
    t, smoothed = _window_values(trace, cfg)
    # A run of d sub-threshold samples starts at j where n_below grows by d.
    n_below = np.concatenate(([0], np.cumsum(smoothed < cfg.i_threshold)))
    d = cfg.debounce
    starts = np.flatnonzero(n_below[d:] - n_below[:-d] == d)
    if len(starts) == 0:
        return False, None
    return True, float(t[starts[0]])


# ---------------------------------------------------------------------------
# Baseline recording and the contact-aware controller
# ---------------------------------------------------------------------------

def run_on_record(cfg: HandConfig, key: tuple, resolve: Callable[[], Scenario], seed: int,
                  commander: Optional[Callable] = None) -> SignalTrace:
    """Run seed, under commander if given, on cfg's open-loop record (a
    Plant) of the scenario that resolve returns, filed under key.

    The record does not depend on the seed, so cfg.memo keeps it for the
    config's lifetime, once a run on it has returned; resolve is called
    only while there is none. This is the only code that reads or writes
    cfg.memo, and records are all it holds.
    """
    plant = cfg.memo.get(key) or Plant(resolve())
    trace = run_scenario(plant, seed, commander)
    cfg.memo[key] = plant
    return trace


def record_baseline(cfg: HandConfig, preset_name: str) -> SignalTrace:
    """Record the free-motion trace of a preset's monitored chain at the
    detection baseline seed.

    The monitored chain runs its schedule open loop without the object,
    alone: the controller reads its current only, and each chain moves
    on its own. So the trace holds the monitored stack's keyed columns
    only. The baseline is an ordinary trace: its meta carries the
    scenario's profile hash, which fingerprints the monitored chain's
    schedule, the full episode and dt_sample, as the guarded run's does.
    It is saved with SignalTrace.save and read back with load_trace.
    """
    def resolve():
        full = resolve_scenario(cfg, preset_name)
        return replace(full.monitored(), obj=None, obj_name=None, controller="none")

    return run_on_record(cfg, (preset_name, "baseline"), resolve, cfg.detection.baseline_seed)


class ContactAwareController:
    """Decides when the plant stops ramping, from a free-motion baseline.

    Decisions use the previous sample's measured current (one sample of
    pipeline latency), smoothed like the baseline, against the smoothed
    baseline at the same instant. A drop of more than the deviation
    threshold, set from the baseline's own residual noise, means the
    finger met something. The threshold fits a full window of smoothing
    samples; sample k < smoothing - 1 averages only k + 1, whose noise is
    sqrt(smoothing / (k + 1)) times larger, so its threshold is scaled by
    that factor. Each controlled episode builds its own from the config's
    baseline record; baseline_smoothed and thresholds are read-only.
    """

    def __init__(self, baseline: SignalTrace, det: DetectionConfig):
        self.smoothing = det.smoothing
        self.baseline_smoothed = smooth_causal(baseline.i_meas, det.smoothing)
        self.baseline_smoothed.flags.writeable = False
        resid_std = float(np.std(baseline.i_meas - self.baseline_smoothed))
        self.deviation_threshold = max(det.deviation_mult * resid_std, det.deviation_floor)
        averaged = np.minimum(np.arange(1, len(self.baseline_smoothed) + 1), self.smoothing)
        self.thresholds = self.deviation_threshold * np.sqrt(self.smoothing / averaged)
        self.thresholds.flags.writeable = False

    def command(self, i_meas: np.ndarray) -> Optional[int]:
        """First sample k <= len(i_meas) whose previous sample's smoothed
        current lies more than that sample's threshold below the smoothed
        baseline, or None; BaselineExhaustedError past the baseline."""
        n = min(len(i_meas), len(self.baseline_smoothed))
        drop = self.baseline_smoothed[:n] - smooth_causal(i_meas[:n], self.smoothing)
        hits = np.flatnonzero(drop > self.thresholds[:n])
        if len(hits):
            return int(hits[0]) + 1
        if len(i_meas) > n:
            raise BaselineExhaustedError(
                "ramp ran past the recorded baseline without detecting contact"
            )
        return None


# ---------------------------------------------------------------------------
# Grasp episodes
# ---------------------------------------------------------------------------

@dataclass
class EpisodeReport:
    """Everything one grasp episode produced: trace, events, verdicts.
    The trace's meta names its scenario and seed."""

    trace: SignalTrace
    events: list[dict[str, Any]]
    verdicts: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.trace.meta["scenario"],
            "seed": self.trace.meta["seed"],
            "config_hash": self.trace.meta.get("config_hash"),
            "profile_hash": self.trace.meta.get("profile_hash"),
            "events": self.events,
            "verdicts": self.verdicts,
        }


def run_grasp_episode(
    cfg: HandConfig,
    preset_name: str,
    seed: int,
    *,
    drop_object: bool = False,
    controller: Optional[str] = None,
) -> EpisodeReport:
    """Run one grasp episode and assemble its report.

    The preset decides the controller: "none" runs the schedule open
    loop, "detect" classifies the finished trace against the calibrated
    threshold, "contact_aware" closes the loop on the baseline deviation.
    No run reads the controller from its scenario, so controlled and
    open-loop episodes of a preset and object share one record.
    """
    scenario = resolve_scenario(cfg, preset_name, drop_object=drop_object,
                                controller=controller)
    det = cfg.detection

    ctrl = (ContactAwareController(record_baseline(cfg, preset_name), det)
            if scenario.controller == "contact_aware" else None)

    trace = run_on_record(cfg, (preset_name, drop_object), lambda: scenario, seed,
                          ctrl.command if ctrl is not None else None)

    touched, holds = trace.meta["events"]["first_contact"], trace.meta["events"]["hold"]
    events: list[dict[str, Any]] = [{"type": "contact", "joint": key, "t": t_c}
                                    for key, t_c in sorted(touched.items())]
    events += [{"type": "hold", "t": h["t"], "v_held": h["v_held"]} for h in holds]

    contacted = sorted({c.finger for c in scenario.chains
                        if any(key in touched for key in c.joint_keys)})
    verdicts: dict[str, Any] = {
        "stable": scenario.obj is not None and all(c.finger in contacted for c in scenario.chains),
        "fingers_contacted": contacted,
    }

    if scenario.controller in ("detect", "contact_aware") and det.i_threshold is not None:
        grasped, t_dec = detect_grasp(trace, det)
        verdicts["grasped"] = grasped
        verdicts["decision_time"] = t_dec
        if grasped:
            events.append({"type": "detection", "t": t_dec})

    if ctrl is not None:
        verdicts["held"] = bool(holds)
        verdicts["v_held"] = holds[0]["v_held"] if holds else None
        verdicts["contact_time"] = holds[0]["t"] if holds else None
        verdicts["deviation_threshold"] = ctrl.deviation_threshold

    if scenario.obj is not None:
        max_fc = max((float(arr.max()) for arr in trace.f_contact.values()), default=0.0)
        verdicts["max_contact_force"] = max_fc
        if scenario.obj.kind == "fragile":
            verdicts["crushed"] = max_fc > scenario.obj.f_crush
            verdicts["f_crush"] = scenario.obj.f_crush
            verdicts["force_bound"] = _force_bound(scenario, trace)

    return EpisodeReport(trace=trace, events=events, verdicts=verdicts)


def _force_bound(scenario, trace: SignalTrace) -> float:
    """Model-side bound on the contact force from the final stall targets.

    The contraction only ever approaches its stall target from below, so
    the force at the end-of-episode target (hold voltage plus residual
    relaxation) bounds everything seen on the trace. It uses each chain's
    contact table, like the trace's f_contact columns.
    """
    bound = 0.0
    for chain in scenario.chains:
        theta = chain.theta_at(trace.meta["final_x_target"][chain.tendon_id])
        for _, theta_on, k_obj, _ in chain.contact_table(scenario.obj).values():
            bound = max(bound, float(contact_force(k_obj, theta_on, theta)))
    return bound
