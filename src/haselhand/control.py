"""Sensorless grasp sensing and control from the monitored current.

The drawn current of a stack carries its motion: the v * dC/dt term
collapses when an object halts the finger, so a grasp shows up as the
current dropping below a calibrated threshold, and contact shows up as
the current deviating from a pre-recorded free-motion baseline. Both
algorithms run on the 1 kHz monitor samples after a short moving
average; detection additionally debounces over consecutive samples so
single noise excursions cannot trigger it.

Contact-aware control is one decision. The baseline is the free-motion
trace of the same voltage schedule, recorded under the same profile
hash. ContactAwareController only decides at which sample the plant
stops ramping; the plant then holds every channel at its previous
command (see run_scenario).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from .config import (
    DetectionConfig,
    HandConfig,
    Scenario,
    SimConfig,
    profile_hash,
    resolve_scenario,
)
from .errors import (
    BaselineExhaustedError,
    CalibrationError,
    ConfigError,
    InsufficientDataError,
)
from .kinematics import contact_force
from .plant import run_scenario
from .trace import SignalTrace

_T_EPS = 1e-9


def smooth_causal(values, n: int) -> np.ndarray:
    """Causal moving average of length n with a truncated warmup."""
    v = np.asarray(values, dtype=float)
    if n <= 1 or len(v) == 0:
        return v.copy()
    cs = np.concatenate(([0.0], np.cumsum(v)))
    idx = np.arange(len(v))
    lo = np.maximum(0, idx + 1 - n)
    return (cs[idx + 1] - cs[lo]) / (idx + 1 - lo)


# ---------------------------------------------------------------------------
# Threshold calibration and grasp detection
# ---------------------------------------------------------------------------

def _window_values(trace: SignalTrace, cfg: DetectionConfig) -> np.ndarray:
    lo, hi = cfg.window
    if len(trace) == 0 or trace.t[-1] + _T_EPS < hi:
        raise InsufficientDataError(
            f"trace ends at {trace.t[-1] if len(trace) else 0.0:.3f} s, "
            f"window needs {hi:.3f} s"
        )
    smoothed = smooth_causal(trace.i_meas, cfg.smoothing)
    mask = (trace.t >= lo - _T_EPS) & (trace.t <= hi + _T_EPS)
    return smoothed[mask]


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
    min_free = min(float(_window_values(t, cfg).min()) for t in free_traces)
    max_grasp = max(float(_window_values(t, cfg).max()) for t in grasp_traces)
    if min_free <= max_grasp:
        raise CalibrationError(min_free, max_grasp)
    return 0.5 * (min_free + max_grasp)


class StreamingDetector:
    """Sample-by-sample grasp detector, equivalent to detect_grasp.

    Feed monitor samples in order; the verdict latches once the smoothed
    current has stayed below the threshold for debounce consecutive
    samples inside the window.
    """

    def __init__(self, cfg: DetectionConfig):
        if cfg.i_threshold is None:
            raise ConfigError("detector has no calibrated i_threshold")
        self.cfg = cfg
        self._buf: deque[float] = deque(maxlen=cfg.smoothing)
        self._run_start: Optional[float] = None
        self._count = 0
        self.grasped = False
        self.decision_time: Optional[float] = None
        self._last_t: Optional[float] = None

    def feed(self, t: float, i_meas: float) -> None:
        self._last_t = t
        self._buf.append(i_meas)
        if self.grasped:
            return
        lo, hi = self.cfg.window
        if t < lo - _T_EPS or t > hi + _T_EPS:
            return
        smoothed = sum(self._buf) / len(self._buf)
        if smoothed < self.cfg.i_threshold:
            if self._count == 0:
                self._run_start = t
            self._count += 1
            if self._count >= self.cfg.debounce:
                self.grasped = True
                self.decision_time = self._run_start
        else:
            self._count = 0
            self._run_start = None

    def verdict(self) -> tuple[bool, Optional[float]]:
        hi = self.cfg.window[1]
        if self._last_t is None or self._last_t + _T_EPS < hi:
            raise InsufficientDataError(
                f"stream ended at {self._last_t} s before window end {hi} s"
            )
        return self.grasped, self.decision_time


def detect_grasp(trace: SignalTrace, cfg: DetectionConfig) -> tuple[bool, Optional[float]]:
    """Offline grasp verdict for a recorded trace.

    Returns (grasped, decision time). The decision time is the first
    sample of the debounced sub-threshold run; free motion returns
    (False, None).
    """
    if cfg.i_threshold is None:
        raise ConfigError("detector has no calibrated i_threshold")
    det = StreamingDetector(cfg)
    for k in range(len(trace)):
        det.feed(float(trace.t[k]), float(trace.i_meas[k]))
    return det.verdict()


# ---------------------------------------------------------------------------
# Baseline recording and the contact-aware controller
# ---------------------------------------------------------------------------

def record_baseline(scenario: Scenario, sim: SimConfig, seed: int,
                    cache: Optional[dict] = None) -> SignalTrace:
    """Record the free-motion trace of a scenario's voltage schedule.

    The scenario runs open loop without its object. The baseline is an
    ordinary trace: its meta carries the profile hash it was recorded
    under, and it is saved with SignalTrace.save and read back with
    load_trace. cache is run_scenario's mechanics cache.
    """
    return run_scenario(replace(scenario, obj=None, controller="none"), sim, seed, cache=cache)


class ContactAwareController:
    """Decides when the plant stops ramping, from a free-motion baseline.

    Decisions use the previous sample's measured current (one sample of
    pipeline latency), smoothed like the baseline, against the smoothed
    baseline at the same instant. A drop of more than the deviation
    threshold, set from the baseline's own residual noise, means the
    finger met something.
    """

    def __init__(self, baseline: SignalTrace, det: DetectionConfig):
        self.dt_sample = baseline.dt_sample
        self.baseline_smoothed = smooth_causal(baseline.i_meas, det.smoothing)
        resid_std = float(np.std(baseline.i_meas - self.baseline_smoothed))
        self.deviation_threshold = max(det.deviation_mult * resid_std, det.deviation_floor)
        self.contact_time: Optional[float] = None
        self._buf: deque[float] = deque(maxlen=det.smoothing)

    def command(self, t: float, i_prev: Optional[float]) -> bool:
        """True when the plant should hold its commands from sample t on."""
        if i_prev is None:
            return False
        self._buf.append(i_prev)
        k_prev = round(t / self.dt_sample) - 1
        if not 0 <= k_prev < len(self.baseline_smoothed):
            raise BaselineExhaustedError(
                "ramp ran past the recorded baseline without detecting contact"
            )
        i_smoothed = sum(self._buf) / len(self._buf)
        if float(self.baseline_smoothed[k_prev]) - i_smoothed > self.deviation_threshold:
            self.contact_time = t
            return True
        return False


# ---------------------------------------------------------------------------
# Grasp episodes
# ---------------------------------------------------------------------------

@dataclass
class EpisodeReport:
    """Everything one grasp episode produced: trace, events, verdicts."""

    scenario: str
    seed: int
    trace: SignalTrace
    events: list[dict[str, Any]]
    verdicts: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
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
    baseline: Optional[SignalTrace] = None,
    detection: Optional[DetectionConfig] = None,
    cache: Optional[dict] = None,
) -> EpisodeReport:
    """Run one grasp episode and assemble its report.

    The preset decides the controller: "none" runs the schedule open
    loop, "detect" classifies the finished trace against the calibrated
    threshold, "contact_aware" closes the loop on the baseline deviation
    (recording a baseline on the fly if none is supplied). A supplied
    baseline must carry the scenario's profile hash in its meta. cache
    is run_scenario's mechanics cache, shared by the baseline and the
    episode.
    """
    scenario = resolve_scenario(cfg, preset_name, drop_object=drop_object,
                                controller=controller)
    det = detection if detection is not None else cfg.detection

    ctrl: Optional[ContactAwareController] = None
    if scenario.controller == "contact_aware":
        if baseline is None:
            baseline = record_baseline(scenario, cfg.sim, cfg.detection.baseline_seed, cache)
        expected = profile_hash(scenario.profiles, scenario.duration, cfg.sim.dt_sample)
        recorded = baseline.meta.get("profile_hash")
        if recorded != expected:
            raise ConfigError(
                f"baseline profile hash {recorded} does not match "
                f"scenario profile hash {expected}"
            )
        ctrl = ContactAwareController(baseline, det)

    trace = run_scenario(scenario, cfg.sim, seed, ctrl.command if ctrl is not None else None,
                         cache=cache)

    holds = trace.meta["events"]["hold"]
    events: list[dict[str, Any]] = []
    for key, t_c in sorted(trace.meta["events"]["first_contact"].items()):
        events.append({"type": "contact", "joint": key, "t": t_c})
    for h in holds:
        events.append({"type": "hold", "t": h["t"], "v_held": h["v_held"]})

    contacted = sorted({key.rsplit("_", 1)[0] for key in trace.meta["events"]["first_contact"]})
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
        verdicts["contact_time"] = ctrl.contact_time
        verdicts["deviation_threshold"] = ctrl.deviation_threshold

    if scenario.obj is not None:
        max_fc = max((float(arr.max()) for arr in trace.f_contact.values()), default=0.0)
        verdicts["max_contact_force"] = max_fc
        if scenario.obj.kind == "fragile":
            verdicts["crushed"] = max_fc > scenario.obj.f_crush
            verdicts["f_crush"] = scenario.obj.f_crush
            verdicts["force_bound"] = _force_bound(scenario, trace)

    return EpisodeReport(
        scenario=preset_name, seed=seed, trace=trace, events=events, verdicts=verdicts,
    )


def _force_bound(scenario, trace: SignalTrace) -> float:
    """Model-side bound on the contact force from the final stall targets.

    The contraction only ever approaches its stall target from below, so
    the force at the end-of-episode target (hold voltage plus residual
    relaxation) bounds everything seen on the trace. It uses each chain's
    contact table, like the trace's f_contact columns.
    """
    bound = 0.0
    final_targets = trace.meta.get("final_x_target", {})
    for chain in scenario.chains:
        xt = final_targets.get(chain.tendon_id)
        if xt is None:
            continue
        theta = chain.theta_at(xt)
        for _, theta_on, k_obj, _ in chain.contact_table(scenario.obj).values():
            bound = max(bound, float(contact_force(k_obj, theta_on, theta)))
    return bound
