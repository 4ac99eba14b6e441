from __future__ import annotations

import signal
from dataclasses import replace

import pytest

from haselhand import (
    HandConfig,
    Plant,
    default_config,
    resolve_scenario,
    run_scenario,
)
from haselhand import cli as cli_module


# Seconds a test that uses time_limit may run: an in-process grasp takes
# well under 0.1 s, so only a run that never ends reaches it.
TIME_LIMIT_S = 5.0


@pytest.fixture(autouse=True)
def fresh_memos(cfg, cfg_nf):
    """Each test starts from configs with empty memos: its CLI calls from
    a fresh built-in config, its episodes on the session configs from no
    record, so a kernel a test patches really runs and nothing it computes
    under a patch reaches a later test."""
    cli_module._builtin_config.cache_clear()
    cfg.memo.clear()
    cfg_nf.memo.clear()


@pytest.fixture
def time_limit():
    """Fail the test with a TimeoutError, rather than hang, if it is still
    running after TIME_LIMIT_S."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def noise_free(cfg: HandConfig) -> HandConfig:
    amp = replace(cfg.amplifier, monitor_noise_v=0.0, monitor_noise_i=0.0)
    return replace(cfg, amplifier=amp)


@pytest.fixture(scope="session")
def cfg() -> HandConfig:
    return default_config()


@pytest.fixture(scope="session")
def cfg_nf(cfg) -> HandConfig:
    return noise_free(cfg)


@pytest.fixture(scope="session")
def free_trace_nf(cfg_nf):
    """Noise-free free-motion pinch scenario (thumb + index)."""
    return run_scenario(resolve_scenario(cfg_nf, "free_motion"), seed=0)


@pytest.fixture(scope="session")
def cube_trace_nf(cfg_nf):
    """Noise-free rigid-cube pinch, matched to free_trace_nf."""
    return run_scenario(resolve_scenario(cfg_nf, "pinch_cube"), seed=0)


@pytest.fixture(scope="session")
def calibration_traces(cfg):
    """The 10 free + 10 cube-grasp calibration traces, seeds 0-19."""
    def runs(preset, seeds):
        # One Plant per class: its mechanics are stepped once.
        scenario = resolve_scenario(cfg, preset)
        plant = Plant(scenario)
        return [run_scenario(scenario, seed=s, plant=plant) for s in seeds]

    return runs("detect_free", range(10)), runs("detect_cube", range(10, 20))


@pytest.fixture(scope="session")
def calibrated_detection(cfg, calibration_traces):
    from haselhand import calibrate_threshold

    free, grasp = calibration_traces
    thr = calibrate_threshold(free, grasp, cfg.detection)
    return replace(cfg.detection, i_threshold=thr)
