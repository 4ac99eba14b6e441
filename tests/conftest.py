from __future__ import annotations

from dataclasses import replace

import pytest

from haselhand import (
    HandConfig,
    default_config,
    resolve_scenario,
    run_scenario,
)


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
    return run_scenario(resolve_scenario(cfg_nf, "free_motion"), cfg_nf.sim, seed=0)


@pytest.fixture(scope="session")
def cube_trace_nf(cfg_nf):
    """Noise-free rigid-cube pinch, matched to free_trace_nf."""
    return run_scenario(resolve_scenario(cfg_nf, "pinch_cube"), cfg_nf.sim, seed=0)


@pytest.fixture(scope="session")
def calibration_traces(cfg):
    """The 10 free + 10 cube-grasp calibration traces, seeds 0-19."""
    cache: dict = {}  # each class steps its mechanics once
    free = [run_scenario(resolve_scenario(cfg, "detect_free"), cfg.sim, seed=s, cache=cache)
            for s in range(10)]
    grasp = [run_scenario(resolve_scenario(cfg, "detect_cube"), cfg.sim, seed=s, cache=cache)
             for s in range(10, 20)]
    return free, grasp


@pytest.fixture(scope="session")
def calibrated_detection(cfg, calibration_traces):
    from haselhand import calibrate_threshold

    free, grasp = calibration_traces
    thr = calibrate_threshold(free, grasp, cfg.detection)
    return replace(cfg.detection, i_threshold=thr)
