"""Simulator and sensorless-control workbench for a tendon-driven hand
powered by stacked electrohydraulic (Peano-HASEL) actuators."""

from .actuator import (
    StackConfig,
    active_force,
    capacitance_of,
    displacement_current,
)
from .config import (
    AmplifierModel,
    DetectionConfig,
    HandConfig,
    ProfileSpec,
    ScenarioPreset,
    SimConfig,
    config_hash,
    default_config,
    load_config,
    resolve_scenario,
    save_config,
)
from .control import (
    ContactAwareController,
    EpisodeReport,
    calibrate_threshold,
    detect_grasp,
    record_baseline,
    run_grasp_episode,
    smooth_causal,
)
from .errors import (
    BaselineExhaustedError,
    CalibrationError,
    ConfigError,
    DomainError,
    HaselHandError,
    InsufficientDataError,
    ModelConsistencyError,
    TraceSchemaError,
)
from .kinematics import (
    FingerLayout,
    JointSpec,
    ObjectModel,
    contact_force,
    fingertip_force,
)
from .plant import Plant, run_scenario
from .trace import SignalTrace, load_trace
from .transmission import (
    TendonPath,
    delivered_tension,
    excursion_of,
    extensor_tension,
    reflected_load,
)

__version__ = "0.1.0"
