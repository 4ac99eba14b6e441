"""Tendon transmission between an actuator stack and a finger.

The flexor tendon wraps a pulley on the stack, so tendon excursion is
pulley_ratio times the contraction (minus any slack). Losses are split
into a multiplicative transmission efficiency and an additive breakaway
(static friction) force at the actuator; extension is passive through
an elastic cord in series with the extensor tendon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_domains


@dataclass(frozen=True)
class TendonPath:
    pulley_ratio: float = field(default=2.0, metadata={"gt": 0.0})
    # Transmission efficiency and static friction at the actuator (N): calibration values.
    eta_fwd: float = field(default=0.55, metadata={"gt": 0.0, "le": 1.0})
    f_breakaway: float = field(default=3.0, metadata={"ge": 0.0})
    slack: float = field(default=0.0, metadata={"ge": 0.0})   # consumed before motion, mm
    k_ext: float = field(default=0.0, metadata={"ge": 0.0})   # extensor rate, N/mm of excursion
    f_ext0: float = field(default=0.0, metadata={"ge": 0.0})  # extensor pretension, N
    __post_init__ = check_domains


def excursion_of(path: TendonPath, x):
    """Tendon excursion (mm) produced by actuator contraction x (mm).

    x may be a float or an array; the result is a numpy value either way.
    """
    if np.any(x < 0):
        raise DomainError(f"contraction x={np.min(x)} mm must be >= 0")
    return np.maximum(0.0, path.pulley_ratio * x - path.slack)


def reflected_load(path: TendonPath, tendon_tension):
    """Load (N) the actuator must bear to hold a given tendon tension.

    Pulley force balance: the actuator carries pulley_ratio times the
    tendon tension, divided by the transmission efficiency. The tension
    may be a float or an array.
    """
    if np.any(tendon_tension < 0):
        raise DomainError(f"tendon tension {np.min(tendon_tension)} N must be >= 0")
    return path.pulley_ratio * tendon_tension / path.eta_fwd


def extensor_tension(path: TendonPath, excursion: float) -> float:
    """Passive extensor pull (N) at a given flexor excursion (mm)."""
    return path.f_ext0 + path.k_ext * excursion


def delivered_tension(path: TendonPath, actuator_force):
    """Tendon tension (N) delivered when the output is blocked (isometric).

    Static friction eats f_breakaway of the actuator force (a float or an
    array) before any tension builds; the pulley then divides what remains.
    """
    if np.any(actuator_force < 0):
        raise DomainError(f"actuator force {np.min(actuator_force)} N must be >= 0")
    usable = np.maximum(0.0, actuator_force - path.f_breakaway)
    return path.eta_fwd * usable / path.pulley_ratio
