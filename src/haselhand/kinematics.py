"""Finger and thumb kinematics.

Rolling-contact joints are reduced to a constant effective radius, so a
tendon excursion e drives a joint to theta = e / r_eff up to its flexion
limit. On the long fingers the PIP and DIP joints share one tendon and
flex together with a common angle, splitting the excursion over the sum
of their radii. Abduction is mechanically fixed at zero and is not
represented in any state.

Objects are lumped per joint: a joint meets the object at a configured
angle and compresses it with a linear stiffness beyond that
(contact_force, the one contact law). The map from stack contraction to
joint angle, its inverse and the contact table of a chain live on
config.ChainSpec, which holds the joint group, tendon path and stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, check_domains

RIGID_MIN_STIFFNESS = 1e4  # N/rad; below this an object is not "rigid"


@dataclass(frozen=True)
class JointSpec:
    name: str
    r_eff: float = field(metadata={"gt": 0.0})        # effective rolling radius, mm
    theta_max: float = field(metadata={"gt": 0.0, "le": math.pi / 2 + 1e-12})  # flexion limit, rad
    phalanx_len: float = field(metadata={"gt": 0.0})  # contact moment arm, mm
    __post_init__ = check_domains


@dataclass(frozen=True)
class FingerLayout:
    """One finger: ordered joints, optional coupled pair, tendon ids.

    tendon_ids name the actuator chains driving this finger, in the
    order given by tendon_joint_groups(): one tendon per free joint,
    with the coupled pair sharing a single tendon.
    """

    joints: tuple[JointSpec, ...]
    coupled_pair: Optional[tuple[int, int]] = None
    tendon_ids: tuple[str, ...] = field(default=(), metadata={"json": "tendons", "required": True})

    def __post_init__(self):
        if not self.joints:
            raise ConfigError("needs at least one joint")
        if self.coupled_pair is not None:
            a, b = self.coupled_pair
            n = len(self.joints)
            if not (0 <= a < n and 0 <= b < n and a != b):
                raise ConfigError(f"invalid coupled_pair {self.coupled_pair}")
        groups = self.tendon_joint_groups()
        if len(self.tendon_ids) != len(groups):
            raise ConfigError(
                f"{len(self.tendon_ids)} tendon ids for {len(groups)} tendon-driven groups")

    def tendon_joint_groups(self) -> tuple[tuple[int, ...], ...]:
        """Joint indices driven by each tendon, in joint order."""
        pair = set(self.coupled_pair) if self.coupled_pair else set()
        groups: list[tuple[int, ...]] = []
        placed_pair = False
        for j in range(len(self.joints)):
            if j in pair:
                if not placed_pair:
                    groups.append(tuple(sorted(pair)))
                    placed_pair = True
            else:
                groups.append((j,))
        return tuple(groups)

    def group_radius(self, group: tuple[int, ...]) -> float:
        return sum(self.joints[j].r_eff for j in group)

    def total_length(self) -> float:
        return sum(j.phalanx_len for j in self.joints)


@dataclass(frozen=True)
class ObjectModel:
    """Lumped contact model of a graspable object.

    theta_contact maps finger name -> {joint name -> contact angle};
    joints without an entry never touch the object.
    """

    kind: str = field(metadata={"in": ("rigid", "compliant", "fragile")})
    k_obj: float = field(metadata={"gt": 0.0})          # contact stiffness, N/rad
    theta_contact: dict[str, dict[str, float]]
    f_crush: Optional[float] = field(default=None, metadata={"gt": 0.0})   # N

    def __post_init__(self):
        check_domains(self)
        if self.kind == "rigid" and self.k_obj < RIGID_MIN_STIFFNESS:
            raise ConfigError(f"rigid objects need k_obj >= {RIGID_MIN_STIFFNESS}")
        if self.kind == "fragile" and self.f_crush is None:
            raise ConfigError("fragile objects need f_crush")

    def contact_angle(self, finger: str, joint_name: str) -> Optional[float]:
        return self.theta_contact.get(finger, {}).get(joint_name)


def contact_force(k_obj: float, theta_on: float, theta):
    """Normal force (N) an object exerts on a joint at angle theta (rad).

    Zero up to the onset angle theta_on, then a linear spring:
    k_obj * (theta - theta_on). theta may be a float or an array; the
    result is a numpy value either way.
    """
    return k_obj * np.maximum(theta - theta_on, 0.0)


def fingertip_force(
    layout: FingerLayout,
    tension,
    extensor_tension: float = 0.0,
):
    """Static fingertip normal force (N) in the fully extended test posture.

    Moment balance about the base (MCP) joint with the finger pressing
    straight down on a load cell, for a tension that is a float or an array:

        F_tip = (tension * r_eff_mcp - extensor_tension * r_eff_mcp)
                / total finger length,  clamped at 0.
    """
    if np.any(tension < 0):
        raise DomainError(f"tendon tension {np.min(tension)} N must be >= 0")
    r_mcp = layout.joints[0].r_eff
    moment = (tension - extensor_tension) * r_mcp
    return np.maximum(0.0, moment / layout.total_length())
