import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haselhand import (
    DomainError,
    FingerLayout,
    JointSpec,
    ObjectModel,
    angles_from_excursion,
    contact_torque,
    fingertip_force,
    tendon_tension_from_torques,
)
from haselhand.errors import ConfigError

HALF_PI = math.pi / 2
R_MCP = 34.0 / math.pi      # 17 mm excursion for a full 90 deg flexion
R_HALF = 12.0 / math.pi     # each of the coupled pair; sum rolls 12 mm to 90 deg


def index_layout() -> FingerLayout:
    return FingerLayout(
        name="index",
        joints=(
            JointSpec("mcp", R_MCP, HALF_PI, 45.0),
            JointSpec("pip", R_HALF, HALF_PI, 28.0),
            JointSpec("dip", R_HALF, HALF_PI, 22.0),
        ),
        coupled_pair=(1, 2),
        tendon_ids=("index_mcp", "index_pip_dip"),
    )


def thumb_layout() -> FingerLayout:
    return FingerLayout(
        name="thumb",
        joints=(
            JointSpec("mcp", R_MCP, HALF_PI, 32.0),
            JointSpec("ip", 24.0 / math.pi, HALF_PI, 25.0),
        ),
        tendon_ids=("thumb_mcp", "thumb_ip"),
    )


class TestAnglesFromExcursion:
    def test_full_mcp_flexion_at_17mm(self):
        theta = angles_from_excursion(index_layout(), [17.0, 0.0])
        assert theta[0] == pytest.approx(HALF_PI, rel=1e-12)

    def test_coupled_pair_full_flexion_at_12mm(self):
        theta = angles_from_excursion(index_layout(), [0.0, 12.0])
        assert theta[1] == pytest.approx(HALF_PI, rel=1e-12)
        assert theta[2] == pytest.approx(HALF_PI, rel=1e-12)

    def test_rest_pose(self):
        assert angles_from_excursion(index_layout(), [0.0, 0.0]) == [0.0, 0.0, 0.0]

    def test_negative_excursion_rejected(self):
        with pytest.raises(DomainError):
            angles_from_excursion(index_layout(), [-1.0, 0.0])

    @given(e=st.floats(0, 40), de=st.floats(0, 10))
    @settings(max_examples=200)
    def test_monotone_and_saturating(self, e, de):
        layout = index_layout()
        t0 = angles_from_excursion(layout, [e, e])
        t1 = angles_from_excursion(layout, [e + de, e + de])
        for a, b, spec in zip(t0, t1, layout.joints):
            assert b >= a
            assert b <= spec.theta_max

    @given(e=st.floats(0, 40))
    @settings(max_examples=100)
    def test_coupling_is_hard(self, e):
        theta = angles_from_excursion(index_layout(), [0.0, e])
        assert theta[1] == theta[2]

    def test_saturates_exactly_at_limit(self):
        theta = angles_from_excursion(index_layout(), [100.0, 100.0])
        assert theta == [HALF_PI, HALF_PI, HALF_PI]

    def test_thumb_has_independent_joints(self):
        theta = angles_from_excursion(thumb_layout(), [17.0, 0.0])
        assert theta[0] == pytest.approx(HALF_PI)
        assert theta[1] == 0.0


class TestTendonTension:
    def test_moment_arm_division(self):
        layout = thumb_layout()
        tensions = tendon_tension_from_torques(
            FingerLayout("t", (JointSpec("mcp", 10.0, HALF_PI, 40.0),),
                         tendon_ids=("t_mcp",)),
            [10.0],
        )
        assert tensions == [1.0]

    def test_zero_torque(self):
        assert tendon_tension_from_torques(index_layout(), [0.0, 0.0, 0.0]) == [0.0, 0.0]

    def test_roundtrip_with_torque(self):
        layout = index_layout()
        t_in = 2.5
        torque_mcp = t_in * layout.joints[0].r_eff
        tensions = tendon_tension_from_torques(layout, [torque_mcp, 0.0, 0.0])
        assert tensions[0] == pytest.approx(t_in, rel=1e-12)

    def test_coupled_pair_sums_radii(self):
        layout = index_layout()
        tensions = tendon_tension_from_torques(layout, [0.0, 6.0, 6.0])
        assert tensions[1] == pytest.approx(12.0 / (2 * R_HALF), rel=1e-12)


def cube(theta_c=0.3, k_obj=1e4) -> ObjectModel:
    return ObjectModel(
        "cube", "rigid", k_obj,
        {"index": {"mcp": theta_c, "pip": theta_c, "dip": theta_c}},
    )


class TestContactTorque:
    def test_no_penetration_below_contact_angle(self):
        torque, force = contact_torque(cube(), index_layout(), 0, 0.2)
        assert (torque, force) == (0.0, 0.0)

    def test_linear_contact_law(self):
        obj = ObjectModel("o", "compliant", 100.0, {"index": {"mcp": 0.3}})
        layout = FingerLayout(
            "index", (JointSpec("mcp", R_MCP, HALF_PI, 40.0),), tendon_ids=("index_mcp",))
        torque, force = contact_torque(obj, layout, 0, 0.31)
        assert force == pytest.approx(1.0, rel=1e-9)
        assert torque == pytest.approx(40.0, rel=1e-9)

    def test_rigid_penetration_stays_small(self):
        # Oracle: bisect the scalar balance k_obj * (theta - theta_c) = F
        # for forces up to 10 N; penetration must stay below 1e-3 rad.
        obj = cube(theta_c=0.3, k_obj=1e4)
        layout = index_layout()
        for force_n in (0.1, 1.0, 5.0, 10.0):
            lo, hi = 0.3, HALF_PI
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                _, f = contact_torque(obj, layout, 0, mid)
                if f < force_n:
                    lo = mid
                else:
                    hi = mid
            assert hi - 0.3 <= 1e-3 + 1e-9

    def test_unlisted_joint_never_contacts(self):
        obj = ObjectModel("o", "compliant", 100.0, {"index": {"mcp": 0.1}})
        torque, force = contact_torque(obj, index_layout(), 1, 1.0)
        assert (torque, force) == (0.0, 0.0)

    @given(theta=st.floats(0, HALF_PI))
    @settings(max_examples=100)
    def test_complementarity(self, theta):
        obj = cube(theta_c=0.3)
        _, force = contact_torque(obj, index_layout(), 0, theta)
        assert force * max(0.0, 0.3 - theta) == 0.0


class TestFingertipForce:
    def test_zero_tension_gives_zero(self):
        layout = index_layout()
        assert fingertip_force(layout, 0.0) == 0.0

    def test_moment_balance_linearity(self):
        layout = index_layout()
        f1 = fingertip_force(layout, 3.0, extensor_tension=1.0)
        f2 = fingertip_force(layout, 5.0, extensor_tension=1.0)
        # Doubling (tension - extensor) doubles the output.
        assert f2 == pytest.approx(2 * f1, rel=1e-12)

    def test_extensor_can_cancel_everything(self):
        assert fingertip_force(index_layout(), 1.0, extensor_tension=2.0) == 0.0


class TestValidation:
    def test_rigid_needs_high_stiffness(self):
        with pytest.raises(ConfigError):
            ObjectModel("o", "rigid", 100.0, {})

    def test_fragile_needs_crush_threshold(self):
        with pytest.raises(ConfigError):
            ObjectModel("o", "fragile", 100.0, {})

    def test_bad_coupled_pair(self):
        with pytest.raises(ConfigError):
            FingerLayout("x", (JointSpec("mcp", 1.0, HALF_PI, 10.0),),
                         coupled_pair=(0, 3), tendon_ids=("a",))
