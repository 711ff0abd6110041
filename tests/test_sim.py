"""Surface geometry, the synthetic observation model, pushing dynamics,
and the closed-loop scenario runners."""

import ast
import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from se3kit import control, filtering, liegroup, sim, uncertainty
from se3kit.errors import (ApproximationDomainError, CovarianceError, DivergenceError,
                           NoContactError, PrincipalBranchError, SingularTargetError)
from se3kit.liegroup import Pose, euler_to_pose, exp, log, pose_to_euler
from se3kit.sim import (DEFAULT_OBSERVATION_STD, PushedObject, Scenario,
                        SurfaceModel, TrajectoryLog, _check_pose, _cross,
                        _integrate_body, bearing_sensitivity, contact_pose, leader_twist,
                        make_study_sequence, observe, push_object_step,
                        run_scenario)

from oracles import _quaternion_from_rotation

DT = 1.0 / 30.0


def rot_z(angle):
    return exp(np.array([0, 0, 0, 0, 0, angle])).rotation


# ------------------------------------------------------------ contact_pose

def test_contact_pose_reference_depth():
    surface = SurfaceModel("flat")
    sensor = Pose(np.eye(3), np.array([0.0, 0.0, 3.0]))
    x_fs, _ = contact_pose(surface, sensor, None)
    euler = np.array(pose_to_euler(x_fs))
    assert np.allclose(euler, [0, 0, 3, 0, 0, 0], atol=1e-12)


def test_contact_pose_tilted_sensor():
    surface = SurfaceModel("flat")
    tilt = math.radians(10.0)
    sensor = euler_to_pose(0, 0, 3, tilt, 0, 0)
    x_fs, _ = contact_pose(surface, sensor, None)
    euler = np.array(pose_to_euler(x_fs))
    assert euler[3] == pytest.approx(tilt, abs=1e-12)
    assert np.allclose(euler[[0, 1, 4, 5]], 0.0, atol=1e-12)
    assert euler[2] == pytest.approx(3.0, abs=1e-12)


def test_contact_pose_flat_first_contact_oracle(rng):
    # At first contact the anchor sits at the tip's plane projection, so the
    # pose reduces to closed-form plane geometry: translation (0, 0, depth)
    # and the recovered feature z-axis equal to the plane normal.
    for _ in range(20):
        surf_pose = exp(np.concatenate([rng.uniform(-30, 30, 3),
                                        rng.uniform(-0.4, 0.4, 3)]))
        surface = SurfaceModel("flat", surf_pose)
        z_w = surf_pose.rotation[:, 2]
        depth = rng.uniform(0.5, 9.5)
        offset = rng.uniform(-40, 40, 2)
        tip = (surf_pose.translation + depth * z_w
               + offset[0] * surf_pose.rotation[:, 0]
               + offset[1] * surf_pose.rotation[:, 1])
        spin = exp(np.concatenate([np.zeros(3), rng.uniform(-0.2, 0.2, 3)]))
        sensor = Pose(surf_pose.rotation @ spin.rotation, tip)
        x_fs, _ = contact_pose(surface, sensor, None)
        assert np.allclose(x_fs.translation, [0, 0, depth], atol=1e-9)
        feature = sensor @ x_fs.inverse()
        assert np.allclose(feature.rotation[:, 2], z_w, atol=1e-9)


def test_contact_pose_repeat_query_stable():
    surface = SurfaceModel("flat")
    sensor = euler_to_pose(1.0, -2.0, 4.0, 0.1, -0.05, 0.2)
    first, anchor = contact_pose(surface, sensor, None)
    second, _ = contact_pose(surface, sensor, anchor)
    assert np.allclose(first.matrix, second.matrix, atol=1e-12)
    # Pure: the same inputs give the same bits, and neither the input
    # anchor nor the surface is written.
    point_before = anchor[0].copy()
    surface_before = dict(vars(surface))
    (x1, (p1, s1)), (x2, (p2, s2)) = (contact_pose(surface, sensor, anchor)
                                      for _ in range(2))
    assert x1.matrix.tobytes() == x2.matrix.tobytes() == second.matrix.tobytes()
    assert p1.tobytes() == p2.tobytes() and s1 == s2
    assert anchor[0].tobytes() == point_before.tobytes()
    assert vars(surface) == surface_before
    assert set(vars(surface)) == {"kind", "pose", "radius"}


def test_contact_pose_shear_anchor_drag():
    surface = SurfaceModel("flat")
    at = lambda x: Pose(np.eye(3), np.array([x, 0.0, 3.0]))
    _, anchor = contact_pose(surface, at(0.0), None)  # plant at the origin
    x_fs, anchor = contact_pose(surface, at(2.0), anchor)
    assert np.allclose(x_fs.translation, [2, 0, 3], atol=1e-12)
    # 8 mm of shear exceeds the 5 mm slip limit: the anchor is dragged to
    # x = 3 and the reported shear saturates.
    x_fs, anchor = contact_pose(surface, at(8.0), anchor)
    assert np.allclose(x_fs.translation, [5, 0, 3], atol=1e-9)
    assert np.allclose(anchor[0], [3, 0, 0], atol=1e-9)
    # moving back re-measures against the dragged anchor
    x_fs, _ = contact_pose(surface, at(0.0), anchor)
    assert np.allclose(x_fs.translation, [-3, 0, 3], atol=1e-9)


def test_contact_pose_spin_clamp():
    surface = SurfaceModel("flat")
    base = Pose(np.eye(3), np.array([0.0, 0.0, 3.0]))
    _, anchor = contact_pose(surface, base, None)
    twisted = Pose(rot_z(0.5), base.translation)
    x_fs, _ = contact_pose(surface, twisted, anchor)
    euler = np.array(pose_to_euler(x_fs))
    assert euler[5] == pytest.approx(0.26, abs=1e-9)


def test_contact_pose_envelope():
    surface = SurfaceModel("flat")
    at = lambda x, z: Pose(np.eye(3), np.array([x, 0.0, z]))
    _, anchor = contact_pose(surface, at(3.0, 3.0), None)
    with pytest.raises(NoContactError):
        contact_pose(surface, at(3.0, -0.5), anchor)
    with pytest.raises(NoContactError):
        contact_pose(surface, at(3.0, 11.0), anchor)


def assert_first_contact(surface, tip_local, depth, normal_local, rng):
    """Pose the surface at random and touch it with a randomly turned sensor
    whose tip is at tip_local.  At first contact the anchor sits at the
    tip's projection, so the pose reduces to closed-form geometry:
    translation (0, 0, depth) and the feature z-axis along the inward
    normal."""
    surface.pose = exp(np.concatenate([rng.uniform(-30, 30, 3), rng.uniform(-0.4, 0.4, 3)]))
    turn = exp(np.concatenate([np.zeros(3), rng.uniform(-0.3, 0.3, 3)]))
    sensor = Pose(surface.pose.rotation @ turn.rotation, surface.pose.apply(tip_local))
    x_fs, _ = contact_pose(surface, sensor, None)
    assert np.allclose(x_fs.translation, [0, 0, depth], atol=1e-9)
    feature = sensor @ x_fs.inverse()
    assert np.allclose(feature.rotation[:, 2], surface.pose.rotation @ normal_local, atol=1e-9)


def test_contact_pose_ramp_first_contact_oracle(rng):
    radius = 300.0
    surface = SurfaceModel("ramp", radius=radius)
    for _ in range(20):
        x, depth = rng.uniform(-40, 40), rng.uniform(0.5, 9.5)
        # on the arc, at tau from its start
        tau = rng.uniform(0.05, 1.0) * math.radians(60.0)
        normal = np.array([0.0, math.sin(tau), math.cos(tau)])
        tip = np.array([x, 0.0, -radius]) + (radius + depth) * normal
        assert_first_contact(surface, tip, depth, normal, rng)
        # on the tangent plane past the arc's 60 degree end
        end = math.radians(60.0)
        normal = np.array([0.0, math.sin(end), math.cos(end)])
        along = np.array([0.0, math.cos(end), -math.sin(end)])
        tip = (np.array([x, 0.0, -radius]) + radius * normal + depth * normal
               + rng.uniform(1.0, 50.0) * along)
        assert_first_contact(surface, tip, depth, normal, rng)


def test_contact_pose_hemisphere_first_contact_oracle(rng):
    radius = 60.0
    surface = SurfaceModel("hemisphere", radius=radius)
    centre = np.array([0.0, 0.0, radius])
    for _ in range(20):
        u = rng.standard_normal(3)
        u[2] = -abs(u[2]) - 0.5  # on the approach side, clear of the dome's rim
        u /= np.linalg.norm(u)
        depth = rng.uniform(0.5, 9.5)
        assert_first_contact(surface, centre + (radius - depth) * u, depth, -u, rng)


def test_contact_pose_slip_leaves_the_anchor_on_a_curved_surface(rng):
    # The anchor dragged by a slip is a boundary point: on the ramp's arc
    # |(y, z + r)| = r, on the hemisphere |point - centre| = r.
    radius = 300.0
    ramp = SurfaceModel("ramp", radius=radius)
    dome = SurfaceModel("hemisphere", radius=60.0)
    on_arc = lambda tau, depth: np.array([2.0, (radius + depth) * math.sin(tau),
                                          (radius + depth) * math.cos(tau) - radius])
    on_dome = lambda a, depth: np.array([0.0, 0.0, 60.0]) + (60.0 - depth) * np.array(
        [math.sin(a), 0.0, -math.cos(a)])
    for surface, at, distance in ((ramp, on_arc, lambda p: math.hypot(p[1], p[2] + radius)),
                                  (dome, on_dome, lambda p: np.linalg.norm(p - [0, 0, 60.0]))):
        for _ in range(10):
            start, depth = rng.uniform(0.2, 0.6), rng.uniform(1.0, 8.0)
            step = 9.0 / (radius if surface is ramp else 60.0)  # 9 mm along the surface
            _, first = contact_pose(surface, Pose(np.eye(3), at(start, depth)), None)
            x_fs, anchor = contact_pose(surface, Pose(np.eye(3), at(start + step, depth)), first)
            assert np.linalg.norm(anchor[0] - first[0]) > 1.0  # it slipped
            assert distance(anchor[0]) == pytest.approx(
                radius if surface is ramp else 60.0, abs=1e-9)
            assert np.linalg.norm(x_fs.translation[:2]) == pytest.approx(sim._MAX_SHEAR, abs=0.5)


def sensing_batch(surfaces, poses, anchors, rng):
    """A stacked batch of one surface-following arm per surface, at the
    poses, holding the anchors."""
    scenario = Scenario(task="follow", duration=1.0)
    arms = [sim._Arm(f"arm{i}", surface, pose, control.preset("surface_follow"), scenario, rng)
            for i, (surface, pose) in enumerate(zip(surfaces, poses))]
    batch = sim._Batch.of(arms)
    batch.anchors = list(anchors)
    return batch


def assert_sensed_as_alone(arm, surface, pose, anchor):
    """The arm's X_fs and anchor are its own contact_pose call's, bit for bit."""
    single, single_anchor = contact_pose(surface, pose, anchor)
    assert arm.true_fs.rotation.tobytes() == single.rotation.tobytes()
    assert arm.true_fs.translation.tobytes() == single.translation.tobytes()
    point, spin = arm.batch.anchors[arm.row]
    assert point.tobytes() == single_anchor[0].tobytes() and spin == single_anchor[1]


def test_sense_gives_each_arm_its_own_contact_pose(rng):
    # One batch over flat, ramp (on and off its arc) and hemisphere
    # surfaces, some posed away from the origin, with fresh anchors and
    # anchors that slip: every arm's X_fs and anchor are its own
    # contact_pose call's, bit for bit.  An arm out of the envelope raises
    # its single call's NoContactError, and the others stay in contact.
    surfaces = [SurfaceModel("flat", exp(np.array([1.0, 2, 3, 0.1, -0.2, 0.3]))),
                SurfaceModel("ramp", radius=300.0), SurfaceModel("ramp", radius=300.0),
                SurfaceModel("hemisphere", radius=60.0), SurfaceModel("flat")]
    tips = [[0, 0, 3.0], [0, -20, 4.0], [0, 40, 5.0], [5, 3, 5.0], [0, 0, 4.0]]
    poses = [exp(np.array([0, 0, 0, *rng.normal(0, 0.05, 3)])) for _ in tips]
    poses = [Pose(p.rotation, s.pose.apply(t)) for p, s, t in zip(poses, surfaces, tips)]
    batch = sensing_batch(surfaces, poses, [None] * 5, rng)
    for _ in range(3):
        anchors = list(batch.anchors)
        batch.poses = Pose.stack(poses)
        batch.sense()
        assert batch.sensed == list(range(5))
        for arm, surface, pose, anchor in zip(batch.arms, surfaces, poses, anchors):
            assert_sensed_as_alone(arm, surface, pose, anchor)
        # shear past the slip limit and spin past its clamp
        poses = [Pose(p.rotation @ rot_z(0.2), p.translation + np.array([6.0, 0, 0]))
                 for p in poses]
    deep = [Pose(np.eye(3), np.array([0, -20, z])) for z in (4.0, 30.0)]
    batch = sensing_batch(surfaces[1:3], deep, [None, None], rng)
    with pytest.raises(NoContactError) as sensed:
        batch.sense()
    with pytest.raises(NoContactError) as single:
        contact_pose(surfaces[2], deep[1], None)
    assert str(sensed.value) == str(single.value)
    assert str(sensed.value).startswith("contact depth 30")
    assert batch.sensed == [0] and batch.anchors[1] is None
    assert isinstance(batch.true_fs, Pose) and batch.true_fs.rotation.shape == (3, 3)
    assert_sensed_as_alone(batch.arms[0], surfaces[1], deep[0], None)


def engine_step(arm):
    """One arm's part of a lockstep step before it steers: its batch
    senses, then observes and filters.  Returns the arm's true X_fs and
    belief, or None out of contact (a pushing arm); raises the
    NoContactError of an arm that cannot go on out of contact."""
    batch = arm.batch
    batch.sense()
    if not batch.sensed:
        return None
    batch.update()
    return arm.true_fs, filter_state(arm).belief


def filter_state(arm):
    """The arm's FilterState, None out of contact."""
    return arm.batch.state(arm.row)[2]


def place(arm, pose):
    """Put the only arm of its batch at pose."""
    assert arm.batch.n == 1
    arm.batch.poses = pose


def test_arm_lost_contact_forgets_anchor(monkeypatch):
    # Engage, shear by 3 mm, leave the depth envelope, re-engage 4 mm away
    # with a 0.1 rad twist: the re-engagement plants a new anchor and reads
    # zero shear and spin.  An arm that kept its old anchor would read
    # (4, 0, 3) and a 0.1 rad spin, both inside the slip limits.  It also
    # starts a new filter, as the first engagement did: its first belief is
    # that step's observation, not a fusion with the lost contact's belief.
    observed = []

    def recorded(true_fs, rng):
        observed.append(observe(true_fs, rng))
        return observed[-1]

    monkeypatch.setattr(sim, "observe", recorded)
    scenario = Scenario(task="track", duration=1.0)
    at = lambda x, z, spin=0.0: Pose(rot_z(spin), np.array([x, 0.0, z]))
    for lost in (at(3.0, -0.5), at(3.0, 11.0)):
        arm = sim._Arm("probe", SurfaceModel("flat"), at(0.0, 3.0),
                       control.preset("tracking"), scenario, np.random.default_rng(0))
        engine_step(arm)
        place(arm, at(3.0, 3.0))
        true_fs, _ = engine_step(arm)
        assert np.allclose(true_fs.translation, [3, 0, 3], atol=1e-12)
        place(arm, lost)
        with pytest.raises(NoContactError):
            engine_step(arm)
        assert arm.batch.anchors[arm.row] is None
        assert filter_state(arm) is None
        place(arm, at(4.0, 3.0, 0.1))
        true_fs, belief = engine_step(arm)
        assert np.allclose(true_fs.translation, [0, 0, 3], atol=1e-12)
        assert pose_to_euler(true_fs)[5] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(belief.mean.matrix, observed[-1].mean.matrix)
        assert np.array_equal(belief.cov, np.diag(DEFAULT_OBSERVATION_STD ** 2))


def test_pushing_arm_out_of_contact_restarts_its_servo_and_presses():
    # Out of contact a pushing arm forgets the contact, drops the contact
    # servo's PID state (so re-engaging starts it afresh and skips the
    # derivative, as engaging does) and presses with its feedforward.  The
    # bearing loop tracks the target, not the contact, so it keeps its
    # state.
    cfg = control.PushConfig(
        servo=control.preset("push_pid1"),
        bearing_pid=control.preset("push_pid2_single"),
        target_pose_in_work=Pose(np.eye(3), np.array([0.0, 100.0, 200.0])))
    arm = sim._Arm("leader", SurfaceModel("flat"), Pose(np.eye(3), np.array([0.0, 0.0, 3.0])),
                   cfg, Scenario(task="push_single", duration=1.0), np.random.default_rng(0))
    pid = lambda: arm.batch.state(arm.row)[3]
    assert engine_step(arm) is not None
    arm.batch.steer()
    assert pid().initialized and arm.bearing.initialized
    bearing = arm.bearing
    place(arm, Pose(np.eye(3), np.array([0.0, 0.0, -1.0])))
    assert engine_step(arm) is None
    arm.batch.steer()
    assert arm.batch.anchors[arm.row] is None and filter_state(arm) is None
    assert pid() is None
    assert arm.bearing is bearing
    assert np.array_equal(arm.command, cfg.servo.feedforward_twist)
    place(arm, Pose(np.eye(3), np.array([0.0, 0.0, 3.0])))
    assert engine_step(arm) is not None
    initial = control.PidState.initial(6)
    assert not pid().initialized
    assert np.array_equal(pid().integral, initial.integral)
    assert np.array_equal(pid().smoothed_error, initial.smoothed_error)


def test_contact_pose_slip_limits_bound_shear_and_spin():
    # Random walks inside the depth envelope on a flat surface, threading
    # the anchor: the skin never reports more shear or spin than it holds.
    rng = np.random.default_rng(2024)
    surface = SurfaceModel("flat")
    worst_shear = worst_spin = 0.0
    for walk in range(300):
        tilted = walk % 2 == 1
        tip = np.array([*rng.uniform(-5, 5, 2), rng.uniform(0.5, 9.5)])
        angles = np.zeros(3)
        anchor = None
        for _ in range(60):
            tip = tip + np.array([*rng.normal(0.0, 2.0, 2), rng.normal(0.0, 0.5)])
            tip[2] = min(9.9, max(0.1, tip[2]))
            angles[2] += rng.normal(0.0, 0.1)
            if tilted:
                angles[:2] = rng.uniform(-0.3, 0.3, 2)
            sensor = Pose(exp(np.concatenate([np.zeros(3), angles])).rotation, tip)
            x_fs, anchor = contact_pose(surface, sensor, anchor)
            worst_shear = max(worst_shear, float(np.linalg.norm(x_fs.translation[:2])))
            if not tilted:
                worst_spin = max(worst_spin, abs(pose_to_euler(x_fs)[5]))
    assert worst_shear <= sim._MAX_SHEAR + 1e-9
    assert worst_spin <= sim._MAX_SPIN + 1e-9
    # the walks reach the limits, so the bound is exercised
    assert worst_shear > sim._MAX_SHEAR - 1e-6
    assert worst_spin > sim._MAX_SPIN - 1e-6


def test_ramp_probe_closed_form():
    surface = SurfaceModel("ramp", radius=300.0)
    # flat region (y <= 0)
    q, n, depth = surface.probe(np.array([7.0, -50.0, 2.0]))
    assert np.allclose(q, [7, -50, 0], atol=1e-12)
    assert np.allclose(n, [0, 0, 1], atol=1e-12)
    assert depth == pytest.approx(2.0, abs=1e-12)
    # arc region at 30 degrees, 2 mm deep
    tau = math.radians(30.0)
    p = np.array([1.0, 302.0 * math.sin(tau), 302.0 * math.cos(tau) - 300.0])
    q, n, depth = surface.probe(p)
    assert depth == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(q, [1.0, 300 * math.sin(tau), 300 * math.cos(tau) - 300],
                       atol=1e-9)
    assert np.allclose(n, [0.0, math.sin(tau), math.cos(tau)], atol=1e-9)
    # tangent-plane continuation past the 60 degree extent
    tau_max = math.radians(60.0)
    n_t = np.array([0.0, math.sin(tau_max), math.cos(tau_max)])
    t_dir = np.array([0.0, math.cos(tau_max), -math.sin(tau_max)])
    q0 = np.array([2.0, 300 * math.sin(tau_max), 300 * math.cos(tau_max) - 300])
    p = q0 + 1.5 * n_t + 20.0 * t_dir
    q, n, depth = surface.probe(p)
    assert depth == pytest.approx(1.5, abs=1e-9)
    assert np.allclose(n, n_t, atol=1e-9)
    assert np.allclose(q, q0 + 20.0 * t_dir, atol=1e-9)


def test_hemisphere_probe_closed_form(rng):
    radius = 60.0
    surface = SurfaceModel("hemisphere", radius=radius)
    q, n, depth = surface.probe(np.array([0.0, 0.0, 2.0]))
    assert depth == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(q, [0, 0, 0], atol=1e-12)
    assert np.allclose(n, [0, 0, 1], atol=1e-12)
    centre = np.array([0.0, 0.0, radius])
    for _ in range(10):
        u = rng.standard_normal(3)
        u[2] = -abs(u[2]) - 0.5  # stay on the approach side of the dome
        u /= np.linalg.norm(u)
        d = rng.uniform(0.0, 5.0)
        q, n, depth = surface.probe(centre + (radius - d) * u)
        assert depth == pytest.approx(d, abs=1e-9)
        assert np.allclose(n, -u, atol=1e-9)
        assert np.allclose(q, centre + radius * u, atol=1e-9)


def test_surface_validation():
    with pytest.raises(ValueError):
        SurfaceModel("cone")
    with pytest.raises(ValueError):
        SurfaceModel("ramp")
    with pytest.raises(ValueError):
        SurfaceModel("hemisphere", radius=-1.0)
    # the radius rule of Scenario.surface_radius: positive, square finite
    for kind in ("ramp", "hemisphere"):
        for radius in (math.nan, math.inf, -math.inf, 1e200):
            with pytest.raises(ValueError):
                SurfaceModel(kind, radius=radius)
    # and of Scenario's flat surface: no radius at all
    for radius in (math.nan, 5.0):
        with pytest.raises(ValueError):
            SurfaceModel("flat", radius=radius)


# ----------------------------------------------------------------- observe

def test_observe_tiny_noise_limit(rng, monkeypatch):
    std = np.full(6, 1e-12)
    monkeypatch.setattr(sim, "DEFAULT_OBSERVATION_STD", std)
    true = euler_to_pose(1.0, -1.0, 3.0, 0.05, 0.02, -0.04)
    obs = observe(true, rng)
    assert np.allclose(obs.mean.matrix, true.inverse().matrix, atol=1e-9)
    assert np.max(np.abs(obs.cov)) < 1e-20
    assert np.array_equal(obs.cov, np.diag(std ** 2))


def test_observations_share_one_read_only_covariance(rng, monkeypatch):
    # diag(std^2) is built once per DEFAULT_OBSERVATION_STD value, read at
    # call time, and still checked finite on every observation.
    true = euler_to_pose(1.0, -1.0, 3.0, 0.05, 0.02, -0.04)
    first, second = observe(true, rng), observe(true, rng)
    assert first.cov is second.cov
    assert not first.cov.flags.writeable
    assert np.array_equal(first.cov, np.diag(DEFAULT_OBSERVATION_STD ** 2))
    stacked = sim._observe(Pose.stack([true] * 3), rng.standard_normal((3, 6)))
    assert np.array_equal(stacked.cov, np.broadcast_to(first.cov, (3, 6, 6)))
    monkeypatch.setattr(sim, "DEFAULT_OBSERVATION_STD", 2.0 * DEFAULT_OBSERVATION_STD)
    assert np.array_equal(observe(true, rng).cov, np.diag(4.0 * DEFAULT_OBSERVATION_STD ** 2))
    monkeypatch.setattr(sim, "DEFAULT_OBSERVATION_STD", np.full(6, 1e200))
    with pytest.raises(CovarianceError, match="^covariance is not finite"):
        sim._observe(true, np.zeros(6))  # a zero draw, so that only std^2 overflows


# Whitening poses: near the identity, where any chart agrees with the
# left-perturbation one, and at the edge of the filter study's sampling
# range (5 mm off-axis, 25 deg tilt), where a covariance reported in
# another chart (e.g. J(mu) diag(std^2) J(mu)^T) is visibly miscalibrated.
OBSERVATION_POSES = (
    euler_to_pose(1.0, -1.5, 3.0, math.radians(4), math.radians(-3),
                  math.radians(2)),
    euler_to_pose(4.0, -3.0, 6.0, math.radians(20), math.radians(-15),
                  math.radians(5)),
)


@pytest.fixture(scope="module")
def observation_errors():
    """(injected twists, whitened twists) per pose in OBSERVATION_POSES."""
    rng = np.random.default_rng(77)
    out = []
    for true in OBSERVATION_POSES:
        errors = np.empty((10000, 6))
        whitened = np.empty((10000, 6))
        for i in range(10000):
            obs = observe(true, rng)
            err = log(obs.mean @ true)  # recovers the injected twist
            errors[i] = err
            whitened[i] = np.linalg.solve(np.linalg.cholesky(obs.cov), err)
        out.append((errors, whitened))
    return out


def test_observe_mae_half_normal(observation_errors):
    expected = DEFAULT_OBSERVATION_STD * math.sqrt(2.0 / math.pi)
    for errors, _ in observation_errors:
        mae = np.mean(np.abs(errors), axis=0)
        assert np.all(np.abs(mae / expected - 1.0) < 0.05)


def test_observe_reported_covariance_calibrated(observation_errors):
    for _, whitened in observation_errors:
        var = np.var(whitened, axis=0)
        assert np.all((var > 0.9) & (var < 1.1)), var


# ------------------------------------------------------------ leader twist

def test_leader_twist_reference_values():
    v = leader_twist(0.0)
    assert v[0] == pytest.approx(0.0, abs=1e-12)          # quarter phase
    assert v[1] == pytest.approx(2 * math.pi * 75 / 30, rel=1e-12)
    assert v[3] == pytest.approx(2 * math.pi * math.radians(25) / 30, rel=1e-12)


def test_leader_twist_period_integral_vanishes():
    ts = np.linspace(0.0, 30.0, 3001)
    vals = np.stack([leader_twist(float(t)) for t in ts])
    integral = np.trapezoid(vals, ts, axis=0)
    assert np.all(np.abs(integral) < 1e-6)


# --------------------------------------------------------- pushing dynamics

def test_push_object_step_pure_advance():
    obj = PushedObject(y=0.0, z=100.0)
    out = push_object_step(obj, (0.0, 2.0))
    assert out.z == 102.0 and out.y == 0.0 and out.phi == 0.0


def test_push_object_step_rotation_gain():
    obj = PushedObject(y=10.0, z=100.0)
    out = push_object_step(obj, (1.0, 0.0))
    assert out.phi == pytest.approx(0.7 / 40.0, rel=1e-12)


def test_push_object_step_rejects_large_steps():
    obj = PushedObject(y=0.0, z=100.0)
    with pytest.raises(ApproximationDomainError):
        push_object_step(obj, (6.0, 0.0))
    with pytest.raises(ApproximationDomainError):
        push_object_step(obj, (0.0, -5.5))


def test_push_plant_off_the_face_leaves_it():
    face = euler_to_pose(5.0, -3.0, 40.0, 0.2, -0.1, 0.3)
    tip = face.apply(np.array([1.0, 2.0, -0.5]))
    out, tip_face = sim._push_plant(face, np.array([1.0, 2.0, 1.0]), tip)
    assert out is face
    assert tip_face is None


def test_push_plant_advances_by_the_excess_depth():
    # Pressed 2.5 mm past the yield depth with no tangential motion: the
    # face moves 2.5 mm along its normal without turning, leaving the tip
    # at the yield depth.
    face = euler_to_pose(5.0, -3.0, 40.0, 0.2, -0.1, 0.3)
    for prev in (None, np.array([1.0, 2.0, 3.0])):
        tip = face.apply(np.array([1.0, 2.0, sim._YIELD_DEPTH + 2.5]))
        out, tip_face = sim._push_plant(face, prev, tip)
        assert np.array_equal(out.rotation, face.rotation)
        assert np.allclose(out.translation, face.translation + 2.5 * face.rotation[:, 2],
                           atol=1e-12)
        assert np.allclose(tip_face, [1.0, 2.0, sim._YIELD_DEPTH], atol=1e-12)


def test_push_plant_yaws_with_tangential_motion():
    # 1 mm of tangential tip motion inside the yield depth turns the face
    # about its x axis through the centre of friction, r0 behind the
    # contact, by the yaw law's angle, and moves it no deeper.
    face = Pose.identity()
    prev = np.array([0.0, 0.0, 2.0])
    out, tip_face = sim._push_plant(face, prev, np.array([0.0, 1.0, 2.0]))
    angle = -sim._push_yaw(-1.0, 0.0)
    assert angle == pytest.approx(0.7 / 40.0, rel=1e-12)
    expected = exp(np.array([0, 0, 0, angle, 0, 0])).rotation
    assert np.allclose(out.rotation, expected, atol=1e-15)
    cof = np.array([0.0, 1.0, sim._OBJECT_R0])
    assert np.allclose(out.apply(cof), cof, atol=1e-12)
    assert np.allclose(tip_face, out.inverse().apply(np.array([0.0, 1.0, 2.0])),
                       atol=1e-15)
    with pytest.raises(ApproximationDomainError):
        sim._push_plant(face, prev, np.array([0.0, 6.0, 2.0]))


def test_pushed_object_validation_and_bearing():
    obj = PushedObject(y=3.0, z=4.0, phi=0.1)
    assert obj.bearing == pytest.approx(math.atan2(3, 4) - 0.1, rel=1e-15)


def test_push_step_bearing_first_order(rng):
    for _ in range(20):
        obj = PushedObject(y=rng.uniform(-200, 200), z=rng.uniform(50, 300),
                           phi=rng.uniform(-0.5, 0.5))
        dy, dz = 1e-4 * rng.standard_normal(2)
        stepped = push_object_step(obj, (dy, dz))
        r_sq = obj.y ** 2 + obj.z ** 2
        predicted = (obj.z / r_sq) * dy - (obj.y / r_sq) * dz \
            - (sim._OBJECT_ALPHA / sim._OBJECT_R0) * dy
        assert stepped.bearing - obj.bearing == pytest.approx(predicted, abs=1e-7)


def test_bearing_sensitivity_identities(rng):
    dy, dz, dphi, flip = bearing_sensitivity(PushedObject(y=0.0, z=50.0))
    assert dphi == -1.0
    assert dy == pytest.approx(1.0 / 50.0, rel=1e-12)
    assert dz == pytest.approx(0.0, abs=1e-15)
    assert flip == pytest.approx(40.0 / 0.7, rel=1e-12)
    # finite-difference cross-check of the analytic partials
    for _ in range(10):
        obj = PushedObject(y=rng.uniform(-100, 100), z=rng.uniform(30, 200),
                           phi=rng.uniform(-1, 1))
        gy, gz, gphi, _ = bearing_sensitivity(obj)
        h = 1e-6 * max(1.0, abs(obj.y), abs(obj.z))
        bear = lambda y, z, phi: math.atan2(y, z) - phi
        fd_y = (bear(obj.y + h, obj.z, obj.phi) - bear(obj.y - h, obj.z, obj.phi)) / (2 * h)
        fd_z = (bear(obj.y, obj.z + h, obj.phi) - bear(obj.y, obj.z - h, obj.phi)) / (2 * h)
        assert gy == pytest.approx(fd_y, rel=1e-6, abs=1e-12)
        assert gz == pytest.approx(fd_z, rel=1e-6, abs=1e-12)
        assert gphi == -1.0


def test_bearing_sensitivity_singular_origin():
    with pytest.raises(SingularTargetError):
        bearing_sensitivity(PushedObject(y=0.0, z=0.0))


# --------------------------------------------------- integrators and guards

def test_integrate_body_stays_orthonormal(rng):
    # Nothing re-orthonormalizes the pose: exp's rotation is orthonormal to
    # round-off, and the products' errors only add up (2e5 steps read
    # 5.8e-14), so 1e5 steps stay far inside 1e-12.
    pose = Pose.identity()
    twists = 0.1 * rng.standard_normal((100_000, 6))
    for tw in twists:
        pose = _integrate_body(pose, tw, DT, "probe")
    drift = pose.rotation.T @ pose.rotation - np.eye(3)
    assert np.max(np.abs(drift)) <= 1e-12


def test_workspace_guard():
    with pytest.raises(DivergenceError):
        _check_pose(Pose(np.eye(3), np.array([0.0, 2e4, 0.0])), "probe")
    bad = Pose(np.eye(3), np.zeros(3))
    nan_pose = Pose(np.eye(3), np.array([math.nan, 0.0, 0.0]))
    with pytest.raises(DivergenceError):
        _check_pose(nan_pose, "probe")
    with pytest.raises(DivergenceError):
        _check_pose(Pose(np.diag([1.0, math.inf, 1.0]), np.zeros(3)), "probe")
    assert _check_pose(bad, "probe") is bad


def test_cross_matches_numpy_bit_for_bit(rng):
    vectors = rng.standard_normal((2000, 2, 3)) * 10.0 ** rng.integers(-9, 10, (2000, 2, 3))
    vectors[::5, 0, 1] = -0.0
    vectors[::7, 1, 2] = 0.0
    vectors[::11] = -0.0
    for a, b in vectors:
        assert np.array(_cross(a.tolist(), b.tolist())).tobytes() == np.cross(a, b).tobytes()


# ------------------------------------------------------------ trajectory log

def test_log_timestamps_strictly_increase():
    log_ = TrajectoryLog(("depth_mm",))
    p = Pose.identity()
    log_.add(0.0, "leader", p, np.zeros(6), 1.0, {"depth_mm": 3.0})
    log_.add(0.0, "follower", p, np.zeros(6), 1.0, {"depth_mm": 3.0})
    log_.add(DT, "leader", p, np.zeros(6), 1.0, {"depth_mm": 3.0})
    with pytest.raises(ValueError):
        log_.add(DT, "leader", p, np.zeros(6), 1.0, {"depth_mm": 3.0})


def test_log_rejects_unknown_scalar():
    log_ = TrajectoryLog(("depth_mm",))
    with pytest.raises(ValueError):
        log_.add(0.0, "leader", Pose.identity(), np.zeros(6), 1.0,
                 {"speed": 1.0})
    # the rejected row took no timestamp
    log_.add(0.0, "leader", Pose.identity(), np.zeros(6), 1.0, {"depth_mm": 3.0})
    assert len(log_.rows) == 1


def test_log_csv_layout(tmp_path):
    log_ = TrajectoryLog(("depth_mm", "bearing_rad"))
    pose = euler_to_pose(0.125, -2.5, 3.0, 0.25, 0.0, -0.5)
    tw = np.array([1.0, 0.5, -0.25, 0.0, 1e-17, -3.0])
    log_.add(0.0, "leader", pose, tw, 0.03125, {"depth_mm": 3.0, "bearing_rad": None})
    path = tmp_path / "log.csv"
    log_.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,arm,x,y,z,qw,qx,qy,qz,twist_0,twist_1,twist_2,"
                       "twist_3,twist_4,twist_5,belief_cov_trace,"
                       "depth_mm,bearing_rad")
    cells = lines[1].split(",")
    assert cells[1] == "leader"
    assert cells[-1] == ""  # None renders as an empty cell
    assert float(cells[2]) == pose.translation[0]  # %.17g round-trips
    assert float(cells[13]) == 1e-17


def test_csv_cells_are_each_values_17_digit_float(tmp_path):
    # Oracle: the per-cell f"{float(v):.17g}", an empty cell for None and a
    # string as it is.
    cells = [None, "note", -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324,
             True, False, np.float64(1.0 / 3.0), np.float32(0.1), 7, -1e300]
    columns = tuple(f"c{i}" for i in range(len(cells)))
    log_ = TrajectoryLog(columns)
    twist = np.array([-0.0, math.nan, math.inf, 1e-300, -2.5, 1.0 / 3.0])
    log_.add(np.float64(0.1), "leader", Pose.identity(), twist, np.float64(2.0 / 3.0),
             dict(zip(columns, cells)))
    path = tmp_path / "cells.csv"
    log_.write_csv(path)
    expected = ",".join("" if v is None else v if isinstance(v, str) else f"{float(v):.17g}"
                        for v in log_.rows[0])
    assert path.read_bytes() == (",".join(log_.header) + "\n" + expected + "\n").encode()
    assert expected.split(",")[-len(cells):] == [
        "", "note", "-0", "nan", "inf", "-inf", "1e-300",
        "4.9406564584124654e-324", "1", "0", "0.33333333333333331",
        "0.10000000149011612", "7", "-1.0000000000000001e+300"]


def test_quaternion_convention(rng):
    rotations = np.array([Rotation.random(random_state=rng).as_matrix() for _ in range(200)])
    for r, q in zip(rotations, sim._quaternions(rotations)):
        assert q[0] >= 0.0
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
        ref = Rotation.from_matrix(r).as_quat()  # (x, y, z, w)
        ref = np.array([ref[3], ref[0], ref[1], ref[2]])
        if ref[0] < 0:
            ref = -ref
        assert np.allclose(q, ref, atol=1e-9)


def test_log_block_form_appends_the_single_forms_rows(rng):
    # Rows for two arms, interleaved, with a None cell and a missing scalar.
    arms = ["leader", "follower"] * 3
    times = [0.0, 0.0, DT, DT, 2 * DT, 2 * DT]
    poses = [exp(rng.normal(size=6)) for _ in arms]
    twists = rng.normal(size=(6, 6))
    traces = [None, 1.5, None, 2.5, None, 3.5]
    depths = [None, 3.0, None, 3.25, None, 3.5]
    single = TrajectoryLog(("depth_mm", "bearing_rad"))
    for t, arm, pose, twist, trace, depth in zip(times, arms, poses, twists, traces, depths):
        single.add(t, arm, pose, twist, trace, {"depth_mm": depth})
    block = TrajectoryLog(("depth_mm", "bearing_rad"))
    block.add(times, arms, Pose.stack(poses), twists, traces, {"depth_mm": depths})
    assert repr(block.rows) == repr(single.rows)
    # a block keeps both checks, and appends nothing when one fails
    p = Pose.stack(poses[:2])
    with pytest.raises(ValueError, match="strictly increase"):
        block.add([3 * DT, 2 * DT], ["leader"] * 2, p, twists[:2], [None] * 2, {})
    with pytest.raises(ValueError, match="strictly increase"):
        block.add([3 * DT, 3 * DT], ["leader"] * 2, p, twists[:2], [None] * 2, {})
    with pytest.raises(ValueError, match="unknown scalar"):
        block.add([3 * DT] * 2, arms[:2], p, twists[:2], [None] * 2, {"speed": [1.0] * 2})
    assert len(block.rows) == 6
    block.add([3 * DT] * 2, arms[:2], p, twists[:2], [None] * 2, {})
    assert len(block.rows) == 8
    # a sequence whose length is not the stack's, or a twist not six wide,
    # is rejected before any row is appended or any timestamp taken
    p3, t3, arms3 = Pose.stack(poses[:3]), [4 * DT, 4 * DT, 5 * DT], arms[:3]
    with pytest.raises(ValueError, match="cov_trace has 2 cells for a block of 3 rows"):
        block.add(t3, arms3, p3, twists[:3], [None, 1.0], {})
    with pytest.raises(ValueError, match="depth_mm has 2 cells for a block of 3 rows"):
        block.add(t3, arms3, p3, twists[:3], [None] * 3, {"depth_mm": [1.0, 2.0]})
    with pytest.raises(ValueError, match="arm has 2 cells for a block of 3 rows"):
        block.add(t3, arms3[:2], p3, twists[:3], [None] * 3, {})
    with pytest.raises(ValueError, match=r"twist has shape \(2, 7\), not \(2, 6\)"):
        block.add(t3[:2], arms3[:2], p, rng.normal(size=(2, 7)), [None] * 2, {})
    with pytest.raises(ValueError, match=r"twist has shape \(5,\), not \(6,\)"):
        block.add(t3[0], arms3[0], poses[0], np.zeros(5), None, {})
    assert len(block.rows) == 8
    block.add(t3, arms3, p3, twists[:3], [None, 1.0, None], {})
    block.add(6 * DT, "leader", poses[0], np.zeros(6), None, {})
    assert len(block.rows) == 12


def test_quaternions_match_the_single_form_bit_for_bit(rng):
    # Random rotations, half and near-half turns about each axis (the
    # branches off the positive trace, where w may come out negative and
    # the quaternion flips), the identity, and entries of -0.0.
    rotations = [Rotation.random(random_state=rng).as_matrix() for _ in range(400)]
    for axis in np.eye(3):
        for angle in (math.pi, math.pi - 1e-3, -(math.pi - 1e-3), 2.5, -2.5):
            rotations.append(Rotation.from_rotvec(angle * axis).as_matrix())
    rotations += [np.eye(3), np.diag([1.0, -1.0, -1.0]), -np.diag([1.0, 1.0, -1.0])]
    rotations.append(np.array([[-0.0, -1.0, 0.0], [1.0, -0.0, -0.0], [0.0, 0.0, 1.0]]))
    r = np.array(rotations)
    stacked = sim._quaternions(r)
    single = np.array([_quaternion_from_rotation(m) for m in r])
    assert stacked.tobytes() == single.tobytes()
    # every branch and the sign flip were taken
    trace = r[:, 0, 0] + r[:, 1, 1] + r[:, 2, 2]
    x_first = (trace <= 0) & (r[:, 0, 0] > r[:, 1, 1]) & (r[:, 0, 0] > r[:, 2, 2])
    y_first = (trace <= 0) & ~x_first & (r[:, 1, 1] > r[:, 2, 2])
    z_first = (trace <= 0) & ~x_first & ~y_first
    assert min(np.count_nonzero(b) for b in (trace > 0, x_first, y_first, z_first)) >= 5
    w = np.select([x_first, y_first, z_first],
                  [r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], 0.0)
    assert np.count_nonzero(w < 0) >= 5


# ------------------------------------------------------------ scenario runs

def test_static_track_regulates_to_reference(monkeypatch):
    monkeypatch.setattr(sim, "DEFAULT_OBSERVATION_STD", np.full(6, 1e-9))
    scenario = Scenario(task="track", duration=6.0, track_profile="static")
    log_, metrics = run_scenario(scenario)
    assert metrics["task"] == "track"
    assert metrics["track_error_mm"] < 1e-6
    assert metrics["track_error_deg"] < 1e-6
    assert metrics["settled"] is True
    assert metrics["runtime_s"] == pytest.approx(6.0, rel=1e-12)
    assert len(log_.rows) == 2 * 180  # leader + follower per step


def test_follow_flat_net_displacement():
    scenario = Scenario(task="follow", duration=10.0, surface="flat")
    log_, metrics = run_scenario(scenario)
    assert metrics["surface"] == "flat"
    assert metrics["settled"] is True
    first, last = log_.rows[0], log_.rows[-1]
    net = math.hypot(last[2] - first[2], last[3] - first[3])
    # the last logged pose is one step short of the full 10 s
    assert net == pytest.approx(100.0, rel=0.02)


def test_push_single_reaches_target():
    scenario = Scenario(task="push_single", duration=90.0)
    log_, metrics = run_scenario(scenario)
    assert metrics["terminated"] is True
    assert metrics["settled"] is True
    assert metrics["final_target_error_mm"] < 10.0
    assert metrics["runtime_s"] < 90.0  # stopped at the target, not by clock
    # the one termination rule: the first leader row whose tip centre is
    # within 20 mm of the target is the last row
    leader = [row for row in log_.rows if row[1] == "leader"]
    tip = log_.header.index("tip_distance_mm")
    assert leader[-1][tip] < 20.0
    assert all(row[tip] >= 20.0 for row in leader[:-1])


def test_push_follower_lost_contact_ends_the_run(monkeypatch):
    # No shipped config loses the follower's contact, so force it: before
    # step 30 is sensed the follower's surface moves 1 m away, so it reads
    # no contact.  Only the pushing leader re-approaches out of contact; a
    # follower that loses the object ends the run.
    finished = []
    away = lambda arm: setattr(arm.surface, "pose", Pose(np.eye(3), np.full(3, 1e3)))
    monkeypatch.setattr(sim, "_run_push", sabotaged(sim._run_push, {0: 30}, away, 0, finished))
    with pytest.raises(DivergenceError) as err:
        run_scenario(Scenario(task="push_dual", duration=3.0))
    assert str(err.value).startswith("push_dual step 30: NoContactError")
    assert finished == []


def test_tall_push_topples_when_every_depth_error_is_out_of_tolerance(monkeypatch):
    # No shipped run topples.  A negative tolerance makes every step's
    # follower depth error count against the margin, which then decays at
    # 0.5 per second from 1 and reaches 0 at 2 s.
    monkeypatch.setattr(sim, "_STABILITY_TOLERANCE", -1.0)
    scenario = Scenario(task="push_dual", duration=10.0, tall=True)
    log_, metrics = run_scenario(scenario)
    assert metrics["runtime_s"] == 2.0
    assert len(log_.rows) == 120
    assert metrics["toppled"] is True
    assert metrics["terminated"] is False
    assert metrics["settled"] is False
    assert metrics["stability_margin_final"] <= 0.0


@pytest.mark.parametrize("scenario,patch", [
    # 60 steps: shorter than a block, 8 blocks of 7 and 4 steps
    pytest.param(Scenario(task="track", duration=2.0, seed=4), {}, id="2.0-periodic"),
    # 63 steps: 9 whole blocks of 7
    pytest.param(Scenario(task="track", duration=2.1, seed=4), {}, id="2.1-periodic"),
    # 315 steps: 2 blocks of 128 and 59 steps, a segment change
    pytest.param(Scenario(task="track", duration=10.5, track_profile="segments", seed=4), {},
                 id="10.5-segments"),
    # 150 steps: a block of 128 and one of 22
    pytest.param(Scenario(task="follow", duration=5.0, seed=4), {}, id="follow-flat"),
    pytest.param(Scenario(task="follow", duration=5.0, surface="ramp", seed=4), {},
                 id="follow-ramp"),
    # 8 passes of 75 steps, so blocks span passes; the last 15 of each settle
    pytest.param(Scenario(task="follow", duration=20.0, surface="hemisphere", seed=4), {},
                 id="follow-hemisphere"),
    # out of contact until step 45, terminates after 446 steps, mid-block
    pytest.param(Scenario(task="push_single", duration=120.0, dt=0.1, seed=4), {},
                 id="push_single"),
    # every follower depth error counts against the margin: topples after
    # 60 steps, mid-block
    pytest.param(Scenario(task="push_dual", duration=10.0, tall=True, seed=4),
                 {"_STABILITY_TOLERANCE": -1.0}, id="push_dual-tall-topples"),
])
def test_track_logs_the_same_rows_in_any_block_length(monkeypatch, scenario, patch):
    # Every runner records its steps and logs them in blocks; any block
    # length logs the rows and metrics of logging each step as it goes.
    for name, value in patch.items():
        monkeypatch.setattr(sim, name, value)
    expected_log, expected_metrics = run_scenario(scenario)
    if scenario.task == "push_single":
        assert expected_metrics["terminated"] and len(expected_log.rows) == 446
        trace = expected_log.header.index("belief_cov_trace")
        assert expected_log.rows[44][trace] is None and expected_log.rows[45][trace] is not None
    if scenario.tall:
        assert expected_metrics["toppled"] and len(expected_log.rows) == 2 * 60
    for block in (1, 7):
        monkeypatch.setattr(sim, "_LOG_BLOCK", block)
        log_, metrics = run_scenario(scenario)
        assert repr(log_.rows) == repr(expected_log.rows)
        assert repr(metrics) == repr(expected_metrics)


def half_turn_log(scenario: Scenario, step: int):
    """A stand-in for sim.log that turns the scenario's logged tracking
    error of `step` into a half turn, where log has no single value.  Only
    the track runner's logging calls sim.log."""
    real_log = sim.log
    inputs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "log", lambda p: inputs.append(p) or real_log(p))
        run_scenario(scenario)
    target = inputs[0].translation[step]  # the tracking errors of the first block

    def half_turn(p):
        hit = (p.translation == target).all(axis=-1)
        return real_log(Pose(np.where(hit[..., None, None], np.diag([1.0, -1.0, -1.0]),
                                      p.rotation), p.translation))
    return half_turn


def test_a_logged_error_names_its_own_step(monkeypatch):
    # Step 13's logged tracking error is turned into a half turn: the run
    # stops at step 13 in a single log's words, whatever the block length,
    # also when the engine diverges at step 15, in the same block, before
    # the block is logged, and when step 13's own move diverges.
    scenario = Scenario(task="track", duration=2.0, seed=3)
    half_turn_at_13 = half_turn_log(scenario, 13)
    integrate, run_track = sim._integrate_body, sim._run_track
    moves = []  # the follower's moves in this trial's run

    def jump_at(step):
        def jump(pose, twist, dt, what):
            moves.append(what)
            if len(moves) == step + 1:
                twist = twist + np.array([2e4 / dt, 0, 0, 0, 0, 0])
            return integrate(pose, twist, dt, what)
        return jump

    def counted(trial):
        moves.clear()  # the engine reruns a trial that diverges
        return run_track(trial)

    monkeypatch.setattr(sim, "_run_track", counted)

    def error(block, jump):
        monkeypatch.setattr(sim, "_LOG_BLOCK", block)
        monkeypatch.setattr(sim, "_integrate_body", integrate if jump is None else jump_at(jump))
        with pytest.raises(DivergenceError) as err:
            run_scenario(scenario)
        return err.value

    assert str(error(256, 15)) == ("track step 15: DivergenceError: follower left the "
                                   "workspace (|position| > 10000 mm)")
    monkeypatch.setattr(sim, "log", half_turn_at_13)
    for block in (1, 7, 256):
        for jump in (None, 15, 13):
            err = error(block, jump)
            assert str(err) == ("track step 13: PrincipalBranchError: rotation angle "
                                "3.141592654 rad is within 1e-6 of pi; log is not "
                                "single-valued there")
            assert isinstance(err.__cause__, PrincipalBranchError)


def test_a_leader_step_out_of_the_exp_domain_names_its_step():
    # The leader's rotation steps are one stacked exp per block; an angle
    # that overflows is reported at its step in a single exp's words.
    with pytest.raises(DivergenceError) as err:
        run_scenario(Scenario(task="track", duration=1e300, dt=1e299))
    assert str(err.value) == ("track step 0: ApproximationDomainError: rotation angle inf "
                              "is not finite")


def test_track_run_deterministic(tmp_path):
    scenario = Scenario(task="track", duration=6.0, track_profile="static", seed=11)
    paths = []
    for name in ("a.csv", "b.csv"):
        log_, _ = run_scenario(scenario)
        p = tmp_path / name
        log_.write_csv(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ------------------------------------------------------------ lockstep trials

# Three trials each, short; the push runs at a coarse dt go on to
# termination, whose step differs by seed (push_dual at dt 0.2: 202 and
# 203 steps), and push_single starts with its approach, out of contact.
# The mixed batch ends its trials at 150, 60 and 240 steps, and at
# push_single's engagement (step 136) one update inits that leader's
# filter while it steps push_dual's two arms.
LOCKSTEP_BATCHES = {
    "track_periodic": [Scenario(task="track", duration=2.0, seed=i) for i in range(3)],
    "track_segments": [Scenario(task="track", duration=2.0, track_profile="segments",
                                seed=i) for i in range(3)],
    "follow_flat": [Scenario(task="follow", duration=2.0, seed=i) for i in range(3)],
    "follow_ramp": [Scenario(task="follow", duration=2.0, surface="ramp", seed=i)
                    for i in range(3)],
    "follow_hemisphere": [Scenario(task="follow", duration=4.0, surface="hemisphere",
                                   seed=i) for i in range(3)],
    "push_single": [Scenario(task="push_single", duration=120.0, dt=0.1, seed=i)
                    for i in range(3)],
    "push_dual": [Scenario(task="push_dual", duration=120.0, dt=0.2, seed=i)
                  for i in range(3)],
    "push_tall": [Scenario(task="push_dual", duration=2.0, tall=True, seed=i)
                  for i in range(3)],
    "mixed": [Scenario(task="push_dual", duration=5.0, seed=4),
              Scenario(task="push_dual", duration=2.0, tall=True, seed=5),
              Scenario(task="push_single", duration=8.0, seed=6)],
    # every task and surface kind in one batch: one stacked sense spans
    # flat, ramp and hemisphere, one stacked servo spans five presets
    "every_kind": [Scenario(task="track", duration=2.0, seed=7),
                   Scenario(task="follow", duration=3.0, surface="ramp", seed=8),
                   Scenario(task="follow", duration=4.0, surface="hemisphere", seed=9),
                   Scenario(task="push_single", duration=8.0, seed=10),
                   Scenario(task="push_dual", duration=5.0, seed=11)],
}


def record_stage_sizes(monkeypatch) -> dict:
    """Record each engine stage's batch size as it runs: the arms sensed
    and moved, (arms just engaged, arms stepped) per filter update, and
    the arms in contact per servo step."""
    sizes = {name: [] for name in ("sense", "update", "steer", "move")}
    measures = {
        "sense": lambda batch: batch.n,
        "update": lambda batch: (sum(row not in batch.group for row in batch.sensed),
                                 sum(row in batch.group for row in batch.sensed)),
        "steer": lambda batch: len(batch.contact),
        "move": lambda batch: batch.n,
    }
    for name, measure in measures.items():
        def recorded(batch, stage=getattr(sim._Batch, name), name=name, measure=measure):
            sizes[name].append(measure(batch))
            return stage(batch)
        monkeypatch.setattr(sim._Batch, name, recorded)
    return sizes


@pytest.mark.parametrize("name", LOCKSTEP_BATCHES)
def test_lockstep_trials_match_serial_runs(monkeypatch, name):
    scenarios = LOCKSTEP_BATCHES[name]
    serial = [run_scenario(s) for s in scenarios]
    sizes = record_stage_sizes(monkeypatch)
    lockstep = sim.run_scenarios(scenarios)
    assert len(lockstep) == len(serial)
    for (log_a, metrics_a), (log_b, metrics_b) in zip(lockstep, serial):
        assert repr(log_a.rows) == repr(log_b.rows)
        assert repr(metrics_a) == repr(metrics_b)
    # every stage ran as stacks over the arms of every trial
    batches = sizes["update"]  # (arms out of contact until now, arms stepped)
    most = max(fresh + stepped for fresh, stepped in batches)
    arms = sum(2 if s.task == "push_dual" else 1 for s in scenarios)
    if name == "mixed":
        assert most == 4  # both push_dual runs, before the tall one ends
        assert (1, 2) in batches
        assert [len(log_.rows) for log_, _ in serial] == [300, 120, 240]
    elif name == "every_kind":
        assert most == 5  # all but push_single, still approaching
        assert (1, 2) in batches  # push_single engages beside push_dual
    else:
        assert most == arms
    assert max(sizes["sense"]) == max(sizes["move"]) == arms
    assert max(sizes["steer"]) == most
    assert len(sizes["sense"]) == len(sizes["steer"]) == len(sizes["move"])
    if name in ("push_single", "push_dual"):
        # every trial terminates, not all at the same step
        assert all(m["terminated"] for _, m in serial)
        assert len({m["runtime_s"] for _, m in serial}) > 1
    assert any(stepped > 1 for _, stepped in batches)


def sabotaged(runner, at: dict, act, phase: int, finished: list):
    """runner, made to call act(arm) on its last arm at the step `at` names
    for its trial's seed: before the engine senses it (phase 0) or before
    it moves it (phase 1).  Appends the seed to finished when it returns."""
    def run(trial):
        steps = runner(trial)
        yields = 0
        try:
            while True:
                arms = next(steps)
                if yields % 2 == phase and trial.step == at.get(trial.scenario.seed):
                    act(arms[-1])
                yields += 1
                yield arms
        except StopIteration as done:
            finished.append(trial.scenario.seed)
            return done.value
    return run


def serial_error(scenarios) -> str:
    """The DivergenceError message running the scenarios one by one raises."""
    with pytest.raises(DivergenceError) as serial:
        for s in scenarios:
            run_scenario(s)
    return str(serial.value)


def corrupt_prev_pose(arm):
    """Move the previous sensor pose in the arm's filter 1e200 mm away."""
    batch = arm.batch
    prev = batch.filter.prev_sensor_pose
    t = prev.translation.copy()
    t[... if len(batch.contact) == 1 else batch.group[arm.row]] = 1e200
    batch.filter = dataclasses.replace(batch.filter, prev_sensor_pose=Pose(prev.rotation, t))


def test_lockstep_reports_the_serial_divergence(monkeypatch):
    # Trials 1 and 2 of three each corrupt their filter at a chosen step,
    # trial 2 first: a previous sensor pose 1e200 mm away makes the
    # predicted covariance overflow inside the stacked filtering.step.  A
    # serial run stops at trial 1; lockstep must report that same error,
    # not trial 2's, which it meets first, nor the stack's wording.
    finished = []
    monkeypatch.setattr(sim, "_run_follow", sabotaged(
        sim._run_follow, {1: 40, 2: 25}, corrupt_prev_pose, 0, finished))
    scenarios = [Scenario(task="follow", duration=3.0, seed=i) for i in range(3)]
    serial = serial_error(scenarios)
    assert serial == "follow step 40: CovarianceError: covariance is not finite"

    stacked_errors = []
    step = filtering.step

    def recorded(state, obs, pose, noise):
        try:
            return step(state, obs, pose, noise)
        except CovarianceError as e:
            stacked_errors.append(str(e))
            raise

    monkeypatch.setattr(filtering, "step", recorded)
    finished.clear()
    with pytest.raises(DivergenceError) as lockstep:
        sim.run_scenarios(scenarios)
    assert str(lockstep.value) == serial
    assert isinstance(lockstep.value.__cause__, CovarianceError)
    assert finished == [0]
    # the stack named the element; the serial rerun named what a serial run does
    assert "covariance of stack element [2] is not finite" in stacked_errors


def test_lockstep_reports_a_lost_contact_as_a_serial_run_does(monkeypatch):
    # Follow trials 1 and 2 each sink their surface 20 mm at a chosen step,
    # trial 2 first, so the stacked sense finds their sensors past the
    # 10 mm depth envelope.  Lockstep reports trial 1's error in the words
    # of a serial run's single contact_pose, and trial 0 runs to its end.
    finished = []
    sink = lambda arm: setattr(arm.surface, "pose", Pose(np.eye(3), np.array([0, 0, -20.0])))
    monkeypatch.setattr(sim, "_run_follow", sabotaged(
        sim._run_follow, {1: 40, 2: 25}, sink, 0, finished))
    scenarios = [Scenario(task="follow", duration=3.0, surface="ramp", seed=i)
                 for i in range(3)]
    serial = serial_error(scenarios)
    assert serial.startswith("follow step 40: NoContactError: contact depth 2")
    finished.clear()
    with pytest.raises(DivergenceError) as lockstep:
        sim.run_scenarios(scenarios)
    assert str(lockstep.value) == serial
    assert finished == [0]


def jump_away(arm):
    """Command the arm a 20 m jump in its next move."""
    batch = arm.batch
    commands = np.array(batch.commands)
    commands[... if batch.n == 1 else arm.row] = 2e4 / arm.dt
    batch.commands = commands


def test_lockstep_reports_a_move_out_of_the_workspace_as_a_serial_run_does(monkeypatch):
    # Track trials 1 and 2 each command a 20 m jump at a chosen step, trial
    # 2 first, so the stacked move takes their followers out of the
    # workspace.  Lockstep reports trial 1's error in the words of a serial
    # run's single _integrate_body, and trial 0 runs to its end.
    finished = []
    monkeypatch.setattr(sim, "_run_track", sabotaged(
        sim._run_track, {1: 30, 2: 20}, jump_away, 1, finished))
    scenarios = [Scenario(task="track", duration=2.0, seed=i) for i in range(3)]
    serial = serial_error(scenarios)
    assert serial == ("track step 30: DivergenceError: follower left the workspace "
                      "(|position| > 10000 mm)")
    finished.clear()
    with pytest.raises(DivergenceError) as lockstep:
        sim.run_scenarios(scenarios)
    assert str(lockstep.value) == serial
    assert finished == [0]


def test_lockstep_reports_a_logged_error_as_a_serial_run_does(monkeypatch):
    # Track trial 1's logged tracking error at step 13 is a half turn, and
    # trial 2's follower jumps 20 m at step 5, before trial 1 logs step 13
    # in any block length.  Lockstep reports trial 1's logged error, as a
    # serial run does, and trial 0 runs to its end.
    scenarios = [Scenario(task="track", duration=2.0, seed=i) for i in range(3)]
    monkeypatch.setattr(sim, "log", half_turn_log(scenarios[1], 13))
    finished = []
    monkeypatch.setattr(sim, "_run_track", sabotaged(
        sim._run_track, {2: 5}, jump_away, 1, finished))
    serial = serial_error(scenarios)
    assert serial.startswith("track step 13: PrincipalBranchError: rotation angle")
    finished.clear()
    with pytest.raises(DivergenceError) as lockstep:
        sim.run_scenarios(scenarios)
    assert str(lockstep.value) == serial
    assert isinstance(lockstep.value.__cause__, PrincipalBranchError)
    assert finished == [0]


def test_lockstep_reports_a_pushed_object_step_as_a_serial_run_does(monkeypatch):
    # At dt 0.5 the leader's first pushes exceed the pushed object's 5 mm
    # differential limit: seed 0 at step 0, seed 1 at step 1.  Run after a
    # trial at dt 0.3, which does not, they fail in the stacked object step
    # one after the other; lockstep reports trial 1's error, as a serial
    # run does, and trial 0 runs to its end.
    finished = []
    monkeypatch.setattr(sim, "_run_push", sabotaged(sim._run_push, {}, None, 0, finished))
    scenarios = [Scenario(task="push_dual", duration=10.0, dt=dt, seed=seed)
                 for dt, seed in ((0.3, 0), (0.5, 1), (0.5, 0))]
    serial = serial_error(scenarios)
    assert serial.startswith("push_dual step 1: ApproximationDomainError: pusher step")
    finished.clear()
    with pytest.raises(DivergenceError) as lockstep:
        sim.run_scenarios(scenarios)
    assert str(lockstep.value) == serial
    assert finished == [0]


def negate_reference(arm):
    """Negate the reference rotation the arm's servo composes with: the
    error pose's trace then reads about -3, past the log's pi branch."""
    batch = arm.batch
    servo = copy.copy(batch.servo)
    ref = servo._reference_inverse
    rotation = ref.rotation.copy()
    rotation[... if len(batch.contact) == 1 else batch.group[arm.row]] *= -1.0
    object.__setattr__(servo, "_reference_inverse", Pose(rotation, ref.translation))
    batch.servo = servo


def test_lockstep_reports_a_steer_failure_as_a_serial_run_does(monkeypatch):
    # Follow trials 1 and 2 each negate their servo's reference rotation at
    # a chosen step, trial 2 first, so the stacked servo step's log meets
    # its pi branch.  Lockstep reports trial 1's error in the words of a
    # serial run's single servo step, and trial 0 runs to its end.
    finished = []
    monkeypatch.setattr(sim, "_run_follow", sabotaged(
        sim._run_follow, {1: 40, 2: 25}, negate_reference, 0, finished))
    scenarios = [Scenario(task="follow", duration=3.0, seed=i) for i in range(3)]
    serial = serial_error(scenarios)
    assert serial.startswith("follow step 40: PrincipalBranchError: rotation angle")
    finished.clear()
    with pytest.raises(DivergenceError) as lockstep:
        sim.run_scenarios(scenarios)
    assert str(lockstep.value) == serial
    assert isinstance(lockstep.value.__cause__, PrincipalBranchError)
    assert finished == [0]


def test_a_run_that_does_not_diverge_runs_each_trial_once(monkeypatch):
    # Only a step that raises makes the engine rerun the trials one by one.
    started = []

    def counted(trial):
        started.append(trial.scenario.seed)
        return run_track(trial)

    run_track = sim._run_track
    monkeypatch.setattr(sim, "_run_track", counted)
    sim.run_scenarios([Scenario(task="track", duration=1.0, seed=i) for i in range(3)])
    assert started == [0, 1, 2]


def test_one_track_trial_runs_single_forms(monkeypatch):
    # A stack of one costs about twice the single call (exp: 49 us against
    # 27 us), so a run with one arm calls exp, log and servo_step on single
    # inputs in every step, as it did before the lockstep stages were
    # stacked.  The track runner's logging runs once per block of steps:
    # one stacked exp for the leader's rotation steps and two stacked logs
    # for the logged errors.  60 steps in blocks of 16 are 4 blocks.
    monkeypatch.setattr(sim, "_LOG_BLOCK", 16)
    stacked = dict(exp=0, log=0, servo_step=0)
    forms = {"exp": lambda xi: np.ndim(xi) > 1,
             "log": lambda p: p.rotation.ndim > 2,
             "servo_step": lambda cfg, pid, observed, dt: observed.rotation.ndim > 2}
    calls = dict.fromkeys(forms, 0)
    modules = [sim, control, filtering, liegroup, uncertainty]
    for name, is_stack in forms.items():
        original = getattr(control if name == "servo_step" else liegroup, name)

        def recorded(*args, original=original, name=name, is_stack=is_stack):
            calls[name] += 1
            if is_stack(*args):
                stacked[name] += 1
            return original(*args)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recorded)
    run_scenario(Scenario(task="track", duration=2.0))
    assert stacked == {"exp": 4, "log": 8, "servo_step": 0}
    assert all(calls[name] - stacked[name] >= 60 for name in forms)


def test_make_study_sequence_contract(rng):
    pairs = make_study_sequence(50, rng)
    assert len(pairs) == 50
    for true_pose, obs in pairs:
        contact = true_pose.inverse()  # feature-frame pose of the sensor
        depth = contact.translation[2]
        assert 0.5 <= depth <= 6.0
        err = log(obs.mean @ true_pose.inverse())
        assert np.linalg.norm(err) < 5.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(task="juggle", duration=5.0)
    with pytest.raises(ValueError):
        Scenario(task="track", duration=0.0)
    with pytest.raises(ValueError):
        Scenario(task="track", duration=5.0, track_profile="spiral")
    with pytest.raises(ValueError):
        Scenario(task="follow", duration=5.0, surface="torus")


def test_one_path_appends_log_rows():
    # Every runner logs its recorded steps through one block logger
    # (sim._log_steps), the only caller of TrajectoryLog.add in sim.py,
    # and TrajectoryLog appends its rows in one statement, a single row
    # as a block of one.
    tree = ast.parse(Path(sim.__file__).read_text())
    callers = {function.name for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "add"}
    assert callers == {"_log_steps"}
    log_class, = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "TrajectoryLog"]
    appends = [node for node in ast.walk(log_class) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) in ("append", "extend")]
    assert len(appends) == 1
    assert ast.unparse(appends[0].func.value) == "self.rows"


def test_the_engine_holds_filter_and_pid_states_whole():
    # The engine stacks and takes each contact group's (FilterState,
    # PidState) whole (liegroup.stack, take), so a change of either
    # state's fields leaves sim.py as it is: the file names no field of
    # either and builds neither itself.
    tree = ast.parse(Path(sim.__file__).read_text())
    names = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "arg", "name") if isinstance(getattr(node, attr, None), str)}
    assert names & {"prev_sensor_pose", "integral", "smoothed_error", "initialized"} == set()
    calls = {getattr(node.func, "id", getattr(node.func, "attr", None))
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert calls & {"FilterState", "PidState"} == set()
