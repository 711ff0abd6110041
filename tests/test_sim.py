"""Surface geometry, the synthetic observation model, pushing dynamics,
and the closed-loop scenario runners."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from se3kit import control, filtering, sim
from se3kit.errors import (ApproximationDomainError, CovarianceError, DivergenceError,
                           NoContactError, SingularTargetError)
from se3kit.liegroup import Pose, euler_to_pose, exp, log, pose_to_euler
from se3kit.sim import (DEFAULT_OBSERVATION_STD, PushedObject, Scenario,
                        SurfaceModel, TrajectoryLog, _check_pose, _cross,
                        _integrate_body, _quaternion_from_rotation,
                        bearing_sensitivity, contact_pose, leader_twist,
                        make_study_sequence, observe, push_object_step,
                        run_scenario)

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


def engine_step(arm):
    """One arm's part of a lockstep step before it steers: sense, then the
    engine's observation and filter update.  Returns the arm's true X_fs
    and belief, or None out of contact (a pushing arm)."""
    if not arm.sense():
        return None
    sim._filter_arms([arm], sim._observe_arms([arm]))
    return arm.true_fs, arm.filter.belief


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
        arm.pose = at(3.0, 3.0)
        true_fs, _ = engine_step(arm)
        assert np.allclose(true_fs.translation, [3, 0, 3], atol=1e-12)
        arm.pose = lost
        with pytest.raises(NoContactError):
            engine_step(arm)
        assert arm.anchor is None
        assert arm.filter is None
        arm.pose = at(4.0, 3.0, 0.1)
        true_fs, belief = engine_step(arm)
        assert np.allclose(true_fs.translation, [0, 0, 3], atol=1e-12)
        assert pose_to_euler(true_fs)[5] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(belief.mean.matrix, observed[-1].mean.matrix)
        assert np.array_equal(belief.cov, np.diag(DEFAULT_OBSERVATION_STD ** 2))


def test_pushing_arm_out_of_contact_restarts_its_servo_and_presses():
    # Out of contact a pushing arm forgets the contact, restarts the contact
    # servo's PID (so re-engaging skips the derivative, as engaging does)
    # and presses with its feedforward.  The bearing loop tracks the
    # target, not the contact, so it keeps its state.
    cfg = control.PushConfig(
        servo=control.preset("push_pid1"),
        bearing_pid=control.preset("push_pid2_single"),
        target_pose_in_work=Pose(np.eye(3), np.array([0.0, 100.0, 200.0])))
    arm = sim._Arm("leader", SurfaceModel("flat"), Pose(np.eye(3), np.array([0.0, 0.0, 3.0])),
                   cfg, Scenario(task="push_single", duration=1.0), np.random.default_rng(0))
    assert engine_step(arm) is not None
    assert arm.steer() is not None
    assert arm.pid.initialized and arm.bearing.initialized
    bearing = arm.bearing
    arm.pose = Pose(np.eye(3), np.array([0.0, 0.0, -1.0]))
    assert engine_step(arm) is None
    assert arm.steer() is None
    assert arm.anchor is None and arm.filter is None
    initial = control.PidState.initial(6)
    assert not arm.pid.initialized
    assert np.array_equal(arm.pid.integral, initial.integral)
    assert np.array_equal(arm.pid.smoothed_error, initial.smoothed_error)
    assert arm.bearing is bearing
    assert np.array_equal(arm.command, cfg.servo.feedforward_twist)


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
        assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()


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


def test_quaternion_convention(rng):
    for _ in range(200):
        r = Rotation.random(random_state=rng).as_matrix()
        q = _quaternion_from_rotation(r)
        assert q[0] >= 0.0
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
        ref = Rotation.from_matrix(r).as_quat()  # (x, y, z, w)
        ref = np.array([ref[3], ref[0], ref[1], ref[2]])
        if ref[0] < 0:
            ref = -ref
        assert np.allclose(q, ref, atol=1e-9)


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
    # No shipped config loses the follower's contact, so force it: the
    # follower's surface (the second one sensed) reports no contact at its
    # 31st sense.  Only the pushing leader re-approaches out of contact; a
    # follower that loses the object ends the run.
    contact_pose = sim.contact_pose
    leader_surface = None
    follower_calls = 0

    def follower_loses_contact(surface, sensor_pose, anchor):
        nonlocal leader_surface, follower_calls
        leader_surface = leader_surface or surface  # the leader senses first
        if surface is not leader_surface:
            follower_calls += 1
            if follower_calls == 31:
                raise NoContactError("forced")
        return contact_pose(surface, sensor_pose, anchor)

    monkeypatch.setattr(sim, "contact_pose", follower_loses_contact)
    with pytest.raises(DivergenceError) as err:
        run_scenario(Scenario(task="push_dual", duration=3.0))
    assert str(err.value).startswith("push_dual step 30: NoContactError")


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
}


@pytest.mark.parametrize("name", LOCKSTEP_BATCHES)
def test_lockstep_trials_match_serial_runs(monkeypatch, name):
    scenarios = LOCKSTEP_BATCHES[name]
    serial = [run_scenario(s) for s in scenarios]
    batches = []  # (arms out of contact until now, arms stepped) per engine update
    filter_arms = sim._filter_arms

    def recorded(arms, obs):
        fresh = sum(arm.filter is None for arm in arms)
        batches.append((fresh, len(arms) - fresh))
        return filter_arms(arms, obs)

    monkeypatch.setattr(sim, "_filter_arms", recorded)
    lockstep = sim.run_scenarios(scenarios)
    assert len(lockstep) == len(serial)
    for (log_a, metrics_a), (log_b, metrics_b) in zip(lockstep, serial):
        assert repr(log_a.rows) == repr(log_b.rows)
        assert repr(metrics_a) == repr(metrics_b)
    # the updates ran as stacks over the arms of every trial
    most = max(fresh + stepped for fresh, stepped in batches)
    if name == "mixed":
        assert most == 4  # both push_dual runs, before the tall one ends
        assert (1, 2) in batches
        assert [len(log_.rows) for log_, _ in serial] == [300, 120, 240]
    else:
        assert most == sum(2 if s.task == "push_dual" else 1 for s in scenarios)
    if name in ("push_single", "push_dual"):
        # every trial terminates, not all at the same step
        assert all(m["terminated"] for _, m in serial)
        assert len({m["runtime_s"] for _, m in serial}) > 1
    assert any(stepped > 1 for _, stepped in batches)


def test_lockstep_reports_the_serial_divergence(monkeypatch):
    # Trials 1 and 2 of three each corrupt their filter at a chosen step,
    # trial 2 first: a previous sensor pose 1e200 mm away makes the
    # predicted covariance overflow inside the stacked filtering.step.  A
    # serial run stops at trial 1; lockstep must report that same error,
    # not trial 2's, which it meets first, nor the stack's wording.
    run_follow = sim._run_follow
    corrupt_at = {1: 40, 2: 25}

    def corrupted(trial):
        run = run_follow(trial)
        try:
            while True:
                sensed = next(run)
                if trial.step == corrupt_at.get(trial.scenario.seed):
                    (arm,) = sensed
                    arm.filter = filtering.FilterState(
                        arm.filter.belief, Pose(np.eye(3), np.full(3, 1e200)))
                yield sensed
        except StopIteration as done:
            return done.value

    monkeypatch.setattr(sim, "_run_follow", corrupted)
    scenarios = [Scenario(task="follow", duration=3.0, seed=i) for i in range(3)]
    with pytest.raises(DivergenceError) as serial:
        for s in scenarios:
            run_scenario(s)
    assert str(serial.value) == "follow step 40: CovarianceError: covariance is not finite"

    stacked_errors = []
    step = filtering.step

    def recorded(state, obs, pose, noise):
        try:
            return step(state, obs, pose, noise)
        except CovarianceError as e:
            stacked_errors.append(str(e))
            raise

    monkeypatch.setattr(filtering, "step", recorded)
    with pytest.raises(DivergenceError) as lockstep:
        sim.run_scenarios(scenarios)
    assert str(lockstep.value) == str(serial.value)
    assert isinstance(lockstep.value.__cause__, CovarianceError)
    # the stacks named the element; the single redo named what a serial run does
    assert "covariance of stack element [2] is not finite" in stacked_errors
    assert "covariance of stack element [1] is not finite" in stacked_errors


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
