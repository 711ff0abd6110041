"""PID machinery, the contact servo, and the pushing controller."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se3kit.control import (PidConfig, PidState, PushConfig, ServoConfig,
                            pid_step, preset, push_step, servo_step)
from se3kit.liegroup import Pose, ad, euler_to_pose, exp

DT = 1.0 / 30.0


# -------------------------------------------------------------- pid_step

def test_pid_zero_error_passes_feedforward():
    cfg = PidConfig(kp=[5, 5, 5, 2, 2, 0], ki=0.5 * np.ones(6), kd=0.5 * np.ones(6))
    ff = np.array([1.0, -2.0, 3.0, 0.1, 0.0, 0.5])
    out, _ = pid_step(cfg, PidState.initial(), ff, np.zeros(6), DT)
    assert np.array_equal(out, ff)


def test_pid_kp_only_gain_row():
    cfg = PidConfig(kp=[5, 5, 5, 2, 2, 0], ki=np.zeros(6), kd=np.zeros(6))
    e = np.array([1, 1, 1, 0.1, 0.1, 0.1])
    out, _ = pid_step(cfg, PidState.initial(), np.zeros(6), e, DT)
    assert np.allclose(out, [5, 5, 5, 0.2, 0.2, 0], atol=1e-15)


def test_pid_integral_saturates():
    cfg = PidConfig(kp=0.0, ki=0.1, kd=0.0, integral_clip=(-2, 2))
    state = PidState.initial(1)
    e = np.array([1.0])
    for k in range(1, 26):
        out, state = pid_step(cfg, state, np.zeros(1), e, 1.0)
        expected_integral = min(float(k), 2.0)
        assert state.integral[0] == expected_integral
        assert out[0] == pytest.approx(0.1 * expected_integral)
    # saturated from step 20 onwards (1.0 per step, clip at 2 needs 2 steps;
    # the 20-step figure is just "long after")
    assert state.integral[0] == 2.0


def test_pid_derivative_uses_ewma():
    cfg = PidConfig(kp=np.zeros(1), ki=np.zeros(1), kd=np.array([2.0]))
    state = PidState.initial(1)
    out0, state = pid_step(cfg, state, np.zeros(1), np.array([3.0]), DT)
    assert out0[0] == 0.0  # no predecessor, derivative suppressed
    out1, state = pid_step(cfg, state, np.zeros(1), np.array([5.0]), DT)
    # smoothed moves from 3 to 0.5*3 + 0.5*5 = 4; derivative = 1/dt
    assert out1[0] == pytest.approx(2.0 * (4.0 - 3.0) / DT, rel=1e-12)


def test_pid_proportional_linearity(rng):
    cfg = PidConfig(kp=[5, 5, 5, 2, 2, 0], ki=np.zeros(6), kd=np.zeros(6))
    for _ in range(20):
        e = rng.standard_normal(6)
        k = rng.uniform(-10, 10)
        out1, _ = pid_step(cfg, PidState.initial(), np.zeros(6), e, DT)
        outk, _ = pid_step(cfg, PidState.initial(), np.zeros(6), k * e, DT)
        assert np.allclose(outk, k * out1, rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.floats(0.01, 2.0))
def test_pid_integral_never_escapes_clip(errors, dt):
    cfg = PidConfig(kp=1.0, ki=1.0, kd=1.0, integral_clip=(-2, 2))
    state = PidState.initial(1)
    for e in errors:
        _, state = pid_step(cfg, state, np.zeros(1), np.array([e]), dt)
        assert -2.0 <= state.integral[0] <= 2.0


def test_pid_output_clip():
    cfg = PidConfig(kp=10.0, ki=0.0, kd=0.0, output_clip=(-3, 3))
    out, _ = pid_step(cfg, PidState.initial(1), np.zeros(1), np.array([5.0]), DT)
    assert out[0] == 3.0


def test_pid_return_types():
    for n in (1, 3, 6):
        cfg = PidConfig(kp=np.ones(n), ki=np.zeros(n), kd=np.zeros(n))
        out, _ = pid_step(cfg, PidState.initial(n), np.zeros(n), np.ones(n), DT)
        assert isinstance(out, np.ndarray) and out.shape == (n,)


def test_wrong_shape_twist_rejected():
    for bad in (np.zeros(5), np.zeros((6, 1)), np.zeros(7)):
        with pytest.raises(ValueError, match=r"shape \(6,\)"):
            exp(bad)
        with pytest.raises(ValueError, match=r"shape \(6,\)"):
            ad(bad)
        with pytest.raises(ValueError, match=r"shape \(6,\)"):
            ServoConfig(reference_contact_pose=Pose.identity(),
                        feedforward_twist=bad, pid=preset("tracking").pid)


def test_pid_validates_inputs():
    cfg = PidConfig(kp=np.ones(6), ki=np.zeros(6), kd=np.zeros(6))
    with pytest.raises(ValueError):
        pid_step(cfg, PidState.initial(), np.zeros(6), np.zeros(5), DT)
    with pytest.raises(ValueError):
        pid_step(cfg, PidState.initial(), np.zeros(5), np.zeros(6), DT)
    with pytest.raises(ValueError):
        pid_step(cfg, PidState.initial(), np.zeros(6), np.zeros(6), 0.0)


def test_pid_config_validation():
    for matrix in (np.array([[1.0, 0.5], [0.0, 1.0]]), np.diag([1.0, 2.0])):
        with pytest.raises(ValueError, match="shape"):
            PidConfig(kp=matrix, ki=np.zeros(2), kd=np.zeros(2))
    with pytest.raises(ValueError):
        PidConfig(kp=-1.0, ki=0.0, kd=0.0)
    with pytest.raises(ValueError):
        PidConfig(kp=1.0, ki=0.0, kd=0.0, integral_clip=(1, 2))
    with pytest.raises(ValueError):
        PidConfig(kp=np.ones(6), ki=np.zeros(3), kd=np.zeros(6))


# ------------------------------------------------------------- servo_step

def test_servo_zero_error_zero_feedforward():
    cfg = preset("tracking")
    cmd, _, err = servo_step(cfg, PidState.initial(), cfg.reference_contact_pose, DT)
    assert np.allclose(cmd, 0.0, atol=1e-12)
    assert np.allclose(err.matrix, np.eye(4), atol=1e-12)


def test_servo_feedforward_passthrough():
    base = preset("surface_follow")
    cfg = ServoConfig(reference_contact_pose=base.reference_contact_pose,
                      feedforward_twist=[0, 10, 0, 0, 0, 0],
                      pid=base.pid)
    cmd, _, _ = servo_step(cfg, PidState.initial(), cfg.reference_contact_pose, DT)
    assert np.allclose(cmd, [0, 10, 0, 0, 0, 0], atol=1e-12)


def scalar_pid_trace(errors, kp, ki, kd, dt, decay=0.5):
    integral, sm_prev, outs = 0.0, None, []
    for e in errors:
        integral += e * dt
        if sm_prev is None:
            sm, der = e, 0.0
        else:
            sm = decay * sm_prev + (1 - decay) * e
            der = (sm - sm_prev) / dt
        outs.append(kp * e + ki * integral + kd * der)
        sm_prev = sm
    return outs


def test_servo_depth_channel_matches_scalar_trace():
    # Depth-only offsets keep the error in the abelian translation subgroup,
    # so the z channel of the servo must reproduce a scalar PID run.
    cfg = preset("tracking")
    depths = [-3.0, -2.4, -1.5, -0.9, -0.2, 0.1]
    expected = scalar_pid_trace(depths, kp=5.0, ki=0.5, kd=0.5, dt=DT)
    state = PidState.initial()
    for depth, want in zip(depths, expected):
        observed = exp(np.array([0, 0, depth, 0, 0, 0.0])) @ cfg.reference_contact_pose
        cmd, state, _ = servo_step(cfg, state, observed, DT)
        assert cmd[2] == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert np.allclose(cmd[[0, 1, 3, 4, 5]], 0.0, atol=1e-12)


def test_servo_output_clip_spares_feedforward():
    pid = PidConfig(kp=np.ones(6), ki=np.zeros(6), kd=np.zeros(6),
                    output_clip=(-1, 1))
    cfg = ServoConfig(reference_contact_pose=Pose.identity(),
                      feedforward_twist=[0, 10, 0, 0, 0, 0],
                      pid=pid)
    observed = exp(np.array([5.0, 0, 0, 0, 0, 0]))
    cmd, _, _ = servo_step(cfg, PidState.initial(), observed, DT)
    assert cmd[0] == pytest.approx(1.0)   # feedback saturated
    assert cmd[1] == pytest.approx(10.0)  # feedforward untouched


# -------------------------------------------------------------- push_step

def push_config(target_xyz, bearing_pid=None):
    servo = preset("push_pid1")
    if bearing_pid is None:
        bearing_pid = preset("push_pid2_single")
    return PushConfig(servo=servo, bearing_pid=bearing_pid,
                      target_pose_in_work=exp(np.array([*target_xyz, 0, 0, 0.0])))


def fresh_states():
    return PidState.initial(), PidState.initial(1)


def test_push_target_dead_ahead_matches_servo():
    cfg = push_config((0, 0, 200))
    pid, bearing = fresh_states()
    observed = cfg.servo.reference_contact_pose
    cmd, _ = push_step(cfg, pid, bearing, observed, Pose.identity(), DT)
    servo_cmd, _, _ = servo_step(cfg.servo, PidState.initial(), observed, DT)
    assert np.array_equal(cmd, servo_cmd)


def test_push_bearing_in_degrees():
    # Target at y = z gives a 45 degree bearing; with a pure unit
    # proportional bearing gain the alignment channel must read -45,
    # confirming the loop is fed degrees rather than radians.
    unit_pid = PidConfig(kp=1.0, ki=0.0, kd=0.0)
    cfg = push_config((0, 200, 200), bearing_pid=unit_pid)
    observed = cfg.servo.reference_contact_pose  # identity error pose
    servo_cmd, _, _ = servo_step(cfg.servo, PidState.initial(), observed, DT)
    cmd, _ = push_step(cfg, *fresh_states(), observed, Pose.identity(), DT)
    assert cmd[1] - servo_cmd[1] == pytest.approx(-45.0, abs=1e-12)


def test_push_alignment_off_inside_switch_radius():
    cfg = push_config((0, 60, 80))  # r = 100 < 120
    pid, bearing = fresh_states()
    observed = cfg.servo.reference_contact_pose
    cmd, (_, new_bearing) = push_step(cfg, pid, bearing, observed,
                                      Pose.identity(), DT)
    servo_cmd, _, _ = servo_step(cfg.servo, PidState.initial(), observed, DT)
    assert np.array_equal(cmd, servo_cmd)
    # frozen loop: state unchanged, still uninitialized
    assert not new_bearing.initialized
    assert np.array_equal(new_bearing.integral, bearing.integral)


def test_push_command_continuous_away_from_switch():
    observed = preset("push_pid1").reference_contact_pose
    for y in (160.0, 40.0):  # one branch per regime
        base = push_config((0, y, 160))
        bumped = push_config((0, y + 1e-6, 160))
        c0, _ = push_step(base, *fresh_states(), observed, Pose.identity(), DT)
        c1, _ = push_step(bumped, *fresh_states(), observed, Pose.identity(), DT)
        assert np.linalg.norm(c1 - c0) < 1e-3


def test_two_controller_instances_share_nothing():
    cfg = push_config((0, 200, 200))
    pid_a, bear_a = fresh_states()
    pid_b, bear_b = fresh_states()
    observed = exp(np.array([1.0, 0, 0, 0, 0, 0])) @ cfg.servo.reference_contact_pose
    # run A three times, B once; B must match a standalone single step
    for _ in range(3):
        _, (pid_a, bear_a) = push_step(cfg, pid_a, bear_a, observed,
                                       Pose.identity(), DT)
    cmd_b, _ = push_step(cfg, pid_b, bear_b, observed, Pose.identity(), DT)
    cmd_solo, _ = push_step(cfg, *fresh_states(), observed, Pose.identity(), DT)
    assert np.array_equal(cmd_b, cmd_solo)


# ------------------------------------------------------------------ stacks

def same(a, b):
    """Equal bit for bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scalar_clip_matches_np_clip():
    # The bearing loop clips on Python floats: NaN stays, and a value on a
    # bound (a signed zero) is kept as np.clip keeps it.
    from se3kit.control import _clip_float
    values = [-0.0, 0.0, 1.0, -1.0, 5.0, -5.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300]
    bounds = [(-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (0.0, 1.0), (-1.0, -0.0),
              (-2.0, 2.0), (-np.inf, np.inf), None]
    for x in values:
        for clip in bounds:
            want = x if clip is None else np.clip(np.array([x]), *clip)[0]
            assert same(np.float64(_clip_float(x, clip)), want)


def test_scalar_pid_step_matches_pid_step(rng):
    # The bearing loop's float PID gives pid_step's bits for a one-channel
    # loop with no feedforward, clips and engagement included.
    from se3kit.control import _scalar_pid_step
    for cfg in (preset("push_pid2_single"), preset("push_pid2_dual"),
                PidConfig(kp=2.0, ki=1.0, kd=0.5)):
        state = single = PidState.initial(1)
        for error in rng.normal(0, 40, 30).tolist():
            out, state = pid_step(cfg, state, np.zeros(1), np.array([error]), DT)
            single_out, single = _scalar_pid_step(cfg, single, error, DT)
            assert same(np.float64(single_out), out[0])
            assert same(single.integral, state.integral)
            assert same(single.smoothed_error, state.smoothed_error)


def test_stacked_servo_steps_match_single_ones(rng):
    # Five presets, with and without clips and at three time steps, as one
    # stack over four steps: each row's command, PID state and error pose
    # are its single step's, bit for bit, including a row that starts
    # afresh at the third step.
    servos = [preset(name) for name in ("tracking", "surface_follow", "push_pid1",
                                        "stabiliser", "push_tall")]
    servos[1] = ServoConfig(servos[1].reference_contact_pose, [0, 10, 0, 0, 0, 0],
                            servos[1].pid)
    dts = np.array([[DT], [0.1], [DT], [0.2], [DT]])
    stack = ServoConfig.stack(servos)
    singles = [PidState.initial() for _ in servos]
    pid_stack = PidState.stack(singles)
    for k in range(4):
        if k == 2:  # row 3 starts afresh; the rest equal their singles
            singles[3] = PidState.initial()
            pid_stack = PidState.stack(singles)
        observed = exp(rng.normal(0, 0.3, (5, 6))) @ Pose.stack(
            s.reference_contact_pose for s in servos)
        cmd, pid_stack, err = servo_step(stack, pid_stack, observed, dts)
        for i, servo in enumerate(servos):
            one = Pose(observed.rotation[i], observed.translation[i])
            c, singles[i], e = servo_step(servo, singles[i], one, dts[i, 0])
            assert same(cmd[i], c) and same(err.rotation[i], e.rotation)
            assert same(err.translation[i], e.translation)
            assert same(pid_stack.integral[i], singles[i].integral)
            assert same(pid_stack.smoothed_error[i], singles[i].smoothed_error)
        assert pid_stack.initialized.all()


# ---------------------------------------------------------------- presets

def test_preset_names_and_unknown():
    names = sorted([
        "tracking", "surface_follow", "push_pid1", "push_pid2_single",
        "push_pid2_dual", "stabiliser", "stabiliser_tall", "push_tall",
    ])
    with pytest.raises(KeyError) as err:
        preset("push_pid3")
    assert str(err.value) == repr(f"unknown controller preset 'push_pid3'; available: {names}")


def test_preset_returns_fresh_objects():
    assert preset("tracking") is not preset("tracking")


def assert_servo_preset(name, kp, ki, kd, iclip, ref_euler, ff):
    cfg = preset(name)
    assert isinstance(cfg, ServoConfig)
    assert np.array_equal(cfg.pid.kp, kp)
    assert np.array_equal(cfg.pid.ki, ki)
    assert np.array_equal(cfg.pid.kd, kd)
    assert cfg.pid.integral_clip == iclip
    assert cfg.pid.output_clip is None
    expected_ref = euler_to_pose(*ref_euler).inverse()
    assert np.array_equal(cfg.reference_contact_pose.matrix, expected_ref.matrix)
    assert np.array_equal(cfg.feedforward_twist, ff)


def test_tracking_preset_table():
    assert_servo_preset("tracking", [5, 5, 5, 2, 2, 0],
                        [0.5, 0.5, 0.5, 0.2, 0.2, 0.2],
                        [0.5, 0.5, 0.5, 0.2, 0.2, 0.2],
                        None, [0, 0, 6, 0, 0, 0], np.zeros(6))


def test_surface_follow_preset_table():
    assert_servo_preset("surface_follow", [0, 0, 2, 2, 2, 0],
                        [0, 0, 0.1, 0.1, 0.1, 0],
                        [0, 0, 0.05, 0.05, 0.05, 0],
                        (-25.0, 25.0), [0, 0, 3, 0, 0, 0], np.zeros(6))


def test_push_pid1_preset_table():
    assert_servo_preset("push_pid1", [1, 0, 0, 1, 0, 0],
                        [0.1, 0, 0, 0.1, 0, 0],
                        [0.1, 0, 0, 0.1, 0, 0],
                        (-25.0, 25.0), [0, 0, 0, 0, 0, 0],
                        [0, 0, 10, 0, 0, 0])


def test_push_tall_preset_table():
    assert_servo_preset("push_tall", [1, 0, 0, 1, 0, 0],
                        [0.1, 0, 0, 0.1, 0, 0],
                        [0.1, 0, 0, 0.1, 0, 0],
                        (-25.0, 25.0), [0.5, 0, 0, 0, 0, 0],
                        [0, 0, 10, 0, 0, 0])


def test_stabiliser_preset_tables():
    assert_servo_preset("stabiliser", [5, 0, 5, 1, 0, 0],
                        [0.5, 0, 0.5, 0.1, 0, 0],
                        [0.5, 0, 0.5, 0.1, 0, 0],
                        (-200.0, 200.0), [0, 0, 3, 0, 0, 0], np.zeros(6))
    assert_servo_preset("stabiliser_tall", [5, 0, 5, 1, 0, 0],
                        [0.5, 0, 0.5, 0.1, 0, 0],
                        [0.5, 0, 0.5, 0.1, 0, 0],
                        (-200.0, 200.0), [-0.5, 0, 3, 0, 0, 0], np.zeros(6))


def test_bearing_pid_presets():
    single = preset("push_pid2_single")
    dual = preset("push_pid2_dual")
    for cfg, ki in ((single, 0.3), (dual, 0.5)):
        assert isinstance(cfg, PidConfig)
        assert cfg.n == 1
        assert cfg.kp[0] == 0.9 and cfg.kd[0] == 0.9
        assert cfg.ki[0] == ki
        assert cfg.integral_clip == (-10.0, 10.0)
        assert cfg.output_clip == (-15.0, 15.0)
