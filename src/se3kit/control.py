"""Tangent-space servo control.

The controllers regress the contact pose to a reference by feeding the log
of the pose error into a diagonal-gain PID, then adding a feedforward twist
mapped through the adjoint of the error pose so it is expressed in the
frame the command acts in.  The pushing controller stacks a scalar bearing
loop on top of the same servo.

Stacks: pid_step and servo_step also run k loops at once.  PidConfig.stack
and ServoConfig.stack hold per-row gains, clip bounds (-inf/inf for no
clip), reference inverses and feedforwards; a stacked PidState holds
(k, n) arrays and a (k,) initialized flag; dt may be a (k, 1) array.
Every row gets the bits its single step gives.  The bearing loop of
push_step (bearing_step) is one arm's, on Python floats.

Gains have 1/s semantics: a proportional gain of 5 turns a millimetre of
error into 5 mm/s of commanded velocity.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .liegroup import Pose, adjoint, euler_to_pose, log, matvec, stack

# Decay of the error EWMA the PID differentiates: half the previous
# smoothed error, half the new error.
_EWMA_DECAY = 0.5

# The pushing controller's alignment loop runs while the target is at
# least this far from the contact point, mm.
_SWITCH_OFF_RADIUS = 120.0


def _as_gain(g) -> np.ndarray:
    """Accept a scalar or a vector of per-channel gains."""
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        g = g[None]
    if g.ndim != 1:
        raise ValueError(f"gain must be a scalar or a vector, got shape {g.shape}")
    if np.any(g < 0):
        raise ValueError("gains must be non-negative")
    return g


def _as_clip(clip):
    if clip is None:
        return None
    lo, hi = float(clip[0]), float(clip[1])
    if not (lo <= 0.0 <= hi):
        raise ValueError(f"clip interval must contain 0, got [{lo}, {hi}]")
    return (lo, hi)


@dataclasses.dataclass(frozen=True)
class PidConfig:
    """Diagonal-gain PID with integral anti-windup and a derivative EWMA.

    kp/ki/kd may be given as scalars (single-channel loops) or vectors of
    per-channel gains (the diagonal); they are stored as vectors.  Clip
    intervals are (lo, hi) pairs applied componentwise, or None.
    """

    kp: np.ndarray
    ki: np.ndarray
    kd: np.ndarray
    integral_clip: tuple | None = None
    output_clip: tuple | None = None

    def __post_init__(self):
        kp = _as_gain(self.kp)
        ki = _as_gain(self.ki)
        kd = _as_gain(self.kd)
        if not (kp.shape == ki.shape == kd.shape):
            raise ValueError("kp, ki, kd must have matching shapes")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "ki", ki)
        object.__setattr__(self, "kd", kd)
        object.__setattr__(self, "integral_clip", _as_clip(self.integral_clip))
        object.__setattr__(self, "output_clip", _as_clip(self.output_clip))

    @property
    def n(self) -> int:
        return self.kp.shape[-1]

    @classmethod
    def stack(cls, configs) -> "PidConfig":
        """One PidConfig over a stack of k loops: gains (k, n), and clip
        bounds (k, 1) with -inf/inf for a loop that has none (None when no
        loop clips).  Each config was checked when it was made."""
        configs = list(configs)
        stacked = object.__new__(cls)
        for name in ("kp", "ki", "kd"):
            object.__setattr__(stacked, name, np.array([getattr(c, name) for c in configs]))
        for name in ("integral_clip", "output_clip"):
            clips = [getattr(c, name) for c in configs]
            if all(clip is None for clip in clips):
                object.__setattr__(stacked, name, None)
                continue
            lo, hi = np.array([(-math.inf, math.inf) if clip is None else clip
                               for clip in clips]).T
            object.__setattr__(stacked, name, (lo[:, None], hi[:, None]))
        return stacked


@dataclasses.dataclass(frozen=True)
class PidState:
    """A loop's integral, smoothed error and whether it has stepped; for a
    stack, (k, n) arrays and a (k,) bool array."""

    integral: np.ndarray
    smoothed_error: np.ndarray
    initialized: bool = False

    @classmethod
    def initial(cls, n: int = 6) -> "PidState":
        z = np.zeros(n)
        return cls(integral=z, smoothed_error=z.copy(), initialized=False)

    stack = staticmethod(stack)  # liegroup.stack


@dataclasses.dataclass(frozen=True)
class ServoConfig:
    """Reference contact pose (feature in the reference sensor frame),
    feedforward twist (a 6-vector), and the feedback PID."""

    reference_contact_pose: Pose
    feedforward_twist: np.ndarray
    pid: PidConfig
    # the reference's inverse, which every servo step composes with
    _reference_inverse: Pose = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ff = np.asarray(self.feedforward_twist, dtype=float)
        if ff.shape != (6,):
            raise ValueError(f"feedforward_twist must have shape (6,), got {ff.shape}")
        object.__setattr__(self, "feedforward_twist", ff)
        object.__setattr__(self, "_reference_inverse", self.reference_contact_pose.inverse())

    @classmethod
    def stack(cls, configs) -> "ServoConfig":
        """One ServoConfig over a stack of servos: stacked references and
        their inverses, feedforwards (k, 6) and a PidConfig.stack.  The
        inverses are the single ones' values, so each row composes with
        the bits its single servo does."""
        configs = list(configs)
        stacked = object.__new__(cls)
        for name, value in (
                ("reference_contact_pose", Pose.stack(c.reference_contact_pose for c in configs)),
                ("feedforward_twist", np.array([c.feedforward_twist for c in configs])),
                ("pid", PidConfig.stack(c.pid for c in configs)),
                ("_reference_inverse", Pose.stack(c._reference_inverse for c in configs))):
            object.__setattr__(stacked, name, value)
        return stacked


@dataclasses.dataclass(frozen=True)
class PushConfig:
    """The contact servo, the bearing loop and the target's work pose."""

    servo: ServoConfig
    bearing_pid: PidConfig
    target_pose_in_work: Pose


def _clip(v: np.ndarray, clip) -> np.ndarray:
    if clip is None:
        return v
    return np.clip(v, clip[0], clip[1])


def pid_step(cfg: PidConfig, state: PidState, feedforward, error, dt):
    """One backward-Euler PID update.

    integral <- clip(integral + e dt); the derivative acts on the EWMA of
    the error (0.5 * previous + 0.5 * current), zero on the first
    call; output = clip(v + Kp e + Ki integral + Kd derivative).

    A stack of k loops takes errors (k, n), a stacked state, a feedforward
    (n,) or (k, n) and dt a number or (k, 1); each row steps as its single
    loop would, the first step of a row skipping its derivative.

    Returns (command, new state); the command is an array of width cfg.n.
    """
    error = np.asarray(error, dtype=float)
    feedforward = np.asarray(feedforward, dtype=float)
    n = cfg.n
    single = error.ndim == 1
    if (error.shape[-1:] != (n,) or feedforward.shape[-1:] != (n,)
            or feedforward.ndim > error.ndim or error.ndim > 2):
        raise ValueError(
            f"error and feedforward must have shape ({n},), got "
            f"{error.shape} and {feedforward.shape}"
        )
    if dt <= 0 if single else (np.asarray(dt) <= 0).any():
        raise ValueError(f"dt must be positive, got {dt}")
    integral = _clip(state.integral + error * dt, cfg.integral_clip)
    initialized = True if single else state.initialized
    if not single and not initialized.all():
        # Each row takes the branch below that its own state selects.
        started = initialized[:, None]
        smoothed = np.where(started, _EWMA_DECAY * state.smoothed_error
                            + (1.0 - _EWMA_DECAY) * error, error)
        derivative = np.where(started, (smoothed - state.smoothed_error) / dt, 0.0)
        initialized = np.ones_like(initialized)
    elif not single or state.initialized:
        smoothed = _EWMA_DECAY * state.smoothed_error + (1.0 - _EWMA_DECAY) * error
        derivative = (smoothed - state.smoothed_error) / dt
    else:
        # No predecessor yet: seed the smoother at the raw error and skip
        # the derivative so engagement does not kick the plant.
        smoothed = error.copy()
        derivative = np.zeros_like(error)
    out = feedforward + cfg.kp * error + cfg.ki * integral + cfg.kd * derivative
    out = _clip(out, cfg.output_clip)
    new_state = PidState(integral=integral, smoothed_error=smoothed, initialized=initialized)
    return out, new_state


def servo_step(cfg: ServoConfig, pid: PidState, observed_contact: Pose, dt):
    """One cycle of the contact-pose servo.

    The error pose X_ss' = X_sf X_s'f^-1 carries the observed contact
    relative to the reference; its log feeds the PID, and the feedforward
    twist is mapped through Ad(X_ss') so a reference velocity defined in
    the reference sensor frame acts correctly in the current one.  Output
    clipping applies to the feedback path only.

    A ServoConfig.stack steps k servos at once: a stacked PidState, k
    observed contacts and dt a number or (k, 1).

    Returns (command twist, new PID state, error pose).
    """
    error_pose = observed_contact @ cfg._reference_inverse
    fb, new_pid = pid_step(cfg.pid, pid, np.zeros(6), log(error_pose), dt)
    command = fb + matvec(adjoint(error_pose), cfg.feedforward_twist)
    return command, new_pid, error_pose


def push_step(cfg: PushConfig, pid: PidState, bearing_pid_state: PidState,
              observed_contact: Pose, sensor_pose_in_work: Pose, dt: float):
    """Servo cycle plus target alignment for pushing: servo_step, then
    bearing_step.  Returns (command, (servo PID state, bearing PID state)).
    """
    command, new_pid, error_pose = servo_step(cfg.servo, pid, observed_contact, dt)
    command, new_bearing = bearing_step(cfg, command, bearing_pid_state, error_pose,
                                        sensor_pose_in_work, dt)
    return command, (new_pid, new_bearing)


def bearing_step(cfg: PushConfig, command: np.ndarray, bearing_pid_state: PidState,
                 error_pose: Pose, sensor_pose_in_work: Pose, dt: float):
    """Target alignment of one pushing arm on top of its servo command.

    The target is re-expressed in the reference sensor frame,
    X_s't = X_ss'^-1 X_ws^-1 X_wt; its (y, z) translation gives the bearing
    theta = atan2(y, z) and in-plane distance r.  The bearing error drives
    a scalar PID whose output becomes the y-component of an alignment twist
    in the reference sensor frame, mapped through Ad(X_ss') and added to
    the servo command.  Alignment is switched off (and its PID frozen)
    once r drops below the switch-off radius.  When a push ends is not
    decided here: the simulator terminates on the tip centre's distance.

    Returns (command, new bearing PID state).
    """
    target_in_ref = (error_pose.inverse() @ sensor_pose_in_work.inverse()
                     @ cfg.target_pose_in_work)
    _, y, z = target_in_ref.translation.tolist()
    if not math.hypot(y, z) >= _SWITCH_OFF_RADIUS:
        return command, bearing_pid_state
    # The bearing loop's gain table is stated per degree of error; its
    # output is a tangential speed in mm/s.
    theta = math.degrees(math.atan2(y, z))
    out, new_bearing = _scalar_pid_step(cfg.bearing_pid, bearing_pid_state, -theta, dt)
    align = np.zeros(6)
    align[1] = out
    return command + adjoint(error_pose) @ align, new_bearing


def _clip_float(x: float, clip) -> float:
    """np.clip of one float, bit for bit: NaN stays NaN, and a value equal
    to a bound (a signed zero) is kept."""
    if clip is None or x != x:
        return x
    lo, hi = clip
    x = lo if lo > x else x
    return hi if hi < x else x


def _scalar_pid_step(cfg: PidConfig, state: PidState, error: float, dt: float):
    """pid_step of a one-channel loop with no feedforward, on Python
    floats: pid_step's operations in its order, so its bits, without
    numpy's fixed cost per call.  Returns (output, new state)."""
    (kp,), (ki,), (kd,) = cfg.kp.tolist(), cfg.ki.tolist(), cfg.kd.tolist()
    (integral,), (smoothed,) = state.integral.tolist(), state.smoothed_error.tolist()
    integral = _clip_float(integral + error * dt, cfg.integral_clip)
    if state.initialized:
        previous = smoothed
        smoothed = _EWMA_DECAY * previous + (1.0 - _EWMA_DECAY) * error
        derivative = (smoothed - previous) / dt
    else:
        smoothed, derivative = error, 0.0
    out = _clip_float(0.0 + kp * error + ki * integral + kd * derivative, cfg.output_clip)
    return out, PidState(np.array([integral]), np.array([smoothed]), True)


def _servo(euler, feedforward, pid: PidConfig) -> ServoConfig:
    # Controller tables state references in the dataset's feature-frame
    # euler convention; the servo compares against the inverted
    # (sensor-side) pose, same as the observation pipeline.
    return ServoConfig(
        reference_contact_pose=euler_to_pose(*euler).inverse(),
        feedforward_twist=feedforward,
        pid=pid,
    )


def _tracking() -> ServoConfig:
    pid = PidConfig(
        kp=[5, 5, 5, 2, 2, 0],
        ki=[0.5, 0.5, 0.5, 0.2, 0.2, 0.2],
        kd=[0.5, 0.5, 0.5, 0.2, 0.2, 0.2],
        integral_clip=None,
    )
    return _servo([0, 0, 6, 0, 0, 0], np.zeros(6), pid)


def _surface_follow() -> ServoConfig:
    pid = PidConfig(
        kp=[0, 0, 2, 2, 2, 0],
        ki=[0, 0, 0.1, 0.1, 0.1, 0],
        kd=[0, 0, 0.05, 0.05, 0.05, 0],
        integral_clip=(-25, 25),
    )
    # Feedforward is task-dependent; scenarios replace it per run.
    return _servo([0, 0, 3, 0, 0, 0], np.zeros(6), pid)


def _push_pid1(reference_euler) -> ServoConfig:
    pid = PidConfig(
        kp=[1, 0, 0, 1, 0, 0],
        ki=[0.1, 0, 0, 0.1, 0, 0],
        kd=[0.1, 0, 0, 0.1, 0, 0],
        integral_clip=(-25, 25),
    )
    return _servo(reference_euler, [0, 0, 10, 0, 0, 0], pid)


def _push_pid2(ki: float) -> PidConfig:
    return PidConfig(kp=0.9, ki=ki, kd=0.9,
                     integral_clip=(-10, 10), output_clip=(-15, 15))


def _stabiliser(reference_euler) -> ServoConfig:
    pid = PidConfig(
        kp=[5, 0, 5, 1, 0, 0],
        ki=[0.5, 0, 0.5, 0.1, 0, 0],
        kd=[0.5, 0, 0.5, 0.1, 0, 0],
        integral_clip=(-200, 200),
    )
    return _servo(reference_euler, np.zeros(6), pid)


_PRESETS = {
    "tracking": _tracking,
    "surface_follow": _surface_follow,
    "push_pid1": lambda: _push_pid1([0, 0, 0, 0, 0, 0]),
    "push_tall": lambda: _push_pid1([0.5, 0, 0, 0, 0, 0]),
    "push_pid2_single": lambda: _push_pid2(0.3),
    "push_pid2_dual": lambda: _push_pid2(0.5),
    "stabiliser": lambda: _stabiliser([0, 0, 3, 0, 0, 0]),
    "stabiliser_tall": lambda: _stabiliser([-0.5, 0, 3, 0, 0, 0]),
}


def preset(name: str):
    """Named controller configuration; a fresh object per call.

    Servo presets return ServoConfig, the bearing-loop presets
    (push_pid2_*) return PidConfig.
    """
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown controller preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return factory()
