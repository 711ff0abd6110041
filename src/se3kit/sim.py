"""Desk-scale closed-loop simulation.

Everything here is deliberately kinematic: arms are free-flying frames
integrated from twist commands, surfaces are analytic shapes, and the
contact-pose "perception" is geometry plus calibrated tangent-space noise
standing in for a trained pose estimator.  The pushing plant is the planar
differential model built around a centre of friction.

A config's trials run in lockstep (run_scenarios): at every control step
the sensed arms of all trials are observed as one stack and filtered by
one stacked filtering.step, and each trial's outputs are those of running
it alone (run_scenario, the one-trial case).

Units: mm, rad, s.  Surface-local z points into the material everywhere,
so pressing deeper along the sensor's +z axis increases contact depth.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys

import numpy as np

from . import control, filtering
from .errors import (
    DOMAIN_ERRORS,
    ApproximationDomainError,
    DivergenceError,
    NoContactError,
    SingularTargetError,
)
from .gdnmath import sample_contact_pose
from .liegroup import Pose, euler_to_pose, exp, log
from .uncertainty import PoseGaussian

DEFAULT_DT = 1.0 / 30.0

# Engagement envelope: the skin saturates past this depth, and there is no
# signal before touch.
_MAX_DEPTH = 10.0

# Tangential slip limits of the simulated skin: shear and spin accumulate
# relative to the anchored first-contact frame until these are exceeded,
# then the anchor is dragged along (slip).
_MAX_SHEAR = 5.0
_MAX_SPIN = 0.26

# Pushed objects yield once pressed beyond this depth; the ride depth in
# steady pushing sits one velocity step above it.
_YIELD_DEPTH = 3.0

# The spherical tip's centre sits this far behind the contact point along
# the sensor axis; a push run terminates once the tip centre is within the
# termination radius of the target.  This module alone decides termination.
_TIP_RADIUS = 20.0
_TERMINATION_RADIUS = 20.0

# Separation between the two faces of the pushed object (dual-arm tasks).
_OBJECT_WIDTH = 80.0

# Pushing plane (y, z) coordinates of the first contact and the target, mm.
_PUSH_START = (-250.0, 100.0)
_PUSH_TARGET = (0.0, 375.0)

# Pushed-object plant: rotation efficiency of tangential pushing (1 = no
# slip) and the distance from the contact to the centre of friction, mm.
_OBJECT_ALPHA = 0.7
_OBJECT_R0 = 40.0

# Tangential speed of the surface-following passes, mm/s.
_FOLLOW_SPEED = 10.0

# Divergence guard: a desk-scale scenario has no business this far out.
_WORKSPACE_LIMIT = 1e4

# Longest run a scenario may ask for, in control steps (duration / dt);
# the shipped configs use at most 3600 per trial.
_MAX_STEPS = 1_000_000

# Tall-object stability: the margin decays while the follower's depth
# error exceeds this, recovers (slower) while within it, topples at zero.
_STABILITY_TOLERANCE = 2.5
_STABILITY_DECAY = 0.5
_STABILITY_RECOVER = 0.25

# Per-component mean absolute errors of the pose estimator the observation
# noise is calibrated to (v_x, v_y, v_z in mm; omega in rad).
SENSOR_MAE = np.array([0.4259, 0.4224, 0.1230, 0.0087, 0.0111, 0.0203])

# Half-normal relation: for zero-mean Gaussian error, MAE = std * sqrt(2/pi).
DEFAULT_OBSERVATION_STD = SENSOR_MAE * math.sqrt(math.pi / 2.0)

# Periodic leader trajectory: amplitudes (mm, rad), phases, period (s).
PERIODIC_AMPLITUDE = np.array(
    [75.0, 75.0, 75.0, math.radians(25), math.radians(25), math.radians(25)]
)
PERIODIC_PHASE = np.array([math.pi / 2.0, 0, 0, 0, 0, 0])
PERIODIC_PERIOD = 30.0

# Scripted single-axis leader segments: 200 mm moves at 20 mm/s, then
# 60 degree turns at 6 deg/s, one axis at a time.
_SEGMENT_DURATION = 10.0
_SEGMENT_TWISTS = [
    np.array([-20.0, 0, 0, 0, 0, 0]),
    np.array([0, 20.0, 0, 0, 0, 0]),
    np.array([0, 0, 20.0, 0, 0, 0]),
    np.array([0, 0, 0, -math.radians(6), 0, 0]),
    np.array([0, 0, 0, 0, math.radians(6), 0]),
    np.array([0, 0, 0, 0, 0, math.radians(6)]),
]

# Angular extent of the ramp's arc; the boundary continues as the tangent
# plane beyond it.
_RAMP_EXTENT = math.radians(60.0)

# Surface kinds and the radius (mm) each takes when none is given; None
# marks a kind that takes no radius.
_SURFACE_RADIUS = {"flat": None, "ramp": 300.0, "hemisphere": 60.0}
SURFACES = tuple(_SURFACE_RADIUS)


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous float vector: the sqrt of v . v, the
    bits np.linalg.norm returns, without its fixed cost per call."""
    return math.sqrt(v.dot(v))


def _unit(v: np.ndarray) -> np.ndarray:
    n = _norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of two 3-vectors: np.cross's products and differences in its
    order, so the same bits, without its fixed cost per call."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def is_number(v) -> bool:
    """A real number other than a bool (YAML's true and false are bools)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    # The upper bound rejects inf and an integer too large to become a float.
    return is_number(v) and 0 < v <= sys.float_info.max


def _is_sigma(v) -> bool:
    return _is_positive(v) and v * v <= sys.float_info.max  # a finite variance


class SurfaceModel:
    """Analytic contact surface: geometry only.

    kind is one of "flat", "ramp", "hemisphere".  `pose` maps surface-local
    coordinates to the work frame and may be reassigned when the surface
    rides on an arm or a pushed object.  A surface holds no contact state:
    the shear anchor of an engaged contact is a value that contact_pose
    takes and returns, in surface-local coordinates, so it is transported
    with the material automatically.

    flat: boundary is the local z = 0 plane, material below (+z); takes no
      radius.
    ramp: flat for y <= 0, then a rising circular arc of the given radius
      about an axis parallel to local x; past 60 degrees of arc the
      boundary continues as the tangent plane.
    hemisphere: dome of the given radius with its apex at the local origin
      and centre at +z (local z points into the dome).
    """

    def __init__(self, kind: str, pose: Pose | None = None,
                 radius: float | None = None):
        if kind not in SURFACES:
            raise ValueError(f"unknown surface kind {kind!r}")
        if _SURFACE_RADIUS[kind] is None:
            if radius is not None:
                raise ValueError(f"{kind} surface takes no radius, got {radius!r}")
        elif not _is_sigma(radius):
            raise ValueError(f"{kind} surface needs a positive radius whose "
                             f"square is finite, got {radius!r}")
        self.kind = kind
        self.pose = pose if pose is not None else Pose.identity()
        self.radius = radius

    # local geometry ----------------------------------------------------

    def _project_local(self, p: np.ndarray):
        """Boundary projection in local coords: (q, inward normal, depth)."""
        if self.kind == "flat":
            q = np.array([p[0], p[1], 0.0])
            return q, np.array([0.0, 0.0, 1.0]), float(p[2])
        if self.kind == "ramp":
            r = self.radius
            if p[1] <= 0.0:
                q = np.array([p[0], p[1], 0.0])
                return q, np.array([0.0, 0.0, 1.0]), float(p[2])
            # Cylinder axis runs along local x through (y, z) = (0, -r),
            # on the air side; material lies outside the cylinder.
            axis_offset = np.array([p[1], p[2] + r])
            tau = math.atan2(axis_offset[0], axis_offset[1])
            if tau <= _RAMP_EXTENT:
                dist = _norm(axis_offset)
                if dist == 0.0:
                    raise NoContactError("point on the ramp axis has no defined normal")
                n_yz = axis_offset / dist
                q = np.array([p[0], r * n_yz[0], r * n_yz[1] - r])
                n = np.array([0.0, n_yz[0], n_yz[1]])
                return q, n, dist - r
            # Tangent-plane continuation past the arc extent.
            n = np.array([0.0, math.sin(_RAMP_EXTENT), math.cos(_RAMP_EXTENT)])
            q0 = np.array([p[0], r * math.sin(_RAMP_EXTENT), r * math.cos(_RAMP_EXTENT) - r])
            depth = float(np.dot(p - q0, n))
            q = p - depth * n
            return q, n, depth
        # hemisphere
        centre = np.array([0.0, 0.0, self.radius])
        to_p = p - centre
        dist = _norm(to_p)
        if dist == 0.0:
            raise NoContactError("point at the dome centre has no defined normal")
        n = -to_p / dist  # toward the centre = into the material
        q = centre - self.radius * n
        return q, n, self.radius - dist

    def _convention_x_local(self, q: np.ndarray, n: np.ndarray) -> np.ndarray:
        if self.kind == "hemisphere":
            x_apex = np.array([1.0, 0.0, 0.0])
            tangent = x_apex - np.dot(x_apex, n) * n
            norm = _norm(tangent)
            if norm < 1e-9:
                raise NoContactError(
                    "contact is 90 degrees from the dome apex; shear convention undefined"
                )
            return tangent / norm
        # flat and ramp: local x is tangential everywhere.
        return np.array([1.0, 0.0, 0.0])

    def probe(self, point_w: np.ndarray):
        """World-frame boundary projection: (q_w, inward normal_w, depth).

        Pure geometry for metrics and oracles: no depth envelope, no shear.
        """
        inv = self.pose.inverse()
        p_local = inv.apply(np.asarray(point_w, dtype=float))
        q, n, depth = self._project_local(p_local)
        return self.pose.apply(q), self.pose.rotation @ n, depth


@dataclasses.dataclass(frozen=True)
class PushedObject:
    """Planar pushing chart: target coordinates (y, z) in the contact frame
    and accumulated frame rotation phi.

    The plant's parameters are the module constants _OBJECT_ALPHA (rotation
    efficiency of tangential pushing) and _OBJECT_R0 (distance from the
    contact to the centre of friction), the same in every run.
    """

    y: float
    z: float
    phi: float = 0.0

    @property
    def bearing(self) -> float:
        """theta = atan2(y, z) - phi."""
        return math.atan2(self.y, self.z) - self.phi


def contact_pose(surface: SurfaceModel, sensor_pose: Pose, anchor):
    """(X_fs, anchor): the sensor's true feature-frame pose and the shear
    anchor it is measured against.

    The normal components (depth, tilt) are instantaneous geometry at the
    sensor tip's boundary projection.  The tangential components (shear,
    spin) are measured against `anchor`, the (surface-local point, spin)
    pair the previous step of the same contact returned; None plants it
    at this contact.  The returned anchor is dragged along when shear or
    spin passes its slip limit; being surface-local, it rides with a
    moving surface.

    Pure: writes nothing of its arguments.  Raises NoContactError outside
    the depth envelope [0, 10] mm; the next engagement then passes None.
    """
    tip_w = sensor_pose.translation
    inv = surface.pose.inverse()
    p_local = inv.apply(tip_w)
    q_local, n_local, depth = surface._project_local(p_local)
    if depth < 0.0 or depth > _MAX_DEPTH:
        raise NoContactError(
            f"contact depth {depth:.3f} mm outside the [0, {_MAX_DEPTH}] mm envelope"
        )
    x_local = surface._convention_x_local(q_local, n_local)

    # Spin of the sensor about the local normal, measured against the
    # surface's tangential convention.
    s_rot = surface.pose.rotation
    z_w = s_rot @ n_local
    x_conv_w = s_rot @ x_local
    y_conv_w = _cross(z_w, x_conv_w)
    r_g = np.column_stack([x_conv_w, y_conv_w, z_w])
    r_rel = r_g.T @ sensor_pose.rotation
    spin = math.atan2(r_rel[1, 0], r_rel[0, 0])

    if anchor is None:
        point, anchor_spin = q_local, spin
    else:
        point, anchor_spin = anchor
        # Drag the anchor when tangential shear exceeds the slip limit.
        v = q_local - point
        vt = v - np.dot(v, n_local) * n_local
        shear = _norm(vt)
        if shear > _MAX_SHEAR:
            point, _, _ = surface._project_local(q_local - (_MAX_SHEAR / shear) * vt)
        gamma = _wrap_angle(spin - anchor_spin)
        if abs(gamma) > _MAX_SPIN:
            anchor_spin = _wrap_angle(spin - math.copysign(_MAX_SPIN, gamma))

    anchor_w = surface.pose.apply(point)
    # Feature frame: origin at the anchor, z along the normal at the tip
    # projection, x = tangential convention rotated by the anchor spin.
    cs, sn = math.cos(anchor_spin), math.sin(anchor_spin)
    x_f = cs * x_conv_w + sn * y_conv_w
    x_f = _unit(x_f - np.dot(x_f, z_w) * z_w)
    y_f = _cross(z_w, x_f)
    feature = Pose(np.column_stack([x_f, y_f, z_w]), anchor_w)
    return feature.inverse() @ sensor_pose, (point, anchor_spin)


def observe(true_contact: Pose, rng: np.random.Generator) -> PoseGaussian:
    """Noisy sensor-side pose estimate of a true feature-frame contact.

    The estimator convention is the inverse of the geometric contact pose;
    noise is a left-perturbation twist with the per-component stds
    DEFAULT_OBSERVATION_STD (read at call time), and the reported
    covariance is the matching left-perturbation covariance diag(std^2):
    the estimator is perfectly calibrated.
    """
    return _observe(true_contact, rng.standard_normal(6))


def _observe(true_contact: Pose, z: np.ndarray) -> PoseGaussian:
    """observe's estimate for the standard-normal draw z (6,), or for a
    stack of contacts with one draw per element, z (..., 6)."""
    std = DEFAULT_OBSERVATION_STD
    mean = exp(std * z) @ true_contact.inverse()
    return PoseGaussian(mean, np.broadcast_to(np.diag(std ** 2), z.shape[:-1] + (6, 6)))


def leader_twist(t: float) -> np.ndarray:
    """Sinusoidal leader velocity (2 pi b / T) cos(2 pi t / T + phase), with
    the PERIODIC_AMPLITUDE b, PERIODIC_PHASE and PERIODIC_PERIOD T."""
    return ((2.0 * math.pi * PERIODIC_AMPLITUDE / PERIODIC_PERIOD)
            * np.cos(2.0 * math.pi * t / PERIODIC_PERIOD + PERIODIC_PHASE))


def _push_yaw(dy: float, dz: float) -> float:
    """Object yaw increment (alpha / r0) dy of one differential pusher
    motion (dy, dz).  Steps larger than 5 mm are outside the differential
    model's validity."""
    if abs(dy) > 5.0 or abs(dz) > 5.0:
        raise ApproximationDomainError(
            f"pusher step ({dy:.3f}, {dz:.3f}) mm exceeds the 5 mm differential limit"
        )
    return (_OBJECT_ALPHA / _OBJECT_R0) * dy


def push_object_step(obj: PushedObject, pusher_delta) -> PushedObject:
    """Advance the pushing chart by one differential pusher motion.

    pusher_delta = (dy, dz) are increments of the target's contact-frame
    coordinates; the object yaw increments by (alpha / r0) dy.
    """
    dy, dz = float(pusher_delta[0]), float(pusher_delta[1])
    return PushedObject(y=obj.y + dy, z=obj.z + dz, phi=obj.phi + _push_yaw(dy, dz))


def bearing_sensitivity(obj: PushedObject):
    """Partials of the bearing theta = atan2(y, z) - phi, plus the radius
    r0 / alpha where tangential pushing flips from aligning to misaligning."""
    r_sq = obj.y * obj.y + obj.z * obj.z
    if r_sq == 0.0:
        raise SingularTargetError("target at the contact point; bearing undefined")
    return (obj.z / r_sq, -obj.y / r_sq, -1.0, _OBJECT_R0 / _OBJECT_ALPHA)


# --------------------------------------------------------------------------
# Scenario configuration


_PUSH_TASKS = ("push_single", "push_dual")
TASKS = ("track", "follow") + _PUSH_TASKS


def _segment_twist(t: float) -> np.ndarray:
    seg = int(t // _SEGMENT_DURATION)
    return _SEGMENT_TWISTS[seg] if seg < len(_SEGMENT_TWISTS) else np.zeros(6)


# Track profile -> base-frame leader velocity at time t.
_LEADER_PROFILES = {
    "periodic": leader_twist,
    "segments": _segment_twist,
    "static": lambda t: np.zeros(6),
}
TRACK_PROFILES = tuple(_LEADER_PROFILES)


def _either(names) -> str:
    return ", ".join(names[:-1]) + ", or " + names[-1]


def _key(check, expect, default=dataclasses.MISSING, tasks=TASKS):
    """A Scenario field with its config schema: `check` accepts a value,
    `expect` names the accepted values in diagnostics, and `tasks` are the
    tasks that read the field."""
    return dataclasses.field(
        default=default, metadata={"check": check, "expect": expect, "tasks": tasks})


_SECONDS = "a positive number of seconds"


@dataclasses.dataclass(frozen=True)
class Scenario:
    """Resolved closed-loop scenario configuration.

    Every field carries its config schema (see _key); the constructor
    enforces it, and the CLI derives its config validation from it, so
    both reject the same values.  A field whose default is None may be
    left None.
    """

    task: str = _key(lambda v: v in TASKS, f"one of {', '.join(TASKS)}")
    duration: float = _key(_is_positive, _SECONDS)
    dt: float = _key(_is_positive, _SECONDS, DEFAULT_DT)
    seed: int = _key(lambda v: is_integer(v) and v >= 0, "a non-negative integer", 0)
    track_profile: str = _key(lambda v: v in TRACK_PROFILES, _either(TRACK_PROFILES),
                              "periodic", ("track",))
    surface: str = _key(lambda v: v in SURFACES, _either(SURFACES), "flat", ("follow",))
    surface_radius: float | None = _key(_is_sigma, "a positive radius in mm whose square "
                                        "is finite", None, ("follow",))
    tall: bool = _key(lambda v: isinstance(v, bool), "true or false", False,
                      _PUSH_TASKS)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if not f.metadata["check"](value):
                raise ValueError(
                    f"'{f.name}' must be {f.metadata['expect']}, got {value!r}")
        if self.surface_radius is not None and _SURFACE_RADIUS[self.surface] is None:
            raise ValueError("'surface_radius' is read only by the ramp and the "
                             f"hemisphere, not by surface {self.surface!r}")
        if not self.duration / self.dt <= _MAX_STEPS:
            raise ValueError(f"'dt' must be at least duration / {_MAX_STEPS} "
                             f"(at most {_MAX_STEPS} steps), got {self.dt!r}")
        if self.n_steps < 1:
            raise ValueError(f"'dt' must be below 2 * duration (at least one "
                             f"control step), got {self.dt!r}")

    @property
    def n_steps(self) -> int:
        """Control steps in one run: duration / dt, rounded."""
        return int(round(self.duration / self.dt))


def controller_presets(scenario: Scenario) -> tuple:
    """Names of the control.preset configurations a scenario runs: the
    servo, then for pushing the bearing loop, then for dual-arm pushing
    the follower's stabiliser."""
    if scenario.task == "track":
        return ("tracking",)
    if scenario.task == "follow":
        return ("surface_follow",)
    pusher = "push_tall" if scenario.tall else "push_pid1"
    if scenario.task == "push_single":
        return (pusher, "push_pid2_single")
    return (pusher, "push_pid2_dual",
            "stabiliser_tall" if scenario.tall else "stabiliser")


# --------------------------------------------------------------------------
# Scenario running


class TrajectoryLog:
    """Per-step records of a scenario run, serializable as CSV.

    Column layout is fixed per task: common pose/command columns followed
    by the task's scalar columns.  Timestamps must strictly increase per
    arm.
    """

    _COMMON = ("t", "arm", "x", "y", "z", "qw", "qx", "qy", "qz",
               "twist_0", "twist_1", "twist_2", "twist_3", "twist_4",
               "twist_5", "belief_cov_trace")

    def __init__(self, scalar_columns):
        self.scalar_columns = tuple(scalar_columns)
        self.rows = []
        self._last_t = {}

    def add(self, t: float, arm: str, pose: Pose, twist, cov_trace, scalars):
        last = self._last_t.get(arm)
        if last is not None and t <= last:
            raise ValueError(f"timestamps must strictly increase per arm ({arm})")
        self._last_t[arm] = t
        unknown = set(scalars) - set(self.scalar_columns)
        if unknown:
            raise ValueError(f"unknown scalar columns {sorted(unknown)}")
        q = _quaternion_from_rotation(pose.rotation)
        row = [t, arm, *pose.translation, *q, *twist, cov_trace]
        row.extend(scalars.get(k) for k in self.scalar_columns)
        self.rows.append(row)

    @property
    def header(self):
        return self._COMMON + self.scalar_columns

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.header) + "\n")
            for row in self.rows:
                fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def _quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0."""
    t = float(np.trace(r))
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s, 0.25 * s,
                      (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s,
                      0.25 * s, (r[1, 2] + r[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s, 0.25 * s])
    q = q / _norm(q)
    if q[0] < 0:
        q = -q
    return q


def _check_pose(pose: Pose, what: str) -> Pose:
    t = pose.translation.tolist()
    if not all(map(math.isfinite, pose.rotation.ravel().tolist() + t)):
        raise DivergenceError(f"{what} pose contains non-finite values")
    if max(map(abs, t)) > _WORKSPACE_LIMIT:
        raise DivergenceError(
            f"{what} left the workspace (|position| > {_WORKSPACE_LIMIT:g} mm)"
        )
    return pose


def _integrate_body(pose: Pose, twist: np.ndarray, dt: float, what: str) -> Pose:
    return _check_pose(pose @ exp(twist * dt), what)


def _integrate_base_frame(pose: Pose, v: np.ndarray, dt: float, what: str) -> Pose:
    """Base-frame Cartesian velocity: translation in world axes, rotation
    about the end-effector's own origin (world axes)."""
    rot = exp(np.concatenate([np.zeros(3), v[3:] * dt])).rotation
    new = Pose(rot @ pose.rotation, pose.translation + v[:3] * dt)
    return _check_pose(new, what)


# Every arm predicts with the deployment dynamics noise.
_DYNAMICS_NOISE = filtering.default_dynamics_noise(filtering.DEPLOYMENT_SIGMA)


class _Arm:
    """One sensor arm: its surface (one for its lifetime), pose, shear
    anchor, filter, PID states and command.  Every arm observes through
    the same sensor model (observe) and draws its noise from its trial's
    generator.  Its filter is None exactly when it is out of contact, so
    that re-engaging is a first engagement.

    A control step is built from five parts: sense (the true contact),
    the engine's filter update (_filter_arms, run over every sensed arm of
    every trial at once), steer (the command from the belief), probe (true
    depth and normal angle at the surface projection), move (integrate the
    command in the body frame) and row (log the step).  `cfg` is a
    PushConfig for a pushing arm, else a ServoConfig.
    """

    def __init__(self, name: str, surface: SurfaceModel, pose: Pose, cfg,
                 scenario: Scenario, rng: np.random.Generator):
        self.name = name
        self.surface = surface
        self.pose = pose
        self.anchor = None
        self.true_fs = None
        self.cfg = cfg
        self.dt = scenario.dt
        self.rng = rng
        self.filter = None
        self.command = None
        self.pid = control.PidState.initial(6)
        self.bearing = control.PidState.initial(1)  # push_step's bearing loop

    def sense(self) -> bool:
        """Measure the true X_fs into true_fs; True in contact.  Losing
        contact forgets it: anchor, filter and servo PID state.  Out of
        contact only a pushing arm goes on (False); any other raises
        NoContactError."""
        try:
            self.true_fs, self.anchor = contact_pose(self.surface, self.pose, self.anchor)
        except NoContactError:
            self.true_fs = self.anchor = self.filter = None
            self.pid = control.PidState.initial(6)
            if not isinstance(self.cfg, control.PushConfig):
                raise
            return False
        return True

    def steer(self):
        """Command from the filtered belief; returns the true X_fs.  Out of
        contact a pushing arm presses with its feedforward and returns None."""
        if self.filter is None:
            self.command = self.cfg.servo.feedforward_twist
            return None
        mean = self.filter.belief.mean
        if isinstance(self.cfg, control.PushConfig):
            self.command, (self.pid, self.bearing) = control.push_step(
                self.cfg, self.pid, self.bearing, mean, self.pose, self.dt)
        else:
            self.command, self.pid, _ = control.servo_step(self.cfg, self.pid, mean, self.dt)
        return self.true_fs

    def probe(self):
        """(surface point, depth, angle in degrees between the sensor axis
        and the surface normal) at the tip's boundary projection."""
        q_w, n_w, depth = self.surface.probe(self.pose.translation)
        cos = float(np.dot(self.pose.rotation[:, 2], n_w))
        return q_w, depth, math.degrees(math.acos(min(1.0, max(-1.0, cos))))

    def move(self) -> None:
        self.pose = _integrate_body(self.pose, self.command, self.dt, self.name)

    def row(self, log_: TrajectoryLog, t: float, scalars: dict) -> None:
        """Log the arm's pose, command and belief covariance trace (empty
        out of contact) with the task's scalars."""
        cov_trace = None if self.filter is None else float(np.trace(self.filter.belief.cov))
        log_.add(t, self.name, self.pose, self.command, cov_trace, scalars)


def _mean(values):
    return float(np.mean(values)) if values else None


def _column_means(rows, width: int) -> list:
    """Mean of each column of equal-length tuples; None for no rows."""
    return [_mean([row[i] for row in rows]) for i in range(width)]


def _mm_deg(v: np.ndarray):
    """Translational (mm) and rotational (deg) size of a tangent error."""
    return _norm(v[:3]), math.degrees(_norm(v[3:]))


def _metrics(scenario: Scenario, depth_error, normal_angle, settled: bool,
             runtime_s: float, final_error=None, **extra) -> dict:
    return dict(task=scenario.task, final_target_error_mm=final_error,
                mean_depth_error_mm=depth_error, mean_normal_angle_deg=normal_angle,
                settled=bool(settled), runtime_s=runtime_s, **extra)


# Errors a control step can raise that end the run.
_STEP_ERRORS = (DivergenceError, NoContactError) + DOMAIN_ERRORS


def _sensed(*arms) -> list:
    """Sense each arm in order; the arms in contact, whose filters the
    engine updates before the runner resumes."""
    return [arm for arm in arms if arm.sense()]


def _element(g: PoseGaussian, i) -> PoseGaussian:
    """Element i of a stacked PoseGaussian, or the sub-stack at indices i."""
    return PoseGaussian(Pose(g.mean.rotation[i], g.mean.translation[i]), g.cov[i])


def _observe_arms(arms) -> PoseGaussian:
    """Each arm's observation of its true_fs, in arm order: observe for
    one arm, else one stack, each element from its arm's own draw."""
    if len(arms) == 1:
        return observe(arms[0].true_fs, arms[0].rng)
    z = np.array([arm.rng.standard_normal(6) for arm in arms])
    return _observe(Pose.stack(arm.true_fs for arm in arms), z)


def _filter_arms(arms, obs: PoseGaussian) -> None:
    """Fuse each arm's observation (obs, as _observe_arms forms it) into
    its filter: filtering.init for an arm without one, one filtering.step
    over the rest, in single form for a single arm.  Writes no filter
    unless every update succeeds."""
    if len(arms) == 1:
        (arm,) = arms
        arm.filter = (filtering.init(obs, arm.pose) if arm.filter is None else
                      filtering.step(arm.filter, obs, arm.pose, _DYNAMICS_NOISE))
        return
    fresh = [i for i, arm in enumerate(arms) if arm.filter is None]
    going = [i for i, arm in enumerate(arms) if arm.filter is not None]
    if len(going) == 1:
        _filter_arms([arms[going[0]]], _element(obs, going[0]))
    elif going:
        stepped = [arms[i] for i in going]
        state = filtering.FilterState(
            PoseGaussian.stack(arm.filter.belief for arm in stepped),
            Pose.stack(arm.filter.prev_sensor_pose for arm in stepped))
        belief = filtering.step(state, _element(obs, going) if fresh else obs,
                                Pose.stack(arm.pose for arm in stepped),
                                _DYNAMICS_NOISE).belief
        for n, arm in enumerate(stepped):
            arm.filter = filtering.FilterState(_element(belief, n), arm.pose)
    for i in fresh:
        arms[i].filter = filtering.init(_element(obs, i), arms[i].pose)


class _Trial:
    """One scenario in the lockstep engine: its runner, its noise stream
    PCG64(seed), the step it is in and the arms it sensed in that step.

    A runner is a generator over the trial: it sets `step` as each step
    begins, yields the step's sensed arms once every arm of the trial has
    sensed, then commands, moves and logs once the engine has updated
    their filters, and returns (log, metrics).
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = np.random.Generator(np.random.PCG64(scenario.seed))
        self.step = 0
        self.sensed = []
        self.result = None
        runner = {"track": _run_track, "follow": _run_follow}.get(scenario.task, _run_push)
        self.run = runner(self)

    def diverged(self, e: Exception) -> DivergenceError:
        err = DivergenceError(
            f"{self.scenario.task} step {self.step}: {type(e).__name__}: {e}")
        err.__cause__ = e
        return err


def run_scenarios(scenarios) -> list:
    """Run closed-loop scenarios in lockstep; returns [(TrajectoryLog,
    metrics), ...], each what run_scenario returns for its scenario.

    Every step, each live trial runs until all its arms have sensed; then
    the sensed arms of every trial are observed as one stack and filtered
    by one stacked filtering.step (_observe_arms, _filter_arms), and the
    trials go on to command, move and log.  Each trial draws from its own
    PCG64(seed) in its arms' order, so it sees the draws of its own run,
    and a stacked update gives the bits of the single ones.  A finished
    trial leaves the batch.

    Raises the DivergenceError that running the scenarios one after
    another would: the lowest-indexed trial's.  A trial that diverges is
    dropped with every later trial, and the earlier ones run on.  A
    stacked update that raises is redone one arm at a time, in trial
    order, so its error names the trial and step a single update does.
    """
    trials = [_Trial(s) for s in scenarios]
    live = trials
    error = None
    while live:
        stepping = []
        for trial in live:
            try:
                trial.sensed = next(trial.run)
            except StopIteration as done:
                trial.result = done.value
                continue
            except _STEP_ERRORS as e:
                error = trial.diverged(e)
                break
            stepping.append(trial)
        pending = [(trial, arm) for trial in stepping for arm in trial.sensed]
        if pending:
            arms = [arm for _, arm in pending]
            obs = _observe_arms(arms)
            try:
                _filter_arms(arms, obs)
            except _STEP_ERRORS:
                for i, (trial, arm) in enumerate(pending):
                    try:
                        _filter_arms([arm], obs if len(arms) == 1 else _element(obs, i))
                    except _STEP_ERRORS as e:
                        error = trial.diverged(e)
                        stepping = stepping[:stepping.index(trial)]
                        break
        live = stepping
    if error is not None:
        raise error
    return [trial.result for trial in trials]


def run_scenario(scenario: Scenario):
    """Execute one closed-loop scenario, drawing its noise from
    PCG64(scenario.seed); returns (TrajectoryLog, metrics).

    Metrics always carry final_target_error_mm, mean_depth_error_mm,
    mean_normal_angle_deg, settled, and runtime_s (simulated seconds, so
    repeated runs are bitwise identical), plus task-specific extras.  A
    step that leaves the workspace, loses contact it cannot recover, or
    leaves a math domain raises DivergenceError naming the task and step.
    This is run_scenarios of one scenario.
    """
    return run_scenarios([scenario])[0]


def _run_track(trial: _Trial):
    scenario = trial.scenario
    dt = scenario.dt
    leader_velocity = _LEADER_PROFILES[scenario.track_profile]
    leader = Pose.identity()
    # Reference depth is 6 mm, so the follower engages exactly at reference.
    follower = _Arm("follower", SurfaceModel("flat", leader),
                    Pose(np.eye(3), np.array([0.0, 0.0, 6.0])),
                    control.preset(controller_presets(scenario)[0]), scenario, trial.rng)
    ref_inv = follower.cfg.reference_contact_pose.inverse()

    log_ = TrajectoryLog(("depth_mm", "track_error_mm", "track_error_deg",
                          "est_error_mm", "est_error_deg"))
    steady_t = min(max(5.0, 0.5 * scenario.duration), scenario.duration)
    steady = []  # (|depth - 6|, normal angle, track mm, deg, estimate mm, deg)

    for k in range(scenario.n_steps):
        trial.step = k
        t = k * dt
        v = leader_velocity(t)
        leader = _integrate_base_frame(leader, v, dt, "leader")
        follower.surface.pose = leader

        yield _sensed(follower)
        true_sf = follower.steer().inverse()
        track_err = _mm_deg(log(true_sf @ ref_inv))
        est_err = _mm_deg(log(follower.filter.belief.mean @ true_sf.inverse()))
        _, depth, angle = follower.probe()
        if t >= steady_t:
            steady.append((abs(depth - 6.0), angle, *track_err, *est_err))
        log_.add(t, "leader", leader, v, None, {})
        follower.row(log_, t, dict(zip(log_.scalar_columns,
                                       (depth, *track_err, *est_err))))
        follower.move()

    depth_err, angle, track_mm, track_deg, est_mm, est_deg = _column_means(steady, 6)
    return log_, _metrics(
        scenario, depth_err, angle, track_mm is not None and track_mm < 5.0,
        scenario.n_steps * dt, track_error_mm=track_mm, track_error_deg=track_deg,
        est_error_mm=est_mm, est_error_deg=est_deg)


def _run_follow(trial: _Trial):
    scenario = trial.scenario
    dt = scenario.dt
    speed = _FOLLOW_SPEED
    if scenario.surface == "hemisphere":
        # Eight radial passes from the apex, 45 degrees apart.
        passes = [np.array([speed * math.cos(th), speed * math.sin(th), 0, 0, 0, 0])
                  for th in (i * math.pi / 4.0 for i in range(8))]
    else:
        passes = [np.array([0, speed, 0, 0, 0, 0], dtype=float)]
    radius = scenario.surface_radius or _SURFACE_RADIUS[scenario.surface]
    # The run's steps, split across the passes as evenly as they go.
    steps = np.array_split(np.arange(scenario.n_steps), len(passes))
    base = control.preset(controller_presets(scenario)[0])

    log_ = TrajectoryLog(("run", "depth_mm", "normal_angle_deg"))
    settled = []  # (|depth - 3|, normal angle) after each pass's transient
    transient = 2.0

    t = 0.0
    for run_idx, ff in enumerate(passes):
        cfg = dataclasses.replace(base, feedforward_twist=ff)
        sensor = _Arm("sensor", SurfaceModel(scenario.surface, radius=radius),
                      Pose(np.eye(3), np.array([0.0, 0.0, 3.0])), cfg, scenario, trial.rng)
        for k, step in enumerate(steps[run_idx]):
            trial.step = step
            yield _sensed(sensor)
            sensor.steer()
            _, depth, angle = sensor.probe()
            if k * dt >= transient:
                settled.append((abs(depth - 3.0), angle))
            sensor.row(log_, t, {"run": float(run_idx), "depth_mm": depth,
                                 "normal_angle_deg": angle})
            sensor.move()
            t += dt

    depth_err, angle = _column_means(settled, 2)
    return log_, _metrics(
        scenario, depth_err, angle, depth_err is not None and depth_err < 1.0,
        scenario.n_steps * dt, surface=scenario.surface)


def _push_plant(face: Pose, prev_tip_face, tip_w: np.ndarray):
    """One step of the pushed object under the leader's tip at tip_w:
    (face, tip in face coordinates), or (face, None) off the face.

    The object yields past the yield depth, advancing along the face
    normal by the excess, and rotates about its centre of friction with
    the tangential contact motion since prev_tip_face (the previous
    step's tip in face coordinates, None off the face), as the pushing
    chart does (push_object_step).
    """
    tip_face = face.inverse().apply(tip_w)
    if tip_face[2] < 0.0:
        return face, None
    advance = max(0.0, tip_face[2] - _YIELD_DEPTH)
    s_y = 0.0 if prev_tip_face is None else tip_face[1] - prev_tip_face[1]
    dphi = _push_yaw(float(-s_y), float(-advance))
    z_f_w = face.rotation[:, 2]
    x_f_w = face.rotation[:, 0]
    face = Pose(face.rotation, face.translation + advance * z_f_w)
    if dphi != 0.0:
        q_w, _, _ = SurfaceModel("flat", face).probe(tip_w)
        # Rotate the face by -dphi about the up axis through the centre of
        # friction.
        cof_w = q_w + _OBJECT_R0 * z_f_w
        rot = exp(np.concatenate([np.zeros(3), x_f_w * -dphi])).rotation
        face = Pose(rot, cof_w - rot @ cof_w) @ face
    return face, face.inverse().apply(tip_w)


def _run_push(trial: _Trial):
    scenario = trial.scenario
    dt = scenario.dt
    dual = scenario.task == "push_dual"
    tall = scenario.tall

    # World: x up, pushing happens in the (y, z) plane.  The pushed face's
    # inward normal starts along +y (the initial push direction).
    contact0 = np.array([0.0, *_PUSH_START])
    target_w = np.array([0.0, *_PUSH_TARGET])
    face_rot0 = np.column_stack([
        np.array([1.0, 0.0, 0.0]),   # x: up
        np.array([0.0, 0.0, -1.0]),  # y
        np.array([0.0, 1.0, 0.0]),   # z: inward normal
    ])
    face = Pose(face_rot0, contact0)

    presets = controller_presets(scenario)
    push_cfg = control.PushConfig(
        servo=control.preset(presets[0]),
        bearing_pid=control.preset(presets[1]),
        target_pose_in_work=Pose(np.eye(3), target_w),
    )
    # Dual-arm: the leader starts engaged at the yield depth so the object
    # moves from the first step.  Single-arm protocol: approach from 45 mm
    # off the face; out of contact the leader presses toward the face with
    # its feedforward (_Arm.steer).
    start_depth = _YIELD_DEPTH if dual else -45.0
    leader = _Arm("leader", SurfaceModel("flat", face),
                  Pose(face.rotation, face.apply(np.array([0.0, 0.0, start_depth]))),
                  push_cfg, scenario, trial.rng)

    face2_offset = Pose(
        np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
        np.array([0.0, 0.0, _OBJECT_WIDTH]),
    )
    if dual:
        # The follower starts at its 3 mm reference on the opposite face;
        # losing it ends the run.
        face2 = face @ face2_offset
        follower = _Arm("follower", SurfaceModel("flat", face2),
                        Pose(face2.rotation, face2.apply(np.array([0.0, 0.0, 3.0]))),
                        control.preset(presets[2]), scenario, trial.rng)

    prev_tip_face = None
    margin = 1.0  # the tall object topples when it reaches 0

    log_ = TrajectoryLog(("bearing_rad", "target_distance_mm", "tip_distance_mm",
                          "depth_mm", "follower_depth_mm", "stability_margin"))
    contact_rows = []  # (|depth - yield depth|, normal angle) while in contact
    # The follower's engagement transient (the object's 10 mm/s recession
    # step) peaks near 2.8 mm and decays with the depth loop's slow pole;
    # depth maintenance is assessed after it has died out.
    follower_depth_err = []
    follower_window = 8.0

    for k in range(scenario.n_steps):
        trial.step = k
        t = k * dt
        yield _sensed(leader, follower) if dual else _sensed(leader)
        leader.steer()
        if dual:
            follower.steer()
            fdepth = follower.probe()[1]
            if t >= follower_window:
                follower_depth_err.append(abs(fdepth - 3.0))
            if tall and abs(fdepth - 3.0) > _STABILITY_TOLERANCE:
                margin -= _STABILITY_DECAY * dt
            elif tall:
                margin = min(1.0, margin + _STABILITY_RECOVER * dt)

        leader.move()
        if dual:
            follower.move()
        face, prev_tip_face = _push_plant(face, prev_tip_face, leader.pose.translation)
        leader.surface.pose = face
        if dual:
            follower.surface.pose = face @ face2_offset

        # Distances from the contact point (the controller's) and from the
        # tip centre (termination's); both are logged.
        sensor = leader.pose
        tip_centre = sensor.translation - _TIP_RADIUS * sensor.rotation[:, 2]
        tip_distance = _norm(target_w - tip_centre)
        contact_distance = math.hypot(target_w[1] - sensor.translation[1],
                                      target_w[2] - sensor.translation[2])
        row = {"target_distance_mm": contact_distance,
               "tip_distance_mm": tip_distance,
               "stability_margin": margin if tall else None}
        if leader.filter is not None:
            q_w, depth_now, angle = leader.probe()
            contact_rows.append((abs(depth_now - _YIELD_DEPTH), angle))
            # Bearing of the target seen from the current contact point,
            # in face axes.
            d = target_w - q_w
            row["bearing_rad"] = math.atan2(float(np.dot(d, face.rotation[:, 1])),
                                            float(np.dot(d, face.rotation[:, 2])))
            row["depth_mm"] = depth_now
        leader.row(log_, t, row)
        if dual:
            follower.row(log_, t, {"follower_depth_mm": fdepth,
                                   "stability_margin": margin if tall else None})

        if margin <= 0.0 or tip_distance < _TERMINATION_RADIUS:
            break

    toppled = margin <= 0.0
    terminated = not toppled and tip_distance < _TERMINATION_RADIUS

    # Final target error: perpendicular distance from the target to the
    # line through the final contact point along the face normal.
    q_w, n_w, _ = leader.surface.probe(leader.pose.translation)
    to_target = target_w - q_w
    perp = to_target - np.dot(to_target, n_w) * n_w

    depth_err, angle = _column_means(contact_rows, 2)
    metrics = _metrics(scenario, depth_err, angle, terminated, (k + 1) * dt,
                       final_error=_norm(perp), tall=tall, terminated=terminated)
    if dual:
        metrics["follower_depth_worst_mm"] = max(follower_depth_err, default=None)
        metrics["follower_depth_mean_mm"] = _mean(follower_depth_err)
    if tall:
        metrics["toppled"] = toppled
        metrics["stability_margin_final"] = margin
    return log_, metrics


def write_metrics_json(metrics: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_study_sequence(n_steps: int, rng: np.random.Generator):
    """Independent random contact poses with noisy observations, as
    (true sensor-side pose, observation) pairs for filter_study."""
    pairs = []
    for _ in range(n_steps):
        euler = sample_contact_pose(rng)
        x_fs = euler_to_pose(*euler)
        obs = observe(x_fs, rng)
        pairs.append((x_fs.inverse(), obs))
    return pairs
