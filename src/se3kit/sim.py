"""Desk-scale closed-loop simulation.

Everything here is deliberately kinematic: arms are free-flying frames
integrated from twist commands, surfaces are analytic shapes, and the
contact-pose "perception" is geometry plus calibrated tangent-space noise
standing in for a trained pose estimator.  The pushing plant is the planar
differential model built around a centre of friction.

A config's trials run in lockstep (run_scenarios): at every control step
the arms of all trials are sensed, observed, filtered, steered and moved
as stacks, every runner logs the steps it records in blocks, as stacks,
and each trial's outputs are those of running it alone (run_scenario).

Units: mm, rad, s.  Surface-local z points into the material everywhere,
so pressing deeper along the sensor's +z axis increases contact depth.
"""

from __future__ import annotations

import dataclasses
import functools
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
from .liegroup import Pose, euler_to_pose, exp, log, matvec, stack, take
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
    """a x b of two 3-vectors, or of each row of two (k, 3) stacks:
    np.cross's products and differences in its order, so the same bits,
    without its fixed cost per call."""
    if a.ndim > 1:
        return np.array([[a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
                         for (a0, a1, a2), (b0, b1, b2) in zip(a.tolist(), b.tolist())])
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _columns(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The C-contiguous matrices [x y z] of three (k, 3) stacks of columns,
    what np.column_stack makes of one set."""
    m = np.empty(x.shape + (3,))
    m[..., 0], m[..., 1], m[..., 2] = x, y, z
    return m


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of two (k, m) stacks, (k,): the BLAS dot
    a 1-D np.dot calls, so each row gets the bits of its single dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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


def _check_depth(depth: float) -> None:
    if depth < 0.0 or depth > _MAX_DEPTH:
        raise NoContactError(
            f"contact depth {depth:.3f} mm outside the [0, {_MAX_DEPTH}] mm envelope"
        )


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
    _check_depth(depth)
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
        point, anchor_spin = _slip(surface, q_local, vt, _norm(vt), point, spin, anchor_spin)

    anchor_w = surface.pose.apply(point)
    # Feature frame: origin at the anchor, z along the normal at the tip
    # projection, x = tangential convention rotated by the anchor spin.
    cs, sn = math.cos(anchor_spin), math.sin(anchor_spin)
    x_f = cs * x_conv_w + sn * y_conv_w
    x_f = _unit(x_f - np.dot(x_f, z_w) * z_w)
    y_f = _cross(z_w, x_f)
    feature = Pose(np.column_stack([x_f, y_f, z_w]), anchor_w)
    return feature.inverse() @ sensor_pose, (point, anchor_spin)


def _slip(surface: SurfaceModel, q_local, vt, shear: float, point, spin: float,
          anchor_spin: float):
    """The anchor (point, spin) after this contact's slip: the point is
    dragged toward the tip projection q_local when the tangential shear vt
    passes _MAX_SHEAR, the spin when the spin passes _MAX_SPIN."""
    if shear > _MAX_SHEAR:
        point, _, _ = surface._project_local(q_local - (_MAX_SHEAR / shear) * vt)
    gamma = _wrap_angle(spin - anchor_spin)
    if abs(gamma) > _MAX_SPIN:
        anchor_spin = _wrap_angle(spin - math.copysign(_MAX_SPIN, gamma))
    return point, anchor_spin


def _project(surfaces, s_pose: Pose, points: np.ndarray):
    """SurfaceModel._project_local of each of n world points in the frame of
    its surface at its pose in s_pose: (q, inward normals, depths, the n
    NoContactErrors, None where it projects), the flat part as one stack
    and the rest one element at a time, each with its single call's bits."""
    n = len(surfaces)
    # inverse().apply(point): the point times the rotation, plus -R^T t
    p_local = (points[:, None, :] @ s_pose.rotation)[:, 0, :] + s_pose.inverse().translation
    q = p_local.copy()
    q[:, 2] = 0.0
    normal = np.array([[0.0, 0.0, 1.0]] * n)
    depth = p_local[:, 2].tolist()
    errors = [None] * n
    for i, surface in enumerate(surfaces):
        if surface.kind == "hemisphere" or (surface.kind == "ramp" and p_local[i, 1] > 0.0):
            try:
                q[i], normal[i], depth[i] = surface._project_local(p_local[i])
            except NoContactError as err:
                errors[i] = err
    return q, normal, depth, errors


def _probe(surface: SurfaceModel, poses: Pose, s_pose: Pose):
    """SurfaceModel.probe of the tip of each of k sensor poses on the
    surface at its pose in s_pose, with the angle between the sensor axis
    and the surface normal: (surface points (k, 3), depths, angles in
    degrees), each with its single call's bits.  Every tip projects: it
    was sensed in contact there, or the surface is flat."""
    q, normal, depth, _ = _project([surface] * len(poses.translation), s_pose, poses.translation)
    cos = _dots(poses.rotation[:, :, 2], matvec(s_pose.rotation, normal)).tolist()
    q_w = (q[:, None, :] @ s_pose.rotation.swapaxes(-1, -2))[:, 0, :] + s_pose.translation
    return q_w, depth, [math.degrees(math.acos(min(1.0, max(-1.0, c)))) for c in cos]


def _contact_poses(surfaces, sensor_poses: Pose, anchors):
    """contact_pose of each element of a stack of n sensor poses, each
    against its own surface and anchor; never raises NoContactError.

    Returns (X_fs of the elements in contact, stacked; their indices; the
    n new anchors, None out of contact; the n NoContactErrors, None in
    contact).  Every numpy product is contact_pose's own, run once over the
    stack with each element laid out as in the single call, so each gets
    the bits of its single call.  The projections off the flat part of a
    surface (_project), the trig, the angle wraps and the slip run per
    element, with contact_pose's own code on Python floats.
    """
    n = len(surfaces)
    s_pose = Pose.stack([s.pose for s in surfaces])
    s_rot, sensor_rot = s_pose.rotation, sensor_poses.rotation
    q, normal, depth, errors = _project(surfaces, s_pose, sensor_poses.translation)
    x_local = np.array([[1.0, 0.0, 0.0]] * n)
    for i, surface in enumerate(surfaces):
        try:
            if errors[i] is None:
                _check_depth(depth[i])
                if surface.kind == "hemisphere":
                    x_local[i] = surface._convention_x_local(q[i], normal[i])
        except NoContactError as err:
            errors[i] = err

    z_w = matvec(s_rot, normal)
    x_conv_w = matvec(s_rot, x_local)
    y_conv_w = _cross(z_w, x_conv_w)
    r_rel = _columns(x_conv_w, y_conv_w, z_w).swapaxes(-1, -2) @ sensor_rot
    spins = list(map(math.atan2, r_rel[:, 1, 0].tolist(), r_rel[:, 0, 0].tolist()))

    # A new contact anchors at its tip projection, where it reads no shear.
    points = q.copy()
    anchor_spins = spins.copy()
    for i, anchor in enumerate(anchors):
        if anchor is not None:
            points[i], anchor_spins[i] = anchor
    v = q - points
    vt = v - _dots(v, normal)[:, None] * normal
    shears = np.sqrt(_dots(vt, vt)).tolist()
    for i, anchor in enumerate(anchors):
        if anchor is not None and errors[i] is None:
            try:
                points[i], anchor_spins[i] = _slip(surfaces[i], q[i], vt[i], shears[i],
                                                   points[i], spins[i], anchor_spins[i])
            except NoContactError as err:
                errors[i] = err

    rows = [i for i, err in enumerate(errors) if err is None]
    if len(rows) < n:
        if not rows:
            return None, rows, [None] * n, errors
        s_pose, sensor_poses, points, z_w, x_conv_w, y_conv_w = take(
            (s_pose, sensor_poses, points, z_w, x_conv_w, y_conv_w), rows)
        anchor_spins = [anchor_spins[i] for i in rows]
    anchor_w = ((points[:, None, :] @ s_pose.rotation.swapaxes(-1, -2))[:, 0, :]
                + s_pose.translation)
    cs = np.array([math.cos(a) for a in anchor_spins])[:, None]
    sn = np.array([math.sin(a) for a in anchor_spins])[:, None]
    x_f = cs * x_conv_w + sn * y_conv_w
    x_f = x_f - _dots(x_f, z_w)[:, None] * z_w
    norms = np.sqrt(_dots(x_f, x_f))
    if not norms.all():
        raise ValueError("cannot normalize a zero vector")
    x_f = x_f / norms[:, None]
    feature = Pose(_columns(x_f, _cross(z_w, x_f), z_w), anchor_w)
    new_anchors = [None] * n
    for j, i in enumerate(rows):
        new_anchors[i] = (points[j], anchor_spins[j])
    return feature.inverse() @ sensor_poses, rows, new_anchors, errors


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
    std = np.asarray(DEFAULT_OBSERVATION_STD, dtype=float)
    mean = exp(std * z) @ true_contact.inverse()
    cov = _observation_cov(std.tobytes())
    if z.ndim > 1:
        cov = np.broadcast_to(cov, z.shape[:-1] + (6, 6))
    return PoseGaussian._symmetric(mean, cov)


@functools.lru_cache(maxsize=4)
def _observation_cov(std: bytes) -> np.ndarray:
    """diag(std^2) of the float stds with these bytes, read-only: every
    observation made with one DEFAULT_OBSERVATION_STD value shares it."""
    with np.errstate(over="ignore"):  # an overflowing square is rejected as not finite
        cov = np.diag(np.frombuffer(std) ** 2)
    cov.flags.writeable = False
    return cov


def leader_twist(t) -> np.ndarray:
    """Sinusoidal leader velocity (2 pi b / T) cos(2 pi t / T + phase), with
    the PERIODIC_AMPLITUDE b, PERIODIC_PHASE and PERIODIC_PERIOD T; an
    array of times (k,) gives (k, 6)."""
    t = np.asarray(t, dtype=float)[..., None]
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


# Track profile -> base-frame leader velocities at an array of times (k,),
# as a (k, 6) array.
_LEADER_PROFILES = {
    "periodic": leader_twist,
    "segments": lambda ts: np.array([_segment_twist(t) for t in ts.tolist()]),
    "static": lambda ts: np.zeros(ts.shape + (6,)),
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

    def add(self, t, arm, pose: Pose, twist, cov_trace, scalars):
        """Append one row; a stacked pose of k elements appends k rows in
        its order, and then t, arm and cov_trace are sequences of k,
        twist is (k, 6) and each scalar a sequence of k.  One row is
        appended as a block of one.  Every check runs before any row is
        appended or any timestamp taken; the quaternions are one stack
        (_quaternions)."""
        rows = pose.translation.shape[:-1]
        unknown = set(scalars) - set(self.scalar_columns)
        if unknown:
            raise ValueError(f"unknown scalar columns {sorted(unknown)}")
        if np.shape(twist) != rows + (6,):
            raise ValueError(f"twist has shape {np.shape(twist)}, not {rows + (6,)}")
        if not rows:
            t, arm, pose, twist, cov_trace = [t], [arm], Pose.stack([pose]), [twist], [cov_trace]
            scalars = {name: [cell] for name, cell in scalars.items()}
        k = len(pose.translation)
        for name, cells in (("t", t), ("arm", arm), ("cov_trace", cov_trace), *scalars.items()):
            if len(cells) != k:
                raise ValueError(f"{name} has {len(cells)} cells for a block of {k} rows")
        last = dict(self._last_t)
        for ti, name in zip(t, arm):
            if name in last and ti <= last[name]:
                raise ValueError(f"timestamps must strictly increase per arm ({name})")
            last[name] = ti
        self._last_t = last
        columns = [scalars.get(name, [None] * k) for name in self.scalar_columns]
        for ti, name, p, q, tw, trace, *values in zip(
                t, arm, pose.translation.tolist(), _quaternions(pose.rotation).tolist(),
                np.asarray(twist).tolist(), cov_trace, *columns):
            self.rows.append([ti, name, *p, *q, *tw, trace, *values])

    @property
    def header(self):
        return self._COMMON + self.scalar_columns

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.header) + "\n")
            for row in self.rows:
                fh.write(",".join(["" if v is None else v if isinstance(v, str)
                                   else "%.17g" % v for v in row]) + "\n")


def _quaternions(r: np.ndarray) -> np.ndarray:
    """The unit quaternions [w, x, y, z] with w >= 0 of a (k, 3, 3) stack
    of rotations, (k, 4): each row takes the first branch that holds, with
    its entries read once and its norm through _dots."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.transpose(1, 2, 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        # every branch for every rotation; each row takes the first that holds
        s = [np.sqrt(r00 + r11 + r22 + 1.0) * 2.0,
             np.sqrt(1.0 + r00 - r11 - r22) * 2.0,
             np.sqrt(1.0 + r11 - r00 - r22) * 2.0,
             np.sqrt(1.0 + r22 - r00 - r11) * 2.0]
        q = np.select(
            [r00 + r11 + r22 > 0.0, (r00 > r11) & (r00 > r22), r11 > r22],
            [[0.25 * s[0], (r21 - r12) / s[0], (r02 - r20) / s[0], (r10 - r01) / s[0]],
             [(r21 - r12) / s[1], 0.25 * s[1], (r01 + r10) / s[1], (r02 + r20) / s[1]],
             [(r02 - r20) / s[2], (r01 + r10) / s[2], 0.25 * s[2], (r12 + r21) / s[2]]],
            [(r10 - r01) / s[3], (r02 + r20) / s[3], (r12 + r21) / s[3], 0.25 * s[3]]).T.copy()
    q = q / np.sqrt(_dots(q, q))[:, None]
    return np.where(q[:, :1] < 0, -q, q)


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


def _integrate_base_frame(pose: Pose, v: np.ndarray, dt: float, what: str,
                          rot: np.ndarray | None = None) -> Pose:
    """Base-frame Cartesian velocity: translation in world axes, rotation
    about the end-effector's own origin (world axes).  rot, if given, is
    the rotation step exp((0, v[3:] dt)), computed beforehand."""
    if rot is None:
        rot = exp(np.concatenate([np.zeros(3), v[3:] * dt])).rotation
    new = Pose(rot @ pose.rotation, pose.translation + v[:3] * dt)
    return _check_pose(new, what)


# Every arm predicts with the deployment dynamics noise.
_DYNAMICS_NOISE = filtering.default_dynamics_noise(filtering.DEPLOYMENT_SIGMA)


class _Arm:
    """One sensor arm: its name, its surface (one for its lifetime), its
    configuration (a PushConfig for a pushing arm, else a ServoConfig),
    time step and noise stream (its trial's generator), and a pushing
    arm's bearing loop.  Its pose, anchor, filter, PID state and command
    are row `row` of the engine's stacks `batch` (a _Batch); an arm starts
    in a batch of its own, out of contact.  An arm is in contact exactly
    when it has a filter, so that re-engaging is a first engagement.
    """

    def __init__(self, name: str, surface: SurfaceModel, pose: Pose, cfg,
                 scenario: Scenario, rng: np.random.Generator):
        self.name = name
        self.surface = surface
        self.cfg = cfg
        self.pushing = isinstance(cfg, control.PushConfig)
        self.servo = cfg.servo if self.pushing else cfg
        self.dt = scenario.dt
        self.rng = rng
        self.bearing = control.PidState.initial(1)  # bearing_step's loop
        self.batch = _Batch([self], [(pose, None, None, None)])

    @property
    def pose(self) -> Pose:
        return self.batch.pose(self.row)

    @property
    def command(self) -> np.ndarray:
        return _member(self.batch.commands, self.batch.n, self.row)

    @property
    def true_fs(self) -> Pose:
        """The true X_fs this step sensed."""
        return _member(self.batch.true_fs, self.batch.n, self.batch.sensed.index(self.row))

    @property
    def belief_mean(self) -> Pose:
        """The filtered belief's mean, in contact."""
        batch = self.batch
        return _member(batch.filter.belief.mean, len(batch.contact), batch.group[self.row])

    @property
    def cov_trace(self) -> float:
        """The trace of the belief covariance, nan out of contact."""
        g = self.batch.group.get(self.row)
        return math.nan if g is None else float(np.trace(
            _member(self.batch.filter.belief.cov, len(self.batch.contact), g)))


def _member(value, n: int, i: int):
    """Member i of a group of n the engine holds as one value: the value
    itself for a group of one, which is held single, else its row i (an
    array's by plain indexing, a fraction of take's cost per call)."""
    if n == 1:
        return value
    return value[i] if isinstance(value, np.ndarray) else take(value, i)


# Errors a control step can raise that end the run.
_STEP_ERRORS = (DivergenceError, NoContactError) + DOMAIN_ERRORS


class _Batch:
    """The arms the engine steps together, in trial and arm order, with
    their state as stacks, or as single values for one arm, so that a
    step restacks nothing:

    - poses, anchors, dt and commands: one row per arm;
    - true_fs: X_fs of the arms this step sensed in contact (`sensed`);
    - filter and pid (a FilterState, PidState pair), servo and group_dt:
      one row per arm in contact (`contact`, `group` maps an arm's row to
      its row here), single for one such arm (_member).

    Each stage runs every arm at once, in single form for one arm, and
    raises what it meets: sense, update (observe and filter), steer, move.
    A stack that raises may name any element in any words; the engine
    then reruns the trials one by one (run_scenarios).  A batch is built
    from its arms' states, `state(row)` of the batch each is in, whenever
    its arms change.
    """

    def __init__(self, arms, states):
        """states: each arm's (pose, anchor, FilterState or None, PidState
        or None), the last two None out of contact."""
        self.arms = list(arms)
        self.n = n = len(self.arms)
        poses = [state[0] for state in states]
        self.poses = poses[0] if n == 1 else Pose.stack(poses)
        self._pose_rows = (None, [])
        self.anchors = [state[1] for state in states]
        self.dt = self.arms[0].dt if n == 1 else np.array([[arm.dt] for arm in self.arms])
        self.commands = self.true_fs = None
        self.sensed = []
        contact = [row for row, state in enumerate(states) if state[2] is not None]
        self._regroup(contact, [states[row][2:] for row in contact])
        for row, arm in enumerate(self.arms):
            arm.batch, arm.row = self, row

    @classmethod
    def of(cls, arms) -> "_Batch":
        """A batch of the arms, each taken from the batch it is in."""
        return cls(arms, [arm.batch.state(arm.row) for arm in arms])

    def pose(self, row: int) -> Pose:
        """The arm's pose; each row of a stack is built once per move."""
        if self.n == 1:
            return self.poses
        if self._pose_rows[0] is not self.poses:
            self._pose_rows = (self.poses, [Pose(r, t) for r, t in zip(
                self.poses.rotation, self.poses.translation)])
        return self._pose_rows[1][row]

    def _poses(self, rows) -> Pose:
        """The poses of the arms at rows, in the form a stage runs them."""
        if len(rows) == 1:
            return self.pose(rows[0])
        return self.poses if len(rows) == self.n else take(self.poses, rows)

    def state(self, row: int) -> tuple:
        """The arm's (pose, anchor, FilterState or None, PidState or None)."""
        g = self.group.get(row)
        group = (None, None) if g is None else self._group_state(g)
        return (self.pose(row), self.anchors[row]) + group

    def _group_state(self, g: int) -> tuple:
        """The single (FilterState, PidState) of the arm in contact at g."""
        return _member((self.filter, self.pid), len(self.contact), g)

    def _regroup(self, rows, states) -> None:
        """Make the arms at rows the arms in contact, with their single
        (FilterState, PidState) states."""
        self.contact = rows
        self.group = {row: g for g, row in enumerate(rows)}
        arms = [self.arms[row] for row in rows]
        self.leaders = [(g, row) for g, row in enumerate(rows) if self.arms[row].pushing]
        if len(rows) == 1:
            (self.filter, self.pid), = states
            self.servo, self.group_dt = arms[0].servo, arms[0].dt
        elif rows:
            self.filter, self.pid = stack(states)
            self.servo = control.ServoConfig.stack(arm.servo for arm in arms)
            self.group_dt = np.array([[arm.dt] for arm in arms])
        else:
            self.filter = self.pid = self.servo = self.group_dt = None

    def sense(self) -> None:
        """Measure every arm's true X_fs.  Losing contact forgets it:
        anchor, filter and servo PID state.  Out of contact only a pushing
        arm goes on; any other arm's NoContactError is raised."""
        if self.n == 1:
            try:
                self.true_fs, self.anchors[0] = contact_pose(
                    self.arms[0].surface, self.poses, self.anchors[0])
                self.sensed, errors = [0], [None]
            except NoContactError as err:
                self.true_fs, self.anchors[0] = None, None
                self.sensed, errors = [], [err]
        else:
            self.true_fs, self.sensed, self.anchors, errors = _contact_poses(
                [arm.surface for arm in self.arms], self.poses, self.anchors)
        kept = [g for g, row in enumerate(self.contact) if errors[row] is None]
        if len(kept) < len(self.contact):
            self._regroup([self.contact[g] for g in kept], [self._group_state(g) for g in kept])
        for arm, err in zip(self.arms, errors):
            if err is not None and not arm.pushing:
                raise err

    def update(self) -> None:
        """Observe every arm in contact, each from its own noise stream in
        row order, as one stack (observe for one arm), and fuse the
        observations: one filtering.step over the arms that were in
        contact, filtering.init for each arm that has just engaged."""
        rows = self.sensed
        if not rows:
            return
        if len(rows) == 1:
            arm = self.arms[rows[0]]
            obs = observe(arm.true_fs, arm.rng)
        else:
            z = np.array([self.arms[row].rng.standard_normal(6) for row in rows])
            obs = _observe(self.true_fs, z)
        if rows == self.contact:
            self.filter = filtering.step(self.filter, obs, self._poses(rows), _DYNAMICS_NOISE)
            return
        # Some arms have just engaged: the arms in contact are a subset.
        going = [i for i, row in enumerate(rows) if row in self.group]
        if going:
            self.filter = filtering.step(
                self.filter, take(obs, going if len(going) > 1 else going[0]),
                self._poses(self.contact), _DYNAMICS_NOISE)
        self._regroup(rows, [
            self._group_state(self.group[row]) if row in self.group
            else (filtering.init(_member(obs, len(rows), i), self.pose(row)),
                  control.PidState.initial(6))
            for i, row in enumerate(rows)])

    def steer(self) -> None:
        """Command every arm: one control.servo_step over the arms in
        contact, then the pushing arms' bearing loops (_align).  Out of
        contact a pushing arm presses with its feedforward."""
        if not self.contact:
            self.commands = self._feedforwards()
            return
        cmd, self.pid, error_pose = control.servo_step(
            self.servo, self.pid, self.filter.belief.mean, self.group_dt)
        if self.leaders:
            cmd = self._align(cmd, error_pose)
        if len(self.contact) < self.n:
            commands = self._feedforwards()
            commands[self.contact] = cmd
            cmd = commands
        self.commands = cmd

    def _align(self, cmd: np.ndarray, error_pose: Pose) -> np.ndarray:
        """The servo commands cmd of the arms in contact with each pushing
        arm's bearing loop added (control.bearing_step, one arm at a time)."""
        n = len(self.contact)
        for g, row in self.leaders:
            arm = self.arms[row]
            c, arm.bearing = control.bearing_step(
                arm.cfg, _member(cmd, n, g), arm.bearing, _member(error_pose, n, g),
                self.pose(row), arm.dt)
            if n == 1:
                return c
            cmd[g] = c
        return cmd

    def _feedforwards(self) -> np.ndarray:
        """Every arm's feedforward twist: one arm's own, else a new (n, 6)
        array."""
        if self.n == 1:
            return self.arms[0].servo.feedforward_twist
        return np.array([arm.servo.feedforward_twist for arm in self.arms])

    def move(self) -> None:
        """Integrate every arm's command over its time step in the body
        frame (_integrate_body for one arm)."""
        if self.n == 1:
            self.poses = _integrate_body(self.poses, self.commands, self.dt,
                                         self.arms[0].name)
            return
        moved = self.poses @ exp(self.commands * self.dt)
        if not (np.isfinite(moved.rotation).all()
                and np.abs(moved.translation).max() <= _WORKSPACE_LIMIT):
            raise DivergenceError("an arm left the workspace or its pose is not finite")
        self.poses = moved


def _means(rows) -> list:
    """The mean of each row of a 2-D array; None for a row of no values."""
    return [float(np.mean(row)) if row.size else None for row in rows]


def _mm_deg(v: np.ndarray):
    """Translational (mm) and rotational (deg) sizes of a stack of tangent
    errors (k, 6), as lists: each norm with _norm's bits."""
    mm = np.sqrt(_dots(v[:, :3], v[:, :3])).tolist()
    rad = np.sqrt(_dots(v[:, 3:], v[:, 3:])).tolist()
    return mm, [math.degrees(x) for x in rad]


def _metrics(scenario: Scenario, depth_error, normal_angle, settled: bool,
             runtime_s: float, final_error=None, **extra) -> dict:
    return dict(task=scenario.task, final_target_error_mm=final_error,
                mean_depth_error_mm=depth_error, mean_normal_angle_deg=normal_angle,
                settled=bool(settled), runtime_s=runtime_s, **extra)


class _Trial:
    """One scenario in the engine: its runner, its noise stream
    PCG64(seed), the step it is in and its arms.

    A runner is a generator over the trial: it sets `step` as each step
    begins and yields its arms twice per step, first to have the engine
    sense, filter and steer them, then to have it move them, and returns
    (log, metrics).  Between the yields and after the second it moves the
    rest of its step and records what it logs (_Steps), track and follow
    before their move, push after it; it logs the steps in blocks of
    `log_block` (_log_steps), each once its last step is recorded.
    """

    def __init__(self, scenario: Scenario, log_block: int):
        self.scenario = scenario
        self.log_block = log_block
        self.rng = np.random.Generator(np.random.PCG64(scenario.seed))
        self.step = 0
        self.arms = ()
        self.result = None
        runner = {"track": _run_track, "follow": _run_follow}.get(scenario.task, _run_push)
        self.run = runner(self)


def _advance(trials: list) -> list:
    """Run each trial to its next yield; returns those not finished."""
    live = []
    for trial in trials:
        try:
            trial.arms = next(trial.run)
        except StopIteration as done:
            trial.result = done.value
        else:
            live.append(trial)
    return live


def _run(trials: list, stacked: bool) -> list:
    """Step the trials together to their ends; returns their results.

    Stacked, the arms of every live trial are one batch, rebuilt only
    when its arms change; else each arm steps alone in the batch it
    starts in, with the single forms.  Raises the first error a stage or
    a runner raises.
    """
    live, batches = trials, []
    while True:
        live = _advance(live)
        if not live:
            return [trial.result for trial in trials]
        arms = [arm for trial in live for arm in trial.arms]
        if not stacked:
            batches = [arm.batch for arm in arms]
        elif not batches or batches[0].arms != arms:
            batches = [_Batch.of(arms)]
        for stage in (_Batch.sense, _Batch.update, _Batch.steer):
            for batch in batches:
                stage(batch)
        live = _advance(live)
        for batch in batches:
            batch.move()


def run_scenarios(scenarios) -> list:
    """Run closed-loop scenarios in lockstep; returns [(TrajectoryLog,
    metrics), ...], each what run_scenario returns for its scenario.

    Every step, each live trial runs to its first yield; then the engine
    senses, observes, filters and steers the arms of every live trial as
    one batch (_Batch.sense, update, steer), the trials probe and log, and
    the engine moves every arm (_Batch.move).  The batch keeps the arms'
    state as stacks from step to step.  Each trial draws from its own
    PCG64(seed) in its arms' order, so it sees the draws of its own run,
    and every stacked call gives each element the bits of its single
    call.  A finished trial leaves the batch.

    Lockstep is a faster serial run.  If any step raises, the engine
    throws the lockstep run away and runs the scenarios one after
    another, each arm alone and each step logged as it goes, and
    raises that serial run's first error as a DivergenceError naming its
    task and step.
    """
    scenarios = list(scenarios)
    try:
        return _run([_Trial(s, _LOG_BLOCK) for s in scenarios], stacked=True)
    except _STEP_ERRORS:
        pass
    results = []
    for scenario in scenarios:
        trial = _Trial(scenario, 1)
        try:
            results += _run([trial], stacked=False)
        except _STEP_ERRORS as e:
            raise DivergenceError(
                f"{scenario.task} step {trial.step}: {type(e).__name__}: {e}") from e
    return results


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


# A lockstep run's runners log their steps in blocks of this many, the
# serial rerun of a run that diverges in blocks of one.  Each block's
# probes, errors and rows are stacks, whose temporaries grow with the
# block: on a 2700-step track_periodic run the CLI's peak RSS read 42.3 MB
# logging each step as it went, 42.5 MB in blocks of 128, 42.7 MB in
# blocks of 256 and 47.0 MB in one block for the run, which was no faster.
_LOG_BLOCK = 128


class _Steps:
    """The steps a runner has recorded and not logged yet, at most a log
    block, in arrays made once: each step's time, the runner's poses (its
    arms', their surfaces' and its own), each arm's command and belief
    covariance trace (nan out of contact) and the runner's own floats."""

    def __init__(self, size: int, poses: int, arms: int, floats: int = 0):
        self.n = 0
        self.t = np.empty(size)
        self.rotations = np.empty((poses, size, 3, 3))
        self.translations = np.empty((poses, size, 3))
        self.commands = np.empty((arms, size, 6))
        self.cov_traces = np.empty((arms, size))
        self.floats = np.empty((floats, size))

    def record(self, t: float, poses, arms, floats=()) -> bool:
        """Copy one step into the arrays; True once they are full."""
        i = self.n
        self.t[i] = t
        for j, pose in enumerate(poses):
            self.rotations[j, i] = pose.rotation
            self.translations[j, i] = pose.translation
        for j, arm in enumerate(arms):
            self.commands[j, i] = arm.command
            self.cov_traces[j, i] = arm.cov_trace
        self.floats[:, i] = floats
        self.n = i + 1
        return self.n == len(self.t)

    def pose(self, j: int) -> Pose:
        """Pose j of the steps recorded, a stack."""
        return Pose(self.rotations[j, :self.n], self.translations[j, :self.n])

    def arm(self, j: int) -> tuple:
        """Arm j's commands and covariance traces over the steps recorded."""
        return self.commands[j, :self.n], self.cov_traces[j, :self.n]


def _log_steps(log_: TrajectoryLog, steps: _Steps, rows) -> None:
    """Log the steps recorded as one block and forget them, each step's
    rows in the order of `rows`: (arm, poses, twists, covariance traces,
    scalars), one pose, twist, trace and cell of each scalar column per
    step.  A nan trace (out of contact) logs an empty cell."""
    n = steps.n
    arms, poses, twists, traces, scalars = zip(*rows)

    def cells(columns):  # step by step, in row order
        return [cell for step in zip(*columns) for cell in step]

    log_.add(cells([steps.t[:n].tolist()] * len(rows)), list(arms) * n,
             Pose(np.stack([p.rotation for p in poses], 1).reshape(-1, 3, 3),
                  np.stack([p.translation for p in poses], 1).reshape(-1, 3)),
             np.stack(twists, 1).reshape(-1, 6),
             cells([[None if math.isnan(c) else c for c in trace.tolist()] for trace in traces]),
             {k: cells([s.get(k, [None] * n) for s in scalars]) for k in log_.scalar_columns})
    steps.n = 0


def _track_errors(true_fs: Pose, belief: Pose, ref_inv: Pose):
    """The tracking error log(X_sf ref^-1) and the estimate error
    log(belief X_sf^-1) of the true contact; single or stacked."""
    true_sf = true_fs.inverse()
    return log(true_sf @ ref_inv), log(belief @ true_sf.inverse())


def _log_track_steps(trial: _Trial, log_: TrajectoryLog, steps: _Steps, surface: SurfaceModel,
                     v: np.ndarray, ref_inv: Pose, steady_t: float) -> np.ndarray:
    """Log the recorded steps, one per row of the leader velocities v, as
    stacks: each step's leader row, then its follower row.  Returns
    (|depth - 6|, normal angle, track mm, deg, estimate mm, deg) of each
    step from steady_t on, (6, m).

    Every stacked call gives each step the bits of its single call.  If
    the errors' stack raises, the steps are redone one at a time with the
    single forms, so the error names its step (trial.step) in the words
    of a run that logs each step as it goes."""
    leader, follower, true_fs, belief = map(steps.pose, range(4))
    try:
        track, est = _track_errors(true_fs, belief, ref_inv)
    except DOMAIN_ERRORS:
        for i, step in enumerate(range(trial.step + 1 - steps.n, trial.step + 1)):
            trial.step = step
            _track_errors(take(true_fs, i), take(belief, i), ref_inv)
        raise
    track_mm, track_deg = _mm_deg(track)
    est_mm, est_deg = _mm_deg(est)
    _, depth, angle = _probe(surface, follower, leader)
    values = np.array([np.abs(np.subtract(depth, 6.0)), angle, track_mm, track_deg, est_mm,
                       est_deg])[:, steps.t[:steps.n] >= steady_t]
    scalars = dict(zip(log_.scalar_columns, (depth, track_mm, track_deg, est_mm, est_deg)))
    _log_steps(log_, steps, [("leader", leader, v, np.full(len(v), math.nan), {}),
                             ("follower", follower, *steps.arm(0), scalars)])
    return values


def _run_track(trial: _Trial):
    scenario = trial.scenario
    dt = scenario.dt
    leader_velocities = _LEADER_PROFILES[scenario.track_profile]
    leader = Pose.identity()
    # Reference depth is 6 mm, so the follower engages exactly at reference.
    follower = _Arm("follower", SurfaceModel("flat", leader),
                    Pose(np.eye(3), np.array([0.0, 0.0, 6.0])),
                    control.preset(controller_presets(scenario)[0]), scenario, trial.rng)
    ref_inv = follower.cfg.reference_contact_pose.inverse()

    log_ = TrajectoryLog(("depth_mm", "track_error_mm", "track_error_deg",
                          "est_error_mm", "est_error_deg"))
    steady_t = min(max(5.0, 0.5 * scenario.duration), scenario.duration)
    steady = []  # each block's steady-state values (_log_track_steps)
    block = trial.log_block
    steps = _Steps(min(block, scenario.n_steps), poses=4, arms=1)
    for start in range(0, scenario.n_steps, block):
        v = leader_velocities(np.arange(start, min(start + block, scenario.n_steps)) * dt)
        xi = np.zeros_like(v)
        xi[:, 3:] = v[:, 3:] * dt
        try:
            turns = exp(xi).rotation
        except ApproximationDomainError:
            turns = [None] * len(v)  # each step's own exp raises, at its step
        for i, turn in enumerate(turns):
            trial.step = start + i
            leader = _integrate_base_frame(leader, v[i], dt, "leader", turn)
            follower.surface.pose = leader
            yield follower,  # sensed, filtered and steered
            steps.record(trial.step * dt, (leader, follower.pose, follower.true_fs,
                                           follower.belief_mean), (follower,))
            if i == len(v) - 1:
                steady.append(_log_track_steps(trial, log_, steps, follower.surface, v,
                                               ref_inv, steady_t))
            yield follower,  # moved

    depth_err, angle, track_mm, track_deg, est_mm, est_deg = _means(
        np.concatenate(steady, axis=1))
    return log_, _metrics(
        scenario, depth_err, angle, track_mm is not None and track_mm < 5.0,
        scenario.n_steps * dt, track_error_mm=track_mm, track_error_deg=track_deg,
        est_error_mm=est_mm, est_error_deg=est_deg)


def _log_follow_steps(log_: TrajectoryLog, steps: _Steps, surface: SurfaceModel) -> np.ndarray:
    """Log the recorded steps as stacks, one sensor row each; returns
    (|depth - 3|, normal angle) of the steps past their pass's transient."""
    sensor = steps.pose(0)
    run, settled = steps.floats[:, :steps.n]
    _, depth, angle = _probe(surface, sensor, steps.pose(1))
    values = np.array([np.abs(np.subtract(depth, 3.0)), angle])[:, settled > 0.0]
    _log_steps(log_, steps, [("sensor", sensor, *steps.arm(0), {
        "run": run.tolist(), "depth_mm": depth, "normal_angle_deg": angle})])
    return values


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
    pass_steps = np.array_split(np.arange(scenario.n_steps), len(passes))
    base = control.preset(controller_presets(scenario)[0])

    log_ = TrajectoryLog(("run", "depth_mm", "normal_angle_deg"))
    settled = []  # each block's (|depth - 3|, normal angle) after its pass's transient
    transient = 2.0
    steps = _Steps(min(trial.log_block, scenario.n_steps), poses=2, arms=1, floats=2)

    t = 0.0
    for run_idx, ff in enumerate(passes):
        cfg = dataclasses.replace(base, feedforward_twist=ff)
        # Every pass's surface has the same kind, radius and pose.
        sensor = _Arm("sensor", SurfaceModel(scenario.surface, radius=radius),
                      Pose(np.eye(3), np.array([0.0, 0.0, 3.0])), cfg, scenario, trial.rng)
        for k, step in enumerate(pass_steps[run_idx]):
            trial.step = step
            yield sensor,  # sensed, filtered and steered
            if (steps.record(t, (sensor.pose, sensor.surface.pose), (sensor,),
                             (run_idx, k * dt >= transient)) or step == scenario.n_steps - 1):
                settled.append(_log_follow_steps(log_, steps, sensor.surface))
            yield sensor,  # moved
            t += dt

    depth_err, angle = _means(np.concatenate(settled, axis=1))
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
        # The tip's projection onto the advanced face.
        x, y, _ = face.inverse().apply(tip_w).tolist()
        q_w = face.apply(np.array([x, y, 0.0]))
        # Rotate the face by -dphi about the up axis through the centre of
        # friction.
        cof_w = q_w + _OBJECT_R0 * z_f_w
        rot = exp(np.concatenate([np.zeros(3), x_f_w * -dphi])).rotation
        face = Pose(rot, cof_w - rot @ cof_w) @ face
    return face, face.inverse().apply(tip_w)


def _log_push_steps(log_: TrajectoryLog, steps: _Steps, surface: SurfaceModel,
                    target_w: np.ndarray, tall: bool) -> np.ndarray:
    """Log the recorded steps as stacks, each step's leader row and then its
    follower's, if any; returns each step's (1 if the leader is in contact,
    its |depth - yield depth|, normal angle, t, the follower's |depth - 3|)."""
    n = steps.n
    face, leader = steps.pose(0), steps.pose(1)
    tip_distance, margin, fdepth = steps.floats[:, :n]
    contact = ~np.isnan(steps.cov_traces[0, :n])
    q_w, depth, angle = _probe(surface, leader, face)
    # Bearing of the target seen from the contact point, in face axes, and
    # the distances from the contact point (the controller's) and from the
    # tip centre (termination's).
    d = target_w - q_w
    bearing = map(math.atan2, _dots(d, face.rotation[:, :, 1]).tolist(),
                  _dots(d, face.rotation[:, :, 2]).tolist())
    distance = [math.hypot(target_w[1] - y, target_w[2] - z)
                for y, z in leader.translation[:, 1:].tolist()]
    margins = margin.tolist() if tall else [None] * n
    rows = [("leader", leader, *steps.arm(0), {
        "bearing_rad": [b if c else None for b, c in zip(bearing, contact.tolist())],
        "target_distance_mm": distance, "tip_distance_mm": tip_distance.tolist(),
        "depth_mm": [x if c else None for x, c in zip(depth, contact.tolist())],
        "stability_margin": margins})]
    if len(steps.commands) > 1:
        rows.append(("follower", steps.pose(2), *steps.arm(1),
                     {"follower_depth_mm": fdepth.tolist(), "stability_margin": margins}))
    values = np.array([contact, np.abs(np.subtract(depth, _YIELD_DEPTH)), angle, steps.t[:n],
                       np.abs(fdepth - 3.0)])
    _log_steps(log_, steps, rows)
    return values


def _run_push(trial: _Trial):
    scenario = trial.scenario
    dt = scenario.dt
    dual = scenario.task == "push_dual"
    tall = scenario.tall

    # World: x up, pushing happens in the (y, z) plane.  The pushed face's
    # inward normal starts along +y (the initial push direction).
    # Its columns: x up, y, z the inward normal.
    face = Pose(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
                np.array([0.0, *_PUSH_START]))
    target_w = np.array([0.0, *_PUSH_TARGET])

    presets = controller_presets(scenario)
    push_cfg = control.PushConfig(servo=control.preset(presets[0]),
                                  bearing_pid=control.preset(presets[1]),
                                  target_pose_in_work=Pose(np.eye(3), target_w))
    # Dual-arm: the leader starts engaged at the yield depth so the object
    # moves from the first step.  Single-arm protocol: approach from 45 mm
    # off the face; out of contact the leader presses toward the face with
    # its feedforward (_Batch.steer).
    start_depth = _YIELD_DEPTH if dual else -45.0
    leader = _Arm("leader", SurfaceModel("flat", face),
                  Pose(face.rotation, face.apply(np.array([0.0, 0.0, start_depth]))),
                  push_cfg, scenario, trial.rng)

    face2_offset = Pose(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, _OBJECT_WIDTH]))
    if dual:
        # The follower starts at its 3 mm reference on the opposite face;
        # losing it ends the run.
        face2 = face @ face2_offset
        follower = _Arm("follower", SurfaceModel("flat", face2),
                        Pose(face2.rotation, face2.apply(np.array([0.0, 0.0, 3.0]))),
                        control.preset(presets[2]), scenario, trial.rng)

    prev_tip_face = None
    margin = 1.0  # the tall object topples when it reaches 0
    fdepth = math.nan  # the follower's depth before its move

    log_ = TrajectoryLog(("bearing_rad", "target_distance_mm", "tip_distance_mm",
                          "depth_mm", "follower_depth_mm", "stability_margin"))
    blocks = []  # each block's values (_log_push_steps)
    # The follower's engagement transient (the object's 10 mm/s recession
    # step) peaks near 2.8 mm and decays with the depth loop's slow pole;
    # depth maintenance is assessed after it has died out.
    follower_window = 8.0

    arms = (leader, follower) if dual else (leader,)
    steps = _Steps(min(trial.log_block, scenario.n_steps), poses=1 + len(arms), arms=len(arms),
                   floats=3)
    for k in range(scenario.n_steps):
        trial.step = k
        yield arms  # sensed, filtered and steered
        if dual:
            fdepth = follower.surface.probe(follower.pose.translation)[2]
            if tall and abs(fdepth - 3.0) > _STABILITY_TOLERANCE:
                margin -= _STABILITY_DECAY * dt
            elif tall:
                margin = min(1.0, margin + _STABILITY_RECOVER * dt)

        yield arms  # moved
        face, prev_tip_face = _push_plant(face, prev_tip_face, leader.pose.translation)
        leader.surface.pose = face
        if dual:
            follower.surface.pose = face @ face2_offset

        # The tip centre's distance from the target decides termination.
        sensor = leader.pose
        tip_distance = _norm(target_w - (sensor.translation - _TIP_RADIUS * sensor.rotation[:, 2]))
        done = margin <= 0.0 or tip_distance < _TERMINATION_RADIUS
        if (steps.record(k * dt, (face, *(arm.pose for arm in arms)), arms,
                         (tip_distance, margin, fdepth)) or done or k == scenario.n_steps - 1):
            blocks.append(_log_push_steps(log_, steps, leader.surface, target_w, tall))
        if done:
            break

    toppled = margin <= 0.0
    terminated = not toppled and tip_distance < _TERMINATION_RADIUS

    # Final target error: perpendicular distance from the target to the
    # line through the final contact point along the face normal.
    q_w, n_w, _ = leader.surface.probe(leader.pose.translation)
    to_target = target_w - q_w
    perp = to_target - np.dot(to_target, n_w) * n_w

    values = np.concatenate(blocks, axis=1)
    depth_err, angle = _means(values[1:3, values[0] > 0.0])
    metrics = _metrics(scenario, depth_err, angle, terminated, (k + 1) * dt,
                       final_error=_norm(perp), tall=tall, terminated=terminated)
    if dual:
        errors = values[4, values[3] >= follower_window]
        metrics["follower_depth_worst_mm"] = float(errors.max()) if errors.size else None
        metrics["follower_depth_mean_mm"], = _means(errors[None])
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
