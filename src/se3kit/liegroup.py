"""Rigid transforms in SE(3) and their tangent-space operators.

Twists are 6-vectors ordered translation-first: xi = (rho, phi), rho in mm
(or mm/s), phi in rad (or rad/s).  A Pose holds a rotation and a
translation.  exp and log are evaluated in closed form; the left Jacobian
is its defining series summed to a fixed length, and its inverse is the
second-order truncation that fuse linearizes with.

Stacks: exp, log, hat3, vee3, ad, adjoint, inv_left_jacobian, matvec and
Pose composition and inverse also take leading batch dimensions -- twists
(..., 6), rotations (..., 3, 3), translations (..., 3) -- and broadcast a
single pose against a stack; euler_to_pose takes arrays of coordinates.
exp and log have one body for both: the shape decides only whether the
angle and trig coefficients come through `math` or through the same
scalar helpers over each element of a stack.
matvec, hat3, vee3 and ad keep a single-input form (see the note at matvec).

Units are mm and rad throughout the package.
"""

from __future__ import annotations

import math
import struct
from itertools import chain

import numpy as np

from .errors import (
    ApproximationDomainError,
    GimbalLockError,
    PrincipalBranchError,
    StructureError,
)

# Below this rotation angle the trig coefficient ratios (sin x / x etc.) are
# replaced by their Taylor forms; the closed forms lose precision well before
# they hit an actual 0/0.
_TINY_ANGLE = 1e-8

# log() rejects rotations within this margin of pi, where the axis can no
# longer be recovered from R - R^T and the principal branch degenerates.
_BRANCH_MARGIN = 1e-6

# vee() rejects matrices whose skew / zero-row structure deviates more than
# this (a symmetric component would be silently discarded otherwise).
_HAT_STRUCTURE_TOL = 1e-9

# pose_to_euler() rejects pitches within this margin of +/-pi/2.
_GIMBAL_MARGIN = 1e-6

# bch_compose() refuses flagged arguments with norm above this; the
# first-order truncation error grows quadratically in the flagged norm.
_BCH_MAX_SMALL_NORM = 0.5

# A single twist whose rotation components are all finite and below this
# in magnitude has a dot product phi . phi below 3e300, which cannot
# overflow, so exp takes its angle without entering np.errstate.
_DOT_SAFE = 1e150

# Identities that exp, log and inv_left_jacobian add to, shared and read-only:
# every sum with them is a new array, and np.eye per call costs more than
# the arithmetic on a single 3x3.
_I3 = np.eye(3)
_I3.flags.writeable = False
_I6 = np.eye(6)
_I6.flags.writeable = False


class Pose:
    """Element of SE(3): 3x3 rotation plus translation in mm, or a stack of
    them (rotation (..., 3, 3), translation (..., 3)).

    Composition is ``a @ b``; ``inverse()`` satisfies
    ``p @ p.inverse() == identity`` to machine precision.  Both take stacks
    and broadcast a single pose against a stack; ``matrix``, ``apply`` and
    ``renormalized`` take a single pose.  ``renormalized()`` projects a
    rotation that has left SO(3) back onto it.

    The simulator does not renormalize: exp returns a rotation orthonormal
    to round-off, and so does a product of such rotations, whose error
    only adds up.  Composing 2e5 random body-twist steps as the simulator
    integrates a command leaves max |R^T R - I| at 5.8e-14; a run is capped
    at 1e6 steps, and tests/test_sim.py pins 1e-12 over 1e5 steps.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        rotation = np.asarray(rotation, dtype=float)
        translation = np.asarray(translation, dtype=float)
        if rotation.shape[-2:] != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
        if translation.shape != rotation.shape[:-2] + (3,):
            raise ValueError(f"translation must be a 3-vector per rotation, got "
                             f"{translation.shape} for rotations {rotation.shape}")
        self.rotation = rotation
        self.translation = translation

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def stack(cls, poses) -> "Pose":
        """One stacked Pose from a sequence of single poses."""
        poses = list(poses)
        # np.array copies a short list of arrays for a fraction of np.stack's
        # fixed cost per call; the closed loop stacks every step.
        return cls(np.array([p.rotation for p in poses]),
                   np.array([p.translation for p in poses]))

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def __matmul__(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            matvec(self.rotation, other.translation) + self.translation,
        )

    def inverse(self) -> "Pose":
        rt = self.rotation.swapaxes(-1, -2)
        return Pose(rt, -matvec(rt, self.translation))

    def apply(self, point) -> np.ndarray:
        """Map a point (or stack of points) from this frame to the parent."""
        point = np.asarray(point, dtype=float)
        return point @ self.rotation.T + self.translation

    def renormalized(self) -> "Pose":
        # Nearest rotation in the Frobenius sense, via the polar factor.
        u, _, vt = np.linalg.svd(self.rotation)
        r = u @ vt
        if np.linalg.det(r) < 0:
            u[:, -1] = -u[:, -1]
            r = u @ vt
        return Pose(r, self.translation)

    def __repr__(self):
        t = np.array2string(self.translation, precision=4, suppress_small=True)
        return f"Pose(t={t}, ...)"


# matvec, hat3, vee3 and ad keep a single-input form because a single pose
# is what the closed loop runs, about 120 small kernel calls per track step,
# and numpy's fixed cost per call outweighs the arithmetic there.  The
# single forms of hat3 and ad read their input once with tolist() and build
# the matrix with one np.array call; they only copy and negate, so they
# agree with the stacked forms bit for bit (README, "Stacks").


def matvec(m, v) -> np.ndarray:
    """Matrix-vector product m v with leading stack dimensions broadcast:
    m (..., n, n), v (..., n).  A single vector keeps the plain product."""
    if v.ndim == 1:
        return m @ v
    return (m @ v[..., None])[..., 0]


# The stacked hat3 and ad are one gather each (take along the last axis):
# these index matrices pick every entry from [0, v, -v] (see _signed).
# take returns a new C-contiguous array.  A fancy-indexed w[..., idx] need
# not be contiguous, and numpy's matmul rounds a stack that is not
# contiguous differently from a single matrix.
_HAT3_INDEX = np.array([[0, 6, 2],
                        [3, 0, 4],
                        [5, 1, 0]])
_AD_INDEX = np.array([[0, 12, 5, 0, 9, 2],
                      [6, 0, 10, 3, 0, 7],
                      [11, 4, 0, 8, 1, 0],
                      [0, 0, 0, 0, 12, 5],
                      [0, 0, 0, 6, 0, 10],
                      [0, 0, 0, 11, 4, 0]])


def _signed(v: np.ndarray) -> np.ndarray:
    """[0, v, -v] along the last axis of a stack."""
    n = v.shape[-1]
    w = np.zeros(v.shape[:-1] + (2 * n + 1,))
    w[..., 1:n + 1] = v
    w[..., n + 1:] = -v
    return w


def hat3(v) -> np.ndarray:
    """3-vector to skew-symmetric matrix; (..., 3) to (..., 3, 3).

    A stack is one gather from [0, v, -v]; a single vector is read once
    and built with one np.array call.  Both only copy and negate, so they
    agree bit for bit, signed zeros included."""
    v = np.asarray(v, dtype=float)
    if v.ndim > 1:
        return _signed(v).take(_HAT3_INDEX, axis=-1)
    x, y, z = v.tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee3(m) -> np.ndarray:
    """Inverse of hat3; assumes m is skew.  (..., 3, 3) to (..., 3)."""
    m = np.asarray(m, dtype=float)
    if m.ndim > 2:
        return m[..., (2, 0, 1), (1, 2, 0)]
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _twist(xi) -> np.ndarray:
    """Entry check for twist arguments that must be single: a float 6-vector."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (6,):
        raise ValueError(f"twist must have shape (6,), got {xi.shape}")
    return xi


def _twists(xi) -> np.ndarray:
    """Entry check for twist arguments that may be stacked: (6,) or (..., 6)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (6,):
        raise ValueError(f"twist must have shape (6,) or (..., 6), got {xi.shape}")
    return xi


def _element(i: int, shape) -> str:
    """Index of the i-th element (C order) of a stack of the given shape."""
    return str([int(j) for j in np.unravel_index(i, shape)])


def hat(xi) -> np.ndarray:
    """6-vector twist to 4x4 algebra matrix: skew(phi) block plus rho column."""
    xi = _twist(xi)
    m = np.zeros((4, 4))
    m[:3, :3] = hat3(xi[3:])
    m[:3, 3] = xi[:3]
    return m


def vee(m) -> np.ndarray:
    """4x4 algebra matrix back to a twist.

    Raises StructureError when the top-left block is not skew or the bottom
    row is not zero (tolerance 1e-9): a symmetric component has no preimage
    and discarding it silently would corrupt downstream covariances.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise StructureError(f"expected 4x4 matrix, got {m.shape}")
    sym = m[:3, :3] + m[:3, :3].T
    if np.max(np.abs(sym)) > _HAT_STRUCTURE_TOL or np.max(np.abs(m[3, :])) > _HAT_STRUCTURE_TOL:
        raise StructureError("matrix does not have hat structure (skew block, zero bottom row)")
    return np.concatenate([m[:3, 3], vee3(m[:3, :3])])


def _so3_coefficients(angle: float):
    """(sin x/x, (1-cos x)/x^2, (x-sin x)/x^3) with Taylor guards."""
    if angle < _TINY_ANGLE:
        a2 = angle * angle
        return 1.0 - a2 / 6.0, 0.5 - a2 / 24.0, 1.0 / 6.0 - a2 / 120.0
    a2 = angle * angle
    half_sinc = math.sin(0.5 * angle) / (0.5 * angle)
    return (
        math.sin(angle) / angle,
        # 2 sin^2(x/2) / x^2; the algebraically equal (1 - cos x)/x^2 loses
        # every significant digit just above the series guard
        0.5 * half_sinc * half_sinc,
        (angle - math.sin(angle)) / (a2 * angle),
    )


def _exp_angle(angle: float) -> float:
    if not math.isfinite(angle):
        raise ApproximationDomainError(f"rotation angle {angle} is not finite")
    return angle


def _each(values, shape, fn):
    """Yield fn of each value, the elements of a stack of the given shape in
    C order; an error names the element it came from."""
    for i, value in enumerate(values):
        try:
            yield fn(value)
        except (ApproximationDomainError, PrincipalBranchError) as err:
            raise type(err)(f"stack element {_element(i, shape)}: {err}") from None


def exp(xi) -> Pose:
    """Exponential map se(3) -> SE(3), closed form; (..., 6) gives a stack.

    Rotation by the Rodrigues formula; translation through the SO(3) left
    Jacobian V so that exp is exact for any angle (no series truncation).
    Raises ApproximationDomainError when a rotation angle is not finite.
    """
    xi = _twists(xi)
    phi = xi[..., 3:]
    if xi.ndim == 1:
        # sqrt of the dot product, which np.linalg.norm would return bit for
        # bit; an overflowing or NaN angle is rejected by _exp_angle
        p0, p1, p2 = phi.tolist()
        if abs(p0) < _DOT_SAFE and abs(p1) < _DOT_SAFE and abs(p2) < _DOT_SAFE:
            angle = math.sqrt(phi.dot(phi))
        else:
            with np.errstate(over="ignore"):
                angle = _exp_angle(math.sqrt(phi.dot(phi)))
        a, b, c = _so3_coefficients(angle)
    else:
        # sqrt of a BLAS dot product, as a single twist takes it; an
        # overflowing angle is rejected by _exp_angle
        with np.errstate(over="ignore"):
            angles = np.sqrt((phi[..., None, :] @ phi[..., :, None])[..., 0, 0])
        # zip transposes the per-element (a, b, c) so that they come out as
        # one contiguous (3, ...) array
        a, b, c = np.array([*zip(*_each(
            angles.ravel().tolist(), angles.shape,
            lambda angle: _so3_coefficients(_exp_angle(angle))))]).reshape(
                (3,) + angles.shape + (1, 1))
    k = hat3(phi)
    k2 = k @ k
    rot = _I3 + a * k + b * k2
    v = _I3 + b * k + c * k2
    return Pose(rot, matvec(v, xi[..., :3]))


def _log_angle(cos_angle: float) -> float:
    """Rotation angle from its cosine, checked against the principal branch."""
    angle = math.acos(min(1.0, max(-1.0, cos_angle)))
    if angle >= math.pi - _BRANCH_MARGIN:
        raise PrincipalBranchError(
            f"rotation angle {angle:.9f} rad is within 1e-6 of pi; log is not single-valued there"
        )
    return angle


def _log_coefficients(angle: float):
    """(phi / vee(R - R^T), V^-1 coefficient of phi^2) with Taylor guards."""
    if angle < _TINY_ANGLE:
        # next correction is O(angle^2) relative, below eps here
        return 0.5, 1.0 / 12.0 + angle * angle / 720.0
    a, b, _ = _so3_coefficients(angle)
    return 0.5 * angle / math.sin(angle), (1.0 - 0.5 * a / b) / (angle * angle)


def _log_floats(r) -> tuple:
    """phi and the V^-1 coefficient of one rotation, from its nine entries
    in C order, with the floating-point operations of log's single branch."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    scale, coeff = _log_coefficients(_log_angle(0.5 * (r00 + r11 + r22 - 1.0)))
    return scale * (r21 - r12), scale * (r02 - r20), scale * (r10 - r01), coeff


def log(p: Pose) -> np.ndarray:
    """Logarithmic map SE(3) -> se(3), principal branch (|phi| <= pi); a
    stacked pose gives (..., 6).

    A single rotation is read once (tolist) and a stack once per element
    (struct), and the trace, R - R^T, phi and the V^-1 coefficient are
    formed from Python floats, the trace summed in numpy's order,
    (r00 + r11) + r22.  Only the hat3 / k @ k / V^-1 tail runs in numpy,
    once over a stack, so a stack matches its elements' single results bit
    for bit.

    Raises PrincipalBranchError when a rotation angle is within 1e-6 of
    pi: the preimage is not unique there and a silently chosen branch would
    corrupt any covariance propagated through the result; in a stack it
    names the element.
    """
    rot = p.rotation
    if rot.ndim == 2:
        # one read; the trace sums in numpy's order, (r00 + r11) + r22
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
        scale, coeff = _log_coefficients(_log_angle(0.5 * (r00 + r11 + r22 - 1.0)))
        skew = np.array([r21 - r12, r02 - r20, r10 - r01])
        phi = scale * skew  # vee3(R - R^T) = 2 sin(angle) axis
    else:
        # one 9-tuple at a time and straight into an array, so no Python
        # object per entry of a long stack is alive at once
        batch = rot.shape[:-2]
        floats = np.fromiter(chain.from_iterable(_each(
            struct.iter_unpack("9d", np.ascontiguousarray(rot)), batch, _log_floats)),
            float).reshape(batch + (4,))
        phi, coeff = floats[..., :3], floats[..., 3:, None]
    k = hat3(phi)
    k2 = k @ k
    v_inv = _I3 - 0.5 * k + coeff * k2
    return np.concatenate([matvec(v_inv, p.translation), phi], axis=-1)


def adjoint(p: Pose) -> np.ndarray:
    """Group adjoint Ad(p): block [[C, t^ C], [0, C]], maps local twists to
    the frame p is expressed in.  A stacked pose gives (..., 6, 6).

    Single or stacked, the blocks are assigned into one new zero array, so
    the result is C-contiguous; t^ C is one matmul over the stack (for a
    stack of 4, this measured faster than one gather from [0, C, t^ C])."""
    c = p.rotation
    out = np.zeros(c.shape[:-2] + (6, 6))
    out[..., :3, :3] = c
    out[..., :3, 3:] = hat3(p.translation) @ c
    out[..., 3:, 3:] = c
    return out


def ad(xi) -> np.ndarray:
    """Algebra adjoint (curly hat): block [[phi^, rho^], [0, phi^]]; a stack
    of twists gives (..., 6, 6).

    A stack is one gather from [0, xi, -xi]; a single twist is read once and
    built with one np.array call.  Both only copy and negate, so they agree
    bit for bit, signed zeros included."""
    xi = _twists(xi)
    if xi.ndim == 1:
        r0, r1, r2, p0, p1, p2 = xi.tolist()
        return np.array([[0.0, -p2, p1, 0.0, -r2, r1],
                         [p2, 0.0, -p0, r2, 0.0, -r0],
                         [-p1, p0, 0.0, -r1, r0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, -p2, p1],
                         [0.0, 0.0, 0.0, p2, 0.0, -p0],
                         [0.0, 0.0, 0.0, -p1, p0, 0.0]])
    return _signed(xi).take(_AD_INDEX, axis=-1)


def left_jacobian(xi) -> np.ndarray:
    """Left Jacobian J = sum_n (xi^curly)^n / (n+1)!, its defining series
    summed over n = 0..29.  For rotation angles below pi the first omitted
    term is below 1e-17 of the sum, so J is exact to round-off at every
    angle log returns."""
    x = ad(xi)
    term = np.eye(6)
    total = np.eye(6)
    for n in range(1, 30):
        term = term @ x / (n + 1)
        total = total + term
    return total


def inv_left_jacobian(xi) -> np.ndarray:
    """Second-order Bernoulli truncation I - 1/2 xi^curly + 1/12 (xi^curly)^2;
    a stack of twists gives (..., 6, 6).

    fuse linearizes with this truncation, not the exact inverse of
    left_jacobian: on the fusion criterion's 100 oracle pairs the exact
    inverse gives a mean discrepancy of 3.991e-4 against 3.990e-4 here,
    both converge on all 100, and the fixed point moves by at most 1.3e-7.
    """
    x = ad(xi)
    return _I6 - 0.5 * x + (x @ x) / 12.0


def bch_compose(xi1, xi2, small: str = "first") -> np.ndarray:
    """First-order BCH combination of log(exp(xi1) exp(xi2)).

    `small` flags which argument is the perturbation: "first" returns
    J(xi2)^-1 xi1 + xi2, "second" returns xi1 + J(-xi1)^-1 xi2.  The flagged
    argument must have norm <= 0.5; beyond that the dropped O(|small|^2)
    terms are no longer negligible and the call raises.
    """
    xi1 = _twist(xi1)
    xi2 = _twist(xi2)
    if small not in ("first", "second"):
        raise ValueError('small must be "first" or "second"')
    flagged = xi1 if small == "first" else xi2
    norm = float(np.linalg.norm(flagged))
    if norm > _BCH_MAX_SMALL_NORM:
        raise ApproximationDomainError(
            f"flagged argument norm {norm:.4g} exceeds {_BCH_MAX_SMALL_NORM}; "
            "first-order BCH is only valid for a small flagged argument"
        )
    if small == "first":
        return np.linalg.solve(left_jacobian(xi2), xi1) + xi2
    return xi1 + np.linalg.solve(left_jacobian(-xi1), xi2)


# The nine entries, in C order, of the elementary rotations about x, y
# and z by an angle with cosine c and sine s.
def _rx_entries(c: float, s: float) -> tuple:
    return 1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c


def _ry_entries(c: float, s: float) -> tuple:
    return c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c


def _rz_entries(c: float, s: float) -> tuple:
    return c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0


def euler_to_pose(x, y, z, alpha, beta, gamma) -> Pose:
    """Extrinsic-xyz Euler pose: R = Rz(gamma) Ry(beta) Rx(alpha),
    translation (x, y, z) mm.  Arrays of equal shape give a stack, equal
    bit for bit to the single pose of each element.

    Each cosine and sine comes from math (np.cos may round differently),
    each angle read as a float from its row's memoryview, so no list of
    a whole stack is built; the entries go straight into one array whose
    three blocks Rz, Ry, Rx are each C-contiguous, as is the translation."""
    coords = np.array([x, y, z, gamma, beta, alpha], dtype=float)
    batch = coords.shape[1:]
    rows = coords.reshape(6, -1)
    entries = (rot(math.cos(a), math.sin(a))
               for rot, row in zip((_rz_entries, _ry_entries, _rx_entries), rows[3:])
               for a in row.data)
    rz, ry, rx = np.fromiter(chain.from_iterable(entries), float,
                             27 * rows.shape[1]).reshape((3,) + batch + (3, 3))
    return Pose(rz @ ry @ rx, np.ascontiguousarray(rows[:3].T).reshape(batch + (3,)))


def pose_to_euler(p: Pose):
    """Pose back to (x, y, z, alpha, beta, gamma), extrinsic-xyz.

    Raises GimbalLockError when the pitch is within 1e-6 of +/-pi/2, where
    alpha and gamma are no longer separable.
    """
    rot = p.rotation
    beta = math.atan2(-rot[2, 0], math.hypot(rot[2, 1], rot[2, 2]))
    if abs(abs(beta) - 0.5 * math.pi) < _GIMBAL_MARGIN:
        raise GimbalLockError(
            f"pitch {beta:.9f} rad is within 1e-6 of +/-pi/2; euler decomposition is ambiguous"
        )
    alpha = math.atan2(rot[2, 1], rot[2, 2])
    gamma = math.atan2(rot[1, 0], rot[0, 0])
    x, y, z = p.translation
    return float(x), float(y), float(z), alpha, beta, gamma
