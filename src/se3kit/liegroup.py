"""Rigid transforms in SE(3) and their tangent-space operators.

Twists are 6-vectors ordered translation-first: xi = (rho, phi), rho in mm
(or mm/s), phi in rad (or rad/s).  A Pose holds a rotation and a
translation.  exp and log are evaluated in closed form; the left Jacobian
is its defining series summed to a fixed length, and its inverse is the
second-order truncation that fuse linearizes with.

Stacks: exp, log, hat3, vee3, ad, adjoint, inv_left_jacobian, matvec and
Pose composition and inverse also take leading batch dimensions -- twists
(..., 6), rotations (..., 3, 3), translations (..., 3) -- and broadcast a
single pose against a stack.  A single pose keeps a scalar evaluation (the
trig coefficients through `math`, then plain 3x3 products), because
numpy's per-call overhead makes the stacked form slower at N = 1.  The
stacked form takes each element's angle and trig coefficients from the
same scalar helpers and batches only the matrix products.

Units are mm and rad throughout the package.
"""

from __future__ import annotations

import math

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


class Pose:
    """Element of SE(3): 3x3 rotation plus translation in mm, or a stack of
    them (rotation (..., 3, 3), translation (..., 3)).

    Composition is ``a @ b``; ``inverse()`` satisfies
    ``p @ p.inverse() == identity`` to machine precision.  Both take stacks
    and broadcast a single pose against a stack; ``matrix``, ``apply`` and
    ``renormalized`` take a single pose.  Long composition chains can be
    cleaned up with ``renormalized()``, which projects the rotation back
    onto SO(3).
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
        return cls(np.stack([p.rotation for p in poses]),
                   np.stack([p.translation for p in poses]))

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


def matvec(m, v) -> np.ndarray:
    """Matrix-vector product m v with leading stack dimensions broadcast:
    m (..., n, n), v (..., n).  A single vector keeps the plain product."""
    if v.ndim == 1:
        return m @ v
    return (m @ v[..., None])[..., 0]


# hat3 of a stack: (row, column) of the six off-diagonal entries, and the
# sign and component of v each one takes.
_HAT3_ROWS = np.array([0, 0, 1, 1, 2, 2])
_HAT3_COLS = np.array([1, 2, 0, 2, 0, 1])
_HAT3_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_HAT3_COMPONENTS = np.array([2, 1, 2, 0, 1, 0])


def hat3(v) -> np.ndarray:
    """3-vector to skew-symmetric matrix; (..., 3) to (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    if v.ndim > 1:
        m = np.zeros(v.shape + (3,))
        m[..., _HAT3_ROWS, _HAT3_COLS] = _HAT3_SIGNS * v[..., _HAT3_COMPONENTS]
        return m
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


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


def _each(values: np.ndarray, fn) -> list:
    """fn over every element of a stack of scalars, C order; an error names
    the element it came from."""
    out = []
    for i, value in enumerate(values.ravel().tolist()):
        try:
            out.append(fn(value))
        except (ApproximationDomainError, PrincipalBranchError) as err:
            raise type(err)(f"stack element {_element(i, values.shape)}: {err}") from None
    return out


def exp(xi) -> Pose:
    """Exponential map se(3) -> SE(3), closed form; (..., 6) gives a stack.

    Rotation by the Rodrigues formula; translation through the SO(3) left
    Jacobian V so that exp is exact for any angle (no series truncation).
    Raises ApproximationDomainError when a rotation angle is not finite.
    """
    xi = _twists(xi)
    if xi.ndim > 1:
        return _exp_stack(xi)
    phi = xi[3:]
    # sqrt of the dot product, which np.linalg.norm would return bit for bit;
    # an overflowing angle is rejected by _exp_angle
    with np.errstate(over="ignore"):
        angle = _exp_angle(math.sqrt(phi.dot(phi)))
    a, b, c = _so3_coefficients(angle)
    k = hat3(phi)
    k2 = k @ k
    rot = np.eye(3) + a * k + b * k2
    v = np.eye(3) + b * k + c * k2
    return Pose(rot, v @ xi[:3])


def _exp_stack(xi: np.ndarray) -> Pose:
    phi = xi[..., 3:]
    # sqrt of a BLAS dot product, as the single-twist path takes it
    angles = np.sqrt((phi[..., None, :] @ phi[..., :, None])[..., 0, 0])
    coefficients = np.reshape(
        _each(angles, lambda angle: _so3_coefficients(_exp_angle(angle))),
        angles.shape + (3, 1, 1))
    a, b, c = (coefficients[..., j, :, :] for j in range(3))
    k = hat3(phi)
    k2 = k @ k
    rot = np.eye(3) + a * k + b * k2
    v = np.eye(3) + b * k + c * k2
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


def log(p: Pose) -> np.ndarray:
    """Logarithmic map SE(3) -> se(3), principal branch (|phi| <= pi); a
    stacked pose gives (..., 6).

    Raises PrincipalBranchError when a rotation angle is within 1e-6 of
    pi: the preimage is not unique there and a silently chosen branch would
    corrupt any covariance propagated through the result.
    """
    rot = p.rotation
    if rot.ndim > 2:
        return _log_stack(p)
    angle = _log_angle(0.5 * (np.trace(rot) - 1.0))
    scale, coeff = _log_coefficients(angle)
    phi = scale * vee3(rot - rot.T)  # vee3(R - R^T) = 2 sin(angle) * axis
    k = hat3(phi)
    k2 = k @ k
    v_inv = np.eye(3) - 0.5 * k + coeff * k2
    return np.concatenate([v_inv @ p.translation, phi])


def _log_stack(p: Pose) -> np.ndarray:
    rot = p.rotation
    cos_angles = 0.5 * (np.trace(rot, axis1=-2, axis2=-1) - 1.0)
    coefficients = np.reshape(
        _each(cos_angles, lambda c: _log_coefficients(_log_angle(c))),
        cos_angles.shape + (2, 1, 1))
    scale, coeff = coefficients[..., 0, :, 0], coefficients[..., 1, :, :]
    phi = scale * vee3(rot - rot.swapaxes(-1, -2))
    k = hat3(phi)
    k2 = k @ k
    v_inv = np.eye(3) - 0.5 * k + coeff * k2
    return np.concatenate([matvec(v_inv, p.translation), phi], axis=-1)


def adjoint(p: Pose) -> np.ndarray:
    """Group adjoint Ad(p): block [[C, t^ C], [0, C]], maps local twists to
    the frame p is expressed in.  A stacked pose gives (..., 6, 6)."""
    c = p.rotation
    out = np.zeros(c.shape[:-2] + (6, 6))
    out[..., :3, :3] = c
    out[..., :3, 3:] = hat3(p.translation) @ c
    out[..., 3:, 3:] = c
    return out


def ad(xi) -> np.ndarray:
    """Algebra adjoint (curly hat): block [[phi^, rho^], [0, phi^]]; a stack
    of twists gives (..., 6, 6)."""
    xi = _twists(xi)
    pk = hat3(xi[..., 3:])
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = pk
    out[..., :3, 3:] = hat3(xi[..., :3])
    out[..., 3:, 3:] = pk
    return out


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
    return np.eye(6) - 0.5 * x + (x @ x) / 12.0


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


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_to_pose(x, y, z, alpha, beta, gamma) -> Pose:
    """Extrinsic-xyz Euler pose: R = Rz(gamma) Ry(beta) Rx(alpha),
    translation (x, y, z) mm."""
    rot = _rot_z(gamma) @ _rot_y(beta) @ _rot_x(alpha)
    return Pose(rot, np.array([x, y, z], dtype=float))


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
