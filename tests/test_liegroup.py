"""SE(3)/SO(3) primitives against series, scipy, and quadrature oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, logm
from scipy.spatial.transform import Rotation

from se3kit.errors import (ApproximationDomainError, GimbalLockError,
                           PrincipalBranchError, StructureError)
from se3kit import liegroup
from se3kit.control import PidState
from se3kit.filtering import FilterState
from se3kit.liegroup import (Pose, ad, adjoint, bch_compose,
                             euler_to_pose, exp, hat, hat3, inv_left_jacobian,
                             left_jacobian, log, pose_to_euler, stack, take,
                             vee, vee3)
from se3kit.uncertainty import PoseGaussian

from conftest import random_pose, random_twist
from oracles import quadrature_left_jacobian

ROUNDTRIP_TOL = 1e-9
ORACLE_TOL = 1e-12  # closed form vs scipy on well-conditioned inputs


def series_exp(xi, terms=30):
    """Truncated matrix power series, the independent oracle for exp."""
    x = hat(xi)
    acc = np.eye(4)
    term = np.eye(4)
    for k in range(1, terms):
        term = term @ x / k
        acc = acc + term
    return acc


# ---------------------------------------------------------------- hat / vee

def test_hat_zero():
    assert np.array_equal(hat(np.zeros(6)), np.zeros((4, 4)))


def test_hat_unit_rotation_x():
    m = hat(np.array([0, 0, 0, 1, 0, 0]))
    assert np.array_equal(m[:3, :3], np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]]))
    assert np.array_equal(m[:3, 3], np.zeros(3))
    assert np.array_equal(m[3], np.zeros(4))


def test_hat_vee_roundtrip(rng):
    for _ in range(1000):
        xi = rng.normal(size=6)
        assert np.array_equal(vee(hat(xi)), xi)


def test_vee_zero():
    assert np.array_equal(vee(np.zeros((4, 4))), np.zeros(6))


def test_vee_known():
    xi = np.array([1, 2, 3, 0.1, 0.2, 0.3])
    assert np.array_equal(vee(hat(xi)), xi)


def test_vee_rejects_symmetric_block():
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = 1.0  # symmetric, not skew
    with pytest.raises(StructureError):
        vee(m)


def test_vee_rejects_nonzero_bottom_row():
    m = hat(np.array([1, 2, 3, 0.1, 0.2, 0.3]))
    m[3, 0] = 1e-6
    with pytest.raises(StructureError):
        vee(m)


def test_hat3_vee3_roundtrip(rng):
    v = rng.normal(size=3)
    m = hat3(v)
    assert np.array_equal(m, -m.T)
    assert np.array_equal(vee3(m), v)


# ------------------------------------------------------------------- exp

def test_exp_zero_is_identity():
    p = exp(np.zeros(6))
    assert np.allclose(p.matrix, np.eye(4), atol=0)


def test_exp_pure_translation():
    p = exp(np.array([1, 2, 3, 0, 0, 0]))
    assert np.array_equal(p.rotation, np.eye(3))
    assert np.array_equal(p.translation, [1, 2, 3])


def test_exp_quarter_turn_z_vs_series():
    xi = np.array([0, 0, 0, 0, 0, np.pi / 2])
    p = exp(xi)
    assert np.allclose(p.matrix, series_exp(xi), atol=1e-12)
    assert np.allclose(p.rotation, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)
    assert np.allclose(p.translation, 0, atol=0)


def test_exp_matches_scipy_expm(rng):
    for _ in range(200):
        xi = random_twist(rng)
        assert np.allclose(exp(xi).matrix, expm(hat(xi)), atol=ORACLE_TOL)


def test_exp_taylor_guard_continuity():
    # The series guard below |phi| = 1e-8 must join the closed form smoothly.
    for scale in (1e-7, 1e-8, 1e-9, 1e-12):
        xi = np.array([1.0, -2.0, 0.5, scale, scale, scale])
        assert np.allclose(exp(xi).matrix, series_exp(xi), atol=1e-14)


# ------------------------------------------------------------------- log

def test_log_identity():
    assert np.array_equal(log(Pose.identity()), np.zeros(6))


def test_log_matches_scipy_logm(rng):
    for _ in range(100):
        p = random_pose(rng)
        xi_ref = vee(np.real(logm(p.matrix)))
        assert np.allclose(log(p), xi_ref, atol=1e-8)


def test_exp_log_roundtrip(rng):
    worst = 0.0
    for _ in range(2000):
        xi = random_twist(rng, rho_scale=10.0)
        back = log(exp(xi))
        worst = max(worst, np.linalg.norm(back - xi))
    assert worst < ROUNDTRIP_TOL


def test_log_rejects_half_turn():
    p = euler_to_pose(0, 0, 0, np.pi, 0, 0)
    with pytest.raises(PrincipalBranchError):
        log(p)


def test_log_near_branch_boundary():
    # Just inside the guard band still works (conditioning is naturally
    # weaker this close to pi); inside the band it raises.
    ok = exp(np.array([0, 0, 0, 0, 0, np.pi - 1e-4]))
    assert abs(log(ok)[5] - (np.pi - 1e-4)) < 1e-7
    with pytest.raises(PrincipalBranchError):
        log(exp(np.array([0, 0, 0, 0, 0, np.pi - 1e-7])))


def so3_left_jacobian(phi, terms=40):
    """SO(3) left Jacobian as its defining series sum_n K^n / (n+1)!."""
    k = hat3(phi)
    term = np.eye(3)
    total = np.eye(3)
    for n in range(1, terms):
        term = term @ k / (n + 1)
        total = total + term
    return total


# Rotation angles around the Taylor guard, mid-range and next to the branch
# margin at pi.
ORACLE_ANGLES = [0.5 * liegroup._TINY_ANGLE, np.nextafter(liegroup._TINY_ANGLE, 0.0),
                 liegroup._TINY_ANGLE, np.nextafter(liegroup._TINY_ANGLE, 1.0),
                 2.0 * liegroup._TINY_ANGLE, 0.3, 1.0, 2.0, 3.0, np.pi - 1e-5]


@pytest.mark.parametrize("angle", ORACLE_ANGLES)
def test_exp_and_log_match_rotvec_and_series_oracle(rng, angle):
    # Oracle pose: scipy's rotation of the rotation vector and the series V.
    # log takes the axis from vee(R - R^T), whose size 2 sin(angle) shrinks
    # toward pi, so its round-off grows as 1/(pi - angle) there and nowhere
    # else; exp is well conditioned at every angle.
    log_tol = 1e-13 + 4.0 * np.finfo(float).eps / (math.pi - angle)
    for _ in range(50):
        axis = rng.standard_normal(3)
        xi = np.concatenate([rng.uniform(-50.0, 50.0, 3), angle * axis / np.linalg.norm(axis)])
        rotation = Rotation.from_rotvec(xi[3:]).as_matrix()
        translation = so3_left_jacobian(xi[3:]) @ xi[:3]
        for p in (exp(xi), take(exp(np.stack([xi, xi])), 1)):
            assert np.max(np.abs(p.rotation - rotation)) < 1e-14
            assert np.max(np.abs(p.translation - translation)) < 1e-13 * np.max(np.abs(translation))
        oracle = Pose(rotation, translation)
        for back in (log(oracle), log(stack([oracle, oracle]))[1]):
            assert np.max(np.abs(back[3:] - xi[3:])) < log_tol
            assert np.max(np.abs(back[:3] - xi[:3])) < log_tol * np.max(np.abs(xi[:3]))


# ---------------------------------------------------------------- adjoint

def test_adjoint_identity():
    assert np.array_equal(adjoint(Pose.identity()), np.eye(6))


def test_adjoint_pure_translation_block():
    p = exp(np.array([1, 0, 0, 0, 0, 0]))
    expected = np.eye(6)
    expected[:3, 3:] = hat3([1, 0, 0])
    assert np.allclose(adjoint(p), expected, atol=0)


def test_adjoint_homomorphism(rng):
    for _ in range(1000):
        a, b = random_pose(rng), random_pose(rng)
        lhs = adjoint(a @ b)
        rhs = adjoint(a) @ adjoint(b)
        assert np.linalg.norm(lhs - rhs) < ROUNDTRIP_TOL


def test_adjoint_inverse_identity(rng):
    p = random_pose(rng)
    assert np.allclose(np.linalg.inv(adjoint(p)), adjoint(p.inverse()),
                       atol=ROUNDTRIP_TOL)


def test_adjoint_transports_twists(rng):
    # exp((Ad_X xi)^) = X exp(xi^) X^-1 is exact, not an approximation.
    for _ in range(100):
        x = random_pose(rng)
        xi = random_twist(rng, rho_scale=0.5, phi_cap=0.5)
        lhs = exp(adjoint(x) @ xi).matrix
        rhs = (x @ exp(xi) @ x.inverse()).matrix
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_ad_zero():
    assert np.array_equal(ad(np.zeros(6)), np.zeros((6, 6)))


def test_ad_unit_z_blocks():
    m = ad(np.array([0, 0, 0, 0, 0, 1]))
    skew_z = hat3([0, 0, 1])
    assert np.array_equal(m[:3, :3], skew_z)
    assert np.array_equal(m[3:, 3:], skew_z)
    assert np.array_equal(m[:3, 3:], np.zeros((3, 3)))
    assert np.array_equal(m[3:, :3], np.zeros((3, 3)))


def test_ad_is_bracket(rng):
    x, y = rng.normal(size=6), rng.normal(size=6)
    lhs = ad(x) @ y
    rhs = vee(hat(x) @ hat(y) - hat(y) @ hat(x))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_adjoint_of_exp_is_expm_of_ad(rng):
    for _ in range(50):
        xi = random_twist(rng, rho_scale=0.3, phi_cap=0.3)
        assert np.allclose(adjoint(exp(xi)), expm(ad(xi)), atol=1e-6)


# ----------------------------------------------------------- left Jacobian

def test_left_jacobian_identity_at_zero():
    assert np.array_equal(left_jacobian(np.zeros(6)), np.eye(6))


def test_left_jacobian_high_order_matches_quadrature(rng):
    # From the identity out to near the principal-branch edge, with
    # translations up to 50 mm: the summed series is exact to round-off.
    for angle in (0.0, 1e-9, 1e-4, 0.1, 1.0, 2.0, 3.0):
        axis = rng.normal(size=3)
        rho = rng.normal(size=3)
        rho *= rng.uniform(0.0, 50.0) / np.linalg.norm(rho)
        xi = np.concatenate([rho, angle * axis / np.linalg.norm(axis)])
        oracle = quadrature_left_jacobian(xi)
        j = left_jacobian(xi)
        assert np.linalg.norm(j - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_left_jacobian_product_residual(rng):
    # J and the second-order J^-1 cancel to O(|xi|^3).
    for scale in (0.1, 0.05, 0.01):
        xi = rng.normal(size=6)
        xi *= scale / np.linalg.norm(xi)
        resid = np.linalg.norm(left_jacobian(xi) @ inv_left_jacobian(xi) - np.eye(6))
        assert resid < 2.0 * scale ** 3


def test_inv_left_jacobian_identity_at_zero():
    assert np.array_equal(inv_left_jacobian(np.zeros(6)), np.eye(6))


def test_inv_left_jacobian_bernoulli_coefficients(rng):
    # Closed form I - X/2 + X^2/12 with X = ad(xi); check the linear
    # coefficient is exactly -1/2 by cancelling the even terms.
    xi = rng.normal(size=6)
    x = ad(xi)
    lin = inv_left_jacobian(xi) - np.eye(6) - x @ x / 12.0
    assert np.allclose(lin, -0.5 * x, atol=1e-12)


def test_inv_left_jacobian_vs_numerical_inverse(rng):
    for _ in range(20):
        xi = rng.normal(size=6)
        xi *= rng.uniform(0.01, 0.1) / np.linalg.norm(xi)
        num = np.linalg.inv(left_jacobian(xi))
        assert np.allclose(inv_left_jacobian(xi), num, atol=1e-6)


# -------------------------------------------------------------------- BCH

def test_bch_zero_first_argument(rng):
    xi2 = random_twist(rng, rho_scale=1.0, phi_cap=1.0)
    out = bch_compose(np.zeros(6), xi2, small="first")
    assert np.allclose(out, xi2, atol=1e-12)


def test_bch_both_zero():
    assert np.allclose(bch_compose(np.zeros(6), np.zeros(6)), 0, atol=0)


def test_bch_vs_exact_log(rng):
    for _ in range(50):
        xi1 = random_twist(rng, rho_scale=0.01, phi_cap=0.01)
        xi2 = random_twist(rng, rho_scale=1.0, phi_cap=1.0)
        approx = bch_compose(xi1, xi2, small="first")
        exact = log(exp(xi1) @ exp(xi2))
        assert np.linalg.norm(approx - exact) < 1e-4


def test_bch_second_argument_flag(rng):
    xi1 = random_twist(rng, rho_scale=1.0, phi_cap=1.0)
    xi2 = random_twist(rng, rho_scale=0.01, phi_cap=0.01)
    approx = bch_compose(xi1, xi2, small="second")
    exact = log(exp(xi1) @ exp(xi2))
    assert np.linalg.norm(approx - exact) < 1e-4


def test_bch_domain_error():
    big = np.array([0, 0, 0, 0.6, 0, 0])
    with pytest.raises(ApproximationDomainError):
        bch_compose(big, np.zeros(6), small="first")


# ------------------------------------------------------------------ Euler

def test_euler_zero_is_identity():
    assert np.allclose(euler_to_pose(0, 0, 0, 0, 0, 0).matrix, np.eye(4), atol=0)


def test_euler_single_axis_x():
    p = euler_to_pose(0, 0, 0, np.pi / 2, 0, 0)
    assert np.allclose(p.rotation, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-12)


def test_euler_matches_scipy_extrinsic_xyz(rng):
    for _ in range(200):
        abg = rng.uniform(-1.3, 1.3, 3)
        p = euler_to_pose(0, 0, 0, *abg)
        ref = Rotation.from_euler("xyz", abg).as_matrix()
        assert np.allclose(p.rotation, ref, atol=1e-12)


def test_euler_single_is_product_of_math_rotations_bit_for_bit(rng):
    # Rz @ Ry @ Rx of 3x3 arrays built from math.cos/math.sin, the bits
    # the dataset labels and the study sequence have always been built from.
    def rot(axis, a):
        c, s = math.cos(a), math.sin(a)
        return np.array({"x": [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]],
                         "y": [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]],
                         "z": [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]}[axis])

    cases = [(0, 0, 0, 0, 0, 0), (1.0, -2.0, 3.0, -0.0, 1e-9, -0.0)]
    cases += [tuple(rng.uniform(-3.0, 3.0, 6)) for _ in range(500)]
    for x, y, z, a, b, g in cases:
        p = euler_to_pose(x, y, z, a, b, g)
        expected = rot("z", g) @ rot("y", b) @ rot("x", a)
        assert p.rotation.tobytes() == expected.tobytes()
        assert p.translation.tobytes() == np.array([x, y, z], dtype=float).tobytes()


def test_euler_roundtrip(rng):
    for _ in range(10000):
        xyz = rng.uniform(-10, 10, 3)
        abg = rng.uniform(-1.4, 1.4, 3)  # clear of the pitch singularity
        out = pose_to_euler(euler_to_pose(*xyz, *abg))
        assert np.allclose(out, np.concatenate([xyz, abg]), atol=1e-9)


def test_euler_gimbal_lock_error():
    p = euler_to_pose(0, 0, 0, 0.3, np.pi / 2, 0.2)
    with pytest.raises(GimbalLockError):
        pose_to_euler(p)


# ----------------------------------------------------------- pose algebra

def test_pose_inverse_cancels(rng):
    for _ in range(200):
        p = random_pose(rng)
        assert np.allclose((p @ p.inverse()).matrix, np.eye(4), atol=ROUNDTRIP_TOL)


def test_pose_shape_validation():
    with pytest.raises(ValueError):
        Pose(np.eye(3), np.zeros(4))


def test_pose_renormalized_restores_orthonormality(rng):
    p = random_pose(rng)
    drifted = Pose(p.rotation + 1e-8 * rng.normal(size=(3, 3)), p.translation)
    r = drifted.renormalized().rotation
    assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-12
    assert np.linalg.det(r) > 0


# ----------------------------------------------------- hypothesis sweeps

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
small_angle = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


@given(st.tuples(finite, finite, finite, small_angle, small_angle, small_angle))
@settings(max_examples=300, deadline=None)
def test_property_exp_log_roundtrip(coords):
    xi = np.array(coords)
    assert np.linalg.norm(log(exp(xi)) - xi) < ROUNDTRIP_TOL


@given(st.tuples(finite, finite, finite, small_angle, small_angle, small_angle))
@settings(max_examples=200, deadline=None)
def test_property_exp_negation_inverts(coords):
    xi = np.array(coords)
    prod = (exp(xi) @ exp(-xi)).matrix
    assert np.linalg.norm(prod - np.eye(4)) < ROUNDTRIP_TOL


@given(st.lists(finite, min_size=6, max_size=6),
       st.lists(finite, min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_property_hat_linearity(a, b):
    a, b = np.array(a), np.array(b)
    assert np.allclose(hat(a + b), hat(a) + hat(b), atol=1e-12)


# ------------------------------------------------------------ stacks

# Fixed before any measurement: a stacked kernel may round differently from
# the single-pose path, by far less than this relative (Frobenius) error.
STACK_RTOL = 1e-12


def assert_stack_close(stacked, single):
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape
    assert np.linalg.norm(stacked - single) <= STACK_RTOL * np.linalg.norm(single)


def stacked_twists(rng, n=40):
    """Random twists with a zero-angle and a sub-1e-8-angle element."""
    xi = np.stack([random_twist(rng) for _ in range(n)])
    xi[0, 3:] = 0.0
    xi[1, 3:] = [3e-9, -2e-9, 1e-9]
    return xi


def test_stacked_kernels_match_single_pose_path(rng):
    xi = stacked_twists(rng)
    poses = exp(xi)
    logs = log(poses)
    adjoints = adjoint(poses)
    jacobians = inv_left_jacobian(xi)
    for i, x in enumerate(xi):
        p = exp(x)
        assert_stack_close(poses.rotation[i], p.rotation)
        assert_stack_close(poses.translation[i], p.translation)
        assert_stack_close(logs[i], log(p))
        assert_stack_close(adjoints[i], adjoint(p))
        assert_stack_close(jacobians[i], inv_left_jacobian(x))


def test_single_hat3_and_ad_match_stacked_forms_bit_for_bit(rng):
    # Both forms only copy and negate their input, so no rounding can differ.
    xi = rng.standard_normal((300, 6)) * 10.0 ** rng.integers(-9, 10, (300, 6))
    xi[::3, 1] = -0.0
    xi[::4, 3] = 0.0
    xi[::5, 5] = -0.0
    xi[::7] = 0.0
    for x in xi:
        assert hat3(x[3:]).tobytes() == hat3(x[None, 3:])[0].tobytes()
        assert ad(x).tobytes() == ad(x[None])[0].tobytes()


@pytest.mark.parametrize("shape", [(4,), (2000,), (1999, 4)])
def test_stacked_kernels_are_contiguous_and_match_single_bits(rng, shape):
    # Exact bits, not STACK_RTOL: a stacked matmul over a stack that is not
    # C-contiguous takes another numpy loop and can round differently.
    xi = np.concatenate([rng.uniform(-50.0, 50.0, shape + (3,)),
                         rng.uniform(-1.5, 1.5, shape + (3,))], axis=-1)
    flat = xi.reshape(-1, 6)
    flat[0, 3:] = 0.0
    flat[1, 3:] = [3e-9, -2e-9, 1e-9]
    flat[2] = -0.0
    flat[3, [0, 4]] = -0.0
    poses = exp(xi)
    stacked = {
        "hat3": hat3(xi[..., 3:]), "ad": ad(xi), "adjoint": adjoint(poses),
        "inv_left_jacobian": inv_left_jacobian(xi), "exp rotation": poses.rotation,
        "exp translation": poses.translation, "log": log(poses),
        # a stack of transposed rotations, as Pose.inverse returns them
        "log of inverse": log(poses.inverse()),
    }
    for name, out in stacked.items():
        assert out.flags.c_contiguous, name
    for i, x in enumerate(flat):
        p = exp(x)
        single = {
            "hat3": hat3(x[3:]), "ad": ad(x), "adjoint": adjoint(p),
            "inv_left_jacobian": inv_left_jacobian(x), "exp rotation": p.rotation,
            "exp translation": p.translation, "log": log(p),
            "log of inverse": log(p.inverse()),
        }
        for name, out in single.items():
            assert stacked[name].reshape((-1,) + out.shape)[i].tobytes() == out.tobytes(), \
                (name, i)


def test_exp_and_log_return_fresh_arrays(rng):
    # The identity inv_left_jacobian adds to is a shared module constant.
    assert not liegroup._I6.flags.writeable
    xi = random_twist(rng)
    expected_pose, expected_log = exp(xi), log(exp(xi))
    expected_jac = inv_left_jacobian(xi)
    for out in (exp(xi).rotation, exp(xi).translation, log(exp(xi)),
                inv_left_jacobian(xi), exp(xi[None]).rotation):
        assert out.flags.writeable
        out[...] = np.nan
    assert np.array_equal(liegroup._I6, np.eye(6))
    assert exp(xi).rotation.tobytes() == expected_pose.rotation.tobytes()
    assert exp(xi).translation.tobytes() == expected_pose.translation.tobytes()
    assert log(exp(xi)).tobytes() == expected_log.tobytes()
    assert inv_left_jacobian(xi).tobytes() == expected_jac.tobytes()


def singles(stack):
    return [Pose(r, t) for r, t in zip(stack.rotation, stack.translation)]


def test_stacked_pose_algebra_matches_single_pose_path(rng):
    a, b = exp(stacked_twists(rng)), exp(stacked_twists(rng))
    c = random_pose(rng)  # a single pose broadcasts against a stack
    cases = [
        (a @ b, [p @ q for p, q in zip(singles(a), singles(b))]),
        (c @ b, [c @ q for q in singles(b)]),
        (a @ c, [p @ c for p in singles(a)]),
        (a.inverse(), [p.inverse() for p in singles(a)]),
    ]
    for stacked, expected in cases:
        for out, ref in zip(singles(stacked), expected, strict=True):
            assert_stack_close(out.rotation, ref.rotation)
            assert_stack_close(out.translation, ref.translation)


def test_stacks_take_several_leading_dimensions(rng):
    xi = stacked_twists(rng)
    grid = exp(xi.reshape(5, 8, 6))
    assert grid.rotation.shape == (5, 8, 3, 3)
    assert np.array_equal(grid.rotation.reshape(40, 3, 3), exp(xi).rotation)
    assert np.array_equal(log(grid).reshape(40, 6), log(exp(xi)))
    assert adjoint(grid).shape == (5, 8, 6, 6)


def test_stacked_log_rejects_element_near_pi(rng):
    xi = stacked_twists(rng)
    xi[7, 3:] = [0.0, 0.0, np.pi - 1e-7]
    poses = exp(xi)
    with pytest.raises(PrincipalBranchError, match=r"stack element \[7\]"):
        log(poses)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
def test_stacked_exp_rejects_non_finite_angle(rng, bad):
    # 1e200 squares past the largest float: the angle overflows to inf
    xi = stacked_twists(rng)
    xi[3, 4] = bad
    with pytest.raises(ApproximationDomainError, match=r"stack element \[3\]"):
        exp(xi)
    with pytest.raises(ApproximationDomainError, match=r"^rotation angle .* is not finite$"):
        exp(xi[3])


@pytest.mark.parametrize("bad", [1e200, np.nan])
@pytest.mark.parametrize("component", [3, 4, 5])
def test_exp_rejects_an_overflowing_or_nan_rotation_component(rng, bad, component):
    # The angle's sum of squares runs on floats: 1e200 squares to inf, and
    # NaN stays NaN, without a warning; _exp_angle rejects both.
    xi = stacked_twists(rng).reshape(5, 8, 6)
    xi[1, 2, component] = bad
    with pytest.raises(ApproximationDomainError, match=r"^rotation angle .* is not finite$"):
        exp(xi[1, 2])
    with pytest.raises(ApproximationDomainError, match=r"^stack element \[1, 2\]: rotation angle"):
        exp(xi)
    with pytest.raises(ApproximationDomainError, match=r"^stack element \[10\]: "):
        exp(xi.reshape(40, 6))


def test_exp_of_a_large_finite_angle_is_the_stacks_bit_for_bit(rng):
    # 1e151 squares to 1e302: the angle is finite, though its (x - sin x)/x^3
    # coefficient's denominator overflows to inf.
    xi = stacked_twists(rng)
    xi[3, 4] = 1e151
    stacked, single = exp(xi), exp(xi[3])
    assert single.rotation.tobytes() == stacked.rotation[3].tobytes()
    assert single.translation.tobytes() == stacked.translation[3].tobytes()


def test_pose_stack_shapes_must_agree():
    with pytest.raises(ValueError):
        Pose(np.tile(np.eye(3), (4, 1, 1)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"shape \(6,\)"):
        exp(np.zeros((4, 5)))


def leaves(value) -> list:
    """A value's node types and leaves in order, spelled out field by field
    (the oracle for stack and take's generic map)."""
    if isinstance(value, tuple):
        return [tuple] + [leaf for part in value for leaf in leaves(part)]
    if isinstance(value, Pose):
        return [Pose, value.rotation, value.translation]
    if dataclasses.is_dataclass(value):
        return [type(value)] + leaves(tuple(getattr(value, f.name)
                                            for f in dataclasses.fields(value)))
    return [value]


def bits(value) -> list:
    """Every node type, and every leaf's type, dtype, shape and bytes."""
    return [leaf if isinstance(leaf, type) else
            (type(leaf), np.asarray(leaf).dtype, np.shape(leaf), np.asarray(leaf).tobytes())
            for leaf in leaves(value)]


def odd_pose(rng) -> Pose:
    """A random pose with a -0.0 and a sub-1e-8 entry in each array."""
    p = exp(random_twist(rng))
    rotation, translation = p.rotation.copy(), p.translation.copy()
    rotation[2, 0], rotation[0, 2], translation[1], translation[2] = -0.0, 3e-9, -0.0, -7e-10
    return Pose(rotation, translation)


def odd_gaussian(rng) -> PoseGaussian:
    a = rng.normal(size=(6, 6))
    cov = a @ a.T
    cov[0, 1] = cov[1, 0] = -0.0
    cov[2, 5] = cov[5, 2] = 4e-9
    return PoseGaussian(odd_pose(rng), cov)


def odd_pid(rng, initialized: bool) -> PidState:
    integral, smoothed = rng.normal(size=6), rng.normal(size=6)
    integral[0], smoothed[3] = -0.0, -2e-9
    return PidState(integral, smoothed, initialized)


STACKABLE = {
    "pose": odd_pose,
    "gaussian": odd_gaussian,
    "filter": lambda rng: FilterState(odd_gaussian(rng), odd_pose(rng)),
    "pid": lambda rng: odd_pid(rng, bool(rng.integers(2))),
    "pair": lambda rng: (FilterState(odd_gaussian(rng), odd_pose(rng)),
                         odd_pid(rng, bool(rng.integers(2)))),
}


@pytest.mark.parametrize("kind", STACKABLE)
def test_stack_and_take_round_trip_bit_for_bit(rng, kind):
    items = [STACKABLE[kind](rng) for _ in range(4)]
    before = [bits(item) for item in items]
    stacked = stack(items)
    for i, item in enumerate(items):
        assert bits(take(stacked, i)) == bits(item)
    for rows in ([2, 0], [3], [1, 2, 3, 0]):
        assert bits(take(stacked, rows)) == bits(stack([items[r] for r in rows]))
    # the stack holds copies: writing to it reaches no item
    for leaf in leaves(stacked):
        if isinstance(leaf, np.ndarray):
            leaf[...] = ~leaf if leaf.dtype == bool else np.nan
    assert [bits(item) for item in items] == before

