"""SE(3)/SO(3) primitives against series, scipy, and quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, logm
from scipy.spatial.transform import Rotation

from se3kit.errors import (ApproximationDomainError, GimbalLockError,
                           PrincipalBranchError, StructureError)
from se3kit.liegroup import (Pose, ad, adjoint, bch_compose,
                             euler_to_pose, exp, hat, hat3, inv_left_jacobian,
                             left_jacobian, log, pose_to_euler, vee, vee3)

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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_stacked_exp_rejects_non_finite_angle(rng, bad):
    xi = stacked_twists(rng)
    xi[3, 4] = bad
    with pytest.raises(ApproximationDomainError, match=r"stack element \[3\]"):
        exp(xi)


def test_pose_stack_shapes_must_agree():
    with pytest.raises(ValueError):
        Pose(np.tile(np.eye(3), (4, 1, 1)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"shape \(6,\)"):
        exp(np.zeros((4, 5)))
