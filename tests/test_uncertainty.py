"""Concentrated pose Gaussians: density, chart changes, transform, fusion."""

import math
import warnings

import numpy as np
import pytest

from se3kit.errors import CovarianceError
from se3kit.liegroup import (Pose, adjoint, exp, left_jacobian, log)
from se3kit.uncertainty import (EuclideanGaussian, PoseGaussian, density, fuse,
                                gaussian_product, sample, to_global_tangent,
                                transform)

from conftest import random_pose, random_spd
from oracles import from_global_tangent, mean_discrepancy, product_mode_oracle

SPD_TOL = 1e-12


def normalizer(cov):
    return 1.0 / math.sqrt((2.0 * math.pi) ** 6 * np.linalg.det(cov))


# ---------------------------------------------------------------- density

def test_density_at_mean(rng):
    cov = random_spd(rng)
    pg = PoseGaussian(random_pose(rng), cov)
    assert density(pg, pg.mean) == pytest.approx(normalizer(cov), rel=1e-12)


def test_density_ratio_formula(rng):
    # Ratio of densities = exp Mahalanobis difference scaled by the two
    # chart Jacobian determinants; evaluated straight from the definition.
    cov = random_spd(rng)
    pg = PoseGaussian(random_pose(rng), cov)
    prec = np.linalg.inv(cov)
    eps1 = 0.1 * rng.normal(size=6)
    eps2 = 0.1 * rng.normal(size=6)
    x1 = exp(eps1) @ pg.mean
    x2 = exp(eps2) @ pg.mean

    maha = eps2 @ prec @ eps2 - eps1 @ prec @ eps1
    det1 = abs(np.linalg.det(left_jacobian(eps1)))
    det2 = abs(np.linalg.det(left_jacobian(eps2)))
    expected = math.exp(0.5 * maha) * det2 / det1
    assert density(pg, x1) / density(pg, x2) == pytest.approx(expected, rel=1e-9)


def test_density_integrates_to_one(rng):
    # Importance-sample from a wider Gaussian in the chart; the chart
    # volume element is |det J|, so the weighted mean estimates the
    # integral of the density over the group.
    cov = 0.01 * np.eye(6)
    pg = PoseGaussian(random_pose(rng), cov)
    prop_cov = 1.5 * cov
    n = 20000
    draws = rng.multivariate_normal(np.zeros(6), prop_cov, size=n)
    prop_pdf = (normalizer(prop_cov)
                * np.exp(-0.5 * np.einsum("ij,jk,ik->i", draws,
                                          np.linalg.inv(prop_cov), draws)))
    total = 0.0
    for eps, q in zip(draws, prop_pdf):
        x = exp(eps) @ pg.mean
        vol = abs(np.linalg.det(left_jacobian(eps)))
        total += density(pg, x) * vol / q
    assert abs(total / n - 1.0) < 0.02


def test_density_rejects_singular_covariance(rng):
    cov = np.zeros((6, 6))
    with pytest.raises((CovarianceError, np.linalg.LinAlgError, ValueError)):
        density(PoseGaussian(random_pose(rng), cov), Pose.identity())


# ----------------------------------------------------------------- sample

def test_sample_degenerate_cov_returns_mean(rng):
    pg = PoseGaussian(random_pose(rng), 1e-18 * np.eye(6))
    x = sample(pg, rng)
    assert mean_discrepancy(x, pg.mean) < 1e-8


def test_sample_statistics(rng):
    cov = random_spd(rng, lo=0.005, hi=0.05)
    pg = PoseGaussian(random_pose(rng), cov)
    n = 20000
    eps = np.empty((n, 6))
    for i in range(n):
        eps[i] = log(sample(pg, rng) @ pg.mean.inverse())
    # law of large numbers on the perturbation mean, 4 sigma band
    band = 4.0 * np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(eps.mean(axis=0)) < band)
    emp = np.cov(eps.T)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05


# ---------------------------------------------------- tangent chart moves

def test_to_global_tangent_identity_mean(rng):
    cov = random_spd(rng)
    eg = to_global_tangent(PoseGaussian(Pose.identity(), cov))
    assert np.array_equal(eg.mean, np.zeros(6))
    assert np.allclose(eg.cov, cov, atol=1e-12)


def test_tangent_roundtrip(rng):
    for _ in range(20):
        pg = PoseGaussian(random_pose(rng, rho_scale=2.0, phi_cap=1.0),
                          random_spd(rng))
        back = from_global_tangent(to_global_tangent(pg))
        assert mean_discrepancy(back.mean, pg.mean) < 1e-9
        assert np.allclose(back.cov, pg.cov, atol=1e-9)


def test_to_global_tangent_small_mean_perturbation(rng):
    sigma2 = 0.01
    for scale in (0.05, 0.01):
        mean = exp(scale * rng.normal(size=6) / math.sqrt(6))
        eg = to_global_tangent(PoseGaussian(mean, sigma2 * np.eye(6)))
        assert np.linalg.norm(eg.cov - sigma2 * np.eye(6)) < 6 * scale * sigma2


# -------------------------------------------------------------- transform

def test_transform_identity_noop(rng):
    pg = PoseGaussian(random_pose(rng), random_spd(rng))
    out = transform(pg, Pose.identity(), np.zeros((6, 6)))
    assert np.array_equal(out.mean.matrix, pg.mean.matrix)
    assert np.allclose(out.cov, pg.cov, atol=1e-12)


def test_transform_pure_rotation_preserves_translation_trace(rng):
    pg = PoseGaussian(random_pose(rng), random_spd(rng))
    t = exp(np.array([0, 0, 0, 0.4, -0.3, 0.2]))
    out = transform(pg, t, np.zeros((6, 6)))
    # Ad of a pure rotation block-rotates the translational covariance.
    assert np.trace(out.cov[:3, :3]) == pytest.approx(np.trace(pg.cov[:3, :3]),
                                                      rel=1e-12)


def test_transform_closed_form(rng):
    pg = PoseGaussian(random_pose(rng), random_spd(rng))
    t = random_pose(rng)
    q = random_spd(rng, lo=0.001, hi=0.01)
    out = transform(pg, t, q)
    expected = adjoint(t) @ pg.cov @ adjoint(t).T + q
    assert np.allclose(out.cov, 0.5 * (expected + expected.T), atol=1e-12)
    assert mean_discrepancy(out.mean, t @ pg.mean) < 1e-12


def test_transform_monte_carlo(rng):
    pg = PoseGaussian(random_pose(rng, rho_scale=1.0, phi_cap=0.5),
                      random_spd(rng, lo=0.002, hi=0.02))
    t = random_pose(rng, rho_scale=1.0, phi_cap=0.5)
    q = random_spd(rng, lo=0.002, hi=0.02)
    out = transform(pg, t, q)
    n = 20000
    eps = np.empty((n, 6))
    lq = np.linalg.cholesky(q)
    for i in range(n):
        x = exp(lq @ rng.normal(size=6)) @ t @ sample(pg, rng)
        eps[i] = log(x @ out.mean.inverse())
    assert np.linalg.norm(np.cov(eps.T) - out.cov) / np.linalg.norm(out.cov) < 0.05
    assert np.linalg.norm(eps.mean(axis=0)) < 0.05


def test_transform_composition_closure(rng):
    pg = PoseGaussian(random_pose(rng), random_spd(rng))
    t1, t2 = random_pose(rng), random_pose(rng)
    q1 = random_spd(rng, lo=0.001, hi=0.01)
    q2 = random_spd(rng, lo=0.001, hi=0.01)
    two_step = transform(transform(pg, t1, q1), t2, q2)
    ad2 = adjoint(t2)
    expected_cov = ad2 @ (adjoint(t1) @ pg.cov @ adjoint(t1).T + q1) @ ad2.T + q2
    assert mean_discrepancy(two_step.mean, t2 @ t1 @ pg.mean) < 1e-9
    assert np.allclose(two_step.cov, 0.5 * (expected_cov + expected_cov.T),
                       atol=1e-9)


# ------------------------------------------------------------------- fuse

def test_fuse_equal_inputs_fixed_point(rng):
    pg = PoseGaussian(random_pose(rng), random_spd(rng, lo=0.01, hi=0.1))
    out = fuse(pg, pg)
    assert mean_discrepancy(out.mean, pg.mean) < 1e-12
    assert np.allclose(out.cov, pg.cov / 2.0, atol=1e-9)


def test_fuse_order_insensitive(rng):
    for _ in range(10):
        a = PoseGaussian(random_pose(rng, rho_scale=1.0, phi_cap=0.5),
                         random_spd(rng, lo=0.002, hi=0.05))
        offset = 0.1 * rng.normal(size=6)
        b = PoseGaussian(exp(offset) @ a.mean, random_spd(rng, lo=0.002, hi=0.05))
        ab = fuse(a, b)
        ba = fuse(b, a)
        assert mean_discrepancy(ab.mean, ba.mean) < 1e-6


def test_fuse_against_product_mode_oracle(rng):
    # Two means 0.05 rad apart, isotropic 1e-3 covariance: the fused mean
    # must land on the numerically located mode of the true product.
    a = PoseGaussian(random_pose(rng, rho_scale=1.0, phi_cap=0.5),
                     1e-3 * np.eye(6))
    b = PoseGaussian(exp(np.array([0, 0, 0, 0.05, 0, 0])) @ a.mean,
                     1e-3 * np.eye(6))
    fused = fuse(a, b)
    oracle = product_mode_oracle(a, b)
    assert mean_discrepancy(fused.mean, oracle) < 1e-3


def test_fuse_warns_on_wide_covariance(rng):
    wide = PoseGaussian(random_pose(rng), 2.0 * np.eye(6))
    tight = PoseGaussian(wide.mean, 0.01 * np.eye(6))
    with pytest.warns(UserWarning, match="concentrated"):
        fuse(wide, tight)


def test_fuse_rejects_bad_iteration_count(rng):
    pg = PoseGaussian(random_pose(rng), 0.01 * np.eye(6))
    with pytest.raises(ValueError):
        fuse(pg, pg, iterations=0)


def test_fuse_output_spd(rng):
    for _ in range(10):
        a = PoseGaussian(random_pose(rng), random_spd(rng, lo=0.002, hi=0.05))
        b = PoseGaussian(exp(0.05 * rng.normal(size=6)) @ a.mean,
                         random_spd(rng, lo=0.002, hi=0.05))
        out = fuse(a, b)
        assert np.allclose(out.cov, out.cov.T, atol=SPD_TOL)
        assert np.min(np.linalg.eigvalsh(out.cov)) > 0.0


def test_fuse_fixed_point_satisfies_jacobian_relation(rng):
    """At the converged mean, rebuilding each factor's tangent-chart image
    with the full left Jacobian must leave no residual correction.

    Expressing factor k at an operating point X gives a chart Gaussian with
    mean mu_k' = -J(xi_k) xi_k and covariance J(xi_k) cov_k J(xi_k)', where
    xi_k = log(X X_k^-1).  The fused mean is the point where the
    information-weighted sum of those chart means cancels; recomputing that
    sum here with left_jacobian (rather than the truncated inverse the
    fusion loop uses) checks the two modules agree about the fixed point.
    """
    worst = 0.0
    for _ in range(20):
        a = PoseGaussian(random_pose(rng), 0.02 * random_spd(rng, lo=0.2, hi=1.0))
        b = PoseGaussian(exp(0.05 * rng.normal(size=6)) @ a.mean,
                         0.02 * random_spd(rng, lo=0.2, hi=1.0))
        fused = fuse(a, b)
        h = np.zeros((6, 6))
        rhs = np.zeros(6)
        for g in (a, b):
            xi = log(fused.mean @ g.mean.inverse())
            jac = left_jacobian(xi)
            # ad(xi) xi = 0 makes J(xi) xi = xi exactly: the chart mean is
            # computable without any series truncation concern.
            mu_p = -jac @ xi
            assert np.allclose(mu_p, -xi, atol=1e-12)
            prec = np.linalg.inv(jac @ g.cov @ jac.T)
            h += prec
            rhs += prec @ mu_p
        worst = max(worst, float(np.linalg.norm(np.linalg.solve(h, rhs))))
    # Residual reflects the order-2 truncation inside fuse; observed
    # ~2e-6 at these offsets, bounded with margin.
    assert worst < 2e-5


# ------------------------------------------------- Euclidean-side helpers

def test_gaussian_product_equal_inputs(rng):
    cov = random_spd(rng)
    mu = rng.normal(size=6)
    out = gaussian_product(EuclideanGaussian(mu, cov), EuclideanGaussian(mu, cov))
    assert np.allclose(out.mean, mu, atol=1e-12)
    assert np.allclose(out.cov, cov / 2.0, atol=1e-12)


def test_gaussian_product_scalar_case():
    a = EuclideanGaussian(np.zeros(1), np.eye(1))
    b = EuclideanGaussian(np.full(1, 2.0), np.eye(1))
    out = gaussian_product(a, b)
    assert out.mean[0] == pytest.approx(1.0)
    assert out.cov[0, 0] == pytest.approx(0.5)


def test_gaussian_product_shrinks_loewner(rng):
    for _ in range(20):
        a = EuclideanGaussian(rng.normal(size=6), random_spd(rng))
        b = EuclideanGaussian(rng.normal(size=6), random_spd(rng))
        out = gaussian_product(a, b)
        assert np.min(np.linalg.eigvalsh(a.cov - out.cov)) > -1e-12
        assert np.min(np.linalg.eigvalsh(b.cov - out.cov)) > -1e-12


# ------------------------------------------------------------------ stacks

# Fixed before any measurement, as in test_liegroup: a stacked kernel may
# round differently from the single-pose path, by far less than this
# relative (Frobenius) error.
STACK_RTOL = 1e-12


def assert_stack_close(stacked, single):
    assert np.linalg.norm(stacked - single) <= STACK_RTOL * np.linalg.norm(single)


def fusion_inputs(rng, n=12):
    """Pairs of concentrated Gaussians; element 0 has zero-angle means and
    element 1 means whose offset is below the 1e-8 series guard."""
    a, b = [], []
    for i in range(n):
        mean = random_pose(rng, rho_scale=1.0, phi_cap=0.5)
        offset = 0.05 * rng.normal(size=6)
        if i == 0:
            mean = exp(np.concatenate([rng.normal(size=3), np.zeros(3)]))
            offset[3:] = 0.0
        if i == 1:
            offset[3:] = [4e-9, 0.0, -3e-9]
        a.append(PoseGaussian(mean, random_spd(rng, lo=0.002, hi=0.05)))
        b.append(PoseGaussian(exp(offset) @ mean, random_spd(rng, lo=0.002, hi=0.05)))
    return a, b


def assert_gaussians_close(stacked, singles):
    for i, g in enumerate(singles):
        assert_stack_close(stacked.mean.rotation[i], g.mean.rotation)
        assert_stack_close(stacked.mean.translation[i], g.mean.translation)
        assert_stack_close(stacked.cov[i], g.cov)


def test_stacked_transform_matches_single(rng):
    a, _ = fusion_inputs(rng)
    ts = [random_pose(rng) for _ in a]
    qs = [random_spd(rng, lo=0.001, hi=0.01) for _ in a]
    out = transform(PoseGaussian.stack(a), Pose.stack(ts), np.stack(qs))
    assert_gaussians_close(out, [transform(g, t, q) for g, t, q in zip(a, ts, qs)])
    # one distribution through a stack of transforms
    out = transform(a[0], Pose.stack(ts), np.stack(qs))
    assert_gaussians_close(out, [transform(a[0], t, q) for t, q in zip(ts, qs)])


def test_stacked_fuse_matches_single(rng):
    a, b = fusion_inputs(rng)
    fused = fuse(PoseGaussian.stack(a), PoseGaussian.stack(b))
    assert_gaussians_close(fused, [fuse(x, y) for x, y in zip(a, b)])
    # one observation against a stack of predictions, as filter_study fuses
    fused = fuse(a[2], PoseGaussian.stack(b))
    assert_gaussians_close(fused, [fuse(a[2], y) for y in b])


def test_fuse_stack_warns_once_for_the_wide_element(rng):
    a, b = fusion_inputs(rng)
    wide = b[4].cov.copy()
    wide[3:, 3:] = 2.0 * np.eye(3)
    b[4] = PoseGaussian(b[4].mean, wide)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fuse(PoseGaussian.stack(a), PoseGaussian.stack(b))
    messages = [str(w.message) for w in caught if "concentrated" in str(w.message)]
    assert len(messages) == 1
    assert messages[0].startswith("fuse input b[4] has rotation variance 2 rad^2")


def test_fuse_concentration_check_ignores_translation_units(rng):
    # 100 mm^2 of translation variance with 0.03 rad^2 of rotation (the
    # sigma = 10 filter_study row) is concentrated; the rotation block decides.
    pg = PoseGaussian(random_pose(rng), np.diag([100.0, 100.0, 100.0, 0.03, 0.03, 0.03]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fuse(pg, pg)


def test_non_finite_covariance_raises_per_stack_element(rng):
    a, _ = fusion_inputs(rng)
    covs = np.stack([g.cov for g in a])
    covs[5, 0, 0] = np.inf
    with pytest.raises(CovarianceError, match=r"stack element \[5\] is not finite"):
        PoseGaussian(Pose.stack(g.mean for g in a), covs)
    # finite entries whose symmetrized sum overflows
    cov = np.eye(6)
    cov[0, 1] = cov[1, 0] = 1e308
    with pytest.raises(CovarianceError, match="covariance is not finite"):
        PoseGaussian(Pose.identity(), cov)
    # Ad cov Ad' + Q overflowing in one element of a stacked prediction
    qs = np.stack([np.zeros((6, 6))] * len(a))
    qs[3] = 1e308 * np.eye(6)
    with pytest.raises(CovarianceError, match=r"stack element \[3\] is not finite"):
        transform(a[0], Pose.stack(g.mean for g in a), qs)


def test_fuse_rejects_singular_stack_element(rng):
    a, b = fusion_inputs(rng)
    b[6] = PoseGaussian(b[6].mean, np.zeros((6, 6)))
    with pytest.raises(CovarianceError, match="singular"):
        fuse(PoseGaussian.stack(a), PoseGaussian.stack(b))
