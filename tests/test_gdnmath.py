"""Stable activations, loss metrics, and the dataset sampling pipeline."""

import decimal
import math

import numpy as np
import pytest
from scipy import stats

from se3kit.gdnmath import (DEFAULT_LOSS_WEIGHTS, HeteroPrediction,
                            SoftboundParams, label_pipeline, mean_nll,
                            sample_contact_pose, softbound, softplus_stable,
                            weighted_mse)
from se3kit.liegroup import euler_to_pose, exp

LN_2PI = math.log(2.0 * math.pi)

# Documented sampling ranges: disk radius (mm) and tilt-cap half-angle.
R_MAX = 5.0
PHI_MAX_DEG = 25.0


def softplus_highprec(x: float) -> float:
    """ln(1 + e^x) at 60 significant digits."""
    decimal.getcontext().prec = 60
    d = decimal.Decimal(x)
    return float((decimal.Decimal(1) + d.exp()).ln())


# ---------------------------------------------------------------- softplus

def test_softplus_at_zero():
    assert softplus_stable(0.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_softplus_huge_argument():
    assert softplus_stable(1e308) == 1e308
    assert softplus_stable(-1e308) == 0.0
    assert softplus_stable(1e-308) == pytest.approx(math.log(2.0), rel=1e-12)


def test_softplus_matches_highprec_grid():
    for x in np.arange(-40.0, 40.0, 0.5):
        assert math.isclose(softplus_stable(x), softplus_highprec(x),
                            rel_tol=1e-12)


# ---------------------------------------------------------------- softbound

def test_softbound_identity_midway():
    p = SoftboundParams(-10.0, 10.0)
    assert abs(softbound(0.0, p)) < 1e-4


def test_softbound_lower_saturation():
    p = SoftboundParams(1e-6, 1e6)
    assert softbound(-1e6, p) == pytest.approx(1e-6, abs=1e-12)
    assert softbound(1e8, p) == pytest.approx(1e6, abs=1e-6)


def naive_softbound(x, p):
    # direct composition of the textbook softplus form
    return (p.x_min + math.log(1.0 + math.exp(x - p.x_min))
            - math.log(1.0 + math.exp(x - p.x_max)))


def test_softbound_matches_naive_form():
    p = SoftboundParams(-20.0, 30.0)
    for x in np.arange(-50.0, 50.0, 0.25):
        assert softbound(x, p) == pytest.approx(naive_softbound(x, p), abs=1e-10)


def test_softbound_monotone_and_strictly_bounded(rng):
    p = SoftboundParams(1e-6, 1e6)
    xs = rng.uniform(-1e8, 1e8, size=100000)
    xs = np.concatenate([xs, [0.0, 1e-308, -1e-308, 1e308, -1e308,
                              math.nextafter(0, 1), -1e6, 1e6]])
    vals = np.array([softbound(float(x), p) for x in xs])
    assert np.all(vals > p.x_min)
    assert np.all(vals < p.x_max)
    assert np.all(np.isfinite(vals))
    order = np.argsort(xs)
    assert np.all(np.diff(vals[order]) >= 0.0)


def test_softbound_params_validate():
    with pytest.raises(ValueError):
        SoftboundParams(2.0, 1.0)


# ------------------------------------------------------------ loss metrics

def test_weighted_mse_zero_on_match(rng):
    data = rng.standard_normal((7, 6))
    assert weighted_mse(data, data) == 0.0


def test_weighted_mse_component_weighting():
    labels = np.zeros(6)
    preds = np.zeros(6)
    preds[3] = 1.0
    assert weighted_mse(labels, preds) == pytest.approx(100.0)
    assert weighted_mse(labels, preds, alpha=np.ones(6)) == pytest.approx(1.0)


def test_weighted_mse_vs_loop(rng):
    labels = rng.standard_normal((11, 6))
    preds = rng.standard_normal((11, 6))
    total = 0.0
    for i in range(11):
        for j in range(6):
            total += DEFAULT_LOSS_WEIGHTS[j] * (labels[i, j] - preds[i, j]) ** 2
    assert weighted_mse(labels, preds) == pytest.approx(total / 11, rel=1e-12)


def test_weighted_mse_shape_errors(rng):
    with pytest.raises(ValueError):
        weighted_mse(np.zeros((3, 6)), np.zeros((4, 6)))
    with pytest.raises(ValueError):
        weighted_mse(np.zeros((3, 5)), np.zeros((3, 5)))
    with pytest.raises(ValueError):
        weighted_mse(np.zeros(6), np.zeros(6), alpha=np.ones(3))


# ---------------------------------------------------------------- mean NLL

def test_mean_nll_perfect_unit_sigma():
    labels = np.array([0.1, -0.2, 0.3, 0.0, 0.05, -0.04])
    pred = HeteroPrediction(mu=labels, inv_sigma=np.ones(6))
    val = mean_nll(labels, pred)
    assert val == pytest.approx(3.0 * LN_2PI, rel=1e-12)
    assert val == pytest.approx(5.5137, abs=1e-4)


def test_mean_nll_reduces_to_half_mse(rng):
    labels = rng.standard_normal((8, 6))
    preds = [HeteroPrediction(mu=rng.standard_normal(6), inv_sigma=np.ones(6))
             for _ in range(8)]
    mse = weighted_mse(labels, np.stack([p.mu for p in preds]), alpha=np.ones(6))
    assert mean_nll(labels, preds) == pytest.approx(3.0 * LN_2PI + 0.5 * mse,
                                                    rel=1e-12)


def test_mean_nll_stationary_at_inverse_error():
    # With mu fixed, the per-component optimum is inv_sigma = 1/|e|.
    label = np.zeros(6)
    err = 0.5
    mu = np.full(6, err)

    def nll_at(s):
        return mean_nll(label, HeteroPrediction(mu=mu, inv_sigma=np.full(6, s)))

    s_star = 1.0 / err
    h = 1e-4
    assert nll_at(s_star + h) > nll_at(s_star)
    assert nll_at(s_star - h) > nll_at(s_star)
    assert abs(nll_at(s_star + h) - nll_at(s_star - h)) / (2 * h) < 1e-4


def test_mean_nll_penalizes_overconfidence():
    # Past inv_sigma |e| = 1 the loss strictly increases with confidence.
    label = np.zeros(6)
    mu = np.ones(6)
    vals = [mean_nll(label, HeteroPrediction(mu=mu, inv_sigma=np.full(6, s)))
            for s in (1.5, 1.6, 2.0, 10.0)]
    assert np.all(np.diff(vals) > 0)


def test_hetero_prediction_validates():
    with pytest.raises(ValueError):
        HeteroPrediction(mu=np.zeros(6), inv_sigma=np.zeros(6))
    with pytest.raises(ValueError):
        HeteroPrediction(mu=np.zeros(6), inv_sigma=np.full(6, 1e7))
    with pytest.raises(ValueError):
        HeteroPrediction(mu=np.zeros(5), inv_sigma=np.ones(5))


# -------------------------------------------------------- sampling pipeline

class ScriptedRng:
    """Stand-in generator emitting a fixed sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_sample_contact_pose_disk_boundary():
    # draw order: r', theta, z, phi', theta_cap, gamma
    out = sample_contact_pose(ScriptedRng([1.0, 0.0, 0.5, 0.0, 0.0, 0.5]))
    assert out[0] == pytest.approx(5.0)
    assert out[1] == pytest.approx(0.0, abs=1e-15)
    assert out[2] == pytest.approx(3.25)
    assert out[3] == 0.0 and out[4] == 0.0  # cap apex
    assert out[5] == pytest.approx(0.0, abs=1e-15)


@pytest.fixture(scope="module")
def pose_draws():
    rng = np.random.default_rng(2024)
    return np.array([sample_contact_pose(rng) for _ in range(40000)])


def test_sample_contact_pose_ranges(pose_draws):
    r = np.hypot(pose_draws[:, 0], pose_draws[:, 1])
    assert np.all(r <= R_MAX + 1e-12)
    assert np.all((pose_draws[:, 2] >= 0.5) & (pose_draws[:, 2] <= 6.0))
    gamma_deg = np.degrees(pose_draws[:, 5])
    assert np.all((gamma_deg >= -5.0) & (gamma_deg <= 5.0))
    # tilt of the rotated z axis never exceeds the cap half-angle
    cos_tilt = np.cos(pose_draws[:, 3]) * np.cos(pose_draws[:, 4])
    assert np.all(cos_tilt >= math.cos(math.radians(PHI_MAX_DEG)) - 1e-12)


def test_sample_contact_pose_uniformity(pose_draws):
    # disk: squared radial quantile is uniform
    q_disk = (np.hypot(pose_draws[:, 0], pose_draws[:, 1]) / R_MAX) ** 2
    # cap: normalized solid-angle quantile is uniform
    cos_tilt = np.cos(pose_draws[:, 3]) * np.cos(pose_draws[:, 4])
    q_cap = (1.0 - cos_tilt) / (1.0 - math.cos(math.radians(PHI_MAX_DEG)))
    for q in (q_disk, q_cap):
        counts, _ = np.histogram(q, bins=25, range=(0.0, 1.0))
        assert stats.chisquare(counts).pvalue > 0.01


# ----------------------------------------------------------- label pipeline

def test_label_pipeline_zero():
    assert np.array_equal(label_pipeline(np.zeros(6)), np.zeros(6))


def test_label_pipeline_pure_depth():
    xi = label_pipeline(np.array([0, 0, 3.0, 0, 0, 0]))
    assert np.allclose(xi, [0, 0, -3, 0, 0, 0], atol=1e-12)


def test_label_pipeline_roundtrip(rng):
    for _ in range(50):
        euler = sample_contact_pose(rng)
        xi = label_pipeline(euler)
        x_fs = euler_to_pose(*euler)
        assert np.allclose(exp(xi).inverse().matrix, x_fs.matrix, atol=1e-9)


def test_label_pipeline_shape_error():
    with pytest.raises(ValueError):
        label_pipeline(np.zeros(5))
