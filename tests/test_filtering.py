"""Recursive pose filter: prediction/correction wiring and the noise sweep."""

import math
import warnings

import numpy as np
import pytest

from se3kit.filtering import (DynamicsNoise, default_dynamics_noise,
                              filter_study, init, step, synthetic_transition,
                              write_study_csv)
from se3kit.liegroup import Pose, exp, log
from se3kit.sim import make_study_sequence
from se3kit.uncertainty import PoseGaussian, fuse, transform

from conftest import random_pose
from oracles import filter_study_per_row, mean_discrepancy

DEG = math.pi / 180.0


def noisy_obs(truth, sigma, rng, cov_scale=None):
    n = sigma * rng.standard_normal(6)
    cov = (cov_scale if cov_scale is not None else sigma ** 2) * np.eye(6)
    return PoseGaussian(exp(n) @ truth, cov)


# -------------------------------------------------------- dynamics noise

def test_default_dynamics_noise_paper_value():
    cov = default_dynamics_noise(0.5).cov
    assert np.allclose(np.diag(cov)[:3], 0.25, atol=0)
    assert np.allclose(np.diag(cov)[3:], 0.25 * DEG ** 2, atol=0)
    assert np.array_equal(cov, np.diag(np.diag(cov)))


def test_default_dynamics_noise_unit_sigma():
    cov = default_dynamics_noise(1.0).cov
    assert np.diag(cov)[3] == pytest.approx(3.0462e-4, rel=1e-4)


def test_default_dynamics_noise_rejects_nonpositive():
    with pytest.raises(ValueError):
        default_dynamics_noise(0.0)
    with pytest.raises(ValueError):
        default_dynamics_noise(-1.0)
    with pytest.raises(ValueError, match="finite square"):
        default_dynamics_noise(1.0e+300)  # the variance overflows


def test_dynamics_noise_requires_psd():
    bad = -np.eye(6)
    with pytest.raises(ValueError):
        DynamicsNoise(cov=bad)


# ------------------------------------------------------------ init / step

def test_init_copies_observation(rng):
    obs = noisy_obs(random_pose(rng), 0.05, rng)
    state = init(obs, Pose.identity())
    assert np.array_equal(state.belief.mean.matrix, obs.mean.matrix)
    assert np.array_equal(state.belief.cov, obs.cov)


def test_single_step_equals_fuse_of_prediction(rng):
    truth = random_pose(rng, rho_scale=2.0, phi_cap=0.8)
    obs0 = noisy_obs(truth, 0.05, rng)
    obs1 = noisy_obs(truth, 0.05, rng)
    sensor = random_pose(rng)
    state = init(obs0, sensor)
    zero_noise = DynamicsNoise(cov=np.zeros((6, 6)))
    out = step(state, obs1, sensor, zero_noise)  # sensor unmoved
    ref = fuse(obs1, transform(obs0, Pose.identity(), np.zeros((6, 6))))
    assert mean_discrepancy(out.belief.mean, ref.mean) < 1e-12
    assert np.allclose(out.belief.cov, ref.cov, atol=1e-12)


def test_step_uninformative_observation_keeps_prediction(rng):
    truth = random_pose(rng, rho_scale=2.0, phi_cap=0.8)
    obs0 = noisy_obs(truth, 0.01, rng)
    sensor = random_pose(rng)
    state = init(obs0, sensor)
    vague = PoseGaussian(random_pose(rng), 1e9 * np.eye(6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # wide covariance warning expected
        out = step(state, vague, sensor, default_dynamics_noise(0.01))
    assert mean_discrepancy(out.belief.mean, obs0.mean) < 1e-4


def test_step_uninformative_belief_snaps_to_observation(rng):
    truth = random_pose(rng, rho_scale=2.0, phi_cap=0.8)
    vague0 = PoseGaussian(random_pose(rng, rho_scale=2.0, phi_cap=0.8),
                          1e9 * np.eye(6))
    sensor = random_pose(rng)
    state = init(vague0, sensor)
    obs = noisy_obs(truth, 0.01, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = step(state, obs, sensor, default_dynamics_noise(0.01))
    assert mean_discrepancy(out.belief.mean, obs.mean) < 1e-4


def test_filter_contraction_over_static_scene(rng):
    truth = random_pose(rng, rho_scale=2.0, phi_cap=0.8)
    sensor = Pose.identity()
    sigma = 0.1
    state = init(noisy_obs(truth, sigma, rng), sensor)
    single_trace = np.trace(state.belief.cov)
    noise = default_dynamics_noise(0.01)
    for _ in range(50):
        state = step(state, noisy_obs(truth, sigma, rng), sensor, noise)
    assert np.trace(state.belief.cov) < 0.15 * single_trace


def test_dead_reckoning_with_vague_observations(rng):
    # Noiseless transitions and useless observations reduce the filter to
    # composing the transition chain onto the initial mean.
    truth0 = random_pose(rng, rho_scale=2.0, phi_cap=0.5)
    obs0 = PoseGaussian(truth0, 1e-6 * np.eye(6))
    sensor = Pose.identity()
    state = init(obs0, sensor)
    expected = truth0
    zero_noise = DynamicsNoise(cov=np.zeros((6, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(5):
            delta = exp(0.05 * rng.standard_normal(6))
            sensor = delta @ sensor  # transition becomes sensor^-1 @ prev
            vague = PoseGaussian(random_pose(rng), 1e9 * np.eye(6))
            new_state = step(state, vague, sensor, zero_noise)
            expected = (sensor.inverse() @ state.prev_sensor_pose) @ expected
            state = new_state
    assert mean_discrepancy(state.belief.mean, expected) < 1e-6


def test_belief_trace_monotone_on_static_scene(rng):
    truth = random_pose(rng, rho_scale=1.0, phi_cap=0.5)
    sensor = Pose.identity()
    state = init(noisy_obs(truth, 0.05, rng), sensor)
    zero_noise = DynamicsNoise(cov=np.zeros((6, 6)))
    prev_trace = np.trace(state.belief.cov)
    for _ in range(30):
        state = step(state, noisy_obs(truth, 0.05, rng), sensor, zero_noise)
        trace = np.trace(state.belief.cov)
        assert trace <= prev_trace + 1e-12
        prev_trace = trace


# ---------------------------------------------------- synthetic transition

ZERO_NOISE = DynamicsNoise(np.zeros((6, 6)))


def test_synthetic_transition_zero_sigma_identity(rng):
    x = random_pose(rng)
    t = synthetic_transition(x, x, ZERO_NOISE, rng)
    assert np.allclose(t.matrix, np.eye(4), atol=1e-12)


def test_synthetic_transition_zero_sigma_exact(rng):
    x_prev = random_pose(rng)
    x_now = random_pose(rng)
    t = synthetic_transition(x_prev, x_now, ZERO_NOISE, rng)
    assert mean_discrepancy(t @ x_prev, x_now) < 1e-12


def test_synthetic_transition_noise_covariance(rng):
    # Empirical perturbation covariance against the requested diagonal.
    # Draw count trimmed below the nominal 1e5; the 5% band is still far
    # outside sampling noise at this size.
    x_prev = random_pose(rng, rho_scale=1.0, phi_cap=0.5)
    x_now = random_pose(rng, rho_scale=1.0, phi_cap=0.5)
    delta_inv = (x_now @ x_prev.inverse()).inverse()
    noise = default_dynamics_noise(0.3)
    n = 40000
    draws = np.empty((n, 6))
    for i in range(n):
        t = synthetic_transition(x_prev, x_now, noise, rng)
        draws[i] = log(t @ delta_inv)
    expected = noise.cov
    emp = np.cov(draws.T)
    assert np.linalg.norm(emp - expected) / np.linalg.norm(expected) < 0.05


# ----------------------------------------------------------- filter study

def test_filter_study_inf_row_is_raw_mae(rng):
    pairs = make_study_sequence(200, rng)
    table = filter_study(pairs, (math.inf,), seed=0)
    raw = np.zeros(6)
    for x_true, obs in pairs:
        raw += np.abs(log(obs.mean) - log(x_true))
    raw /= len(pairs)
    assert np.array_equal(table[math.inf], raw)


def test_filter_study_improves_on_raw(rng):
    pairs = make_study_sequence(400, rng)
    table = filter_study(pairs, (0.01, math.inf), seed=3)
    assert np.all(table[0.01] < table[math.inf])


def test_filter_study_deterministic(rng):
    pairs = make_study_sequence(120, rng)
    t1 = filter_study(pairs, (1.0, math.inf), seed=7)
    t2 = filter_study(pairs, (1.0, math.inf), seed=7)
    for k in t1:
        assert np.array_equal(t1[k], t2[k])


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("grid", [(10.0, 1.0, 0.1, 0.01, math.inf), (0.01,)],
                         ids=["shipped_grid", "one_row"])
def test_filter_study_lockstep_matches_per_row(grid, seed):
    # Lockstep stacks the rows, so its arithmetic may round differently
    # from the per-row reference; the tolerance was fixed beforehand.
    pairs = make_study_sequence(150, np.random.default_rng(seed))
    lockstep = filter_study(pairs, grid, seed=seed)
    per_row = filter_study_per_row(pairs, grid, seed=seed)
    assert list(lockstep) == list(per_row)
    for sigma in grid:
        np.testing.assert_allclose(lockstep[sigma], per_row[sigma], rtol=1e-12, atol=0)


def test_filter_study_needs_sequence():
    with pytest.raises(ValueError):
        filter_study([], (1.0,), seed=0)


def test_write_study_csv_layout(tmp_path, rng):
    pairs = make_study_sequence(60, rng)
    table = filter_study(pairs, (1.0, math.inf), seed=0)
    path = tmp_path / "study.csv"
    write_study_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sigma_psi,v_x,v_y,v_z,omega_x,omega_y,omega_z"
    assert len(lines) == 3
    assert lines[-1].startswith("inf,")
    # %.17g cells must round-trip exactly
    row = lines[1].split(",")
    assert float(row[0]) == 1.0
    assert np.array_equal(np.array([float(c) for c in row[1:]]), table[1.0])
