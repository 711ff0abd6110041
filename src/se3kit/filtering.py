"""Discriminative Bayesian filtering of sensor-surface poses.

The tracked quantity is the contact-feature pose expressed in the sensor
frame.  Each step first predicts through the proprioceptive sensor motion
delta T = (X_now)^-1 X_prev with additive dynamics noise, then corrects by
fusing the current pose observation into the predicted belief.

filter_study sweeps the dynamics-noise level over a synthetic sequence and
tabulates per-component mean absolute errors; the "inf" row bypasses the
filter entirely and reports the raw observation error.  The finite rows run
in lockstep as one stack of beliefs, one element per noise level.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys

import numpy as np

from .liegroup import Pose, exp, log
from .uncertainty import PoseGaussian, fuse, transform

# Dynamics noise level used in deployment.  The rotational block of the
# noise covariance is scaled by (pi/180)^2 so one sigma unit reads as
# "mm of translation or degrees of rotation per step".
DEPLOYMENT_SIGMA = 0.5

_DEG = math.pi / 180.0


@dataclasses.dataclass(frozen=True)
class DynamicsNoise:
    """Additive tangent-space noise covariance for the prediction step, or a
    stack of them (..., 6, 6)."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape[-2:] != (6, 6):
            raise ValueError(f"noise covariance must be 6x6, got {cov.shape}")
        if not np.allclose(cov, cov.swapaxes(-1, -2), atol=1e-9):
            raise ValueError("noise covariance must be symmetric")
        # PSD up to round-off; zero is a legitimate noise level.
        if np.linalg.eigvalsh(cov).min() < -1e-9:
            raise ValueError("noise covariance must be positive semidefinite")
        object.__setattr__(self, "cov", cov)


@dataclasses.dataclass(frozen=True)
class FilterState:
    belief: PoseGaussian
    prev_sensor_pose: Pose


def default_dynamics_noise(sigma) -> DynamicsNoise:
    """Isotropic-per-block dynamics noise: sigma^2 on translation entries,
    (sigma * pi/180)^2 on rotation entries.  A sequence of sigmas gives a
    stack of covariances, one per level."""
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing square is rejected below
        t = sigma * sigma
    if not np.all((sigma > 0) & (t <= sys.float_info.max)):
        raise ValueError(f"sigma must be positive with a finite square, got {sigma}")
    r = t * _DEG * _DEG
    cov = np.zeros(sigma.shape + (6, 6))
    cov[..., range(6), range(6)] = np.stack([t, t, t, r, r, r], axis=-1)
    return DynamicsNoise(cov)


def init(obs: PoseGaussian, sensor_pose: Pose) -> FilterState:
    """Start a filter: the first observation is taken as the belief."""
    return FilterState(belief=obs, prev_sensor_pose=sensor_pose)


def _predict_correct(belief: PoseGaussian, obs: PoseGaussian, transition: Pose,
                     noise: DynamicsNoise) -> PoseGaussian:
    predicted = transform(belief, transition, noise.cov)
    # Observation first: the fusion fixed point is initialized at the
    # observation mean, which is the better-conditioned anchor when the
    # prediction has drifted.
    return fuse(obs, predicted)


def step(state: FilterState, obs: PoseGaussian, sensor_pose_now: Pose,
         noise: DynamicsNoise) -> FilterState:
    """One predict + correct cycle driven by proprioception.

    The tracked pose composes as x_now = T x_prev with
    T = (sensor_now)^-1 sensor_prev, so a pure sensor motion moves the
    belief mean without touching the scene.
    """
    transition = sensor_pose_now.inverse() @ state.prev_sensor_pose
    belief = _predict_correct(state.belief, obs, transition, noise)
    return FilterState(belief=belief, prev_sensor_pose=sensor_pose_now)


def synthetic_transition(x_prev: Pose, x_now: Pose, noise: DynamicsNoise,
                         rng: np.random.Generator) -> Pose:
    """True transition between two poses, perturbed by dynamics noise.

    Returns exp(psi^) x_now x_prev^-1 with psi = sqrt(diag(noise.cov)) * z,
    z ~ N(0, I_6).  For a stack of noise levels one z is drawn and scaled
    per level, giving a stack of transitions.  Zero noise gives the exact
    delta and consumes no randomness.
    """
    delta = x_now @ x_prev.inverse()
    if not noise.cov.any():
        return delta
    std = np.sqrt(np.diagonal(noise.cov, axis1=-2, axis2=-1))
    return exp(std * rng.standard_normal(6)) @ delta


def filter_study(pairs, sigma_grid, seed: int = 0) -> dict:
    """Sweep the dynamics-noise level over a (true pose, observation) sequence.

    For each finite sigma_psi the filter runs with transitions synthesized
    at that noise level and a matching prediction noise covariance; rows
    with sigma_psi = inf bypass the filter (belief := observation).  Every
    row uses the same seed, so the underlying standard-normal draws are
    common across rows and differ only by scale: the finite rows therefore
    run in lockstep, one stacked belief per step, fed by one draw.

    Returns a dict mapping each sigma_psi to the 6-vector of per-component
    mean absolute errors of the filtered mean, measured in exponential
    coordinates against the true poses.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("filter_study needs at least two (pose, observation) pairs")
    true_logs = log(Pose.stack(x for x, _ in pairs))
    obs_logs = log(Pose.stack(obs.mean for _, obs in pairs))
    raw = np.abs(obs_logs - true_logs).sum(axis=0) / len(pairs)

    finite = [s for s in sigma_grid if not math.isinf(s)]
    rows = {}
    if finite:
        rng = np.random.default_rng(seed)
        noise = default_dynamics_noise(finite)
        belief = pairs[0][1]
        abs_err = np.abs(obs_logs[0] - true_logs[0])
        for (prev_true, _), (x_true, obs), true_log in zip(pairs, pairs[1:], true_logs[1:]):
            transition = synthetic_transition(prev_true, x_true, noise, rng)
            belief = _predict_correct(belief, obs, transition, noise)
            abs_err = abs_err + np.abs(log(belief.mean) - true_log)
        rows = dict(zip(finite, abs_err / len(pairs)))
    return {s: raw if math.isinf(s) else rows[s] for s in sigma_grid}


def write_study_csv(table: dict, path) -> None:
    """Write a filter_study table: one row per sigma_psi, six MAE columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_psi", "v_x", "v_y", "v_z",
                         "omega_x", "omega_y", "omega_z"])
        for sigma_psi, mae in table.items():
            label = "inf" if math.isinf(sigma_psi) else f"{sigma_psi:.17g}"
            writer.writerow([label] + [f"{v:.17g}" for v in mae])
