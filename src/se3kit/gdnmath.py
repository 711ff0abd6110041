"""Numerics behind the pose-regression head: stable softplus/softbound,
loss and error metrics for twist labels, and the contact-pose sampling and
labelling pipeline used to build synthetic datasets.

No network lives here; HeteroPrediction is the data contract a trained
predictor would satisfy, so the losses are testable on synthetic outputs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .liegroup import euler_to_pose, log

# Inverse standard deviations a heteroscedastic head may emit.  Outside this
# range the NLL gradient saturates or the quadratic term overflows.
_INV_SIGMA_MIN = 1e-6
_INV_SIGMA_MAX = 1e6

# Ranges of the random contact poses sample_contact_pose draws: (x, y)
# over a disk of this radius (mm), depth z (mm), tilt-cap half-angle and
# spin gamma (degrees).
_SAMPLE_R_MAX = 5.0
_SAMPLE_Z_MIN, _SAMPLE_Z_MAX = 0.5, 6.0
_SAMPLE_PHI_MAX_DEG = 25.0
_SAMPLE_GAMMA_MIN_DEG, _SAMPLE_GAMMA_MAX_DEG = -5.0, 5.0

# Rotation residuals are ~100x smaller than translation residuals in native
# units; these weights level the two groups in the MSE loss.
DEFAULT_LOSS_WEIGHTS = np.array([1.0, 1.0, 1.0, 100.0, 100.0, 100.0])


@dataclasses.dataclass(frozen=True)
class SoftboundParams:
    x_min: float
    x_max: float

    def __post_init__(self):
        if not self.x_max >= self.x_min:
            raise ValueError("x_max must be >= x_min")


@dataclasses.dataclass(frozen=True)
class HeteroPrediction:
    """Mean twist prediction plus per-component inverse standard deviations."""

    mu: np.ndarray
    inv_sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        inv_sigma = np.asarray(self.inv_sigma, dtype=float)
        if mu.shape != (6,) or inv_sigma.shape != (6,):
            raise ValueError("mu and inv_sigma must be 6-vectors")
        if np.any(inv_sigma < _INV_SIGMA_MIN) or np.any(inv_sigma > _INV_SIGMA_MAX):
            raise ValueError(
                f"inv_sigma must lie within [{_INV_SIGMA_MIN}, {_INV_SIGMA_MAX}]"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "inv_sigma", inv_sigma)


def softplus_stable(x: float) -> float:
    """ln(1 + e^x) without overflow: max(0, x) + log1p(e^-|x|)."""
    x = float(x)
    return max(0.0, x) + math.log1p(math.exp(-abs(x)))


def softbound(x: float, p: SoftboundParams) -> float:
    """Smooth clamp of x into (x_min, x_max).

    Equivalent to x_min + softplus(x - x_min) - softplus(x - x_max), but
    each saturation regime is evaluated with the bound as the leading term
    and only decaying corrections added, so the value stays finite and
    monotone out to the largest floats.  The return value is nudged inside
    the open interval at float resolution, matching the strict-range
    property the exact function has.
    """
    x = float(x)
    lo, hi = p.x_min, p.x_max
    w = hi - lo
    k = math.exp(-w)
    c = -math.expm1(-w)  # 1 - e^-w, the saturation gap factor
    if x <= lo:
        a = math.exp(x - lo)
        # lo + log1p(c / (k + 1/a)); a -> 0 gives 1/a = inf and the bound.
        val = lo if a == 0.0 else lo + math.log1p(c / (k + 1.0 / a))
    elif x >= hi:
        b = math.exp(hi - x)
        val = hi if b == 0.0 else hi - math.log1p(c / (k + 1.0 / b))
    else:
        val = x + math.log1p(math.exp(lo - x)) - math.log1p(math.exp(x - hi))
    inner_lo = math.nextafter(lo, math.inf)
    inner_hi = math.nextafter(hi, -math.inf)
    return min(max(val, inner_lo), inner_hi)


def _check_pair(labels, preds):
    labels = np.asarray(labels, dtype=float)
    preds = np.asarray(preds, dtype=float)
    if labels.ndim == 1:
        labels = labels[None, :]
    if preds.ndim == 1:
        preds = preds[None, :]
    if labels.shape != preds.shape or labels.shape[1] != 6:
        raise ValueError(
            f"labels and predictions must both be (N, 6), got {labels.shape} and {preds.shape}"
        )
    return labels, preds


def weighted_mse(labels, preds, alpha=None) -> float:
    """(1/N) sum_i sum_j alpha_j (label_ij - pred_ij)^2."""
    labels, preds = _check_pair(labels, preds)
    alpha = DEFAULT_LOSS_WEIGHTS if alpha is None else np.asarray(alpha, dtype=float)
    if alpha.shape != (6,):
        raise ValueError("alpha must be a 6-vector")
    sq = (labels - preds) ** 2
    return float(np.sum(sq @ alpha) / labels.shape[0])


def mean_nll(labels, preds) -> float:
    """Mean negative log likelihood of diagonal-Gaussian predictions.

    (M/2) ln 2pi + (1/2N) sum_i sum_j [(inv_sigma_ij (label_ij - mu_ij))^2
    - 2 ln inv_sigma_ij], M = 6.  With all inv_sigma = 1 this reduces to
    3 ln 2pi plus half the unweighted MSE.
    """
    if isinstance(preds, HeteroPrediction):
        preds = [preds]
    preds = list(preds)
    labels = np.asarray(labels, dtype=float)
    if labels.ndim == 1:
        labels = labels[None, :]
    if labels.shape != (len(preds), 6):
        raise ValueError(
            f"got {len(preds)} predictions for labels of shape {labels.shape}"
        )
    mu = np.stack([pr.mu for pr in preds])
    inv_sigma = np.stack([pr.inv_sigma for pr in preds])
    quad = (inv_sigma * (labels - mu)) ** 2
    core = float(np.sum(quad - 2.0 * np.log(inv_sigma)))
    n = labels.shape[0]
    return 3.0 * math.log(2.0 * math.pi) + core / (2.0 * n)


def sample_contact_pose(rng: np.random.Generator) -> np.ndarray:
    """Draw one random contact pose as (x, y, z, alpha, beta, gamma).

    Positions in mm, angles in rad.  (x, y) is uniform over a disk of
    radius 5 mm; z uniform over [0.5, 6] mm; the tilt axis direction is
    uniform over a spherical cap of half-angle 25 degrees (uniform in solid
    angle, hence the arccos warp); gamma uniform over [-5, 5] degrees.
    """
    r = _SAMPLE_R_MAX * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    x = r * math.cos(theta)
    y = r * math.sin(theta)
    z = _SAMPLE_Z_MIN + (_SAMPLE_Z_MAX - _SAMPLE_Z_MIN) * rng.random()
    cos_phi_max = math.cos(math.radians(_SAMPLE_PHI_MAX_DEG))
    phi = math.acos(1.0 - (1.0 - cos_phi_max) * rng.random())
    theta_cap = 2.0 * math.pi * rng.random()
    cx = math.sin(phi) * math.cos(theta_cap)
    cy = math.sin(phi) * math.sin(theta_cap)
    cz = math.cos(phi)
    alpha = -math.asin(cy)
    beta = -math.atan2(cx, cz)
    gamma = math.radians(
        _SAMPLE_GAMMA_MIN_DEG + (_SAMPLE_GAMMA_MAX_DEG - _SAMPLE_GAMMA_MIN_DEG) * rng.random()
    )
    return np.array([x, y, z, alpha, beta, gamma])


def label_pipeline(euler) -> np.ndarray:
    """Euler contact pose to regression label: invert, then take the log.

    The sampled pose describes the feature seen from the surface-side
    convention; the network regresses the sensor-side twist, so the pose is
    inverted before conversion to exponential coordinates.  A stack of
    poses (..., 6) is labelled in one stacked pass, equal bit for bit to
    labelling each pose alone.
    """
    euler = np.asarray(euler, dtype=float)
    if euler.shape[-1:] != (6,):
        raise ValueError(f"euler must be a 6-vector or a stack (..., 6), got {euler.shape}")
    x_fs = euler_to_pose(*np.moveaxis(euler, -1, 0))
    return log(x_fs.inverse())
