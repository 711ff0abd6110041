import numpy as np
import pytest

from se3kit.liegroup import Pose, exp
from se3kit.uncertainty import PoseGaussian

# Rotation magnitudes stay inside the principal branch with margin so
# roundtrip tests never trip the near-pi guard.
ROT_CAP = 2.8


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_twist(rng, rho_scale=5.0, phi_cap=ROT_CAP):
    rho = rng.uniform(-rho_scale, rho_scale, 3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    phi = axis * rng.uniform(0.0, phi_cap)
    return np.concatenate([rho, phi])


def random_pose(rng, rho_scale=5.0, phi_cap=ROT_CAP) -> Pose:
    return exp(random_twist(rng, rho_scale, phi_cap))


def random_spd(rng, n=6, lo=0.01, hi=0.5) -> np.ndarray:
    """Random SPD matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def oracle_fusion_pairs(n=100, seed=2024):
    """Acceptance criterion 2's fusion pairs: a base pose within 50 mm and
    0.5 rad per axis, the second mean 0.08 per twist coordinate away from it,
    covariance eigenvalues in [0.005, 0.1]."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        base = exp(np.concatenate([rng.uniform(-50, 50, 3), rng.uniform(-0.5, 0.5, 3)]))
        off = exp(0.08 * rng.standard_normal(6))
        pairs.append((PoseGaussian(base, random_spd(rng, lo=0.005, hi=0.1)),
                      PoseGaussian(off @ base, random_spd(rng, lo=0.005, hi=0.1))))
    return pairs
