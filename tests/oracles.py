"""Derivative-free reference computations used by several test modules.

These deliberately avoid the library's own series shortcuts: the fusion
oracle climbs the true product density with coordinate descent, seeded by
a plain Euclidean Gaussian product in the tangent chart, and the left
Jacobian is integrated by quadrature rather than summed.  The per-row
filter study and the per-pair fusion histogram run one single pose at a
time, as the references for the stacked filtering.filter_study and
fusion-bench, and the quaternion of one rotation on Python floats is the
reference for the trajectory log's stacked sim._quaternions.
"""

import math

import numpy as np

from se3kit.filtering import default_dynamics_noise, synthetic_transition
from se3kit.liegroup import adjoint, exp, log
from se3kit.uncertainty import (EuclideanGaussian, PoseGaussian, _fuse_iterates, density, fuse,
                                transform)


def quadrature_left_jacobian(xi, nodes=48):
    """J(xi) = integral_0^1 Ad(exp(s xi)) ds by Gauss-Legendre."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    acc = np.zeros((6, 6))
    for si, wi in zip(s, w):
        acc += wi * adjoint(exp(si * np.asarray(xi, dtype=float)))
    return acc


def from_global_tangent(eg: EuclideanGaussian) -> PoseGaussian:
    """Inverse of uncertainty.to_global_tangent: mean = exp(mu),
    cov = J(mu) cov_hat J(mu)', with J by quadrature."""
    jac = quadrature_left_jacobian(eg.mean)
    cov = jac @ eg.cov @ jac.T
    return PoseGaussian(exp(eg.mean), 0.5 * (cov + cov.T))


def product_mode_oracle(a: PoseGaussian, b: PoseGaussian,
                        sweeps: int = 80, step0: float = 0.02):
    """Mode of density_a * density_b, located numerically.

    Works in the left tangent chart anchored at a.mean, where factor a is
    exactly N(0, cov_a) times the chart correction.  Coordinate descent
    with per-axis step halving needs nothing from the fusion code under
    test beyond density evaluation.
    """
    delta_b = log(b.mean @ a.mean.inverse())

    def objective(d):
        x = exp(d) @ a.mean
        return math.log(density(a, x)) + math.log(density(b, x))

    # Euclidean-product seed: both factors treated as chart Gaussians.
    pa = np.linalg.inv(a.cov)
    pb = np.linalg.inv(b.cov)
    delta = np.linalg.solve(pa + pb, pb @ delta_b)

    best = objective(delta)
    step = np.full(6, step0)
    for _ in range(sweeps):
        for i in range(6):
            moved = False
            for sgn in (1.0, -1.0):
                trial = delta.copy()
                trial[i] += sgn * step[i]
                val = objective(trial)
                if val > best:
                    delta, best = trial, val
                    moved = True
                    break
            if not moved:
                step[i] *= 0.5
        if step.max() < 1e-12:
            break
    return exp(delta) @ a.mean


def mean_discrepancy(x, y) -> float:
    """Tangent-space distance between two poses."""
    return float(np.linalg.norm(log(x @ y.inverse())))


def filter_study_per_row(pairs, sigma_grid, seed: int = 0) -> dict:
    """filtering.filter_study one sigma row after another, each row with a
    generator of its own seeded with `seed`, on single poses only."""
    pairs = list(pairs)
    true_logs = [log(x) for x, _ in pairs]
    table = {}
    for sigma_psi in sigma_grid:
        rng = np.random.default_rng(seed)
        abs_err = np.zeros(6)
        if math.isinf(sigma_psi):
            for (_, obs), true_log in zip(pairs, true_logs):
                abs_err += np.abs(log(obs.mean) - true_log)
            table[sigma_psi] = abs_err / len(pairs)
            continue
        noise = default_dynamics_noise(sigma_psi)
        belief = pairs[0][1]
        abs_err += np.abs(log(belief.mean) - true_logs[0])
        prev_true = pairs[0][0]
        for (x_true, obs), true_log in zip(pairs[1:], true_logs[1:]):
            transition = synthetic_transition(prev_true, x_true, noise, rng)
            belief = fuse(obs, transform(belief, transition, noise.cov))
            abs_err += np.abs(log(belief.mean) - true_log)
            prev_true = x_true
        table[sigma_psi] = abs_err / len(pairs)
    return table


def fusion_histogram_per_pair(pairs) -> dict:
    """fusion-bench's histogram one pair at a time: the passes each pair's
    own single fuse runs before it stops."""
    histogram = {str(k): 0 for k in range(1, 6)}
    for a, b in pairs:
        for _, _, passes in _fuse_iterates(a, b):
            pass
        histogram[str(passes)] += 1
    return histogram


def _quaternion_from_rotation(r: np.ndarray) -> list:
    """Unit quaternion [w, x, y, z] with w >= 0 of one rotation, as floats,
    one branch on Python floats: the bits sim._quaternions must give each
    rotation of a stack.  The trace sums (r00 + r11) + r22."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    t = r00 + r11 + r22
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif r00 > r11 and r00 > r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif r11 > r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    q = np.array(q)
    q = q / math.sqrt(q.dot(q))
    if q[0] < 0:
        q = -q
    return q.tolist()
