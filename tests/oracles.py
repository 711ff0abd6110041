"""Derivative-free reference computations used by several test modules.

These deliberately avoid the library's own series shortcuts: the fusion
oracle climbs the true product density with coordinate descent, seeded by
a plain Euclidean Gaussian product in the tangent chart.
"""

import math

import numpy as np

from se3kit.liegroup import exp, log
from se3kit.uncertainty import PoseGaussian, density


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
