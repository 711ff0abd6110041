"""Concentrated Gaussian distributions on SE(3).

A PoseGaussian stores a mean pose X̄ and a 6x6 covariance of the left
perturbation: X = exp(eps^) X̄ with eps ~ N(0, cov).  The distribution is
only approximately Gaussian in any chart; `density` carries the Jacobian
determinant correction, and `fuse` runs the fixed-point iteration that
merges two such distributions.  `EuclideanGaussian`, `to_global_tangent`
and `gaussian_product` are the flat-space forms the SE(3) versions
collapse to for tiny covariances.

PoseGaussian, transform and fuse also take stacks: a stacked mean pose
with covariances (..., 6, 6), where a single distribution or transform
broadcasts against a stack.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .errors import CovarianceError
from .liegroup import Pose, adjoint, exp, inv_left_jacobian, left_jacobian, log, matvec

# Fixed-point iteration budget for fuse(); convergence is typically reached
# in 3-4 steps for concentrated inputs.
_FUSE_ITERATIONS = 5

# fuse() warns when the top eigenvalue of a rotation block (rad^2) exceeds
# this.  The distribution is a Gaussian on the left tangent chart, and log is
# single-valued only for rotations below pi: keeping three standard
# deviations of the widest rotation direction inside that branch
# (3 sigma < pi) leaves about 0.3 % of the mass along it to wrap past pi.
# The translation block (mm^2) is not compared, because exp is linear in
# translation for a given rotation and mm^2 and rad^2 cannot share a limit.
_ROTATION_VARIANCE_LIMIT = (math.pi / 3.0) ** 2


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def _stack_label(mask: np.ndarray) -> str:
    """'' for a single distribution, else the index of the first True."""
    return "" if mask.ndim == 0 else str(np.argwhere(mask)[0].tolist())


def _as_cov(cov, batch: tuple) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != batch + (6, 6):
        raise ValueError(f"covariance must be 6x6 per mean pose, got {cov.shape} "
                         f"for mean stack shape {batch}")
    # an entry that overflows here is rejected as not finite just below
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _symmetrize(cov)
    if not np.isfinite(cov).all():
        where = _stack_label(~np.isfinite(cov).all(axis=(-2, -1)))
        what = f"covariance of stack element {where}" if where else "covariance"
        raise CovarianceError(f"{what} is not finite")
    return cov


@dataclasses.dataclass(frozen=True)
class PoseGaussian:
    """Pose distribution X = exp(eps^) mean, eps ~ N(0, cov); a stacked mean
    takes covariances (..., 6, 6).  Raises CovarianceError when a covariance
    is not finite."""

    mean: Pose
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cov", _as_cov(self.cov, self.mean.rotation.shape[:-2]))

    @classmethod
    def stack(cls, gaussians) -> "PoseGaussian":
        """One stacked PoseGaussian from a sequence of single ones."""
        gaussians = list(gaussians)
        return cls(Pose.stack(g.mean for g in gaussians),
                   np.stack([g.cov for g in gaussians]))


@dataclasses.dataclass(frozen=True)
class EuclideanGaussian:
    """Ordinary Gaussian over twist coordinates.

    Any dimension is allowed (gaussian_product is dimension-agnostic);
    to_global_tangent produces six components.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1 or mean.size == 0:
            raise ValueError(f"mean must be a 1-D vector, got shape {mean.shape}")
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov must be {mean.size}x{mean.size}, got {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("cov must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _symmetrize(cov))


def _cholesky(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as err:
        raise CovarianceError(f"{what} is not positive definite") from err


def density(pg: PoseGaussian, x: Pose) -> float:
    """Probability density of pose x under the concentrated Gaussian.

    Evaluates beta(eps) * exp(-1/2 eps' Sigma^-1 eps) with
    eps = log(x mean^-1) and beta = eta / |det J(eps)|; eta is the ordinary
    6-D Gaussian normalizer of Sigma.  The Jacobian factor is what makes
    the distribution integrate to one over the group rather than the chart.
    """
    chol = _cholesky(pg.cov, "covariance")
    eps = log(x @ pg.mean.inverse())
    # Mahalanobis via triangular solve; avoids forming Sigma^-1.
    w = np.linalg.solve(chol, eps)
    quad = float(w @ w)
    log_det_cov = 2.0 * float(np.sum(np.log(np.diag(chol))))
    log_eta = -3.0 * math.log(2.0 * math.pi) - 0.5 * log_det_cov
    det_jac = abs(float(np.linalg.det(left_jacobian(eps))))
    return math.exp(log_eta - 0.5 * quad) / det_jac


def sample(pg: PoseGaussian, rng: np.random.Generator) -> Pose:
    """Draw one pose: eps ~ N(0, cov) via Cholesky, return exp(eps^) mean."""
    chol = _cholesky(pg.cov, "covariance")
    eps = chol @ rng.standard_normal(6)
    return exp(eps) @ pg.mean


def to_global_tangent(pg: PoseGaussian) -> EuclideanGaussian:
    """Re-express the distribution in the tangent chart at identity.

    mu = log(mean); the left perturbation covariance maps through the
    inverse left Jacobian: cov_hat = J^-1(mu) cov J^-T(mu).
    """
    mu = log(pg.mean)
    jac = left_jacobian(mu)
    half = np.linalg.solve(jac, pg.cov)
    cov_hat = np.linalg.solve(jac, half.T).T
    return EuclideanGaussian(mu, _symmetrize(cov_hat))


def transform(pg: PoseGaussian, t: Pose, noise_cov=None) -> PoseGaussian:
    """Push the distribution through a known transform with additive noise.

    mean' = t mean; cov' = Ad(t) cov Ad(t)' + noise_cov.  This is the
    prediction step of the filter written as one closed-form conjugation.
    Stacks broadcast; CovarianceError when cov' overflows.
    """
    adj = adjoint(t)
    # a covariance that overflows is rejected by PoseGaussian as not finite
    with np.errstate(over="ignore"):
        cov = adj @ pg.cov @ adj.swapaxes(-1, -2)
        if noise_cov is not None:
            cov = cov + np.asarray(noise_cov, dtype=float)
    return PoseGaussian(t @ pg.mean, cov)


def _inverse(m: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as err:
        raise CovarianceError(f"{what} is singular") from err


def fuse(a: PoseGaussian, b: PoseGaussian,
         iterations: int = _FUSE_ITERATIONS) -> PoseGaussian:
    """Merge two concentrated Gaussians by fixed-point iteration.

    Starting from X̄ = a.mean, each pass linearizes both factors about the
    trial solution (xi_k = log(X̄ X̄_k^-1), J_k^-1 truncated at second
    order), solves the resulting weighted least-squares problem for the
    correction mu, and re-anchors X̄ = exp(mu^) X̄.  Runs a fixed number of
    iterations and returns the covariance computed at the last one.
    Stacked inputs fuse element by element, a single input broadcasting
    against a stack.

    Warns, naming the input and its first such element, when the rotation
    block of an input covariance has an eigenvalue above (pi/3)^2 rad^2:
    the concentrated assumption starts to break down there.  Raises
    CovarianceError when a covariance or the fused information matrix is
    singular (and, through PoseGaussian, when one is not finite).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    for name, g in (("a", a), ("b", b)):
        top = np.linalg.eigvalsh(g.cov[..., 3:, 3:])[..., -1]
        wide = top > _ROTATION_VARIANCE_LIMIT
        if wide.any():
            more = int(np.count_nonzero(wide)) - 1
            label = name + _stack_label(wide) + (f" (and {more} more elements)" if more else "")
            warnings.warn(
                f"fuse input {label} has rotation variance {top[wide][0]:.3g} rad^2 > "
                f"{_ROTATION_VARIANCE_LIMIT:.3g} rad^2; concentrated-Gaussian "
                "assumptions may not hold",
                stacklevel=2,
            )

    inv_means = (a.mean.inverse(), b.mean.inverse())
    precs = [_symmetrize(_inverse(g.cov, "fuse input covariance")) for g in (a, b)]
    mean = a.mean
    for _ in range(iterations):
        h = rhs = 0.0
        for inv_mean, prec in zip(inv_means, precs):
            xi = log(mean @ inv_mean)
            j_inv = inv_left_jacobian(xi)
            w = j_inv.swapaxes(-1, -2) @ prec
            h = h + w @ j_inv
            rhs = rhs + matvec(w, xi)
        cov = _symmetrize(_inverse(h, "fused information matrix"))
        mu = -matvec(cov, rhs)
        mean = exp(mu) @ mean
    return PoseGaussian(mean, cov)


def gaussian_product(a: EuclideanGaussian, b: EuclideanGaussian) -> EuclideanGaussian:
    """Normalized product of two Gaussians over the same variable."""
    prec_a = np.linalg.inv(a.cov)
    prec_b = np.linalg.inv(b.cov)
    cov = _symmetrize(np.linalg.inv(prec_a + prec_b))
    mean = cov @ (prec_a @ a.mean + prec_b @ b.mean)
    return EuclideanGaussian(mean, cov)
