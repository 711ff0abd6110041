"""Concentrated Gaussian distributions on SE(3).

A PoseGaussian stores a mean pose X̄ and a 6x6 covariance of the left
perturbation: X = exp(eps^) X̄ with eps ~ N(0, cov).  The distribution is
only approximately Gaussian in any chart; `density` carries the Jacobian
determinant correction, and `fuse` merges two such distributions by
Gauss-Newton passes, stopping once a pass's correction is below 1e-8.
`EuclideanGaussian`, `to_global_tangent` and `gaussian_product` are the
flat-space forms the SE(3) versions collapse to for tiny covariances.

PoseGaussian, transform and fuse also take stacks: a stacked mean pose
with covariances (..., 6, 6), where a single distribution or transform
broadcasts against a stack.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

import numpy as np

from .errors import CovarianceError
from .liegroup import (Pose, _so3_coefficients, adjoint, exp, inv_left_jacobian,
                       left_jacobian, log, matvec, stack)

# fuse() stops after the first pass whose largest |mu| component is below
# _FUSE_TOL, and never runs more than _FUSE_ITERATIONS passes.  Gauss-Newton
# converges quadratically here: on a track run the largest |mu| per pass has
# median 0.385, 1.05e-5, 4.7e-10, 5.7e-14, 4.0e-16, so a pass below 1e-8
# leaves a next correction near 1e-15.  Concentrated inputs stop after 3
# passes, sometimes 4.
_FUSE_TOL = 1e-8
_FUSE_ITERATIONS = 5

# fuse() warns when the top eigenvalue of a rotation block (rad^2) exceeds
# this.  The distribution is a Gaussian on the left tangent chart, and log is
# single-valued only for rotations below pi: keeping three standard
# deviations of the widest rotation direction inside that branch
# (3 sigma < pi) leaves about 0.3 % of the mass along it to wrap past pi.
# The translation block (mm^2) is not compared, because exp is linear in
# translation for a given rotation and mm^2 and rad^2 cannot share a limit.
_ROTATION_VARIANCE_LIMIT = (math.pi / 3.0) ** 2

# Every eigenvalue of a symmetric block is at most its Frobenius norm in
# magnitude, indefinite blocks included, so fuse runs eigvalsh only on a
# block whose squared Frobenius norm exceeds the limit squared.  The screen
# sits 1e-9 below that, far more than the round-off of either computation,
# so it never passes over a block that eigvalsh would find above the limit.
_ROTATION_SCREEN = _ROTATION_VARIANCE_LIMIT ** 2 * (1.0 - 1e-9)


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
    return _finite(cov)


def _finite(cov: np.ndarray) -> np.ndarray:
    """cov, or CovarianceError naming the first element that is not finite."""
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
    def _symmetric(cls, mean: Pose, cov: np.ndarray) -> "PoseGaussian":
        """A PoseGaussian whose covariances are symmetric by construction and
        shaped for the mean: checked finite, not symmetrized again."""
        g = object.__new__(cls)
        object.__setattr__(g, "mean", mean)
        object.__setattr__(g, "cov", _finite(cov))
        return g

    stack = staticmethod(stack)  # liegroup.stack


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
    # J(eps) is block-triangular with J_SO3 on both diagonal blocks, and
    # det J_SO3 = 2 (1 - cos t) / t^2 = 2 b, so |det J| = (2 b)^2.
    _, b, _ = _so3_coefficients(math.sqrt(float(eps[3:] @ eps[3:])))
    return math.exp(log_eta - 0.5 * quad) / (2.0 * b) ** 2


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


def fuse(a: PoseGaussian, b: PoseGaussian) -> PoseGaussian:
    """Merge two concentrated Gaussians by Gauss-Newton iteration.

    Starting from X̄ = a.mean, each pass linearizes both factors about the
    trial solution (xi_k = log(X̄ X̄_k^-1), J_k^-1 truncated at second
    order), solves the resulting weighted least-squares problem for the
    correction mu, and re-anchors X̄ = exp(mu^) X̄.  Stops after the first
    pass whose largest |mu| component is below 1e-8, or after 5 passes,
    and returns that pass's mean and covariance.  Stacked inputs fuse
    element by element, each element stopping on its own, a single input
    broadcasting against a stack.

    Warns, naming the input and its first such element, when the rotation
    block of an input covariance has an eigenvalue above (pi/3)^2 rad^2:
    the concentrated assumption starts to break down there.  Raises
    CovarianceError when a covariance or the fused information matrix is
    singular (and, through PoseGaussian, when one is not finite).
    """
    for mean, cov, _ in _fuse_iterates(a, b):
        pass
    return PoseGaussian._symmetric(mean, cov)  # _fuse_iterates symmetrized cov


def _largest_frobenius_sq(block: np.ndarray) -> float:
    """Squared Frobenius norm of a 3x3 block, or the largest in a stack; an
    overflow reads inf without a warning."""
    if block.ndim == 2:
        (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = block.tolist()
        return (b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4 + b5 * b5
                + b6 * b6 + b7 * b7 + b8 * b8)
    return float(np.einsum("...ij,...ij->...", block, block).max(initial=0.0))


def _warn_if_wide(name: str, cov: np.ndarray) -> None:
    """Warn, naming the input and its first such element, when a rotation
    block's top eigenvalue exceeds _ROTATION_VARIANCE_LIMIT."""
    block = cov[..., 3:, 3:]
    if _largest_frobenius_sq(block) <= _ROTATION_SCREEN:
        return
    top = np.linalg.eigvalsh(block)[..., -1]
    wide = top > _ROTATION_VARIANCE_LIMIT
    if wide.any():
        more = int(np.count_nonzero(wide)) - 1
        label = name + _stack_label(wide) + (f" (and {more} more elements)" if more else "")
        warnings.warn(
            f"fuse input {label} has rotation variance {top[wide][0]:.3g} rad^2 > "
            f"{_ROTATION_VARIANCE_LIMIT:.3g} rad^2; concentrated-Gaussian "
            "assumptions may not hold",
            stacklevel=4,  # this function, the generator, fuse, then fuse's caller
        )


@functools.lru_cache(maxsize=4)
def _memo_precision(shape: tuple, data: bytes) -> np.ndarray:
    prec = _symmetrize(_inverse(np.frombuffer(data).reshape(shape),
                                "fuse input covariance"))
    prec.flags.writeable = False
    return prec


def _precision(cov: np.ndarray) -> np.ndarray:
    """The symmetrized inverse of a covariance, read-only.  A filter fuses
    every observation with the same covariance, so the last few are kept,
    keyed by shape and bytes: a repeat is a lookup, with the same bits."""
    return _memo_precision(cov.shape, cov.tobytes())


def _linearized(mean: Pose, inv_mean: Pose, prec: np.ndarray):
    """One factor's information J^-T P J^-1 and J^-T P xi about mean."""
    xi = log(mean @ inv_mean)
    j_inv = inv_left_jacobian(xi)
    w = j_inv.swapaxes(-1, -2) @ prec
    return w @ j_inv, matvec(w, xi)


def _fuse_iterates(a: PoseGaussian, b: PoseGaussian, tol: float = _FUSE_TOL):
    """Yield fuse's (mean, cov, passes) after each of its passes, in order;
    the last is fuse's result.  passes counts each element's passes so far.
    An element stops after the first pass whose largest |mu| component is
    below tol, and keeps that pass's mean and covariance while the rest of
    a stack goes on; the loop ends when every element has stopped, or after
    _FUSE_ITERATIONS passes.  tol = 0 runs every element to that cap."""
    _warn_if_wide("a", a.cov)
    _warn_if_wide("b", b.cov)
    inv_a, inv_b = a.mean.inverse(), b.mean.inverse()
    prec_a, prec_b = _precision(a.cov), _precision(b.cov)
    mean = a.mean
    done = np.False_
    passes = 0
    for k in range(_FUSE_ITERATIONS):
        h, rhs = _linearized(mean, inv_b, prec_b)
        if k == 0:
            # at a's own mean, a's residual is 0 and its J^-1 is I
            h = prec_a + h
        else:
            h_a, rhs_a = _linearized(mean, inv_a, prec_a)
            h, rhs = h_a + h, rhs_a + rhs
        new_cov = _symmetrize(_inverse(h, "fused information matrix"))
        mu = -matvec(new_cov, rhs)
        new_mean = exp(mu) @ mean
        if mu.ndim == 1:
            # a single pair, counted and tested on Python scalars; a NaN
            # component fails the test, as it does the stack's max below
            mean, cov, passes = new_mean, new_cov, k + 1
            stop = all(abs(x) < tol for x in mu.tolist())
        else:
            if done.any():
                # elements that stopped at an earlier pass keep that pass
                new_mean = Pose(np.where(done[..., None, None], mean.rotation, new_mean.rotation),
                                np.where(done[..., None], mean.translation, new_mean.translation))
                new_cov = np.where(done[..., None, None], cov, new_cov)
            mean, cov = new_mean, new_cov
            passes = passes + ~done
            done = done | (np.abs(mu).max(axis=-1) < tol)
            stop = done.all()
        yield mean, cov, passes
        if stop:
            return


def gaussian_product(a: EuclideanGaussian, b: EuclideanGaussian) -> EuclideanGaussian:
    """Normalized product of two Gaussians over the same variable."""
    prec_a = np.linalg.inv(a.cov)
    prec_b = np.linalg.inv(b.cov)
    cov = _symmetrize(np.linalg.inv(prec_a + prec_b))
    mean = cov @ (prec_a @ a.mean + prec_b @ b.mean)
    return EuclideanGaussian(mean, cov)
