"""Exception types shared across the toolkit.

Math-domain violations subclass ValueError so callers that treat bad inputs
generically keep working; runtime loop failures subclass RuntimeError.
"""


class StructureError(ValueError):
    """Matrix does not have the algebraic structure the operation requires."""


class PrincipalBranchError(ValueError):
    """Rotation too close to the 180 degree singularity of the log map."""


class GimbalLockError(ValueError):
    """Euler decomposition is ambiguous because the pitch is near +/-90 deg."""


class ApproximationDomainError(ValueError):
    """Input lies outside the validity domain of a series or differential
    approximation (large BCH argument, oversized pushing step, ...)."""


class CovarianceError(ValueError):
    """Covariance matrix is singular, indefinite, or otherwise unusable."""


class SingularTargetError(ValueError):
    """Pushing target coincides with the contact point; bearing undefined."""


class NoContactError(RuntimeError):
    """Sensor is outside the engagement envelope of the surface."""


class DivergenceError(RuntimeError):
    """A simulation produced NaNs or left the desk-scale workspace."""


class ConfigError(ValueError):
    """Scenario configuration failed validation; message carries diagnostics."""


# Math-domain failures of a run's numbers (not of its config): the CLI
# reports them as divergence, exit code 3.
DOMAIN_ERRORS = (PrincipalBranchError, CovarianceError, ApproximationDomainError)
