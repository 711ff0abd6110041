"""Geometric state estimation and tactile servo control on SE(3).

Rigid-body poses with concentrated-Gaussian uncertainty, a discriminative
update filter, tangent-space feedforward-feedback controllers, and a
desk-scale closed-loop simulation with a synthetic contact-pose sensor.
Units throughout: mm, rad, s.
"""

from .errors import (
    ApproximationDomainError,
    ConfigError,
    CovarianceError,
    DivergenceError,
    GimbalLockError,
    NoContactError,
    PrincipalBranchError,
    SingularTargetError,
    StructureError,
)
from .liegroup import (
    Pose,
    ad,
    adjoint,
    bch_compose,
    euler_to_pose,
    exp,
    hat,
    hat3,
    inv_left_jacobian,
    left_jacobian,
    log,
    pose_to_euler,
    vee,
    vee3,
)
from .uncertainty import (
    EuclideanGaussian,
    PoseGaussian,
    density,
    fuse,
    gaussian_product,
    sample,
    to_global_tangent,
    transform,
)
from .filtering import (
    DEPLOYMENT_SIGMA,
    DynamicsNoise,
    FilterState,
    default_dynamics_noise,
    filter_study,
    init,
    step,
    synthetic_transition,
    write_study_csv,
)
from .control import (
    PidConfig,
    PidState,
    PushConfig,
    ServoConfig,
    pid_step,
    preset,
    push_step,
    servo_step,
)
from .gdnmath import (
    DEFAULT_LOSS_WEIGHTS,
    HeteroPrediction,
    SoftboundParams,
    label_pipeline,
    mean_nll,
    sample_contact_pose,
    softbound,
    softplus_stable,
    weighted_mse,
)
from .sim import (
    DEFAULT_OBSERVATION_STD,
    PushedObject,
    Scenario,
    SurfaceModel,
    TrajectoryLog,
    bearing_sensitivity,
    contact_pose,
    leader_twist,
    make_study_sequence,
    observe,
    push_object_step,
    run_scenario,
    run_scenarios,
    write_metrics_json,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationDomainError", "ConfigError", "CovarianceError",
    "DivergenceError", "GimbalLockError", "NoContactError",
    "PrincipalBranchError", "SingularTargetError", "StructureError",
    "Pose", "ad", "adjoint", "bch_compose", "euler_to_pose",
    "exp", "hat", "hat3", "inv_left_jacobian", "left_jacobian", "log",
    "pose_to_euler", "vee", "vee3",
    "EuclideanGaussian", "PoseGaussian", "density", "fuse",
    "gaussian_product", "sample", "to_global_tangent", "transform",
    "DEPLOYMENT_SIGMA", "DynamicsNoise", "FilterState",
    "default_dynamics_noise", "filter_study", "init", "step",
    "synthetic_transition", "write_study_csv",
    "PidConfig", "PidState", "PushConfig", "ServoConfig", "pid_step",
    "preset", "push_step", "servo_step",
    "DEFAULT_LOSS_WEIGHTS", "HeteroPrediction", "SoftboundParams",
    "label_pipeline", "mean_nll", "sample_contact_pose", "softbound",
    "softplus_stable", "weighted_mse",
    "DEFAULT_OBSERVATION_STD", "PushedObject",
    "Scenario", "SurfaceModel", "TrajectoryLog", "bearing_sensitivity",
    "contact_pose", "leader_twist", "make_study_sequence", "observe",
    "push_object_step", "run_scenario", "run_scenarios", "write_metrics_json",
    "__version__",
]
