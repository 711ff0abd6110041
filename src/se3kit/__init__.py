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
    from_global_tangent,
    fuse,
    gaussian_fusion_with_prior,
    gaussian_product,
    linear_gaussian_transform,
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
    pose_error_global,
    pose_error_local,
    preset,
    preset_names,
    push_step,
    servo_step,
    tangent_error_global,
    tangent_error_local,
)
from .gdnmath import (
    DEFAULT_LOSS_WEIGHTS,
    HeteroPrediction,
    SampleSpec,
    SoftboundParams,
    label_pipeline,
    mae_per_component,
    mean_nll,
    sample_contact_pose,
    softbound,
    softplus_stable,
    weighted_mse,
)
from .sim import (
    DEFAULT_OBSERVATION_STD,
    ObservationModel,
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
    "EuclideanGaussian", "PoseGaussian", "density", "from_global_tangent",
    "fuse", "gaussian_fusion_with_prior", "gaussian_product",
    "linear_gaussian_transform", "sample", "to_global_tangent", "transform",
    "DEPLOYMENT_SIGMA", "DynamicsNoise", "FilterState",
    "default_dynamics_noise", "filter_study", "init", "step",
    "synthetic_transition", "write_study_csv",
    "PidConfig", "PidState", "PushConfig", "ServoConfig", "pid_step",
    "pose_error_global", "pose_error_local", "preset", "preset_names",
    "push_step", "servo_step", "tangent_error_global", "tangent_error_local",
    "DEFAULT_LOSS_WEIGHTS", "HeteroPrediction", "SampleSpec",
    "SoftboundParams", "label_pipeline", "mae_per_component", "mean_nll",
    "sample_contact_pose", "softbound", "softplus_stable", "weighted_mse",
    "DEFAULT_OBSERVATION_STD", "ObservationModel", "PushedObject",
    "Scenario", "SurfaceModel", "TrajectoryLog", "bearing_sensitivity",
    "contact_pose", "leader_twist", "make_study_sequence", "observe",
    "push_object_step", "run_scenario", "write_metrics_json",
    "__version__",
]
