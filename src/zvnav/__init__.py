"""Adaptive zero-velocity-aided inertial navigation toolkit.

A strapdown error-state EKF with zero-velocity updates, windowed stance
detection with per-motion thresholds, F-beta threshold optimization against
motion-capture ground truth, from-scratch RBF-SVM motion classification that
switches detector thresholds at runtime, marker surveying utilities and an
end-to-end trial evaluation harness, all validated against a built-in
synthetic gait oracle.
"""
from .core import (
    GRAVITY,
    ImuSample,
    ImuStream,
    Quaternion,
    Se3Transform,
    StepTooLargeError,
    ZvLabelStream,
    gravity_vector,
    omega_update,
    quat_to_rotation,
    se3_compose,
)
from .detector import (
    AdaptiveParams,
    DetectorParams,
    detect,
    detect_adaptive,
    per_sample_statistics,
    shoe_statistic,
    shoe_statistics,
)
from .ekf import (
    EkfConfig,
    ErrorCovariance,
    NavState,
    Trajectory,
    level_from_accel,
    propagate,
    run_ins,
    zupt_update,
)
from .evaluate import (
    TrialReport,
    TriggerLog,
    align_trajectory,
    furthest_point_error,
    marker_layout_from_truth,
    run_trial,
)
from .optimize import (
    AlignedLabels,
    FBetaConfig,
    MocapStream,
    OptimizationFailedError,
    PrCurve,
    UndefinedRecallError,
    align_labels,
    f_beta,
    label_zero_velocity,
    optimize_gamma,
    precision_recall,
)
from .simulate import (
    CLASS_IDS,
    CLASS_NAMES,
    GaitProfile,
    GaitTruth,
    NoiseModel,
    gait_preset,
    piecewise_profile,
    simulate,
)
from .survey import (
    AlignmentResult,
    MarkerMap,
    MarkerObservation,
    RankDeficientError,
    build_map,
    frame_to_frame,
    tag_template,
    umeyama_align,
)
from .svm import (
    LabelStream,
    NormStats,
    SvmModel,
    TrainingFailedError,
    build_windows,
    classify_stream,
    confusion_matrix,
    load_model,
    predict_batch,
    save_model,
    smooth,
    train,
)

__version__ = "0.1.0"
