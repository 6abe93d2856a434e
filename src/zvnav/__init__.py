"""Adaptive zero-velocity-aided inertial navigation toolkit.

A strapdown error-state EKF with zero-velocity updates, windowed stance
detection with per-motion thresholds, F-beta threshold optimization against
motion-capture ground truth, from-scratch RBF-SVM motion classification that
switches detector thresholds at runtime, marker surveying utilities and an
end-to-end trial evaluation harness, all validated against a built-in
synthetic gait oracle. Import each name from the module that defines it,
e.g. ``from zvnav.simulate import simulate``.
"""

__version__ = "0.1.0"
