import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zvnav.core import (
    ImuStream,
    Quaternion,
    Se3Transform,
    _quat_mul,
    quat_to_rotation,
    se3_compose,
)
from zvnav.detector import AdaptiveParams, DetectorParams
from zvnav.ekf import EkfConfig, Workspace, propagate
from zvnav.optimize import FBetaConfig, MocapStream, f_beta
from zvnav.simulate import gait_preset, simulate
from zvnav.svm import load_model, train

from conftest import small_model_dict


def rodrigues(phi):
    """Closed-form rotation-matrix exponential, the oracle for quaternion paths."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    if angle < 1e-15:
        return np.eye(3)
    k = phi / angle
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return Quaternion.from_array(q)


def vectors(bound, n=3):
    return arrays(np.float64, n, elements=st.floats(-bound, bound))


unit_quaternions = vectors(1.0, 4).filter(lambda q: np.linalg.norm(q) > 1e-3).map(
    lambda q: Quaternion.from_array(q / np.linalg.norm(q)))
directions = vectors(1.0).filter(lambda u: np.linalg.norm(u) > 1e-3).map(
    lambda u: u / np.linalg.norm(u))


class TestQuaternion:
    def test_identity_rotation(self):
        assert np.allclose(quat_to_rotation(Quaternion.identity()), np.eye(3))

    def test_90_deg_yaw_maps_x_to_y(self):
        q = Quaternion(math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))
        assert np.allclose(quat_to_rotation(q) @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    @given(unit_quaternions)
    def test_random_quaternions_give_orthonormal_matrices(self, q):
        assert abs(q.norm - 1.0) < 1e-12
        R = quat_to_rotation(q)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(float("nan"), 0, 0, 0)
        with pytest.raises(ValueError):
            quat_to_rotation(Quaternion(1.0, float("inf"), 0.0, 0.0))

    @given(unit_quaternions, unit_quaternions)
    def test_multiply_matches_matrix_product(self, a, b):
        lhs = quat_to_rotation(Quaternion.from_array(_quat_mul(a.as_array(), b.as_array())))
        rhs = quat_to_rotation(a) @ quat_to_rotation(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(vectors(3.0))
    def test_rotvec_times_its_negative_is_identity(self, phi):
        q = Quaternion.from_rotvec(phi)
        assert abs(q.norm - 1.0) < 1e-12
        back = _quat_mul(q.as_array(), Quaternion.from_rotvec(-phi).as_array())
        assert np.max(np.abs(np.array(back) - [1.0, 0.0, 0.0, 0.0])) < 1e-12

    @given(directions, st.floats(0.5, 2.0))
    def test_rotvec_continuous_across_small_angle_branch(self, u, scale):
        # |phi| < 1e-12 takes the first-order branch; both sides agree with
        # the first-order map (1, phi / 2) to rounding
        phi = u * scale * 1e-12
        q = Quaternion.from_rotvec(phi).as_array()
        assert np.max(np.abs(q - np.concatenate([[1.0], 0.5 * phi]))) < 1e-15
        below = Quaternion.from_rotvec(u * (1e-12 * (1 - 1e-9))).as_array()
        above = Quaternion.from_rotvec(u * (1e-12 * (1 + 1e-9))).as_array()
        assert np.max(np.abs(above - below)) < 1e-15


def attitude_step(q: Quaternion, phi) -> Quaternion:
    """The attitude ``ekf.propagate`` reaches from ``q`` with gyro = ``phi`` and dt = 1.

    Position and velocity start at zero, P is the identity, and there is no
    specific force or gravity, so only the quaternion step acts.
    """
    zero = np.zeros(3)
    _, _, q_new, _ = propagate(zero, zero, q.as_array(), np.eye(9), zero,
                               np.asarray(phi, dtype=float), 1.0, zero, 1.0, 1.0, Workspace())
    return Quaternion.from_array(q_new)


class TestOmegaUpdate:
    """The INS attitude step: ``q * exp(phi / 2)`` for a body-frame rotation ``phi``."""

    def test_zero_increment_is_identity(self):
        q = Quaternion(0.5, 0.5, 0.5, 0.5)
        q2 = attitude_step(q, [0.0, 0.0, 0.0])
        assert np.allclose(q2.as_array(), q.as_array(), atol=1e-15)

    def test_quarter_turn_yaw(self):
        q = attitude_step(Quaternion.identity(), [0.0, 0.0, math.pi / 2])
        expect = [math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)]
        assert np.allclose(q.as_array(), expect, atol=1e-12)

    @given(unit_quaternions, vectors(1.0))
    def test_forward_then_back_restores(self, q, phi):
        back = attitude_step(attitude_step(q, phi), -phi)
        assert np.max(np.abs(back.as_array() - q.as_array())) < 1e-9

    def test_chain_matches_matrix_oracle(self):
        rng = np.random.default_rng(3)
        q = Quaternion.identity()
        R = np.eye(3)
        for _ in range(1000):
            phi = rng.normal(size=3) * 5e-3
            q = attitude_step(q, phi)
            R = R @ rodrigues(phi)
        assert np.max(np.abs(quat_to_rotation(q) - R)) < 1e-6

    def test_norm_preserved_over_long_chains(self):
        rng = np.random.default_rng(4)
        q = random_unit_quaternion(rng)
        for _ in range(5000):
            q = attitude_step(q, rng.normal(size=3) * 1e-2)
        assert abs(q.norm - 1.0) < 1e-9

    @given(directions)
    def test_matches_matrix_exponential_exactly_for_small_steps(self, u):
        phi = u * 1e-3
        R = quat_to_rotation(attitude_step(Quaternion.identity(), phi))
        assert np.max(np.abs(R - rodrigues(phi))) < 1e-6


class TestSe3:
    def rand_transform(self, rng):
        phi = rng.normal(size=3)
        return Se3Transform(rodrigues(phi), rng.normal(size=3))

    def test_identity_compose(self):
        rng = np.random.default_rng(6)
        T = self.rand_transform(rng)
        out = se3_compose(Se3Transform.identity(), T)
        assert np.allclose(out.rotation, T.rotation)
        assert np.allclose(out.translation, T.translation)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(7)
        T = self.rand_transform(rng)
        out = se3_compose(T, T.inverse())
        assert np.max(np.abs(out.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(out.translation)) < 1e-12

    def test_compose_equals_sequential_application(self):
        rng = np.random.default_rng(8)
        a, b = self.rand_transform(rng), self.rand_transform(rng)
        points = rng.normal(size=(10, 3))
        assert np.max(np.abs(se3_compose(a, b).apply(points) - a.apply(b.apply(points)))) < 1e-12

    def test_associative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b, c = (self.rand_transform(rng) for _ in range(3))
            lhs = se3_compose(se3_compose(a, b), c)
            rhs = se3_compose(a, se3_compose(b, c))
            assert np.max(np.abs(lhs.rotation - rhs.rotation)) < 1e-12
            assert np.max(np.abs(lhs.translation - rhs.translation)) < 1e-12

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Se3Transform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            Se3Transform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestStreams:
    def make_stream(self, n=10, rate=125.0):
        t = np.arange(n) / rate
        accel = np.tile([0.0, 0.0, 9.81], (n, 1))
        gyro = np.zeros((n, 3))
        return ImuStream(t, accel, gyro)

    def test_basic_properties(self):
        s = self.make_stream(10)
        assert len(s) == 10

    def test_slicing(self):
        s = self.make_stream(10)
        assert len(s[2:7]) == 5

    def test_rejects_decreasing_timestamps(self):
        t = np.array([0.0, 0.008, 0.007])
        with pytest.raises(ValueError, match="strictly increasing"):
            ImuStream(t, np.zeros((3, 3)), np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        t = np.arange(3) / 125
        accel = np.zeros((3, 3))
        accel[1, 1] = np.nan
        with pytest.raises(ValueError):
            ImuStream(t, accel, np.zeros((3, 3)))

    def test_label_stream_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MocapStream(np.array([0.0, 0.0]), np.zeros((2, 3)))


def load_model_with(key, value, index=None):
    """Load a small model's file with ``key`` (its entry ``index``, if given) set to ``value``.

    The load must fail naming the file; the error is raised again without the file name."""
    data = copy.deepcopy(small_model_dict())
    if index is None:
        data[key] = value
    else:
        data[key][index] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as info:
            load_model(path)
    message = str(info.value)
    assert message.startswith(f"{path}: "), message
    raise ValueError(message.removeprefix(f"{path}: "))


_TWO_CLASSES = (np.random.default_rng(0).normal(size=(4, 6)), np.array([0, 0, 1, 1]))

# every input that must be a positive finite number: (name, a call that passes it the value)
POSITIVE_INPUTS = [(name, lambda v, cls=cls, name=name: cls(**{name: v})) for cls, names in (
    (DetectorParams, ("sigma_a", "sigma_w", "gravity", "gamma")),
    (AdaptiveParams, ("gamma_walk", "gamma_run")),
    (FBetaConfig, ("beta_sq", "speed_threshold")),
    (EkfConfig, ("sigma_accel", "sigma_gyro", "sigma_zupt",
                 "init_pos_std", "init_vel_std", "init_att_std")),
) for name in names] + [
    (name, lambda v, name=name: dataclasses.replace(gait_preset("walk"), **{name: v}))
    for name in ("cadence",)
] + [
    ("kernel_width", lambda v: train(*_TWO_CLASSES, kernel_width=v)),
    ("c_reg", lambda v: train(*_TWO_CLASSES, c_reg=v)),
    ("rate_hz", lambda v: simulate([(gait_preset("walk"), 1.0)], rate_hz=v)),
    ("segment duration", lambda v: simulate([(gait_preset("walk"), v)])),
    ("beta_sq", lambda v: f_beta(0.5, 0.5, v)),
    ("gamma grid", lambda v: FBetaConfig(gamma_grid=np.array([1.0, v, 2.0]))),
    ("kernel_width", lambda v: load_model_with("kernel_width", v)),
    ("c_reg", lambda v: load_model_with("c_reg", v)),
    ("channel standard deviations", lambda v: load_model_with("norm_std", v, index=3)),
]


class TestSettings:
    @given(value=st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(max_value=0.0))
    @example(0.0)
    @example(-1.0)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    def test_rejects_a_value_that_is_not_positive_and_finite(self, value):
        for name, call in POSITIVE_INPUTS:
            with pytest.raises(ValueError) as info:
                call(value)
            assert str(info.value) == f"{name} must be positive and finite", name

    @pytest.mark.parametrize("g", [[0.0, 0.0, math.nan], [math.inf, 0.0, -9.8]])
    def test_filter_rejects_gravity_that_is_not_finite(self, g):
        with pytest.raises(ValueError, match="^gravity must be finite$"):
            EkfConfig(gravity=np.array(g))
