import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import zvnav
from zvnav.core import GRAVITY, ImuStream, Quaternion
from zvnav.ekf import EkfConfig, level_from_accel, propagate, run_ins, zupt_update

G_UP = np.array([0.0, 0.0, GRAVITY])
IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def rest_state(cfg=EkfConfig()):
    """(p, v, q, P) at rest at the origin, level, with the initial covariance."""
    return np.zeros(3), np.zeros(3), IDENTITY_Q, cfg.initial_covariance()


def step(state, accel, gyro, dt, cfg=EkfConfig()):
    return propagate(*state, np.asarray(accel, float), np.asarray(gyro, float), dt,
                     cfg.g, cfg.sigma_accel, cfg.sigma_gyro)


def zupt(state, cfg=EkfConfig()):
    return zupt_update(*state, cfg.sigma_zupt)


def symmetry_defect(P):
    return float(np.max(np.abs(P - P.T)))


def min_eigenvalue(P):
    return float(np.linalg.eigvalsh(P)[0])


class TestPropagate:
    def test_gravity_cancellation_at_rest(self):
        p, v, _, _ = step(rest_state(), G_UP, [0, 0, 0], 0.008)
        assert np.allclose(p, 0.0, atol=1e-15)
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_free_fall_velocity_gain(self):
        _, v, _, _ = step(rest_state(), [0, 0, 0], [0, 0, 0], 0.008)
        assert np.allclose(v, [0.0, 0.0, -GRAVITY * 0.008], atol=1e-12)
        assert v[2] == pytest.approx(-0.0784532, abs=1e-7)

    def test_constant_accel_forward_euler_sum(self):
        # closed-form oracle for 125 steps of Eq-style integration:
        # v_k = k a dt, p uses the previous velocity, so p = a dt^2 sum(k-1)
        dt = 0.008
        steps = 125
        a = 1.0
        v_expect = a * steps * dt
        p_expect = a * dt * dt * sum(k - 1 for k in range(1, steps + 1))
        state = rest_state()
        accel = np.array([a, 0.0, 0.0]) + G_UP
        for _ in range(steps):
            state = step(state, accel, [0, 0, 0], dt)
        p, v, _, _ = state
        assert v[0] == pytest.approx(v_expect, abs=1e-9)
        assert p[0] == pytest.approx(p_expect, abs=1e-9)
        assert p_expect == pytest.approx(0.496)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(0)
        state = rest_state()
        for _ in range(200):
            state = step(state, G_UP + rng.normal(0, 0.5, 3), rng.normal(0, 0.2, 3), 0.008)
            P = state[3]
            assert symmetry_defect(P) < 1e-9
            assert min_eigenvalue(P) > -1e-12


class TestZuptUpdate:
    def test_zero_velocity_prior_unchanged_state_reduced_covariance(self):
        state = rest_state()
        p, v, _, P = zupt(state)
        assert np.allclose(v, 0.0, atol=1e-15)
        assert np.allclose(p, 0.0, atol=1e-15)
        assert np.trace(P[3:6, 3:6]) < np.trace(state[3][3:6, 3:6])

    def test_large_prior_variance_pulls_velocity_to_zero(self):
        cfg = EkfConfig(sigma_zupt=1e-6, init_vel_std=1e3)
        state = (np.zeros(3), np.array([0.1, 0.0, 0.0]), IDENTITY_Q, cfg.initial_covariance())
        _, v, _, _ = zupt(state, cfg)
        assert np.linalg.norm(v) < 1e-6

    def test_matched_variance_gives_half_gain(self):
        cfg = EkfConfig(sigma_zupt=0.02, init_vel_std=0.02)
        state = (np.zeros(3), np.array([0.1, 0.0, 0.0]), IDENTITY_Q, cfg.initial_covariance())
        _, v, _, _ = zupt(state, cfg)
        assert np.allclose(v, [0.05, 0.0, 0.0], atol=1e-12)

    def test_yaw_untouched_when_cross_covariance_zero(self):
        # diagonal covariance: the velocity measurement cannot move yaw
        cfg = EkfConfig()
        q = Quaternion.from_rotvec([0.0, 0.0, 0.7]).as_array()
        state = (np.zeros(3), np.array([0.3, -0.2, 0.1]), q, cfg.initial_covariance())
        _, _, q_out, _ = zupt(state, cfg)
        def yaw_of(qq):
            R = zvnav.quat_to_rotation(Quaternion.from_array(qq))
            return math.atan2(R[1, 0], R[0, 0])
        assert yaw_of(q_out) == pytest.approx(yaw_of(q), abs=1e-12)

    def test_joseph_form_keeps_symmetry(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(9, 9))
        P = A @ A.T * 1e-3 + np.eye(9) * 1e-6
        state = (np.zeros(3), rng.normal(size=3), IDENTITY_Q, P)
        _, _, _, P2 = zupt(state)
        assert symmetry_defect(P2) < 1e-9
        assert min_eigenvalue(P2) > -1e-12


def vectors(bound, n=3):
    return arrays(np.float64, n, elements=st.floats(-bound, bound))


@st.composite
def step_inputs(draw):
    """A random SPD covariance, unit quaternion, finite state and IMU sample."""
    A = draw(arrays(np.float64, (9, 9), elements=st.floats(-1.0, 1.0)))
    P = draw(st.floats(1e-6, 1.0)) * (A @ A.T + 1e-6 * np.eye(9))
    q = draw(vectors(1.0, 4).filter(lambda q: np.linalg.norm(q) > 1e-3))
    state = (draw(vectors(1e3)), draw(vectors(10.0)), q / np.linalg.norm(q), P)
    return state, draw(vectors(200.0)), draw(vectors(40.0)), draw(st.floats(1e-3, 2e-2))


@settings(max_examples=200, deadline=None)
@given(step_inputs(), st.booleans())
def test_step_keeps_covariance_spd_and_quaternion_unit(inputs, with_zupt):
    state, accel, gyro, dt = inputs
    state = step(state, accel, gyro, dt)
    if with_zupt:
        state = zupt(state)
    _, _, q, P = state
    assert symmetry_defect(P) < 1e-9
    assert min_eigenvalue(P) > -1e-12
    assert abs(np.linalg.norm(q) - 1.0) < 1e-9


class TestLeveling:
    def test_level_from_tilted_accel(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            tilt = rng.normal(size=3) * 0.2
            tilt[2] = 0.0  # roll/pitch only
            R_true = zvnav.quat_to_rotation(Quaternion.from_rotvec(tilt))
            measured = R_true.T @ G_UP
            q0 = level_from_accel(measured)
            assert np.allclose(zvnav.quat_to_rotation(q0) @ measured, G_UP, atol=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            level_from_accel([0.0, 0.0, 0.0])
        q = level_from_accel([0.0, 0.0, -9.81])
        assert np.allclose(zvnav.quat_to_rotation(q) @ [0, 0, -9.81], [0, 0, 9.81], atol=1e-9)


class TestRunIns:
    def test_length_mismatch(self):
        stream, truth = zvnav.simulate(zvnav.gait_preset("walk", duration=2.0), zvnav.NoiseModel(seed=0))
        with pytest.raises(ValueError):
            run_ins(stream, truth.stance[:-1], EkfConfig())

    def test_walking_with_oracle_flags_below_one_percent(self):
        stream, truth = zvnav.simulate(zvnav.gait_preset("walk", duration=60.0), zvnav.NoiseModel(seed=9))
        traj = run_ins(stream, truth.stance, EkfConfig())
        err = np.linalg.norm(traj.pos[-1, :2] - truth.pos[-1, :2])
        assert err < 0.01 * truth.path_length()

    def test_disabling_zupt_is_far_worse(self):
        stream, truth = zvnav.simulate(zvnav.gait_preset("walk", duration=60.0), zvnav.NoiseModel(seed=9))
        aided = run_ins(stream, truth.stance, EkfConfig())
        err_aided = np.linalg.norm(aided.pos[-1, :2] - truth.pos[-1, :2])
        with pytest.warns(UserWarning, match="first second"):
            free = run_ins(stream, np.zeros(len(stream), bool), EkfConfig())
        err_free = np.linalg.norm(free.pos[-1, :2] - truth.pos[-1, :2])
        assert err_free >= 10.0 * err_aided

    def test_stationary_stream_stays_at_origin(self):
        n = 500
        t = np.arange(n) / 125.0
        rng = np.random.default_rng(3)
        accel = G_UP + rng.normal(0, 0.02, (n, 3))
        gyro = rng.normal(0, 0.002, (n, 3))
        stream = ImuStream(t, accel, gyro)
        traj = run_ins(stream, np.ones(n, bool), EkfConfig())
        assert np.linalg.norm(traj.pos[-1]) < 1e-3

    def test_zero_noise_discretization_error(self):
        noise = zvnav.NoiseModel(accel_noise_std=0.0, gyro_noise_std=0.0, seed=1)
        stream, truth = zvnav.simulate(zvnav.gait_preset("walk", duration=60.0), noise, rate_hz=250.0)
        traj = run_ins(stream, truth.stance, EkfConfig())
        err = np.linalg.norm(traj.pos[-1, :2] - truth.pos[-1, :2])
        assert err < 0.001 * truth.path_length()

    def test_quaternion_norm_drift(self):
        stream, truth = zvnav.simulate(zvnav.gait_preset("run", duration=20.0), zvnav.NoiseModel(seed=4))
        traj = run_ins(stream, truth.stance, EkfConfig())
        norms = np.linalg.norm(traj.quat, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_bit_identical_reruns(self):
        stream, truth = zvnav.simulate(zvnav.gait_preset("walk", duration=10.0), zvnav.NoiseModel(seed=5))
        a = run_ins(stream, truth.stance, EkfConfig())
        b = run_ins(stream, truth.stance, EkfConfig())
        assert np.array_equal(a.pos, b.pos)
        assert np.array_equal(a.vel, b.vel)
        assert np.array_equal(a.quat, b.quat)

    def test_trajectory_accessors(self):
        stream, truth = zvnav.simulate(zvnav.gait_preset("walk", duration=2.0), zvnav.NoiseModel(seed=6))
        traj = run_ins(stream, truth.stance, EkfConfig())
        assert len(traj) == len(stream)
