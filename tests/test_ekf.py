import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zvnav.core import (
    GRAVITY,
    ImuStream,
    Quaternion,
    _quat_from_rotvec,
    _quat_mul,
    _quat_normalize,
    quat_to_rotation,
)
from zvnav.ekf import EkfConfig, Workspace, level_from_accel, propagate, run_ins, zupt_update
from zvnav.simulate import NoiseModel, gait_preset, simulate

G_UP = np.array([0.0, 0.0, GRAVITY])
IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def rest_state(cfg=EkfConfig()):
    """(p, v, q, P) at rest at the origin, level, with the initial covariance."""
    return np.zeros(3), np.zeros(3), IDENTITY_Q, cfg.initial_covariance()


def step(state, accel, gyro, dt, cfg=EkfConfig()):
    return propagate(*state, np.asarray(accel, float), np.asarray(gyro, float), dt,
                     cfg.gravity, cfg.sigma_accel, cfg.sigma_gyro, Workspace())


def zupt(state, cfg=EkfConfig()):
    return zupt_update(*state, cfg.sigma_zupt, Workspace())


def symmetry_defect(P):
    return float(np.max(np.abs(P - P.T)))


def min_eigenvalue(P):
    return float(np.linalg.eigvalsh(P)[0])


@pytest.mark.parametrize("field", ["sigma_accel", "sigma_gyro", "sigma_zupt",
                                   "init_pos_std", "init_vel_std", "init_att_std"])
def test_config_rejects_a_value_whose_square_overflows(field):
    EkfConfig(**{field: 1e154})
    for value in (1e155, 1e300):  # infinity fails as not finite, before this rule
        with pytest.raises(ValueError) as info:
            EkfConfig(**{field: value})
        assert str(info.value) == f"{field} = {value:g} is too large: its square overflows"


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
            R = quat_to_rotation(Quaternion.from_array(qq))
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


# Reference step kernels that build new R, F, S and I - KH arrays at every
# step and invert S with np.linalg.inv; the workspace kernels must match them
# bit for bit.
def reference_propagate(p, v, q, P, accel, gyro, dt, g, sig_a, sig_g):
    p0, p1, p2 = p
    v0, v1, v2 = v
    g0, g1, g2 = g
    qw, qx, qy, qz = q
    R = np.array([
        [1.0 - 2.0 * (qy * qy + qz * qz), 2.0 * (qx * qy - qw * qz), 2.0 * (qx * qz + qw * qy)],
        [2.0 * (qx * qy + qw * qz), 1.0 - 2.0 * (qx * qx + qz * qz), 2.0 * (qy * qz - qw * qx)],
        [2.0 * (qx * qz - qw * qy), 2.0 * (qy * qz + qw * qx), 1.0 - 2.0 * (qx * qx + qy * qy)],
    ])
    f0, f1, f2 = (R @ accel).tolist()
    p_new = (p0 + v0 * dt, p1 + v1 * dt, p2 + v2 * dt)
    v_new = (v0 + (f0 + g0) * dt, v1 + (f1 + g1) * dt, v2 + (f2 + g2) * dt)
    w0, w1, w2 = gyro
    q_new = _quat_normalize(_quat_mul(q, _quat_from_rotvec((w0 * dt, w1 * dt, w2 * dt))))

    F = np.eye(9)
    F[0, 3] = F[1, 4] = F[2, 5] = dt
    z = -0.0 * dt
    F[3:6, 6:9] = ((z, f2 * dt, -f1 * dt),
                   (-f2 * dt, z, f0 * dt),
                   (f1 * dt, -f0 * dt, z))

    P_new = F @ P @ F.T
    qa = (sig_a * dt) ** 2
    qg = (sig_g * dt) ** 2
    P_new[3, 3] += qa
    P_new[4, 4] += qa
    P_new[5, 5] += qa
    P_new[6, 6] += qg
    P_new[7, 7] += qg
    P_new[8, 8] += qg
    P_new = 0.5 * (P_new + P_new.T)
    return p_new, v_new, q_new, P_new


def reference_zupt_update(p, v, q, P, sigma_zupt):
    r = sigma_zupt * sigma_zupt
    S = P[3:6, 3:6].copy()
    S[0, 0] += r
    S[1, 1] += r
    S[2, 2] += r
    K = P[:, 3:6] @ np.linalg.inv(S)
    v0, v1, v2 = v
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = (K @ np.array((-v0, -v1, -v2))).tolist()

    p0, p1, p2 = p
    p_new = (p0 + d0, p1 + d1, p2 + d2)
    v_new = (v0 + d3, v1 + d4, v2 + d5)
    q_new = _quat_normalize(_quat_mul(_quat_from_rotvec((d6, d7, d8)), q))

    IKH = np.eye(9)
    IKH[:, 3:6] -= K
    P_new = IKH @ P @ IKH.T + r * (K @ K.T)
    P_new = 0.5 * (P_new + P_new.T)
    return p_new, v_new, q_new, P_new


def bits(*arrays):
    """The bit patterns of float arrays or tuples: unlike ==, they tell -0.0 from 0.0."""
    return [np.asarray(a, dtype=np.float64).view(np.uint64) for a in arrays]


def assert_same_bits(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(bits(*a), bits(*b), strict=True))


ZERO3 = np.zeros(3)


@st.composite
def step_sequences(draw):
    """A state and 1-4 IMU samples with ZUPT flags.

    Some vectors are exactly zero, and some rotation vectors gyro * dt lie
    below the 1e-12 first-order branch of the rotation-vector exponential.
    """
    A = draw(arrays(np.float64, (9, 9), elements=st.floats(-1.0, 1.0)))
    spd = draw(st.floats(1e-6, 1.0)) * (A @ A.T + 1e-6 * np.eye(9))
    P = draw(st.sampled_from([spd, EkfConfig().initial_covariance()]))
    q = draw(vectors(1.0, 4).filter(lambda q: np.linalg.norm(q) > 1e-3))
    state = (draw(st.one_of(vectors(1e3), st.just(ZERO3))),
             draw(st.one_of(vectors(10.0), st.just(ZERO3))), q / np.linalg.norm(q), P)
    samples = draw(st.lists(st.tuples(
        st.one_of(vectors(200.0), st.just(ZERO3)),
        st.one_of(vectors(40.0), vectors(1e-11), st.just(ZERO3)),
        st.floats(1e-3, 2e-2),
        st.booleans(),
    ), min_size=1, max_size=4))
    return state, samples


@settings(max_examples=300, deadline=None)
@given(step_sequences())
def test_kernels_match_the_reference_bit_for_bit(case):
    state, samples = case
    cfg = EkfConfig()
    args = cfg.gravity, cfg.sigma_accel, cfg.sigma_gyro
    reference = fresh = reused = state
    ws = Workspace()
    for accel, gyro, dt, with_zupt in samples:
        reference = reference_propagate(*reference, accel, gyro, dt, *args)
        fresh = propagate(*fresh, accel, gyro, dt, *args, Workspace())
        reused = propagate(*reused, accel, gyro, dt, *args, ws)
        assert_same_bits(fresh, reference)
        assert_same_bits(reused, reference)
        if with_zupt:
            reference = reference_zupt_update(*reference, cfg.sigma_zupt)
            fresh = zupt_update(*fresh, cfg.sigma_zupt, Workspace())
            reused = zupt_update(*reused, cfg.sigma_zupt, ws)
            assert_same_bits(fresh, reference)
            assert_same_bits(reused, reference)


@st.composite
def flagged_streams(draw):
    """A short stream with random ZUPT flags; sample 0 alone starts stationary."""
    n = draw(st.integers(2, 40))
    accel = G_UP + draw(arrays(np.float64, (n, 3), elements=st.floats(-20.0, 20.0)))
    gyro = draw(arrays(np.float64, (n, 3), elements=st.floats(-10.0, 10.0)))
    zv = draw(arrays(np.bool_, n))
    zv[:2] = True, False
    return ImuStream(np.arange(n) / 125.0, accel, gyro), zv


@settings(max_examples=60, deadline=None)
@given(flagged_streams())
def test_run_ins_is_the_step_kernels_stepped_by_hand(case):
    stream, zv = case
    cfg = EkfConfig()
    traj = run_ins(stream, zv, cfg)
    # run_ins levels from the first stationary run, here sample 0 alone
    q0 = level_from_accel(stream.accel[0])
    p, v, q, P = np.zeros(3), np.zeros(3), q0, cfg.initial_covariance()
    ws = Workspace()
    rows = []
    for k in range(len(stream)):
        if k > 0:
            p, v, q, P = propagate(p, v, q, P, stream.accel[k], stream.gyro[k],
                                   stream.t[k] - stream.t[k - 1], cfg.gravity,
                                   cfg.sigma_accel, cfg.sigma_gyro, ws)
        if zv[k]:
            p, v, q, P = zupt_update(p, v, q, P, cfg.sigma_zupt, ws)
        rows.append(np.concatenate([p, v, q]))
        if k % 2:
            # the kernels return tuples and take ndarray or tuple state alike
            p, v, q = np.array(p), np.array(v), np.array(q)
    assert np.array_equal(np.array(rows), np.hstack([traj.pos, traj.vel, traj.quat]))


class TestLeveling:
    def test_level_from_tilted_accel(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            tilt = rng.normal(size=3) * 0.2
            tilt[2] = 0.0  # roll/pitch only
            R_true = quat_to_rotation(Quaternion.from_rotvec(tilt))
            measured = R_true.T @ G_UP
            q0 = level_from_accel(measured)
            assert np.allclose(quat_to_rotation(Quaternion(*q0)) @ measured, G_UP, atol=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            level_from_accel([0.0, 0.0, 0.0])
        q = level_from_accel([0.0, 0.0, -9.81])
        assert np.allclose(quat_to_rotation(Quaternion(*q)) @ [0, 0, -9.81], [0, 0, 9.81],
                           atol=1e-9)


class TestRunIns:
    def test_length_mismatch(self):
        stream, truth = simulate([(gait_preset("walk"), 2.0)], NoiseModel(seed=0))
        with pytest.raises(ValueError):
            run_ins(stream, truth.stance[:-1], EkfConfig())

    def test_walking_with_oracle_flags_below_one_percent(self):
        stream, truth = simulate([(gait_preset("walk"), 60.0)], NoiseModel(seed=9))
        traj = run_ins(stream, truth.stance, EkfConfig())
        err = np.linalg.norm(traj.pos[-1, :2] - truth.pos[-1, :2])
        assert err < 0.01 * truth.path_length()

    def test_disabling_zupt_is_far_worse(self):
        stream, truth = simulate([(gait_preset("walk"), 60.0)], NoiseModel(seed=9))
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
        noise = NoiseModel(accel_noise_std=0.0, gyro_noise_std=0.0, seed=1)
        stream, truth = simulate([(gait_preset("walk"), 60.0)], noise, rate_hz=250.0)
        traj = run_ins(stream, truth.stance, EkfConfig())
        err = np.linalg.norm(traj.pos[-1, :2] - truth.pos[-1, :2])
        assert err < 0.001 * truth.path_length()

    def test_quaternion_norm_drift(self):
        stream, truth = simulate([(gait_preset("run"), 20.0)], NoiseModel(seed=4))
        traj = run_ins(stream, truth.stance, EkfConfig())
        norms = np.linalg.norm(traj.quat, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_bit_identical_reruns(self):
        stream, truth = simulate([(gait_preset("walk"), 10.0)], NoiseModel(seed=5))
        a = run_ins(stream, truth.stance, EkfConfig())
        b = run_ins(stream, truth.stance, EkfConfig())
        assert np.array_equal(a.pos, b.pos)
        assert np.array_equal(a.vel, b.vel)
        assert np.array_equal(a.quat, b.quat)

    def test_concurrent_runs_share_no_scratch(self):
        cases = [simulate([(gait_preset(motion), 3.0)], NoiseModel(seed=seed))
                 for motion, seed in (("walk", 21), ("run", 22), ("walk", 23), ("run", 24))]
        sequential = [run_ins(stream, truth.stance) for stream, truth in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                futures = [pool.submit(run_ins, stream, truth.stance) for stream, truth in cases]
                concurrent = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(sequential, concurrent):
            assert_same_bits((a.pos, a.vel, a.quat), (b.pos, b.vel, b.quat))

    @pytest.mark.parametrize("channel", ["accel", "gyro"])
    def test_a_diverging_filter_names_the_first_state_not_finite(self, channel):
        stream, truth = simulate([(gait_preset("walk"), 4.0)], NoiseModel(seed=3))
        channels = {"accel": stream.accel.copy(), "gyro": stream.gyro.copy()}
        channels[channel][200:203] = 1e160
        burst = ImuStream(stream.t, channels["accel"], channels["gyro"])
        if channel == "accel":
            # P overflows at the burst; the state follows at the next update
            first = 200 + int(np.argmax(truth.stance[200:]))
        else:
            # the rotation angle overflows at once
            first = 200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                run_ins(burst, truth.stance)
        assert str(info.value) == (f"the filter diverged: its state is not finite at "
                                   f"t = {stream.t[first]:.3f} s")

    @pytest.mark.parametrize("field", ["sigma_accel", "sigma_gyro"])
    def test_a_process_noise_square_that_overflows_is_a_diverging_filter(self, field):
        # at 0.5 Hz, (1e154 * 2 s) ** 2 overflows while 1e154 ** 2 does not
        n = 5
        stream = ImuStream(2.0 * np.arange(n), np.tile(G_UP, (n, 1)), np.zeros((n, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                run_ins(stream, np.ones(n, bool), EkfConfig(**{field: 1e154}))
        assert str(info.value) == "the filter diverged: its state is not finite at t = 2.000 s"

    def test_trajectory_accessors(self):
        stream, truth = simulate([(gait_preset("walk"), 2.0)], NoiseModel(seed=6))
        traj = run_ins(stream, truth.stance, EkfConfig())
        assert len(traj) == len(stream)
