"""Synthetic gait oracle: analytic foot trajectories with known stance phases.

The foot alternates stance (exactly stationary) and swing. One cycle spans
two steps (the instrumented foot swings once per two steps), so the cycle
period is 2/cadence and the foot advances 2*stride_length per cycle. The
swing advance follows a quintic smoothstep and the vertical lift a sin^3
bump, both C2, so velocity AND acceleration are exactly zero entering and
leaving stance. Foot pitch oscillates during swing; heading changes slew
smoothly across one swing with matching analytic body rates. Everything is
evaluated in closed form, so truth position, velocity and stance are exact.

Two measurement-level effects make the synthetic sensor behave like a real
foot-mounted unit without touching the exact truth trajectory: faster motion
classes carry a deterministic sinusoidal "stance tremor" (a running foot is
never sensor-still at midstance, which is what blinds walking-grade
thresholds during running), and every swing starts and ends with a zero-mean
toe-off/heel-strike shock burst (real liftoffs and touchdowns are violent).
The bursts, at most 0.06 s each, sharpen the stance edges for a
walking-grade threshold. They do not keep a running-grade threshold out of
a walking swing. On the seed-31 walk calibration trial of the tests, the
F-beta walk threshold 3.40e5 flags 321 of the 5,207 swing samples (674 with
the bursts zeroed), and the F-beta run threshold 7.18e6 flags 5,173 of them,
with or without the bursts.

Generation is pure given the seed; trials parallelize across seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ImuStream, gravity_vector, require_positive

CLASS_NAMES = ("walk", "jog", "run", "sprint", "crouch", "ladder")
CLASS_IDS = {name: i for i, name in enumerate(CLASS_NAMES)}
DEFAULT_DURATION = 60.0
DEFAULT_RATE_HZ = 125.0


def _require_non_negative(obj, *names: str) -> None:
    """Fail naming the first of ``obj``'s fields ``names`` that is negative or not finite."""
    for name in names:
        if not 0 <= getattr(obj, name) < math.inf:
            raise ValueError(f"{name} must be non-negative and finite")


@dataclass(frozen=True)
class GaitProfile:
    """Kinematic parameters of one motion class.

    ``cadence`` counts steps per second; the foot completes one
    stance-plus-swing cycle every two steps.
    """

    motion_class: str
    stride_length: float  # m per step
    cadence: float
    stance_fraction: float
    swing_apex: float  # m
    pitch_amplitude: float  # rad
    climb_per_cycle: float  # m
    tremor_accel: float  # stance tremor, m/s^2
    tremor_gyro: float  # rad/s
    tremor_freq_hz: float
    impact_accel: float  # toe-off/heel-strike impact, m/s^2
    impact_gyro: float  # rad/s
    impact_delay: float  # toe-off delay, as a fraction of the swing
    resting_pitch: float  # rad
    heading: float  # rad

    def __post_init__(self):
        if self.motion_class not in CLASS_IDS:
            raise ValueError(f"unknown motion class {self.motion_class!r}")
        if not 0.0 < self.stance_fraction < 1.0:
            raise ValueError("stance_fraction must lie strictly between 0 and 1")
        require_positive(self, "stride_length", "cadence", "swing_apex", "tremor_freq_hz")
        _require_non_negative(self, "pitch_amplitude", "tremor_accel", "tremor_gyro",
                              "impact_accel", "impact_gyro")
        if not 0.0 <= self.impact_delay < 1.0:
            raise ValueError("impact_delay must lie in [0, 1)")
        for name in ("climb_per_cycle", "resting_pitch", "heading"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def class_id(self) -> int:
        return CLASS_IDS[self.motion_class]

    @property
    def cycle_period(self) -> float:
        return 2.0 / self.cadence

    @property
    def stance_time(self) -> float:
        return self.stance_fraction * self.cycle_period

    @property
    def swing_time(self) -> float:
        return (1.0 - self.stance_fraction) * self.cycle_period

    @property
    def advance_per_cycle(self) -> float:
        return 2.0 * self.stride_length


# the built-in kinematics of each motion class, heading 0, in GaitProfile's field order
_PRESETS = {p.motion_class: p for p in (
    GaitProfile("walk", 0.7, 1.8, 0.35, 0.08, math.radians(30.0), 0.0,
                0.0, 0.0, 9.0, 25.0, 3.5, 0.09, math.radians(0.0), 0.0),
    GaitProfile("jog", 1.2, 2.3, 0.22, 0.16, math.radians(38.0), 0.0,
                4.0, 1.3, 9.0, 55.0, 6.5, 0.04, math.radians(0.0), 0.0),
    GaitProfile("run", 1.6, 2.8, 0.15, 0.25, math.radians(45.0), 0.0,
                8.0, 2.6, 11.0, 80.0, 8.0, 0.0, math.radians(0.0), 0.0),
    GaitProfile("sprint", 2.1, 3.4, 0.10, 0.34, math.radians(55.0), 0.0,
                12.0, 3.4, 13.0, 96.0, 10.0, 0.0, math.radians(0.0), 0.0),
    GaitProfile("crouch", 0.4, 1.3, 0.45, 0.04, math.radians(12.0), 0.0,
                0.6, 0.12, 6.0, 12.0, 1.5, 0.09, math.radians(-8.0), 0.0),
    GaitProfile("ladder", 0.12, 0.9, 0.50, 0.05, math.radians(18.0), 0.35,
                1.0, 0.20, 3.5, 10.0, 1.2, 0.05, math.radians(20.0), 0.0),
)}


def gait_preset(motion: str, heading: float = 0.0) -> GaitProfile:
    """The built-in profile of a named motion class, facing ``heading`` (rad)."""
    if motion not in _PRESETS:
        raise ValueError(f"unknown motion class {motion!r}")
    return replace(_PRESETS[motion], heading=heading)


@dataclass(frozen=True)
class NoiseModel:
    """Additive white measurement noise, seeded."""

    accel_noise_std: float = 0.02
    gyro_noise_std: float = 0.002
    seed: int = 0

    def __post_init__(self):
        _require_non_negative(self, "accel_noise_std", "gyro_noise_std")


@dataclass(frozen=True, eq=False)
class GaitTruth:
    """Exact per-sample ground truth plus the stride timeline."""

    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    stance: np.ndarray
    labels: np.ndarray
    transitions: np.ndarray
    stride_mid_times: np.ndarray
    stride_anchors: np.ndarray

    def path_length(self) -> float:
        return float(np.linalg.norm(np.diff(self.pos, axis=0), axis=1).sum())


def _quintic(tau):
    s = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    s1 = 30.0 * tau**2 * (1.0 - tau) ** 2
    s2 = 60.0 * tau * (1.0 - tau) * (1.0 - 2.0 * tau)
    return s, s1, s2


def _lift(tau):
    sp = np.sin(np.pi * tau)
    cp = np.cos(np.pi * tau)
    h = sp**3
    h1 = 3.0 * np.pi * sp**2 * cp
    h2 = 3.0 * np.pi**2 * (2.0 * sp * cp**2 - sp**3)
    return h, h1, h2


def simulate(segments, noise: NoiseModel | None = None,
             rate_hz: float = DEFAULT_RATE_HZ) -> tuple[ImuStream, GaitTruth]:
    """Generate an IMU stream and exact truth for a list of (GaitProfile, seconds).

    The trial starts at rest at a stance midpoint. Segment switches take
    effect at the first stance midpoint at or after the requested boundary,
    so transitions never occur mid-swing. Measured specific force is the
    analytic acceleration minus gravity rotated into the body frame, plus
    stance tremor and noise; the gyro is the exact body rate of the analytic
    attitude. Deterministic under a fixed seed.
    """
    noise = noise or NoiseModel()
    require_positive({"rate_hz": rate_hz})
    segments = [(prof, float(dur)) for prof, dur in segments]
    if not segments:
        raise ValueError("need at least one segment")
    require_positive({"segment duration": np.array([dur for _, dur in segments])})

    total = sum(d for _, d in segments)
    n = int(round(total * rate_hz))
    if n < 1:
        raise ValueError("duration * rate_hz must be at least 1")
    bounds = np.cumsum([d for _, d in segments])

    def profile_at(time: float) -> GaitProfile:
        k = int(np.searchsorted(bounds, time, side="right"))
        return segments[min(k, len(segments) - 1)][0]

    # stride timeline: midpoints, per-stride profile, anchors, yaw slew
    mids = [0.0]
    profs: list[GaitProfile] = []
    while mids[-1] < total:
        prof = profile_at(mids[-1])
        profs.append(prof)
        mids.append(mids[-1] + prof.cycle_period)
    K = len(profs)
    mids_arr = np.array(mids)

    # effective heading slews toward the profile heading, at most a quarter
    # turn per stride, so direction reversals spread over two strides
    max_turn = 0.5 * math.pi
    yaw0 = np.empty(K)
    yaw0[0] = profs[0].heading
    for k in range(1, K):
        delta = (profs[k].heading - yaw0[k - 1] + math.pi) % (2.0 * math.pi) - math.pi
        yaw0[k] = yaw0[k - 1] + max(-max_turn, min(max_turn, delta))

    adv = np.zeros((K, 3))
    anchors = np.zeros((K + 1, 3))
    for k, p in enumerate(profs):
        adv[k] = [
            p.advance_per_cycle * math.cos(yaw0[k]),
            p.advance_per_cycle * math.sin(yaw0[k]),
            p.climb_per_cycle,
        ]
        anchors[k + 1] = anchors[k] + adv[k]
    dyaw = np.zeros(K)
    if K > 1:
        dyaw[:-1] = yaw0[1:] - yaw0[:-1]

    t_sw = np.array([p.swing_time for p in profs])
    sw_start = mids_arr[:-1] + np.array([p.stance_time for p in profs]) / 2.0
    apex = np.array([p.swing_apex for p in profs])
    pitch_amp = np.array([p.pitch_amplitude for p in profs])
    class_id = np.array([p.class_id for p in profs], dtype=np.int64)
    trem_a = np.array([p.tremor_accel for p in profs])
    trem_g = np.array([p.tremor_gyro for p in profs])
    trem_f = np.array([p.tremor_freq_hz for p in profs])

    # per-sample phase evaluation
    t = np.arange(n) / rate_hz
    idx = np.clip(np.searchsorted(mids_arr, t, side="right") - 1, 0, K - 1)
    tau_raw = (t - sw_start[idx]) / t_sw[idx]
    swing = (tau_raw > 0.0) & (tau_raw < 1.0)
    tau = np.clip(tau_raw, 0.0, 1.0)

    s, s1, s2 = _quintic(tau)
    h, h1, h2 = _lift(tau)
    lift = np.zeros((n, 3))
    lift[:, 2] = 1.0

    pos = anchors[idx] + adv[idx] * s[:, None] + lift * (apex[idx] * h)[:, None]
    vel = np.where(
        swing[:, None],
        (adv[idx] * s1[:, None] + lift * (apex[idx] * h1)[:, None]) / t_sw[idx, None],
        0.0,
    )
    acc = np.where(
        swing[:, None],
        (adv[idx] * s2[:, None] + lift * (apex[idx] * h2)[:, None]) / t_sw[idx, None] ** 2,
        0.0,
    )

    rest = np.array([p.resting_pitch for p in profs])
    sp = np.sin(np.pi * tau)
    s2p = np.sin(2.0 * np.pi * tau)
    c2p = np.cos(2.0 * np.pi * tau)
    theta = rest[idx] + np.where(swing, pitch_amp[idx] * sp**2 * s2p, 0.0)
    theta_dot = np.where(
        swing,
        pitch_amp[idx] * (np.pi * s2p**2 + 2.0 * np.pi * sp**2 * c2p) / t_sw[idx],
        0.0,
    )
    psi = yaw0[idx] + dyaw[idx] * s
    psi_dot = np.where(swing, dyaw[idx] * s1 / t_sw[idx], 0.0)

    # body rate of R = Rz(psi) Ry(theta)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    gyro_true = np.column_stack([
        -psi_dot * sin_t,
        theta_dot,
        psi_dot * cos_t,
    ])

    # toe-off and heel-strike shocks: short oscillatory bursts, because a
    # foot-mounted sensor never records a quiet liftoff or touchdown. The
    # toe-off burst can be delayed past the slow-release part of the swing
    # (a walking foot peels off the ground, a running foot pops off); heel
    # strike is abrupt in any gait. The waveform sin(6 pi u) sin(pi u) has
    # an exactly zero integral and zero end slopes, and the acceleration
    # burst is injected in the navigation frame, so integrating the
    # measurements reproduces the true trajectory with no phantom offset.
    imp_a = np.array([p.impact_accel for p in profs])
    imp_g = np.array([p.impact_gyro for p in profs])
    imp_delay = np.array([p.impact_delay for p in profs]) * t_sw
    t_burst = np.minimum(0.06, t_sw / 6.0)

    def _burst(u):
        active = (u > 0.0) & (u < 1.0)
        uu = np.clip(u, 0.0, 1.0)
        return np.where(active, np.sin(6.0 * np.pi * uu) * np.sin(np.pi * uu), 0.0)

    u_toe = (t - sw_start[idx] - imp_delay[idx]) / t_burst[idx]
    u_heel = (sw_start[idx] + t_sw[idx] - t) / t_burst[idx]
    wave = np.where(swing, _burst(u_toe) - _burst(u_heel), 0.0)
    impact_nav = (imp_a[idx] * wave)[:, None] * np.array([0.8, 0.0, 0.6])
    impact_gyro_sig = np.column_stack([np.zeros(n), imp_g[idx] * wave, np.zeros(n)])

    # specific force (including the shock bursts) rotated into the body frame
    f_nav = acc - gravity_vector() + impact_nav
    sin_p, cos_p = np.sin(psi), np.cos(psi)
    fx = cos_p * f_nav[:, 0] + sin_p * f_nav[:, 1]
    fy = -sin_p * f_nav[:, 0] + cos_p * f_nav[:, 1]
    fz = f_nav[:, 2]
    accel_true = np.column_stack([
        cos_t * fx - sin_t * fz,
        fy,
        sin_t * fx + cos_t * fz,
    ])

    rng = np.random.default_rng(noise.seed)

    # stance tremor, measurement-level only: residual midstance vibration
    # with a fresh random phase every stride. Zero-velocity updates absorb
    # the per-stance kicks it leaves in velocity and tilt, while a filter
    # running without them integrates a random walk, which is exactly how
    # real running wrecks an unaided strapdown solution. Axis phases keep
    # the summed energy constant within a window, and the gyro part stays
    # off the yaw axis so it cannot push the (unobservable) heading.
    stance = ~swing
    phase_a = rng.uniform(0.0, 2.0 * np.pi, K)
    phase_g = rng.uniform(0.0, 2.0 * np.pi, K)
    amp_a = np.where(stance, trem_a[idx], 0.0)
    amp_g = np.where(stance, trem_g[idx], 0.0)
    w_a = 2.0 * np.pi * trem_f[idx] * t + phase_a[idx]
    w_g = 2.0 * np.pi * (0.77 * trem_f[idx]) * t + phase_g[idx]
    thirds = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    tremor_accel = amp_a[:, None] * np.sin(w_a[:, None] + thirds)
    tremor_gyro = np.column_stack([
        amp_g * np.sin(w_g),
        amp_g * np.cos(w_g),
        np.zeros(n),
    ])

    meas_accel = (
        accel_true + tremor_accel
        + rng.normal(0.0, noise.accel_noise_std, (n, 3))
    )
    meas_gyro = (
        gyro_true + tremor_gyro + impact_gyro_sig
        + rng.normal(0.0, noise.gyro_noise_std, (n, 3))
    )

    labels = class_id[idx]
    change = np.flatnonzero(class_id[1:] != class_id[:-1]) + 1
    transitions = mids_arr[change]

    stream = ImuStream(t, meas_accel, meas_gyro)
    truth = GaitTruth(
        t=t, pos=pos, vel=vel, stance=stance, labels=labels,
        transitions=transitions, stride_mid_times=mids_arr, stride_anchors=anchors,
    )
    return stream, truth


