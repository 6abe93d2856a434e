import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zvnav.core import Quaternion, Se3Transform, quat_to_rotation, se3_compose
from zvnav.survey import (
    MarkerMap,
    MarkerObservation,
    RankDeficientError,
    build_map,
    frame_to_frame,
    tag_template,
    umeyama_align,
)


def random_transform(rng, translation_scale=1.0):
    phi = rng.normal(size=3)
    R = quat_to_rotation(Quaternion.from_rotvec(phi))
    return Se3Transform(R, rng.normal(size=3) * translation_scale)


class TestTemplate:
    def test_shape_and_geometry(self):
        tpl = tag_template(side=0.28)
        assert tpl.shape == (5, 3)
        assert np.array_equal(tpl[0], [0.0, 0.0, 0.0])
        # two points along each of two orthogonal edges
        assert np.all(tpl[1:3, 1] == 0) and np.all(tpl[3:5, 0] == 0)


class TestUmeyama:
    def test_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 3))
        res = umeyama_align(pts, pts)
        assert np.max(np.abs(res.transform.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(res.transform.translation)) < 1e-12
        assert res.rms < 1e-12

    def test_recovers_random_rigid_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            src = rng.normal(size=(5, 3))
            T = random_transform(rng, 5.0)
            res = umeyama_align(src, T.apply(src))
            assert np.max(np.abs(res.transform.rotation - T.rotation)) < 1e-9
            assert np.max(np.abs(res.transform.translation - T.translation)) < 1e-9

    def test_forward_and_reverse_are_inverse(self):
        rng = np.random.default_rng(2)
        src = rng.normal(size=(6, 3))
        tgt = random_transform(rng).apply(src)
        fwd = umeyama_align(src, tgt).transform
        rev = umeyama_align(tgt, src).transform
        both = se3_compose(fwd, rev)
        assert np.max(np.abs(both.rotation - np.eye(3))) < 1e-9
        assert np.max(np.abs(both.translation)) < 1e-9

    def test_residual_invariant_to_joint_rigid_motion(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(5, 3))
        tgt = src + rng.normal(0, 0.01, (5, 3))
        base = umeyama_align(src, tgt).rms
        M = random_transform(rng)
        moved = umeyama_align(M.apply(src), M.apply(tgt)).rms
        assert moved == pytest.approx(base, abs=1e-12)

    def test_collinear_source_rejected(self):
        src = np.outer(np.arange(5, dtype=float), [1.0, 0.0, 0.0])
        with pytest.raises(RankDeficientError):
            umeyama_align(src, src + 1.0)

    def test_never_returns_a_reflection(self):
        # a target constructed from a reflection still yields det +1
        rng = np.random.default_rng(4)
        src = rng.normal(size=(5, 3))
        tgt = src * [1.0, 1.0, -1.0]
        res = umeyama_align(src, tgt)
        assert np.linalg.det(res.transform.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_millimetre_noise_translation_error(self):
        # 1 mm observation noise on the five template points: the recovered
        # translation stays below 3 mm at the 99th percentile
        rng = np.random.default_rng(5)
        template = tag_template()
        errors = np.empty(1000)
        for i in range(1000):
            T = random_transform(rng, 3.0)
            noisy = T.apply(template) + rng.normal(0, 1e-3, (5, 3))
            res = umeyama_align(template, noisy)
            errors[i] = np.linalg.norm(res.transform.translation - T.translation)
        assert np.percentile(errors, 99) < 3e-3

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            umeyama_align(np.zeros((2, 3)), np.zeros((2, 3)))


class TestFrameToFrame:
    def make_observation(self, marker_pose, station_pose, marker_id, station_id, template):
        pts = station_pose.apply(marker_pose.apply(template))
        return MarkerObservation(marker_id, pts, station_id)

    def test_same_observation_gives_identity(self):
        rng = np.random.default_rng(6)
        template = tag_template()
        pose = random_transform(rng)
        station = random_transform(rng)
        obs = self.make_observation(pose, station, 0, 0, template)
        obs2 = MarkerObservation(1, obs.points.copy(), 0)
        T = frame_to_frame(obs, obs2, template)
        assert np.max(np.abs(T.rotation - np.eye(3))) < 1e-9
        assert np.max(np.abs(T.translation)) < 1e-9

    def test_recovers_known_relative_translation(self):
        rng = np.random.default_rng(7)
        template = tag_template()
        pose_a = Se3Transform.identity()
        pose_b = Se3Transform(np.eye(3), np.array([15.0, 0.0, 0.0]))
        station = random_transform(rng, 4.0)
        obs_a = self.make_observation(pose_a, station, 0, 3, template)
        obs_b = self.make_observation(pose_b, station, 1, 3, template)
        T = frame_to_frame(obs_a, obs_b, template)
        assert np.linalg.norm(T.translation) == pytest.approx(15.0, abs=1e-9)

    def test_station_independence(self):
        rng = np.random.default_rng(8)
        template = tag_template()
        pose_a, pose_b = random_transform(rng), random_transform(rng)
        results = []
        for sid in (0, 1):
            station = random_transform(rng, 6.0)
            obs_a = self.make_observation(pose_a, station, 0, sid, template)
            obs_b = self.make_observation(pose_b, station, 1, sid, template)
            results.append(frame_to_frame(obs_a, obs_b, template))
        assert np.max(np.abs(results[0].rotation - results[1].rotation)) < 1e-9
        assert np.max(np.abs(results[0].translation - results[1].translation)) < 1e-9

    def test_swapped_arguments_give_inverse(self):
        rng = np.random.default_rng(9)
        template = tag_template()
        pose_a, pose_b = random_transform(rng), random_transform(rng)
        station = random_transform(rng)
        obs_a = self.make_observation(pose_a, station, 0, 0, template)
        obs_b = self.make_observation(pose_b, station, 1, 0, template)
        fwd = frame_to_frame(obs_a, obs_b, template)
        rev = frame_to_frame(obs_b, obs_a, template)
        both = se3_compose(fwd, rev)
        assert np.max(np.abs(both.rotation - np.eye(3))) < 1e-9
        assert np.max(np.abs(both.translation)) < 1e-9

    def test_mismatched_station_rejected(self):
        template = tag_template()
        obs_a = MarkerObservation(0, template, 0)
        obs_b = MarkerObservation(1, template, 1)
        with pytest.raises(ValueError):
            frame_to_frame(obs_a, obs_b, template)


def synthetic_survey(rng, n_markers=6, spacing=15.0):
    """Marker poses along a line plus a two-pass survey of them.

    Each station observes one adjacent pair from its own random pose; the
    forward pass surveys the pairs (0, 1), (1, 2), ... with station ids
    0, 1, ..., and the reverse pass surveys them again with ids 100, 101, ...
    """
    template = tag_template()
    poses = [Se3Transform.identity()]
    for i in range(1, n_markers):
        yaw = rng.uniform(-0.3, 0.3)
        R = quat_to_rotation(Quaternion.from_rotvec([0.0, 0.0, yaw]))
        poses.append(Se3Transform(R, np.array([spacing * i, rng.uniform(-1, 1), 0.0])))

    def survey_pass(station_id_base):
        stations = []
        for k in range(n_markers - 1):
            station = random_transform(rng, 5.0)
            stations.append([MarkerObservation(j, station.apply(poses[j].apply(template)),
                                               station_id_base + k) for j in (k, k + 1)])
        return stations

    return poses, survey_pass(0) + survey_pass(100)


class TestBuildMap:
    def test_single_identity_transform(self):
        template = tag_template()
        m = build_map([[MarkerObservation(0, template, 0), MarkerObservation(1, template, 0)]],
                      template)
        assert np.allclose(m.positions, 0.0)
        assert m.loop_closure_m == 0.0

    def test_noiseless_six_marker_chain(self):
        rng = np.random.default_rng(10)
        poses, stations = synthetic_survey(rng)
        m = build_map(stations, tag_template())
        true_positions = np.array([p.translation for p in poses])
        assert m.marker_ids == tuple(range(len(poses)))
        assert np.max(np.abs(m.positions - true_positions)) < 1e-9
        assert m.loop_closure_m < 1e-9
        assert m.path_length_m == pytest.approx(
            2 * np.linalg.norm(np.diff(true_positions, axis=0), axis=1).sum(), abs=1e-6)

    def test_reverse_chain_length_checked(self):
        _, stations = synthetic_survey(np.random.default_rng(11), n_markers=4)
        with pytest.raises(ValueError, match="reverse pass lacks"):
            build_map(stations[:-1], tag_template())

    def test_an_empty_survey_is_rejected(self):
        with pytest.raises(ValueError, match="^the survey holds no stations$"):
            build_map([], tag_template())

    def test_map_requires_marker_zero_at_origin(self):
        with pytest.raises(ValueError):
            MarkerMap((0, 1), np.array([[1.0, 0, 0], [2.0, 0, 0]]), 0.0, 1.0)

    def test_position_of_an_unknown_marker_names_it(self):
        m = MarkerMap((0, 1), np.array([[0.0, 0, 0], [2.0, 0, 0]]), 0.0, 2.0)
        assert np.array_equal(m.position_of(1), [2.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^marker 7 is not in the marker map$"):
            m.position_of(7)


N_PAIRS = 5
FORWARD, REVERSE = slice(0, N_PAIRS), slice(N_PAIRS, 2 * N_PAIRS)


@functools.cache
def two_pass_survey():
    """The six-marker two-pass survey and its map; shared, so copy before changing."""
    _, stations = synthetic_survey(np.random.default_rng(13), n_markers=N_PAIRS + 1)
    return stations, build_map(stations, tag_template())


def pass_rule_error(stations) -> str:
    with pytest.raises(ValueError) as info:
        build_map(stations, tag_template())
    return str(info.value)


class TestPassRules:
    """The survey rules through ``build_map``, on any order a file may hold."""

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(range(N_PAIRS)))
    def test_forward_station_order_does_not_change_the_map(self, order):
        stations, expected = two_pass_survey()
        forward = stations[FORWARD]
        m = build_map([forward[i] for i in order] + stations[REVERSE], tag_template())
        assert np.array_equal(m.positions, expected.positions)
        assert m.loop_closure_m == expected.loop_closure_m
        assert m.path_length_m == expected.path_length_m

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(range(N_PAIRS)), st.integers(0, N_PAIRS - 1))
    def test_dropping_a_reverse_station_names_its_pair(self, order, dropped):
        stations, _ = two_pass_survey()
        reverse = [stations[REVERSE][i] for i in order if i != dropped]
        message = pass_rule_error(stations[FORWARD] + reverse)
        assert message == f"the reverse pass lacks marker pair {(dropped, dropped + 1)}"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 * N_PAIRS - 1), st.integers(0, 2 * N_PAIRS))
    def test_a_third_copy_of_a_station_is_rejected(self, copied, at):
        stations, _ = two_pass_survey()
        pair = (copied % N_PAIRS, copied % N_PAIRS + 1)
        message = pass_rule_error(stations[:at] + [stations[copied]] + stations[at:])
        assert message == f"marker pair {pair} surveyed more than twice"
