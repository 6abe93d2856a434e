import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import zvnav
from zvnav import io as zio
from zvnav.evaluate import TriggerLog, marker_layout_from_truth
from zvnav.optimize import MocapStream, PrCurve


@pytest.fixture()
def short_trial():
    return zvnav.simulate(zvnav.gait_preset("walk", duration=4.0), zvnav.NoiseModel(seed=5))


class TestImuCsv:
    def test_round_trip_is_exact(self, tmp_path, short_trial):
        stream, _ = short_trial
        path = tmp_path / "imu.csv"
        zio.write_imu_csv(path, stream)
        back = zio.read_imu_csv(path)
        assert np.array_equal(back.t, stream.t)
        assert np.array_equal(back.accel, stream.accel)
        assert np.array_equal(back.gyro, stream.gyro)
        assert back.rate_hz == pytest.approx(stream.rate_hz)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,ax,ay,az,wx,wy,wz\n0,0,0,9.8,0,0,0\n")
        with pytest.raises(ValueError, match="header"):
            zio.read_imu_csv(path)

    def test_malformed_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,ax,ay,az,wx,wy,wz\n0,0,0,9.8,0,0,0\n0.008,0,0.0x16,9.8,0,0,0\n")
        with pytest.raises(ValueError, match=r"imu\.csv, line 3: cannot read '0\.0x16'"):
            zio.read_imu_csv(path)

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,ax,ay,az,wx,wy,wz\n0,0,0,9.8,0,0,0\n0.008,0,0,9.8,0,0\n")
        with pytest.raises(ValueError, match=r"imu\.csv, line 3: expected 7 fields, found 6"):
            zio.read_imu_csv(path)

    def test_stream_validation_error_names_file(self, tmp_path, short_trial):
        stream, _ = short_trial
        path = tmp_path / "imu.csv"
        zio.write_imu_csv(path, stream)
        lines = path.read_text().splitlines()
        del lines[99]  # one dropped sample
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"imu\.csv: timestamp jitter exceeds tolerance"):
            zio.read_imu_csv(path)

    @pytest.mark.parametrize("t", [[0.0, 0.0, 0.0], [0.0, -0.008, -0.016, 0.5]])
    def test_non_increasing_timestamps_name_file(self, tmp_path, t):
        # checked before the rate is estimated from the median step, which is
        # zero (repeated) or negative (mostly decreasing) here
        path = tmp_path / "imu.csv"
        path.write_text("t,ax,ay,az,wx,wy,wz\n" + "".join(f"{ti},0,0,9.8,0,0,0\n" for ti in t))
        with pytest.raises(ValueError, match=r"imu\.csv: timestamps must be strictly increasing"):
            zio.read_imu_csv(path)

    def test_write_is_deterministic(self, tmp_path, short_trial):
        stream, _ = short_trial
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        zio.write_imu_csv(a, stream)
        zio.write_imu_csv(b, stream)
        assert a.read_bytes() == b.read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csv_columns(draw, fmt):
    """Columns of one ``CSV_FORMATS`` row: its float groups, then its integer columns."""
    _, widths, ints = zio.CSV_FORMATS[fmt]
    n = draw(st.integers(0, 30))
    columns = [draw(arrays(np.float64, n if w == 1 else (n, w), elements=finite)) for w in widths]
    for dtype in ints:
        values = st.booleans() if dtype is bool else st.integers(-2**53, 2**53)
        columns.append(draw(arrays(dtype, n, elements=values)))
    return columns


@pytest.mark.parametrize("fmt", sorted(zio.CSV_FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_round_trip_is_bit_identical(fmt, data):
    columns = data.draw(csv_columns(fmt))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"{fmt}.csv"
        zio._write_csv(path, fmt, *columns)
        assert path.read_text().splitlines()[0] == zio.CSV_FORMATS[fmt][0]
        back = zio._read_csv(path, fmt)
    assert len(back) == len(columns)
    for got, want in zip(back, columns):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestOtherCsv:
    def test_mocap_round_trip(self, tmp_path, short_trial):
        _, truth = short_trial
        mocap = MocapStream(truth.t, truth.pos, 125.0)
        path = tmp_path / "mocap.csv"
        zio.write_mocap_csv(path, mocap)
        back = zio.read_mocap_csv(path)
        assert np.array_equal(back.t, mocap.t)
        assert np.array_equal(back.pos, mocap.pos)

    def test_trajectory_round_trip(self, tmp_path, short_trial):
        stream, truth = short_trial
        traj = zvnav.run_ins(stream, truth.stance, zvnav.EkfConfig())
        path = tmp_path / "traj.csv"
        zio.write_trajectory_csv(path, traj)
        back = zio.read_trajectory_csv(path)
        assert np.array_equal(back.pos, traj.pos)
        assert np.array_equal(back.quat, traj.quat)
        assert np.array_equal(back.zupt, traj.zupt)
        assert path.read_text().splitlines()[0] == "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,zupt"

    def test_truth_round_trip(self, tmp_path, short_trial):
        _, truth = short_trial
        path = tmp_path / "truth.csv"
        zio.write_truth_csv(path, truth)
        back = zio.read_truth_csv(path)
        assert np.array_equal(back["pos"], truth.pos)
        assert np.array_equal(back["stance"], truth.stance)
        assert np.array_equal(back["labels"], truth.labels)

    def test_trigger_round_trip(self, tmp_path):
        trig = TriggerLog(np.array([0.5, 1.5, 2.25]), np.array([0, 1, 2]))
        path = tmp_path / "trig.csv"
        zio.write_trigger_csv(path, trig)
        back = zio.read_trigger_csv(path)
        assert np.array_equal(back.t, trig.t)
        assert np.array_equal(back.marker_ids, trig.marker_ids)

    def test_pr_curve_written_with_header(self, tmp_path):
        curve = PrCurve(np.array([1e2, 1e3]), np.array([1.0, 0.5]),
                        np.array([0.1, 0.9]), np.array([0.2, 0.6]))
        path = tmp_path / "curve.csv"
        zio.write_pr_curve_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,precision,recall,f_beta"
        assert len(lines) == 3

    def test_detect_and_predict_formats(self, tmp_path):
        t = np.arange(3) / 125.0
        zio.write_detect_csv(tmp_path / "d.csv", t, np.array([True, False, True]))
        assert (tmp_path / "d.csv").read_text().splitlines()[0] == "t,stationary"
        zio.write_predict_csv(tmp_path / "p.csv", t, np.array([0, 0, 2]), np.array([0, 2, 2]))
        assert (tmp_path / "p.csv").read_text().splitlines()[:2] == ["t,y_raw,y_smooth", "0.0,0,0"]


class TestJson:
    def test_marker_map_round_trip(self, tmp_path, short_trial):
        _, truth = short_trial
        marker_map, _ = marker_layout_from_truth(truth, every=2)
        path = tmp_path / "map.json"
        zio.write_marker_map_json(path, marker_map)
        back = zio.read_marker_map_json(path)
        assert back.marker_ids == marker_map.marker_ids
        assert np.allclose(back.positions, marker_map.positions)
        assert back.path_length_m == pytest.approx(marker_map.path_length_m)

    def test_survey_round_trip(self, tmp_path):
        from zvnav.survey import MarkerObservation, tag_template
        template = tag_template()
        stations = [
            [MarkerObservation(0, template, 0), MarkerObservation(1, template + 1.0, 0)],
            [MarkerObservation(1, template, 1), MarkerObservation(2, template + 2.0, 1)],
        ]
        path = tmp_path / "survey.json"
        zio.write_survey_json(path, stations)
        back = zio.read_survey_json(path)
        assert len(back) == 2
        assert back[0][0].marker_id == 0
        assert back[1][0].station_id == 1
        assert np.allclose(back[0][1].points, template + 1.0)


class TestConfig:
    def test_parse_key_values(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# detector\n"
            "window = 7\n"
            "sigma_a = 0.02  # tuning weight\n"
            "\n"
            "sigma_zupt = 0.005\n"
        )
        cfg = zio.load_config(path)
        assert cfg == {"window": 7.0, "sigma_a": 0.02, "sigma_zupt": 0.005}

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("window = 7\nsigma_zup = 5\n")
        with pytest.raises(ValueError, match=r"cfg\.txt, line 2: unknown config key 'sigma_zup'"):
            zio.load_config(path)

    def test_accepts_every_documented_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"{key} = 1\n" for key in zio.CONFIG_KEYS))
        assert zio.load_config(path) == dict.fromkeys(zio.CONFIG_KEYS, 1.0)
        assert len(zio.CONFIG_KEYS) == 12

    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("window 7\n")
        with pytest.raises(ValueError):
            zio.load_config(path)
