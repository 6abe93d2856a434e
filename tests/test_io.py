import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zvnav import io as zio
from zvnav.core import ImuStream, write_json
from zvnav.ekf import EkfConfig, run_ins
from zvnav.evaluate import TriggerLog, marker_layout_from_truth
from zvnav.optimize import MocapStream, PrCurve
from zvnav.simulate import NoiseModel, gait_preset, simulate
from zvnav.svm import load_model


@pytest.fixture()
def short_trial():
    return simulate([(gait_preset("walk"), 4.0)], NoiseModel(seed=5))


class TestImuCsv:
    def test_round_trip_is_exact(self, tmp_path, short_trial):
        stream, _ = short_trial
        path = tmp_path / "imu.csv"
        zio.write_imu_csv(path, stream)
        back = zio.read_imu_csv(path)
        assert np.array_equal(back.t, stream.t)
        assert np.array_equal(back.accel, stream.accel)
        assert np.array_equal(back.gyro, stream.gyro)

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

    def test_rejects_excess_jitter(self, tmp_path):
        path = tmp_path / "imu.csv"
        write_imu_log(path, [0.0, 0.008, 0.018])
        with pytest.raises(ValueError, match=r"imu\.csv: timestamp jitter exceeds tolerance"):
            zio.read_imu_csv(path)

    def test_jitter_within_tolerance_accepted(self, tmp_path):
        path = tmp_path / "imu.csv"
        write_imu_log(path, [0.0, 0.0082, 0.0162])
        assert len(zio.read_imu_csv(path)) == 3

    @pytest.mark.parametrize("t", [[0.0, 0.0, 0.0], [0.0, -0.008, -0.016, 0.5]])
    def test_non_increasing_timestamps_name_file(self, tmp_path, t):
        # checked before the steps are compared with their median, which is
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


def write_imu_log(path, t) -> None:
    """A still IMU log at the timestamps ``t``."""
    zio.write_imu_csv(path, ImuStream(t, np.zeros((len(t), 3)), np.zeros((len(t), 3))))


@settings(max_examples=60, deadline=None)
@given(period=st.floats(1e-3, 1.0),
       ratios=st.lists(st.floats(0.96, 1.04), min_size=3, max_size=40),
       moved=st.none() | st.tuples(st.integers(0, 39), st.floats(0.05, 0.8) | st.floats(1.2, 3.0)))
def test_a_log_reads_only_if_every_step_lies_near_the_median_step(period, ratios, moved):
    # steps of 0.96-1.04 periods lie within 10% of their median; one step
    # moved below 0.8 or above 1.2 periods lies beyond it, whatever the median
    steps = np.array(ratios) * period
    if moved is not None:
        index, factor = moved
        steps[index % len(steps)] = factor * period
    t = np.concatenate([[0.0], np.cumsum(steps)])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "imu.csv"
        write_imu_log(path, t)
        if moved is None:
            assert np.array_equal(zio.read_imu_csv(path).t, t)
            return
        with pytest.raises(ValueError) as info:
            zio.read_imu_csv(path)
    assert str(info.value) == (f"{path}: timestamp jitter exceeds tolerance "
                               "(10% of the median step)")


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
        traj = run_ins(stream, truth.stance, EkfConfig())
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

    @pytest.mark.parametrize("reader, text, message", [
        (zio.read_trigger_csv, "t,marker_id\n1.0,0\nnan,1\n3.0,2\n",
         "trigger timestamps must be finite"),
        (zio.read_trigger_csv, "t,marker_id\n1.0,0\ninf,1\n", "trigger timestamps must be finite"),
        (zio.read_trigger_csv, "t,marker_id\n2.0,0\n1.0,1\n",
         "trigger timestamps must be strictly increasing"),
        (zio.read_mocap_csv, "t,x,y,z\n0.0,0,0,0\n0.0,0,0,0\n",
         "timestamps must be strictly increasing"),
        (zio.read_mocap_csv, "t,x,y,z\n0.0,0,0,nan\n", "mocap values must be finite"),
    ])
    def test_a_rejected_log_names_its_file(self, tmp_path, reader, text, message):
        path = tmp_path / "log.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("reader, fmt, row, message", [
        (zio.read_trigger_csv, "trigger", "1.0,1.7", "marker_id = 1.7: not a whole number"),
        (zio.read_trigger_csv, "trigger", "1.0,nan",
         "marker_id = nan: cannot convert float NaN to integer"),
        (zio.read_trigger_csv, "trigger", "1.0,1e30", "marker_id = 1e+30: out of the int64 range"),
        (zio.read_truth_csv, "truth", "1.0,0,0,0,0,0,0,0.5,0", "stance = 0.5: not 0 or 1"),
        (zio.read_truth_csv, "truth", "1.0,0,0,0,0,0,0,1,2.5", "class = 2.5: not a whole number"),
        (zio.read_trajectory_csv, "trajectory", "1.0,0,0,0,0,0,0,1,0,0,0,2", "zupt = 2.0: not 0 or 1"),
    ])
    def test_an_integer_or_flag_column_holds_its_values_exactly(self, tmp_path, reader, fmt, row,
                                                               message):
        header = zio.CSV_FORMATS[fmt][0]
        path = tmp_path / "log.csv"
        path.write_text(f"\n{header}\n{','.join(['0'] * len(header.split(',')))}\n{row}\n")
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}, line 4: {message}"

    @pytest.mark.parametrize("reader, fmt", [
        (zio.read_imu_csv, "imu"), (zio.read_mocap_csv, "mocap"), (zio.read_trigger_csv, "trigger"),
    ])
    def test_a_malformed_line_names_its_file_once(self, tmp_path, reader, fmt):
        header = zio.CSV_FORMATS[fmt][0]
        width = len(header.split(","))
        path = tmp_path / "log.csv"
        path.write_text(header + "\n" + ",".join(["0"] * (width + 1)) + "\n")
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}, line 2: expected {width} fields, found {width + 1}"

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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(st.floats())
                   | st.dictionaries(st.text(), inner) | st.dictionaries(st.integers(), inner)),
    max_leaves=40,
)


class TestJson:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    @example({"b": [-0.0, math.nan, math.inf, -math.inf], "a": [[], {}, ()], "c": [1.5, 2.0]})
    @example({1.5: [True, None], -2.0: [[0.1, 2e-300], [1, 2.0]], math.inf: "\u00e9"})
    def test_write_json_writes_the_text_of_json_dumps(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "write_json.json"
        write_json(path, value)
        assert path.read_text() == json.dumps(value, sort_keys=True, indent=1)

    @pytest.mark.parametrize("value", [{(1, 2): 0}, [object()], {"a": {1, 2}}])
    def test_write_json_rejects_what_json_dumps_rejects(self, tmp_path, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, sort_keys=True, indent=1)
        with pytest.raises(TypeError) as raised:
            write_json(tmp_path / "x.json", value)
        assert str(raised.value) == str(expected.value)

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

    @pytest.mark.parametrize("reader, text, message", [
        (zio.read_marker_map_json, '{"a": 1}', "not a marker map (missing field 'markers')"),
        (zio.read_marker_map_json, '{"markers": [{"id": 0}]}',
         "not a marker map (missing field 'pos')"),
        (zio.read_marker_map_json, "[1, 2]", "not a marker map (expected a JSON object)"),
        (zio.read_survey_json, '{"markers": []}', "not a survey (missing field 'stations')"),
        (zio.read_survey_json, "7", "not a survey (expected a JSON object)"),
        (zio.read_survey_json, '{"stations": [', "not valid JSON (Expecting value"),
        (load_model, '{"classes": [0, 2]', "not valid JSON (Expecting ',' delimiter"),
    ])
    def test_wrong_json_names_the_file(self, tmp_path, reader, text, message):
        path = tmp_path / "data.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value).startswith(f"{path}: {message}")


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

    def test_rejects_repeated_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("sigma_a = 0.01\nwindow = 7\nsigma_a = 0.02\n")
        with pytest.raises(ValueError) as info:
            zio.load_config(path)
        assert str(info.value) == f"{path}, line 3: config key 'sigma_a' is set again"

    def test_accepts_every_documented_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"{key} = 1\n" for key in zio.CONFIG_KEYS))
        assert zio.load_config(path) == dict.fromkeys(zio.CONFIG_KEYS, 1.0)
        assert len(zio.CONFIG_KEYS) == 10

    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("window 7\n")
        with pytest.raises(ValueError):
            zio.load_config(path)
