import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import actseg
from actseg.cleaning import ClassStats, write_class_stats
from actseg.cli import entry, main
from actseg.hands import write_hand_csv
from actseg.timeline import (BACKGROUND_ID, read_timeline_csv, write_segments_csv,
                             write_timeline_csv)
from actseg.classify import one_hot_logits, write_logits_binary


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_out(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def segments_csv(tmp_path):
    path = tmp_path / "segments.csv"
    write_segments_csv(path, ([0, 10, 30, 60, 75], [10, 30, 60, 75, 135],
                              [0, 0, 0, 1, BACKGROUND_ID]))
    return path


class TestStats:
    def test_records_with_seconds(self, capsys, segments_csv):
        records = json_out(capsys, "stats", "--segments", str(segments_csv), "--fps", "15")
        by_id = {r["class_id"]: r for r in records}
        assert by_id[0]["count"] == 3
        assert by_id[0]["mean_frames"] == pytest.approx(20.0)
        assert by_id[0]["std_frames"] == pytest.approx(8.165, abs=1e-3)
        assert by_id[0]["mean_seconds"] == pytest.approx(20.0 / 15)
        assert by_id[1]["std_frames"] == 0.0
        assert by_id[0]["name"] == "class_0"

    def test_twenty_five_class_fixture(self, capsys, tmp_path):
        path = tmp_path / "all.csv"
        c = np.arange(25)
        write_segments_csv(path, (10 * c, 10 * c + 5 + c, c))
        records = json_out(capsys, "stats", "--segments", str(path))
        assert len(records) == 25

    def test_empty_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("start,end,label_id\n")
        code, _, err = run_cli(capsys, "stats", "--segments", str(path))
        assert code == 2
        assert "no segment rows" in err

    def test_malformed_row_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("start,end,label_id\n0,10,0\nx,20,1\n")
        code, _, err = run_cli(capsys, "stats", "--segments", str(path))
        assert code == 2
        assert ":3:" in err

    def test_plus_signed_first_row_is_kept(self, capsys, tmp_path):
        # a first row "+0,10,3" is data, not a header to drop
        path = tmp_path / "signed.csv"
        path.write_text("+0,10,3\n10,30,3\n")
        records = json_out(capsys, "stats", "--segments", str(path))
        assert [(r["class_id"], r["count"], r["mean_frames"]) for r in records] == [(3, 2, 15.0)]

    def test_overflowing_field_names_line(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("start,end,label_id\n0,99999999999999999999,3\n")
        code, _, err = run_cli(capsys, "stats", "--segments", str(path))
        assert code == 2, err
        assert f"{path}:2: " in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_fps_flag_is_data_error(self, capsys, segments_csv, value):
        code, out, err = run_cli(capsys, "stats", "--segments", str(segments_csv), "--fps", value)
        assert code == 2, err
        assert out == ""
        assert f"fps must be finite and > 0, got {float(value)}" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_config_fps_is_data_error(self, capsys, tmp_path, segments_csv, value):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"fps={value}\n")
        code, _, err = run_cli(capsys, "--config", str(cfg_path),
                               "stats", "--segments", str(segments_csv))
        assert code == 2, err
        assert f"fps must be finite and > 0, got {float(value)}" in err


def make_run_inputs(tmp_path, labels):
    gt_path = tmp_path / "gt.csv"
    logits_path = tmp_path / "in.logits"
    arr = np.asarray(labels, dtype=np.int64)
    write_timeline_csv(gt_path, arr)
    write_logits_binary(logits_path, one_hot_logits(arr))
    return logits_path, gt_path


class TestRun:
    def test_zero_noise_end_to_end(self, capsys, tmp_path):
        labels = [0] * 40 + [BACKGROUND_ID] * 30 + [3] * 40
        logits_path, gt_path = make_run_inputs(tmp_path, labels)
        report = json_out(capsys, "run", "--logits", str(logits_path), "--gt", str(gt_path),
                          "--t", "1", "--tau", "1", "--no-clean")
        assert report["raw"]["acc"] == 100.0
        assert report["raw"]["f1"]["0.5"] == 100.0
        assert report["cleaned"]["edit"] == 100.0
        assert report["config"]["kappa"] is None

    def test_reference_names_attached(self, capsys, tmp_path):
        labels = [6] * 50 + [BACKGROUND_ID] * 50
        logits_path, gt_path = make_run_inputs(tmp_path, labels)
        report = json_out(capsys, "run", "--logits", str(logits_path), "--gt", str(gt_path),
                          "--t", "1", "--tau", "1", "--no-clean")
        assert report["raw"]["per_class"][0]["name"] == "Put Down Spanner"

    def test_cleaning_removes_spikes(self, capsys, tmp_path):
        labels = np.array([BACKGROUND_ID] * 60 + [0] * 50 + [BACKGROUND_ID] * 60)
        noisy = labels.copy()
        for pos in (10, 30, 80, 100, 130, 150):  # away from the run boundaries
            noisy[pos:pos + 2] = 1
        logits_path = tmp_path / "noisy.logits"
        write_logits_binary(logits_path, one_hot_logits(noisy))
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, labels)
        stats_path = tmp_path / "stats.json"
        # thresholds at kappa=1: {0: 15, 1: 30, bg: 15} - spike fragments confirm
        write_class_stats({0: ClassStats(0, 9, 20.0, 5.0),
                           1: ClassStats(1, 9, 40.0, 10.0),
                           BACKGROUND_ID: ClassStats(BACKGROUND_ID, 9, 20.0, 5.0)}, stats_path)
        out_dir = tmp_path / "out"
        report = json_out(capsys, "run", "--logits", str(logits_path), "--gt", str(gt_path),
                          "--stats", str(stats_path), "--t", "1", "--tau", "1",
                          "--kappa", "1.0", "--out-dir", str(out_dir))
        assert report["cleaned"]["f1"]["0.5"] >= report["raw"]["f1"]["0.5"]
        assert report["cleaned"]["f1"]["0.5"] == 100.0
        cleaned = read_timeline_csv(out_dir / "cleaned.csv")
        assert np.array_equal(cleaned, labels)
        raw = read_timeline_csv(out_dir / "raw.csv")
        assert np.array_equal(raw, noisy)
        disk_report = json.loads((out_dir / "report.json").read_text())
        assert disk_report["cleaned"]["f1"] == report["cleaned"]["f1"]

    def test_kappa_with_no_clean_is_usage_error(self, capsys, tmp_path):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 10)
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path),
                               "--no-clean", "--kappa", "1.5")
        assert code == 1
        assert "conflicts" in err

    def test_missing_logits_is_data_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.logits"
        code, _, err = run_cli(capsys, "run", "--logits", str(missing))
        assert code == 2
        assert "nope.logits" in err

    def test_gt_length_mismatch(self, capsys, tmp_path):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 10)
        gt_path = tmp_path / "short.csv"
        write_timeline_csv(gt_path, [0] * 5)
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path),
                               "--gt", str(gt_path), "--no-clean")
        assert code == 2
        assert "5" in err

    def test_thirty_class_logits_clean(self, capsys, tmp_path):
        labels = [27] * 40 + [BACKGROUND_ID] * 30 + [29] * 40
        logits_path = tmp_path / "thirty.logits"
        write_logits_binary(logits_path, one_hot_logits(labels, 30))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path), "--t", "1",
                               "--tau", "1", "--out-dir", str(out_dir))
        assert code == 0, err
        cleaned = read_timeline_csv(out_dir / "cleaned.csv")
        assert cleaned.size == len(labels)
        assert {27, 29} <= set(cleaned.tolist())

    def test_uncovered_classes_warned(self, capsys, tmp_path):
        labels = [27] * 40 + [BACKGROUND_ID] * 30 + [29] * 40
        logits_path = tmp_path / "thirty.logits"
        write_logits_binary(logits_path, one_hot_logits(labels, 30))
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path), "--t", "1",
                               "--tau", "1")
        assert code == 0, err
        assert "warning" in err and "25, 26, 27, 28, 29" in err
        # with every class covered there is nothing to warn about
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path), "--t", "1",
                               "--tau", "1", "--no-clean")
        assert code == 0 and err == ""

    def test_stats_class_outside_label_space_is_data_error(self, capsys, tmp_path):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 40)
        stats_path = tmp_path / "stats.json"
        write_class_stats({0: ClassStats(0, 9, 20.0, 5.0), 40: ClassStats(40, 9, 20.0, 5.0)},
                          stats_path)
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path), "--t", "1",
                               "--tau", "1", "--stats", str(stats_path),
                               "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert "class id 40" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_logits_is_data_error(self, capsys, tmp_path):
        logits = one_hot_logits([5] * 100)
        logits[50, 3] = np.nan
        logits_path = tmp_path / "nan.logits"
        write_logits_binary(logits_path, logits)
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path),
                               "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert "frame 50, column 3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("mean_frames", "Infinity"), ("mean_frames", "1e400"),
                                              ("mean_frames", "NaN"), ("std_frames", "Infinity"),
                                              ("count", "Infinity")])
    def test_non_finite_stats_is_data_error(self, capsys, tmp_path, field, value):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 40)
        record = {"class_id": "0", "count": "9", "mean_frames": "20.0", "std_frames": "5.0"}
        record[field] = value
        stats_path = tmp_path / "stats.json"
        stats_path.write_text("[{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}]")
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path),
                               "--stats", str(stats_path))
        assert code == 2, err
        assert f"{stats_path}: record 0:" in err

    @pytest.mark.parametrize("flag", ["--kappa", "--fps"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flag_is_data_error(self, capsys, tmp_path, flag, value):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 40)
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path), flag, value)
        assert code == 2, err
        assert f"{flag[2:]} must be finite and > 0, got {value}" in err

    @pytest.mark.parametrize("text", ["ignore_background=ture\n", "kappa=nan\n", "fps=inf\n",
                                      "t=2.5\n"])
    def test_bad_config_value_names_line(self, capsys, tmp_path, text):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 10)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("# defaults\n" + text)
        code, _, err = run_cli(capsys, "--config", str(cfg_path),
                               "run", "--logits", str(logits_path))
        assert code == 2, err
        assert f"{cfg_path}:2: bad value for {text.partition('=')[0]}" in err

    def test_repeated_config_key_names_line(self, capsys, tmp_path):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 10)
        cfg_path = tmp_path / "twice.cfg"
        cfg_path.write_text("kappa=1.1\nt=2\nkappa=1.9\n")
        code, _, err = run_cli(capsys, "--config", str(cfg_path),
                               "run", "--logits", str(logits_path))
        assert code == 2, err
        assert f"{cfg_path}:3: config key 'kappa' set twice" in err

    @pytest.mark.parametrize("spelling, value", [("1", True), ("TRUE", True), ("yes", True),
                                                 ("on", True), ("0", False), ("false", False),
                                                 ("No", False), ("off", False)])
    def test_config_boolean_spellings(self, capsys, tmp_path, spelling, value):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 10)
        cfg_path = tmp_path / "bool.cfg"
        cfg_path.write_text(f"ignore_background = {spelling}\n")
        report = json_out(capsys, "--config", str(cfg_path), "run", "--logits", str(logits_path))
        assert report["config"]["ignore_background"] is value

    def test_config_file_defaults_and_flag_override(self, capsys, tmp_path):
        labels = [0] * 80
        logits_path, _ = make_run_inputs(tmp_path, labels)
        cfg_path = tmp_path / "actseg.cfg"
        cfg_path.write_text("# pipeline defaults\nt=2\ntau=3\nkappa=1.1\nfps=30\n")
        report = json_out(capsys, "--config", str(cfg_path),
                          "run", "--logits", str(logits_path))
        assert report["config"] == {"t": 2, "tau": 3, "fps": 30.0, "frames": 80,
                                    "kappa": 1.1, "ignore_background": True}
        report = json_out(capsys, "--config", str(cfg_path),
                          "run", "--logits", str(logits_path), "--t", "4")
        assert report["config"]["t"] == 4
        assert report["config"]["tau"] == 3

    def test_unknown_config_key(self, capsys, tmp_path):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 10)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("warp=9\n")
        code, _, err = run_cli(capsys, "--config", str(cfg_path),
                               "run", "--logits", str(logits_path))
        assert code == 2
        assert "unknown config key" in err

    def test_missing_config_file(self, capsys, tmp_path):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 10)
        code, _, err = run_cli(capsys, "--config", str(tmp_path / "absent.cfg"),
                               "run", "--logits", str(logits_path))
        assert code == 2

    def test_report_to_file(self, capsys, tmp_path):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 20)
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(capsys, "--out", str(out), "run",
                                  "--logits", str(logits_path), "--no-clean")
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["config"]["frames"] == 20


class TestSweepKappa:
    def test_identity_input(self, capsys, tmp_path):
        t_path = tmp_path / "t.csv"
        write_timeline_csv(t_path, [BACKGROUND_ID] * 40 + [0] * 80 + [BACKGROUND_ID] * 40)
        stats_path = tmp_path / "stats.json"
        write_class_stats({0: ClassStats(0, 5, 40.0, 10.0)}, stats_path)
        report = json_out(capsys, "sweep-kappa", "--raw", str(t_path), "--gt", str(t_path),
                          "--stats", str(stats_path))
        assert report["best_kappa"] == 1.0
        assert set(report["scores"]) == {f"{1.0 + 0.1 * i:.1f}" for i in range(11)}

    def test_crafted_knee(self, capsys, tmp_path):
        from test_cleaning import sweep_fixture
        raw, gt, cfg = sweep_fixture()
        raw_path, gt_path = tmp_path / "raw.csv", tmp_path / "gt.csv"
        write_timeline_csv(raw_path, raw)
        write_timeline_csv(gt_path, gt)
        stats_path = tmp_path / "stats.json"
        write_class_stats(cfg.stats, stats_path)
        report = json_out(capsys, "sweep-kappa", "--raw", str(raw_path), "--gt", str(gt_path),
                          "--stats", str(stats_path))
        assert report["best_kappa"] == 1.5
        assert report["scores"]["1.4"] == 0.0
        assert report["scores"]["1.5"] == 100.0

    def test_count_mismatch_is_usage_error(self, capsys, tmp_path):
        t_path = tmp_path / "t.csv"
        write_timeline_csv(t_path, [0] * 10)
        code, _, err = run_cli(capsys, "sweep-kappa", "--raw", str(t_path),
                               "--raw", str(t_path), "--gt", str(t_path))
        assert code == 1
        assert "2 raw" in err

    def test_thirty_class_timelines(self, capsys, tmp_path):
        raw_path, gt_path = tmp_path / "raw.csv", tmp_path / "gt.csv"
        # the largest label, 29, appears only in the ground truth
        write_timeline_csv(raw_path, [27] * 40 + [28] * 2 + [BACKGROUND_ID] * 30 + [27] * 40)
        write_timeline_csv(gt_path, [27] * 42 + [BACKGROUND_ID] * 30 + [29] * 40)
        stats_path = tmp_path / "stats.json"
        write_class_stats({28: ClassStats(28, 9, 20.0, 5.0), 29: ClassStats(29, 9, 20.0, 5.0)},
                          stats_path)
        code, out, err = run_cli(capsys, "sweep-kappa", "--raw", str(raw_path),
                                 "--gt", str(gt_path), "--stats", str(stats_path))
        assert code == 0, err
        assert len(json.loads(out)["scores"]) == 11
        assert "warning" in err and "26, 27;" in err

    def test_overflowing_label_names_line(self, capsys, tmp_path):
        raw_path, gt_path = tmp_path / "raw.csv", tmp_path / "gt.csv"
        raw_path.write_text("frame,label_id\n0,3\n1,99999999999999999999\n")
        write_timeline_csv(gt_path, [3, 3])
        code, _, err = run_cli(capsys, "sweep-kappa", "--raw", str(raw_path), "--gt", str(gt_path))
        assert code == 2, err
        assert f"{raw_path}:3: " in err

    def test_stats_class_outside_label_space_is_data_error(self, capsys, tmp_path):
        t_path = tmp_path / "t.csv"
        write_timeline_csv(t_path, [0] * 40 + [29] * 40)
        stats_path = tmp_path / "stats.json"
        write_class_stats({0: ClassStats(0, 9, 20.0, 5.0), 30: ClassStats(30, 9, 20.0, 5.0)},
                          stats_path)
        code, _, err = run_cli(capsys, "sweep-kappa", "--raw", str(t_path), "--gt", str(t_path),
                               "--stats", str(stats_path))
        assert code == 2
        assert "class id 30 outside [0, 30)" in err


GEOMETRY = ("full_w=920\nfull_h=720\nscale_short=256\ncrop_size=224\n"
            "crop_off_x=50\ncrop_off_y=16\nhand_w=224\nhand_h=224\n"
            "hand_cx=0.5\nhand_cy=0.5\n")


class TestEnhanceDemo:
    def test_reference_footprint(self, capsys, tmp_path):
        geom = tmp_path / "geom.txt"
        geom.write_text(GEOMETRY)
        report = json_out(capsys, "enhance-demo", "--geometry", str(geom))
        assert report["footprint"] == {"rows": 20, "cols": 20, "off_y": 18, "off_x": 18}
        assert report["norm_w"] == pytest.approx(256 / 720, abs=1e-9)
        mask = report["mask"]
        assert len(mask) == 56 and all(len(row) == 56 for row in mask)
        assert sum(row.count("1") for row in mask) == 400
        assert mask[18][18] == "1" and mask[17][18] == "0"

    def test_full_cover(self, capsys, tmp_path):
        geom = tmp_path / "geom.txt"
        geom.write_text("full_w=500\nfull_h=500\nscale_short=250\ncrop_size=250\n"
                        "crop_off_x=0\ncrop_off_y=0\nhand_w=500\nhand_h=500\n"
                        "hand_cx=0.5\nhand_cy=0.5\n")
        report = json_out(capsys, "enhance-demo", "--geometry", str(geom))
        assert report["footprint"] == {"rows": 56, "cols": 56, "off_y": 0, "off_x": 0}
        assert all(set(row) == {"1"} for row in report["mask"])

    def test_pretty_prints_mask(self, capsys, tmp_path):
        geom = tmp_path / "geom.txt"
        geom.write_text(GEOMETRY)
        code, out, _ = run_cli(capsys, "--pretty", "enhance-demo", "--geometry", str(geom))
        assert code == 0
        assert "footprint = 20x20 at (row 18, col 18)" in out

    @pytest.mark.parametrize("value", ["abc", "1e400", "1920.9", "nan"])
    def test_bad_pixel_value_names_line(self, capsys, tmp_path, value):
        geom = tmp_path / "geom.txt"
        geom.write_text(GEOMETRY.replace("full_w=920", f"full_w={value}"))
        code, _, err = run_cli(capsys, "enhance-demo", "--geometry", str(geom))
        assert code == 2, err
        assert f"{geom}:1: bad value for full_w: '{value}'" in err

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "x"])
    def test_bad_hand_center_names_line(self, capsys, tmp_path, value):
        geom = tmp_path / "geom.txt"
        geom.write_text(GEOMETRY.replace("hand_cx=0.5", f"hand_cx={value}"))
        code, _, err = run_cli(capsys, "enhance-demo", "--geometry", str(geom))
        assert code == 2, err
        assert f"{geom}:9: bad value for hand_cx" in err

    def test_repeated_geometry_key_names_line(self, capsys, tmp_path):
        geom = tmp_path / "geom.txt"
        geom.write_text(GEOMETRY + "full_w=1920\n")
        code, _, err = run_cli(capsys, "enhance-demo", "--geometry", str(geom))
        assert code == 2, err
        assert f"{geom}:11: geometry key 'full_w' set twice" in err

    def test_bad_geometry_is_data_error(self, capsys, tmp_path):
        geom = tmp_path / "geom.txt"
        geom.write_text("full_w=920\n")
        code, _, err = run_cli(capsys, "enhance-demo", "--geometry", str(geom))
        assert code == 2
        assert "missing" in err


class TestHandEval:
    def test_threshold_table(self, capsys, tmp_path):
        pred_path = tmp_path / "pred.csv"
        gt_path = tmp_path / "gt.csv"
        # five present hands: two hit within 0.05, two more within 0.15, one at 0.3
        write_hand_csv(gt_path, [
            (0, (1, 0.5, 0.5), (1, 0.5, 0.5)),
            (1, (1, 0.5, 0.5), (1, 0.5, 0.5)),
            (2, (1, 0.5, 0.5), (0, 0.0, 0.0)),
        ])
        write_hand_csv(pred_path, [
            (0, (0.9, 0.55, 0.5), (0.9, 0.45, 0.5)),
            (1, (0.9, 0.65, 0.5), (0.9, 0.35, 0.5)),
            (2, (0.9, 0.8, 0.5), (0.1, 0.0, 0.0)),
        ])
        report = json_out(capsys, "hand-eval", "--pred", str(pred_path), "--gt", str(gt_path),
                          "--thresholds", "0.1,0.2,0.5")
        assert report["slots"] == 6
        assert report["f1"]["0.1"] == pytest.approx(40.0)
        assert report["f1"]["0.2"] == pytest.approx(80.0)
        assert report["f1"]["0.5"] == pytest.approx(100.0)

    def test_row_count_mismatch(self, capsys, tmp_path):
        pred_path = tmp_path / "pred.csv"
        gt_path = tmp_path / "gt.csv"
        write_hand_csv(pred_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        write_hand_csv(gt_path, [(0, (1, 0.5, 0.5), (1, 0.5, 0.5)),
                                 (1, (1, 0.5, 0.5), (1, 0.5, 0.5))])
        code, _, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path), "--gt", str(gt_path))
        assert code == 2
        assert "1 prediction rows" in err

    def test_fractional_target_presence_names_line(self, capsys, tmp_path):
        pred_path, gt_path = tmp_path / "pred.csv", tmp_path / "gt.csv"
        write_hand_csv(pred_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5)),
                                   (1, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        write_hand_csv(gt_path, [(0, (1, 0.5, 0.5), (1, 0.5, 0.5)),
                                 (1, (1, 0.5, 0.5), (0.7, 0.5, 0.5))])
        code, _, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path), "--gt", str(gt_path))
        assert code == 2, err
        assert f"{gt_path}:3: present must be 0 or 1, got 0.7" in err

    def test_frame_columns_must_match(self, capsys, tmp_path):
        pred_path, gt_path = tmp_path / "pred.csv", tmp_path / "gt.csv"
        write_hand_csv(pred_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5)),
                                   (1, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        write_hand_csv(gt_path, [(5, (1, 0.5, 0.5), (1, 0.5, 0.5)),
                                 (9, (1, 0.5, 0.5), (1, 0.5, 0.5))])
        code, _, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path), "--gt", str(gt_path))
        assert code == 2, err
        assert f"{pred_path}:2: frame 0, but {gt_path}:2 has frame 5" in err

    def test_overflowing_frame_names_line(self, capsys, tmp_path):
        pred_path, gt_path = tmp_path / "pred.csv", tmp_path / "gt.csv"
        row = "99999999999999999999,1,0.5,0.5,1,0.5,0.5\n"
        pred_path.write_text("frame,p1,x1,y1,p2,x2,y2\n" + row)
        gt_path.write_text("frame,p1,x1,y1,p2,x2,y2\n" + row)
        code, _, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path), "--gt", str(gt_path))
        assert code == 2, err
        assert f"{pred_path}:2: " in err

    def test_header_only_files_are_data_error(self, capsys, tmp_path):
        pred_path, gt_path = tmp_path / "pred.csv", tmp_path / "gt.csv"
        write_hand_csv(pred_path, [])
        write_hand_csv(gt_path, [])
        code, _, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path), "--gt", str(gt_path))
        assert code == 2, err
        assert f"{pred_path}: no hand rows" in err

    def test_empty_thresholds_usage_error(self, capsys, tmp_path):
        pred_path = tmp_path / "p.csv"
        write_hand_csv(pred_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        code, _, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path),
                               "--gt", str(pred_path), "--thresholds", ",")
        assert code == 1
        assert "no thresholds" in err


class TestSynth:
    def test_zero_noise_identity(self, capsys, tmp_path):
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, [0] * 50 + [1] * 50)
        out_path = tmp_path / "noisy.csv"
        report = json_out(capsys, "synth", "--gt", str(gt_path),
                          "--out-timeline", str(out_path))
        assert report["changed_frames"] == 0
        assert np.array_equal(read_timeline_csv(out_path), [0] * 50 + [1] * 50)

    def test_spikes_add_segments(self, capsys, tmp_path):
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, [0] * 1000)
        report = json_out(capsys, "--seed", "5", "synth", "--gt", str(gt_path),
                          "--spike-rate", "10", "--spike-len", "3")
        assert report["segments_after"] > report["segments_before"]

    def test_logits_formats_by_extension(self, capsys, tmp_path):
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, [0] * 30 + [2] * 30)
        bin_path = tmp_path / "x.logits"
        csv_path = tmp_path / "x.csv"
        json_out(capsys, "synth", "--gt", str(gt_path), "--out-logits", str(bin_path))
        json_out(capsys, "synth", "--gt", str(gt_path), "--out-logits", str(csv_path))
        assert bin_path.read_bytes()[:4] == b"ATSL"
        assert csv_path.read_text().startswith("frame,logit_0")
        from actseg.classify import load_logits
        assert np.array_equal(load_logits(bin_path), load_logits(csv_path))

    def test_seed_reproducible(self, capsys, tmp_path):
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, list(np.repeat(np.arange(5), 40)))
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        json_out(capsys, "--seed", "11", "synth", "--gt", str(gt_path),
                 "--substitution", "0.2", "--out-timeline", str(a_path))
        json_out(capsys, "--seed", "11", "synth", "--gt", str(gt_path),
                 "--substitution", "0.2", "--out-timeline", str(b_path))
        assert a_path.read_text() == b_path.read_text()


def run_entry_point(cwd, *argv):
    """Run ``python -m actseg`` in a child interpreter on the source this process imported."""
    src = str(Path(actseg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "actseg", *argv], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=60)


class TestEntryPoint:
    def test_console_script(self, tmp_path, segments_csv):
        result = run_entry_point(tmp_path, "stats", "--segments", str(segments_csv))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)[0]["class_id"] == 0

    def test_unknown_subcommand_exits_one(self, tmp_path):
        result = run_entry_point(tmp_path, "frobnicate")
        assert result.returncode == 1
        assert "invalid choice" in result.stderr
        assert "frobnicate" in result.stderr

    def test_missing_required_flag_exits_one(self, tmp_path):
        result = run_entry_point(tmp_path, "run")
        assert result.returncode == 1
        assert "--logits" in result.stderr

    def test_console_script_maps_to_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["actseg"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is entry
