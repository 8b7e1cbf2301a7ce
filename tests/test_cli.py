import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import actseg
from actseg.cleaning import ClassStats, CleanerConfig, write_class_stats
from actseg.cli import build_parser, entry, main
from actseg.hands import write_hand_csv
from actseg.pipeline import PipelineConfig, StreamSession, run_offline
from actseg.refstats import reference_class_stats
from actseg.timeline import (BACKGROUND_ID, read_timeline_csv, write_segments_csv,
                             write_timeline_csv)
from actseg.classify import LogitsBackend, one_hot_logits, write_logits_binary


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

    def test_first_row_after_byte_order_mark_is_kept(self, capsys, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff0,10,3\n10,30,3\n", encoding="utf-8")
        records = json_out(capsys, "stats", "--segments", str(path))
        assert [(r["class_id"], r["count"], r["mean_frames"]) for r in records] == [(3, 2, 15.0)]

    def test_quoted_first_row_is_data_error(self, capsys, tmp_path):
        # data, not a header to drop; quoted numbers are outside the CSV grammar
        path = tmp_path / "quoted.csv"
        path.write_text('"0",10,3\n10,30,3\n')
        code, out, err = run_cli(capsys, "stats", "--segments", str(path))
        assert code == 2, out
        assert f"{path}:1: " in err

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
        assert f"{gt_path} has 5 frames, but {logits_path} has 10" in err

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

    def test_repeated_stats_class_id_is_data_error(self, capsys, tmp_path):
        # the later record silently replaced the earlier one, with exit 0
        logits_path, _ = make_run_inputs(tmp_path, [0] * 40)
        stats_path = tmp_path / "stats.json"
        record = '{{"class_id": 3, "count": 9, "mean_frames": {}, "std_frames": 5.0}}'
        stats_path.write_text(f"[{record.format(20.0)}, {record.format(40.0)}]")
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path),
                               "--stats", str(stats_path))
        assert code == 2, err
        assert f"actseg: error: {stats_path}: records 0 and 1 both have class_id 3" in err

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

    @pytest.mark.parametrize("tau", [3 * 10**18, 2**62])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tau_beyond_int64_is_data_error(self, capsys, tmp_path, tau, source):
        # 3e18 wrapped around in int64 and mislabelled with exit 0; 2**62 raised an
        # OverflowError (exit 1)
        logits_path, _ = make_run_inputs(tmp_path, [0] * 100 + [3] * 100)
        argv = ["run", "--logits", str(logits_path), "--no-clean",
                "--out-dir", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--tau", str(tau)]
        else:
            cfg_path = tmp_path / "wide.cfg"
            cfg_path.write_text(f"tau={tau}\n")
            argv = ["--config", str(cfg_path)] + argv
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, err
        assert f"t=8 and tau={tau} " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, message", [
        ("odd_body", "body of 20001 bytes is not a whole number of float32 values"),
        ("no_frames", "logits must be (n_frames, n_classes), got shape (0, 25)"),
        ("nan", "non-finite logit nan at frame 5, column 3"),
    ])
    def test_logits_binary_errors_name_the_file(self, capsys, tmp_path, case, message):
        logits = one_hot_logits([5] * 200)
        logits_path = tmp_path / f"{case}.logits"
        if case == "nan":
            logits[5, 3] = np.nan
        write_logits_binary(logits_path, logits[:0] if case == "no_frames" else logits)
        if case == "odd_body":
            with open(logits_path, "ab") as fh:
                fh.write(b"x")
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path))
        assert code == 2, err
        assert f"actseg: error: {logits_path}: {message}" in err

    def test_negative_gt_label_names_line(self, capsys, tmp_path):
        logits_path, gt_path = make_run_inputs(tmp_path, [1] * 10)
        gt_path.write_text("frame,label_id\n" + "".join(f"{i},{-3 if i == 4 else 1}\n"
                                                          for i in range(10)))
        code, _, err = run_cli(capsys, "run", "--logits", str(logits_path), "--gt", str(gt_path))
        assert code == 2, err
        assert f"{gt_path}:6: label_id must be >= 0, got -3" in err

    @pytest.mark.parametrize("text", ["ignore_background=ture\n", "kappa=nan\n", "fps=inf\n",
                                      "t=2.5\n", "kappa=1_4\n", "t=\u0668\n"])
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

    def test_length_mismatch_names_both_files(self, capsys, tmp_path):
        t_path, short_path = tmp_path / "t.csv", tmp_path / "short.csv"
        write_timeline_csv(t_path, [0] * 120)
        write_timeline_csv(short_path, [0] * 100)
        code, out, err = run_cli(capsys, "sweep-kappa", "--raw", str(t_path), "--gt", str(t_path),
                                 "--raw", str(t_path), "--gt", str(short_path))
        assert code == 2 and out == ""
        assert f"{t_path} has 120 frames, but {short_path} has 100" in err

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

    def test_negative_raw_label_names_line(self, capsys, tmp_path):
        raw_path, gt_path = tmp_path / "raw.csv", tmp_path / "gt.csv"
        raw_path.write_text("frame,label_id\n0,3\n1,-3\n")
        write_timeline_csv(gt_path, [3, 3])
        code, _, err = run_cli(capsys, "sweep-kappa", "--raw", str(raw_path), "--gt", str(gt_path))
        assert code == 2, err
        assert f"{raw_path}:3: label_id must be >= 0, got -3" in err

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


class TestBytesNotUtf8:
    """A byte that is not UTF-8 in any text input exits 2 naming the file and the
    line that holds it; the message used to be only the codec's, with no file."""

    @staticmethod
    def bad(path, lines, at):
        """Write lines, with byte 0xff at the start of the last field of line `at`."""
        text = [line.encode() for line in lines]
        head, comma, last = text[at - 1].rpartition(b",")
        text[at - 1] = head + comma + b"\xff" + last if comma else b"\xff" + text[at - 1]
        path.write_bytes(b"\n".join(text) + b"\n")
        return path

    def expect(self, capsys, argv, path, line):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, err
        assert err == f"actseg: error: {path}:{line}: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize("at", [1, 3, 61])
    def test_synth_gt(self, capsys, tmp_path, at):
        lines = ["frame,label_id"] + [f"{i},1" for i in range(60)]
        path = self.bad(tmp_path / "gt.csv", lines, at)
        self.expect(capsys, ["synth", "--gt", str(path)], path, at)

    def test_sweep_kappa_raw(self, capsys, tmp_path):
        lines = ["frame,label_id"] + [f"{i},1" for i in range(5)]
        path = self.bad(tmp_path / "raw.csv", lines, 3)
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, [1] * 5)
        self.expect(capsys, ["sweep-kappa", "--raw", str(path), "--gt", str(gt_path)], path, 3)

    def test_run_logits_without_the_binary_magic(self, capsys, tmp_path):
        lines = ["frame,logit_0,logit_1"] + [f"{i},0.5,1.5" for i in range(8)]
        path = self.bad(tmp_path / "in.logits", lines, 5)
        self.expect(capsys, ["run", "--logits", str(path)], path, 5)

    def test_enhance_demo_geometry(self, capsys, tmp_path):
        path = self.bad(tmp_path / "geom.txt", GEOMETRY.splitlines(), 9)
        self.expect(capsys, ["enhance-demo", "--geometry", str(path)], path, 9)

    def test_config(self, capsys, tmp_path, segments_csv):
        path = self.bad(tmp_path / "bad.cfg", ["# defaults", "fps=15", "t=8"], 3)
        self.expect(capsys, ["--config", str(path), "stats", "--segments", str(segments_csv)],
                    path, 3)

    def test_stats_json(self, capsys, tmp_path):
        logits_path, _ = make_run_inputs(tmp_path, [0] * 40)
        lines = ['[{"class_id": 0, "count": 9,', '"mean_frames": 20.0, "std_frames": 5.0,',
                 '"name": "pick"}]']
        path = self.bad(tmp_path / "stats.json", lines, 2)
        self.expect(capsys, ["run", "--logits", str(logits_path), "--stats", str(path)], path, 2)


def pinned_recording(frames=20_000, classes=25):
    """Ground truth and logits built with integer arithmetic only, so the inputs are
    the same bytes on every numpy: run i has label 7i mod 25 and 8 + (37i mod 83)
    frames, and every 6-frame block carries a hashed distractor class scoring 0 to 3
    in quarter steps against the true class's 2, which window sums add up exactly."""
    runs = np.arange(frames // 8)
    gt = np.repeat((7 * runs) % classes, 8 + (37 * runs) % 83)[:frames]
    f = np.arange(frames)
    h = (f // 6 * 2654435761) % 2**32
    logits = np.zeros((frames, classes))
    logits[f, gt] = 2.0
    logits[f, (gt + 1 + h % (classes - 1)) % classes] = (h >> 8) % 13 / 4
    return gt, logits


class TestPinnedBatchOutputs:
    """actseg run and sweep-kappa on a fixed recording give the outputs recorded
    before the batch cleaner took its closed form. A change that is meant to keep
    the outputs (a speed-up, a refactor) must keep these."""

    RAW_SHA256 = "00a2a2436ebf7bb7ae9cfea6098bf8da500fc76d8a41b80228063e19047ce340"
    CLEANED_SHA256 = "d56011f49fd5faf44390a0ec9c589b3a364cb58f05c2a7f6ee03f5db6314bd68"
    SWEEP = {"best_kappa": 2.0, "scores": {
        "1.0": 58.49673202614379, "1.1": 62.80193236714976, "1.2": 64.96,
        "1.3": 68.87835703001579, "1.4": 72.07488299531981, "1.5": 74.69135802469135,
        "1.6": 75.72519083969466, "1.7": 76.59574468085107, "1.8": 79.46026986506746,
        "1.9": 79.46026986506746, "2.0": 81.12927191679049}}

    def test_run_and_sweep_outputs_unchanged(self, capsys, tmp_path):
        gt, logits = pinned_recording()
        logits_path, gt_path = tmp_path / "in.logits", tmp_path / "gt.csv"
        out_dir = tmp_path / "out"
        write_logits_binary(logits_path, logits)
        write_timeline_csv(gt_path, gt)
        json_out(capsys, "run", "--logits", str(logits_path), "--gt", str(gt_path),
                 "--out-dir", str(out_dir))
        digests = [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in ("raw.csv", "cleaned.csv")]
        assert digests == [self.RAW_SHA256, self.CLEANED_SHA256]
        sweep = json_out(capsys, "sweep-kappa", "--raw", str(out_dir / "raw.csv"),
                         "--gt", str(gt_path))
        assert sweep == self.SWEEP


class TestPinnedBatchReport:
    """actseg run's report.json on the pinned recording, raw and cleaned sections
    included, as recorded before evaluate built each timeline's runs once."""

    REPORT_SHA256 = "4e67ffa218ec4af67f418cc30e250370495df80e19cab2edf840d6be1faed85a"
    F1 = {"raw": {"0.1": 64.42953020134229, "0.25": 59.827420901246406,
                  "0.5": 55.41706615532119},
          "cleaned": {"0.1": 77.69110764430577, "0.25": 77.37909516380655,
                      "0.5": 72.07488299531981}}

    def test_report_unchanged(self, capsys, tmp_path):
        gt, logits = pinned_recording()
        logits_path, gt_path = tmp_path / "in.logits", tmp_path / "gt.csv"
        out_dir = tmp_path / "out"
        write_logits_binary(logits_path, logits)
        write_timeline_csv(gt_path, gt)
        json_out(capsys, "run", "--logits", str(logits_path), "--gt", str(gt_path),
                 "--out-dir", str(out_dir))
        report_bytes = (out_dir / "report.json").read_bytes()
        report = json.loads(report_bytes)
        assert {tag: report[tag]["f1"] for tag in ("raw", "cleaned")} == self.F1
        assert hashlib.sha256(report_bytes).hexdigest() == self.REPORT_SHA256


class TestPinnedStreamSchedule:
    """A cleaning StreamSession on the pinned recording, at actseg run's defaults, emits
    each (push index, frame, label) exactly as recorded: a change to the stream path
    must keep when each label comes out, not only the labels and the lag bound."""

    SCHEDULE_SHA256 = "3dfea1a600f5718fcfb9405363e4a9b8c8832376478469ed8354be9283785c8b"

    def test_emission_schedule_unchanged(self):
        _, logits = pinned_recording()
        backend = LogitsBackend(logits)
        cleaner = CleanerConfig(1.4, reference_class_stats(15.0), 15.0, num_classes=25)
        cfg = PipelineConfig(8, 8, 15.0, 25, cleaner)
        session = StreamSession(cfg, backend)
        schedule = [(i, f, lab) for i in range(backend.num_frames) for f, lab in session.push(i)]
        schedule += [(backend.num_frames, f, lab) for f, lab in session.finish()]
        assert [f for _, f, _ in schedule] == list(range(backend.num_frames))
        assert [lab for _, _, lab in schedule] == run_offline(cfg, backend)[1].tolist()
        text = "".join(f"{i},{f},{lab}\n" for i, f, lab in schedule)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SCHEDULE_SHA256


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

    @pytest.mark.parametrize("value", ["abc", "1e400", "1920.9", "nan", "9_20",
                                       "\u0669\u0662\u0660"])
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

    def test_hand_size_flags_are_gone(self, capsys, tmp_path):
        # the mask is where an all-ones map lands, whatever size the map had
        geom = tmp_path / "geom.txt"
        geom.write_text(GEOMETRY)
        with pytest.raises(SystemExit) as exc:
            main(["enhance-demo", "--geometry", str(geom), "--hand-h", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --hand-h 5" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--backbone-h", "--backbone-w"])
    @pytest.mark.parametrize("value", ["0", "-3", "225"])
    def test_grid_outside_crop_names_flag(self, capsys, tmp_path, flag, value):
        # a backbone grid has at most one cell per crop pixel (crop_size 224)
        geom = tmp_path / "geom.txt"
        geom.write_text(GEOMETRY)
        code, out, err = run_cli(capsys, "enhance-demo", "--geometry", str(geom), flag, value)
        assert code == 2 and out == ""
        assert err == f"actseg: error: {geom}: {flag} must be in [1, 224], got {value}\n"

    def test_grid_as_fine_as_the_crop(self, capsys, tmp_path):
        geom = tmp_path / "geom.txt"
        geom.write_text(GEOMETRY)
        report = json_out(capsys, "enhance-demo", "--geometry", str(geom), "--backbone-w", "224")
        assert len(report["mask"]) == 56 and all(len(row) == 224 for row in report["mask"])

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

    def test_present_target_position_names_line(self, capsys, tmp_path):
        # a present hand off the unit square is bad data, not a missed hand
        pred_path, gt_path = tmp_path / "pred.csv", tmp_path / "gt.csv"
        write_hand_csv(pred_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        gt_path.write_text("frame,p1,x1,y1,p2,x2,y2\n0,1,nan,0.5,1,1e400,-7\n")
        code, out, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path), "--gt", str(gt_path))
        assert code == 2 and out == ""
        assert f"{gt_path}:2: x must be in [0, 1], got nan" in err

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

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_threshold_outside_range_is_data_error(self, capsys, tmp_path, value):
        pred_path, gt_path = tmp_path / "pred.csv", tmp_path / "gt.csv"
        write_hand_csv(pred_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        write_hand_csv(gt_path, [(0, (1, 0.5, 0.5), (1, 0.5, 0.5))])
        code, out, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path),
                                 "--gt", str(gt_path), "--thresholds", f"0.1,{value}")
        assert code == 2 and out == ""
        assert f"t_l must be finite and > 0, got {float(value)}" in err

    def test_empty_thresholds_usage_error(self, capsys, tmp_path):
        pred_path = tmp_path / "p.csv"
        write_hand_csv(pred_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        code, _, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path),
                               "--gt", str(pred_path), "--thresholds", ",")
        assert code == 1
        assert "no thresholds" in err

    def test_non_numeric_threshold_usage_error(self, capsys, tmp_path):
        # it was a data error (exit 2) naming neither the flag nor the file
        pred_path = tmp_path / "p.csv"
        write_hand_csv(pred_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        code, out, err = run_cli(capsys, "hand-eval", "--pred", str(pred_path),
                                 "--gt", str(pred_path), "--thresholds", "0.1,abc")
        assert code == 1 and out == ""
        assert "actseg: error: --thresholds: " in err and "'abc'" in err


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

    def test_negative_gt_label_names_line(self, capsys, tmp_path):
        # was read, corrupted and reported with exit 0
        gt_path = tmp_path / "gt.csv"
        gt_path.write_text("frame,label_id\n0,2\n1,2\n2,-1\n")
        code, _, err = run_cli(capsys, "synth", "--gt", str(gt_path))
        assert code == 2, err
        assert f"{gt_path}:4: label_id must be >= 0, got -1" in err

    @pytest.mark.parametrize("flag, value, field", [("--jitter-std", "inf", "boundary_jitter_std"),
                                                    ("--jitter-std", "nan", "boundary_jitter_std"),
                                                    ("--spike-rate", "nan", "spike_rate")])
    def test_non_finite_noise_names_field(self, capsys, tmp_path, flag, value, field):
        # inf jitter would merge every segment, and NaN would apply no noise
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, np.repeat([0, 3, 7, 24], 65))
        code, out, err = run_cli(capsys, "synth", "--gt", str(gt_path), flag, value)
        assert code == 2 and out == ""
        assert f"{field} must be finite and >= 0, got {value}" in err

    @pytest.mark.parametrize("value", ["1e6", "1e300"])
    def test_spike_rate_above_one_per_frame_names_field(self, capsys, tmp_path, value):
        # 1e6 drew about 260,000 spikes in a Python loop for 2 s; 1e300 failed
        # inside numpy's Poisson draw with a message naming no field
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, np.repeat([0, 3, 7, 24], 65))
        code, out, err = run_cli(capsys, "synth", "--gt", str(gt_path), "--spike-rate", value)
        assert code == 2 and out == ""
        assert f"spike_rate must be <= 1000, got {float(value)}" in err

    def test_spike_rate_of_one_per_frame_accepted(self, capsys, tmp_path):
        gt_path = tmp_path / "gt.csv"
        write_timeline_csv(gt_path, np.repeat([0, 3, 7, 24], 65))
        report = json_out(capsys, "synth", "--gt", str(gt_path), "--spike-rate", "1000")
        assert report["changed_frames"] > 0

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

    def test_global_flag_after_subcommand_is_not_abbreviated(self, tmp_path):
        # prefix matching would take --out for run's --out-dir and write a directory
        logits_path, _ = make_run_inputs(tmp_path, [0] * 10)
        result = run_entry_point(tmp_path, "run", "--logits", str(logits_path), "--out", "r.json")
        assert result.returncode == 1
        assert "unrecognized arguments: --out r.json" in result.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, flag", [("run", "--kappa"), ("run", "--t"),
                                               ("hand-eval", "--thresholds")])
    def test_digit_separator_in_flag_exits_one(self, tmp_path, command, flag):
        # int() and float() read 1_4 as 14: the command ran with that and exited 0
        logits_path, _ = make_run_inputs(tmp_path, [0] * 40)
        hands_path = tmp_path / "hands.csv"
        write_hand_csv(hands_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        inputs = {"run": ["--logits", str(logits_path)],
                  "hand-eval": ["--pred", str(hands_path), "--gt", str(hands_path)]}[command]
        result = run_entry_point(tmp_path, command, *inputs, flag, "1_4")
        assert result.returncode == 1, result.stderr
        assert flag in result.stderr and "'1_4'" in result.stderr

    @pytest.mark.parametrize("command, flag", [("run", "--t"), ("run", "--kappa"),
                                               ("hand-eval", "--thresholds")])
    def test_non_ascii_digit_in_flag_exits_one(self, tmp_path, command, flag):
        # int() and float() read the Arabic-Indic digit eight as 8, which np.loadtxt refuses
        logits_path, _ = make_run_inputs(tmp_path, [0] * 40)
        hands_path = tmp_path / "hands.csv"
        write_hand_csv(hands_path, [(0, (0.9, 0.5, 0.5), (0.9, 0.5, 0.5))])
        inputs = {"run": ["--logits", str(logits_path)],
                  "hand-eval": ["--pred", str(hands_path), "--gt", str(hands_path)]}[command]
        result = run_entry_point(tmp_path, command, *inputs, flag, "\u0668")
        assert result.returncode == 1, result.stderr
        assert flag in result.stderr

    def test_console_script_maps_to_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["actseg"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is entry


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argv of every `actseg ...` command in README's sh blocks, with `\\`
    continuations joined and shell redirections such as `> stats.json` dropped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(re.sub(r"\s\d?(>>?|<)\s*\S+", "", line), comments=True)
            if words[:1] == ["actseg"]:
                commands.append(words[1:])
    return commands


class TestReadme:
    def test_documented_commands_parse(self, capsys):
        # a flag removed or renamed in the parser cannot stay in the README
        documented = set()
        for argv in readme_commands():
            try:
                args = build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: actseg {shlex.join(argv)}\n"
                            f"{capsys.readouterr().err}")
            documented.add(args.command)
        assert documented == {"stats", "synth", "run", "sweep-kappa", "enhance-demo", "hand-eval"}
