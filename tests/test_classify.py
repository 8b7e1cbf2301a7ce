import re
import struct
import tracemalloc

import numpy as np
import pytest

from actseg import classify
from actseg.classify import (LogitsBackend, LogitsReader, NoiseModel, load_logits,
                             make_synthetic_backend, one_hot_logits, read_logits_csv,
                             synth_timeline, write_logits_binary, write_logits_csv)
from actseg.grid import FeatureMap
from actseg.sampling import inference_clip, training_clip
from actseg.timeline import NUM_CLASSES, segments_from_timeline
from oracles import classify_clip_ref, predict_clip_ref, write_logits_csv_ref


class TestBackend:
    def test_shape_and_accessors(self):
        b = LogitsBackend(np.zeros((10, 25)))
        assert (b.num_frames, b.num_classes) == (10, 25)
        assert not b.table.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LogitsBackend(np.zeros(10))
        with pytest.raises(ValueError):
            LogitsBackend(np.zeros((0, 25)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("softmax_average", [False, True])
    def test_rejects_non_finite(self, bad, softmax_average):
        logits = one_hot_logits([5] * 100)
        logits[50, 3] = bad
        logits[70, 1] = bad
        with pytest.raises(ValueError, match="frame 50, column 3"):
            LogitsBackend(logits, softmax_average)

    @pytest.mark.parametrize("softmax_average", [False, True])
    def test_non_finite_in_a_later_block_names_its_frame(self, tmp_path, monkeypatch,
                                                         softmax_average):
        # from_file reads the file 3 rows at a time and checks each block as it lands
        monkeypatch.setattr(classify, "_LOGITS_BLOCK", 75)
        logits = one_hot_logits([5] * 100)
        logits[94, 11] = np.nan
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite logit nan"
                                             " at frame 94, column 11$"):
            LogitsBackend.from_file(path, softmax_average)

    def test_softmax_in_blocks_equals_one_pass(self, tmp_path, monkeypatch):
        # a file is softmaxed as it is read, 7 rows at a time, a table in one pass
        logits = np.random.default_rng(12).normal(0, 3, size=(1000, 25)).astype(np.float32)
        table = logits.astype(np.float64)
        whole = LogitsBackend(table, softmax_average=True).table
        assert np.array_equal(table, logits)  # the caller's table is not softmaxed in place
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        monkeypatch.setattr(classify, "_LOGITS_BLOCK", 7 * 25)
        assert LogitsBackend.from_file(path, softmax_average=True).table.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("fmt", ["atsl", "csv"])
    def test_from_file_checks_each_value_once(self, tmp_path, monkeypatch, fmt):
        logits = np.arange(300, dtype=np.float64).reshape(12, 25)
        path = tmp_path / f"x.{fmt}"
        (write_logits_binary if fmt == "atsl" else write_logits_csv)(path, logits)
        checked = []
        scores = classify._scores
        monkeypatch.setattr(classify, "_scores",
                            lambda rows, *args: checked.append(rows.size) or scores(rows, *args))
        assert np.array_equal(LogitsBackend.from_file(path).table, logits)
        assert sum(checked) == logits.size

    def test_from_timeline_one_hot(self):
        b = LogitsBackend(one_hot_logits([0, 3, 24]))
        assert b.table.shape == (3, 25)
        assert b.table[1, 3] == 1.0 and b.table[1].sum() == 1.0

    def test_softmax_average_normalizes_rows(self):
        rng = np.random.default_rng(0)
        b = LogitsBackend(rng.normal(size=(20, 25)), softmax_average=True)
        assert np.allclose(b.table.sum(axis=1), 1.0)
        assert (b.table > 0).all()
        assert not hasattr(b, "softmax_average")  # the table is the only record of it


# LogitsBackend and FeatureMap keep an array that needs no conversion as it is and make
# it read-only, so a checked table cannot change under them; a copy leaves it the caller's
@pytest.mark.parametrize("held, shape", [(lambda a: LogitsBackend(a).table, (6, 4)),
                                         (lambda a: FeatureMap(a).values, (1, 2, 3, 4))],
                         ids=["backend", "feature_map"])
def test_a_raw_c_contiguous_float64_array_is_shared_and_frozen(held, shape):
    arr = np.random.default_rng(0).normal(size=shape)
    assert held(arr) is arr and not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr.flat[0] = 1.0


@pytest.mark.parametrize("held, arr", [
    (lambda a: LogitsBackend(a).table, np.ones((6, 4), np.float32)),
    (lambda a: LogitsBackend(a).table, np.ones((4, 6)).T),
    (lambda a: LogitsBackend(a, softmax_average=True).table, np.ones((6, 4))),
    (lambda a: FeatureMap(a).values, np.ones((1, 2, 3, 4), np.float32)),
    (lambda a: FeatureMap(a).values, np.ones((4, 3, 2, 1)).T),
], ids=["backend_float32", "backend_transposed", "backend_softmaxed", "feature_map_float32",
        "feature_map_transposed"])
def test_a_converted_or_softmaxed_array_stays_writable(held, arr):
    out = held(arr)
    kept = out.copy()
    arr.flat[0] = 5.0
    assert not out.flags.writeable and np.array_equal(out, kept)


class TestClassifyClip:
    """The clip oracle that test_properties holds run_offline's windows to, on
    the sampling module's clips."""

    def test_constant_one_hot_clip(self):
        b = LogitsBackend(one_hot_logits([7] * 50))
        clip = inference_clip(30, 8, 2, 50)
        scores = classify_clip_ref(b.table, clip.frames)
        assert scores[7] == 1.0 and scores.sum() == 1.0
        assert predict_clip_ref(b.table, clip.frames) == 7

    def test_tie_breaks_to_lowest_class(self):
        logits = np.zeros((2, 25))
        logits[0, 0] = 1.0
        logits[1, 1] = 1.0
        b = LogitsBackend(logits)
        clip = training_clip(0, 2, 1, seq_len=2)
        scores = classify_clip_ref(b.table, clip.frames)
        assert scores[0] == scores[1] == 0.5
        assert predict_clip_ref(b.table, clip.frames) == 0

    def test_boundary_clamp_repeats_first_frame(self):
        logits = np.zeros((100, 25))
        logits[0, 5] = 4.0  # frame 0 distinctive
        logits[1:, 2] = 1.0
        b = LogitsBackend(logits)
        clip = inference_clip(2, 8, 8, 100)  # 7 of 8 slots clamp to frame 0
        scores = classify_clip_ref(b.table, clip.frames)
        assert scores[5] == pytest.approx(4.0 * 7 / 8)
        assert predict_clip_ref(b.table, clip.frames) == 5

    def test_mean_matches_direct_average(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(200, 25))
        b = LogitsBackend(logits)
        for _ in range(100):
            t0 = int(rng.integers(0, 200))
            clip = inference_clip(t0, 8, 4, 200)
            want = logits[np.asarray(clip.frames)].mean(axis=0)
            assert np.allclose(classify_clip_ref(b.table, clip.frames), want, rtol=1e-12, atol=0)

    def test_out_of_range_frame_reported(self):
        b = LogitsBackend(np.zeros((10, 25)))
        clip = training_clip(5, 8, 2)  # reaches frame 19
        with pytest.raises(ValueError, match="outside table range"):
            classify_clip_ref(b.table, clip.frames)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        b = LogitsBackend(rng.normal(size=(50, 25)))
        clip = inference_clip(30, 8, 2, 50)
        first = classify_clip_ref(b.table, clip.frames)
        assert np.array_equal(first, classify_clip_ref(b.table, clip.frames))


class TestOneHot:
    def test_rows_sum_to_one(self):
        oh = one_hot_logits([0, 24, 3])
        assert oh.shape == (3, 25)
        assert np.array_equal(oh.sum(axis=1), np.ones(3))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot_logits([25])
        with pytest.raises(ValueError):
            one_hot_logits([-1])


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(substitution_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(boundary_jitter_std=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(spike_len=0)

    def test_zero_noise_is_identity(self):
        gt = np.array([0] * 30 + [3] * 40 + [24] * 30)
        assert np.array_equal(synth_timeline(gt, NoiseModel()), gt)

    def test_fixed_seed_reproducible(self):
        gt = np.tile(np.repeat(np.arange(5), 20), 4)
        nm = NoiseModel(substitution_prob=0.1, boundary_jitter_std=2.0,
                        spike_rate=5.0, spike_len=3, seed=42)
        assert np.array_equal(synth_timeline(gt, nm), synth_timeline(gt, nm))

    def test_different_seeds_differ(self):
        gt = np.tile(np.repeat(np.arange(5), 20), 4)
        a = synth_timeline(gt, NoiseModel(substitution_prob=0.2, seed=1))
        b = synth_timeline(gt, NoiseModel(substitution_prob=0.2, seed=2))
        assert not np.array_equal(a, b)

    def test_substitution_rate(self):
        gt = np.full(100_000, 7, dtype=np.int64)
        noisy = synth_timeline(gt, NoiseModel(substitution_prob=0.05, seed=3))
        rate = np.mean(noisy != gt)
        assert abs(rate - 0.05) < 0.005

    def test_substitution_always_changes_class(self):
        gt = np.full(5000, 24, dtype=np.int64)
        noisy = synth_timeline(gt, NoiseModel(substitution_prob=1.0, seed=4))
        assert (noisy != 24).all()
        assert noisy.min() >= 0 and noisy.max() < NUM_CLASSES

    @pytest.mark.parametrize("seed", range(8))
    def test_spikes_start_where_they_fit(self, seed):
        # a spike starts in [0, n - spike_len], so one as long as the timeline covers
        # all of it, and every spike leaves one class everywhere
        noisy = synth_timeline([0] * 6, NoiseModel(spike_rate=1000.0, spike_len=6, seed=seed))
        assert np.unique(noisy).size == 1

    def test_spikes_fragment_segments(self):
        gt = np.full(2000, 0, dtype=np.int64)
        nm = NoiseModel(spike_rate=5.0, spike_len=3, seed=5)
        noisy = synth_timeline(gt, nm)
        segs = segments_from_timeline(noisy)
        spike_segs = [s for s in segs if s.class_id != 0]
        assert spike_segs  # rate 5/1000 over 2000 frames: ~10 expected
        assert all(s.length <= nm.spike_len for s in spike_segs)

    def test_jitter_preserves_label_set_and_length(self):
        gt = np.repeat(np.array([0, 1, 2, 3, 24]), 30)
        noisy = synth_timeline(gt, NoiseModel(boundary_jitter_std=3.0, seed=6))
        assert noisy.size == gt.size
        assert set(np.unique(noisy)) <= set(np.unique(gt))

    def test_jitter_moves_boundaries(self):
        gt = np.repeat(np.array([0, 1, 2, 3, 4]), 50)
        noisy = synth_timeline(gt, NoiseModel(boundary_jitter_std=4.0, seed=7))
        gt_cuts = set(s.start for s in segments_from_timeline(gt)[1:])
        noisy_cuts = set(s.start for s in segments_from_timeline(noisy)[1:])
        assert gt_cuts != noisy_cuts

    def test_synthetic_backend_is_one_hot(self):
        gt = np.repeat(np.array([0, 5, 24]), 40)
        b = make_synthetic_backend(gt, NoiseModel(substitution_prob=0.1, seed=8))
        assert b.num_frames == gt.size and b.num_classes == NUM_CLASSES
        assert np.array_equal(np.sort(np.unique(b.table)), [0.0, 1.0])
        for knob in ({"num_classes": 30}, {"softmax_average": True}):
            with pytest.raises(TypeError):
                make_synthetic_backend(gt, NoiseModel(), **knob)


def read_binary(path):
    """A logits file's whole table, read into a fresh array through the one reader."""
    with LogitsReader(path) as reader:
        return reader.read_into(np.empty(reader.shape))


class TestLogitsIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(31, 25)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        assert np.array_equal(load_logits(path), logits)

    @pytest.mark.parametrize("write, logits, message", [
        (write_logits_csv, [[0.0, np.nan]], "non-finite logit nan at frame 0, column 1"),
        (write_logits_binary, [[0.0, np.inf]], "non-finite logit inf at frame 0, column 1"),
        (write_logits_binary, np.zeros((0, 25)),
         "logits must be (n_frames, n_classes), got shape (0, 25)"),
        (write_logits_csv, np.zeros((3, 0)),  # a frame column and nothing else
         "logits must be (n_frames, n_classes), got shape (3, 0)"),
    ])
    def test_load_rejects_non_finite_and_empty_tables(self, tmp_path, write, logits, message):
        path = tmp_path / "x.logits"
        write(path, logits)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_logits(path)

    def test_binary_magic_enforced(self, tmp_path):
        # a file without the binary magic is parsed as CSV, and fails there
        path = tmp_path / "x.logits"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no logit rows$"):
            read_binary(path)

    def test_binary_truncation_detected(self, tmp_path):
        path = tmp_path / "x.logits"
        write_logits_binary(path, np.zeros((4, 25)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_binary(path)

    @pytest.mark.parametrize("shape", [(1, 1), (31, 25), (14, 3)])
    def test_binary_round_trip_in_blocks(self, tmp_path, monkeypatch, shape):
        # a block of 7 values reads as many whole rows, at least one, and leaves a
        # short last block
        monkeypatch.setattr(classify, "_LOGITS_BLOCK", 7)
        logits = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) - 20.5
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        got = read_binary(path)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, logits)

    @pytest.mark.parametrize("blob, message", [
        (b"ATS", "no logit rows"),
        (b"ATSL\x02\x00\x00", "truncated header"),
        (b"ATSL" + struct.pack("<II", 1, 2) + b"\x00" * 9,
         "body of 9 bytes is not a whole number of float32 values"),
        (b"ATSL" + struct.pack("<II", 2, 2) + b"\x00" * 12, "expected 4 values, found 3"),
        pytest.param(b"ATSL" + struct.pack("<II", 0, 25),
                     "logits must be (n_frames, n_classes), got shape (0, 25)", id="0 frames"),
        pytest.param(b"ATSL" + struct.pack("<II", 5, 0),
                     "logits must be (n_frames, n_classes), got shape (5, 0)", id="0 classes"),
    ])
    def test_binary_errors(self, tmp_path, blob, message):
        path = tmp_path / "x.logits"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_binary(path)

    def test_binary_read_holds_the_table_and_one_block(self, tmp_path):
        logits = np.ones((40_000, 25))
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        tracemalloc.start()
        try:
            table = read_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # reading the whole 4 MB body first and converting it peaked at 1.5x the table
        assert peak < table.nbytes + 4 * classify._LOGITS_BLOCK + 65536

    def test_binary_write_holds_one_block(self, tmp_path):
        logits = np.ones((40_000, 25))
        tracemalloc.start()
        try:
            write_logits_binary(tmp_path / "x.logits", logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # converting the whole table to float32 and that to bytes peaked at 8 MB
        assert peak < 4 * classify._LOGITS_BLOCK + 65536

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(9, 25), (7, 3), (50, 1), (51, 1), (3, 60), (4, 0)])
    def test_binary_written_in_blocks_is_the_table(self, tmp_path, monkeypatch, shape, order):
        # a block of 50 values writes as many whole rows, at least one, and leaves a
        # short last block, in row order whatever the table's memory order
        monkeypatch.setattr(classify, "_LOGITS_BLOCK", 50)
        logits = np.asarray(np.random.default_rng(11).normal(size=shape), order=order)
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        assert path.read_bytes() == (b"ATSL" + struct.pack("<II", *shape)
                                     + logits.astype("<f4").tobytes())
        if logits.size:
            assert np.array_equal(read_binary(path), logits.astype(np.float32))

    def test_binary_non_finite_names_file_and_frame(self, tmp_path, monkeypatch):
        monkeypatch.setattr(classify, "_LOGITS_BLOCK", 50)  # blocks of 2 rows
        logits = np.zeros((9, 25))
        logits[7, 20] = -np.inf
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: non-finite logit -inf at frame 7, column 20")):
            read_binary(path)

    def test_file_shrunk_after_open_names_what_it_holds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(classify, "_LOGITS_BLOCK", 50)  # blocks of 2 rows, 200 bytes
        path = tmp_path / "x.logits"
        write_logits_binary(path, np.zeros((200, 25)))
        out = np.empty((200, 25))
        with LogitsReader(path) as reader:
            reader.read_into(out[:3])
            # past the file's read buffer, keep rows 0-99 and half of row 100: the block of
            # rows 99-100 gets 37 of its 50 values
            with open(path, "r+b") as fh:
                fh.truncate(12 + 100 * 100 + 50)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected 5000 values,"
                                                 " found 2512$"):
                reader.read_into(out[3:])

    @pytest.mark.parametrize("kind", ["binary", "csv", "table"])
    def test_read_past_the_end_names_rows_asked_and_left(self, tmp_path, kind):
        # a binary read said "expected 15 values, found 15", a table read numpy's
        # "could not broadcast"
        logits = np.arange(15, dtype=np.float64).reshape(5, 3)
        path = tmp_path / "x.logits"
        (write_logits_csv if kind == "csv" else write_logits_binary)(path, logits)
        reader = LogitsReader(table=logits) if kind == "table" else LogitsReader(path)
        name = re.escape("table" if kind == "table" else str(path))
        out = np.empty((7, 3))
        with reader:
            with pytest.raises(ValueError, match=f"^{name}: asked for 7 rows, 5 left$"):
                reader.read_into(out)
            reader.read_into(out[:3])
            with pytest.raises(ValueError, match=f"^{name}: asked for 3 rows, 2 left$"):
                reader.read_into(out[3:6])
            reader.read_into(out[3:5])  # the refused reads read nothing
        assert np.array_equal(out[:5], logits)

    def test_a_csv_file_is_closed_once_its_magic_is_read(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        path = tmp_path / "x.csv"
        write_logits_csv(path, np.eye(3))
        monkeypatch.setattr(classify, "open", recording_open, raising=False)
        with LogitsReader(path) as reader:
            assert reader.shape == (3, 3) and len(opened) == 1 and opened[0].closed

    def test_reader_fills_rows_the_caller_owns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(classify, "_LOGITS_BLOCK", 10)
        logits = np.arange(60, dtype=np.float64).reshape(12, 5)
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        out = np.full((12, 5), -1.0)
        with LogitsReader(path) as reader:
            assert reader.shape == (12, 5)
            reader.read_into(out[:5])
            reader.read_into(out[5:])
        assert reader._fh.closed
        assert np.array_equal(out, logits)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(12, 25))
        path = tmp_path / "x.csv"
        write_logits_csv(path, logits)
        assert np.array_equal(read_logits_csv(path), logits)

    @pytest.mark.parametrize("rows_per_block", [None, 1, 3])
    @pytest.mark.parametrize("logits", [
        # signed zero, the smallest subnormal, near the largest float, a repeating
        # fraction and whole floats, which repr writes as 2.0, not 2
        [[-0.0, 0.0, 5e-324], [1e308, -1e308, 1 / 3], [2.0, -7.0, 1e16]],
        [[0.1]], np.zeros((3, 0)), np.zeros((0, 4)),
        # 4,099 rows: past one block of the default size
        (np.arange(4099 * 3) % 17 - 8.5).reshape(4099, 3) / 3.0,
    ], ids=["specials", "one_value", "no_classes", "no_frames", "past_one_block"])
    def test_csv_writer_bytes_equal_csv_writer_rows(self, tmp_path, monkeypatch, logits,
                                                     rows_per_block):
        if rows_per_block is not None:
            monkeypatch.setattr(classify, "_CSV_ROWS", rows_per_block)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_logits_csv(got, logits)
        write_logits_csv_ref(want, logits)
        assert got.read_bytes() == want.read_bytes()
        arr = np.asarray(logits, dtype=np.float64)
        if arr.size:
            back = read_logits_csv(got)
            assert back.tobytes() == arr.tobytes() and back.shape == arr.shape

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3, 1))])
    def test_csv_writer_rejects_tables_not_2d(self, tmp_path, bad):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=re.escape(f"logits must be 2-d, got shape {bad.shape}")):
            write_logits_csv(path, bad)
        assert not path.exists()

    def test_csv_jagged_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0,1.0,2.0\n1,1.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_logits_csv(path)

    def test_csv_frame_order_enforced(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0,1.0\n2,1.0\n")
        with pytest.raises(ValueError, match="expected frame 1"):
            read_logits_csv(path)

    def test_sniffing_dispatch(self, tmp_path):
        logits = np.arange(50, dtype=np.float64).reshape(2, 25)
        bin_path = tmp_path / "a.logits"
        csv_path = tmp_path / "b.csv"
        write_logits_binary(bin_path, logits)
        write_logits_csv(csv_path, logits)
        assert np.array_equal(load_logits(bin_path), logits)
        assert np.array_equal(load_logits(csv_path), logits)
        b = LogitsBackend.from_file(bin_path)
        assert b.num_frames == 2
        assert not b.table.flags.writeable
