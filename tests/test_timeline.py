import csv
import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from actseg import timeline
from actseg.timeline import (BACKGROUND_ID, NUM_CLASSES, Segment, as_runs, as_timeline,
                             encode_runs, read_segments_csv, read_timeline_csv,
                             segments_from_timeline, timeline_from_segments, write_segments_csv,
                             write_timeline_csv)
from oracles import rle_ref, write_csv_ref


class TestSegment:
    def test_length(self):
        assert Segment(3, 10, 25).length == 15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Segment(3, 10, 10)
        with pytest.raises(ValueError):
            Segment(3, 11, 10)

    def test_negative_class_rejected(self):
        with pytest.raises(ValueError):
            Segment(-1, 0, 5)


class TestRunLength:
    def test_single_run(self):
        segs = segments_from_timeline([7, 7, 7])
        assert segs == [Segment(7, 0, 3)]

    def test_alternation(self):
        segs = segments_from_timeline([1, 1, 2, 1])
        assert segs == [Segment(1, 0, 2), Segment(2, 2, 3), Segment(1, 3, 4)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segments_from_timeline([])

    def test_matches_reference_encoder(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            labels = rng.integers(0, 4, size=rng.integers(1, 60))
            got = [(s.class_id, s.start, s.end) for s in segments_from_timeline(labels)]
            assert got == rle_ref(labels)

    def test_round_trip_through_segments(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            labels = rng.integers(0, NUM_CLASSES, size=rng.integers(1, 80))
            back = timeline_from_segments(encode_runs(labels), length=len(labels))
            assert np.array_equal(back, labels)

    def test_gap_fill(self):
        out = timeline_from_segments(([1], [3], [2]), length=5)
        assert out.tolist() == [BACKGROUND_ID, 2, 2, BACKGROUND_ID, BACKGROUND_ID]

    def test_length_inferred_from_last_end(self):
        out = timeline_from_segments(([0, 4], [2, 6], [0, 1]))
        assert len(out) == 6

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            timeline_from_segments(([0], [10], [0]), length=5)

    def test_as_timeline_requires_1d(self):
        with pytest.raises(ValueError):
            as_timeline([[1, 2], [3, 4]])

    @pytest.mark.filterwarnings("error")  # NaN and inf are caught before a cast could warn
    @pytest.mark.parametrize("labels, bad", [([0.9, 1.2], "0.9 at frame 0"),
                                             (np.array([1.0, 2.5]), "2.5 at frame 1"),
                                             ([3.0, np.nan], "nan at frame 1"),
                                             ([-np.inf], "-inf at frame 0")])
    def test_as_timeline_rejects_a_label_that_is_not_whole(self, labels, bad):
        # the int64 cast truncated it: frame_accuracy([0.9, 1.2], [0, 1]) read 100.0
        with pytest.raises(ValueError, match=f"^label {bad} is not a whole number$"):
            as_timeline(labels)

    @pytest.mark.filterwarnings("error")  # caught before the cast could warn or wrap
    @pytest.mark.parametrize("labels, bad", [([1e19, 0.0], "1e+19 at frame 0"),
                                             ([0.0, -1e19], "-1e+19 at frame 1"),
                                             ([2.0**63], "9.223372036854776e+18 at frame 0"),
                                             (np.array([0, 2**63], np.uint64),
                                              "9223372036854775808 at frame 1"),
                                             # an array is checked item by item, as a list is
                                             (np.array([0.0, 2.0**63]),
                                              "9.223372036854776e+18 at frame 1"),
                                             (np.array([-1e19]), "-1e+19 at frame 0")])
    def test_as_timeline_rejects_a_label_past_int64(self, labels, bad):
        # the cast made it int64's minimum, and frame_accuracy named that label
        with pytest.raises(ValueError, match=f"^label {re.escape(bad)} does not fit int64$"):
            as_timeline(labels)

    @pytest.mark.parametrize("labels, bad", [
        ([2**64], "18446744073709551616 at frame 0 does not fit int64"),
        ([0, -2**63 - 1], "-9223372036854775809 at frame 1 does not fit int64"),
        (np.array([-1, 2**63], dtype=object), "9223372036854775808 at frame 1 does not fit int64"),
        ([1, "a"], "'a' at frame 1 is neither an integer nor a float"),
        ([None], "None at frame 0 is neither an integer nor a float"),
        ([3, 2.5, None], "2.5 at frame 1 is not a whole number"),
        (np.array(["1"]), "'1' at frame 0 is neither an integer nor a float")])
    def test_as_timeline_rejects_a_label_of_an_object_array(self, labels, bad):
        # each failed in np.isfinite with numpy's TypeError, naming no frame
        with pytest.raises(ValueError, match=f"^label {re.escape(bad)}$"):
            as_timeline(labels)

    def test_as_timeline_keeps_whole_labels_of_an_object_array(self):
        got = as_timeline(np.array([3, 2.0, np.int64(24), 2**63 - 1, -2**63], dtype=object))
        assert got.dtype == np.int64 and got.tolist() == [3, 2, 24, 2**63 - 1, -2**63]

    @pytest.mark.parametrize("labels, want", [
        ([2**53 + 1, 2.0], [2**53 + 1, 2]),
        ((1.0, -2**53 - 1), [1, -2**53 - 1]),
        ([2**63 - 1, 0.0, 2.0**62], [2**63 - 1, 0, 2**62])])
    def test_as_timeline_keeps_a_large_integer_of_a_list_with_floats(self, labels, want):
        # np.asarray rounded it to float64 before any check: [2**53 + 1, 2.0] gave [2**53, 2]
        got = as_timeline(labels)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_as_timeline_names_the_first_bad_item_of_a_large_list(self):
        with pytest.raises(ValueError, match=r"^label 0\.5 at frame 1 is not a whole number$"):
            as_timeline([2**60, 0.5, 2.0**64])

    @pytest.mark.filterwarnings("error")
    def test_as_timeline_keeps_int64_extremes(self):
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        for labels in (np.array([top, bottom]), np.array([top], np.uint64), [top, bottom]):
            assert as_timeline(labels).tolist() == np.asarray(labels).tolist()

    @pytest.mark.parametrize("runs, bad", [
        (([0.0], [2.7], [1.9]), "end column: label 2.7 at run 0 is not a whole number"),
        (([0, 4], [4, 8], [1, 2.5]), "label column: label 2.5 at run 1 is not a whole number"),
        (([0, 2.0**63], [4, 8], [1, 2]),
         "start column: label 9.223372036854776e+18 at run 1 does not fit int64")])
    def test_runs_name_the_column_and_run_of_a_value_that_is_not_whole(self, tmp_path, runs, bad):
        # as_runs cast with np.array(runs, dtype=np.int64), which truncated 2.7 to 2
        for use in (as_runs, timeline_from_segments,
                    lambda r: write_segments_csv(tmp_path / "s.csv", r)):
            with pytest.raises(ValueError, match=f"^runs' {re.escape(bad)}$"):
                use(runs)

    def test_as_timeline_keeps_whole_labels(self):
        labels = np.array([3, 0, 24])
        assert as_timeline(labels) is labels
        for same in ([3, 0, 24], [3.0, 0.0, 24.0], labels.astype(np.uint8)):
            got = as_timeline(same)
            assert got.dtype == np.int64 and got.tolist() == [3, 0, 24]


class TestCsv:
    def test_timeline_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        labels = np.array([0, 0, 3, 3, BACKGROUND_ID], dtype=np.int64)
        write_timeline_csv(path, labels)
        assert np.array_equal(read_timeline_csv(path), labels)
        assert path.read_text().splitlines()[0] == "frame,label_id"

    def test_timeline_bytes_match_csv_writer(self, tmp_path):
        # the file a csv.writer row loop writes, CRLF line ends included
        labels = np.array([3, 3, 0, BACKGROUND_ID, 12], dtype=np.int64)
        buf = io.StringIO(newline="")
        wr = csv.writer(buf)
        wr.writerow(["frame", "label_id"])
        for i, v in enumerate(labels.tolist()):
            wr.writerow([i, v])
        path = tmp_path / "t.csv"
        write_timeline_csv(path, labels)
        assert path.read_bytes() == buf.getvalue().encode()
        assert b"\r\n" in path.read_bytes()

    def test_timeline_headerless(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,5\n1,5\n2,1\n")
        assert read_timeline_csv(path).tolist() == [5, 5, 1]

    def test_timeline_gap_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,5\n2,5\n")
        with pytest.raises(ValueError, match="expected frame 1"):
            read_timeline_csv(path)

    def test_timeline_non_integer_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,abc\n")
        with pytest.raises(ValueError, match="non-integer"):
            read_timeline_csv(path)

    def test_timeline_empty_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frame,label_id\n")
        with pytest.raises(ValueError, match="no timeline rows"):
            read_timeline_csv(path)

    def test_segments_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        runs = ([0, 10, 40], [10, 40, 45], [0, 24, 3])
        write_segments_csv(path, runs)
        got = read_segments_csv(path)
        assert all(a.dtype == np.int64 for a in got)
        assert [a.tolist() for a in got] == [list(a) for a in runs]

    def test_segments_bytes_match_csv_writer(self, tmp_path):
        runs = (np.array([0, 10, 40]), np.array([10, 40, 45]), np.array([0, BACKGROUND_ID, 3]))
        buf = io.StringIO(newline="")
        wr = csv.writer(buf)
        wr.writerow(["start", "end", "label_id"])
        for row in zip(*(a.tolist() for a in runs)):
            wr.writerow(row)
        path = tmp_path / "s.csv"
        write_segments_csv(path, runs)
        assert path.read_bytes() == buf.getvalue().encode()
        back = read_segments_csv(path)
        assert all(np.array_equal(a, b) for a, b in zip(back, runs))

    def test_segments_invalid_row_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("start,end,label_id\n5,5,0\n")
        with pytest.raises(ValueError, match=":2:"):
            read_segments_csv(path)

    @pytest.mark.parametrize("row", ["9,5,0", "-1,5,0", "0,5,-2", "0,9223372036854775808,1",
                                     "0,5,9223372036854775808"])
    def test_segments_out_of_range_row_reports_line(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"start,end,label_id\n0,4,1\n{row}\n")
        with pytest.raises(ValueError, match=":3:"):
            read_segments_csv(path)

    def test_write_segments_rejects_invalid_runs(self, tmp_path):
        with pytest.raises(ValueError):
            write_segments_csv(tmp_path / "s.csv", ([0, 5], [5, 5], [1, 2]))


# ------------------------------------------- the writers against the csv.writer row loop

INT64 = np.iinfo(np.int64)
EDGES = [0, 1, 9, 10, 255, 256, INT64.max]  # digit-count boundaries
labels_ok = st.one_of(st.integers(0, INT64.max), st.sampled_from(EDGES))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


def assert_writes_like_row_loop(csv_dir, write, header, columns, arg, block_rows=(1, 3)):
    """write(path, arg) writes the bytes of a csv.writer row loop over columns, in blocks
    of the default size and in blocks of each of block_rows rows."""
    write_csv_ref(csv_dir / "want.csv", header, columns)
    want = (csv_dir / "want.csv").read_bytes()
    # a row's bytes: each column as wide as its largest value, a comma after each but
    # the last, and CRLF
    width = sum(len(str(max(np.asarray(c).tolist(), default=0))) + 1 for c in columns) + 1
    for block in (timeline._CSV_BLOCK, *(rows * width for rows in block_rows)):
        with mock.patch.object(timeline, "_CSV_BLOCK", block):
            write(csv_dir / "got.csv", arg)
        assert (csv_dir / "got.csv").read_bytes() == want, f"blocks of {block} bytes"


# with blocks of 3 rows: a block that ends inside a run of 2-digit labels; blocks of
# 1-digit labels only, under a 4-digit maximum; 2, 3, 4 and 7 rows (block - 1, block,
# block + 1 and 2 * block + 1)
@given(labels=st.lists(labels_ok, max_size=30))
@example(labels=[])
@example(labels=[0])
@example(labels=[0, INT64.max, 9, 10])
@example(labels=[5, 10, 11, 12, 13, 14, 15])
@example(labels=[1000, 1, 2, 3, 4, 5, 6])
@example(labels=[7, 255])
@example(labels=[7, 255, 0])
@example(labels=[7, 255, 0, 9])
@example(labels=[7, 255, 0, 9, 10, 256, 1])
def test_timeline_writer_equals_row_loop(csv_dir, labels):
    assert_writes_like_row_loop(csv_dir, write_timeline_csv, ("frame", "label_id"),
                                (range(len(labels)), labels), np.array(labels, dtype=np.int64))


@given(labels=st.lists(labels_ok, min_size=1, max_size=30))
def test_non_negative_timeline_round_trips(csv_dir, labels):
    write_timeline_csv(csv_dir / "t.csv", labels)
    back = read_timeline_csv(csv_dir / "t.csv")
    assert back.dtype == np.int64 and back.tolist() == labels


@pytest.mark.parametrize("bad", [INT64.min, -10, -3, -1])
def test_negative_label_is_the_readers_error(tmp_path, bad):
    # the reader would reject the file, so the writer writes none
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"^label_id must be >= 0, got {bad}$"):
        write_timeline_csv(path, [0, bad, 5])
    assert not path.exists()


@pytest.mark.parametrize("frames", [0, 1, 10, 11, 100, 101, 100001])
def test_frame_counts_across_digit_boundaries(csv_dir, frames):
    # blocks of 3 rows end inside runs of frames with one digit count and hold frames
    # shorter than the last; over 100,001 frames they would take seconds, so there the
    # blocks are 997 rows, and the last, from frame 99,700, crosses 99,999
    labels = np.resize(np.array(EDGES, dtype=np.int64), frames)
    assert_writes_like_row_loop(csv_dir, write_timeline_csv, ("frame", "label_id"),
                                (range(frames), labels), labels,
                                (3,) if frames < 1000 else (997,))
    if frames:
        assert np.array_equal(read_timeline_csv(csv_dir / "got.csv"), labels)


@st.composite
def valid_runs(draw):
    starts = draw(st.lists(st.integers(0, INT64.max - 1), max_size=12))
    ends = [draw(st.integers(s + 1, INT64.max)) for s in starts]
    labels = [draw(labels_ok) for _ in starts]
    return tuple(np.array(c, dtype=np.int64) for c in (starts, ends, labels))


def runs_of(*rows):
    """Runs (starts, ends, labels) from rows (start, end, label)."""
    return tuple(np.array(c, dtype=np.int64) for c in zip(*rows))


# with blocks of 3 rows, as for the timeline writer: a block that ends inside runs of
# 2-digit values, blocks of values shorter than each column's maximum, and 2, 3, 4 and
# 7 rows
@given(runs=valid_runs())
@example(runs=(np.array([0, INT64.max - 1]), np.array([10, INT64.max]), np.array([0, INT64.max])))
@example(runs=runs_of((1, 10, 10), (10, 11, 11), (11, 12, 12), (12, 13, 13), (13, 14, 14),
                      (14, 15, 15), (15, 16, 16)))
@example(runs=runs_of((1000, 2000, 1000), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4),
                      (5, 6, 5), (6, 7, 6)))
@example(runs=runs_of((0, 9, 3), (9, 10, 24)))
@example(runs=runs_of((0, 9, 3), (9, 10, 24), (10, 255, 0)))
@example(runs=runs_of((0, 9, 3), (9, 10, 24), (10, 255, 0), (255, 256, 9)))
@example(runs=runs_of((0, 9, 3), (9, 10, 24), (10, 255, 0), (255, 256, 9), (256, 1000, 10),
                      (0, 1, 255), (5, 7, 1)))
def test_segments_writer_equals_row_loop(csv_dir, runs):
    assert_writes_like_row_loop(csv_dir, write_segments_csv, ("start", "end", "label_id"),
                                runs, runs)
    if runs[0].size:
        back = read_segments_csv(csv_dir / "got.csv")
        assert all(np.array_equal(a, b) for a, b in zip(back, runs))


def test_timeline_writer_holds_the_frames_and_one_block(tmp_path):
    labels = np.resize(np.arange(NUM_CLASSES, dtype=np.int64), 1_000_000)
    tracemalloc.start()
    try:
        write_timeline_csv(tmp_path / "t.csv", labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the frame column is the labels' size; a table-sized byte array, its mask and a
    # second frame column to re-check the first peaked at 50.0 MB
    assert peak <= labels.nbytes + 2 * 2**20
