"""The one table reader behind read_timeline_csv, read_segments_csv,
read_logits_csv and the hand CSV readers, against the row-by-row parsers it
replaced (oracles.read_*_ref).

Hypothesis starts from a valid file and mutates it. Both parsers must accept
the same files with the same values (floats bit for bit), or reject them at
the same line. The old parsers differ only where they were wrong; those cases
are pinned one at a time below: quoted fields, `_` digit separators, a `+0`
first row, and integers beyond int64.
"""

import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actseg.classify import read_logits_csv, write_logits_csv
from actseg.hands import HandObservation, HandTarget, read_hand_predictions, read_hand_targets
from actseg.timeline import read_segments_csv, read_timeline_csv
from oracles import read_hands_ref, read_logits_ref, read_segments_ref, read_timeline_ref

pytestmark = pytest.mark.filterwarnings("error::UserWarning")  # as np.loadtxt gives on no data


def read_hand_predictions_ref(path):
    return read_hands_ref(path, HandObservation)


def read_hand_targets_ref(path):
    return read_hands_ref(path, HandTarget)


# ------------------------------------------------------------ valid tables
# (header, rows, number of leading integer columns)

labels = st.integers(0, 40)
float_text = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from(["0", "1.", ".5", "-0.0", "1e-3", "2.5E+2", " 0.25 ",
                                        "1e-320", "-7"]))
unit_text = st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(["0", "1", "0.5", "1.0"]))


@st.composite
def timeline_tables(draw):
    rows = draw(st.lists(labels, min_size=1, max_size=10))
    return ["frame", "label_id"], [[str(i), str(v)] for i, v in enumerate(rows)], 2


@st.composite
def segment_tables(draw):
    rows = draw(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 50), labels),
                         min_size=1, max_size=10))
    return ["start", "end", "label_id"], [[str(s), str(s + n), str(c)] for s, n, c in rows], 3


@st.composite
def logit_tables(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(float_text, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    header = ["frame"] + [f"logit_{i}" for i in range(width)]
    return header, [[str(i)] + r for i, r in enumerate(rows)], 1


@st.composite
def hand_tables(draw):
    rows = draw(st.lists(st.tuples(st.integers(0, 99), st.lists(unit_text, min_size=6, max_size=6)),
                         min_size=1, max_size=8))
    return ["frame", "p1", "x1", "y1", "p2", "x2", "y2"], [[str(f)] + v for f, v in rows], 1


# --------------------------------------------------------------- mutations

# no "+" sign, no "_" and no integer beyond int64: the pinned differences below
BAD_INT = ["", " ", "1.5", "-3", "abc", "nan", "1e3", " 7 ", "007", "-"]
BAD_FLOAT = ["", " ", "abc", "nan", "-inf", "inf", "1e400", "-1e400", "99999999999999999999",
             "1e", "0.5.1", "0x10"]
MUTATIONS = ["drop", "duplicate", "empty", "value", "stray", "blank", "header"]  # blank: "" or " "


@st.composite
def mutated(draw, tables):
    """Text of a valid table after 0-3 mutations, with mixed LF and CRLF line
    ends and, half the time, cut off at a random point."""
    header, rows, n_int = draw(tables)
    lines = [header] * draw(st.booleans()) + rows
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if kind == "header":
            lines = lines[1:] if lines and lines[0] == header else [header] + lines
            continue
        if kind == "blank":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([[], [" "]])))
            continue
        if not lines:
            continue
        j = draw(st.integers(0, len(lines) - 1))
        row = list(lines[j])
        if kind == "drop":
            del lines[j]
        elif kind == "duplicate":
            lines.insert(j, row)
        elif kind == "stray":
            lines[j] = row + [draw(st.sampled_from(["1", "0.5", ""]))]
        elif row:
            c = draw(st.integers(0, len(row) - 1))
            row[c] = "" if kind == "empty" else draw(st.sampled_from(BAD_INT if c < n_int
                                                                     else BAD_FLOAT))
            lines[j] = row
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(",".join(fields) + end for fields, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def outcome(read, path):
    """("ok", value with floats as bit patterns, "") or ("error", line, message
    after the `path:line: ` prefix), where line is the whole message if it
    names none."""
    try:
        return "ok", bits(read(path)), ""
    except ValueError as exc:
        m = re.match(re.escape(f"{path}:") + r"(\d+): (.*)", str(exc))
        return ("error", int(m.group(1)), m.group(2)) if m else ("error", str(exc), "")


def bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, bits(dataclasses.astuple(value))
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.csv"


READERS = [(timeline_tables(), read_timeline_csv, read_timeline_ref),
           (segment_tables(), read_segments_csv, read_segments_ref),
           (logit_tables(), read_logits_csv, read_logits_ref),
           (hand_tables(), read_hand_predictions, read_hand_predictions_ref),
           (hand_tables(), read_hand_targets, read_hand_targets_ref)]


@pytest.mark.parametrize("tables, read, ref", READERS, ids=[r[1].__name__ for r in READERS])
@given(data=st.data())
def test_reader_agrees_with_row_parser(table_path, tables, read, ref, data):
    table_path.write_bytes(data.draw(mutated(tables)).encode())
    new, old = outcome(read, table_path), outcome(ref, table_path)
    assert new[:2] == old[:2]
    if new[2].startswith("expected ") or old[2].startswith("expected "):
        assert new[2] == old[2]  # column-count and frame-order errors keep their wording


# ------------------------------------------ where the row parsers were wrong

@pytest.mark.parametrize("read, ref, text, line", [
    (read_timeline_csv, read_timeline_ref, 'frame,label_id\n0,"5"\n', 2),
    (read_segments_csv, read_segments_ref, 'start,end,label_id\n"0",10,3\n', 2),
    (read_logits_csv, read_logits_ref, '0,1.5\n1,"2.5"\n', 2),
    (read_hand_predictions, read_hand_predictions_ref, '0,"0.5",0.5,0.5,0.5,0.5,0.5\n', 1),
    (read_timeline_csv, read_timeline_ref, "0,1_0\n", 1),
    (read_segments_csv, read_segments_ref, "0,10,3\n10,2_0,3\n", 2),
    (read_logits_csv, read_logits_ref, "0,1_000.5\n", 1),
    (read_hand_targets, read_hand_targets_ref, "0,1,0.5,0.5,0,0.5,0.5\n1_0,1,0,0,0,0,0\n", 2),
])
def test_quotes_and_digit_separators_are_rejected(tmp_path, read, ref, text, line):
    path = tmp_path / "t.csv"
    path.write_text(text)
    ref(path)  # csv.reader unquoted the field; int() and float() skip the "_"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
        read(path)


@pytest.mark.parametrize("read, text, line", [
    (read_timeline_csv, "0,1\n1,99999999999999999999\n", 2),
    (read_timeline_csv, "0,1\n99999999999999999999,1\n", 2),
    (read_segments_csv, "start,end,label_id\n0,99999999999999999999,1\n", 2),
    (read_segments_csv, "0,5,9223372036854775808\n", 1),
    (read_logits_csv, "0,1.0\n99999999999999999999,1.0\n", 2),
    (read_hand_predictions, "99999999999999999999,0.5,0.5,0.5,0.5,0.5,0.5\n", 1),
])
def test_int64_overflow_names_line(tmp_path, read, text, line):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
        read(path)


def test_row_parsers_mishandled_int64_overflow(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,1\n1,99999999999999999999\n")
    with pytest.raises(OverflowError):  # a traceback, not a data error
        read_timeline_ref(path)
    path.write_text("99999999999999999999,0.5,0.5,0.5,0.5,0.5,0.5\n")
    assert read_hand_predictions_ref(path)[0][0] == 99999999999999999999  # silently kept


@pytest.mark.parametrize("first", ["+0", " +0 ", "-0", "0"])
def test_signed_first_row_is_data(tmp_path, first):
    path = tmp_path / "s.csv"
    path.write_text(f"{first},10,3\n10,30,3\n")
    assert [a.tolist() for a in read_segments_csv(path)] == [[0, 10], [10, 30], [3, 3]]


def test_row_parser_took_plus_zero_for_a_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("+0,10,3\n10,30,3\n")
    assert [a.tolist() for a in read_segments_ref(path)] == [[10], [30], [3]]


@pytest.mark.parametrize("first", ["frame", "", " ", "1.5", "+", "--0", "٣", "nan"])
def test_non_integer_first_field_is_a_header(tmp_path, first):
    path = tmp_path / "t.csv"
    path.write_text(f"{first},label_id\r\n0,4\r\n1,4\r\n")
    assert read_timeline_csv(path).tolist() == [4, 4]


@pytest.mark.parametrize("text", ["", "\n", "\r\n\r\n", "frame,label_id\n", "frame,label_id\n\n"])
def test_empty_table_is_an_error_without_a_warning(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no timeline rows$"):
        read_timeline_csv(path)


def test_error_after_blank_lines_names_its_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"frame,label_id\r\n\r\n0,1\n\n\r\n1,1\r\n3,1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:7: expected frame 2, got 3$"):
        read_timeline_csv(path)


def test_first_error_in_file_order_wins(tmp_path):
    # a frame gap on line 3 comes before the unparsable line 5
    path = tmp_path / "t.csv"
    path.write_text("0,1\n1,1\n3,1\n4,1\nx,1\n")
    with pytest.raises(ValueError, match=":3: expected frame 2, got 3"):
        read_timeline_csv(path)


def test_logits_round_trip_bit_exact_over_sixty_decades(tmp_path):
    rng = np.random.default_rng(17)
    logits = rng.choice([-1.0, 1.0], size=(2000, 10)) * 10.0 ** rng.uniform(-30, 30, (2000, 10))
    path = tmp_path / "x.csv"
    write_logits_csv(path, logits)
    back = read_logits_csv(path)
    assert back.flags.c_contiguous
    assert back.tobytes() == logits.tobytes()
