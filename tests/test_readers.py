"""The one table reader behind read_timeline_csv, read_segments_csv,
read_logits_csv and the hand CSV readers, against the row-by-row parsers it
replaced (oracles.read_*_ref).

Hypothesis starts from a valid file and mutates it. Both parsers must accept
the same files with the same values (floats bit for bit), or reject them at
the same line. The old parsers differ only where they were wrong; those cases
are pinned one at a time below: quoted fields, `_` digit separators, integers
beyond int64, and a first line that does not start with a letter, which the
old parsers could drop as a header (a `+0`, a quoted row, a row after a byte
order mark).

A timeline label below 0 is an error at its line, for the reader and the row
parser alike. The logits binary, the stats JSON, `--config` and geometry files
and the CSV inputs of run, sweep-kappa and hand-eval have their own fuzz tests
at the end: actseg on a mutated file exits 0 with the output the file means or
2 naming the file.
"""

import contextlib
import csv
import dataclasses
import io
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actseg.classify import read_logits_csv, write_logits_binary, write_logits_csv
from actseg.cli import main
from actseg.hands import (HandObservation, HandTarget, read_hand_predictions, read_hand_targets,
                          write_hand_csv)
from actseg.timeline import read_segments_csv, read_timeline_csv, write_timeline_csv
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


def row_parsers_drop_line_one(path):
    """Line 1 is a header to the row parsers (its first field is not an optionally
    negative integer) but data to the reader (it does not start with a letter)."""
    with open(path, newline="") as fh:
        first = next(csv.reader(fh), [])
    return bool(first) and not (first[0].strip().lstrip("-").isdigit()
                                or re.match("[A-Za-z]", first[0]))


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
    if row_parsers_drop_line_one(table_path):
        assert new[:2] == ("error", 1)  # no mutation makes such a line a valid row
        return
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


@pytest.mark.parametrize("first", ["frame", "nan", "\ufeffframe"])
def test_non_integer_first_field_is_a_header(tmp_path, first):
    path = tmp_path / "t.csv"
    path.write_text(f"{first},label_id\r\n0,4\r\n1,4\r\n", encoding="utf-8")
    assert read_timeline_csv(path).tolist() == [4, 4]


@pytest.mark.parametrize("first", ["", " ", "1.5", "+", "--0", "٣", "\ufeff0", '"0"', " frame"])
def test_first_line_not_starting_with_a_letter_is_data(tmp_path, first):
    path = tmp_path / "t.csv"
    path.write_text(f"{first},label_id\r\n0,4\r\n1,4\r\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "):
        read_timeline_csv(path)


def test_bad_last_row_is_found_in_logarithmically_many_parses(tmp_path, monkeypatch):
    rows = 100_000
    path = tmp_path / "t.csv"
    write_timeline_csv(path, np.zeros(rows, dtype=np.int64))
    with open(path, "a", newline="") as fh:
        fh.write(f"{rows},x\r\n")
    loadtxt, calls = np.loadtxt, []
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    with pytest.raises(ValueError, match=f":{rows + 2}: non-integer field in "):
        read_timeline_csv(path)
    # the fast parse, the whole table again as the first block, then two blocks
    # per halving of the search
    assert len(calls) <= 2 * math.ceil(math.log2(rows + 1)) + 2


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


def test_negative_label_names_its_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame,label_id\n0,1\n1,-3\n2,1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: label_id must be >= 0, got -3$"):
        read_timeline_csv(path)


# ------------------------------------------------ the logits binary, through the CLI

FUZZ_LOGITS = np.random.default_rng(23).normal(size=(40, 25)).astype("<f4")
HEADER = 12  # b"ATSL", then frames and classes as <u4


@st.composite
def mutated_logits(draw):
    """The bytes of a valid logits binary after one mutation: truncated, 1-3 bytes
    appended, the frame or class count rewritten, or a NaN or inf written over a value."""
    blob = bytearray(b"ATSL" + struct.pack("<II", *FUZZ_LOGITS.shape) + FUZZ_LOGITS.tobytes())
    kind = draw(st.sampled_from(["truncate", "append", "header", "non_finite"]))
    if kind == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if kind == "append":
        return bytes(blob) + draw(st.binary(min_size=1, max_size=3))
    if kind == "header":
        at = draw(st.sampled_from([4, 8]))
        blob[at:at + 4] = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
        return bytes(blob)
    at = HEADER + 4 * draw(st.integers(0, FUZZ_LOGITS.size - 1))
    blob[at:at + 4] = np.array(draw(st.sampled_from([np.nan, np.inf, -np.inf])), "<f4").tobytes()
    return bytes(blob)


def cli_outputs(argv, out_dir=None):
    """(0, [stdout, then raw.csv and cleaned.csv if out_dir]) or (exit code, stderr) of actseg."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code != 0:
        return code, err.getvalue()
    files = [(out_dir / n).read_bytes() for n in ("raw.csv", "cleaned.csv")] if out_dir else []
    return code, [out.getvalue()] + files


def run_outputs(logits_path, out_dir, *flags):
    """cli_outputs of actseg run at t=4, tau=3."""
    return cli_outputs(["run", "--logits", logits_path, "--t", "4", "--tau", "3",
                        "--out-dir", out_dir, *flags], out_dir)


def assert_unchanged_or_names(path, code, got, want):
    """Exit 0 with the outputs want, or exit 2 with an error that names path."""
    if code == 0:
        assert got == want
    else:
        assert code == 2
        assert got.startswith(f"actseg: error: {path}"), got


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("logits_fuzz")


@pytest.fixture(scope="module")
def unmutated_outputs(fuzz_dir):
    path = fuzz_dir / "clean.logits"
    write_logits_binary(path, FUZZ_LOGITS)
    code, outputs = run_outputs(path, fuzz_dir / "clean_out")
    assert code == 0, outputs
    return outputs


@given(blob=mutated_logits())
def test_mutated_logits_binary_runs_unchanged_or_names_the_file(fuzz_dir, unmutated_outputs, blob):
    path = fuzz_dir / "mutated.logits"
    path.write_bytes(blob)
    assert_unchanged_or_names(path, *run_outputs(path, fuzz_dir / "mutated_out"), unmutated_outputs)


# ------------------------- the stats JSON, --config and geometry files, through the CLI
# A mutation drops or duplicates a record or line, empties a value, writes a
# non-finite, fractional or non-UTF-8 value, or truncates the file. Text is built
# as str and encoded with surrogateescape, so "\udcff" becomes the byte 0xff.

NON_FINITE = ["nan", "inf", "-inf", "1e999"]
FILE_MUTATIONS = ["drop", "duplicate", "empty", "non_finite", "fractional", "non_utf8",
                  "truncate"]


def encoded(text):
    return text.encode("utf-8", "surrogateescape")


# classes the raw labels of FUZZ_LOGITS hold at t=4, tau=3, with thresholds of 2
# frames: each record changes the cleaned output
STATS_RECORDS = [{"class_id": str(c), "count": "9", "mean_frames": "3.0", "std_frames": "0.5",
                  "name": f'"class {c}"'} for c in (4, 11, 13, 18)]
STATS_INTEGERS = ("class_id", "count")
STATS_LENGTHS = ("mean_frames", "std_frames")
STATS_NUMBERS = STATS_INTEGERS + STATS_LENGTHS


def stats_text(records):
    """One record a line, so a truncation may end at any field."""
    body = ",\n".join("{" + ", ".join(f'"{k}": {v}' for k, v in r.items()) + "}" for r in records)
    return f"[\n{body}\n]\n"


@st.composite
def mutated_stats(draw):
    """(bytes of the mutated stats JSON, the records it means if a drop left a
    valid file, else None: it means the unmutated records or nothing)."""
    records = [dict(r) for r in STATS_RECORDS]
    # a length as a string ("3_0", which float() reads as 30) or as true (1.0 to float())
    kind = draw(st.sampled_from(FILE_MUTATIONS + ["string", "bool"]))
    if kind == "truncate":
        text = encoded(stats_text(records))
        return text[:draw(st.integers(0, len(text) - 1))], None
    j = draw(st.integers(0, len(records) - 1))
    if kind == "drop":
        del records[j]
        return encoded(stats_text(records)), records
    if kind == "duplicate":
        records.insert(j, records[j])
        return encoded(stats_text(records)), None
    fields = {"empty": list(records[j]), "non_finite": STATS_NUMBERS,
              "fractional": STATS_INTEGERS, "non_utf8": list(records[j]),
              "string": STATS_LENGTHS, "bool": STATS_LENGTHS}[kind]
    field = draw(st.sampled_from(fields))
    value = records[j][field]
    records[j][field] = {"empty": '""', "non_finite": draw(st.sampled_from(
        ["NaN", "Infinity", "-Infinity", "1e999"])), "fractional": f"{value}.5",
        "non_utf8": "\udcff" + value, "string": f'"{value.replace(".", "_")}"',
        "bool": "true"}[kind]
    return encoded(stats_text(records)), None


def keyvalue_text(pairs):
    # the comment is not ASCII, so a truncation can end inside a character
    return "# crop \u2014 defaults\n" + "".join(f"{k}={v}\n" for k, v in pairs)


@st.composite
def mutated_keyvalue(draw, pairs, integer_keys):
    """Bytes of a key=value file of pairs after one mutation of a pair line."""
    pairs = list(pairs)
    kind = draw(st.sampled_from(FILE_MUTATIONS + ["digit_separator"]))
    if kind == "truncate":
        text = encoded(keyvalue_text(pairs))

        def whole_values(cut):
            # a cut inside a value leaves a shorter valid value (92 of 920): a
            # different file, not a broken one, so no cut is made there
            tail = text[:cut].rpartition(b"\n")[2]
            return b"=" not in tail or tail.endswith(b"=") or text[cut:cut + 1] == b"\n"

        return text[:draw(st.sampled_from([c for c in range(len(text)) if whole_values(c)]))]
    keys = [k for k, _ in pairs]
    numeric = [k for k, v in pairs if v[0].isdigit()]
    j = keys.index(draw(st.sampled_from({"fractional": integer_keys,
                                         "digit_separator": numeric}.get(kind, keys))))
    if kind == "drop":
        del pairs[j]
    elif kind == "duplicate":
        pairs.insert(j, pairs[j])
    else:
        key, value = pairs[j]
        pairs[j] = key, {"empty": "", "non_finite": draw(st.sampled_from(NON_FINITE)),
                         "fractional": f"{value}.5", "non_utf8": "\udcff" + value,
                         # int() and float() read 1_4 as 14 and 8_0 as 80
                         "digit_separator": value.replace(".", "_") if "." in value
                         else value + "_0"}[kind]
    return encoded(keyvalue_text(pairs))


# actseg run's defaults, so a dropped line means the same run
CONFIG_PAIRS = [("fps", "15"), ("t", "8"), ("tau", "8"), ("kappa", "1.4"),
                ("ignore_background", "yes")]
GEOMETRY_PAIRS = [("full_w", "920"), ("full_h", "720"), ("scale_short", "256"),
                  ("crop_size", "224"), ("crop_off_x", "50"), ("crop_off_y", "16"),
                  ("hand_w", "224"), ("hand_h", "224"), ("hand_cx", "0.5"), ("hand_cy", "0.25")]
GEOMETRY_INTEGERS = [k for k, _ in GEOMETRY_PAIRS[:8]]


@pytest.fixture(scope="module")
def text_fuzz(tmp_path_factory):
    """The directory, logits file and ground truth the text-file fuzz runs use."""
    d = tmp_path_factory.mktemp("text_fuzz")
    write_logits_binary(d / "in.logits", FUZZ_LOGITS)
    write_timeline_csv(d / "gt.csv", np.repeat([8, 13, 9, 11, 15], 8))
    return d


def stats_run(d, stats_path, out_name):
    return run_outputs(d / "in.logits", d / out_name, "--stats", stats_path)


def config_run(d, config_path, out_name):
    return cli_outputs(["--config", config_path, "run", "--logits", d / "in.logits",
                        "--gt", d / "gt.csv", "--out-dir", d / out_name], d / out_name)


def geometry_run(d, geometry_path, _):
    return cli_outputs(["enhance-demo", "--geometry", geometry_path])


@pytest.fixture(scope="module")
def unmutated_text_outputs(text_fuzz):
    d, outputs = text_fuzz, {}
    for name, run, text in [("stats", stats_run, stats_text(STATS_RECORDS)),
                            ("config", config_run, keyvalue_text(CONFIG_PAIRS)),
                            ("geometry", geometry_run, keyvalue_text(GEOMETRY_PAIRS))]:
        path = d / f"clean_{name}"
        path.write_bytes(encoded(text))
        code, outputs[name] = run(d, path, f"clean_{name}_out")
        assert code == 0, outputs[name]
    return outputs


@given(case=mutated_stats())
def test_mutated_stats_json_runs_as_it_means_or_names_the_file(text_fuzz, unmutated_text_outputs,
                                                               case):
    blob, meaning = case
    path = text_fuzz / "mutated_stats.json"
    path.write_bytes(blob)
    want = unmutated_text_outputs["stats"]
    if meaning is not None:  # a dropped record: the classes left keep their stats
        (text_fuzz / "meant_stats.json").write_bytes(encoded(stats_text(meaning)))
        code, want = stats_run(text_fuzz, text_fuzz / "meant_stats.json", "meant_out")
        assert code == 0, want
    assert_unchanged_or_names(path, *stats_run(text_fuzz, path, "mutated_out"), want)


@given(blob=mutated_keyvalue(CONFIG_PAIRS, ["t", "tau"]))
def test_mutated_config_runs_unchanged_or_names_the_file(text_fuzz, unmutated_text_outputs, blob):
    path = text_fuzz / "mutated.cfg"
    path.write_bytes(blob)
    assert_unchanged_or_names(path, *config_run(text_fuzz, path, "mutated_out"),
                              unmutated_text_outputs["config"])


@given(blob=mutated_keyvalue(GEOMETRY_PAIRS, GEOMETRY_INTEGERS))
def test_mutated_geometry_runs_unchanged_or_names_the_file(text_fuzz, unmutated_text_outputs,
                                                           blob):
    path = text_fuzz / "mutated_geometry.txt"
    path.write_bytes(blob)
    assert_unchanged_or_names(path, *geometry_run(text_fuzz, path, None),
                              unmutated_text_outputs["geometry"])


# ------------------- the CSV inputs of run, sweep-kappa and hand-eval, through the CLI
# Each file gets mutated()'s row mutations (a row dropped, duplicated, emptied or given
# a bad value, a stray column, a blank line, the header added or removed, the text cut
# off), and one time in four a byte that is not UTF-8. If the row parser accepts the
# file, actseg must do what it does on that value written cleanly; if not, it must
# exit 2 with an error that starts with the file's path.

CSV_GT = np.repeat([8, 13, 9, 11, 15], 8)  # the 40 frames of FUZZ_LOGITS
CSV_RAW = np.where(np.isin(np.arange(40), [3, 4, 17, 30]), 2, CSV_GT)
CSV_PRED = [(f, (0.9, 0.5 + f / 40, 0.5), (0.3 + f / 10, 0.25, 0.75)) for f in range(6)]
CSV_TARGETS = [(f, (1, 0.5, 0.5), (f % 2, 0.3, 0.7)) for f in range(6)]


def timeline_table(labels):
    return ["frame", "label_id"], [[str(i), str(v)] for i, v in enumerate(labels.tolist())], 2


def hand_table(rows):
    return (["frame", "p1", "x1", "y1", "p2", "x2", "y2"],
            [[str(f)] + [repr(float(v)) for v in (*left, *right)] for f, left, right in rows], 1)


def write_hand_value(path, rows):
    write_hand_csv(path, [(f, dataclasses.astuple(left), dataclasses.astuple(right))
                          for f, left, right in rows])


def run_gt(d, path, out):
    return cli_outputs(["run", "--logits", d / "in.logits", "--t", "4", "--tau", "3",
                        "--gt", path, "--out-dir", d / out], d / out)


def sweep_raw(d, path, _):
    return cli_outputs(["sweep-kappa", "--raw", path, "--gt", d / "gt.csv"])


def sweep_gt(d, path, _):
    return cli_outputs(["sweep-kappa", "--raw", d / "raw.csv", "--gt", path])


def hand_pred(d, path, _):
    return cli_outputs(["hand-eval", "--pred", path, "--gt", d / "targets.csv"])


def hand_gt(d, path, _):
    return cli_outputs(["hand-eval", "--pred", d / "pred.csv", "--gt", path])


# (run on the mutated file, its unmutated table, its row parser, the clean writer)
CSV_INPUTS = {
    "run --gt": (run_gt, timeline_table(CSV_GT), read_timeline_ref, write_timeline_csv),
    "sweep-kappa --raw": (sweep_raw, timeline_table(CSV_RAW), read_timeline_ref,
                          write_timeline_csv),
    "sweep-kappa --gt": (sweep_gt, timeline_table(CSV_GT), read_timeline_ref,
                         write_timeline_csv),
    "hand-eval --pred": (hand_pred, hand_table(CSV_PRED), read_hand_predictions_ref,
                         write_hand_value),
    "hand-eval --gt": (hand_gt, hand_table(CSV_TARGETS), read_hand_targets_ref,
                       write_hand_value),
}


@pytest.fixture(scope="module")
def csv_fuzz(tmp_path_factory):
    """The directory holding each command's unmutated inputs."""
    d = tmp_path_factory.mktemp("csv_fuzz")
    write_logits_binary(d / "in.logits", FUZZ_LOGITS)
    write_timeline_csv(d / "gt.csv", CSV_GT)
    write_timeline_csv(d / "raw.csv", CSV_RAW)
    write_hand_csv(d / "pred.csv", CSV_PRED)
    write_hand_csv(d / "targets.csv", CSV_TARGETS)
    return d


def ref_value(ref, path):
    """The row parser's value of the file, or None if it rejects the file or would
    drop a line 1 that actseg reads as data (test_reader_agrees_with_row_parser)."""
    try:
        value = ref(path)
        return None if row_parsers_drop_line_one(path) else value
    except ValueError:  # a UnicodeDecodeError too
        return None


@pytest.mark.parametrize("role", list(CSV_INPUTS))
@given(data=st.data())
def test_mutated_csv_input_runs_as_it_reads_or_names_the_file(csv_fuzz, role, data):
    run, table, ref, write_value = CSV_INPUTS[role]
    blob = data.draw(mutated(st.just(table))).encode()
    if data.draw(st.integers(0, 3)) == 0:
        at = data.draw(st.integers(0, len(blob)))
        blob = blob[:at] + b"\xff" + blob[at:]
    path = csv_fuzz / "mutated.csv"
    path.write_bytes(blob)
    value = ref_value(ref, path)
    code, got = run(csv_fuzz, path, "mutated_out")
    if value is None:
        assert code == 2, got
        assert got.startswith(f"actseg: error: {path}"), got
        return
    write_value(csv_fuzz / "clean.csv", value)
    want_code, want = run(csv_fuzz, csv_fuzz / "clean.csv", "clean_out")
    assert code == want_code, (got, want)
    if code == 0:
        assert got == want
    else:  # the value itself does not fit the other input (a row short, a frame moved)
        assert code == 2 and str(path) in got, got
