"""Per-frame label sequences, run-length segments, and their CSV formats."""

import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

NUM_CLASSES = 25
BACKGROUND_ID = 24
FPS = 15.0  # the footage's capture rate, frames per second


@dataclass(frozen=True)
class Segment:
    """Maximal run of one class: [start, end) in frames."""

    class_id: int
    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"segment start {self.start} must precede end {self.end}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be >= 0, got {self.class_id}")

    @property
    def length(self) -> int:
        return self.end - self.start


def whole_label(value, frame: int) -> int:
    """value as an int64 label: an integer, or a float with no fraction. Anything else
    is a ValueError naming the frame."""
    try:
        label = operator.index(value)
    except TypeError:
        if not isinstance(value, (float, np.floating)):
            raise ValueError(f"label {value!r} at frame {frame} is neither an integer nor a"
                             " float") from None
        if not float(value).is_integer():
            raise ValueError(f"label {value} at frame {frame} is not a whole number") from None
        label = int(value)
    if not -2**63 <= label < 2**63:
        raise ValueError(f"label {value} at frame {frame} does not fit int64")
    return label


def as_timeline(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"timeline must be 1-d, got shape {arr.shape}")
    kind = arr.dtype.kind
    # objects (Python ints past uint64, None), strings, ..., and a list whose float64 form
    # may have rounded an integer past 2**53 are checked item by item, on the list's own
    # items: np.asarray turns [1, "a"] into strings and [2**53 + 1, 2.0] into [2**53, 2.0]
    if kind not in "biuf" or (kind == "f" and not isinstance(labels, np.ndarray)
                              and np.abs(arr).max(initial=0) >= 2**53):
        values = arr.tolist() if isinstance(labels, np.ndarray) else labels
        return np.array([whole_label(v, i) for i, v in enumerate(values)], dtype=np.int64)
    if kind not in "iu":  # the int64 cast would truncate a fraction
        bad = np.flatnonzero(~(np.isfinite(arr) & (arr == np.trunc(arr))))
        if bad.size:
            raise ValueError(f"label {arr[bad[0]]} at frame {bad[0]} is not a whole number")
    if kind != "i":  # and would wrap a label of magnitude 2**63 or more
        big = arr > np.uint64(2**63 - 1) if kind == "u" else np.abs(arr) >= np.float64(2**63)
        bad = np.flatnonzero(big)
        if bad.size:
            raise ValueError(f"label {arr[bad[0]]} at frame {bad[0]} does not fit int64")
    return arr.astype(np.int64, copy=False)


def encode_runs(labels):
    """Run-length encode a timeline into int64 arrays (starts, ends, labels).

    Run i covers frames [starts[i], ends[i]) with label labels[i]; adjacent
    runs differ in label, and np.repeat(labels, ends - starts) reconstructs
    the timeline.
    """
    arr = as_timeline(labels)
    if arr.size == 0:
        raise ValueError("timeline is empty")
    cuts = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [arr.size]))
    return starts, ends, arr[starts]


def segments_from_timeline(labels):
    """Run-length encode a timeline as Segments; concatenating the runs reconstructs it."""
    starts, ends, cls = encode_runs(labels)
    return [Segment(c, s, e) for c, s, e in zip(cls.tolist(), starts.tolist(), ends.tolist())]


def as_runs(runs):
    """Runs (starts, ends, labels) as three int64 arrays of one size."""
    starts, ends, labels = r = np.array(runs, dtype=np.int64)  # ragged input raises here
    if r.ndim != 2 or np.any((starts < 0) | (starts >= ends) | (labels < 0)):
        raise ValueError("runs need 0 <= start < end and label >= 0, as three 1-d arrays")
    return starts, ends, labels


def timeline_from_segments(runs, length=None, fill=BACKGROUND_ID) -> np.ndarray:
    """Stamp runs (starts, ends, labels) on a fill-initialized timeline; gaps keep the fill."""
    starts, ends, labels = as_runs(runs)
    if length is None:
        if not ends.size:
            raise ValueError("need runs or an explicit length")
        length = int(ends.max())
    if ends.size and ends.max() > length:
        raise ValueError(f"a run ends at {ends.max()}, past timeline length {length}")
    out = np.full(length, fill, dtype=np.int64)
    for s, e, c in zip(starts.tolist(), ends.tolist(), labels.tolist()):
        out[s:e] = c
    return out


# UTF-8; a byte order mark before the first line is not part of it
_TEXT_ENCODING = "utf-8-sig"


def _text_lines(path):
    """(line number, text) of each line of a UTF-8 text file, line end included; a
    line holding bytes that are not UTF-8 is a ValueError naming path:line."""
    # surrogateescape decodes a bad byte b to the lone surrogate U+DC00+b, which
    # valid UTF-8 never yields, so the line can be found and the byte named
    with open(path, encoding=_TEXT_ENCODING, errors="surrogateescape") as fh:
        for ln, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ValueError(f"{path}:{ln}: byte {byte:#04x} is not UTF-8") from None
            yield ln, line


def _data_lines(path):
    """(line number, text) of each non-empty line but a header: a first line that starts
    with an ASCII letter. Lines end as np.loadtxt ends them."""
    for ln, line in _text_lines(path):
        line = line.rstrip("\n")
        if line and (ln > 1 or not re.match("[A-Za-z]", line)):
            yield ln, line


def _read_table(path, what, ncols, dtype, check):
    """Parse a comma table and return check(first, rest, 0): the first column as int64, the
    other ncols - 1 columns (None: as many as the first row has) as dtype. check(first, rest,
    base) raises ValueError at the first of its rows, numbered from base, that breaks the
    table's rule. The whole file is parsed in C; only if that fails is the first bad path:line
    searched for, by parsing blocks of rows with the same call."""
    head = next(_data_lines(path), None)
    if head is None:
        raise ValueError(f"{path}: no {what} rows")
    ncols = ncols or head[1].count(",") + 1
    dt = np.dtype([("first", np.int64), ("rest", dtype, (ncols - 1,))])  # fixes the width

    def load(source, skiprows=0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 reads int "5.5" as 5
            t = np.loadtxt(source, dt, delimiter=",", comments=None, quotechar=None, ndmin=1,
                           skiprows=skiprows, encoding=_TEXT_ENCODING)
        return t["first"], t["rest"]

    def first_error(lines, lo, hi):
        """The path:line error of the first bad row of lines[lo:hi], or None. Parsing,
        widths and every check are row-local (given the base), so a block that passes
        as a whole has no bad row, and the left half of a failing block is searched first."""
        if hi - lo > 1:
            try:
                check(*load([text for _, text in lines[lo:hi]]), lo)
                return None
            except (ValueError, DeprecationWarning):
                mid = (lo + hi) // 2
                return first_error(lines, lo, mid) or first_error(lines, mid, hi)
        ln, text = lines[lo]
        fields = text.split(",")
        if len(fields) != ncols:
            return ValueError(f"{path}:{ln}: expected {ncols} columns, got {len(fields)}")
        try:
            row = load([text])
        except (ValueError, DeprecationWarning):
            bad = "non-integer field in" if dtype == np.int64 else "malformed row"
            return ValueError(f"{path}:{ln}: {bad} {fields!r}")
        try:
            check(*row, lo)
        except ValueError as exc:
            return ValueError(f"{path}:{ln}: {exc}")
        return None

    try:  # lines before the first row are empty or a header
        return check(*load(path, int(head[0] > 1)), 0)
    except (ValueError, DeprecationWarning):  # a UnicodeDecodeError too: _data_lines locates it
        lines = list(_data_lines(path))
        error = first_error(lines, 0, len(lines))
        if error is not None:
            raise error from None
        raise


def _in_frame_order(frames, rest, base):
    """rest, if frames count up from base; else a ValueError at the first that does not."""
    bad = np.flatnonzero(frames != np.arange(base, base + frames.size))
    if bad.size:
        raise ValueError(f"expected frame {base + bad[0]}, got {frames[bad[0]]}")
    return rest


def _labels_at_least_0(labels):
    """labels, if none is negative; else a ValueError at the first that is."""
    bad = np.flatnonzero(labels < 0)
    if bad.size:
        raise ValueError(f"label_id must be >= 0, got {labels[bad[0]]}")
    return labels


def _timeline_rows(frames, rest, base):
    """The labels, if frames count up from base and no label is negative; else a
    ValueError at the first row that breaks either rule."""
    return _labels_at_least_0(_in_frame_order(frames, rest, base)[:, 0])


def read_timeline_csv(path) -> np.ndarray:
    """CSV `frame,label_id` with frames 0..N-1 in order and labels >= 0."""
    return _read_table(path, "timeline", 2, np.int64, _timeline_rows).copy()


# bytes of CSV rows per block: a table is written this many bytes at a time, so no
# temporary is the size of the table
_CSV_BLOCK = 1 << 17


def _write_int_csv(path, header, columns) -> None:
    """A header row, then non-negative int64 columns of one length as rows, in the bytes
    csv.writer writes: `%d` fields, commas and CRLF line ends.

    Each column is as wide as its largest value's digits. The rows are formatted
    _CSV_BLOCK bytes at a time in one reused (rows, width) uint8 array: each column's
    digits are computed right-aligned into it, beside a mask of the bytes `%d` prints
    (no leading zeros), and the masked bytes are written."""
    tops = [int(col.max(initial=0)) for col in columns]
    digits = [len(str(top)) for top in tops]
    width = sum(digits) + len(digits) + 1
    buf = np.empty((max(1, _CSV_BLOCK // width), width), np.uint8)
    keep = np.ones(buf.shape, bool)
    at = 0
    for d in digits:  # every block's commas, then CR over the last column's comma, and LF
        at += d
        buf[:, at] = ord(",")
        at += 1
    buf[:, -2] = ord("\r")
    buf[:, -1] = ord("\n")
    n = columns[0].size
    with open(path, "wb") as fh:
        fh.write(f"{','.join(header)}\r\n".encode())
        for lo in range(0, n, len(buf)):
            rows = min(len(buf), n - lo)
            block, mask = buf[:rows], keep[:rows]
            at = 0
            for col, top, d in zip(columns, tops, digits):
                m = vals = col[lo:lo + rows].astype(np.min_scalar_type(top))  # unsigned
                for j in range(at + d - 1, at - 1, -1):  # last digit first
                    q = m // 10
                    t = q * 10
                    t -= ord("0")  # unsigned, so m - t wraps back to m - 10q + ord("0")
                    np.subtract(m, t, out=block[:, j], casting="unsafe")
                    m = q
                for j in range(d - 1):  # leading zeros are not printed
                    np.greater_equal(vals, 10 ** (d - 1 - j), out=mask[:, at + j])
                at += d + 1
            fh.write(block[mask])


def write_timeline_csv(path, labels) -> None:
    """CSV `frame,label_id` with csv.writer's CRLF line ends; labels must be >= 0 as on reading."""
    arr = _labels_at_least_0(as_timeline(labels))
    _write_int_csv(path, ("frame", "label_id"), (np.arange(arr.size, dtype=np.int64), arr))


def read_segments_csv(path):
    """CSV `start,end,label_id` with end exclusive -> runs (starts, ends, labels)."""
    return _read_table(path, "segment", 3, np.int64, lambda s, rest, _: as_runs((s, *rest.T)))


def write_segments_csv(path, runs) -> None:
    """Runs (starts, ends, labels) as CSV `start,end,label_id` with csv.writer's CRLF line ends."""
    _write_int_csv(path, ("start", "end", "label_id"), as_runs(runs))
