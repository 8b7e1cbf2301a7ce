"""Per-frame label sequences, run-length segments, and their CSV formats."""

import csv
import re
import warnings
from dataclasses import dataclass

import numpy as np

NUM_CLASSES = 25
BACKGROUND_ID = 24


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


def as_timeline(labels) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"timeline must be 1-d, got shape {arr.shape}")
    return arr


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


def _data_lines(path):
    """(line number, text) of each non-empty line but a header: a first line whose first
    field is not an optionally signed ASCII integer. Lines end as np.loadtxt ends them."""
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line and (ln > 1 or re.fullmatch(r"\s*[+-]?[0-9]+\s*", line.split(",", 1)[0])):
                yield ln, line


def _read_table(path, what, ncols, dtype, check):
    """Parse a comma table and return check(first, rest, 0): the first column as int64, the
    other ncols - 1 columns (None: as many as the first row has) as dtype. check(first, rest,
    base) raises ValueError at the first of its rows, numbered from base, that breaks the
    table's rule. The whole file is parsed in C; only if that fails are the rows parsed again
    one at a time, with the same call, to name the first bad path:line."""
    head = next(_data_lines(path), None)
    if head is None:
        raise ValueError(f"{path}: no {what} rows")
    ncols = ncols or head[1].count(",") + 1
    dt = np.dtype(dtype if dtype == np.int64 else [("first", np.int64), ("rest", dtype, (ncols - 1,))])

    def load(source, skiprows=0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 reads int "5.5" as 5
            t = np.loadtxt(source, dt, delimiter=",", comments=None, quotechar=None,
                           ndmin=1 if dt.names else 2, skiprows=skiprows)
        # the reshape fails on a table of another width
        return (t["first"], t["rest"]) if dt.names else (t[:, 0], t.reshape(len(t), ncols)[:, 1:])

    try:  # lines before the first row are empty or a header
        return check(*load(path, int(head[0] > 1)), 0)
    except (ValueError, DeprecationWarning):
        for index, (ln, text) in enumerate(_data_lines(path)):
            fields = text.split(",")
            if len(fields) != ncols:
                raise ValueError(f"{path}:{ln}: expected {ncols} columns, got {len(fields)}") from None
            try:
                row = load([text])
            except (ValueError, DeprecationWarning):
                bad = "malformed row" if dt.names else "non-integer field in"
                raise ValueError(f"{path}:{ln}: {bad} {fields!r}") from None
            try:
                check(*row, index)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
        raise


def _in_frame_order(frames, rest, base):
    """rest, if frames count up from base; else a ValueError at the first that does not."""
    bad = np.flatnonzero(frames != np.arange(base, base + frames.size))
    if bad.size:
        raise ValueError(f"expected frame {base + bad[0]}, got {frames[bad[0]]}")
    return rest


def read_timeline_csv(path) -> np.ndarray:
    """CSV `frame,label_id` with frames 0..N-1 in order."""
    return _read_table(path, "timeline", 2, np.int64, _in_frame_order)[:, 0].copy()


# rows formatted per write: one string per block keeps the formatting out of
# Python-level loops while the text held at once stays about 100 KB
_CSV_BLOCK = 8192


def write_timeline_csv(path, labels) -> None:
    """CSV `frame,label_id` with csv.writer's CRLF line ends."""
    arr = as_timeline(labels)
    with open(path, "w", newline="") as fh:
        fh.write("frame,label_id\r\n")
        for lo in range(0, arr.size, _CSV_BLOCK):
            block = arr[lo:lo + _CSV_BLOCK]
            rows = np.column_stack((np.arange(lo, lo + block.size), block)).ravel().tolist()
            fh.write(("%d,%d\r\n" * block.size) % tuple(rows))


def read_segments_csv(path):
    """CSV `start,end,label_id` with end exclusive -> runs (starts, ends, labels)."""
    return _read_table(path, "segment", 3, np.int64, lambda s, rest, _: as_runs((s, *rest.T)))


def write_segments_csv(path, runs) -> None:
    """Runs (starts, ends, labels) as CSV `start,end,label_id`."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["start", "end", "label_id"])
        wr.writerows(zip(*(a.tolist() for a in as_runs(runs))))
