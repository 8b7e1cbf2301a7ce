"""Per-frame label sequences, run-length segments, and their CSV formats."""

import csv
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
        raise ValueError("runs need three 1-d arrays with 0 <= start < end and label >= 0")
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


def read_timeline_csv(path) -> np.ndarray:
    """CSV `frame,label_id` with frames 0..N-1 in order."""
    labels = []
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), 1):
            if not row or (ln == 1 and not row[0].strip().lstrip("-").isdigit()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{ln}: expected 2 columns, got {len(row)}")
            try:
                frame, label = int(row[0]), int(row[1])
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-integer field in {row!r}") from None
            if frame != len(labels):
                raise ValueError(f"{path}:{ln}: expected frame {len(labels)}, got {frame}")
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no timeline rows")
    return np.array(labels, dtype=np.int64)


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
    rows = []
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), 1):
            if not row or (ln == 1 and not row[0].strip().lstrip("-").isdigit()):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{ln}: expected 3 columns, got {len(row)}")
            try:
                start, end, label = (int(v) for v in row)
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-integer field in {row!r}") from None
            if not (0 <= start < end < 2**63 and 0 <= label < 2**63):
                raise ValueError(f"{path}:{ln}: need 0 <= start < end and label_id >= 0,"
                                 f" all int64, got {row!r}")
            rows.append((start, end, label))
    if not rows:
        raise ValueError(f"{path}: no segment rows")
    return tuple(np.array(rows, dtype=np.int64).T.copy())


def write_segments_csv(path, runs) -> None:
    """Runs (starts, ends, labels) as CSV `start,end,label_id`."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["start", "end", "label_id"])
        wr.writerows(zip(*(a.tolist() for a in as_runs(runs))))
