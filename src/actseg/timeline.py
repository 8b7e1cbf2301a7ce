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


def timeline_from_segments(segments, length=None, fill=BACKGROUND_ID) -> np.ndarray:
    """Stamp segments onto a fill-initialized timeline; gaps keep the fill label."""
    segments = list(segments)
    if length is None:
        if not segments:
            raise ValueError("need segments or an explicit length")
        length = max(s.end for s in segments)
    out = np.full(length, fill, dtype=np.int64)
    for s in segments:
        if s.end > length:
            raise ValueError(f"segment {s} exceeds timeline length {length}")
        out[s.start:s.end] = s.class_id
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
    """CSV `start,end,label_id` with end exclusive."""
    segs = []
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), 1):
            if not row or (ln == 1 and not row[0].strip().lstrip("-").isdigit()):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{ln}: expected 3 columns, got {len(row)}")
            try:
                start, end, cid = int(row[0]), int(row[1]), int(row[2])
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-integer field in {row!r}") from None
            try:
                segs.append(Segment(cid, start, end))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
    if not segs:
        raise ValueError(f"{path}: no segment rows")
    return segs


def write_segments_csv(path, segments) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["start", "end", "label_id"])
        for s in segments:
            wr.writerow([s.start, s.end, s.class_id])
