"""End-to-end sliding-window segmentation: sampler -> classifier -> raw
timeline -> cleaner -> cleaned timeline.

The one offline loop, run_file, labels its rows in blocks through
_window_labels, whose T slabs are slices of a buffer that its reader fills a
block at a time, run_offline's from the backend's table with no second check;
only a slab that passes an end gathers, and _kernels.fold_mean adds the slabs.
A stream push folds a full window's strided slice with np.add.accumulate into a
buffer built once; every clamped window, a first push's or the trailing middles'
that finish labels in one call, goes through _window_labels as in run_file. Both
folds add a window's rows oldest first and divide by T, the same IEEE operations
in the same order, so stream and batch labels are byte-identical.
A frame's raw prediction is computable exactly floor(T/2)*tau pushes after the
frame itself, and the cleaner adds at most its largest class threshold on top.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .classify import LogitsBackend, LogitsReader
from .cleaning import CleanerConfig, StreamCleaner, clean_timeline
from .sampling import prediction_lag, window_offsets
from .timeline import FPS, NUM_CLASSES


@dataclass(frozen=True)
class PipelineConfig:
    t: int = 8
    tau: int = 8
    fps: float = FPS
    num_classes: int = NUM_CLASSES
    cleaner: CleanerConfig | None = None

    def __post_init__(self):
        window_offsets(self.t, self.tau)  # rejects a t or tau, or a span, it cannot window
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be finite and > 0, got {self.fps}")


# rows per window-mean call and new frames per block in run_file: its sum buffer, and
# each slab it gathers where its windows pass an end, is a (rows, C) float64 array,
# 200 KB at C=25
_CHUNK = 1024


def _window_labels(table, lo, hi, n, shifts, buf):
    """Argmax of each row lo..hi-1's window mean over table[:n], frames clamped to [0, n).

    Slab j holds the rows' frames row + shifts[j]: the slice
    table[lo+shifts[j]:hi+shifts[j]] where those lie in [0, n), and a gather
    at the clamped frames where not. fold_mean adds the slabs oldest first
    into the caller's buf, as for a row in any block.
    """
    slabs = [table[lo + s:hi + s] if lo + s >= 0 and hi + s <= n
             else table[np.clip(np.arange(lo + s, hi + s), 0, n - 1)] for s in shifts]
    # the method, not np.argmax: its Python wrapper cost a push about 1 us
    return _kernels.fold_mean(slabs, buf[:hi - lo]).argmax(axis=1)


def _check_classes(cfg: PipelineConfig, num_classes: int):
    if cfg.cleaner is not None and cfg.cleaner.num_classes != num_classes:
        raise ValueError(f"the cleaner's label space has {cfg.cleaner.num_classes} classes,"
                         f" the logits have {num_classes}")


def run_offline(cfg: PipelineConfig, backend: LogitsBackend, seq_len: int | None = None):
    """Raw and cleaned timelines for frames [0, seq_len), labelled from the backend's table."""
    if seq_len is None:
        seq_len = backend.num_frames
    if not 1 <= seq_len <= backend.num_frames:
        raise ValueError(f"seq_len must be in [1, {backend.num_frames}], got {seq_len}")
    # the backend checked its table, and softmaxed it if asked
    return run_file(cfg, LogitsReader(table=backend.table[:seq_len]))


def run_file(cfg: PipelineConfig, logits: LogitsReader):
    """Raw and cleaned timelines for every frame of an open logits reader.

    The reader fills _CHUNK new frames at a time after the (T-1)*tau frames that
    the next windows reach back to, so the table is never held; a middle is
    labelled once its window's newest frame is read or the input has ended.
    """
    n, k = logits.shape
    _check_classes(cfg, k)
    shifts = window_offsets(cfg.t, cfg.tau).tolist()
    halo = (cfg.t - 1) * cfg.tau
    buf = np.empty((min(n, halo + _CHUNK), k))
    sums = np.empty((min(_CHUNK, n), k))
    raw = np.empty(n, dtype=np.int64)
    base = end = done = 0  # buf holds frames base..end-1; middles before done are labelled
    while end < n:
        keep = min(halo, end)  # every block before the last fills buf
        buf[:keep] = buf[len(buf) - keep:]
        base = end - keep
        new = min(len(buf) - keep, n - end)
        logits.read_into(buf[keep:keep + new])
        end += new
        stop = n if end == n else end - shifts[-1]
        for lo in range(done, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            raw[lo:hi] = _window_labels(buf, lo - base, hi - base, end - base, shifts, sums)
        done = stop
    if cfg.cleaner is None:
        return raw, raw.copy()
    return raw, clean_timeline(raw, cfg.cleaner)


class StreamSession:
    """Single-stream push interface with ordered, exactly-once emission.

    push(i) accepts frame i (consecutive from 0) and returns every (frame,
    label) finalized by it; finish() drains the tail. Without a cleaner a
    frame's raw label comes from the push that first covers its window: one fold
    of its strided slice once the window is full, _window_labels while it clamps.
    """

    def __init__(self, cfg: PipelineConfig, backend: LogitsBackend):
        _check_classes(cfg, backend.num_classes)
        self._table = backend.table
        self._frames = backend.num_frames
        self._shifts = window_offsets(cfg.t, cfg.tau).tolist()
        self._span = (cfg.t - 1) * cfg.tau
        self._tau = cfg.tau
        self._lag = prediction_lag(cfg.t, cfg.tau)
        # a window's running sums, oldest row first, and their last row: its sum
        self._acc = np.empty((cfg.t, backend.num_classes))
        self._sum = self._acc[-1]
        # T as a 0-d float64: np.divide converts a Python int divisor on every call
        self._t = np.array(float(cfg.t))
        self._cleaner = StreamCleaner(cfg.cleaner) if cfg.cleaner is not None else None
        self._pushed = 0
        self._finished = False

    def push(self, frame_index: int):
        """Feed the next frame; returns labels finalized by it."""
        if self._finished:
            raise RuntimeError("session already finished")
        try:  # a bool is an int to Python, but no frame index
            frame = operator.index(None if isinstance(frame_index, bool) else frame_index)
        except TypeError:
            raise ValueError(f"frame index must be an integer, got {frame_index!r}") from None
        if frame != self._pushed:
            raise ValueError(f"out-of-order push: expected frame {self._pushed}, got {frame}")
        if frame >= self._frames:
            raise ValueError(f"frame {frame} outside backend range [0, {self._frames})")
        self._pushed += 1
        middle = frame - self._lag
        if middle < 0:
            return []
        first = frame - self._span
        if first >= 0:  # no frame clamps; the next fold overwrites _sum, so divide in place
            np.add.accumulate(self._table[first:frame + 1:self._tau], axis=0, out=self._acc)
            # the method, not np.argmax: its Python wrapper cost a push about 1 us
            label = int(np.divide(self._sum, self._t, out=self._sum).argmax())
        else:  # the window reaches before frame 0: label it as run_file's first block does
            label = int(_window_labels(self._table, middle, middle + 1, frame + 1,
                                       self._shifts, self._acc)[0])
        if self._cleaner is None:
            return [(middle, label)]
        return self._cleaner.push(middle, label)

    def finish(self):
        """Drain the trailing middles as run_file labels its last block, by one _window_labels
        call with the windows clamped at the last frame pushed; then flush the cleaner."""
        if self._finished:
            raise RuntimeError("session already finished")
        self._finished = True
        n = self._pushed
        lo = max(0, n - self._lag)  # push emitted every middle before lo
        labels = _window_labels(self._table, lo, n, n, self._shifts,
                                np.empty((n - lo, self._sum.size)))
        out = list(enumerate(labels.tolist(), lo))
        if self._cleaner is not None:
            out = [p for pair in out for p in self._cleaner.push(*pair)] + self._cleaner.flush()
        return out


def stream_all(cfg: PipelineConfig, backend: LogitsBackend, seq_len: int | None = None) -> np.ndarray:
    """Convenience: push an entire sequence through a session and collect the timeline."""
    if seq_len is None:
        seq_len = backend.num_frames
    session = StreamSession(cfg, backend)
    pairs = [p for i in range(seq_len) for p in session.push(i)] + session.finish()
    frames, labels = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    assert frames.tolist() == list(range(seq_len))  # each frame emitted once, in order
    return labels.copy()
