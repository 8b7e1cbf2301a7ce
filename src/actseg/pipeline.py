"""End-to-end sliding-window segmentation: sampler -> classifier -> raw
timeline -> cleaner -> cleaned timeline.

The streaming session and the offline runner share one mean kernel and one
index rule, so their outputs are byte-identical; a frame's raw prediction is
computable exactly floor(T/2)*tau pushes after the frame itself, and the
cleaner adds at most its largest class threshold on top.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .classify import LogitsBackend
from .cleaning import CleanerConfig, StreamCleaner, clean_timeline
from .sampling import prediction_lag, window_offsets
from .timeline import NUM_CLASSES


@dataclass(frozen=True)
class PipelineConfig:
    t: int = 8
    tau: int = 8
    fps: float = 15.0
    num_classes: int = NUM_CLASSES
    cleaner: CleanerConfig | None = None

    def __post_init__(self):
        if self.t < 1 or self.tau < 1:
            raise ValueError(f"t and tau must be >= 1, got t={self.t} tau={self.tau}")
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be finite and > 0, got {self.fps}")


# rows per window-mean block in run_offline: an edge block gathers a (T, rows, C) float64
# array, 1.6 MB at T=8, C=25; at 8192 rows it was 13 MB and raised batch peak RSS by a third
_CHUNK = 1024


def run_offline(cfg: PipelineConfig, backend: LogitsBackend, seq_len: int | None = None):
    """Raw and cleaned timelines for frames [0, seq_len); windows clamp at both ends.

    A row whose whole window lies inside [0, seq_len) needs no gather: its
    slab j is a plain slice of the table, so an interior block folds T slices
    into one reused buffer. The edge rows gather their clamped windows. Both
    add through _kernels.fold_mean, so every row sums its window oldest first.
    """
    if seq_len is None:
        seq_len = backend.num_frames
    if not 1 <= seq_len <= backend.num_frames:
        raise ValueError(f"seq_len must be in [1, {backend.num_frames}], got {seq_len}")
    table = backend.table
    offsets = window_offsets(cfg.t, cfg.tau)
    shifts = offsets.tolist()
    # rows first..stop-1 have every window frame inside [0, seq_len)
    first, stop = -shifts[0], seq_len - shifts[-1]
    raw = np.empty(seq_len, dtype=np.int64)
    if first < stop:
        buf = np.empty((min(_CHUNK, stop - first), table.shape[1]))
        for lo in range(first, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            acc = buf[:hi - lo]  # the sum builds up here, never in the table
            acc[...] = table[lo + shifts[0]:hi + shifts[0]]
            slabs = [acc] + [table[lo + d:hi + d] for d in shifts[1:]]
            raw[lo:hi] = np.argmax(_kernels.fold_mean(slabs), axis=1)
        edges = ((0, first), (stop, seq_len))
    else:
        edges = ((0, seq_len),)
    for edge_lo, edge_hi in edges:
        for lo in range(edge_lo, edge_hi, _CHUNK):
            hi = min(lo + _CHUNK, edge_hi)
            idx = np.arange(lo, hi, dtype=np.int64)[:, None] + offsets[None, :]
            np.clip(idx, 0, seq_len - 1, out=idx)
            raw[lo:hi] = np.argmax(_kernels.gather_mean(table, idx), axis=1)
    if cfg.cleaner is None:
        return raw, raw.copy()
    return raw, clean_timeline(raw, cfg.cleaner)


class StreamSession:
    """Single-stream push interface with ordered, exactly-once emission.

    push(i) accepts frame i (consecutive from 0) and returns every (frame,
    label) finalized by it; finish() drains the tail. Raw predictions are
    reported through on_raw as soon as they exist, which is when the middle
    frame's window is fully covered by pushed frames.
    """

    def __init__(self, cfg: PipelineConfig, backend: LogitsBackend, on_raw=None):
        self.cfg = cfg
        self.backend = backend
        self.on_raw = on_raw
        self._offsets = window_offsets(cfg.t, cfg.tau)[None, :]  # one (1, T) row
        self._lag = prediction_lag(cfg.t, cfg.tau)
        self._cleaner = StreamCleaner(cfg.cleaner) if cfg.cleaner is not None else None
        self._pushed = 0
        self._next_middle = 0
        self._finished = False

    def _predict(self, middle: int, newest: int) -> int:
        idx = middle + self._offsets
        # clamp to [0, newest] as run_offline's np.clip does, without its Python wrapper
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, newest, out=idx)
        label = int(_kernels.gather_mean(self.backend.table, idx)[0].argmax())
        if self.on_raw is not None:
            self.on_raw(middle, label)
        return label

    def _emit(self, middle: int, newest: int):
        label = self._predict(middle, newest)
        self._next_middle = middle + 1
        if self._cleaner is None:
            return [(middle, label)]
        return self._cleaner.push(middle, label)

    def push(self, frame_index: int):
        """Feed the next frame; returns labels finalized by it."""
        if self._finished:
            raise RuntimeError("session already finished")
        if frame_index != self._pushed:
            raise ValueError(f"out-of-order push: expected frame {self._pushed}, got {frame_index}")
        if frame_index >= self.backend.num_frames:
            raise ValueError(f"frame {frame_index} outside backend range [0, {self.backend.num_frames})")
        self._pushed += 1
        middle = frame_index - self._lag
        if middle < 0:
            return []
        return self._emit(middle, frame_index)

    def finish(self):
        """Drain trailing middles (their windows clamp at the last frame) and flush the cleaner."""
        if self._finished:
            raise RuntimeError("session already finished")
        self._finished = True
        if self._pushed == 0:
            return []
        out = []
        newest = self._pushed - 1
        for middle in range(self._next_middle, self._pushed):
            out.extend(self._emit(middle, newest))
        if self._cleaner is not None:
            out.extend(self._cleaner.flush())
        return out


def stream_all(cfg: PipelineConfig, backend: LogitsBackend, seq_len: int | None = None) -> np.ndarray:
    """Convenience: push an entire sequence through a session and collect the timeline."""
    if seq_len is None:
        seq_len = backend.num_frames
    session = StreamSession(cfg, backend)
    out = np.empty(seq_len, dtype=np.int64)
    seen = 0
    for i in range(seq_len):
        for f, lab in session.push(i):
            out[f] = lab
            seen += 1
    for f, lab in session.finish():
        out[f] = lab
        seen += 1
    assert seen == seq_len  # exactly-once emission
    return out
