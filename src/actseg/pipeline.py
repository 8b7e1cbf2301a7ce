"""End-to-end sliding-window segmentation: sampler -> classifier -> raw
timeline -> cleaner -> cleaned timeline.

The offline runner labels its rows in blocks and the streaming session one
row per push, both through one window routine, _window_labels, so their
outputs are byte-identical by construction. A frame's raw prediction is
computable exactly floor(T/2)*tau pushes after the frame itself, and the
cleaner adds at most its largest class threshold on top.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


# rows per window-mean block in run_offline: its sum buffer, and each slab it gathers
# where its windows pass an end, is a (rows, C) float64 array, 200 KB at C=25
_CHUNK = 1024


def _window_view(table, t, tau):
    """Read-only (T, rows-(T-1)*tau, C) view of table whose slab j, row r is table[r + j*tau].

    view[:, r] is then the window whose oldest frame is r; no row is copied.
    None when no window fits in the table, where tau*stride could overflow.
    """
    rows = table.shape[0] - (t - 1) * tau
    if rows < 1:
        return None
    s0, s1 = table.strides
    return as_strided(table, (t, rows, table.shape[1]), (tau * s0 if t > 1 else 0, s0, s1),
                      writeable=False)


def _window_labels(table, windows, lo, hi, n, shifts, buf):
    """Argmax of each row lo..hi-1's window mean over table[:n], frames clamped to [0, n).

    The rows' windows form one (T, hi-lo, C) block, slab j holding frames
    row + shifts[j]: a slice of the window view where every frame lies in
    [0, n), and one gather at the clamped frames where not. fold_mean adds its
    slabs oldest first into the caller's buf, as for a row in any block.
    """
    first = lo + shifts[0]
    if first >= 0 and hi + shifts[-1] <= n:
        block = windows[:, first:first + hi - lo]
    else:
        block = table[np.clip(np.add.outer(shifts, np.arange(lo, hi)), 0, n - 1)]
    # the method, not np.argmax: its Python wrapper cost a push about 1 us
    return _kernels.fold_mean(block, buf[:hi - lo]).argmax(axis=1)


def run_offline(cfg: PipelineConfig, backend: LogitsBackend, seq_len: int | None = None):
    """Raw and cleaned timelines for frames [0, seq_len), labelled in blocks of _CHUNK."""
    if seq_len is None:
        seq_len = backend.num_frames
    if not 1 <= seq_len <= backend.num_frames:
        raise ValueError(f"seq_len must be in [1, {backend.num_frames}], got {seq_len}")
    table = backend.table
    windows = _window_view(table, cfg.t, cfg.tau)
    shifts = window_offsets(cfg.t, cfg.tau).tolist()
    buf = np.empty((min(_CHUNK, seq_len), table.shape[1]))
    raw = np.empty(seq_len, dtype=np.int64)
    for lo in range(0, seq_len, _CHUNK):
        hi = min(lo + _CHUNK, seq_len)
        raw[lo:hi] = _window_labels(table, windows, lo, hi, seq_len, shifts, buf)
    if cfg.cleaner is None:
        return raw, raw.copy()
    return raw, clean_timeline(raw, cfg.cleaner)


class StreamSession:
    """Single-stream push interface with ordered, exactly-once emission.

    push(i) accepts frame i (consecutive from 0) and returns every (frame,
    label) finalized by it; finish() drains the tail. Without a cleaner a
    frame's raw label comes from the push that first covers its window.
    """

    def __init__(self, cfg: PipelineConfig, backend: LogitsBackend):
        self.cfg = cfg
        self.backend = backend
        self._windows = _window_view(backend.table, cfg.t, cfg.tau)
        self._shifts = window_offsets(cfg.t, cfg.tau).tolist()
        self._buf = np.empty((1, backend.num_classes))
        self._lag = prediction_lag(cfg.t, cfg.tau)
        self._cleaner = StreamCleaner(cfg.cleaner) if cfg.cleaner is not None else None
        self._pushed = 0
        self._finished = False

    def _emit(self, middle: int):
        # the window clamps at the newest pushed frame
        label = int(_window_labels(self.backend.table, self._windows, middle, middle + 1,
                                   self._pushed, self._shifts, self._buf)[0])
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
        return self._emit(middle)

    def finish(self):
        """Drain trailing middles (their windows clamp at the last frame) and flush the cleaner."""
        if self._finished:
            raise RuntimeError("session already finished")
        self._finished = True
        out = []
        # push emitted every middle before pushed - lag
        for middle in range(max(0, self._pushed - self._lag), self._pushed):
            out.extend(self._emit(middle))
        if self._cleaner is not None:
            out.extend(self._cleaner.flush())
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
