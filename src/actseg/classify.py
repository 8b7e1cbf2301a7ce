"""Classifier backends: precomputed per-frame logits, whose window means
pipeline takes, each file's read through LogitsReader, which checks each value
once, where it enters; plus a synthetic noisy oracle for harness work."""

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from .timeline import NUM_CLASSES, _in_frame_order, _read_table, as_timeline, encode_runs

_MAGIC = b"ATSL"


# float32 values per block: a binary logits file is read this many values at a time into
# the caller's float64 rows, so no temporary is the size of the table
_LOGITS_BLOCK = 1 << 16


def _check_shape(shape, where=""):
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"{where}logits must be (n_frames, n_classes), got shape {shape}")


def _scores(rows, frame, softmax_average, where=""):
    """Check rows, frames frame.. of a table, finite, then softmax each in place if asked."""
    # min and max propagate NaN, so both are finite only if every value is; this
    # builds no temporary, and the bad value is located only on failure
    if rows.size and not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        f, c = np.argwhere(~np.isfinite(rows))[0]
        raise ValueError(f"{where}non-finite logit {rows[f, c]} at frame {frame + f},"
                         f" column {c}")
    if softmax_average:
        rows -= rows.max(axis=1, keepdims=True)
        np.exp(rows, out=rows)
        rows /= rows.sum(axis=1, keepdims=True)
    return rows


class LogitsBackend:
    """Read-only per-frame logits table; a window's scores are the mean over its frames.

    With softmax_average=True the table holds per-frame softmax scores
    instead of raw logits, so the windows average those.
    """

    def __init__(self, logits, softmax_average: bool = False):
        """A raw C-contiguous float64 logits array is kept as the table and made read-only."""
        arr = (np.array(logits, np.float64, order="C") if softmax_average
               else np.ascontiguousarray(logits, np.float64))
        _check_shape(arr.shape)
        self._table = _scores(arr, 0, softmax_average)
        self._table.flags.writeable = False

    @property
    def num_frames(self) -> int:
        return self._table.shape[0]

    @property
    def num_classes(self) -> int:
        return self._table.shape[1]

    @property
    def table(self) -> np.ndarray:
        """Per-frame score table actually averaged (softmaxed when configured)."""
        return self._table

    @classmethod
    def from_file(cls, path, softmax_average: bool = False):
        """The backend over a logits file's table, each value checked once as it is read."""
        with LogitsReader(path, softmax_average) as reader:
            backend = cls.__new__(cls)
            backend._table = reader.read_all()
        backend._table.flags.writeable = False
        return backend


def one_hot_logits(labels, num_classes: int = NUM_CLASSES) -> np.ndarray:
    arr = as_timeline(labels)
    if arr.min() < 0 or arr.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes})")
    out = np.zeros((arr.size, num_classes), dtype=np.float64)
    out[np.arange(arr.size), arr] = 1.0
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Classifier-error stand-in: boundary jitter, short spurious runs, per-frame flips."""

    substitution_prob: float = 0.0
    boundary_jitter_std: float = 0.0
    spike_rate: float = 0.0  # expected spikes per 1000 frames, at most one per frame
    spike_len: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.substitution_prob <= 1.0:
            raise ValueError(f"substitution_prob must be in [0, 1], got {self.substitution_prob}")
        for name in ("boundary_jitter_std", "spike_rate"):  # NaN fails too
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.spike_rate > 1000:  # each spike is drawn in a Python loop
            raise ValueError(f"spike_rate must be <= 1000, got {self.spike_rate}")
        if self.spike_len < 1:
            raise ValueError(f"spike_len must be >= 1, got {self.spike_len}")


def synth_timeline(gt, nm: NoiseModel) -> np.ndarray:
    """Corrupt a ground-truth timeline deterministically under nm.seed.

    Boundary jitter shifts each internal segment boundary by a rounded
    gaussian (kept monotone); spikes overwrite spike_len frames with a class
    different from the one they land on, so an interior spike always
    fragments its segment; substitution flips single frames to a random
    other class.
    """
    labels = as_timeline(gt).copy()
    n = labels.size
    if n == 0:
        raise ValueError("empty timeline")
    rng = np.random.default_rng(nm.seed)

    if nm.boundary_jitter_std > 0:
        starts, _, run_labels = encode_runs(labels)
        if starts.size > 1:
            shift = rng.normal(0.0, nm.boundary_jitter_std, starts.size - 1)
            inner = starts[1:] + np.rint(shift).astype(np.int64)
            inner = np.clip(inner, 0, n)
            inner = np.maximum.accumulate(inner)
            bounds = np.concatenate(([0], inner, [n]))
            labels = np.repeat(run_labels, np.diff(bounds))

    if nm.spike_rate > 0:
        count = int(rng.poisson(nm.spike_rate * n / 1000.0))
        span = max(1, n - nm.spike_len + 1)
        for _ in range(count):
            pos = int(rng.integers(0, span))
            c = int(rng.integers(0, NUM_CLASSES - 1))  # any class but the one at pos
            labels[pos:pos + nm.spike_len] = c + (c >= labels[pos])

    if nm.substitution_prob > 0:
        mask = rng.random(n) < nm.substitution_prob
        hits = np.flatnonzero(mask)
        draws = rng.integers(0, NUM_CLASSES - 1, size=hits.size)
        draws = draws + (draws >= labels[hits])
        labels[hits] = draws

    return labels


def make_synthetic_backend(gt, nm: NoiseModel) -> LogitsBackend:
    """One-hot logits backend over a noise-corrupted copy of gt."""
    return LogitsBackend(one_hot_logits(synth_timeline(gt, nm)))


# ------------------------------------------------------------------ file IO


def write_logits_binary(path, logits) -> None:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f4").tobytes())


class LogitsReader:
    """A logits file's per-frame scores, read in order into float64 rows the caller owns.

    The file's first 12 bytes are read once. A binary file's header is checked on
    open, the file stays open until close(), and its float32 values are read
    _LOGITS_BLOCK at a time, each block checked finite and, with softmax_average,
    softmaxed per row. Any other file is parsed as CSV, then checked and softmaxed
    whole. No frames or no classes fail on open; every error names the path and
    the frame. LogitsReader(table=t) reads t, checked already, with no check.
    """

    def __init__(self, path=None, softmax_average: bool = False, table=None):
        self.path, self._softmax, self._table, self._frame = path, softmax_average, table, 0
        self._fh = None
        if table is None:
            self._fh = open(path, "rb")
            try:
                head = self._fh.read(12)
                if head[:4] != _MAGIC:  # any other file is CSV, parsed and checked whole
                    self.close()
                    self._fh, table = None, read_logits_csv(path)
                    _check_shape(table.shape, f"{path}: ")
                    self._table = _scores(table, 0, softmax_average, f"{path}: ")
                elif len(head) < 12:
                    raise ValueError(f"{path}: truncated header")
                else:
                    n, k = struct.unpack("<II", head[4:])
                    body = os.fstat(self._fh.fileno()).st_size - 12
                    if body % 4:
                        raise ValueError(f"{path}: body of {body} bytes is not a whole number"
                                         " of float32 values")
                    if body // 4 != n * k:
                        raise ValueError(f"{path}: expected {n * k} values, found {body // 4}")
                    _check_shape((n, k), f"{path}: ")
                    self._block = np.empty((min(n, max(1, _LOGITS_BLOCK // k)), k), "<f4")
            except BaseException:
                self.close()
                raise
        self.shape = self._table.shape if self._fh is None else (n, k)

    def read_into(self, out):
        """Fill out, (m, classes) float64 rows, with the next m frames' scores; returns out.

        m past the last frame is a ValueError, raised before anything is read."""
        left = self.shape[0] - self._frame
        if len(out) > left:
            raise ValueError(f"{'table' if self.path is None else self.path}: asked for"
                             f" {len(out)} rows, {left} left")
        start, self._frame = self._frame, self._frame + len(out)
        if self._fh is None:  # a table is checked, and softmaxed if asked, before it is read
            out[...] = self._table[start:self._frame]
            return out
        for lo in range(0, len(out), len(self._block)):
            rows, part = out[lo:lo + len(self._block)], self._block[:len(out) - lo]
            got = self._fh.readinto(part)
            if got != part.nbytes:  # the file shrank after its size was read
                n, k = self.shape
                raise ValueError(f"{self.path}: expected {n * k} values,"
                                 f" found {(start + lo) * k + got // 4}")
            rows[...] = part
            _scores(rows, start + lo, self._softmax, f"{self.path}: ")
        return out

    def read_all(self):  # a fresh reader's whole table; a CSV file's own parsed table
        return self.read_into(self._table if self._fh is None else np.empty(self.shape))

    def close(self):
        if self._fh is not None:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_logits_csv(path, logits) -> None:
    arr = np.asarray(logits, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["frame"] + [f"logit_{i}" for i in range(arr.shape[1])])
        for i, row in enumerate(arr):
            wr.writerow([i] + [repr(float(v)) for v in row])


def read_logits_csv(path) -> np.ndarray:
    """CSV `frame,logit_0,...` with frames 0..N-1 in order; the first row sets the width."""
    return np.ascontiguousarray(_read_table(path, "logit", None, np.float64, _in_frame_order))


def load_logits(path) -> np.ndarray:
    """A logits file's table, binary or CSV by its magic, checked finite."""
    with LogitsReader(path) as reader:
        return reader.read_all()
