"""Per-clip classifier backends: precomputed per-frame logits with
consensus averaging, plus a synthetic noisy oracle for harness work."""

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .sampling import ClipSpec
from .timeline import NUM_CLASSES, _in_frame_order, _read_table, as_timeline, encode_runs

_MAGIC = b"ATSL"


def _softmax_rows(x):
    z = x - x.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


class LogitsBackend:
    """Read-only per-frame logits table; clip scores are the mean over clip frames.

    With softmax_average=True the consensus averages per-frame softmax scores
    instead of raw logits.
    """

    def __init__(self, logits, softmax_average: bool = False):
        arr = np.ascontiguousarray(np.asarray(logits, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"logits must be (n_frames, n_classes), got shape {arr.shape}")
        bad = ~np.isfinite(arr)
        if bad.any():
            frame, col = np.argwhere(bad)[0]
            raise ValueError(f"non-finite logit {arr[frame, col]} at frame {frame}, column {col}")
        self._table = _softmax_rows(arr) if softmax_average else arr
        self._table.flags.writeable = False
        self.softmax_average = softmax_average

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
        return cls(load_logits(path), softmax_average)

    @classmethod
    def from_timeline(cls, labels, num_classes: int = NUM_CLASSES):
        return cls(one_hot_logits(labels, num_classes))


def classify_clip(backend: LogitsBackend, clip: ClipSpec) -> np.ndarray:
    """Consensus class scores for one clip (arithmetic mean over its frames)."""
    idx = np.asarray(clip.frames, dtype=np.int64).reshape(1, -1)
    bad = (idx < 0) | (idx >= backend.num_frames)
    if bad.any():
        missing = int(idx[bad][0])
        raise ValueError(f"clip frame {missing} outside backend range [0, {backend.num_frames})")
    return _kernels.gather_mean(backend.table, idx)[0]


def predict_clip(backend: LogitsBackend, clip: ClipSpec) -> int:
    """Consensus prediction; score ties break to the lowest class id."""
    return int(np.argmax(classify_clip(backend, clip)))


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
    spike_rate: float = 0.0  # expected spikes per 1000 frames
    spike_len: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.substitution_prob <= 1.0:
            raise ValueError(f"substitution_prob must be in [0, 1], got {self.substitution_prob}")
        if self.boundary_jitter_std < 0 or self.spike_rate < 0:
            raise ValueError("noise magnitudes must be >= 0")
        if self.spike_len < 1:
            raise ValueError(f"spike_len must be >= 1, got {self.spike_len}")


def _other_class(rng, current, num_classes):
    c = int(rng.integers(0, num_classes - 1))
    return c + 1 if c >= current else c


def synth_timeline(gt, nm: NoiseModel, num_classes: int = NUM_CLASSES) -> np.ndarray:
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
            labels[pos:pos + nm.spike_len] = _other_class(rng, int(labels[pos]), num_classes)

    if nm.substitution_prob > 0:
        mask = rng.random(n) < nm.substitution_prob
        hits = np.flatnonzero(mask)
        draws = rng.integers(0, num_classes - 1, size=hits.size)
        draws = draws + (draws >= labels[hits])
        labels[hits] = draws

    return labels


def make_synthetic_backend(gt, nm: NoiseModel, num_classes: int = NUM_CLASSES,
                          softmax_average: bool = False) -> LogitsBackend:
    """One-hot logits backend over a noise-corrupted copy of gt."""
    return LogitsBackend(one_hot_logits(synth_timeline(gt, nm, num_classes), num_classes),
                         softmax_average)


# ------------------------------------------------------------------ file IO


def write_logits_binary(path, logits) -> None:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f4").tobytes())


def read_logits_binary(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic, not a logits file")
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated header")
    n, k = struct.unpack("<II", blob[4:12])
    body = np.frombuffer(blob, dtype="<f4", offset=12)
    if body.size != n * k:
        raise ValueError(f"{path}: expected {n * k} values, found {body.size}")
    return body.reshape(n, k).astype(np.float64)


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
    """Sniff binary vs CSV by the 4-byte magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return read_logits_binary(path)
    return read_logits_csv(path)
