"""Clip index generation: dense inference windows, surround training
sampling, and offline center sampling.

Clip convention: a clip is T frame indices at stride tau ending at the
trigger frame t0. The prediction targets the middle frame, which trails the
trigger by floor(T/2)*tau frames (32 frames for T=8, tau=8), so a streaming
deployment needs that many future frames before the middle frame's label is
computable.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClipSpec:
    """T frame indices at stride tau plus the index receiving the prediction.

    Indices clamped at a sequence boundary repeat the boundary frame, so
    consecutive differences equal tau only away from the edges.
    """

    t: int
    tau: int
    frames: tuple
    middle: int


def prediction_lag(t: int, tau: int) -> int:
    """Frames from the middle frame to the trigger: floor(T/2)*tau."""
    return (t // 2) * tau


def middle_offset(t: int, tau: int) -> int:
    """Frames from clip start to the middle frame."""
    return (t - 1) * tau - prediction_lag(t, tau)


def _validate(t, tau):
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")


# widest clip span (t-1)*tau: offsets then lie within +-2**62, and a frame index
# (a row of an in-memory table, far below 2**62) plus an offset stays inside int64
_MAX_SPAN = 2**62


def window_offsets(t: int, tau: int) -> np.ndarray:
    """int64 offsets of a clip's T frames from its middle frame, oldest first."""
    _validate(t, tau)
    span = (int(t) - 1) * int(tau)  # Python ints: numpy ones could wrap here too
    if span > _MAX_SPAN:
        raise ValueError(f"t={t} and tau={tau} span (t-1)*tau = {span} frames,"
                         " more than int64 frame indices allow (2**62)")
    return np.arange(t, dtype=np.int64) * tau - middle_offset(t, tau)


def _build(middle, t, tau, seq_len=None):
    # every clip is its middle plus window_offsets, clamped to [0, seq_len)
    hi = None if seq_len is None else seq_len - 1
    frames = np.clip(middle + window_offsets(t, tau), 0, hi)
    return ClipSpec(t, tau, tuple(frames.tolist()), int(np.clip(middle, 0, hi)))


def inference_clip(t0: int, t: int, tau: int, seq_len: int) -> ClipSpec:
    """Clip ending at the newest frame t0, reaching back (T-1)*tau frames.

    Indices below 0 clamp to 0 (the first frame repeats).
    """
    if not 0 <= t0 < seq_len:
        raise ValueError(f"t0 must be in [0, {seq_len}), got {t0}")
    return _build(t0 - prediction_lag(t, tau), t, tau)


def middle_clip(middle: int, t: int, tau: int, seq_len: int) -> ClipSpec:
    """Clip whose prediction target is `middle`, clamped to [0, seq_len).

    Near the sequence end forward indices clamp to seq_len-1 so trailing
    frames still receive predictions.
    """
    if not 0 <= middle < seq_len:
        raise ValueError(f"middle must be in [0, {seq_len}), got {middle}")
    return _build(middle, t, tau, seq_len)


def training_clip(start: int, t: int, tau: int, seq_len=None) -> ClipSpec:
    """Clip growing forward from a sampled start frame."""
    return _build(start + middle_offset(t, tau), t, tau, seq_len)


def surround_sample_start(n_s: int, n_e: int, t: int, tau: int, rng: np.random.Generator) -> int:
    """Uniform training-clip start such that the clip middle lands in [n_s, n_e].

    Frames outside the labelled segment may enter the clip as context; the
    predicted middle frame never leaves it, and every position in [n_s, n_e]
    is reachable.
    """
    _validate(t, tau)
    if n_s > n_e:
        raise ValueError(f"segment start {n_s} exceeds end {n_e}")
    d = middle_offset(t, tau)
    return int(rng.integers(n_s - d, n_e - d + 1))


def center_sample_start(n_s: int, n_e: int, t: int, tau: int) -> int:
    """Deterministic start placing the clip middle at the segment midpoint."""
    _validate(t, tau)
    if n_s > n_e:
        raise ValueError(f"segment start {n_s} exceeds end {n_e}")
    return n_s + (n_e - n_s) // 2 - middle_offset(t, tau)


def clip_span_seconds(t: int, tau: int, fps: float) -> float:
    """Temporal coverage in seconds, counting one stride interval per sampled frame."""
    _validate(t, tau)
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    return t * tau / fps
