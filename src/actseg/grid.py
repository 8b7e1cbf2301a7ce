"""Dense (t, c, h, w) feature grids and the primitives the enhancement block composes.

All operations are pure: inputs are never mutated and FeatureMap values are
frozen read-only arrays, safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class FeatureMap:
    """Immutable real-valued grid of shape (t, c, h, w), row-major. A C-contiguous
    float64 values array is kept as the grid, not copied, and made read-only."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 4:
            raise ValueError(f"feature map must be 4-d (t, c, h, w), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"all dims must be >= 1, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def t(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]

    @property
    def h(self) -> int:
        return self.values.shape[2]

    @property
    def w(self) -> int:
        return self.values.shape[3]

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class MixerWeights:
    """1x1 channel-mixer weights plus fixed (inference-mode) batchnorm statistics.

    weight is (c_out, c_in); bias and the four bn vectors are length c_out.
    """

    weight: np.ndarray
    bias: np.ndarray
    bn_scale: np.ndarray
    bn_shift: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weight, dtype=np.float64))
        if w.ndim != 2:
            raise ValueError(f"weight must be 2-d (c_out, c_in), got shape {w.shape}")
        object.__setattr__(self, "weight", w)
        c_out = w.shape[0]
        for name in ("bias", "bn_scale", "bn_shift", "bn_mean", "bn_var"):
            v = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            if v.shape != (c_out,):
                raise ValueError(f"{name} must have shape ({c_out},), got {v.shape}")
            object.__setattr__(self, name, v)
        for name in ("weight", "bias", "bn_scale", "bn_shift", "bn_mean", "bn_var"):
            if not np.all(np.isfinite(getattr(self, name))):  # one NaN or inf spoils a whole channel
                raise ValueError(f"{name} entries must be finite")
        if np.any(self.bn_var <= 0):
            raise ValueError("bn_var entries must be > 0")

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def identity_bn(cls, weight, bias=None):
        """Weights with identity batchnorm (scale 1, shift 0, mean 0, var 1)."""
        weight = np.asarray(weight, dtype=np.float64)
        c_out = weight.shape[0]
        if bias is None:
            bias = np.zeros(c_out)
        ones = np.ones(c_out)
        zeros = np.zeros(c_out)
        return cls(weight, bias, ones, zeros, zeros, ones)

    @classmethod
    def zero(cls, c_out: int, c_in: int):
        """All-zero mixer with identity batchnorm; residual_norm then reproduces the base."""
        return cls.identity_bn(np.zeros((c_out, c_in)))


def resize_nearest(m: FeatureMap, new_h: int, new_w: int) -> FeatureMap:
    """Resize spatially with nearest-neighbor: out cell (i,j) copies (i*h//new_h, j*w//new_w)."""
    if new_h < 1 or new_w < 1:
        raise ValueError(f"target dims must be >= 1, got ({new_h}, {new_w})")
    if new_h == m.h and new_w == m.w:
        return m
    return FeatureMap(_kernels.resize_nearest(m.values, new_h, new_w))


def zero_pad_place(m: FeatureMap, target_h: int, target_w: int, off_y: int, off_x: int) -> FeatureMap:
    """Place m into a zero (target_h, target_w) canvas with its top-left at (off_y, off_x).

    Offsets may be negative or run past the canvas; out-of-bounds portions are
    discarded, so a fully out-of-bounds placement yields an all-zero map.
    """
    if target_h < 1 or target_w < 1:
        raise ValueError(f"target dims must be >= 1, got ({target_h}, {target_w})")
    out = np.zeros((m.t, m.c, target_h, target_w), dtype=np.float64)
    src_y = max(0, -off_y)
    src_x = max(0, -off_x)
    dst_y = max(0, off_y)
    dst_x = max(0, off_x)
    rows = min(m.h - src_y, target_h - dst_y)
    cols = min(m.w - src_x, target_w - dst_x)
    if rows > 0 and cols > 0:
        out[:, :, dst_y:dst_y + rows, dst_x:dst_x + cols] = \
            m.values[:, :, src_y:src_y + rows, src_x:src_x + cols]
    return FeatureMap(out)


def concat_channels(ms) -> FeatureMap:
    """Stack maps along the channel axis, preserving input order."""
    ms = list(ms)
    if not ms:
        raise ValueError("concat_channels needs at least one map")
    t, h, w = ms[0].t, ms[0].h, ms[0].w
    for i, m in enumerate(ms):
        if (m.t, m.h, m.w) != (t, h, w):
            raise ValueError(
                f"map {i} has (t, h, w) = ({m.t}, {m.h}, {m.w}), expected ({t}, {h}, {w})"
            )
    if len(ms) == 1:
        return ms[0]
    return FeatureMap(np.concatenate([m.values for m in ms], axis=1))


def mix_1x1(m: FeatureMap, w: MixerWeights) -> FeatureMap:
    """1x1 convolution: per-pixel channel mixing, no spatial mixing."""
    if m.c != w.c_in:
        raise ValueError(f"map has {m.c} channels but mixer expects {w.c_in}")
    out = np.empty((m.t, w.c_out, m.h, m.w))
    for k in range(m.t):
        _kernels.mix_1x1(m.values[k], w.weight, w.bias, out[k])
    return FeatureMap(out)


def residual_norm(base: FeatureMap, enhancement: FeatureMap, w: MixerWeights) -> FeatureMap:
    """bn(base + enhancement) with identity activation and fixed bn statistics."""
    if base.shape != enhancement.shape:
        raise ValueError(f"shape mismatch: base {base.shape} vs enhancement {enhancement.shape}")
    if base.c != w.c_out:
        raise ValueError(f"map has {base.c} channels but mixer emits {w.c_out}")
    return FeatureMap(
        _kernels.bn_residual(
            base.values, enhancement.values, w.bn_scale, w.bn_shift, w.bn_mean, w.bn_var
        )
    )
