"""Map high-resolution hand crops into backbone feature-map coordinates and
run the enhancement forward pass.

Coordinate chain: the raw frame (full_w x full_h) is downscaled so its
shorter side becomes scale_short, a crop_size square is cut from the scaled
image at (crop_off_x, crop_off_y) and fed to the backbone; the hand stream
sees a (hand_w x hand_h) window cut from the raw frame. Normalized size and
offset express the hand window in crop-relative units so its features can be
placed into the backbone feature map.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _keyvalue
# enhance calls none of concat_channels, mix_1x1, residual_norm: kept as perfbench's traced run patches them here
from .grid import FeatureMap, MixerWeights, concat_channels, mix_1x1, residual_norm, resize_nearest, zero_pad_place


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class CropGeometry:
    """All pixel-space quantities needed to align one hand window with the backbone crop.

    hand_x/hand_y are the top-left corner of the hand window in raw-frame pixels.
    """

    full_w: int
    full_h: int
    scale_short: int
    crop_size: int
    crop_off_x: int
    crop_off_y: int
    hand_w: int
    hand_h: int
    hand_x: int
    hand_y: int

    def __post_init__(self):
        for name in ("full_w", "full_h", "scale_short", "crop_size", "hand_w", "hand_h"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.crop_off_x < 0 or self.crop_off_y < 0:
            raise ValueError("crop offsets must be >= 0")
        if self.crop_off_x + self.crop_size > self.scaled_w or \
                self.crop_off_y + self.crop_size > self.scaled_h:
            raise ValueError(
                f"crop window ({self.crop_off_x}, {self.crop_off_y}, size {self.crop_size}) "
                f"exceeds scaled image {self.scaled_w}x{self.scaled_h}"
            )
        if not (0 <= self.hand_x <= self.full_w - self.hand_w):
            raise ValueError(f"hand window x {self.hand_x} outside frame of width {self.full_w}")
        if not (0 <= self.hand_y <= self.full_h - self.hand_h):
            raise ValueError(f"hand window y {self.hand_y} outside frame of height {self.full_h}")

    @property
    def scale_factor(self) -> float:
        return self.scale_short / min(self.full_w, self.full_h)  # over h_short, the shorter side

    @property
    def scaled_w(self) -> int:
        return _round_half_up(self.full_w * self.scale_factor)

    @property
    def scaled_h(self) -> int:
        return _round_half_up(self.full_h * self.scale_factor)

    @classmethod
    def from_center(cls, full_w, full_h, scale_short, crop_size, crop_off_x, crop_off_y,
                    hand_w, hand_h, center_x_norm, center_y_norm):
        """Build geometry from a detector-style normalized hand center in [0, 1].

        The center is converted to a top-left corner and clamped so the hand
        window stays fully inside the raw frame, preserving its size; a window
        larger than the frame has no such corner.
        """
        # a frame size below 1 is left to __post_init__, which names it
        if 1 <= full_w < hand_w:
            raise ValueError(f"hand window width {hand_w} exceeds frame width {full_w}")
        if 1 <= full_h < hand_h:
            raise ValueError(f"hand window height {hand_h} exceeds frame height {full_h}")
        hx = _round_half_up(center_x_norm * full_w - hand_w / 2)
        hy = _round_half_up(center_y_norm * full_h - hand_h / 2)
        hx = min(max(hx, 0), full_w - hand_w)
        hy = min(max(hy, 0), full_h - hand_h)
        return cls(full_w, full_h, scale_short, crop_size, crop_off_x, crop_off_y,
                   hand_w, hand_h, hx, hy)


@dataclass(frozen=True)
class AlignmentResult:
    """Hand window expressed in crop-relative units.

    norm_w/norm_h are the window size as a fraction of the crop; norm_x/norm_y
    locate its top-left corner and may be negative or exceed 1 when the hand
    lies partially outside the crop.
    """

    norm_w: float
    norm_h: float
    norm_x: float
    norm_y: float


def alignment(g: CropGeometry) -> AlignmentResult:
    """The hand window in crop units. Size: (w / h_short) * (scale_short / crop_size).
    Top-left corner: scaled to the downscaled image, minus the crop origin, over crop_size."""
    s, k = g.scale_factor, g.scale_factor / g.crop_size
    return AlignmentResult(g.hand_w * k, g.hand_h * k, (g.hand_x * s - g.crop_off_x) / g.crop_size,
                           (g.hand_y * s - g.crop_off_y) / g.crop_size)


def footprint(g: CropGeometry, backbone_h: int, backbone_w: int):
    """Placement rectangle of the hand map inside a (backbone_h, backbone_w) grid.

    Returns (rows, cols, off_y, off_x); rows/cols clamp up to 1, offsets may
    be negative (placement truncates).
    """
    a = alignment(g)
    rows = max(1, _round_half_up(backbone_h * a.norm_h))
    cols = max(1, _round_half_up(backbone_w * a.norm_w))
    off_y = _round_half_up(backbone_h * a.norm_y)
    off_x = _round_half_up(backbone_w * a.norm_x)
    return rows, cols, off_y, off_x


def place_hand_features(fh: FeatureMap, g: CropGeometry, backbone_h: int, backbone_w: int) -> FeatureMap:
    """Resize the hand map to its computed footprint and zero-pad-place it into backbone coordinates."""
    rows, cols, off_y, off_x = footprint(g, backbone_h, backbone_w)
    resized = resize_nearest(fh, rows, cols)
    return zero_pad_place(resized, backbone_h, backbone_w, off_y, off_x)


def enhance(f: FeatureMap, f_left: FeatureMap, f_right: FeatureMap,
            g_left: CropGeometry, g_right: CropGeometry, w: MixerWeights) -> FeatureMap:
    """Full enhancement pass: bn(f + W [f; place(f_left); place(f_right)] + b).

    With s = bn_scale / sqrt(bn_var) and W = [W_f | W_l | W_r] split by the
    channel counts of f, f_left and f_right, each frame k of the output is
    s (I + W_f) f[k] + s (b - bn_mean) + bn_shift, plus s W_l and s W_r
    applied to each hand map over its visible footprint only: the placed hand
    maps are zero everywhere else, so neither they nor the concat are built.
    A hand is mixed at its own resolution, over the source rows its visible
    footprint reads, and the mixed cells are then gathered into the
    footprint; the mix is per pixel, so it commutes with the gather. The pass
    runs one frame at a time into one preallocated output, so no temporary
    is larger than one frame. The result equals the composed primitives
    (place_hand_features, concat_channels, mix_1x1, residual_norm) up to
    summation order, and a zero mixer with identity bn returns f exactly.
    Output dims always equal f's, for any geometry including fully
    out-of-crop hands.
    """
    if f_left.t != f.t or f_right.t != f.t:
        raise ValueError(
            f"frame counts differ: backbone {f.t}, left {f_left.t}, right {f_right.t}"
        )
    c, c_l, c_r = f.c, f_left.c, f_right.c
    if w.c_in != c + c_l + c_r:
        raise ValueError(f"mixer expects {w.c_in} input channels, backbone and hands have "
                         f"{c + c_l + c_r} ({c} + {c_l} + {c_r})")
    if w.c_out != c:
        raise ValueError(f"mixer emits {w.c_out} channels but the backbone has {c}")
    s = w.bn_scale / np.sqrt(w.bn_var)
    scaled = s[:, None] * w.weight
    backbone = scaled[:, :c] + np.diag(s)  # s (I + W_f): the residual add folded in
    bias = s * (w.bias - w.bn_mean) + w.bn_shift
    out = np.empty(f.shape)
    hands = [add for add in (_hand_adder(f_left, g_left, f.h, f.w, scaled[:, c:c + c_l]),
                             _hand_adder(f_right, g_right, f.h, f.w, scaled[:, c + c_l:]))
             if add is not None]
    for k in range(f.t):
        frame = out[k]
        _kernels.mix_1x1(f.values[k], backbone, bias, frame)
        for add in hands:
            add(k, frame)
    return FeatureMap(out)


def _hand_adder(fh: FeatureMap, g: CropGeometry, h: int, w: int, weight):
    """add(k, frame): frame += weight mixed over fh[k]'s placed footprint on an (h, w) grid.

    None when no footprint cell lies on the grid. Cells come from fh by the
    same nearest-neighbour rule as resize_nearest followed by zero_pad_place.
    Only the source rows the visible footprint reads are mixed, into one
    buffer of that many rows of one frame, which every call reuses.
    """
    rows, cols, off_y, off_x = footprint(g, h, w)
    y0, y1 = max(off_y, 0), min(off_y + rows, h)
    x0, x1 = max(off_x, 0), min(off_x + cols, w)
    if y0 >= y1 or x0 >= x1:
        return None
    src_rows = _kernels.nearest_index(fh.h, rows, y0 - off_y, y1 - off_y)
    src_cols = _kernels.nearest_index(fh.w, cols, x0 - off_x, x1 - off_x)
    r0, r1 = src_rows[0], src_rows[-1] + 1
    src = fh.values[:, :, r0:r1]
    src_rows = src_rows - r0
    mixed = np.empty((weight.shape[0], r1 - r0, fh.w))

    def add(k, frame):
        _kernels.mix_1x1(src[k], weight, None, mixed)
        frame[:, y0:y1, x0:x1] += _kernels.gather_cells(mixed, src_rows, src_cols)
    return add


def fallback_geometry(full_w, full_h, scale_short, crop_size, crop_off_x, crop_off_y,
                      hand_w, hand_h) -> CropGeometry:
    """Geometry for a missing hand: the central (hand_w, hand_h) window of the raw frame."""
    return CropGeometry.from_center(full_w, full_h, scale_short, crop_size, crop_off_x, crop_off_y,
                                    hand_w, hand_h, 0.5, 0.5)


# in from_center's argument order; hand_cx/hand_cy are the normalized hand center
_GEOMETRY_KEYS = dict.fromkeys(("full_w", "full_h", "scale_short", "crop_size", "crop_off_x",
                                "crop_off_y", "hand_w", "hand_h"), _keyvalue.integer) \
    | dict.fromkeys(("hand_cx", "hand_cy"), _keyvalue.unit_float)


def load_geometry(path) -> CropGeometry:
    """Read a key=value geometry file naming every key of _GEOMETRY_KEYS once; errors name it."""
    vals = _keyvalue.read(path, _GEOMETRY_KEYS, "geometry")
    missing = [k for k in _GEOMETRY_KEYS if k not in vals]
    if missing:
        raise ValueError(f"{path}: missing geometry keys: {', '.join(missing)}")
    try:
        return CropGeometry.from_center(*(vals[k] for k in _GEOMETRY_KEYS))
    except (ValueError, OverflowError) as exc:  # a pixel count too large for a float
        raise ValueError(f"{path}: {exc}") from None
