"""Output checks for the benchmark workloads, and the independent float64
reference for the enhancement pass. Each check returns the number of
failed operations it found (0 when the output is correct)."""

import math

import numpy as np

IOU_THRESHOLDS = ("0.1", "0.25", "0.5")


def oracle_scores(oracles, cleaned, gt):
    """Cleaned-timeline F1@{0.1,0.25,0.5} and edit score from the brute-force oracles."""
    cleaned, gt = cleaned.tolist(), gt.tolist()
    return {"f1": {k: oracles.f1_at_iou_ref(cleaned, gt, float(k)) for k in IOU_THRESHOLDS},
            "edit": oracles.edit_score_ref(cleaned, gt)}


def report_matches(report, oracle):
    """True when report.json's cleaned F1 and edit score equal the oracle's exactly."""
    cleaned = report.get("cleaned", {})
    f1 = cleaned.get("f1", {})
    return (all(f1.get(k) == v for k, v in oracle["f1"].items())
            and cleaned.get("edit") == oracle["edit"])


class StreamLog:
    """What live streams emitted, indexed by (stream, frame): the label, how
    many times the frame came out and the push that last emitted it. The
    arrays are allocated once, so the record neither grows with the run nor
    gives the garbage collector objects to scan."""

    def __init__(self, streams, frames):
        self.label = np.full((streams, frames), -1, dtype=np.int64)
        self.count = np.zeros((streams, frames), dtype=np.int64)
        self.at = np.zeros((streams, frames), dtype=np.int64)
        self.stray = np.zeros(streams, dtype=np.int64)    # frames outside the stream

    def add(self, pushed_at, outputs):
        """Record outputs[s], the (frame, label) pairs stream s emitted at push pushed_at."""
        n = self.label.shape[1]
        for s, out in enumerate(outputs):
            for frame, label in out:
                if 0 <= frame < n:
                    self.label[s, frame] = label
                    self.count[s, frame] += 1
                    self.at[s, frame] = pushed_at
                else:
                    self.stray[s] += 1

    def failures(self, s, expected, bound):
        """Frames stream s got wrong: emitted zero or several times, with a
        label other than the offline run's `expected`, or later than `bound`
        pushes after it arrived; plus every frame it emitted outside the stream."""
        lag = self.at[s] - np.arange(expected.size)
        bad = (self.count[s] != 1) | (self.label[s] != expected) | (lag > bound)
        return int(np.count_nonzero(bad)) + int(self.stray[s])

    def holdback_max(self):
        """Most pushes between a frame's arrival and its emission, over every stream."""
        lag = self.at - np.arange(self.at.shape[1])
        emitted = self.count > 0
        return int(lag[emitted].max()) if emitted.any() else 0


# ------------------------------------------------------------ enhancement


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def placement(geom, grid_h, grid_w):
    """(rows, cols, off_y, off_x) of a hand window in the backbone grid.

    geom: dict with full_w, full_h, scale_short, crop_size, crop_off_x,
    crop_off_y, hand_w, hand_h, hand_x, hand_y (raw-frame pixels).
    """
    # Operations run in the documented order (crop-relative units first, then
    # grid cells) so that a placement landing exactly on .5 rounds the same way.
    scale = geom["scale_short"] / min(geom["full_w"], geom["full_h"])
    crop = geom["crop_size"]
    per_px = scale / crop
    rows = max(1, _round_half_up(grid_h * (geom["hand_h"] * per_px)))
    cols = max(1, _round_half_up(grid_w * (geom["hand_w"] * per_px)))
    off_y = _round_half_up(grid_h * ((geom["hand_y"] * scale - geom["crop_off_y"]) / crop))
    off_x = _round_half_up(grid_w * ((geom["hand_x"] * scale - geom["crop_off_x"]) / crop))
    return rows, cols, off_y, off_x


def covered_share(geom, grid_h, grid_w):
    """Share of the grid's cells that the placed hand map covers."""
    rows, cols, off_y, off_x = placement(geom, grid_h, grid_w)
    h = max(0, min(off_y + rows, grid_h) - max(off_y, 0))
    w = max(0, min(off_x + cols, grid_w) - max(off_x, 0))
    return h * w / (grid_h * grid_w)


def _placed(hand, geom, grid_h, grid_w):
    rows, cols, off_y, off_x = placement(geom, grid_h, grid_w)
    src_r = np.arange(rows) * hand.shape[2] // rows
    src_c = np.arange(cols) * hand.shape[3] // cols
    canvas = np.zeros(hand.shape[:2] + (grid_h, grid_w))
    for i in range(rows):
        for j in range(cols):
            y, x = off_y + i, off_x + j
            if 0 <= y < grid_h and 0 <= x < grid_w:
                canvas[:, :, y, x] = hand[:, :, src_r[i], src_c[j]]
    return canvas


def enhance_reference(backbone, left, right, geom_left, geom_right, mixer):
    """bn(f + W [f; place(left); place(right)] + b), one frame at a time in float64.

    mixer: dict of weight (c_out, 3c), bias, bn_scale, bn_shift, bn_mean, bn_var.
    """
    t, c, h, w = backbone.shape
    placed_l = _placed(left, geom_left, h, w)
    placed_r = _placed(right, geom_right, h, w)
    scale = mixer["bn_scale"] / np.sqrt(mixer["bn_var"])
    out = np.empty_like(backbone)
    for k in range(t):
        stacked = np.concatenate([backbone[k], placed_l[k], placed_r[k]]).reshape(3 * c, h * w)
        mixed = np.dot(mixer["weight"], stacked) + mixer["bias"][:, None]
        x = backbone[k].reshape(c, h * w) + mixed
        out[k] = ((x - mixer["bn_mean"][:, None]) * scale[:, None]
                  + mixer["bn_shift"][:, None]).reshape(c, h, w)
    return out


def enhance_matches(out, ref, tol):
    """True when every output value is finite and within tol of the reference."""
    out = np.asarray(out)
    return out.shape == ref.shape and bool(np.all(np.abs(out - ref) <= tol))
