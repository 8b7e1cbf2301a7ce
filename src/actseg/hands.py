"""Hand-localizer output decoding, the masked regression loss with its
analytic gradient, and the distance-thresholded F1 metric."""

from dataclasses import dataclass

import numpy as np

from .metrics import _f1_pct
from .timeline import _data_lines, _read_table


def _check_unit(hand, names) -> None:
    for name in names:
        if not 0.0 <= getattr(hand, name) <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {getattr(hand, name)}")


@dataclass(frozen=True)
class HandObservation:
    """Predicted presence probability and normalized position, all in [0, 1]."""

    p: float
    x: float
    y: float

    def __post_init__(self):
        _check_unit(self, ("p", "x", "y"))


@dataclass(frozen=True)
class HandTarget:
    """Ground truth: presence flag in {0, 1} and normalized position (in [0, 1] if present)."""

    present: int
    x: float
    y: float

    def __post_init__(self):
        if self.present not in (0, 1):
            raise ValueError(f"present must be 0 or 1, got {self.present}")
        if self.present:
            _check_unit(self, ("x", "y"))


@dataclass(frozen=True)
class HandLossConfig:
    """lam weights the presence term against the masked position term."""

    lam: float = 0.1

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")


def decode(v):
    """Split a [p1, x1, y1, p2, x2, y2] vector into two observations."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (6,):
        raise ValueError(f"expected a 6-vector, got shape {v.shape}")
    return HandObservation(v[0], v[1], v[2]), HandObservation(v[3], v[4], v[5])


def hand_loss(pred, gt, cfg: HandLossConfig = HandLossConfig()) -> float:
    """lam * sum_i (P_i - p_i)^2 + sum_i P_i * ((x_i - x_i')^2 + (y_i - y_i')^2).

    Position residuals of absent hands are masked out entirely, so the model
    is free to place hands it does not predict.
    """
    obs = decode(pred)
    loss = 0.0
    for o, t in zip(obs, gt):
        loss += cfg.lam * (t.present - o.p) ** 2
        loss += t.present * ((t.x - o.x) ** 2 + (t.y - o.y) ** 2)
    return loss


def hand_loss_grad(pred, gt, cfg: HandLossConfig = HandLossConfig()) -> np.ndarray:
    """Analytic gradient of hand_loss with respect to the 6 predicted values."""
    obs = decode(pred)
    g = np.empty(6, dtype=np.float64)
    for i, (o, t) in enumerate(zip(obs, gt)):
        g[3 * i] = -2.0 * cfg.lam * (t.present - o.p)
        g[3 * i + 1] = -2.0 * t.present * (t.x - o.x)
        g[3 * i + 2] = -2.0 * t.present * (t.y - o.y)
    return g


def f1_at_threshold(preds, gts, t_l: float) -> float:
    """F1 (percent) over aligned hand slots at localization threshold t_l.

    A slot is TP when the hand is present, predicted (p > 0.5, strictly) and
    within t_l of the target (strictly). A present-but-mislocated prediction
    counts as both FP and FN: the detection is wrong and the true hand went
    unfound. Returns 100 when no slot has anything to find or flag.
    """
    if not 0 < t_l < np.inf:
        raise ValueError(f"t_l must be finite and > 0, got {t_l}")
    if len(preds) != len(gts):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(gts)} targets")
    tp = fp = fn = 0
    for o, t in zip(preds, gts):
        predicted = o.p > 0.5
        if t.present:
            hit = predicted and np.hypot(o.x - t.x, o.y - t.y) < t_l
            if hit:
                tp += 1
            else:
                fn += 1
                if predicted:
                    fp += 1
        elif predicted:
            fp += 1
    return _f1_pct(tp, fp, fn)


def _read_rows(path, hand):
    """(frame, left, right) per row of a `frame,p1,x1,y1,p2,x2,y2` CSV, each
    hand built as hand(p, x, y); errors name the file and line."""
    return _read_table(path, "hand", 7, np.float64, lambda frames, values, _: [
        (f, hand(*v[:3]), hand(*v[3:])) for f, v in zip(frames.tolist(), values.tolist())])


def read_hand_slots(pred_path, gt_path):
    """Slot-aligned (predictions, targets) from a prediction CSV and a
    ground-truth CSV whose frame columns match row for row."""
    preds, gts = _read_rows(pred_path, HandObservation), _read_rows(gt_path, HandTarget)
    if len(preds) != len(gts):
        raise ValueError(f"{pred_path} has {len(preds)} prediction rows, but {gt_path} has"
                         f" {len(gts)} ground-truth rows")
    for i, ((f_p, *_), (f_g, *_)) in enumerate(zip(preds, gts)):
        if f_p != f_g:
            ln_p, ln_g = ([ln for ln, _ in _data_lines(p)][i] for p in (pred_path, gt_path))
            raise ValueError(f"{pred_path}:{ln_p}: frame {f_p}, but {gt_path}:{ln_g} has frame {f_g}")
    return flatten_slots(preds), flatten_slots(gts)


def flatten_slots(pairs):
    """Interleave per-frame (left, right) records into one slot-aligned list."""
    return [hand for _, left, right in pairs for hand in (left, right)]
