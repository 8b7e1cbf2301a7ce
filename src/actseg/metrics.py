"""Frame accuracy, segmental edit score, segmental F1 at IoU thresholds, and
segment-level (pre-cropped clip) F1."""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .timeline import BACKGROUND_ID, as_timeline, encode_runs
# not called here: perfbench's traced replay patches segments_from_timeline in this module
from .timeline import segments_from_timeline  # noqa: F401


IOU_THRESHOLDS = (0.1, 0.25, 0.5)  # the paper's; evaluate details the largest per class


@dataclass(frozen=True)
class EvalConfig:
    ignore_background: bool = True


DEFAULT_EVAL = EvalConfig()


def _aligned(pred, gt):
    p, g = as_timeline(pred), as_timeline(gt)
    if p.size != g.size:
        raise ValueError(f"length mismatch: {p.size} vs {g.size}")
    return p, g


def _scored_runs(runs, cfg):
    """Runs (starts, ends, labels) without background runs when ignored."""
    if runs[2].min() < 0:
        raise ValueError(f"class_id must be >= 0, got {runs[2].min()}")
    if cfg.ignore_background:
        keep = runs[2] != BACKGROUND_ID
        runs = tuple(a[keep] for a in runs)
    return runs


def _both_scored_runs(p, g, cfg):
    return _scored_runs(encode_runs(p), cfg), _scored_runs(encode_runs(g), cfg)


def _accuracy(p, g, cfg) -> float:
    """Percent of scored frames labelled right: every frame, or those not background in truth."""
    scored = g != BACKGROUND_ID if cfg.ignore_background else np.ones(g.size, bool)
    total = np.count_nonzero(scored)  # counted: a mean would divide the same exact integers
    return 100.0 * (np.count_nonzero((p == g) & scored) / total) if total else 100.0


def _edit(pl, gl) -> float:
    longest = max(pl.size, gl.size)
    if longest == 0:
        return 100.0
    dist = _kernels.levenshtein(pl, gl)
    return 100.0 * (1.0 - dist / longest)


def frame_accuracy(pred, gt, cfg: EvalConfig = DEFAULT_EVAL) -> float:
    """Percent of frames labelled correctly; background ground truth is skipped when ignored."""
    p, g = _aligned(pred, gt)
    if p.size and min(p.min(), g.min()) < 0:  # as _scored_runs rejects it for the others
        raise ValueError(f"class_id must be >= 0, got {min(p.min(), g.min())}")
    return _accuracy(p, g, cfg)


def edit_score(pred, gt, cfg: EvalConfig = DEFAULT_EVAL) -> float:
    """100 * (1 - levenshtein(pred segment labels, gt segment labels) / max length)."""
    pr, gr = _both_scored_runs(*_aligned(pred, gt), cfg)
    return _edit(pr[2], gr[2])


def _overlap_pairs(pred, gt, length):
    """Same-class (pred, gt) run pairs with positive overlap, and their IoU.

    Pairs come ordered by prediction, then by ground truth, both temporal.
    Keys class*(length+1)+frame sort the ground-truth runs by class, then
    by time; within a class the runs are disjoint, so their start and end
    keys are both ascending, and the runs overlapping prediction p form
    the contiguous block of those ending after p starts and starting
    before p ends.
    """
    ps, pe, pc = pred
    gs, ge, gc = gt
    order = np.lexsort((gs, gc))
    base = gc[order] * (length + 1)
    lo = np.searchsorted(base + ge[order], pc * (length + 1) + ps, side="right")
    hi = np.searchsorted(base + gs[order], pc * (length + 1) + pe, side="left")
    count = hi - lo
    pair_p = np.repeat(np.arange(ps.size), count)
    # positions lo[p] .. hi[p]-1 of each prediction's block, concatenated
    offsets = np.arange(pair_p.size) - np.repeat(np.cumsum(count) - count, count)
    pair_g = order[np.repeat(lo, count) + offsets]
    inter = np.minimum(pe[pair_p], ge[pair_g]) - np.maximum(ps[pair_p], gs[pair_g])
    union = np.maximum(pe[pair_p], ge[pair_g]) - np.minimum(ps[pair_p], gs[pair_g])
    return pair_p, pair_g, inter / union


def _claimed(pairs, threshold):
    """Ground-truth runs claimed by the greedy matching at one threshold.

    Predictions in temporal order claim the unconsumed same-class
    ground-truth run of maximal IoU (ties to the earliest); a claim below
    the threshold is a false positive and consumes nothing. The threshold
    is checked to lie in (0, 1], so a candidate without overlap never matches
    or consumes, and a candidate below the threshold is never the claimed
    one: if any candidate reaches the threshold, the maximum does. The scan
    therefore only visits the overlap pairs at or above the threshold.

    A ground-truth run that two or more predictions reach is shared, and a
    prediction reaching one is contested. No other prediction can take an
    uncontested prediction's candidates, so it claims its first best-IoU pair
    whatever the order; those claims are settled at once, and the greedy scan
    runs over the contested predictions alone. Every prediction reaching a
    shared run is among them, so order and ties still decide each contested
    claim. The claimed runs come in no particular order: callers count them.
    """
    if not 0 < threshold <= 1:  # NaN fails too
        raise ValueError(f"IoU threshold must be in (0, 1], got {threshold}")
    pair_p, pair_g, iou = pairs
    keep = iou >= threshold
    pp, pg, pi = pair_p[keep], pair_g[keep], iou[keep]
    if not pp.size:
        return pg
    contested = np.zeros(pp[-1] + 1, bool)
    contested[pp[np.bincount(pg)[pg] > 1]] = True
    alone = ~contested[pp]
    settled = _first_best(pp[alone], pg[alone], pi[alone])
    pp, pg, pi = pp[~alone].tolist(), pg[~alone].tolist(), pi[~alone].tolist()
    used = set()
    k, n = 0, len(pp)
    while k < n:
        p, best, best_g = pp[k], -1.0, -1
        while k < n and pp[k] == p:
            if pi[k] > best and pg[k] not in used:
                best, best_g = pi[k], pg[k]
            k += 1
        if best_g >= 0:
            used.add(best_g)
    return np.concatenate((settled, np.fromiter(used, dtype=np.int64, count=len(used))))


def _first_best(pair_p, pair_g, iou):
    """Each prediction's first ground-truth run of maximal IoU, over pairs grouped by prediction."""
    if not pair_p.size:
        return pair_g
    starts, ends, _ = encode_runs(pair_p)  # each prediction's block of pairs
    hit = np.flatnonzero(iou == np.repeat(np.maximum.reduceat(iou, starts), ends - starts))
    return pair_g[hit[encode_runs(pair_p[hit])[0]]]


def _f1_pct(tp, fp, fn) -> float:
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 100.0
    return 100.0 * 2 * tp / denom


def _f1(pr, gr, claimed) -> float:
    tp = claimed.size
    return _f1_pct(tp, pr[0].size - tp, gr[0].size - tp)


def _runs_f1(pr, gr, length, threshold) -> float:
    """Segmental F1 (percent) at one threshold of scored runs on a timeline of length frames."""
    return _f1(pr, gr, _claimed(_overlap_pairs(pr, gr, length), threshold))


def _class_rows(pr, gr, claimed):
    """Per-class tp/fp/fn/F1 rows. Matching never crosses classes, so each class's
    counts are the global greedy pass's counts restricted to that class."""
    classes = np.union1d(pr[2], gr[2])
    size = int(classes[-1]) + 1 if classes.size else 0
    n_pred = np.bincount(pr[2], minlength=size).tolist()
    n_gt = np.bincount(gr[2], minlength=size).tolist()
    n_tp = np.bincount(gr[2][claimed], minlength=size).tolist()
    rows = []
    for cid in classes.tolist():
        tp, fp, fn = n_tp[cid], n_pred[cid] - n_tp[cid], n_gt[cid] - n_tp[cid]
        rows.append({"class_id": cid, "tp": tp, "fp": fp, "fn": fn, "f1": _f1_pct(tp, fp, fn)})
    return rows


def f1_at_iou(pred, gt, threshold: float, cfg: EvalConfig = DEFAULT_EVAL) -> float:
    """Segmental F1 (percent) at one IoU threshold."""
    p, g = _aligned(pred, gt)
    return _runs_f1(*_both_scored_runs(p, g, cfg), p.size, threshold)


def per_class_f1(pred, gt, threshold: float, cfg: EvalConfig = DEFAULT_EVAL):
    """Per-class tp/fp/fn/F1 of the segmental matching at one threshold."""
    p, g = _aligned(pred, gt)
    pr, gr = _both_scored_runs(p, g, cfg)
    return _class_rows(pr, gr, _claimed(_overlap_pairs(pr, gr, p.size), threshold))


def segment_level_f1(pred_labels, gt_labels, micro: bool = False) -> float:
    """Multiclass F1 over pre-cropped clip predictions.

    Macro (default) averages per-class F1 over the classes present in the
    ground truth; micro pools tp/fp/fn globally.
    """
    p = np.asarray(pred_labels, dtype=np.int64)
    g = np.asarray(gt_labels, dtype=np.int64)
    if p.shape != g.shape or p.ndim != 1:
        raise ValueError(f"aligned 1-d label lists required, got {p.shape} vs {g.shape}")
    if p.size == 0:
        raise ValueError("empty label lists")
    classes = np.unique(g)
    tps = np.array([np.sum((p == c) & (g == c)) for c in classes], dtype=np.float64)
    fps = np.array([np.sum((p == c) & (g != c)) for c in classes], dtype=np.float64)
    fns = np.array([np.sum((p != c) & (g == c)) for c in classes], dtype=np.float64)
    if micro:
        return _f1_pct(tps.sum(), fps.sum(), fns.sum())
    return float(np.mean(200.0 * tps / (2 * tps + fps + fns)))


def evaluate(pred, gt, cfg: EvalConfig = DEFAULT_EVAL, class_names=None) -> dict:
    """Full report: accuracy, edit score, F1 at each of IOU_THRESHOLDS, per-class detail.

    Each timeline's runs and the overlap pairs are built once, and the greedy
    matching runs once per threshold; the per-class detail reuses the
    matching at the largest threshold.
    """
    p, g = _aligned(pred, gt)
    pr, gr = _both_scored_runs(p, g, cfg)
    pairs = _overlap_pairs(pr, gr, p.size)
    claims = {thr: _claimed(pairs, thr) for thr in IOU_THRESHOLDS}
    report = {
        "acc": _accuracy(p, g, cfg),
        "edit": _edit(pr[2], gr[2]),
        "f1": {f"{thr:g}": _f1(pr, gr, claims[thr]) for thr in IOU_THRESHOLDS},
    }
    detail_thr = max(IOU_THRESHOLDS)
    rows = _class_rows(pr, gr, claims[detail_thr])
    if class_names:
        for row in rows:
            name = class_names.get(row["class_id"])
            if name:
                row["name"] = name
    report["per_class"] = rows
    report["per_class_iou"] = detail_thr
    return report
