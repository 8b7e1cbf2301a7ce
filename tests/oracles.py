"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (explicit
loops, full DP matrices, finite differences) and shares no code with the
implementations under test. The read_*_ref functions are the row-by-row
CSV parsers that the package's whole-file table reader replaced, and
write_csv_ref and write_logits_csv_ref are the csv.writer row loops that the
digit-array and block writers replaced.
"""

import csv
import math

import numpy as np


def levenshtein_ref(a, b):
    """Full-matrix edit distance."""
    a, b = list(a), list(b)
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[rows - 1][cols - 1]


def as_timeline_ref(items):
    """A timeline's labels as int64, one item at a time: an int, bool or numpy integer is
    its value, a float must be finite and whole, anything else is rejected, and each value
    must lie in [-2**63, 2**63). The first item that breaks the rule is a ValueError
    `frame i`."""
    out = []
    for frame, item in enumerate(items):
        if isinstance(item, (int, np.integer, np.bool_)):  # bool is an int
            value = int(item)
        elif (isinstance(item, (float, np.floating)) and math.isfinite(item)
              and math.floor(item) == item):
            value = int(item)
        else:
            raise ValueError(f"frame {frame}")
        if not -2**63 <= value <= 2**63 - 1:
            raise ValueError(f"frame {frame}")
        out.append(value)
    return np.array(out, dtype=np.int64)


def rle_ref(labels):
    """Run-length encode into (class_id, start, end) triples."""
    runs = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs.append((int(labels[start]), start, i))
            start = i
    return runs


def class_stats_ref(runs):
    """{class_id: (count, mean, population std)} of run lengths from
    (class_id, start, end) triples: each class's lengths gathered in a list
    in run order, then numpy's mean and std over that list as float64."""
    lengths = {}
    for cid, start, end in runs:
        lengths.setdefault(cid, []).append(end - start)
    stats = {}
    for cid, ls in sorted(lengths.items()):
        arr = np.asarray(ls, dtype=np.float64)
        stats[cid] = (arr.size, float(arr.mean()), float(arr.std()))
    return stats


def iou_ref(s1, e1, s2, e2):
    inter = max(0, min(e1, e2) - max(s1, s2))
    union = max(e1, e2) - min(s1, s2)
    return inter / union


def greedy_claims_ref(pred_runs, gt_runs, threshold):
    """Indices of the ground-truth runs claimed under the matching rule: each
    prediction, in temporal order, scans every unconsumed ground-truth run of
    its class and claims the best-IoU one (earliest on ties) if it clears the
    threshold."""
    used = [False] * len(gt_runs)
    for pc, ps, pe in pred_runs:
        best_iou, best_idx = -1.0, None
        for gi, (gc, gs, ge) in enumerate(gt_runs):
            if used[gi] or gc != pc:
                continue
            iou = iou_ref(ps, pe, gs, ge)
            if iou > best_iou:
                best_iou, best_idx = iou, gi
        if best_idx is not None and best_iou >= threshold:
            used[best_idx] = True
    return [gi for gi, u in enumerate(used) if u]


def greedy_match_ref(pred_runs, gt_runs, threshold):
    """(tp, fp, fn) under the matching rule of greedy_claims_ref: a prediction
    that claims nothing is a false positive."""
    tp = len(greedy_claims_ref(pred_runs, gt_runs, threshold))
    return tp, len(pred_runs) - tp, len(gt_runs) - tp


def f1_pct_ref(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 100.0 if denom == 0 else 100.0 * 2 * tp / denom


def f1_at_iou_ref(pred, gt, threshold, ignore_background=True, background_id=24):
    pred_runs = [r for r in rle_ref(pred) if not (ignore_background and r[0] == background_id)]
    gt_runs = [r for r in rle_ref(gt) if not (ignore_background and r[0] == background_id)]
    return f1_pct_ref(*greedy_match_ref(pred_runs, gt_runs, threshold))


def edit_score_ref(pred, gt, ignore_background=True, background_id=24):
    pl = [c for c, _, _ in rle_ref(pred) if not (ignore_background and c == background_id)]
    gl = [c for c, _, _ in rle_ref(gt) if not (ignore_background and c == background_id)]
    longest = max(len(pl), len(gl))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - levenshtein_ref(pl, gl) / longest)


def clean_ref(labels, threshold_of, background_id):
    """Frame-by-frame label cleaning: a run shorter than threshold_of(label)
    is relabeled with the previous surviving run's label (background before
    the first one) and merges into it; an unfinished tail run that never
    reached its threshold is relabeled the same way."""
    out = []
    prev = background_id        # label of the last confirmed run
    label = None                # label of the current run
    length = 0
    confirmed = False
    pending = []                # indices of the current run's unconfirmed frames
    for i, lab in enumerate(labels):
        lab = int(lab)
        out.append(None)
        if label is not None and lab != label and not confirmed:
            for j in pending:
                out[j] = prev
            pending = []
            if lab == prev:
                label, confirmed = prev, True
        if label is None or lab != label:
            label, length, confirmed = lab, 0, False
        length += 1
        if confirmed:
            out[i] = lab
            continue
        pending.append(i)
        if length >= threshold_of(lab):
            confirmed, prev = True, lab
            for j in pending:
                out[j] = lab
            pending = []
    for j in pending:
        out[j] = prev
    return out


def kappa_scores_ref(raws, gts, kappas, threshold_of, background_id):
    """Per kappa, the mean over recordings of background-omitted F1@0.5 after
    frame-by-frame cleaning with threshold_of(kappa, label)."""
    scores = {}
    for kappa in kappas:
        vals = [f1_at_iou_ref(clean_ref(raw, lambda label: threshold_of(kappa, label),
                                        background_id), gt, 0.5, True, background_id)
                for raw, gt in zip(raws, gts)]
        scores[kappa] = float(np.mean(vals))
    return scores


def gather_mean_ref(table, idx):
    """out[r] = mean of table rows idx[r, 0..T-1], added oldest first: ((t[i0] + t[i1]) + ...) / T.

    A plain loop over a clip's T positions, each one numpy add across every
    row, so each row gets the IEEE adds of a scalar left fold in that order.
    """
    idx = np.asarray(idx, dtype=np.int64)
    acc = table[idx[:, 0]]
    for j in range(1, idx.shape[1]):
        acc = acc + table[idx[:, j]]
    return acc / idx.shape[1]


def classify_clip_ref(table, frames):
    """Class scores of one clip: the mean of its frames' rows, added oldest first."""
    for f in frames:
        if not 0 <= f < len(table):
            raise ValueError(f"clip frame {f} outside table range [0, {len(table)})")
    return gather_mean_ref(table, [frames])[0]


def predict_clip_ref(table, frames):
    """A clip's label: its highest-scoring class, ties to the lowest class id."""
    return int(np.argmax(classify_clip_ref(table, frames)))


def central_diff(fn, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (fn(hi) - fn(lo)) / (2 * h)
    return g


def resize_nearest_ref(src, out_h, out_w):
    t, c, h, w = src.shape
    out = np.zeros((t, c, out_h, out_w))
    for k in range(t):
        for l in range(c):
            for i in range(out_h):
                for j in range(out_w):
                    out[k, l, i, j] = src[k, l, i * h // out_h, j * w // out_w]
    return out


def pad_place_ref(src, target_h, target_w, off_y, off_x):
    t, c, h, w = src.shape
    out = np.zeros((t, c, target_h, target_w))
    for k in range(t):
        for l in range(c):
            for i in range(target_h):
                for j in range(target_w):
                    si, sj = i - off_y, j - off_x
                    if 0 <= si < h and 0 <= sj < w:
                        out[k, l, i, j] = src[k, l, si, sj]
    return out


def enhance_ref(f, left, right, place_left, place_right, mixer):
    """bn(f + W [f; placed left; placed right] + b), one frame at a time in float64.

    place_left/place_right are each hand's (rows, cols, off_y, off_x)
    footprint; mixer carries weight, bias and the four bn vectors.
    """
    t, c, h, w = f.shape
    placed = [pad_place_ref(resize_nearest_ref(m, rows, cols), h, w, off_y, off_x)
              for m, (rows, cols, off_y, off_x) in ((left, place_left), (right, place_right))]
    scale = mixer.bn_scale / np.sqrt(mixer.bn_var)
    out = np.empty((t, c, h, w))
    for k in range(t):
        stacked = np.concatenate([f[k], placed[0][k], placed[1][k]]).reshape(-1, h * w)
        x = f[k].reshape(c, h * w) + np.dot(mixer.weight, stacked) + mixer.bias[:, None]
        out[k] = ((x - mixer.bn_mean[:, None]) * scale[:, None]
                  + mixer.bn_shift[:, None]).reshape(c, h, w)
    return out


# ---------------------------------------------------------------- CSV writers


def write_csv_ref(path, header, columns):
    """A header row, then the columns zipped into rows, through one csv.writer."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            wr.writerow(row)


def write_logits_csv_ref(path, logits):
    """A logits CSV, one csv.writer row per frame: the frame, then repr of each value."""
    arr = np.asarray(logits, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["frame"] + [f"logit_{i}" for i in range(arr.shape[1])])
        for i, row in enumerate(arr):
            wr.writerow([i] + [repr(float(v)) for v in row])


HAND_HEADER = ("frame", "p1", "x1", "y1", "p2", "x2", "y2")


def write_hands_ref(path, rows):
    """Rows (frame, (p1, x1, y1), (p2, x2, y2)) as a hand CSV, through write_csv_ref."""
    write_csv_ref(path, HAND_HEADER, zip(*((f, *left, *right) for f, left, right in rows)))


# ---------------------------------------------------------------- CSV readers


def read_timeline_ref(path):
    """CSV `frame,label_id` read one csv.reader row at a time."""
    labels = []
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), 1):
            if not row or (ln == 1 and not row[0].strip().lstrip("-").isdigit()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{ln}: expected 2 columns, got {len(row)}")
            try:
                frame, label = int(row[0]), int(row[1])
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-integer field in {row!r}") from None
            if frame != len(labels):
                raise ValueError(f"{path}:{ln}: expected frame {len(labels)}, got {frame}")
            if label < 0:
                raise ValueError(f"{path}:{ln}: label_id must be >= 0, got {label}")
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no timeline rows")
    return np.array(labels, dtype=np.int64)


def read_segments_ref(path):
    """CSV `start,end,label_id` -> (starts, ends, labels), one row at a time."""
    rows = []
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), 1):
            if not row or (ln == 1 and not row[0].strip().lstrip("-").isdigit()):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{ln}: expected 3 columns, got {len(row)}")
            try:
                start, end, label = (int(v) for v in row)
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-integer field in {row!r}") from None
            if not (0 <= start < end < 2**63 and 0 <= label < 2**63):
                raise ValueError(f"{path}:{ln}: need 0 <= start < end and label_id >= 0,"
                                 f" all int64, got {row!r}")
            rows.append((start, end, label))
    if not rows:
        raise ValueError(f"{path}: no segment rows")
    return tuple(np.array(rows, dtype=np.int64).T.copy())


def read_logits_ref(path):
    """CSV `frame,logit_0,...`, the first row setting the width, one row at a time."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), 1):
            if not row or (ln == 1 and not row[0].strip().lstrip("-").isdigit()):
                continue
            if width is None:
                width = len(row)
            if len(row) != width:
                raise ValueError(f"{path}:{ln}: expected {width} columns, got {len(row)}")
            try:
                frame = int(row[0])
                vals = [float(x) for x in row[1:]]
            except ValueError:
                raise ValueError(f"{path}:{ln}: malformed row {row!r}") from None
            if frame != len(rows):
                raise ValueError(f"{path}:{ln}: expected frame {len(rows)}, got {frame}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no logit rows")
    return np.array(rows, dtype=np.float64)


def read_hands_ref(path, hand):
    """(frame, left, right) per row of a `frame,p1,x1,y1,p2,x2,y2` CSV, each
    hand built as hand(p, x, y), one row at a time."""
    rows = []
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), 1):
            if not row or (ln == 1 and not row[0].strip().lstrip("-").isdigit()):
                continue
            if len(row) != 7:
                raise ValueError(f"{path}:{ln}: expected 7 columns, got {len(row)}")
            try:
                p1, x1, y1, p2, x2, y2 = (float(x) for x in row[1:])
                rows.append((int(row[0]), hand(p1, x1, y1), hand(p2, x2, y2)))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no hand rows")
    return rows
