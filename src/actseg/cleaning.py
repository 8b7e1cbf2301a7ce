"""Per-class length statistics and temporally aware label cleaning.

A predicted run is "statistically too short" when its length is strictly
below floor(mean - kappa*std) for its class; such runs are absorbed into the
previous confirmed action. kappa is calibrated by sweeping [1.0, 2.0] in 0.1
steps against background-omitted F1@0.5.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .timeline import BACKGROUND_ID, NUM_CLASSES, as_runs, as_timeline, encode_runs

SWEEP_KAPPAS = tuple(round(1.0 + 0.1 * i, 1) for i in range(11))


@dataclass(frozen=True)
class ClassStats:
    """Population mean/std of one class's segment lengths, in frames."""

    class_id: int
    count: int
    mean_frames: float
    std_frames: float
    name: str = ""

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0 < self.mean_frames < math.inf:
            raise ValueError(f"mean_frames must be finite and > 0, got {self.mean_frames}")
        if not 0 <= self.std_frames < math.inf:
            raise ValueError(f"std_frames must be finite and >= 0, got {self.std_frames}")


def compute_class_stats(runs):
    """Per-class mean and population standard deviation of run lengths, in run order."""
    starts, ends, labels = as_runs(runs)
    lengths = (ends - starts).astype(np.float64)
    stats = {}
    for cid in np.unique(labels).tolist():
        ls = lengths[labels == cid]
        stats[cid] = ClassStats(cid, ls.size, float(ls.mean()), float(ls.std()))
    return stats


def threshold(stats: ClassStats, kappa: float) -> int:
    """Minimum accepted run length: max(1, floor(mean - kappa*std))."""
    return max(1, math.floor(stats.mean_frames - kappa * stats.std_frames))


@dataclass(frozen=True)
class CleanerConfig:
    kappa: float = 1.4
    stats: dict = field(default_factory=dict)
    fps: float = 15.0
    background_id: int = BACKGROUND_ID
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be finite and > 0, got {self.fps}")
        if not 0 <= self.background_id < self.num_classes:
            raise ValueError(f"background id {self.background_id} outside [0, {self.num_classes})")
        for cid in self.stats:
            if not 0 <= cid < self.num_classes:
                raise ValueError(f"stats class id {cid} outside [0, {self.num_classes})")

    def threshold_for(self, class_id: int) -> int:
        # classes unseen in training clean at threshold 1 (never too short)
        st = self.stats.get(class_id)
        return threshold(st, self.kappa) if st is not None else 1

    def max_threshold(self) -> int:
        if not self.stats:
            return 1
        return max(self.threshold_for(c) for c in self.stats)


class StreamCleaner:
    """Streaming run-length filter over consecutive frames.

    A run buffers until it either reaches its class threshold (confirmed:
    the run survives, later same-label frames pass straight through) or ends
    early (too short: its frames are relabeled with the previous confirmed
    action and merge into it). The previous action starts as background, so
    a too-short leading run becomes background. A frame therefore waits at
    most max-threshold frames before finalizing.

    The state machine takes whole runs: push_run(start, length, label) feeds
    `length` frames of one label and returns the finalized (start, end,
    label) ranges. Batch cleaning feeds it a run-length encoding; push feeds
    it one frame at a time. Either way a run's fate depends only on its
    label and total length, so both give the same labels.
    """

    def __init__(self, cfg: CleanerConfig):
        self.cfg = cfg
        self._thresholds = [cfg.threshold_for(c) for c in range(cfg.num_classes)]
        self._prev = cfg.background_id     # label of the last confirmed run
        self._label = None                 # label of the current run
        self._len = 0                      # frames in the current run
        self._confirmed = False
        self._pending = 0                  # first frame of the unconfirmed current run
        self._next = None                  # frame the next push must start at
        self._closed = False

    def _start_run(self, start, length, label, out):
        self._label = label
        self._len = length
        if length >= self._thresholds[label]:
            self._confirmed = True
            self._prev = label
            out.append((start, start + length, label))
        else:
            self._confirmed = False
            self._pending = start

    def push_run(self, start: int, length: int, label: int):
        """Feed frames [start, start+length) of one raw label; returns the
        (start, end, label) ranges finalized by them, in frame order."""
        if self._closed:
            raise RuntimeError("cleaner already flushed")
        if self._next is not None and start != self._next:
            raise ValueError(f"out-of-order push: frame {start}, expected {self._next}")
        if length < 1:
            raise ValueError(f"run length must be >= 1, got {length}")
        if not 0 <= label < self.cfg.num_classes:
            raise ValueError(f"label {label} outside [0, {self.cfg.num_classes})")
        end = start + length
        self._next = end

        out = []
        if self._label is None:
            self._start_run(start, length, label, out)
        elif label == self._label:
            self._len += length
            if self._confirmed:
                out.append((start, end, label))
            elif self._len >= self._thresholds[label]:
                self._confirmed = True
                self._prev = label
                out.append((self._pending, end, label))
        elif self._confirmed:
            self._start_run(start, length, label, out)
        else:
            # too-short run: relabel it with the previous action and merge
            out.append((self._pending, start, self._prev))
            if label == self._prev:
                # the incoming run continues the merged (already confirmed) run
                self._label = label
                self._confirmed = True
                self._len += length
                out.append((start, end, label))
            else:
                self._start_run(start, length, label, out)
        return out

    def push(self, frame_index: int, raw_label: int):
        """Feed the next frame's raw prediction; returns the (frame, label)
        pairs finalized by it, in frame order."""
        return [(f, lab) for s, e, lab in self.push_run(frame_index, 1, int(raw_label))
                for f in range(s, e)]

    def flush_ranges(self):
        """Finalize a pending run, as (start, end, label) ranges like push_run;
        a still-unconfirmed tail merges into the previous action."""
        if self._closed:
            raise RuntimeError("cleaner already flushed")
        self._closed = True
        if self._confirmed or self._label is None:
            return []
        return [(self._pending, self._next, self._prev)]

    def flush(self):
        """flush_ranges as (frame, label) pairs, like push."""
        return [(f, lab) for s, e, lab in self.flush_ranges() for f in range(s, e)]


def clean_timeline(labels, cfg: CleanerConfig) -> np.ndarray:
    """Offline cleaning: feed the timeline's runs through a cleaner and flush."""
    arr = as_timeline(labels)
    if arr.size == 0:
        return arr.copy()
    cleaner = StreamCleaner(cfg)
    ranges = []
    for start, end, label in zip(*(a.tolist() for a in encode_runs(arr))):
        ranges += cleaner.push_run(start, end - start, label)
    ranges += cleaner.flush_ranges()
    r = np.array(ranges, dtype=np.int64)
    starts, ends = r[:, 0], r[:, 1]
    # every frame finalized exactly once: the ranges tile [0, size) in order
    assert (starts[0] == 0 and ends[-1] == arr.size and np.all(ends > starts)
            and np.array_equal(starts[1:], ends[:-1])), "cleaner ranges do not tile the timeline"
    return np.repeat(r[:, 2], ends - starts)


def kappa_scores(timelines_raw, timelines_gt, cfg_base: CleanerConfig):
    """Mean background-omitted F1@0.5 after cleaning, per sweep kappa."""
    raws = [as_timeline(t) for t in timelines_raw]
    gts = [as_timeline(t) for t in timelines_gt]
    if not raws or len(raws) != len(gts):
        raise ValueError(f"need matching raw/gt timelines, got {len(raws)} vs {len(gts)}")
    eval_cfg = metrics.EvalConfig(ignore_background=True, background_id=cfg_base.background_id)
    scores = {}
    for kappa in SWEEP_KAPPAS:
        cfg = dataclasses.replace(cfg_base, kappa=kappa)
        vals = [metrics.f1_at_iou(clean_timeline(r, cfg), g, 0.5, eval_cfg)
                for r, g in zip(raws, gts)]
        scores[kappa] = float(np.mean(vals))
    return scores


def sweep_kappa(timelines_raw, timelines_gt, cfg_base: CleanerConfig) -> float:
    """kappa in {1.0 .. 2.0} maximizing mean F1@0.5 after cleaning; ties pick the smaller."""
    scores = kappa_scores(timelines_raw, timelines_gt, cfg_base)
    return max(SWEEP_KAPPAS, key=lambda k: (scores[k], -k))


def read_class_stats(path):
    """JSON array of {class_id, name, count, mean_frames, std_frames} -> dict by class id."""
    try:
        records = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(records, list) or not records:
        raise ValueError(f"{path}: expected a nonempty JSON array of class stats")
    stats = {}
    for i, rec in enumerate(records):
        try:
            cid, count = rec["class_id"], rec["count"]
            if type(cid) is not int or type(count) is not int:  # not a float, bool or string
                raise ValueError(f"class_id and count must be integers, got {cid!r}, {count!r}")
            stats[cid] = ClassStats(cid, count, float(rec["mean_frames"]),
                                    float(rec["std_frames"]), str(rec.get("name", "")))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: record {i}: {exc}") from None
    return stats


def write_class_stats(stats, path) -> None:
    records = [
        {"class_id": s.class_id, "name": s.name, "count": s.count,
         "mean_frames": s.mean_frames, "std_frames": s.std_frames}
        for s in (stats[c] for c in sorted(stats))
    ]
    Path(path).write_text(json.dumps(records, indent=2) + "\n")
