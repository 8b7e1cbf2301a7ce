"""Per-class length statistics and temporally aware label cleaning.

A predicted run is "statistically too short" when its length is strictly
below floor(mean - kappa*std) for its class; such runs are absorbed into the
previous surviving action. kappa is calibrated by sweeping [1.0, 2.0] in 0.1
steps against background-omitted F1@0.5.
"""

import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .timeline import (BACKGROUND_ID, FPS, NUM_CLASSES, _text_lines, as_runs, as_timeline,
                       encode_runs, whole_label)

SWEEP_KAPPAS = tuple(round(1.0 + 0.1 * i, 1) for i in range(11))
_INT64_MAX = np.iinfo(np.int64).max  # the threshold clamp, no run reaches it


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
    """Minimum accepted run length: floor(mean - kappa*std) clamped to [1, int64 max]."""
    t = stats.mean_frames - kappa * stats.std_frames  # -inf if kappa*std overflows
    return int(min(max(t, 1.0), _INT64_MAX))  # int() floors a value >= 1


@dataclass(frozen=True)
class CleanerConfig:
    kappa: float = 1.4
    stats: dict = field(default_factory=dict)
    fps: float = FPS
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be finite and > 0, got {self.fps}")
        if self.num_classes <= BACKGROUND_ID:
            raise ValueError(f"background id {BACKGROUND_ID} outside [0, {self.num_classes})")
        for cid in self.stats:
            if not 0 <= cid < self.num_classes:
                raise ValueError(f"stats class id {cid} outside [0, {self.num_classes})")

    def threshold_for(self, class_id: int) -> int:
        # classes unseen in training clean at threshold 1 (never too short)
        st = self.stats.get(class_id)
        return threshold(st, self.kappa) if st is not None else 1

    def thresholds(self) -> np.ndarray:
        """threshold_for each label of the label space, as int64."""
        return np.array([self.threshold_for(c) for c in range(self.num_classes)], dtype=np.int64)

    def max_threshold(self) -> int:
        return int(self.thresholds().max())


class StreamCleaner:
    """Streaming form of clean_timeline, one frame at a time.

    A run whose label is the label of the last surviving run (background
    before any) keeps that label whether it survives or not, so its frames
    pass straight through. Any other run is held: it is released with its
    own label once it reaches its class threshold, or with the previous
    surviving label when a different label arrives first or on flush. A
    frame therefore waits at most max-threshold frames before finalizing.
    """

    def __init__(self, cfg: CleanerConfig):
        self.cfg = cfg
        self._thresholds = cfg.thresholds().tolist()
        self._classes = cfg.num_classes
        self._prev = BACKGROUND_ID         # label of the last surviving run
        self._label = None                 # label of the current run
        self._start = 0                    # first frame of the current run
        self._held = False                 # the current run's frames are waiting
        self._next = None                  # frame the next push must carry
        self._closed = False

    def push(self, frame_index: int, raw_label: int):
        """Feed the next frame's raw prediction; returns the (frame, label)
        pairs finalized by it, in frame order."""
        if self._closed:
            raise RuntimeError("cleaner already flushed")
        if self._next is not None and frame_index != self._next:
            raise ValueError(f"out-of-order push: frame {frame_index}, expected {self._next}")
        try:
            label = operator.index(raw_label)
        except TypeError:  # int() would truncate 2.7 to class 2
            label = whole_label(raw_label, frame_index)
        if not 0 <= label < self._classes:
            raise ValueError(f"label {label} outside [0, {self._classes})")
        self._next = frame_index + 1

        out = []
        if label != self._label:
            if self._held:  # the held run ended short
                out = [(f, self._prev) for f in range(self._start, frame_index)]
            self._label, self._start, self._held = label, frame_index, label != self._prev
        if self._held:
            if frame_index - self._start + 1 < self._thresholds[label]:
                return out
            self._held, self._prev = False, label
            out += [(f, label) for f in range(self._start, frame_index)]
        out.append((frame_index, label))
        return out

    def flush(self):
        """Finalize a held tail with the previous surviving label, as (frame,
        label) pairs like push."""
        if self._closed:
            raise RuntimeError("cleaner already flushed")
        self._closed = True
        if not self._held:
            return []
        return [(f, self._prev) for f in range(self._start, self._next)]


def _label_runs(labels, cfg: CleanerConfig):
    """encode_runs of a nonempty timeline whose labels all lie in the label space."""
    starts, ends, runs = encode_runs(labels)
    bad = runs[(runs < 0) | (runs >= cfg.num_classes)]
    if bad.size:  # a negative label would index the threshold table from its end
        raise ValueError(f"label {bad[0]} outside [0, {cfg.num_classes})")
    return starts, ends, runs


def _cleaned_run_labels(starts, ends, runs, cfg: CleanerConfig) -> np.ndarray:
    """The cleaning rule in closed form over runs: a run survives if it reaches its
    class threshold, and every run takes the label of the last surviving run
    (background before any). Returns each run's label after cleaning."""
    keep = ends - starts >= cfg.thresholds()[runs]
    last_kept = np.maximum.accumulate(np.where(keep, np.arange(runs.size), -1))
    return np.where(last_kept >= 0, runs[last_kept], BACKGROUND_ID)


def clean_timeline(labels, cfg: CleanerConfig) -> np.ndarray:
    """Offline cleaning: a run shorter than its threshold takes the label of the last
    run that survived, or background if none has yet."""
    arr = as_timeline(labels)
    if arr.size == 0:
        return arr.copy()
    starts, ends, runs = _label_runs(arr, cfg)
    out = np.repeat(_cleaned_run_labels(starts, ends, runs, cfg), ends - starts)
    assert out.size == arr.size, "cleaned runs do not cover the timeline"
    return out


def _merged(starts, ends, labels):
    """Runs after joining neighbours of one label: (starts, ends, labels) again."""
    head, tail, merged = encode_runs(labels)
    return starts[head], ends[tail - 1], merged


def kappa_scores(timelines_raw, timelines_gt, cfg_base: CleanerConfig):
    """Mean background-omitted F1@0.5 after cleaning, per sweep kappa.

    Each raw and ground-truth timeline is run-length encoded once; per kappa
    the cleaned runs come from the raw runs directly, never as frames.
    """
    raws, gts = list(timelines_raw), list(timelines_gt)
    if not raws or len(raws) != len(gts):
        raise ValueError(f"need matching raw/gt timelines, got {len(raws)} vs {len(gts)}")
    eval_cfg = metrics.EvalConfig(ignore_background=True)
    pairs = [(_label_runs(r, cfg_base), metrics._scored_runs(encode_runs(g), eval_cfg), r.size)
             for r, g in map(metrics._aligned, raws, gts)]
    scores = {}
    for kappa in SWEEP_KAPPAS:
        cfg = dataclasses.replace(cfg_base, kappa=kappa)
        vals = []
        for (starts, ends, runs), gt_runs, length in pairs:
            cleaned = _merged(starts, ends, _cleaned_run_labels(starts, ends, runs, cfg))
            vals.append(metrics._runs_f1(metrics._scored_runs(cleaned, eval_cfg), gt_runs,
                                         length, 0.5))
        scores[kappa] = float(np.mean(vals))
    return scores


def best_kappa(scores) -> float:
    """The sweep kappa of highest score in kappa_scores' result; ties pick the smaller."""
    return max(SWEEP_KAPPAS, key=lambda k: (scores[k], -k))


def read_class_stats(path):
    """JSON array of {class_id, name, count, mean_frames, std_frames} -> dict by class id.

    Each class id appears once; bytes that are not UTF-8 are an error at their line."""
    text = "".join(line for _, line in _text_lines(path))
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(records, list) or not records:
        raise ValueError(f"{path}: expected a nonempty JSON array of class stats")
    stats, record_of = {}, {}
    for i, rec in enumerate(records):
        try:
            cid, count, name = rec["class_id"], rec["count"], rec.get("name", "")
            mean, std = rec["mean_frames"], rec["std_frames"]
            # exact types: a bool is an int to Python, and float() reads "1_2" as 12
            if type(cid) is not int or type(count) is not int:
                raise ValueError(f"class_id and count must be integers, got {cid!r}, {count!r}")
            if not {type(mean), type(std)} <= {int, float} or type(name) is not str:
                raise ValueError("mean_frames and std_frames must be numbers and name a string,"
                                 f" got {mean!r}, {std!r}, {name!r}")
            stats[cid] = ClassStats(cid, count, float(mean), float(std), name)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: record {i}: {exc}") from None
        if cid in record_of:
            raise ValueError(f"{path}: records {record_of[cid]} and {i} both have class_id {cid}")
        record_of[cid] = i
    return stats


def write_class_stats(stats, path) -> None:
    records = [
        {"class_id": s.class_id, "name": s.name, "count": s.count,
         "mean_frames": s.mean_frames, "std_frames": s.std_frames}
        for s in (stats[c] for c in sorted(stats))
    ]
    Path(path).write_text(json.dumps(records, indent=2) + "\n")
