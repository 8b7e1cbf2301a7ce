"""Property tests: cleaning, streaming, run-length encoding,
class statistics and the segmental metrics against the brute-force oracles
in oracles.py, every clip builder against the one window rule, and the
fused enhancement pass against the primitives it fuses.

The examples are drawn by hypothesis under the deterministic profile that
conftest.py registers.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actseg import classify, pipeline
from actseg.align import CropGeometry, enhance, place_hand_features
from actseg.classify import LogitsBackend, one_hot_logits, write_logits_binary, write_logits_csv
from actseg.cleaning import (ClassStats, CleanerConfig, StreamCleaner, clean_timeline,
                             compute_class_stats)
from actseg.cli import main
from actseg.grid import FeatureMap, MixerWeights, concat_channels, mix_1x1, residual_norm
from actseg.metrics import (IOU_THRESHOLDS, EvalConfig, _both_scored_runs, _claimed,
                            _overlap_pairs, edit_score, evaluate, f1_at_iou, frame_accuracy,
                            per_class_f1)
from actseg.pipeline import PipelineConfig, StreamSession, run_offline
from actseg.sampling import (inference_clip, middle_clip, middle_offset, prediction_lag,
                             training_clip, window_offsets)
from actseg.timeline import (BACKGROUND_ID, NUM_CLASSES, as_timeline, encode_runs,
                             read_timeline_csv, timeline_from_segments)
from oracles import (as_timeline_ref, class_stats_ref, clean_ref, edit_score_ref, f1_at_iou_ref,
                     f1_pct_ref, greedy_claims_ref, greedy_match_ref, predict_clip_ref, rle_ref)


def run_lists(n_classes, max_len=12, max_runs=40):
    """(label, length) pieces; neighbours may share a label, so a piece can
    continue the run before it."""
    return st.lists(st.tuples(st.integers(0, n_classes - 1), st.integers(1, max_len)),
                    min_size=1, max_size=max_runs)


def timeline_of(pieces):
    return np.repeat([c for c, _ in pieces], [n for _, n in pieces]).astype(np.int64)


# four actions and background in the 25-class label space: a run_lists label i
# stands for LABELS[i], so background occurs wherever the labels are drawn from here
LABELS = np.array([0, 1, 2, 3, BACKGROUND_ID])


@st.composite
def cleaner_configs(draw):
    """Stats for a random subset of LABELS (every other class cleans at
    threshold 1) and a kappa on both sides of the sweep range."""
    stats = {}
    for cid in LABELS.tolist():
        if draw(st.booleans()):
            mean = draw(st.floats(1.0, 16.0))
            std = draw(st.floats(0.0, 6.0))
            stats[cid] = ClassStats(cid, 5, mean, std)
    kappa = draw(st.floats(0.1, 2.5))
    return CleanerConfig(kappa, stats)


# ------------------------------------------------------------ cleaning


@given(run_lists(LABELS.size), cleaner_configs())
def test_frame_fed_equals_batch_equals_reference(pieces, cfg):
    labels = LABELS[timeline_of(pieces)]
    want = clean_ref(labels.tolist(), cfg.threshold_for, BACKGROUND_ID)

    frame_fed = StreamCleaner(cfg)
    pairs = [p for i, lab in enumerate(labels.tolist()) for p in frame_fed.push(i, lab)]
    pairs += frame_fed.flush()
    assert [f for f, _ in pairs] == list(range(labels.size))
    assert [lab for _, lab in pairs] == want

    assert clean_timeline(labels, cfg).tolist() == want


@st.composite
def stream_cases(draw):
    pieces = draw(run_lists(LABELS.size, max_len=15, max_runs=12))
    t = draw(st.integers(1, 6))
    tau = draw(st.integers(1, 4))
    cleaner = draw(st.none() | cleaner_configs())
    seed = draw(st.integers(0, 2**16))
    return pieces, t, tau, cleaner, seed


PINNED_CLEANER = CleanerConfig(1.0, {c: ClassStats(c, 5, 6.0, 1.0) for c in LABELS.tolist()})
# floor(1.5 - 0.2) = 1 for every class: no run is ever held
NO_HOLD_CLEANER = CleanerConfig(1.0, {c: ClassStats(c, 5, 1.5, 0.2) for c in LABELS.tolist()})
# class 0 at threshold 40, the others at 3
ONE_LONG_CLEANER = CleanerConfig(1.0, {c: ClassStats(c, 5, 40.0 if c == 0 else 3.0, 0.0)
                                       for c in LABELS.tolist()})


@given(stream_cases())
# finished after fewer pushes than the 12-frame lag, so finish labels every frame
@example(([(0, 3), (1, 4), (0, 2)], 6, 4, PINNED_CLEANER, 0))
@example(([(1, 5)], 3, 4, None, 1))
# finished after more than the 12-frame lag and fewer than the 20-frame span: the
# pushes and finish label clamped windows only
@example(([(0, 5), (2, 6), (1, 5)], 6, 4, PINNED_CLEANER, 8))
# T=1: no lag, so finish labels nothing and only flushes the cleaner
@example(([(0, 2), (1, 7), (2, 1), (0, 3)], 1, 3, PINNED_CLEANER, 2))
@example(([(3, 1)], 1, 1, None, 3))
# every threshold 1: no frame waits longer than the window's lag, and most wait exactly that
@example(([(0, 3), (1, 1), (2, 4), (4, 2), (3, 5)], 4, 2, NO_HOLD_CLEANER, 4))
@example(([(1, 2), (3, 1), (1, 6)], 1, 1, NO_HOLD_CLEANER, 5))
# one threshold far above the rest: class 0's long runs may wait 39 frames, the others 2
@example(([(1, 4), (0, 45), (2, 2), (1, 5), (0, 12), (3, 3), (0, 41)], 4, 2,
          ONE_LONG_CLEANER, 6))
@example(([(2, 6), (0, 40), (1, 3), (0, 39), (3, 4)], 1, 1, ONE_LONG_CLEANER, 7))
def test_stream_equals_offline_exactly_once_within_lag_bound(case):
    pieces, t, tau, cleaner, seed = case
    labels = LABELS[timeline_of(pieces)]
    noise = np.random.default_rng(seed).normal(0.0, 0.5, (labels.size, NUM_CLASSES))
    backend = LogitsBackend(2.0 * one_hot_logits(labels) + noise)
    cfg = PipelineConfig(t, tau, 15.0, NUM_CLASSES, cleaner)
    raw, want = run_offline(cfg, backend)

    session = StreamSession(cfg, backend)
    got = np.full(labels.size, -1, dtype=np.int64)
    count = np.zeros(labels.size, dtype=np.int64)
    emitted_at = np.zeros(labels.size, dtype=np.int64)
    # what finish() drains counts as emitted by the last push
    pushes = [(i, session.push(i)) for i in range(labels.size)]
    pushes.append((labels.size - 1, session.finish()))
    for at, out in pushes:
        for f, lab in out:
            got[f] = lab
            count[f] += 1
            emitted_at[f] = at

    assert np.all(count == 1)
    assert np.array_equal(got, want)
    waited = emitted_at - np.arange(labels.size)
    lag = (t // 2) * tau
    assert np.all(waited <= lag + (cleaner.max_threshold() if cleaner else 0))
    # per class: a held run of raw class c is released by the push of its
    # threshold(c)-th frame at the latest, so its first frame waits threshold(c) - 1
    assert np.all(waited <= lag + (cleaner.thresholds()[raw] - 1 if cleaner else 0))


# ------------------------------------------------------------ run-length encoding


@given(run_lists(6, max_len=20))
def test_run_length_round_trip(pieces):
    labels = timeline_of(pieces)
    starts, ends, cls = encode_runs(labels)
    assert list(zip(cls.tolist(), starts.tolist(), ends.tolist())) == rle_ref(labels.tolist())
    assert np.array_equal(np.repeat(cls, ends - starts), labels)
    assert np.all(cls[1:] != cls[:-1])
    # fill with a label the timeline never uses, so a gap would show
    rebuilt = timeline_from_segments((starts, ends, cls), fill=99)
    assert np.array_equal(rebuilt, labels)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10**6), st.integers(1, 10**5)),
                min_size=1, max_size=400))
def test_class_stats_equal_list_oracle_bit_for_bit(table):
    # runs may overlap or leave gaps: the statistics only read their lengths
    triples = [(c, s, s + n) for c, s, n in table]
    runs = tuple(np.array(col, dtype=np.int64) for col in zip(*((s, e, c) for c, s, e in triples)))
    got = {cid: (cs.count, cs.mean_frames.hex(), cs.std_frames.hex())
           for cid, cs in compute_class_stats(runs).items()}
    want = {cid: (count, mean.hex(), std.hex())
            for cid, (count, mean, std) in class_stats_ref(triples).items()}
    assert got == want
    assert list(got) == sorted(got)


# ------------------------------------------------------------ whole-number labels

INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
# every dtype an array of drawn labels may take, str and object included
HOLDERS = [np.bool_, *INT_TYPES, np.float16, np.float32, np.float64, object, str]

numpy_scalars = st.one_of(
    st.sampled_from(INT_TYPES).flatmap(
        lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)),
    *(st.floats(width=w).map(t) for w, t in ((16, np.float16), (32, np.float32),
                                                (64, np.float64))),
    st.booleans().map(np.bool_))
label_items = st.one_of(
    st.integers(-2, 30),
    st.sampled_from([-2**63 - 1, -2**63, 2**53 + 1, 2**63 - 1, 2**63, 2**64]),
    st.integers(),
    st.sampled_from([-2.0**63, 2.0**63, 0.5, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.booleans(),
    numpy_scalars,
    st.sampled_from([None, "1", "a"]))


def arrays_holding(items):
    """items as an array of each dtype in HOLDERS that holds every item's value exactly."""
    values = [v.item() if isinstance(v, np.generic) else v for v in items]
    for dtype in HOLDERS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cast that overflows or loses NaN holds nothing
            try:
                arr = np.array(items, dtype=dtype)
            except (ValueError, TypeError, OverflowError, Warning):
                continue
        if all(a == v or a != a and v != v for a, v in zip(arr.tolist(), values)):  # NaN is NaN
            yield arr


@pytest.mark.filterwarnings("error")
@given(st.lists(label_items, max_size=6))
@example([-2.0**63])  # a float array of int64's minimum was rejected as past int64
@example([np.float16(2.0)])  # the list's 2**53 test overflowed float16, with a RuntimeWarning
@example([2.0**63, math.nan])  # a float array named frame 1, an object array frame 0
def test_as_timeline_equals_item_by_item_rule(items):
    try:
        want, bad = as_timeline_ref(items), None
    except ValueError as exc:
        bad = str(exc)
    for labels in [list(items), tuple(items), *arrays_holding(items)]:
        if bad is None:
            got = as_timeline(labels)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
        else:
            with pytest.raises(ValueError, match=f"^label .* at {bad} (is|does) "):
                as_timeline(labels)


# ------------------------------------------------------------ clip windows


@given(st.integers(1, 12), st.integers(1, 9), st.integers(-120, 260), st.integers(1, 160))
def test_clip_builders_are_middle_plus_window_offsets(t, tau, anchor, seq_len):
    offsets = window_offsets(t, tau)
    # the rule spelled out: T frames at stride tau, the newest (the trigger)
    # floor(T/2) strides after the middle
    assert offsets.dtype == np.int64
    assert offsets.tolist() == [(i - (t - 1 - t // 2)) * tau for i in range(t)]

    def clamped(middle, hi):
        return tuple(np.clip(middle + offsets, 0, hi).tolist()), int(np.clip(middle, 0, hi))

    def built(clip):
        return clip.frames, clip.middle

    start = anchor - middle_offset(t, tau)
    assert built(training_clip(start, t, tau)) == clamped(anchor, None)
    assert built(training_clip(start, t, tau, seq_len)) == clamped(anchor, seq_len - 1)
    middle = min(max(anchor, 0), seq_len - 1)
    assert built(middle_clip(middle, t, tau, seq_len)) == clamped(middle, seq_len - 1)
    t0 = min(max(anchor + prediction_lag(t, tau), 0), seq_len - 1)
    # the trigger is the newest frame, so the upper clamp never binds here
    assert built(inference_clip(t0, t, tau, seq_len)) == clamped(t0 - prediction_lag(t, tau), None)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 60), st.integers(0, 2**16))
def test_offline_windows_are_middle_clips(t, tau, seq_len, seed):
    logits = np.random.default_rng(seed).normal(size=(seq_len, 4))
    backend = LogitsBackend(logits)
    raw, _ = run_offline(PipelineConfig(t, tau, 15.0, 4, None), backend)
    want = [predict_clip_ref(logits, middle_clip(m, t, tau, seq_len).frames)
            for m in range(seq_len)]
    assert raw.tolist() == want


@pytest.mark.parametrize("fmt", ["atsl", "csv"])
@pytest.mark.parametrize("softmax", [False, True])
@settings(max_examples=50)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 80), st.integers(1, 6),
       st.integers(1, 9), st.integers(1, 40), st.integers(0, 2**16))
@example(t=3, tau=2, n=40, k=4, chunk=1, block=1, seed=0)  # blocks of one row
@example(t=6, tau=5, n=80, k=3, chunk=3, block=7, seed=1)  # a 25-frame halo over 3-row blocks
@example(t=5, tau=4, n=7, k=4, chunk=2, block=5, seed=2)  # shorter than one 17-frame window
@example(t=4, tau=3, n=1, k=5, chunk=4, block=3, seed=3)  # one frame
def test_file_fed_run_equals_in_memory_and_clip_oracle(fmt, softmax, t, tau, n, k, chunk, block,
                                                       seed):
    # float32 values, which a binary file holds exactly
    logits = np.random.default_rng(seed).normal(size=(n, k)).astype(np.float32).astype(float)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # the window driver's block of rows and the reader's block of values
        mp.setattr(pipeline, "_CHUNK", chunk)
        mp.setattr(classify, "_LOGITS_BLOCK", block)
        path = Path(tmp) / f"logits.{fmt}"
        (write_logits_binary if fmt == "atsl" else write_logits_csv)(path, logits)
        argv = ["--out", str(Path(tmp) / "report.json"), "run", "--logits", str(path),
                "--t", str(t), "--tau", str(tau), "--no-clean", "--out-dir", tmp]
        assert main(argv + ["--softmax-average"] * softmax) == 0
        got = read_timeline_csv(Path(tmp) / "raw.csv")
        backend = LogitsBackend(logits, softmax)
        in_memory, _ = run_offline(PipelineConfig(t, tau, 15.0, k, None), backend)
    want = [predict_clip_ref(backend.table, middle_clip(m, t, tau, n).frames) for m in range(n)]
    assert got.tolist() == in_memory.tolist() == want


# ------------------------------------------------------------ metrics


def per_class_ref(pred, gt, threshold, ignore_background, background_id):
    """(class_id, tp, fp, fn) per class, from the greedy oracle run on each
    class's runs alone."""
    def scored(labels):
        return [r for r in rle_ref(labels) if not (ignore_background and r[0] == background_id)]
    pr, gr = scored(pred), scored(gt)
    rows = []
    for cid in sorted({r[0] for r in pr} | {r[0] for r in gr}):
        tp, fp, fn = greedy_match_ref([r for r in pr if r[0] == cid],
                                      [r for r in gr if r[0] == cid], threshold)
        rows.append((cid, tp, fp, fn))
    return rows


iou_thresholds = st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.01, 1.0)


@st.composite
def scored_pairs(draw):
    # few classes and short runs, so same-class candidates compete for the
    # same ground truth and IoU ties occur; a prediction is either drawn on
    # its own or the ground truth with short spikes written over it, which
    # splits one ground-truth segment among several predictions; the last
    # label of the alphabet is background
    n_classes = draw(st.integers(1, 4))
    alphabet = np.array([*range(n_classes - 1), BACKGROUND_ID])
    gt = timeline_of(draw(run_lists(n_classes, max_len=8)))
    if draw(st.booleans()):
        pred = timeline_of(draw(run_lists(n_classes, max_len=8)))
    else:
        pred = gt.copy()
        spikes = st.tuples(st.integers(0, gt.size - 1), st.integers(1, 3),
                           st.integers(0, n_classes - 1))
        for pos, n, label in draw(st.lists(spikes, max_size=8)):
            pred[pos:pos + n] = label
    n = min(pred.size, gt.size)
    threshold = draw(iou_thresholds)
    return alphabet[pred[:n]], alphabet[gt[:n]], threshold


BG = BACKGROUND_ID
# (pred, gt) pairs pinned for the matching, each scored at 0.1, 0.25 and 0.5 with
# background ignored. Two disjoint runs of one class cannot both reach IoU 0.5
# against one run, so IoU exactly 0.5 comes from halves of another class, and
# ties between candidates fall below it.
CLAIM_CASES = [
    # a ground-truth run split into two predicted halves, one of its class: IoU 0.5
    (timeline_of([(0, 4), (1, 4)]), timeline_of([(0, 8)])),
    # the reverse: a predicted run over two ground-truth halves
    (timeline_of([(0, 8)]), timeline_of([(0, 4), (1, 4)])),
    # two predicted halves tie at IoU 4/9 for one ground-truth run: the earlier claims it
    (timeline_of([(0, 4), (BG, 1), (0, 4)]), timeline_of([(0, 9)])),
    # one prediction ties at IoU 4/9 with two ground-truth halves: it claims the earlier
    (timeline_of([(0, 9)]), timeline_of([(0, 4), (BG, 1), (0, 4)])),
    # uncontested and contested predictions interleaved: class 0 and 2 runs alone on
    # their ground truth, two class 1 runs sharing each class 1 ground-truth run
    (timeline_of([(0, 6), (1, 3), (BG, 1), (1, 2), (2, 5), (3, 1), (1, 2), (BG, 1), (1, 3),
                  (0, 6)]),
     timeline_of([(0, 6), (1, 6), (2, 6), (1, 6), (0, 6)])),
    # a prediction reaching a shared run and a run of its own; at 0.25 and above the
    # shared run drops out and both predictions are alone
    (timeline_of([(0, 7), (BG, 1), (0, 7)]),
     timeline_of([(0, 4), (BG, 1), (0, 4), (BG, 2), (0, 4)])),
    # no same-class overlap at all, and an overlap of IoU 0.1 kept only at 0.1
    (timeline_of([(0, 10)]), timeline_of([(1, 10)])),
    (timeline_of([(0, 1), (1, 9)]), timeline_of([(0, 10)])),
]
# pinned for the edit distance: the run labels of a side longer than one 64-bit
# word against a side whose symbols the longer one lacks (all, or some), and
# sides that are empty once background is dropped
EDIT_CASES = [
    (timeline_of([(k % 2, 1) for k in range(130)]),
     timeline_of([(2 + k % 2, 5) for k in range(26)])),
    (timeline_of([(k % 3, 1) for k in range(130)]),
     timeline_of([(3 * (k % 2), 5) for k in range(26)])),
    (timeline_of([(k % 2, 1) for k in range(70)]), timeline_of([(BG, 70)])),
    (timeline_of([(BG, 70)]), timeline_of([(k % 2, 1) for k in range(70)])),
    (timeline_of([(BG, 5)]), timeline_of([(BG, 5)])),
]


def triples(runs):
    """Runs (starts, ends, labels) as the oracles' (label, start, end) triples."""
    starts, ends, labels = (a.tolist() for a in runs)
    return list(zip(labels, starts, ends))


def with_pinned_cases(test):
    for pred, gt in CLAIM_CASES:
        for threshold in (0.1, 0.25, 0.5):
            test = example((pred, gt, threshold), True)(test)
    for pred, gt in EDIT_CASES:
        test = example((pred, gt, 0.5), True)(test)
    return test


@with_pinned_cases
@given(scored_pairs(), st.booleans())
def test_metrics_equal_oracles(case, ignore_background):
    pred, gt, threshold = case
    cfg = EvalConfig(ignore_background=ignore_background)
    p, g = pred.tolist(), gt.tolist()

    # the claimed ground-truth runs themselves, not only their count
    pr, gr = _both_scored_runs(pred, gt, cfg)
    claimed = _claimed(_overlap_pairs(pr, gr, pred.size), threshold)
    assert sorted(claimed.tolist()) == greedy_claims_ref(triples(pr), triples(gr), threshold)

    assert f1_at_iou(pred, gt, threshold, cfg) == \
        f1_at_iou_ref(p, g, threshold, ignore_background, BACKGROUND_ID)
    assert edit_score(pred, gt, cfg) == edit_score_ref(p, g, ignore_background, BACKGROUND_ID)

    rows = per_class_f1(pred, gt, threshold, cfg)
    want = per_class_ref(p, g, threshold, ignore_background, BACKGROUND_ID)
    assert [(r["class_id"], r["tp"], r["fp"], r["fn"]) for r in rows] == want
    assert [r["f1"] for r in rows] == [f1_pct_ref(tp, fp, fn) for _, tp, fp, fn in want]


@given(scored_pairs(), st.booleans())
@example((np.array([24]), np.array([24]), 0.5), True)           # one frame, background
@example((np.array([0, 0, 1]), np.array([24, 24, 24]), 0.5), True)  # background ground truth
def test_evaluate_equals_public_metrics(case, ignore_background):
    # evaluate builds runs, overlap pairs and matchings once; the public metrics
    # each build their own, and must give the same report, at the paper's
    # thresholds with the per-class detail at 0.5
    pred, gt, _ = case
    cfg = EvalConfig(ignore_background)
    want = {"acc": frame_accuracy(pred, gt, cfg), "edit": edit_score(pred, gt, cfg),
            "f1": {f"{thr:g}": f1_at_iou(pred, gt, thr, cfg) for thr in IOU_THRESHOLDS},
            "per_class": per_class_f1(pred, gt, 0.5, cfg), "per_class_iou": 0.5}
    assert evaluate(pred, gt, cfg) == want


# ------------------------------------------------------------ enhancement


@st.composite
def crop_geometries(draw):
    """Any valid crop and hand window; small crops put hands partly or fully
    outside it, and a hand may shrink to a 1x1 footprint or cover the grid."""
    full_w, full_h = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    scale_short = draw(st.integers(1, 64))
    crop = draw(st.integers(1, scale_short))  # the scaled shorter side is scale_short
    crop_x = draw(st.integers(0, scale_short - crop))
    crop_y = draw(st.integers(0, scale_short - crop))
    hand_w, hand_h = draw(st.integers(1, full_w)), draw(st.integers(1, full_h))
    hand_x, hand_y = draw(st.integers(0, full_w - hand_w)), draw(st.integers(0, full_h - hand_h))
    return CropGeometry(full_w, full_h, scale_short, crop, crop_x, crop_y,
                        hand_w, hand_h, hand_x, hand_y)


@given(st.integers(1, 3), st.lists(st.integers(1, 5), min_size=3, max_size=3),
       st.lists(st.integers(1, 12), min_size=6, max_size=6), crop_geometries(),
       crop_geometries(), st.integers(0, 2**32 - 1))
def test_enhance_equals_composed_primitives(t, channels, dims, g_left, g_right, seed):
    c, c_l, c_r = channels
    h, w, hl, wl, hr, wr = dims
    rng = np.random.default_rng(seed)
    f = FeatureMap(rng.normal(size=(t, c, h, w)))
    left = FeatureMap(rng.normal(size=(t, c_l, hl, wl)))
    right = FeatureMap(rng.normal(size=(t, c_r, hr, wr)))
    mixer = MixerWeights(rng.normal(size=(c, c + c_l + c_r)), rng.normal(size=c),
                         rng.normal(size=c), rng.normal(size=c), rng.normal(size=c),
                         rng.uniform(0.2, 3.0, size=c))
    stacked = concat_channels([f, place_hand_features(left, g_left, h, w),
                               place_hand_features(right, g_right, h, w)])
    want = residual_norm(f, mix_1x1(stacked, mixer), mixer).values
    got = enhance(f, left, right, g_left, g_right, mixer).values
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9
