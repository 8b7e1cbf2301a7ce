import numpy as np
import pytest

from actseg.metrics import (DEFAULT_EVAL, IOU_THRESHOLDS, EvalConfig, edit_score, evaluate,
                            f1_at_iou, frame_accuracy, per_class_f1, segment_level_f1)
from actseg.timeline import BACKGROUND_ID
from oracles import edit_score_ref, f1_at_iou_ref

BG = BACKGROUND_ID
KEEP_BG = EvalConfig(ignore_background=False)


def random_timeline(rng, n_classes=5, max_len=80):
    """Timelines built from runs, so segment structure is non-trivial; the last
    of the n_classes labels is background."""
    alphabet = list(range(n_classes - 1)) + [BG]
    out = []
    while len(out) < max_len:
        cid = alphabet[int(rng.integers(0, n_classes))]
        out.extend([cid] * int(rng.integers(1, 9)))
    return np.array(out[:max_len], dtype=np.int64)


class TestFrameAccuracy:
    def test_perfect(self):
        t = [0, 1, 1, BG]
        assert frame_accuracy(t, t) == 100.0

    def test_all_wrong(self):
        assert frame_accuracy([0, 0, 0], [1, 1, 1], KEEP_BG) == 0.0

    def test_background_excluded_from_denominator(self):
        gt = [0, 0, 0, 0, BG, BG, BG, BG]
        pred = [0, 0, 0, 1, 0, 0, 0, 0]
        assert frame_accuracy(pred, gt) == 75.0
        assert frame_accuracy(pred, gt, KEEP_BG) == pytest.approx(37.5)

    def test_all_background_gt_is_vacuous(self):
        assert frame_accuracy([0, 1], [BG, BG]) == 100.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            frame_accuracy([0], [0, 0])


class TestEditScore:
    def test_identical(self):
        t = [0] * 5 + [1] * 5
        assert edit_score(t, t, KEEP_BG) == 100.0

    def test_one_insertion_among_three(self):
        pred = [0] * 4 + [1] * 4 + [0] * 4
        gt = [0] * 6 + [1] * 6
        assert edit_score(pred, gt, KEEP_BG) == pytest.approx(100 * (1 - 1 / 3))

    def test_disjoint_labels(self):
        pred = [0] * 3 + [1] * 3
        gt = [2] * 3 + [3] * 3
        assert edit_score(pred, gt, KEEP_BG) == 0.0

    def test_background_segments_dropped(self):
        pred = [0] * 4 + [BG] * 4 + [1] * 4
        gt = [0] * 2 + [1] * 10
        assert edit_score(pred, gt) == 100.0

    def test_both_empty_after_filter(self):
        assert edit_score([BG] * 4, [BG] * 4) == 100.0

    def test_matches_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            pred = random_timeline(rng)
            gt = random_timeline(rng)
            for cfg in (DEFAULT_EVAL, KEEP_BG):
                got = edit_score(pred, gt, cfg)
                want = edit_score_ref(pred.tolist(), gt.tolist(), cfg.ignore_background, BG)
                assert got == pytest.approx(want, abs=1e-12)

    def test_invariant_under_temporal_scaling(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            pred = random_timeline(rng)
            gt = random_timeline(rng)
            assert edit_score(np.repeat(pred, 3), np.repeat(gt, 3)) == \
                edit_score(pred, gt)


class TestF1AtIoU:
    def test_near_boundary_shift_still_matches(self):
        # pred boundary off by 2: IoUs 0.8 and 10/12, both >= 0.5
        gt = [0] * 10 + [1] * 10
        pred = [0] * 8 + [1] * 12
        assert f1_at_iou(pred, gt, 0.5, KEEP_BG) == 100.0

    def test_perfect_at_all_thresholds(self):
        t = [0] * 7 + [2] * 5 + [1] * 8
        for thr in (0.1, 0.25, 0.5, 1.0):
            assert f1_at_iou(t, t, thr, KEEP_BG) == 100.0

    def test_merged_prediction(self):
        # one prediction spanning two gt segments: IoU 0.5 TP for A, B unmatched
        gt = [0] * 10 + [1] * 10
        pred = [0] * 20
        assert f1_at_iou(pred, gt, 0.5, KEEP_BG) == pytest.approx(200 / 3, abs=1e-9)

    def test_vacuous_is_hundred(self):
        assert f1_at_iou([BG] * 5, [BG] * 5, 0.5) == 100.0

    def test_consumed_segment_passes_claim_to_next_best(self):
        # gt 0:[0,10) and 0:[12,16); pred 0:[0,4) claims the first (IoU 0.4),
        # so pred 0:[5,14), whose best IoU (5/14) is that consumed segment,
        # claims the second (IoU 2/11) instead
        gt = [0] * 10 + [1] * 2 + [0] * 4
        pred = [0] * 4 + [1] + [0] * 9 + [1] * 2
        got = per_class_f1(pred, gt, 0.1, KEEP_BG)
        assert [(r["class_id"], r["tp"], r["fp"], r["fn"]) for r in got] == \
            [(0, 2, 0, 0), (1, 0, 2, 1)]
        assert f1_at_iou(pred, gt, 0.1, KEEP_BG) == f1_at_iou_ref(pred, gt, 0.1, False)

    def test_iou_tie_claims_earliest(self):
        # pred 0:[2,8) ties at IoU 0.25 with gt 0:[0,4) and 0:[6,10) and
        # takes the earlier, leaving the later one for pred 0:[9,12)
        gt = [0] * 4 + [1] * 2 + [0] * 4 + [1] * 2
        pred = [1] * 2 + [0] * 6 + [1] + [0] * 3
        got = per_class_f1(pred, gt, 0.1, KEEP_BG)
        assert got[0]["class_id"] == 0 and (got[0]["tp"], got[0]["fp"], got[0]["fn"]) == (2, 0, 0)
        assert f1_at_iou(pred, gt, 0.1, KEEP_BG) == f1_at_iou_ref(pred, gt, 0.1, False)

    def test_non_increasing_in_threshold(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            pred = random_timeline(rng)
            gt = random_timeline(rng)
            scores = [f1_at_iou(pred, gt, thr, KEEP_BG)
                      for thr in (0.1, 0.25, 0.5, 0.75, 1.0)]
            assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_matches_reference_matcher(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            pred = random_timeline(rng, n_classes=4, max_len=60)
            gt = random_timeline(rng, n_classes=4, max_len=60)
            thr = float(rng.choice([0.1, 0.25, 0.5, 0.9]))
            for cfg in (DEFAULT_EVAL, KEEP_BG):
                got = f1_at_iou(pred, gt, thr, cfg)
                want = f1_at_iou_ref(pred.tolist(), gt.tolist(), thr, cfg.ignore_background, BG)
                assert got == want

    def test_bad_threshold_rejected(self):
        # outside (0, 1] the overlap-pair scan would disagree with the oracle:
        # at 0 or below a prediction may claim a segment it does not overlap
        p, g = [0, 0, BG, BG], [BG, BG, 0, 0]
        for thr in (0.0, -1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"IoU threshold must be in \(0, 1\]"):
                f1_at_iou(p, g, thr)
            with pytest.raises(ValueError, match=r"IoU threshold must be in \(0, 1\]"):
                per_class_f1(p, g, thr)

    def test_invariant_under_temporal_scaling(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            pred = random_timeline(rng)
            gt = random_timeline(rng)
            assert f1_at_iou(np.repeat(pred, 4), np.repeat(gt, 4), 0.5) == \
                f1_at_iou(pred, gt, 0.5)


class TestPerClassF1:
    def test_rows_cover_both_sides(self):
        pred = [0] * 10 + [2] * 10
        gt = [0] * 10 + [1] * 10
        rows = per_class_f1(pred, gt, 0.5, KEEP_BG)
        assert [r["class_id"] for r in rows] == [0, 1, 2]

    def test_decomposition_matches_global(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            pred = random_timeline(rng, n_classes=4)
            gt = random_timeline(rng, n_classes=4)
            rows = per_class_f1(pred, gt, 0.5, KEEP_BG)
            tp = sum(r["tp"] for r in rows)
            fp = sum(r["fp"] for r in rows)
            fn = sum(r["fn"] for r in rows)
            denom = 2 * tp + fp + fn
            global_f1 = f1_at_iou(pred, gt, 0.5, KEEP_BG)
            assert global_f1 == (100.0 if denom == 0 else pytest.approx(100.0 * 2 * tp / denom))

    def test_perfect_class_scores_hundred(self):
        pred = [0] * 10 + [1] * 5
        gt = [0] * 10 + [2] * 5
        rows = {r["class_id"]: r for r in per_class_f1(pred, gt, 0.5, KEEP_BG)}
        assert rows[0]["f1"] == 100.0
        assert rows[1]["f1"] == 0.0
        assert rows[2]["f1"] == 0.0


class TestSegmentLevelF1:
    def test_perfect(self):
        assert segment_level_f1([0, 1, 2], [0, 1, 2]) == 100.0

    def test_macro_half(self):
        # class 0 perfect, class 1 never predicted
        assert segment_level_f1([0, 0, 2, 2], [0, 0, 1, 1]) == 50.0

    def test_single_class(self):
        assert segment_level_f1([4] * 6, [4] * 6) == 100.0

    def test_micro_pools_counts(self):
        pred = [0, 0, 1, 1, 1, 2]
        gt = [0, 1, 1, 1, 2, 2]
        # per prediction: tp for exact hits only
        tp = sum(p == g for p, g in zip(pred, gt))
        micro = segment_level_f1(pred, gt, micro=True)
        assert micro == pytest.approx(100.0 * 2 * tp / (2 * tp + (6 - tp) + (6 - tp)))

    def test_macro_ignores_classes_absent_from_gt(self):
        # spurious class 9 costs class-1 recall (fn) but adds no class-9 row
        assert segment_level_f1([9, 1], [1, 1]) == pytest.approx(200 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segment_level_f1([], [])


class TestEvaluate:
    def test_report_shape(self):
        pred = [0] * 10 + [BG] * 5 + [1] * 10
        gt = [0] * 10 + [BG] * 5 + [1] * 10
        rep = evaluate(pred, gt)
        assert rep["acc"] == 100.0
        assert rep["edit"] == 100.0
        assert set(rep["f1"]) == {"0.1", "0.25", "0.5"}
        assert all(v == 100.0 for v in rep["f1"].values())
        assert rep["per_class_iou"] == 0.5
        assert [r["class_id"] for r in rep["per_class"]] == [0, 1]

    def test_class_names_attached(self):
        rep = evaluate([0] * 6, [0] * 6, class_names={0: "attach wheel"})
        assert rep["per_class"][0]["name"] == "attach wheel"

    def test_thresholds_are_the_papers(self):
        assert IOU_THRESHOLDS == (0.1, 0.25, 0.5)
        rep = evaluate([0] * 6, [0] * 6, KEEP_BG)
        assert list(rep["f1"]) == ["0.1", "0.25", "0.5"]
        assert rep["per_class_iou"] == 0.5
        # the thresholds and the background class are constants, not settings
        for knob in ({"iou_thresholds": (0.5,)}, {"background_id": 0}):
            with pytest.raises(TypeError):
                EvalConfig(**knob)
