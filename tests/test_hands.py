import numpy as np
import pytest

from actseg.hands import (HandLossConfig, HandObservation, HandTarget, _read_rows, decode,
                          f1_at_threshold, flatten_slots, hand_loss, hand_loss_grad)
from oracles import central_diff, write_hands_ref


def obs(p, x, y):
    return HandObservation(p, x, y)


def tgt(present, x=0.0, y=0.0):
    return HandTarget(present, x, y)


class TestTypes:
    def test_decode_splits_slots(self):
        a, b = decode([0.9, 0.1, 0.2, 0.3, 0.4, 0.5])
        assert (a.p, a.x, a.y) == (0.9, 0.1, 0.2)
        assert (b.p, b.x, b.y) == (0.3, 0.4, 0.5)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decode([0.1] * 5)

    def test_observation_range_checked(self):
        with pytest.raises(ValueError):
            HandObservation(1.2, 0.0, 0.0)
        with pytest.raises(ValueError):
            HandObservation(0.5, -0.1, 0.0)

    def test_target_presence_flag_checked(self):
        with pytest.raises(ValueError):
            HandTarget(2, 0.0, 0.0)

    @pytest.mark.parametrize("x, y", [(np.nan, 0.5), (0.5, np.inf), (-7.0, 0.5), (0.5, 1.01)])
    def test_present_target_position_checked(self, x, y):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            HandTarget(1, x, y)
        assert HandTarget(0, x, y).present == 0  # an absent hand's position is free

    def test_lam_must_be_positive(self):
        with pytest.raises(ValueError):
            HandLossConfig(lam=0.0)


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        gt = (tgt(1, 0.3, 0.4), tgt(1, 0.6, 0.7))
        pred = [1.0, 0.3, 0.4, 1.0, 0.6, 0.7]
        assert hand_loss(pred, gt) == 0.0

    def test_probability_residual_weighting(self):
        # only the presence term fires: 0.1 * (1 - 0.5)^2
        gt = (tgt(1, 0.3, 0.4), tgt(0))
        pred = [0.5, 0.3, 0.4, 0.0, 0.0, 0.0]
        assert hand_loss(pred, gt) == pytest.approx(0.025, abs=1e-15)

    def test_absent_hand_positions_masked(self):
        gt = (tgt(0), tgt(0))
        for x in np.linspace(0.0, 1.0, 11):
            assert hand_loss([0.0, x, 1.0 - x, 0.0, x, x], gt) == 0.0

    def test_absent_position_invariance_with_nonzero_p(self):
        gt = (tgt(0), tgt(1, 0.5, 0.5))
        base = hand_loss([0.4, 0.0, 0.0, 0.9, 0.5, 0.5], gt)
        for x in np.linspace(0.0, 1.0, 7):
            assert hand_loss([0.4, x, x, 0.9, 0.5, 0.5], gt) == base

    def test_nonnegative_and_zero_only_at_fit(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            pred = rng.uniform(size=6)
            gt = (tgt(int(rng.integers(2)), *rng.uniform(size=2)),
                  tgt(int(rng.integers(2)), *rng.uniform(size=2)))
            val = hand_loss(pred, gt)
            assert val >= 0.0
            if val == 0.0:
                for i, t in enumerate(gt):
                    assert pred[3 * i] == t.present
                    if t.present:
                        assert pred[3 * i + 1] == t.x and pred[3 * i + 2] == t.y

    def test_custom_lambda_scales_presence_term(self):
        gt = (tgt(1, 0.3, 0.4), tgt(0))
        pred = [0.5, 0.3, 0.4, 0.0, 0.0, 0.0]
        assert hand_loss(pred, gt, HandLossConfig(lam=0.5)) == pytest.approx(0.125)


class TestGradient:
    def test_zero_at_perfect_fit(self):
        gt = (tgt(1, 0.3, 0.4), tgt(1, 0.6, 0.7))
        g = hand_loss_grad([1.0, 0.3, 0.4, 1.0, 0.6, 0.7], gt)
        assert np.array_equal(g, np.zeros(6))

    def test_absent_hand_position_components_exactly_zero(self):
        gt = (tgt(0), tgt(1, 0.2, 0.9))
        g = hand_loss_grad([0.7, 0.1, 0.8, 0.3, 0.5, 0.5], gt)
        assert g[1] == 0.0 and g[2] == 0.0
        assert g[4] != 0.0 and g[5] != 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        cfg = HandLossConfig()
        for _ in range(200):
            pred = rng.uniform(0.05, 0.95, size=6)
            gt = (tgt(int(rng.integers(2)), *rng.uniform(size=2)),
                  tgt(int(rng.integers(2)), *rng.uniform(size=2)))
            analytic = hand_loss_grad(pred, gt, cfg)
            fd = central_diff(lambda v: hand_loss(v, gt, cfg), pred, 1e-6)
            for k in range(6):
                scale = max(1.0, abs(analytic[k]), abs(fd[k]))
                assert abs(analytic[k] - fd[k]) <= 1e-6 * scale


class TestF1:
    def test_all_exact_is_hundred(self):
        gts = [tgt(1, 0.2, 0.2), tgt(1, 0.8, 0.8)]
        preds = [obs(1.0, 0.2, 0.2), obs(1.0, 0.8, 0.8)]
        assert f1_at_threshold(preds, gts, 0.05) == 100.0

    def test_mislocated_counts_against_both_sides(self):
        # distance 0.15 > 0.1: the detection is spurious and the hand unfound
        gts = [tgt(1, 0.5, 0.5)]
        preds = [obs(1.0, 0.65, 0.5)]
        assert f1_at_threshold(preds, gts, 0.1) == 0.0
        assert f1_at_threshold(preds, gts, 0.2) == 100.0

    def test_strict_probability_gate(self):
        gts = [tgt(1, 0.5, 0.5)]
        assert f1_at_threshold([obs(0.5, 0.5, 0.5)], gts, 0.1) == 0.0
        assert f1_at_threshold([obs(0.5 + 1e-9, 0.5, 0.5)], gts, 0.1) == 100.0

    def test_strict_distance_gate(self):
        # 0.75 - 0.5 is exactly representable, so the boundary is sharp
        gts = [tgt(1, 0.5, 0.5)]
        assert f1_at_threshold([obs(1.0, 0.75, 0.5)], gts, 0.25) == 0.0
        assert f1_at_threshold([obs(1.0, 0.75, 0.5)], gts, 0.25 + 1e-9) == 100.0

    @pytest.mark.parametrize("t_l", [float("nan"), 0.0, -1.0, float("inf")])
    def test_threshold_must_be_finite_and_positive(self, t_l):
        with pytest.raises(ValueError, match=f"t_l must be finite and > 0, got {t_l}"):
            f1_at_threshold([obs(1.0, 0.5, 0.5)], [tgt(1, 0.5, 0.5)], t_l)

    def test_absent_and_not_predicted_is_vacuous(self):
        assert f1_at_threshold([obs(0.0, 0.5, 0.5)], [tgt(0)], 0.1) == 100.0

    def test_false_positive_on_absent_hand(self):
        gts = [tgt(0), tgt(1, 0.5, 0.5)]
        preds = [obs(0.9, 0.1, 0.1), obs(1.0, 0.5, 0.5)]
        # TP=1, FP=1: F1 = 2/(2+1)
        assert f1_at_threshold(preds, gts, 0.1) == pytest.approx(100.0 * 2 / 3)

    def test_mixed_fixture(self):
        gts = [tgt(1, 0.2, 0.2), tgt(1, 0.5, 0.5), tgt(1, 0.9, 0.9), tgt(0), tgt(0)]
        preds = [
            obs(1.0, 0.2, 0.2),    # TP
            obs(1.0, 0.8, 0.5),    # mislocated: FP + FN
            obs(0.2, 0.9, 0.9),    # missed: FN
            obs(0.0, 0.0, 0.0),    # true negative
            obs(0.9, 0.3, 0.3),    # FP
        ]
        # TP=1, FP=2, FN=2 -> 2/(2+4)
        assert f1_at_threshold(preds, gts, 0.1) == pytest.approx(100.0 / 3)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        preds, gts = [], []
        for _ in range(200):
            preds.append(obs(*rng.uniform(size=3)))
            gts.append(tgt(int(rng.integers(2)), *rng.uniform(size=2)))
        prev = -1.0
        for t_l in np.linspace(0.01, 1.5, 40):
            cur = f1_at_threshold(preds, gts, float(t_l))
            assert cur >= prev - 1e-12
            prev = cur

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            f1_at_threshold([obs(1.0, 0.5, 0.5)], [], 0.1)


class TestIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "hands.csv"
        rows = [
            (0, (0.9, 0.25, 0.5), (0.1, 0.0, 0.0)),
            (1, (0.8, 0.75, 0.5), (0.7, 0.5, 0.25)),
        ]
        write_hands_ref(path, rows)
        preds = _read_rows(path, HandObservation)
        assert len(preds) == 2
        assert preds[0][0] == 0
        assert preds[0][1] == obs(0.9, 0.25, 0.5)
        assert preds[1][2] == obs(0.7, 0.5, 0.25)

    def test_targets_round_trip(self, tmp_path):
        path = tmp_path / "gt.csv"
        write_hands_ref(path, [(0, (1, 0.5, 0.5), (0, 0.0, 0.0))])
        targets = _read_rows(path, HandTarget)
        assert targets[0][1] == tgt(1, 0.5, 0.5)
        assert targets[0][2].present == 0

    def test_flatten_interleaves(self, tmp_path):
        path = tmp_path / "hands.csv"
        write_hands_ref(path, [(0, (0.9, 0.1, 0.1), (0.8, 0.2, 0.2)),
                               (1, (0.7, 0.3, 0.3), (0.6, 0.4, 0.4))])
        flat = flatten_slots(_read_rows(path, HandObservation))
        assert [o.p for o in flat] == [0.9, 0.8, 0.7, 0.6]

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,p1,x1,y1,p2,x2,y2\n0,0.5,0.5\n")
        with pytest.raises(ValueError, match="7 columns"):
            _read_rows(path, HandObservation)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0.5,0.5,0.5,oops,0.5,0.5\n")
        with pytest.raises(ValueError, match=":1:"):
            _read_rows(path, HandObservation)
