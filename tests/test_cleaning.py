import dataclasses
import re

import numpy as np
import pytest

from actseg.cleaning import (SWEEP_KAPPAS, ClassStats, CleanerConfig, StreamCleaner, best_kappa,
                             clean_timeline, compute_class_stats, kappa_scores,
                             read_class_stats, threshold, write_class_stats)
from actseg.refstats import REFERENCE_CLASSES, reference_class_stats
from actseg.timeline import BACKGROUND_ID
from oracles import class_stats_ref, clean_ref, kappa_scores_ref


def stats_of(by_id):
    """{class_id: (mean, std)} -> ClassStats dict with dummy counts."""
    return {cid: ClassStats(cid, 10, mean, std) for cid, (mean, std) in by_id.items()}


class TestClassStats:
    def test_population_std(self):
        st = compute_class_stats(([0, 10, 30], [10, 30, 60], [3, 3, 3]))[3]
        assert st.count == 3
        assert st.mean_frames == pytest.approx(20.0)
        assert st.std_frames == pytest.approx(8.165, abs=1e-3)

    def test_single_segment_degenerate(self):
        st = compute_class_stats(([5], [12], [0]))[0]
        assert (st.mean_frames, st.std_frames) == (7.0, 0.0)

    def test_classes_partitioned(self):
        stats = compute_class_stats(([0, 4, 10], [4, 10, 12], [0, 1, 0]))
        assert sorted(stats) == [0, 1]
        assert stats[0].count == 2 and stats[1].count == 1
        assert stats[0].mean_frames == pytest.approx(3.0)

    def test_matches_list_oracle_on_large_tables(self):
        # thousands of runs per table, so numpy's pairwise summation has
        # several blocks per class; the float bits must not move
        rng = np.random.default_rng(2000)
        for _ in range(20):
            n = int(rng.integers(1, 2001))
            starts = rng.integers(0, 10**6, n)
            ends = starts + np.maximum(1, rng.lognormal(3.0, 1.0, n).astype(np.int64))
            labels = rng.integers(0, 25, n)
            got = {cid: (cs.count, cs.mean_frames.hex(), cs.std_frames.hex())
                   for cid, cs in compute_class_stats((starts, ends, labels)).items()}
            ref = class_stats_ref(zip(labels.tolist(), starts.tolist(), ends.tolist()))
            want = {cid: (count, mean.hex(), std.hex()) for cid, (count, mean, std) in ref.items()}
            assert got == want

    @pytest.mark.parametrize("runs", [([5], [5], [0]), ([5], [4], [0]), ([0], [5], [-1]),
                                      ([-1], [5], [0]), ([0, 4], [4], [0, 1]),
                                      # the int64 cast made the first class 1, mean 2.0
                                      ([0.0], [2.7], [1.9]), ([0.5], [3], [1]),
                                      ([0], [2**63], [1])])
    def test_invalid_runs_rejected(self, runs):
        with pytest.raises(ValueError):
            compute_class_stats(runs)

    @pytest.mark.parametrize("mean, std", [(np.inf, 1.0), (np.nan, 1.0), (10.0, np.inf),
                                           (10.0, np.nan)])
    def test_non_finite_rejected(self, mean, std):
        with pytest.raises(ValueError, match="must be finite"):
            ClassStats(0, 1, mean, std)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassStats(0, 0, 10.0, 1.0)
        with pytest.raises(ValueError):
            ClassStats(0, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            ClassStats(0, 1, 10.0, -1.0)


class TestThreshold:
    def test_arithmetic(self):
        assert threshold(ClassStats(0, 5, 30.0, 10.0), 1.5) == 15

    def test_zero_std_ignores_kappa(self):
        st = ClassStats(6, 49, 14.4, 0.0)
        assert all(threshold(st, k) == 14 for k in SWEEP_KAPPAS)

    def test_clamps_at_one(self):
        assert threshold(ClassStats(0, 5, 2.0, 5.0), 1.0) == 1

    def test_kappa_std_overflowing_to_inf_clamps_at_one(self):
        # kappa*std is inf: floor(-inf) raised OverflowError
        assert threshold(ClassStats(0, 5, 30.0, 10.0), 1e308) == 1
        assert threshold(ClassStats(0, 5, 1e308, 1e308), 2.0) == 1

    def test_clamps_at_int64_max(self):
        # floor(1e300) does not fit the int64 threshold table; no run is that long
        st = ClassStats(0, 5, 1e300, 0.0)
        assert threshold(st, 1.4) == np.iinfo(np.int64).max
        assert CleanerConfig(stats={0: st}).thresholds()[0] == np.iinfo(np.int64).max

    def test_below_int64_max_unchanged(self):
        # the largest double below 2**63 floors to itself
        assert threshold(ClassStats(0, 5, 2.0 ** 63 - 1024, 0.0), 1.0) == 2 ** 63 - 1024

    def test_monotone_in_kappa(self):
        st = ClassStats(0, 5, 40.0, 7.0)
        ts = [threshold(st, k) for k in SWEEP_KAPPAS]
        assert all(b <= a for a, b in zip(ts, ts[1:]))


class TestCleanerConfig:
    def test_unknown_class_threshold_one(self):
        cfg = CleanerConfig(stats=stats_of({0: (20.0, 5.0)}))
        assert cfg.threshold_for(17) == 1
        assert cfg.threshold_for(0) == 13

    def test_max_threshold(self):
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({}), fps=15.0)
        assert cfg.max_threshold() == 1
        cfg = CleanerConfig(kappa=1.0, stats={0: ClassStats(0, 5, 30.0, 5.0),
                                              1: ClassStats(1, 5, 8.0, 1.0)})
        assert cfg.max_threshold() == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            CleanerConfig(kappa=0.0)
        with pytest.raises(ValueError):
            CleanerConfig(fps=-1.0)
        with pytest.raises(ValueError, match="^fps must be finite and > 0, got 0.0$"):
            CleanerConfig(fps=0.0)
        assert CleanerConfig(fps=0.5).fps == 0.5

    @pytest.mark.parametrize("field", ["kappa", "fps"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CleanerConfig(**{field: value})

    def test_label_space_validated(self):
        with pytest.raises(ValueError, match="stats class id 40 outside"):
            CleanerConfig(stats=stats_of({0: (20.0, 5.0), 40: (20.0, 5.0)}))
        with pytest.raises(ValueError, match="stats class id -1 outside"):
            CleanerConfig(stats=stats_of({-1: (20.0, 5.0)}))
        # background is class 24, so the label space holds at least 25 classes
        with pytest.raises(ValueError, match=r"background id 24 outside \[0, 10\)"):
            CleanerConfig(num_classes=10)
        with pytest.raises(ValueError, match=r"^background id 24 outside \[0, 24\)$"):
            CleanerConfig(num_classes=24)
        CleanerConfig(stats=stats_of({29: (20.0, 5.0)}), num_classes=30)
        with pytest.raises(TypeError):
            CleanerConfig(background_id=3)


def push_all(labels, cfg):
    cleaner = StreamCleaner(cfg)
    emitted = []
    for i, lab in enumerate(labels):
        emitted.extend(cleaner.push(i, lab))
    emitted.extend(cleaner.flush())
    return emitted


class TestStreamCleaner:
    def test_short_run_absorbed(self):
        # thresholds {A(0): 1, B(1): 5}
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (1.0, 0.0), 1: (5.0, 0.0)}))
        raw = [0, 0, 0, 0, 1, 1, 0, 0, 0, 0]
        assert clean_timeline(raw, cfg).tolist() == [0] * 10

    def test_clean_input_passes_through(self):
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (3.0, 0.0), 1: (3.0, 0.0)}))
        raw = [0, 0, 0, 1, 1, 1, 1, 0, 0, 0]
        assert clean_timeline(raw, cfg).tolist() == raw

    def test_leading_short_run_becomes_background(self):
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (5.0, 0.0), 1: (1.0, 0.0)}))
        raw = [0, 0, 1, 1, 1]
        assert clean_timeline(raw, cfg).tolist() == [BACKGROUND_ID, BACKGROUND_ID, 1, 1, 1]

    def test_unfinished_tail_merges_into_previous(self):
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (1.0, 0.0), 1: (5.0, 0.0)}))
        raw = [0, 0, 0, 1, 1]
        assert clean_timeline(raw, cfg).tolist() == [0, 0, 0, 0, 0]

    def test_one_frame_timeline(self):
        # one frame of class 3 is a run shorter than its reference threshold of 8
        cfg = CleanerConfig(stats=reference_class_stats())
        assert cfg.threshold_for(3) == 8
        assert clean_timeline([3], cfg).tolist() == clean_ref([3], cfg.threshold_for,
                                                              BACKGROUND_ID) == [BACKGROUND_ID]
        assert push_all([3], cfg) == [(0, BACKGROUND_ID)]

    def test_cascade_merging(self):
        # B and C both die into the confirmed A run, one after the other
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (1.0, 0.0), 1: (5.0, 0.0), 2: (5.0, 0.0)}))
        raw = [0, 1, 1, 2, 2, 0]
        assert clean_timeline(raw, cfg).tolist() == [0] * 6

    def test_emissions_in_order_and_exactly_once(self):
        rng = np.random.default_rng(8)
        cfg = CleanerConfig(kappa=1.2, stats=stats_of({0: (6.0, 2.0), 1: (4.0, 1.0), 24: (5.0, 1.0)}))
        for _ in range(50):
            labels = rng.choice([0, 1, 24], size=rng.integers(1, 120)).tolist()
            emitted = push_all(labels, cfg)
            frames = [f for f, _ in emitted]
            assert frames == list(range(len(labels)))

    def test_latency_bound(self):
        rng = np.random.default_rng(9)
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (8.0, 1.0), 1: (3.0, 0.5), 24: (4.0, 1.0)}))
        bound = cfg.max_threshold()
        for _ in range(30):
            labels = rng.choice([0, 1, 24], size=100).tolist()
            cleaner = StreamCleaner(cfg)
            for i, lab in enumerate(labels):
                for f, _ in cleaner.push(i, lab):
                    assert i - f <= bound
            for f, _ in cleaner.flush():
                assert len(labels) - 1 - f < bound

    def test_no_short_runs_in_output(self):
        rng = np.random.default_rng(10)
        cfg = CleanerConfig(kappa=1.3, stats=stats_of({0: (7.0, 2.0), 1: (5.0, 1.0), 2: (9.0, 3.0), 24: (6.0, 2.0)}))
        for _ in range(50):
            labels = rng.choice([0, 1, 2, 24], size=rng.integers(5, 200)).tolist()
            cleaned = clean_timeline(labels, cfg)
            runs = np.flatnonzero(np.diff(cleaned)) + 1
            bounds = np.concatenate(([0], runs, [cleaned.size]))
            for a, b in zip(bounds, bounds[1:]):
                assert b - a >= cfg.threshold_for(int(cleaned[a])) or \
                    (a == 0 and int(cleaned[a]) == BACKGROUND_ID)

    def test_batch_equals_stream(self):
        rng = np.random.default_rng(11)
        cfg = CleanerConfig(kappa=1.4, stats=stats_of({0: (6.0, 2.0), 3: (4.0, 1.0), 24: (5.0, 1.0)}))
        for _ in range(30):
            labels = rng.choice([0, 3, 24], size=rng.integers(1, 150)).tolist()
            batch = clean_timeline(labels, cfg)
            streamed = np.empty(len(labels), dtype=np.int64)
            for f, lab in push_all(labels, cfg):
                streamed[f] = lab
            assert np.array_equal(batch, streamed)

    def test_push_returns_finalized_frames(self):
        # thresholds {A(0): 1, B(1): 5}: B's 2-frame run dies into A and comes
        # out with the next A frame; B's 5-frame run comes out on its fifth frame
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (1.0, 0.0), 1: (5.0, 0.0)}))
        cleaner = StreamCleaner(cfg)
        raw = [0] * 4 + [1] * 2 + [0] * 3 + [1] * 6
        got = [cleaner.push(i, lab) for i, lab in enumerate(raw)]
        assert got[:4] == [[(i, 0)] for i in range(4)]
        assert got[4:7] == [[], [], [(4, 0), (5, 0), (6, 0)]]
        assert got[7:9] == [[(7, 0)], [(8, 0)]]
        assert got[9:] == [[], [], [], [], [(f, 1) for f in range(9, 14)], [(14, 1)]]
        assert cleaner.flush() == []

    def test_leading_background_run_passes_through(self):
        # a run of the background label keeps that label whether it survives
        # or not, so it comes out at once however high its threshold
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({BACKGROUND_ID: (5.0, 0.0), 1: (3.0, 0.0)}))
        cleaner = StreamCleaner(cfg)
        got = [cleaner.push(i, lab) for i, lab in enumerate([BACKGROUND_ID] * 2 + [1] * 3)]
        assert got == [[(0, BACKGROUND_ID)], [(1, BACKGROUND_ID)], [], [], [(2, 1), (3, 1), (4, 1)]]
        assert cleaner.flush() == []

    def test_previous_label_after_short_run_passes_through(self):
        # thresholds {A(0): 3, B(1): 5}: once B dies into A, the next A frame
        # continues the confirmed A run and finalizes at once
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (3.0, 0.0), 1: (5.0, 0.0)}))
        cleaner = StreamCleaner(cfg)
        got = [cleaner.push(i, lab) for i, lab in enumerate([0, 0, 0, 1, 1, 0])]
        assert got == [[], [], [(0, 0), (1, 0), (2, 0)], [], [], [(3, 0), (4, 0), (5, 0)]]

    def test_gap_rejected(self):
        cleaner = StreamCleaner(CleanerConfig())
        cleaner.push(0, 0)
        with pytest.raises(ValueError, match="out-of-order push: frame 2, expected 1"):
            cleaner.push(2, 0)

    def test_out_of_order_push_rejected(self):
        cleaner = StreamCleaner(CleanerConfig())
        cleaner.push(0, 0)
        with pytest.raises(ValueError, match="out-of-order"):
            cleaner.push(0, 0)

    def test_push_after_flush_rejected(self):
        cleaner = StreamCleaner(CleanerConfig())
        cleaner.flush()
        with pytest.raises(RuntimeError):
            cleaner.push(0, 0)

    @pytest.mark.parametrize("label, bad", [(2.7, "2.7 at frame 3"),
                                            (np.float64(3.5), "3.5 at frame 3"),
                                            (float("nan"), "nan at frame 3")])
    def test_label_that_is_not_whole_rejected(self, label, bad):
        # int() held 2.7 as class 2; clean_timeline rejects it the same way
        cleaner = StreamCleaner(CleanerConfig())
        for i in range(3):
            cleaner.push(i, 0)
        with pytest.raises(ValueError, match=f"^label {bad} is not a whole number$"):
            cleaner.push(3, label)
        with pytest.raises(ValueError, match=f"^label {bad} is not a whole number$"):
            clean_timeline([0, 0, 0, label], CleanerConfig())

    def test_whole_labels_of_any_type_accepted(self):
        cleaner = StreamCleaner(CleanerConfig())
        labels = [3, np.int64(3), np.uint8(3), 3.0, np.float32(3.0)]
        pairs = [p for i, lab in enumerate(labels) for p in cleaner.push(i, lab)]
        assert pairs == [(i, 3) for i in range(len(labels))]
        assert {type(label) for _, label in pairs} == {int}

    def test_label_range_validated(self):
        # both forms of the rule, at both ends of [0, num_classes): a negative
        # label would otherwise index the threshold table from its end
        cfg = CleanerConfig(stats=stats_of({0: (3.0, 0.0)}))
        for clean in (lambda label: StreamCleaner(cfg).push(0, label),
                      lambda label: clean_timeline([0, 0, 0, label, 0], cfg)):
            for label in (-1, cfg.num_classes):
                with pytest.raises(ValueError, match=f"^label {label} outside "):
                    clean(label)


def sweep_fixture():
    """Raw timelines whose genuine 5-frame events survive only for kappa >= 1.5.

    Event-class threshold floor(20 - 10k) drops to 5 exactly at k=1.5; the
    3-frame spike class (threshold >= 10 across the sweep) is always removed,
    and background (threshold <= 8) re-confirms between events.
    """
    stats = stats_of({0: (20.0, 10.0), 1: (30.0, 10.0), BACKGROUND_ID: (10.0, 2.0)})
    bg = BACKGROUND_ID
    gt, raw = [], []
    layout = [(bg, 20), (None, 3), (bg, 27), (0, 5), (bg, 20), (None, 3),
              (bg, 27), (0, 5), (bg, 20), (None, 3), (bg, 27)]
    for cid, n in layout:
        gt.extend([bg if cid is None else cid] * n)
        raw.extend([1 if cid is None else cid] * n)
    return raw, gt, CleanerConfig(stats=stats)


class TestSweep:
    def test_identity_ties_break_low(self):
        gt = [24] * 30 + [0] * 20 + [24] * 30
        cfg = CleanerConfig(stats={})
        assert best_kappa(kappa_scores([gt, gt], [gt, gt], cfg)) == 1.0

    def test_constant_timeline_returns_lowest(self):
        t = [3] * 50
        cfg = CleanerConfig(stats=stats_of({3: (10.0, 2.0)}))
        assert best_kappa(kappa_scores([t], [t], cfg)) == 1.0

    def test_crafted_fixture_selects_exact_knee(self):
        raw, gt, cfg = sweep_fixture()
        scores = kappa_scores([raw, raw], [gt, gt], cfg)
        for k in SWEEP_KAPPAS:
            assert scores[k] == (100.0 if k >= 1.5 else 0.0)
        assert best_kappa(scores) == 1.5

    def test_scores_equal_frame_by_frame_oracle(self):
        # two recordings of different lengths; class thresholds floor(mean - kappa*std)
        # move across the sweep, so each kappa cleans differently
        rng = np.random.default_rng(31)
        stats = {c: ClassStats(c, 5, float(rng.uniform(8, 30)), float(rng.uniform(2, 9)))
                 for c in (0, 1, 2, 3, BACKGROUND_ID)}
        cfg = CleanerConfig(stats=stats)
        raws, gts = [], []
        for n in (1500, 2300):
            gt = np.repeat(rng.choice([0, 1, 2, 3, BACKGROUND_ID], size=n),
                           rng.integers(5, 40, size=n))[:n]
            raw = gt.copy()
            for pos in rng.integers(0, n - 12, size=n // 25):
                raw[pos:pos + rng.integers(1, 12)] = rng.choice([0, 1, 2, 3, BACKGROUND_ID])
            raws.append(raw)
            gts.append(gt)
        scores = kappa_scores(raws, gts, cfg)
        want = kappa_scores_ref([r.tolist() for r in raws], [g.tolist() for g in gts],
                                SWEEP_KAPPAS,
                                lambda k, c: dataclasses.replace(cfg, kappa=k).threshold_for(c),
                                BACKGROUND_ID)
        assert scores == want
        assert len(set(scores.values())) > 3

    def test_pinned_runs_equal_frame_by_frame_oracle(self):
        # thresholds of 14-16 frames: after a surviving run of class 0, one-frame runs
        # all clean to 0, so every cleaned run has one label and they merge into one;
        # 40-frame runs alternating between two classes all survive, so none merges
        cfg = CleanerConfig(stats={c: ClassStats(c, 5, 18.0, 2.0) for c in (0, 1, 2, 3)})
        one_label = np.r_[[0] * 30, np.tile([1, 2, 3, 0], 40)]
        alternating = np.repeat(np.tile([0, 1], 10), 40)
        raws = [one_label, alternating, np.r_[alternating, one_label]]
        gts = [np.r_[[0] * 30, [1] * 160], alternating, np.r_[alternating, [0] * 190]]
        want = kappa_scores_ref([r.tolist() for r in raws], [g.tolist() for g in gts],
                                SWEEP_KAPPAS,
                                lambda k, c: dataclasses.replace(cfg, kappa=k).threshold_for(c),
                                BACKGROUND_ID)
        assert kappa_scores(raws, gts, cfg) == want

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch: 3 vs 2"):
            kappa_scores([[0, 0, 0]], [[0, 0]], CleanerConfig())

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kappa_scores([], [], CleanerConfig())
        with pytest.raises(ValueError):
            kappa_scores([[0, 0]], [], CleanerConfig())

    def test_sweep_grid(self):
        assert SWEEP_KAPPAS == (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)


class TestReferenceStats:
    def test_covers_all_classes(self):
        stats = reference_class_stats()
        assert sorted(stats) == list(range(25))
        assert all(stats[c].name for c in stats)

    def test_short_action_frames(self):
        st = reference_class_stats(fps=15.0)[6]
        assert st.mean_frames == pytest.approx(14.4)
        assert st.name == "Put Down Spanner"

    def test_background_dominates(self):
        stats = reference_class_stats()
        bg = stats[BACKGROUND_ID]
        assert bg.count == max(s.count for s in stats.values())
        assert bg.name == "No Action"

    def test_std_ratio(self):
        # a third of the mean, computed as mean * (1 / 3)
        stats = reference_class_stats()
        assert stats[6].std_frames == pytest.approx(4.8)
        assert all(s.std_frames == s.mean_frames * (1 / 3) for s in stats.values())

    def test_total_segment_count(self):
        assert sum(c[2] for c in REFERENCE_CLASSES) == sum(
            s.count for s in reference_class_stats().values())


class TestStatsIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stats.json"
        stats = {0: ClassStats(0, 5, 12.5, 3.25, "pick"),
                 24: ClassStats(24, 100, 56.25, 18.75, "idle")}
        write_class_stats(stats, path)
        back = read_class_stats(path)
        assert back == stats

    def test_reference_round_trip(self, tmp_path):
        path = tmp_path / "ref.json"
        stats = reference_class_stats()
        write_class_stats(stats, path)
        assert read_class_stats(path) == stats

    def test_written_bytes(self, tmp_path):
        # one record per class in class order, two-space indents, a final newline
        path = tmp_path / "stats.json"
        write_class_stats({5: ClassStats(5, 2, 9.5, 1.25, "pick"),
                           3: ClassStats(3, 4, 7.0, 0.0)}, path)
        assert path.read_text() == (
            '[\n  {\n    "class_id": 3,\n    "name": "",\n    "count": 4,\n'
            '    "mean_frames": 7.0,\n    "std_frames": 0.0\n  },\n'
            '  {\n    "class_id": 5,\n    "name": "pick",\n    "count": 2,\n'
            '    "mean_frames": 9.5,\n    "std_frames": 1.25\n  }\n]\n')

    @pytest.mark.parametrize("text", ["[]", "{}", '{"class_id": 3}', "3", "null"])
    def test_empty_or_non_array_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected a nonempty"
                                             " JSON array of class stats$"):
            read_class_stats(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_class_stats(path)

    @pytest.mark.parametrize("class_id, count", [("3.9", "2"), ("3", "2.7"), ("3.0", "2"),
                                                 ("true", "2"), ("3", "true"), ('"3"', "2"),
                                                 ("3", '"2"'), ("null", "2")])
    def test_class_id_and_count_must_be_json_integers(self, tmp_path, class_id, count):
        path = tmp_path / "bad.json"
        path.write_text(f'[{{"class_id": 0, "count": 1, "mean_frames": 9.0, "std_frames": 1.0}},'
                        f' {{"class_id": {class_id}, "count": {count}, "mean_frames": 9.0,'
                        f' "std_frames": 1.0}}]')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: record 1: "):
            read_class_stats(path)

    @pytest.mark.parametrize("field, value", [("mean_frames", '"1_2"'), ("mean_frames", '"12"'),
                                              ("std_frames", "true"), ("std_frames", "null"),
                                              ("mean_frames", "[12]"), ("name", "null"),
                                              ("name", "7"), ("name", "false")])
    def test_lengths_must_be_json_numbers_and_name_a_string(self, tmp_path, field, value):
        # float() read "1_2" as 12.0 and true as 1.0; str() read null as "None"
        record = {"class_id": 3, "count": 2, "mean_frames": 9.0, "std_frames": 1.0, "name": '"a"'}
        record[field] = value
        path = tmp_path / "bad.json"
        path.write_text("[{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}]")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: record 0: "):
            read_class_stats(path)

    def test_integer_lengths_and_missing_name_are_read(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text('[{"class_id": 3, "count": 2, "mean_frames": 9, "std_frames": 0}]')
        assert read_class_stats(path) == {3: ClassStats(3, 2, 9.0, 0.0, "")}

    def test_integer_mean_with_float_std_is_read(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text('[{"class_id": 3, "count": 2, "mean_frames": 9, "std_frames": 1.5}]')
        assert read_class_stats(path) == {3: ClassStats(3, 2, 9.0, 1.5, "")}

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"class_id": 0, "count": 5}]')
        with pytest.raises(ValueError, match="record 0"):
            read_class_stats(path)

    def test_repeated_class_id_names_both_records(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('[{"class_id": 3, "count": 2, "mean_frames": 9.0, "std_frames": 1.0},'
                        ' {"class_id": 5, "count": 2, "mean_frames": 9.0, "std_frames": 1.0},'
                        ' {"class_id": 3, "count": 4, "mean_frames": 7.0, "std_frames": 1.0}]')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: records 0 and 2 both"
                                             " have class_id 3$"):
            read_class_stats(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'[{"class_id": 3, "count": 2,\n "mean_frames": 9.0, "std_frames": 1.0,\n'
                         b' "name": "pick \xe9"}]\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: byte 0xe9 is not UTF-8$"):
            read_class_stats(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "stats.json"
        stats = {0: ClassStats(0, 5, 12.5, 3.25, "pick")}
        write_class_stats(stats, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_class_stats(path) == stats
