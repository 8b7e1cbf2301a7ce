import re

import numpy as np
import pytest

from actseg.cleaning import (SWEEP_KAPPAS, ClassStats, CleanerConfig, StreamCleaner,
                             clean_timeline, compute_class_stats, kappa_scores,
                             read_class_stats, sweep_kappa, threshold, write_class_stats)
from actseg.refstats import REFERENCE_CLASSES, class_name, reference_class_stats
from actseg.timeline import BACKGROUND_ID
from oracles import class_stats_ref


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
                                      ([-1], [5], [0]), ([0, 4], [4], [0, 1])])
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
        with pytest.raises(ValueError, match="background id 30 outside"):
            CleanerConfig(background_id=30)
        CleanerConfig(stats=stats_of({29: (20.0, 5.0)}), num_classes=30)


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

    def test_push_run_returns_ranges(self):
        # thresholds {A(0): 1, B(1): 5}: B's 2-frame run dies into A, and a
        # piece with the current run's label continues it
        cfg = CleanerConfig(kappa=1.0, stats=stats_of({0: (1.0, 0.0), 1: (5.0, 0.0)}))
        cleaner = StreamCleaner(cfg)
        assert cleaner.push_run(0, 4, 0) == [(0, 4, 0)]
        assert cleaner.push_run(4, 2, 1) == []
        assert cleaner.push_run(6, 3, 0) == [(4, 6, 0), (6, 9, 0)]
        assert cleaner.push_run(9, 3, 1) == []
        assert cleaner.push_run(12, 2, 1) == [(9, 14, 1)]
        assert cleaner.push_run(14, 1, 1) == [(14, 15, 1)]
        assert cleaner.flush_ranges() == []

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
        with pytest.raises(ValueError, match="run length"):
            cleaner.push_run(1, 0, 0)

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

    def test_label_range_validated(self):
        cleaner = StreamCleaner(CleanerConfig())
        with pytest.raises(ValueError, match="outside"):
            cleaner.push(0, 25)


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
        assert sweep_kappa([gt, gt], [gt, gt], cfg) == 1.0

    def test_constant_timeline_returns_lowest(self):
        t = [3] * 50
        assert sweep_kappa([t], [t], CleanerConfig(stats=stats_of({3: (10.0, 2.0)}))) == 1.0

    def test_crafted_fixture_selects_exact_knee(self):
        raw, gt, cfg = sweep_fixture()
        scores = kappa_scores([raw, raw], [gt, gt], cfg)
        for k in SWEEP_KAPPAS:
            assert scores[k] == (100.0 if k >= 1.5 else 0.0)
        assert sweep_kappa([raw, raw], [gt, gt], cfg) == 1.5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            sweep_kappa([], [], CleanerConfig())
        with pytest.raises(ValueError):
            sweep_kappa([[0, 0]], [], CleanerConfig())

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
        assert class_name(6) == "Put Down Spanner"

    def test_background_dominates(self):
        stats = reference_class_stats()
        bg = stats[BACKGROUND_ID]
        assert bg.count == max(s.count for s in stats.values())
        assert bg.name == "No Action"

    def test_std_ratio(self):
        stats = reference_class_stats(std_ratio=0.5)
        assert stats[6].std_frames == pytest.approx(7.2)

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

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"class_id": 0, "count": 5}]')
        with pytest.raises(ValueError, match="record 0"):
            read_class_stats(path)
