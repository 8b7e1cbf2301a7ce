import numpy as np
import pytest

from actseg.classify import LogitsBackend, NoiseModel, make_synthetic_backend, one_hot_logits
from actseg.cleaning import ClassStats, CleanerConfig, clean_timeline
from actseg.pipeline import (_CHUNK, PipelineConfig, StreamSession, _window_view, run_offline,
                             stream_all)
from actseg.sampling import inference_clip, prediction_lag, window_offsets
from actseg.timeline import BACKGROUND_ID, segments_from_timeline
from oracles import gather_mean_ref


def block_timeline(rng, n, classes=(0, 1, 2, BACKGROUND_ID)):
    out = []
    while len(out) < n:
        out.extend([int(rng.choice(classes))] * int(rng.integers(3, 40)))
    return np.array(out[:n], dtype=np.int64)


class TestOffline:
    def test_constant_input(self):
        backend = LogitsBackend(one_hot_logits([5] * 100))
        raw, cleaned = run_offline(PipelineConfig(), backend)
        assert np.array_equal(raw, np.full(100, 5))
        assert np.array_equal(cleaned, raw)

    def test_seq_len_one(self):
        backend = LogitsBackend(one_hot_logits([3] * 10))
        raw, cleaned = run_offline(PipelineConfig(), backend, seq_len=1)
        assert raw.tolist() == [3] and cleaned.tolist() == [3]

    def test_raw_matches_per_frame_windows(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(300, 25))
        backend = LogitsBackend(logits)
        cfg = PipelineConfig(t=8, tau=8)
        raw, _ = run_offline(cfg, backend)
        lag = prediction_lag(cfg.t, cfg.tau)
        for m in range(0, 300, 17):
            clip = inference_clip(min(m + lag, 299), cfg.t, cfg.tau, 300)
            idx = np.clip(np.asarray(clip.frames), 0, 299)
            # trailing middles: offline clamps the window around m directly
            pos = cfg.t - 1 - cfg.t // 2
            win = np.clip(m + (np.arange(cfg.t) - pos) * cfg.tau, 0, 299)
            want = int(np.argmax(logits[win].mean(axis=0)))
            assert raw[m] == want

    @pytest.mark.parametrize("seq_len", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_raw_equals_per_row_kernel_across_chunk_edges(self, seq_len):
        rng = np.random.default_rng(seq_len)
        backend = LogitsBackend(rng.normal(size=(seq_len + 50, 25)))
        cfg = PipelineConfig(t=8, tau=8)
        raw, _ = run_offline(cfg, backend, seq_len)
        offsets = window_offsets(cfg.t, cfg.tau)
        want = [int(gather_mean_ref(backend.table,
                                    np.clip(m + offsets, 0, seq_len - 1)[None, :])[0].argmax())
                for m in range(seq_len)]
        assert raw.tolist() == want

    @pytest.mark.parametrize("t, tau", [(1, 1), (2, 1), (7, 3), (8, 8), (8, 500)])
    def test_raw_equals_clamped_gather_at_every_short_length(self, t, tau):
        # every seq_len up to a few rows past the window span, where interior and edge
        # rows meet, and the chunk edges; at (8, 500) every row is an edge row. Values
        # of 0, 1 and 2**53 make a window's sum depend on the order its slabs are
        # added in, so the labels show a fold that is not oldest first.
        span = (t - 1) * tau
        lengths = [*range(1, span + 4), _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 3]
        rng = np.random.default_rng(t * 1000 + tau)
        table = rng.choice([0.0, 1.0, 2.0**53], size=(max(lengths) + 5, 4), p=[0.45, 0.45, 0.1])
        backend = LogitsBackend(table)
        offsets = window_offsets(t, tau)
        for seq_len in lengths:
            raw, _ = run_offline(PipelineConfig(t=t, tau=tau), backend, seq_len)
            idx = np.clip(np.arange(seq_len)[:, None] + offsets, 0, seq_len - 1)
            want = gather_mean_ref(backend.table, idx).argmax(axis=1)
            assert raw.tolist() == want.tolist(), seq_len
        newest_first = gather_mean_ref(backend.table, idx[:, ::-1]).argmax(axis=1)
        assert t < 3 or np.any(newest_first != want)  # two slabs add the same either way round

    def test_cleaner_applied(self):
        gt = np.array([BACKGROUND_ID] * 40 + [0] * 30 + [BACKGROUND_ID] * 40)
        backend = make_synthetic_backend(gt, NoiseModel(spike_rate=40.0, spike_len=2, seed=3))
        stats = {0: ClassStats(0, 5, 30.0, 5.0),
                 BACKGROUND_ID: ClassStats(BACKGROUND_ID, 5, 12.0, 3.0)}
        cfg = PipelineConfig(t=1, tau=1, cleaner=CleanerConfig(kappa=1.0, stats=stats))
        raw, cleaned = run_offline(cfg, backend)
        assert not np.array_equal(raw, cleaned)
        for s in segments_from_timeline(cleaned):
            thr = cfg.cleaner.threshold_for(s.class_id)
            assert s.length >= thr or (s.start == 0 and s.class_id == BACKGROUND_ID)

    def test_no_cleaner_returns_copy(self):
        backend = LogitsBackend(one_hot_logits([1] * 50))
        raw, cleaned = run_offline(PipelineConfig(), backend)
        assert raw is not cleaned
        cleaned[0] = 9
        assert raw[0] == 1

    def test_bad_seq_len(self):
        backend = LogitsBackend(one_hot_logits([1] * 50))
        with pytest.raises(ValueError):
            run_offline(PipelineConfig(), backend, seq_len=0)
        with pytest.raises(ValueError):
            run_offline(PipelineConfig(), backend, seq_len=51)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(t=0)
        with pytest.raises(ValueError):
            PipelineConfig(fps=0.0)


class TestStreamSession:
    def test_raw_latency_is_exact(self):
        rng = np.random.default_rng(1)
        backend = LogitsBackend(rng.normal(size=(200, 25)))
        cfg = PipelineConfig(t=8, tau=8)
        lag = prediction_lag(cfg.t, cfg.tau)
        assert lag == 32
        session = StreamSession(cfg, backend)
        # frame m's raw label comes out exactly when frame m+32 arrives
        for i in range(200):
            assert [m for m, _ in session.push(i)] == ([i - lag] if i >= lag else [])
        assert [m for m, _ in session.finish()] == list(range(200 - lag, 200))

    def test_emission_ordered_exactly_once(self):
        rng = np.random.default_rng(2)
        gt = block_timeline(rng, 400)
        backend = LogitsBackend(one_hot_logits(gt))
        stats = {c: ClassStats(c, 5, 6.0, 2.0) for c in (0, 1, 2, BACKGROUND_ID)}
        cfg = PipelineConfig(cleaner=CleanerConfig(kappa=1.0, stats=stats))
        session = StreamSession(cfg, backend)
        got = []
        for i in range(400):
            got.extend(session.push(i))
        got.extend(session.finish())
        assert [f for f, _ in got] == list(range(400))

    def test_stream_equals_batch_exactly(self):
        rng = np.random.default_rng(3)
        stats = {c: ClassStats(c, 5, 8.0, 2.0) for c in (0, 1, 2, BACKGROUND_ID)}
        for trial in range(20):
            n = int(rng.integers(50, 600))
            gt = block_timeline(rng, n)
            nm = NoiseModel(substitution_prob=0.05, spike_rate=8.0, spike_len=2,
                            seed=trial)
            backend = make_synthetic_backend(gt, nm)
            for cleaner in (None, CleanerConfig(kappa=1.2, stats=stats)):
                cfg = PipelineConfig(t=8, tau=8, cleaner=cleaner)
                raw, cleaned = run_offline(cfg, backend, n)
                streamed = stream_all(cfg, backend, n)
                assert cleaned.tobytes() == streamed.tobytes()

    def test_stream_equals_batch_across_shapes(self):
        rng = np.random.default_rng(4)
        noise_rng = np.random.default_rng(14)
        stats = {c: ClassStats(c, 5, 8.0, 2.0) for c in (0, 1, 2, BACKGROUND_ID)}
        # the last two span far past the recording: no array may be sized by (T-1)*tau
        for t, tau in [(1, 1), (2, 3), (3, 2), (8, 8), (5, 7), (16, 2), (2, 2**62), (8, 2**59)]:
            gt = block_timeline(rng, 257)
            backend = make_synthetic_backend(gt, NoiseModel(substitution_prob=0.1, seed=t))
            cfg = PipelineConfig(t=t, tau=tau)
            raw, _ = run_offline(cfg, backend)
            assert np.array_equal(stream_all(cfg, backend), raw)
            # real-valued logits: unlike one-hot ones, their window sums round
            logits = 2.0 * one_hot_logits(gt) + noise_rng.normal(0.0, 0.5, size=(gt.size, 25))
            backend = LogitsBackend(logits)
            for cleaner in (None, CleanerConfig(kappa=1.2, stats=stats)):
                cfg = PipelineConfig(t=t, tau=tau, cleaner=cleaner)
                _, cleaned = run_offline(cfg, backend)
                assert stream_all(cfg, backend).tobytes() == cleaned.tobytes()

    def test_out_of_order_push_rejected(self):
        backend = LogitsBackend(one_hot_logits([0] * 10))
        session = StreamSession(PipelineConfig(), backend)
        session.push(0)
        with pytest.raises(ValueError, match="out-of-order"):
            session.push(2)

    def test_push_past_backend_rejected(self):
        backend = LogitsBackend(one_hot_logits([0] * 3))
        session = StreamSession(PipelineConfig(t=1, tau=1), backend)
        for i in range(3):
            session.push(i)
        with pytest.raises(ValueError, match="outside backend range"):
            session.push(3)

    def test_finish_twice_rejected(self):
        backend = LogitsBackend(one_hot_logits([0] * 10))
        session = StreamSession(PipelineConfig(), backend)
        session.push(0)
        session.finish()
        with pytest.raises(RuntimeError):
            session.finish()
        with pytest.raises(RuntimeError):
            session.push(1)

    def test_empty_session_finish(self):
        backend = LogitsBackend(one_hot_logits([0] * 10))
        session = StreamSession(PipelineConfig(), backend)
        assert session.finish() == []

    def test_cleaned_stream_equals_offline_cleaning_of_raw(self):
        rng = np.random.default_rng(5)
        gt = block_timeline(rng, 350)
        backend = make_synthetic_backend(gt, NoiseModel(spike_rate=15.0, spike_len=2, seed=9))
        stats = {c: ClassStats(c, 5, 7.0, 2.0) for c in (0, 1, 2, BACKGROUND_ID)}
        ccfg = CleanerConfig(kappa=1.1, stats=stats)
        cfg = PipelineConfig(t=4, tau=2, cleaner=ccfg)
        raw, cleaned = run_offline(cfg, backend)
        assert np.array_equal(cleaned, clean_timeline(raw, ccfg))
        assert np.array_equal(stream_all(cfg, backend), cleaned)


class TestWindowView:
    @pytest.mark.parametrize("t, tau", [(1, 1), (2, 3), (8, 8), (5, 7)])
    def test_read_only_view_of_the_table(self, t, tau):
        rng = np.random.default_rng(t * 10 + tau)
        backend = LogitsBackend(rng.normal(size=(90, 25)))
        windows = _window_view(backend.table, t, tau)
        assert windows.shape == (t, 90 - (t - 1) * tau, 25)
        assert not windows.flags.writeable
        assert np.shares_memory(windows, backend.table)
        rows = windows.shape[1]
        for j in range(t):  # slab j, row r is table row r + j*tau
            assert windows[j].tobytes() == backend.table[j * tau:j * tau + rows].tobytes()

    @pytest.mark.parametrize("t, tau", [(2, 1), (8, 8), (3, 500)])
    def test_view_only_where_a_window_fits(self, t, tau):
        span = (t - 1) * tau
        table = LogitsBackend(np.ones((span + 1, 4))).table
        assert _window_view(table, t, tau).shape == (t, 1, 4)
        assert _window_view(table[:span], t, tau) is None

    def test_single_frame_window_at_widest_stride(self):
        # T=1 reads no frame tau away, so no tau * row-stride is formed to overflow
        table = LogitsBackend(np.eye(4)).table
        assert _window_view(table, 1, 2**62).shape == (1, 4, 4)
        raw, _ = run_offline(PipelineConfig(t=1, tau=2**62), LogitsBackend(np.eye(4)))
        assert raw.tolist() == [0, 1, 2, 3]
