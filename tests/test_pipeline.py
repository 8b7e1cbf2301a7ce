import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from actseg import _kernels, pipeline
from actseg.classify import (LogitsBackend, LogitsReader, NoiseModel, make_synthetic_backend,
                             one_hot_logits, write_logits_binary)
from actseg.cleaning import ClassStats, CleanerConfig, clean_timeline
from actseg.pipeline import _CHUNK, PipelineConfig, StreamSession, run_file, run_offline, stream_all
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

    @pytest.mark.parametrize("t, tau", [(1, 1), (2, 1), (7, 3), (8, 8), (8, 500), (2, 2**62)])
    def test_raw_equals_clamped_gather_at_every_short_length(self, t, tau):
        # every seq_len up to a few rows past the window span (capped at 4 blocks), where
        # interior and edge rows meet, and the chunk edges; at (8, 500) and (2, 2**62)
        # every row is an edge row. Values of 0, 1 and 2**53 make a window's sum depend
        # on the order its slabs are added in, so the labels show a fold that is not
        # oldest first.
        span = min((t - 1) * tau, 4 * _CHUNK)
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

    def test_only_slabs_past_an_end_are_gathered(self, monkeypatch):
        # T=tau=8: the first block's slabs at offsets -24, -16, -8 and the last
        # block's at 8..32 pass an end of the table and gather; the rest are slices
        # of the buffer. The last block labels 1,056 rows, 1,024 and then 32.
        table = LogitsBackend(np.random.default_rng(5).normal(size=(3 * _CHUNK, 25))).table
        gathered = []
        fold_mean = _kernels.fold_mean
        monkeypatch.setattr(_kernels, "fold_mean", lambda slabs, out: gathered.append(
            sum(s.base is None for s in slabs)) or fold_mean(slabs, out))
        run_offline(PipelineConfig(), LogitsBackend(table))
        assert gathered == [3, 0, 0, 4]

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
        # each failed only when a window was labelled, the floats with an IndexError
        with pytest.raises(ValueError, match="^t must be an integer >= 1, got 8.0$"):
            PipelineConfig(t=8.0)
        with pytest.raises(ValueError, match="^tau must be an integer >= 1, got 2.5$"):
            PipelineConfig(tau=2.5)
        with pytest.raises(ValueError, match="t=8 and tau=4611686018427387904 "):
            PipelineConfig(tau=2**62)
        with pytest.raises(ValueError):
            PipelineConfig(fps=0.0)
        with pytest.raises(ValueError, match="^fps must be finite and > 0, got inf$"):
            PipelineConfig(fps=np.inf)
        assert PipelineConfig(fps=0.5).fps == 0.5


class TestRunFile:
    def test_equals_run_offline_with_cleaning(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 3 * _CHUNK + 17
        logits = one_hot_logits(block_timeline(rng, n)) + rng.normal(0, 0.4, (n, 25))
        logits = logits.astype(np.float32).astype(float)  # what the file holds
        path = tmp_path / "x.logits"
        write_logits_binary(path, logits)
        stats = {0: ClassStats(0, 5, 20.0, 4.0),
                 BACKGROUND_ID: ClassStats(BACKGROUND_ID, 5, 12.0, 3.0)}
        cfg = PipelineConfig(t=5, tau=3, cleaner=CleanerConfig(stats=stats))
        with LogitsReader(path) as reader:
            got = run_file(cfg, reader)
        want = run_offline(cfg, LogitsBackend(logits))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("k", [10, 30])
    def test_cleaner_of_another_label_space_rejected(self, tmp_path, k):
        # a 25-class cleaner would relabel 10-class logits as background, 24, a class
        # they lack
        cfg = PipelineConfig(cleaner=CleanerConfig())
        path = tmp_path / "x.logits"
        write_logits_binary(path, np.eye(k))
        message = f"label space has 25 classes, the logits have {k}"
        with LogitsReader(path) as reader, pytest.raises(ValueError, match=message):
            run_file(cfg, reader)
        with pytest.raises(ValueError, match=message):
            run_offline(cfg, LogitsBackend(np.eye(k)))

    def test_peak_holds_no_table(self, tmp_path):
        def stage_peak(n):
            # actseg run's logits stage: the file opened, then every window labelled
            path = tmp_path / f"{n}.logits"
            write_logits_binary(path, np.tile(np.eye(25), (n // 25, 1)))
            tracemalloc.start()
            try:
                with LogitsReader(path) as reader:
                    raw, cleaned = run_file(PipelineConfig(), reader)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, raw.nbytes + cleaned.nbytes

        n = 40_000
        peak, labels = stage_peak(n)
        peak2, labels2 = stage_peak(2 * n)
        # the float64 table is 8 MB here, its float32 file 4 MB. The stage holds
        # the labels, one read block of 65,536 float32 values, and a buffer of
        # _CHUNK rows plus the 56-row halo; the at most 4 slabs gathered at an end and
        # the sums add 5 arrays of _CHUNK rows
        rows = 8 * 25  # bytes per float64 row
        assert peak < labels + 4 * 65536 + rows * (_CHUNK + 56) + 5 * rows * _CHUNK + 65536
        assert peak2 - peak <= labels2 - labels + 16384


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

    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 3, 5, 8])
    def test_finished_early_equals_batch_of_the_frames_pushed(self, t, tau):
        # finish clamps every window at the last frame pushed, not the backend's last;
        # pinned: finished before any push, and before a push has labelled a frame
        rng = np.random.default_rng(10 * t + tau)
        cfg, backend = PipelineConfig(t=t, tau=tau), LogitsBackend(rng.normal(size=(300, 25)))
        assert stream_all(cfg, backend, 0).size == 0
        for seq_len in [*range(1, 300, 7), *range(1, prediction_lag(t, tau))]:
            want = run_offline(cfg, backend, seq_len)[0]
            assert stream_all(cfg, backend, seq_len).tolist() == want.tolist(), seq_len

    @pytest.mark.parametrize("k", [10, 30])
    def test_cleaner_of_another_label_space_rejected(self, k):
        # a 25-class cleaner would reject label 28 of 30-class logits only mid-stream,
        # after emitting labels
        with pytest.raises(ValueError, match=f"label space has 25 classes, the logits have {k}"):
            StreamSession(PipelineConfig(cleaner=CleanerConfig()), LogitsBackend(np.eye(k)))

    def test_out_of_order_push_rejected(self):
        backend = LogitsBackend(one_hot_logits([0] * 10))
        session = StreamSession(PipelineConfig(), backend)
        session.push(0)
        with pytest.raises(ValueError, match="out-of-order"):
            session.push(2)

    @pytest.mark.parametrize("pushed, index", [(0, 0.0), (100, 100.0), (100, np.float64(100.0)),
                                               (100, "100"), (0, False), (1, True), (1, np.True_)])
    def test_index_that_is_not_an_integer_rejected(self, pushed, index):
        # 0.0 == 0 let push(0.0) through, and push(100.0) failed in numpy's slicing;
        # operator.index(True) == 1 took push(False) and push(True) as frames 0 and 1
        session = StreamSession(PipelineConfig(), LogitsBackend(one_hot_logits([0] * 200)))
        for i in range(pushed):
            session.push(i)
        with pytest.raises(ValueError, match="^frame index must be an integer, got "):
            session.push(index)
        session.push(np.int64(pushed))  # a numpy integer is an index

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


class _Reads(np.ndarray):
    """A view of a session's table that logs the key of each read."""

    def __getitem__(self, key):
        self.log.append(key)
        return super().__getitem__(key).view(np.ndarray)


def observed_session(cfg, backend, n):
    """Push frames 0..n-1 through a session and finish it. Returns the key of each of
    its reads of the table, the mean row of each window it labels, oldest middle
    first, and the pairs emitted."""
    reads = backend.table.view(_Reads)
    reads.log = []
    session = StreamSession(cfg, SimpleNamespace(table=reads, num_frames=backend.num_frames,
                                                 num_classes=backend.num_classes))
    lag, means, pairs = prediction_lag(cfg.t, cfg.tau), [], []
    window_labels = pipeline._window_labels

    def spy(table, lo, hi, n, shifts, buf):
        labels = window_labels(table, lo, hi, n, shifts, buf)
        # its window means, oldest middle first: a push's are the first row of the
        # session's (T, C) scratch, and finish's buffer holds its rows and no more
        means.extend(buf[:hi - lo].copy() if buf is session._acc else buf.copy())
        return labels

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_window_labels", spy)
        for i in range(n):
            spied = len(means)
            pairs += session.push(i)
            # a push from frame lag on labels one middle; one that called no
            # _window_labels left its window's mean in _sum
            if i >= lag and len(means) == spied:
                means.append(session._sum.copy())
        pairs += session.finish()
    return reads.log, means, pairs


def window_frames(t, tau, n):
    """Each middle's window in a session of n frames, clamped at the newest frame pushed."""
    lag, offsets = prediction_lag(t, tau), window_offsets(t, tau)
    return np.array([np.clip(m + offsets, 0, min(m + lag, n - 1)) for m in range(n)])


def session_reads(t, tau, n):
    """What a session of n frames reads, in order. A push labelling middle m reads from
    frame (T-1)*tau on the strided slice of its window; before that, _window_labels'
    T slabs over its frames 0..m+lag, as finish reads them over the trailing middles
    and all n frames: a slice where a slab lies inside, else a gather of its frames
    clamped to them."""
    span, lag, shifts = (t - 1) * tau, prediction_lag(t, tau), window_offsets(t, tau).tolist()

    def slabs(lo, hi, n):
        return [slice(lo + s, hi + s) if lo + s >= 0 and hi + s <= n
                else np.clip(np.arange(lo + s, hi + s), 0, n - 1) for s in shifts]

    lo = max(0, n - lag)
    pushes = [[slice(m + lag - span, m + lag + 1, tau)] if m + lag >= span
              else slabs(m, m + 1, m + lag + 1) for m in range(lo)]
    return [key for keys in pushes for key in keys] + slabs(lo, n, n)


class TestStreamViewPath:
    """From frame (T-1)*tau on, a push folds the strided slice of its window; every
    clamped window, a first push's or the trailing middles' that finish labels in one
    call, goes through _window_labels, whose T slabs are slices or clamped gathers."""

    @pytest.mark.parametrize("softmax", [False, True], ids=["logits", "softmax"])
    @pytest.mark.parametrize("tau", [1, 2, 3, 8])
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
    def test_every_push_and_finish_equals_batch(self, t, tau, softmax):
        span, lag = (t - 1) * tau, prediction_lag(t, tau)
        rng = np.random.default_rng(100 * t + tau)
        # one frame short of a full window (no push folds one), exactly one, one past it
        for n in (span, span + 1, span + 2):
            if n < 1:
                continue
            # magnitudes 1e-8..1e8 make a window's sum depend on the order of its adds
            table = rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
            backend = LogitsBackend(table, softmax)
            cfg = PipelineConfig(t=t, tau=tau)
            raw, _ = run_offline(cfg, backend)
            keys, _, pairs = observed_session(cfg, backend, n)
            want = session_reads(t, tau, n)
            pushes = max(0, n - lag)
            # a full window's read is its strided slice, the only key with a step
            assert sum(isinstance(key, slice) and key.step is not None
                       for key in keys) == n - span, n
            assert len(keys) == (n - span) + t * (pushes - (n - span)) + t, n
            assert [key if isinstance(key, slice) else key.tolist() for key in keys] == \
                [w if isinstance(w, slice) else w.tolist() for w in want], n
            assert pairs == list(enumerate(raw.tolist())), n

    @pytest.mark.parametrize("c", [1, 6])
    @pytest.mark.parametrize("t, tau", [(3, 1), (3, 2), (8, 2), (13, 1)])
    def test_every_window_mean_is_the_oldest_first_fold(self, t, tau, c):
        # 1e16 + 1 rounds back to 1e16, so a window's sum depends on the order its
        # rows are added in: every push's and finish's mean must be the oldest-first
        # fold's bytes, at one class too, where no label could show it. The table is
        # drawn until a clamped window at each end sums differently newest first.
        n, span, lag = (t - 1) * tau + 12, (t - 1) * tau, prediction_lag(t, tau)
        idx = window_frames(t, tau, n)
        rng = np.random.default_rng(t * tau * c)
        for _ in range(1000):
            table = rng.choice([1e16, 1.0, -1e16], size=(n, c))
            want = gather_mean_ref(table, idx)
            differs = np.any(gather_mean_ref(table, idx[:, ::-1]) != want, axis=1)
            if differs[:span - lag].any() and differs[n - lag:].any():
                break
        else:
            pytest.fail("no draw adds a clamped window at each end order-sensitively")
        _, means, _ = observed_session(PipelineConfig(t=t, tau=tau), LogitsBackend(table), n)
        assert [row.tobytes() for row in means] == [row.tobytes() for row in want]

    def test_exact_ties_go_to_the_first_class(self):
        # T=2, tau=1: middle m's window is frames m and min(m + 1, 4). Every window's
        # top two classes tie; the last index wins under a reversed argmax: [3, 3, 3, 3, 2]
        table = np.array([[0, 1, 0, 1], [0, 0, 2, 1], [0, 1, 0, 1], [0, 2, 0, 2], [1, 0, 1, 0]],
                         dtype=np.float64)
        cfg, backend = PipelineConfig(t=2, tau=1), LogitsBackend(table)
        assert run_offline(cfg, backend)[0].tolist() == [2, 2, 1, 1, 0]
        assert stream_all(cfg, backend).tolist() == [2, 2, 1, 1, 0]

    def test_window_divided_and_added_oldest_first(self):
        # T=3, tau=1: push 2 labels middle 1 from frames 0, 1, 2 on the view path.
        # Class 0 sums to x; class 1, added oldest first, to y = nextafter(x), and
        # x/3 == y/3, so the means tie and class 0 wins. Without the divide y > x, and
        # added newest first class 1 passes y; either way class 1 would win.
        x = 1.636961687321454
        table = np.array([[x, 0.6066357757671799], [0.0, 0.7294965609839984],
                          [0.0, 0.30082935057027615]])
        y = np.nextafter(x, np.inf)
        col = table[:, 1].tolist()
        assert (col[0] + col[1]) + col[2] == y and x / 3 == y / 3
        assert ((col[2] + col[1]) + col[0]) / 3 > x / 3
        cfg, backend = PipelineConfig(t=3, tau=1), LogitsBackend(table)
        assert run_offline(cfg, backend)[0].tolist() == [0, 0, 1]
        assert stream_all(cfg, backend).tolist() == [0, 0, 1]


class TestWindowView:
    def test_single_frame_window_at_widest_stride(self):
        # T=1 reads no frame tau away, so no frame index near tau is formed to overflow
        cfg, backend = PipelineConfig(t=1, tau=2**62), LogitsBackend(np.eye(4))
        assert run_offline(cfg, backend)[0].tolist() == [0, 1, 2, 3]
        assert stream_all(cfg, backend).tolist() == [0, 1, 2, 3]  # a slice of step 2**62
