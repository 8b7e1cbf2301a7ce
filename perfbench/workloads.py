"""The three benchmark workloads.

Each workload function takes a Context and returns an Outcome. The untraced
run times the program end to end; the traced run (ctx.trace) alternates
untraced and traced iterations of the same work, so that the per-layer
numbers and the tracing overhead come from one process.

- batch_2h: the offline analyst. `actseg run` on a 2 h, 25-class recording
  (logits binary + ground truth), then `actseg sweep-kappa` on a held-out
  raw/ground-truth pair, both through `cli.main` in-process. One pass is
  one run plus one sweep; passes repeat closed-loop.
- live_64: a plant streaming 64 cameras. 64 StreamSessions with cleaning
  at T=8, tau=8, kappa=1.4 and the reference stats. Open loop: tick k is
  due at t0 + k * TICK_MS and pushes one frame to every session, however
  late the previous tick finished.
- enhance_deploy: closed-loop `align.enhance` on (8,64,56,56) backbones
  with two (8,64,14,14) hand maps placed from the deployment crop.
"""

import gc
import json
import math
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
from tracer import Summary, Tracer

T, TAU, FPS, KAPPA = 8, 8, 15.0, 1.4
# Open-loop tick period of live_64. At 64 sessions the seed spends 3.5-4.5 ms
# of each 15 ms tick pushing: well below saturation, also when the host slows.
TICK_MS = 15.0
# Largest |enhance - float64 reference| accepted. A change of summation order
# (einsum vs matmul) moves values by ~1e-13; a wrong placement or weight moves
# them by ~1e-1.
ENHANCE_TOL = 1e-9
SETUP_REPS = 9
LIVE_WARM_PUSHES = 300

LAYERS = ("classify", "pipeline", "cleaning", "metrics", "timeline", "kernels", "align", "grid")


@dataclass
class Context:
    actseg: dict                  # module name -> imported actseg module
    oracles: object
    inputs: Path
    work: Path
    seconds: float
    trace: bool
    import_s: float               # median fresh-interpreter import time of actseg
    tracer: Tracer = field(default_factory=Tracer)


@dataclass
class Outcome:
    e2e: dict                     # end-to-end metric -> (value, unit)
    layers: dict                  # per-layer metric -> (value, unit); traced run only
    notes: dict                   # workload-specific figures for the report lines
    attempted: int
    failed: int


def _setup(ctx, build):
    """Import time plus the median of SETUP_REPS builds (objects and warm-up)."""
    times, objs = [], None
    for _ in range(SETUP_REPS):
        objs = None
        gc.collect()
        t0 = time.perf_counter()
        objs = build()
        times.append(time.perf_counter() - t0)
    return ctx.import_s + statistics.median(times), objs


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _e2e(setup_s, rss, samples_s, capacity):
    return {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
            "p50_ms": (float(np.median(samples_s)) * 1e3, "ms"),
            "capacity_streams": (capacity, "streams")}


def _capacity(frames_per_sample, samples_s):
    """15 fps cameras one core serves at the median cost of a sample."""
    return frames_per_sample / float(np.median(samples_s)) / FPS


def _percentiles_ms(samples_s):
    """Tail latencies: diagnostics, as they do not repeat within a tenth on a shared host."""
    return {f"p{q}_ms": (float(np.percentile(samples_s, q) * 1e3), "ms") for q in (75, 99)}


def _median(xs):
    return float(np.median(xs)) if len(xs) else 0.0


def _runs(labels):
    labels = np.asarray(labels)
    return np.concatenate(([0], np.flatnonzero(labels[1:] != labels[:-1]) + 1))


def _read_labels(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)[:, 1]


# ------------------------------------------------------------ batch_2h


def batch_2h(ctx):
    cli = ctx.actseg["cli"]
    d = ctx.inputs

    def argv(scored, heldout, out):
        out.mkdir(parents=True, exist_ok=True)
        run = ["--out", str(out / "run.json"), "run", "--logits", str(d / f"{scored}_logits.atsl"),
               "--gt", str(d / f"{scored}_gt.csv"), "--out-dir", str(out)]
        sweep = ["--out", str(out / "sweep.json"), "sweep-kappa",
                 "--raw", str(d / f"{heldout}_raw.csv"), "--gt", str(d / f"{heldout}_gt.csv")]
        return run, sweep

    def build():
        run, sweep = argv("warm", "warm", ctx.work / "warm")
        if cli.main(run) != 0 or cli.main(sweep) != 0:
            raise RuntimeError("actseg failed on the warm-up recording")

    setup_s, _ = _setup(ctx, build)
    out = ctx.work / "out"
    run_argv, sweep_argv = argv("run", "heldout", out)
    frames_per_pass = _read_labels(d / "run_gt.csv").size + _read_labels(d / "heldout_gt.csv").size

    run_s, sweep_s, results, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        rc_run = cli.main(run_argv)
        t1 = time.perf_counter()
        rc_sweep = cli.main(sweep_argv)
        t2 = time.perf_counter()
        run_s.append(t1 - t0)
        sweep_s.append(t2 - t1)
        results.append(_batch_result(out, rc_run, rc_sweep))
        if ctx.trace:
            gc.collect()
            traced.append(_batch_replay(ctx, ctx.work / "replay", len(traced)))
        if time.perf_counter() - start >= ctx.seconds:
            break
    rss = peak_rss_mb()

    # checks: every run's report against the oracles on its cleaned timeline,
    # every pass's outputs identical to the first pass's
    gt = _read_labels(d / "run_gt.csv")
    cleaned = _read_labels(out / "cleaned.csv")
    oracle = checks.oracle_scores(ctx.oracles, cleaned, gt)
    first = results[0]
    failed = 0
    for r in results:
        failed += (r["rc_run"] != 0 or r["cleaned_crc"] != first["cleaned_crc"]
                   or not checks.report_matches(r["report"], oracle))
        failed += r["rc_sweep"] != 0 or r["sweep"] != first["sweep"] or not r["sweep_ok"]
    attempted = 2 * len(results)
    for rep in traced:
        attempted += 1
        failed += (not checks.report_matches(rep["report"], oracle)
                   or not np.array_equal(rep["cleaned"], cleaned) or rep["sweep"] != first["sweep"])

    passes = np.add(run_s, sweep_s)
    notes = {"run_s": (_median(run_s), "s"), "sweep_s": (_median(sweep_s), "s"),
             "passes": (len(passes), "count"), "pass_p75_ms": _percentiles_ms(passes)["p75_ms"]}
    layers = _batch_layers(ctx, traced, passes) if ctx.trace else {}
    e2e = _e2e(setup_s, rss, passes, _capacity(frames_per_pass, passes))
    return Outcome(e2e, layers, notes, attempted, failed)


def _batch_result(out, rc_run, rc_sweep):
    res = {"rc_run": rc_run, "rc_sweep": rc_sweep, "cleaned_crc": None, "report": {},
           "sweep": None, "sweep_ok": False}
    if rc_run == 0:
        res["cleaned_crc"] = zlib.crc32((out / "cleaned.csv").read_bytes())
        res["report"] = json.loads((out / "report.json").read_text())
    if rc_sweep == 0:
        sweep = json.loads((out / "sweep.json").read_text())
        res["sweep"] = sweep
        scores = sweep.get("scores", {})
        res["sweep_ok"] = (len(scores) == 11 and f"{sweep.get('best_kappa')}" in scores
                           and all(0.0 <= v <= 100.0 for v in scores.values()))
    return res


def _batch_replay(ctx, out, iteration):
    """One traced pass: `actseg run` then `actseg sweep-kappa`, replayed
    through the layer functions cli.main calls, so each layer gets a span."""
    m = ctx.actseg
    classify, cleaning, metrics, pipeline = m["classify"], m["cleaning"], m["metrics"], m["pipeline"]
    refstats, timeline = m["refstats"], m["timeline"]
    tr, d = ctx.tracer, ctx.inputs
    out.mkdir(parents=True, exist_ok=True)
    stats = refstats.reference_class_stats(FPS)
    names = {cid: name for cid, name, _, _ in refstats.REFERENCE_CLASSES}
    load_logits = tr.wrap("classify.load_logits", classify.LogitsBackend.from_file)
    run_window = tr.wrap("pipeline.run_offline_window", pipeline.run_offline)
    clean = tr.wrap("cleaning.clean_timeline", cleaning.clean_timeline)
    read_csv = tr.wrap("timeline.read_timeline_csv", timeline.read_timeline_csv)
    write_csv = tr.wrap("timeline.write_timeline_csv", timeline.write_timeline_csv)
    kappa_scores = tr.wrap("cleaning.kappa_scores", cleaning.kappa_scores)
    inner = {(metrics, "segments_from_timeline"): "timeline.segments_from_timeline",
             (m["_kernels"], "levenshtein"): "kernels.levenshtein"}
    tr.iteration = iteration
    with tr.patched(inner):
        root = tr.begin(tr.name_id("pass"))
        backend = load_logits(d / "run_logits.atsl")
        raw, _ = run_window(pipeline.PipelineConfig(T, TAU, FPS, backend.num_classes, None),
                            backend)
        cleaned = clean(raw, cleaning.CleanerConfig(KAPPA, stats, FPS))
        gt = read_csv(d / "run_gt.csv")
        eval_cfg = metrics.EvalConfig(ignore_background=True)
        report = {"config": {"t": T, "tau": TAU, "fps": FPS, "frames": int(raw.size),
                             "kappa": KAPPA, "ignore_background": True}}
        for tag, labels in (("raw", raw), ("cleaned", cleaned)):
            parts = {(metrics, fn): f"metrics.{fn}_{tag}"
                     for fn in ("frame_accuracy", "edit_score", "f1_at_iou", "per_class_f1")}
            with tr.patched(parts):
                evaluate = tr.wrap(f"metrics.evaluate_{tag}", metrics.evaluate)
                report[tag] = evaluate(labels, gt, eval_cfg, names)
        write_csv(out / "raw.csv", raw)
        write_csv(out / "cleaned.csv", cleaned)
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")

        raws, gts = [read_csv(d / "heldout_raw.csv")], [read_csv(d / "heldout_gt.csv")]
        sweep_parts = {(cleaning, "clean_timeline"): "cleaning.sweep_clean",
                       (metrics, "f1_at_iou"): "metrics.sweep_f1"}
        with tr.patched(sweep_parts):
            scores = kappa_scores(raws, gts, cleaning.CleanerConfig(1.0, stats, FPS))
        tr.end(root)
    best = max(cleaning.SWEEP_KAPPAS, key=lambda k: (scores[k], -k))
    sweep = {"best_kappa": best, "scores": {f"{k:.1f}": v for k, v in scores.items()}}
    # a JSON round trip, as the CLI's output makes one
    return {"report": json.loads(json.dumps(report)), "raw": raw, "cleaned": cleaned, "gt": gt,
            "sweep": json.loads(json.dumps(sweep))}


def _batch_layers(ctx, traced, passes):
    s = Summary(ctx.tracer)
    named = ("classify.load_logits", "timeline.read_timeline_csv", "timeline.write_timeline_csv",
             "pipeline.run_offline_window", "cleaning.clean_timeline", "cleaning.sweep_clean",
             "metrics.sweep_f1", "metrics.evaluate_raw", "metrics.evaluate_cleaned",
             "metrics.f1_at_iou_raw", "metrics.per_class_f1_raw", "metrics.edit_score_raw",
             "kernels.levenshtein", "timeline.segments_from_timeline")
    layers = {f"{n}_s": (s.median_per_iteration(n), "s") for n in named}
    last = traced[-1]
    raw, cleaned, gt = last["raw"], last["cleaned"], last["gt"]
    raw_starts = _runs(raw)
    layers.update({
        "frames": (int(raw.size), "count"),
        "gt_segments": (int(_runs(gt).size), "count"),
        "raw_segments": (int(raw_starts.size), "count"),
        "cleaned_segments": (int(_runs(cleaned).size), "count"),
        "frames_relabeled": (int(np.count_nonzero(raw != cleaned)), "count"),
        "runs_relabeled": (int(np.count_nonzero(raw[raw_starts] != cleaned[raw_starts])), "count"),
    })
    layers.update(_common_layers(s, s.durations("pass"), passes))
    return layers


def _common_layers(summary, traced_s, untraced_s):
    out = {f"{layer}.self_s": (v, "s") for layer, v in summary.layer_self(LAYERS).items()}
    out.update(_percentiles_ms(untraced_s))
    out["tracing_overhead_s"] = (_median(traced_s) - _median(untraced_s), "s")
    out["unaccounted_share"] = (summary.unaccounted_share(), "share")
    return out


# ------------------------------------------------------------ live_64


def holdback_bound(t=T, tau=TAU, kappa=KAPPA):
    """floor(T/2)*tau + the largest class threshold floor(mean - kappa*std) of the
    reference stats (std = mean/3), from the generator's copy of the stats."""
    means = gen.CLASS_MEAN_S * FPS
    thresholds = [max(1, math.floor(mf - kappa * (mf / 3))) for mf in means]
    return (t // 2) * tau + max(thresholds)


def live_frames(seconds):
    """Frames per live_64 stream: one per tick of a run lasting `seconds`."""
    return max(2, int(round(seconds * 1e3 / TICK_MS)))


def _wait_until(due):
    # sleep while more than 2 ms remain, then spin, so a tick starts on time
    while True:
        left = due - time.perf_counter()
        if left <= 0:
            return
        if left > 0.002:
            time.sleep(left - 0.001)


def _tick_loop(ticks, period, push_all, log):
    """Run push_all(k) for tick k at t0 + k * period, late or not, and record
    the per-stream outputs it returns in log once the tick's time is taken.

    Returns per-tick latency (due -> last push returned), start lateness and
    service time (start -> last push returned)."""
    latency = np.empty(ticks)
    lateness = np.empty(ticks)
    service = np.empty(ticks)
    t0 = time.perf_counter() + period
    for k in range(ticks):
        due = t0 + k * period
        _wait_until(due)
        start = time.perf_counter()
        outputs = push_all(k)
        end = time.perf_counter()
        latency[k] = end - due
        lateness[k] = start - due
        service[k] = end - start
        log.add(k, outputs)
    return latency, lateness, service


def live_64(ctx):
    m = ctx.actseg
    classify, cleaning, pipeline, refstats = m["classify"], m["cleaning"], m["pipeline"], m["refstats"]
    table = np.load(ctx.inputs / "live_logits.npy")
    n_streams, n_frames = table.shape[:2]
    cleaner_cfg = cleaning.CleanerConfig(KAPPA, refstats.reference_class_stats(FPS), FPS)
    cfg = pipeline.PipelineConfig(T, TAU, FPS, table.shape[2], cleaner_cfg)
    raw_cfg = pipeline.PipelineConfig(T, TAU, FPS, table.shape[2], None)
    period = TICK_MS / 1e3
    bound = holdback_bound()

    def build():
        backends = [classify.LogitsBackend(table[s]) for s in range(n_streams)]
        sessions = [pipeline.StreamSession(cfg, b) for b in backends]
        warm = pipeline.StreamSession(cfg, backends[0])
        for i in range(min(n_frames, LIVE_WARM_PUSHES)):
            warm.push(i)
        warm.finish()
        return backends, sessions

    setup_s, (backends, sessions) = _setup(ctx, build)
    ticks = n_frames // 2 if ctx.trace else n_frames

    def push_all(k):
        return [session.push(k) for session in sessions]

    log = checks.StreamLog(n_streams, ticks)
    gc.collect()
    latency, lateness, service = _tick_loop(ticks, period, push_all, log)
    rss = peak_rss_mb()
    # what a session still holds at the end counts as emitted by the last push
    log.add(ticks - 1, [session.finish() for session in sessions])

    def failures(log):
        return sum(log.failures(s, pipeline.run_offline(cfg, backends[s], ticks)[1], bound)
                   for s in range(n_streams))

    failed, holdback = failures(log), log.holdback_max()
    attempted = n_streams * ticks
    tails = _percentiles_ms(latency)
    notes = {"tick_p50_ms": (float(np.median(latency) * 1e3), "ms"),
             "tick_p75_ms": tails["p75_ms"], "tick_p99_ms": tails["p99_ms"],
             # frames pushed / busy seconds / 15, counting every slow tick
             "busy_capacity_streams": (n_streams * ticks / service.sum() / FPS, "streams"),
             "busy_share": (service.sum() / (ticks * period), "share"),
             "tick_start_late_p50_ms": (float(np.median(lateness) * 1e3), "ms"),
             "late_ticks": (int(np.count_nonzero(latency > period)), "count"),
             "backlog_max_ticks": (_backlog_max(lateness, period), "count"),
             "holdback_max_frames": (holdback, "count"),
             "holdback_bound_frames": (bound, "count")}
    layers = {}
    if ctx.trace:
        tr = ctx.tracer
        push_id, clean_id, tick_id = (tr.name_id(n) for n in
                                      ("pipeline.StreamSession.push", "cleaning.StreamCleaner.push",
                                       "tick"))
        raw_sessions = [pipeline.StreamSession(raw_cfg, b) for b in backends]
        cleaners = [cleaning.StreamCleaner(cleaner_cfg) for _ in backends]

        def push_traced(k):
            tr.iteration = k
            root = tr.begin(tick_id)
            outputs = []
            for s in range(n_streams):
                i = tr.begin(push_id)
                raw = raw_sessions[s].push(k)
                tr.end(i)
                got = []
                for f, lab in raw:
                    i = tr.begin(clean_id)
                    got += cleaners[s].push(f, lab)
                    tr.end(i)
                outputs.append(got)
            tr.end(root)
            return outputs

        t_log = checks.StreamLog(n_streams, ticks)
        gc.collect()
        t_latency, t_lateness, _ = _tick_loop(ticks, period, push_traced, t_log)
        held = []
        for s in range(n_streams):
            tail = [p for f, lab in raw_sessions[s].finish() for p in cleaners[s].push(f, lab)]
            held.append(tail + cleaners[s].flush())
        t_log.add(ticks - 1, held)
        t_failed, t_holdback = failures(t_log), t_log.holdback_max()
        failed += t_failed
        attempted += n_streams * ticks
        summary = Summary(tr)
        layers = {
            "pipeline.StreamSession.push_us": (_median(summary.durations("pipeline.StreamSession.push")) * 1e6, "us"),
            "cleaning.StreamCleaner.push_us": (_median(summary.durations("cleaning.StreamCleaner.push")) * 1e6, "us"),
            "labels_out": (int(t_log.count.sum() + t_log.stray.sum()), "count"),
            "holdback_max_frames": (t_holdback, "count"),
            "holdback_bound_frames": (bound, "count"),
            "late_ticks": (int(np.count_nonzero(t_latency > period)), "count"),
            "backlog_max_ticks": (_backlog_max(t_lateness, period), "count"),
        }
        layers.update(_common_layers(summary, t_latency, latency))
    # capacity from the service time: latency also holds the wait behind a late tick
    e2e = _e2e(setup_s, rss, latency, _capacity(n_streams, service))
    return Outcome(e2e, layers, notes, attempted, failed)


def _backlog_max(lateness, period):
    """Most ticks already due, beyond the one starting, when a tick started."""
    return int(max(0, np.floor(lateness / period).max())) if lateness.size else 0


# ------------------------------------------------------------ enhance_deploy


def _geometry_dict(hand):
    x, y = hand["xy"] if hand["xy"] is not None else \
        (math.floor((gen.FRAME_W - gen.HAND) / 2 + 0.5), math.floor((gen.FRAME_H - gen.HAND) / 2 + 0.5))
    return dict(full_w=gen.FRAME_W, full_h=gen.FRAME_H, scale_short=gen.SCALE_SHORT,
                crop_size=gen.CROP, crop_off_x=gen.CROP_X, crop_off_y=gen.CROP_Y,
                hand_w=gen.HAND, hand_h=gen.HAND, hand_x=x, hand_y=y)


def enhance_deploy(ctx):
    align, grid = ctx.actseg["align"], ctx.actseg["grid"]
    arrays = dict(np.load(ctx.inputs / "enhance.npz"))
    specs = json.loads((ctx.inputs / "enhance_clips.json").read_text())
    mixer = {k: arrays[k] for k in ("weight", "bias", "bn_scale", "bn_shift", "bn_mean", "bn_var")}
    geoms = [(_geometry_dict(s["left"]), _geometry_dict(s["right"])) for s in specs]

    def geometry(hand):
        if hand["xy"] is None:
            return align.fallback_geometry(gen.FRAME_W, gen.FRAME_H, gen.SCALE_SHORT, gen.CROP,
                                           gen.CROP_X, gen.CROP_Y, gen.HAND, gen.HAND)
        return align.CropGeometry(gen.FRAME_W, gen.FRAME_H, gen.SCALE_SHORT, gen.CROP,
                                  gen.CROP_X, gen.CROP_Y, gen.HAND, gen.HAND, *hand["xy"])

    def build():
        weights = grid.MixerWeights(**mixer)
        backbones = [grid.FeatureMap(b) for b in arrays["backbone"]]
        hands = [grid.FeatureMap(h) for h in arrays["hands"]]
        clips = [(backbones[s["backbone"]], hands[s["left"]["map"]], hands[s["right"]["map"]],
                  geometry(s["left"]), geometry(s["right"])) for s in specs]
        align.enhance(*clips[0], weights)
        return weights, clips

    setup_s, (weights, clips) = _setup(ctx, build)

    def reference(j):
        spec, (gl, gr) = specs[j], geoms[j]
        return checks.enhance_reference(arrays["backbone"][spec["backbone"]],
                                        arrays["hands"][spec["left"]["map"]],
                                        arrays["hands"][spec["right"]["map"]], gl, gr, mixer)

    tr = ctx.tracer
    targets = {(align, "place_hand_features"): "align.place_hand_features",
               (align, "resize_nearest"): "grid.resize_nearest",
               (align, "zero_pad_place"): "grid.zero_pad_place",
               (align, "concat_channels"): "grid.concat_channels",
               (align, "mix_1x1"): "grid.mix_1x1",
               (align, "residual_norm"): "grid.residual_norm",
               (ctx.actseg["_kernels"], "mix_1x1"): "kernels.mix_1x1",
               (ctx.actseg["_kernels"], "bn_residual"): "kernels.bn_residual",
               (ctx.actseg["_kernels"], "resize_nearest"): "kernels.resize_nearest"}
    traced_enhance = tr.wrap("align.enhance", align.enhance)
    clip_id = tr.name_id("clip")
    times, shares, failed, attempted = [], [], 0, 0
    gc.collect()
    start = time.perf_counter()
    j = 0
    while True:
        c = j % len(clips)
        t0 = time.perf_counter()
        out = align.enhance(*clips[c], weights)
        times.append(time.perf_counter() - t0)
        outs = [out]
        if ctx.trace:
            tr.iteration = j
            with tr.patched(targets):
                root = tr.begin(clip_id)
                outs.append(traced_enhance(*clips[c], weights))
                tr.end(root)
            shares += [checks.covered_share(g, out.h, out.w) for g in geoms[c]]
        ref = reference(c)
        for o in outs:
            attempted += 1
            failed += not checks.enhance_matches(o.values, ref, ENHANCE_TOL)
        del out, outs, ref
        j += 1
        if time.perf_counter() - start >= ctx.seconds:
            break
    rss = peak_rss_mb()

    # a zero mixer must return the backbone bit for bit
    zero = grid.MixerWeights.zero(weights.c_out, weights.c_in)
    f = clips[0][0]
    identity = align.enhance(*clips[0], zero)
    attempted += 1
    failed += identity.values.tobytes() != f.values.tobytes()

    notes = {"clip_p50_ms": (float(np.median(times) * 1e3), "ms"),
             "clip_p75_ms": _percentiles_ms(times)["p75_ms"], "clips": (len(times), "count")}
    layers = {}
    if ctx.trace:
        s = Summary(tr)
        layers = {f"{n}_ms": (s.median_per_iteration(n) * 1e3, "ms")
                  for n in ("align.place_hand_features", "grid.concat_channels", "grid.mix_1x1",
                            "grid.residual_norm")}
        t, c_out, c_in, h, w = f.t, weights.c_out, weights.c_in, f.h, f.w
        layers["grid.mix_1x1_gflops"] = (2.0 * t * c_out * c_in * h * w / 1e9, "GFLOP")
        layers["grid.mix_1x1_mbytes"] = (8.0 * (t * c_in * h * w + t * c_out * h * w
                                                + c_out * c_in + c_out) / 1e6, "MB")
        layers["align.footprint_share"] = (float(np.mean(shares)), "share")
        layers.update(_common_layers(s, s.durations("clip"), times))
    return Outcome(_e2e(setup_s, rss, times, _capacity(1, times)), layers, notes, attempted, failed)


WORKLOADS = {"batch_2h": batch_2h, "live_64": live_64, "enhance_deploy": enhance_deploy}
