"""Command-line front end: statistics, end-to-end runs, kappa sweeps,
placement demos, hand evaluation, and synthetic data generation.

Exit codes: 0 success, 1 usage error, 2 data error. A plain-text key=value
config file (fps, t, tau, kappa, ignore_background) supplies defaults;
explicit flags override it.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import _keyvalue, align, classify, cleaning, hands, metrics, pipeline, refstats, timeline
from .grid import FeatureMap


class _Parser(argparse.ArgumentParser):
    # no prefix matching: it would read `run --out r.json` as --out-dir; subparsers
    # are built from this class too
    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    # argparse exits with 2 on usage errors; the contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_CONFIG_KEYS = {"fps": _keyvalue.finite_float, "t": _keyvalue.integer, "tau": _keyvalue.integer,
                "kappa": _keyvalue.finite_float, "ignore_background": _keyvalue.boolean}


# each default is written once, where the library defines it
_DEFAULTS = {"fps": timeline.FPS, "t": pipeline.PipelineConfig.t,
             "tau": pipeline.PipelineConfig.tau, "kappa": cleaning.CleanerConfig.kappa,
             "ignore_background": metrics.EvalConfig.ignore_background}


def _resolve(args, key):
    """Flag value if given, else config-file value, else the library default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return args.config_values.get(key, _DEFAULTS[key])


def _emit(args, payload) -> None:
    text = json.dumps(payload, indent=2 if args.pretty else None)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _check_frames(path, frames, other_path, other_frames) -> None:
    if frames != other_frames:
        raise ValueError(f"{path} has {frames} frames, but {other_path} has {other_frames}")


def _cleaner(args, kappa, fps, num_classes):
    """The cleaner of --stats (the reference stats if omitted); warns of classes without stats."""
    stats = (cleaning.read_class_stats(args.stats) if args.stats
             else refstats.reference_class_stats(fps))
    cfg = cleaning.CleanerConfig(kappa, stats, fps, num_classes=num_classes)
    uncovered = sorted(set(range(num_classes)) - set(stats))
    if uncovered:
        print(f"actseg: warning: no length stats for classes {', '.join(map(str, uncovered))};"
              " their runs are never cleaned", file=sys.stderr)
    return cfg


# ---------------------------------------------------------------- commands


def _cmd_stats(args) -> int:
    fps = _resolve(args, "fps")
    if not 0 < fps < np.inf:
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    stats = cleaning.compute_class_stats(timeline.read_segments_csv(args.segments))
    records = [
        {"class_id": cid, "name": f"class_{cid}", "count": s.count,
         "mean_frames": s.mean_frames, "std_frames": s.std_frames,
         "mean_seconds": s.mean_frames / fps}
        for cid, s in sorted(stats.items())
    ]
    for r in records:  # json.dumps would write an overflowed mean as Infinity, which is not JSON
        if r["mean_seconds"] == np.inf:
            raise ValueError(f"fps {fps} (--fps or config) is too small: class {r['class_id']}'s"
                             f" mean of {r['mean_frames']} frames overflows mean_seconds")
    _emit(args, records)
    return 0


def _cmd_run(args) -> int:
    if args.no_clean and args.kappa is not None:
        raise UsageError("--kappa conflicts with --no-clean")
    fps = _resolve(args, "fps")
    t = _resolve(args, "t")
    tau = _resolve(args, "tau")
    kappa = _resolve(args, "kappa")
    ignore_bg = not args.include_background and _resolve(args, "ignore_background")

    with classify.LogitsReader(args.logits, args.softmax_average) as logits:
        num_classes = logits.shape[1]
        cleaner = None
        if not args.no_clean:
            if num_classes <= timeline.BACKGROUND_ID:
                raise ValueError(f"{args.logits}: {num_classes} classes, but cleaning needs"
                                 f" background class {timeline.BACKGROUND_ID}; pass --no-clean"
                                 " to run without it")
            cleaner = _cleaner(args, kappa, fps, num_classes)
        cfg = pipeline.PipelineConfig(t, tau, fps, num_classes, cleaner)
        raw, cleaned = pipeline.run_file(cfg, logits)

    report = {"config": {"t": t, "tau": tau, "fps": fps, "frames": int(raw.size),
                         "kappa": None if args.no_clean else kappa,
                         "ignore_background": ignore_bg}}
    if args.gt:
        gt = timeline.read_timeline_csv(args.gt)
        _check_frames(args.gt, gt.size, args.logits, raw.size)
        eval_cfg = metrics.EvalConfig(ignore_background=ignore_bg)
        names = {cid: name for cid, name, _, _ in refstats.REFERENCE_CLASSES} \
            if num_classes == timeline.NUM_CLASSES else None
        report["raw"] = metrics.evaluate(raw, gt, eval_cfg, names)
        report["cleaned"] = metrics.evaluate(cleaned, gt, eval_cfg, names)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        timeline.write_timeline_csv(out_dir / "raw.csv", raw)
        timeline.write_timeline_csv(out_dir / "cleaned.csv", cleaned)
        (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    _emit(args, report)
    return 0


def _cmd_sweep_kappa(args) -> int:
    fps = _resolve(args, "fps")
    if len(args.raw) != len(args.gt):
        raise UsageError(f"{len(args.raw)} raw timelines vs {len(args.gt)} ground truths")
    raws = [timeline.read_timeline_csv(p) for p in args.raw]
    gts = [timeline.read_timeline_csv(p) for p in args.gt]
    for raw_path, raw, gt_path, gt in zip(args.raw, raws, args.gt, gts):
        _check_frames(raw_path, raw.size, gt_path, gt.size)
    # the label space spans every label read, as actseg run's spans the logits' classes
    num_classes = max(timeline.NUM_CLASSES, *(int(t.max()) + 1 for t in raws + gts))
    scores = cleaning.kappa_scores(raws, gts, _cleaner(args, 1.0, fps, num_classes))
    best = cleaning.best_kappa(scores)
    _emit(args, {"best_kappa": best, "scores": {f"{k:.1f}": v for k, v in scores.items()}})
    return 0


def _cmd_enhance_demo(args) -> int:
    g = align.load_geometry(args.geometry)
    for flag, dim in (("--backbone-h", args.backbone_h), ("--backbone-w", args.backbone_w)):
        if not 1 <= dim <= g.crop_size:  # at most one grid cell per crop pixel
            raise ValueError(f"{args.geometry}: {flag} must be in [1, {g.crop_size}], got {dim}")
    a = align.alignment(g)
    rows, cols, off_y, off_x = align.footprint(g, args.backbone_h, args.backbone_w)
    ones = FeatureMap(np.ones((1, 1, 1, 1)))  # all ones at any size: the mask is the footprint
    placed = align.place_hand_features(ones, g, args.backbone_h, args.backbone_w)
    mask = (placed.values[0, 0] != 0).astype(int)
    payload = {
        "norm_w": a.norm_w, "norm_h": a.norm_h, "norm_x": a.norm_x, "norm_y": a.norm_y,
        "footprint": {"rows": rows, "cols": cols, "off_y": off_y, "off_x": off_x},
        "mask": ["".join(str(v) for v in row) for row in mask],
    }
    if args.pretty:
        for key in ("norm_w", "norm_h", "norm_x", "norm_y"):
            print(f"{key} = {payload[key]:.6f}")
        print(f"footprint = {rows}x{cols} at (row {off_y}, col {off_x})")
        for line in payload["mask"]:
            print(line)
    if args.out or not args.pretty:  # --pretty prints the walkthrough, and --out keeps the JSON
        _emit(args, payload)
    return 0


def _cmd_hand_eval(args) -> int:
    try:
        thresholds = [_keyvalue.real(x) for x in args.thresholds.split(",") if x.strip()]
    except ValueError as exc:  # text that is not a number; a number out of range is data
        raise UsageError(f"--thresholds: {exc}") from None
    if not thresholds:
        raise UsageError("no thresholds given")
    pred_slots, gt_slots = hands.read_hand_slots(args.pred, args.gt)
    table = {f"{thr:g}": hands.f1_at_threshold(pred_slots, gt_slots, thr) for thr in thresholds}
    _emit(args, {"slots": len(pred_slots), "f1": table})
    return 0


def _cmd_synth(args) -> int:
    gt = timeline.read_timeline_csv(args.gt)
    nm = classify.NoiseModel(args.substitution, args.jitter_std, args.spike_rate,
                             args.spike_len, args.seed)
    noisy = classify.synth_timeline(gt, nm)
    if args.out_timeline:
        timeline.write_timeline_csv(args.out_timeline, noisy)
    if args.out_logits:
        logits = classify.one_hot_logits(noisy)
        if str(args.out_logits).endswith(".csv"):
            classify.write_logits_csv(args.out_logits, logits)
        else:
            classify.write_logits_binary(args.out_logits, logits)
    changed = int(np.sum(noisy != gt))
    _emit(args, {"frames": int(gt.size), "changed_frames": changed,
                 "segments_before": int(timeline.encode_runs(gt)[0].size),
                 "segments_after": int(timeline.encode_runs(noisy)[0].size)})
    return 0


class UsageError(Exception):
    pass


@functools.cache
def build_parser() -> _Parser:
    """The actseg argument parser, built once per process and shared by every main call:
    parse with it, never mutate it."""
    parser = _Parser(prog="actseg",
                     description="Real-time action segmentation engine: sliding-window "
                                 "inference, label cleaning, segmental evaluation.")
    parser.add_argument("--config", help="key=value defaults file")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    parser.add_argument("--seed", type=_keyvalue.integer, default=0,
                        help="seed for randomized commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="per-class length statistics from a segment CSV")
    p.add_argument("--segments", required=True)
    p.add_argument("--fps", type=_keyvalue.real)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("run", help="sliding-window run over a logits file")
    p.add_argument("--logits", required=True)
    p.add_argument("--gt", help="ground-truth timeline CSV for the evaluation report")
    p.add_argument("--stats", help="class stats JSON (bundled reference stats if omitted)")
    p.add_argument("--t", type=_keyvalue.integer)
    p.add_argument("--tau", type=_keyvalue.integer)
    p.add_argument("--fps", type=_keyvalue.real)
    p.add_argument("--kappa", type=_keyvalue.real)
    p.add_argument("--no-clean", action="store_true", help="skip label cleaning")
    p.add_argument("--include-background", action="store_true",
                   help="score background frames/segments too")
    p.add_argument("--softmax-average", action="store_true",
                   help="average softmax scores instead of raw logits")
    p.add_argument("--out-dir", help="write raw.csv, cleaned.csv and report.json here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep-kappa", help="calibrate the cleaning constant")
    p.add_argument("--raw", action="append", required=True, help="raw timeline CSV (repeatable)")
    p.add_argument("--gt", action="append", required=True, help="aligned ground-truth CSV")
    p.add_argument("--stats")
    p.add_argument("--fps", type=_keyvalue.real)
    p.set_defaults(func=_cmd_sweep_kappa)

    p = sub.add_parser("enhance-demo", help="hand-placement geometry walkthrough")
    p.add_argument("--geometry", required=True, help="key=value geometry file")
    p.add_argument("--backbone-h", type=_keyvalue.integer, default=56)
    p.add_argument("--backbone-w", type=_keyvalue.integer, default=56)
    p.set_defaults(func=_cmd_enhance_demo)

    p = sub.add_parser("hand-eval", help="localization F1 at distance thresholds")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--thresholds", default="0.05,0.1,0.2,0.3")
    p.set_defaults(func=_cmd_hand_eval)

    p = sub.add_parser("synth", help="corrupt a ground-truth timeline into test inputs")
    p.add_argument("--gt", required=True)
    p.add_argument("--substitution", type=_keyvalue.real, default=0.0)
    p.add_argument("--jitter-std", type=_keyvalue.real, default=0.0)
    p.add_argument("--spike-rate", type=_keyvalue.real, default=0.0)
    p.add_argument("--spike-len", type=_keyvalue.integer, default=1)
    p.add_argument("--out-timeline")
    p.add_argument("--out-logits")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = (_keyvalue.read(args.config, _CONFIG_KEYS, "config")
                              if args.config else {})
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
