"""Seeded input generator for the benchmark workloads.

numpy only: it never imports actseg, so a change to the program cannot
change the inputs it is measured on. The same (workload, seed, size) always
writes byte-identical files; `digest` hashes them for the report.

Run as a script it writes one workload's inputs into a directory:

    python3 perfbench/gen.py --workload batch_2h --seed 1 --out DIR

The benchmark runs it in a child process so that the generator's memory
does not count towards the program's peak RSS.
"""

import argparse
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

FPS = 15.0
NUM_CLASSES = 25

# Class frequencies (example counts) and mean segment lengths in seconds of
# the 25-class assembly label space, so generated ground truth has the
# duration profile the cleaner's reference statistics describe.
CLASS_COUNTS = np.array([82, 610, 50, 101, 149, 85, 49, 102, 140, 81, 428, 159, 123,
                         74, 38, 163, 359, 168, 77, 220, 95, 134, 105, 76, 1220], dtype=np.float64)
CLASS_MEAN_S = np.array([8.63, 2.07, 1.44, 1.02, 1.12, 1.14, 0.96, 1.13, 1.27, 1.07, 1.86,
                         1.78, 3.43, 2.76, 3.59, 3.80, 5.32, 3.39, 8.43, 1.99, 7.74, 4.46,
                         12.89, 7.95, 3.75])

# Classifier stand-in: +SIGNAL on the true class of a corrupted copy of the
# ground truth, plus gaussian noise of NOISE_STD on every logit. The
# corruption is the noise model of the cleaning acceptance test in
# tests/test_acceptance.py: SPIKE_RATE spurious runs of SPIKE_LEN frames per
# 1000 frames, no boundary jitter, no substitution. Most of the raw
# fragmentation comes from the noise, not from the spikes: on a 2 h recording
# the deployment window splits uncorrupted logits into 12.2k-12.7k runs
# against ~2.1k ground-truth runs, and the spikes move that by at most 3%.
SIGNAL = 2.0
NOISE_STD = 0.5
SPIKE_RATE = 5.0        # spurious runs per 1000 frames
SPIKE_LEN = 3           # frames per spurious run

# Deployment window (T=8, tau=8): the raw label of frame i is the argmax of
# the mean logits at frames i + (k - 3) * 8, k = 0..7, clamped to the recording.
WINDOW_OFFSETS = (np.arange(8) - 3) * 8

# Deployment crop: 920x720 frames scaled to a 256 short side, a 224 square
# cut at (50, 16), 224 px hand windows.
FRAME_W, FRAME_H, SCALE_SHORT, CROP, CROP_X, CROP_Y, HAND = 920, 720, 256, 224, 50, 16, 224
ENHANCE_SHAPE = dict(t=8, c=64, h=56, w=56, hand_hw=14)
# hand placement draws: in-crop, partly out of the crop, missing (fallback window).
# The shares are an assumption with no data behind them (no hand-detection
# output is available); they set align.footprint_share.
HAND_KINDS = ("in_crop", "partial", "fallback")
HAND_KIND_P = (0.6, 0.25, 0.15)


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


# ------------------------------------------------------------ timelines


def ground_truth(rng, n_frames):
    """Timeline of maximal runs: class by reference frequency (never the
    previous class), length gamma-distributed with std = mean / 3."""
    weights = CLASS_COUNTS / CLASS_COUNTS.sum()
    labels = np.empty(n_frames, dtype=np.int64)
    pos, prev = 0, -1
    while pos < n_frames:
        cid = prev
        while cid == prev:
            cid = int(rng.choice(NUM_CLASSES, p=weights))
        mean = CLASS_MEAN_S[cid] * FPS
        length = max(1, int(round(rng.gamma(9.0, mean / 9.0))))
        labels[pos:pos + length] = cid
        pos += length
        prev = cid
    return labels


def _other_class(rng, current):
    draw = rng.integers(0, NUM_CLASSES - 1, size=np.shape(current))
    return draw + (draw >= current)


def corrupt(rng, gt):
    """Overwrite SPIKE_LEN frames with another class at SPIKE_RATE spots per 1000 frames."""
    labels = gt.copy()
    n = labels.size
    for pos in rng.integers(0, n - SPIKE_LEN, size=int(rng.poisson(SPIKE_RATE * n / 1000))):
        labels[pos:pos + SPIKE_LEN] = _other_class(rng, labels[pos])
    return labels


def logits_for(rng, gt, dtype=np.float64):
    """Finite (frames, 25) logits: SIGNAL on a corrupted copy of gt plus noise."""
    noisy = corrupt(rng, gt)
    out = rng.normal(0.0, NOISE_STD, size=(gt.size, NUM_CLASSES)).astype(dtype)
    out[np.arange(gt.size), noisy] += SIGNAL
    return out


def window_argmax(logits):
    """Raw deployment-window prediction per frame, computed independently of actseg."""
    n = logits.shape[0]
    table = logits.astype(np.float64)
    raw = np.empty(n, dtype=np.int64)
    for lo in range(0, n, 8192):
        idx = np.clip(np.arange(lo, min(lo + 8192, n))[:, None] + WINDOW_OFFSETS, 0, n - 1)
        raw[lo:lo + idx.shape[0]] = np.argmax(table[idx].mean(axis=1), axis=1)
    return raw


# ------------------------------------------------------------ file formats


def write_timeline_csv(path, labels):
    lines = ["frame,label_id"] + [f"{i},{v}" for i, v in enumerate(labels.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def write_logits_atsl(path, logits32):
    """actseg's binary logits format: b'ATSL', <u32 frames, u32 classes>, float32 LE."""
    with open(path, "wb") as fh:
        fh.write(b"ATSL")
        fh.write(struct.pack("<II", *logits32.shape))
        fh.write(np.ascontiguousarray(logits32, dtype="<f4").tobytes())


# ------------------------------------------------------------ workloads

BATCH_FRAMES = 108_000          # 2 h at 15 fps
WARM_FRAMES = 3_000             # set-up warm-up recording


def gen_batch(seed, out, frames=BATCH_FRAMES):
    """Scored recording (logits + GT), held-out raw/GT pair for the sweep,
    and a short warm-up copy of each."""
    out = Path(out)
    for tag, n, stream in (("run", frames, 1), ("heldout", frames, 2),
                           ("warm", min(frames // 2, WARM_FRAMES), 3)):
        rng = _rng(seed, stream)
        gt = ground_truth(rng, n)
        logits = logits_for(rng, gt, np.float32)
        write_logits_atsl(out / f"{tag}_logits.atsl", logits)
        write_timeline_csv(out / f"{tag}_gt.csv", gt)
        write_timeline_csv(out / f"{tag}_raw.csv", window_argmax(logits))


LIVE_STREAMS = 64


def gen_live(seed, out, frames, streams=LIVE_STREAMS):
    """One recording per stream, each long enough for every scheduled tick."""
    table = np.empty((streams, frames, NUM_CLASSES), dtype=np.float64)
    for s in range(streams):
        rng = _rng(seed, 100 + s)
        table[s] = logits_for(rng, ground_truth(rng, frames))
    np.save(Path(out) / "live_logits.npy", table)


ENHANCE_BACKBONES = 4
ENHANCE_HANDS = 8
ENHANCE_CLIPS = 64


def _hand_xy(rng, kind):
    """Top-left corner of a hand window whose placement is of the given kind."""
    scale = SCALE_SHORT / min(FRAME_W, FRAME_H)
    crop_x0, crop_x1 = CROP_X / scale, (CROP_X + CROP) / scale
    crop_y0, crop_y1 = CROP_Y / scale, (CROP_Y + CROP) / scale
    while True:
        x = int(rng.integers(0, FRAME_W - HAND + 1))
        y = int(rng.integers(0, FRAME_H - HAND + 1))
        inside = crop_x0 <= x and x + HAND <= crop_x1 and crop_y0 <= y and y + HAND <= crop_y1
        if inside == (kind == "in_crop"):
            return x, y


def gen_enhance(seed, out, backbones=ENHANCE_BACKBONES, hands=ENHANCE_HANDS,
                clips=ENHANCE_CLIPS, shape=ENHANCE_SHAPE):
    """Backbone and hand-map pools, one mixer, and a cycle of clip specs
    (backbone, left/right hand map and their placements)."""
    rng = _rng(seed, 200)
    t, c, h, w, hh = shape["t"], shape["c"], shape["h"], shape["w"], shape["hand_hw"]
    arrays = {
        "backbone": rng.normal(size=(backbones, t, c, h, w)),
        "hands": rng.normal(size=(hands, t, c, hh, hh)),
        "weight": rng.normal(0.0, 1.0 / np.sqrt(3 * c), size=(c, 3 * c)),
        "bias": rng.normal(0.0, 0.1, size=c),
        "bn_scale": rng.uniform(0.5, 1.5, size=c),
        "bn_shift": rng.normal(0.0, 0.1, size=c),
        "bn_mean": rng.normal(0.0, 0.1, size=c),
        "bn_var": rng.uniform(0.5, 2.0, size=c),
    }
    specs = []
    for _ in range(clips):
        spec = {"backbone": int(rng.integers(0, backbones))}
        for side in ("left", "right"):
            kind = HAND_KINDS[int(rng.choice(len(HAND_KINDS), p=HAND_KIND_P))]
            spec[side] = {"map": int(rng.integers(0, hands)), "kind": kind,
                          "xy": None if kind == "fallback" else _hand_xy(rng, kind)}
        specs.append(spec)
    np.savez(Path(out) / "enhance.npz", **arrays)
    (Path(out) / "enhance_clips.json").write_text(json.dumps(specs) + "\n")


SMOKE_ENHANCE_SHAPE = dict(t=2, c=4, h=16, w=16, hand_hw=4)


def generate(workload, seed, out, live_frames=0, smoke=False):
    """Write the inputs of one workload into out (created if missing).

    live_frames is the length of each live_64 stream, one frame per tick.
    smoke shrinks every input to a few frames or cells, for the benchmark's tests."""
    Path(out).mkdir(parents=True, exist_ok=True)
    if workload == "batch_2h":
        gen_batch(seed, out, frames=2_000 if smoke else BATCH_FRAMES)
    elif workload == "live_64":
        gen_live(seed, out, frames=live_frames, streams=4 if smoke else LIVE_STREAMS)
    elif workload == "enhance_deploy":
        if smoke:
            gen_enhance(seed, out, backbones=2, hands=2, clips=8, shape=SMOKE_ENHANCE_SHAPE)
        else:
            gen_enhance(seed, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def digest(directory):
    """sha256 over the names and bytes of every file in directory, in name order."""
    h = hashlib.sha256()
    for p in sorted(Path(directory).iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--live-frames", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.live_frames, args.smoke)
    print(digest(args.out))


if __name__ == "__main__":
    main()
