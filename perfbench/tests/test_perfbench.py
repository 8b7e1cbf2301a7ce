"""Tests of the benchmark itself: deterministic inputs, output checks that
catch planted faults, and every workload at a tiny size."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import gen
import run
import workloads
from conftest import BENCH, ROOT

from actseg import align, classify, cleaning, grid, metrics, pipeline, refstats

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ generator


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_generator_is_deterministic_per_seed(scratch, workload):
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.generate(workload, seed, scratch / name, live_frames=50, smoke=True)
        digests.append(gen.digest(scratch / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_generator_never_imports_actseg():
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import gen; print('actseg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_generated_logits_are_finite_25_class_and_fragmented(scratch):
    gen.gen_batch(7, scratch, frames=4000)
    logits = classify.load_logits(scratch / "run_logits.atsl")
    assert logits.shape == (4000, gen.NUM_CLASSES)
    assert np.isfinite(logits).all()
    gt = np.loadtxt(scratch / "run_gt.csv", delimiter=",", skiprows=1, dtype=np.int64)[:, 1]
    raw, _ = pipeline.run_offline(pipeline.PipelineConfig(8, 8, 15.0, 25, None),
                                  classify.LogitsBackend(logits))
    # the generator's own window rule agrees with the program's
    heldout = classify.LogitsBackend.from_file(scratch / "heldout_logits.atsl")
    heldout_raw = np.loadtxt(scratch / "heldout_raw.csv", delimiter=",", skiprows=1,
                             dtype=np.int64)[:, 1]
    assert np.array_equal(pipeline.run_offline(pipeline.PipelineConfig(), heldout)[0], heldout_raw)
    assert workloads._runs(raw).size > 3 * workloads._runs(gt).size


# ------------------------------------------------------------ planted faults


def _live_stream(n=600, seed=3):
    """A StreamLog of one cleaning stream, and the offline run's labels."""
    rng = gen._rng(seed, 0)
    backend = classify.LogitsBackend(gen.logits_for(rng, gen.ground_truth(rng, n)))
    cfg = pipeline.PipelineConfig(8, 8, 15.0, 25, cleaning.CleanerConfig(
        1.4, refstats.reference_class_stats(15.0), 15.0))
    session = pipeline.StreamSession(cfg, backend)
    log = checks.StreamLog(1, n)
    for k in range(n):
        log.add(k, [session.push(k)])
    log.add(n - 1, [session.finish()])
    return log, pipeline.run_offline(cfg, backend)[1]


def test_stream_check_passes_the_real_stream_and_catches_a_flipped_label():
    log, expected = _live_stream()
    bound = workloads.holdback_bound()
    assert log.failures(0, expected, bound) == 0
    assert 0 < log.holdback_max() <= bound
    log.label[0, 200] = (log.label[0, 200] + 1) % 25
    assert log.failures(0, expected, bound) == 1


def test_stream_check_catches_lost_duplicated_stray_and_late_frames():
    bound = workloads.holdback_bound()
    log, expected = _live_stream()
    log.add(599, [[(0, int(expected[0]))]])
    assert log.failures(0, expected, bound) == 1
    log.count[0, 1] = 0
    assert log.failures(0, expected, bound) == 2
    log.add(599, [[(600, 0)]])
    assert log.failures(0, expected, bound) == 3
    log, expected = _live_stream()
    log.at[0, 10] = 10 + bound + 1
    assert log.failures(0, expected, bound) == 1


def test_holdback_bound_is_the_programs_lag_plus_largest_threshold():
    cfg = cleaning.CleanerConfig(1.4, refstats.reference_class_stats(15.0), 15.0)
    assert workloads.holdback_bound() == (8 // 2) * 8 + cfg.max_threshold() == 135


def _enhance_case(kind_left, kind_right, seed=1):
    rng = gen._rng(seed, 0)
    shape = gen.SMOKE_ENHANCE_SHAPE
    t, c, h, w, hh = (shape[k] for k in ("t", "c", "h", "w", "hand_hw"))
    f = rng.normal(size=(t, c, h, w))
    fl, fr = rng.normal(size=(2, t, c, hh, hh))
    mixer = {"weight": rng.normal(size=(c, 3 * c)), "bias": rng.normal(size=c),
             "bn_scale": rng.uniform(0.5, 1.5, c), "bn_shift": rng.normal(size=c),
             "bn_mean": rng.normal(size=c), "bn_var": rng.uniform(0.5, 2.0, c)}
    hands = [{"xy": None if k == "fallback" else gen._hand_xy(rng, k)}
             for k in (kind_left, kind_right)]
    geoms = [workloads._geometry_dict(hd) for hd in hands]
    program_geoms = [align.CropGeometry(**g) for g in geoms]
    out = align.enhance(grid.FeatureMap(f), grid.FeatureMap(fl), grid.FeatureMap(fr),
                        *program_geoms, grid.MixerWeights(**mixer))
    return out.values, checks.enhance_reference(f, fl, fr, *geoms, mixer)


@pytest.mark.parametrize("kinds", [("in_crop", "partial"), ("fallback", "in_crop"),
                                   ("partial", "fallback")])
def test_enhance_check_accepts_the_program_and_catches_a_perturbed_value(kinds):
    out, ref = _enhance_case(*kinds)
    assert checks.enhance_matches(out, ref, workloads.ENHANCE_TOL)
    bad = out.copy()
    bad[0, 1, 5, 5] += 10 * workloads.ENHANCE_TOL
    assert not checks.enhance_matches(bad, ref, workloads.ENHANCE_TOL)
    bad[0, 1, 5, 5] = np.nan
    assert not checks.enhance_matches(bad, ref, workloads.ENHANCE_TOL)


def test_fallback_geometry_matches_the_reference_placement():
    g = gen
    fb = align.fallback_geometry(g.FRAME_W, g.FRAME_H, g.SCALE_SHORT, g.CROP, g.CROP_X, g.CROP_Y,
                                 g.HAND, g.HAND)
    ref = workloads._geometry_dict({"xy": None})
    assert (fb.hand_x, fb.hand_y) == (ref["hand_x"], ref["hand_y"])
    assert align.footprint(fb, 56, 56) == checks.placement(ref, 56, 56)


def test_report_check_accepts_the_real_report_and_catches_a_wrong_f1(oracles):
    rng = gen._rng(2, 0)
    gt = gen.ground_truth(rng, 3000)
    cfg = pipeline.PipelineConfig(8, 8, 15.0, 25, cleaning.CleanerConfig(
        1.4, refstats.reference_class_stats(15.0), 15.0))
    _, cleaned = pipeline.run_offline(cfg, classify.LogitsBackend(gen.logits_for(rng, gt)))
    report = json.loads(json.dumps({"cleaned": metrics.evaluate(cleaned, gt)}))
    oracle = checks.oracle_scores(oracles, cleaned, gt)
    assert checks.report_matches(report, oracle)
    report["cleaned"]["f1"]["0.25"] += 1e-9
    assert not checks.report_matches(report, oracle)


# ------------------------------------------------------------ whole runs


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "2", "--seconds", "0.5", "--trace", "1", "--smoke"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_untraced_smoke_run_of_all_workloads_reports_every_end_to_end_metric():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--seed", "2",
                           "--seconds", "0.5", "--trace", "0", "--smoke"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert result["correct"]
    for workload in run.WORKLOAD_NAMES:
        for m in BENCHMARK["end_to_end"]:
            value = result["metrics"][f"{workload}.{m['name']}"]
            assert value["unit"] == m["unit"] and value["value"] > 0


def test_run_fails_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch_2h",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=scratch)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert f"{workloads.TICK_MS:g} ms" in why["live_64"]
    assert f"{workloads.ENHANCE_TOL:g}" in why["enhance_deploy"]
