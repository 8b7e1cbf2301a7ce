#!/usr/bin/env python3
"""actseg benchmark: three fixed-seed workloads, end to end and per layer.

    python3 perfbench/run.py --workload batch_2h --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Runs from a plain checkout: it imports actseg from src/ and the metric
oracles from tests/, installs nothing, and caps BLAS threads at the CPUs
this process may use. Inputs come from gen.py in a child process, keyed by
--seed. Every output is checked; a failed check counts in `failed`.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). The lines before it report the environment, the input digest
and the workload-specific figures by name and unit.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    # must happen before numpy is imported
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 0 < int(_cur) <= NPROC):
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORK = HERE / "work"
IMPORT_REPS = 9

# Every workload reports every one of these (see README.md for what each
# means per workload). Units are fixed here and in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms", "capacity_streams": "streams"}
PER_LAYER = {
    # batch_2h
    "classify.load_logits_s": "s", "timeline.read_timeline_csv_s": "s",
    "timeline.write_timeline_csv_s": "s", "pipeline.run_offline_window_s": "s",
    "cleaning.clean_timeline_s": "s", "cleaning.sweep_clean_s": "s", "metrics.sweep_f1_s": "s",
    "metrics.evaluate_raw_s": "s", "metrics.evaluate_cleaned_s": "s",
    "metrics.f1_at_iou_raw_s": "s", "metrics.per_class_f1_raw_s": "s",
    "metrics.edit_score_raw_s": "s", "kernels.levenshtein_s": "s",
    "timeline.segments_from_timeline_s": "s",
    "frames": "count", "gt_segments": "count", "raw_segments": "count",
    "cleaned_segments": "count", "frames_relabeled": "count", "runs_relabeled": "count",
    # live_64
    "pipeline.StreamSession.push_us": "us", "cleaning.StreamCleaner.push_us": "us",
    "labels_out": "count", "holdback_max_frames": "count", "holdback_bound_frames": "count",
    "late_ticks": "count", "backlog_max_ticks": "count",
    # enhance_deploy
    "align.place_hand_features_ms": "ms", "grid.concat_channels_ms": "ms",
    "grid.mix_1x1_ms": "ms", "grid.residual_norm_ms": "ms", "grid.mix_1x1_gflops": "GFLOP",
    "grid.mix_1x1_mbytes": "MB", "align.footprint_share": "share",
    # every workload
    "p75_ms": "ms", "p99_ms": "ms", "tracing_overhead_s": "s", "unaccounted_share": "share",
    **{f"{layer}.self_s": "s" for layer in workloads.LAYERS},
}
WORKLOAD_NAMES = ("batch_2h", "live_64", "enhance_deploy")


def environment():
    import numpy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "nproc": NPROC, "cpu": cpu}


def import_seconds():
    """Median wall time of `import actseg` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import actseg; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def load_program():
    """actseg's modules from src/ (never an installed copy) and the test oracles."""
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"actseg.{name}") for name in
               ("_kernels", "align", "classify", "cleaning", "cli", "grid", "metrics",
                "pipeline", "refstats", "timeline")}
    if Path(modules["cli"].__file__).resolve().parents[1] != SRC:
        raise RuntimeError(f"actseg imported from {modules['cli'].__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return modules, oracles


def generate(workload, seed, seconds, out, smoke):
    cmd = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--live-frames", str(workloads.live_frames(seconds))]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return done.stdout.strip().splitlines()[-1]


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Generate, set up, measure and check one workload; returns (lines, result)."""
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        digest = generate(workload, seed, seconds, work / "inputs", smoke)
        import_s = import_seconds()
        modules, oracles = load_program()
        ctx = workloads.Context(modules, oracles, work / "inputs", work, seconds, bool(trace),
                                import_s)
        outcome = workloads.WORKLOADS[workload](ctx)
        lines = [f"env {json.dumps(environment())}",
                 f"inputs workload={workload} seed={seed} sha256={digest}"]
        if trace:
            WORK.mkdir(parents=True, exist_ok=True)
            spans = WORK / f"trace-{workload}-s{seed}.npz"
            ctx.tracer.save(spans)
            lines.append(f"spans {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ratio = outcome.failed / max(1, outcome.attempted)
    lines.append(f"{workload} failed_ratio = {ratio} ({outcome.failed}/{outcome.attempted})")
    for name, (value, unit) in {**outcome.e2e, **outcome.notes}.items():
        lines.append(f"{workload} {name} = {value} {unit}")
    wanted = PER_LAYER if trace else END_TO_END
    source = outcome.layers if trace else outcome.e2e
    # a layer the workload does not call reads 0
    metrics = {name: {"value": source.get(name, (0,))[0], "unit": unit}
               for name, unit in wanted.items()}
    if trace:
        for name, m in metrics.items():
            lines.append(f"{workload} layer {name} = {m['value']} {m['unit']}")
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    return lines, result


def run_all(args):
    """Every workload in its own child process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="actseg benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    missing = [p for p in (SRC / "actseg" / "__init__.py", ORACLES) if not p.is_file()]
    if missing:
        print(f"perfbench: {missing[0]} not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
