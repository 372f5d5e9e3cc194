"""Benchmark of cylpano's training-data, query-seeding and CLI paths.

    python3 bench/run.py --workload train-mix --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --record

Run from the repository root. A run builds the workload's inputs from --seed,
sets up three times (setup_s is the median set-up plus one untimed warm-up
sample), runs a fixed number of samples sized from --seconds, checks every
sample's outputs against reference.json, and prints a report followed by one
JSON line: end-to-end metrics with --trace 0, per-layer metrics from a traced
run with --trace 1. --record rewrites reference.json from the current code.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS and OpenMP pools to one thread before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def keep_freed_memory() -> bool:
    """Serve every allocation from the heap and never hand freed memory back to the OS.

    With glibc's defaults each large numpy array is a fresh mmap, so every
    sample faults its pages in again, and the kernel's time for the same
    faults swings several-fold with the host's load. Called before numpy is
    imported; returns whether glibc accepted the settings.
    """
    import ctypes
    import ctypes.util

    m_trim_threshold, m_mmap_max = -1, -4
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return bool(libc.mallopt(m_mmap_max, 0)) and bool(libc.mallopt(m_trim_threshold, 2**31 - 1))
    except (OSError, AttributeError):
        return False


HEAP_ONLY = keep_freed_memory()

import argparse
import json
import math
import platform
import re
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "cylpano"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
REFERENCE_NOTE = "fingerprints recorded by `python3 bench/run.py --record`; see checks.py"
SETUP_REPEATS = 3
TIME_CAP_S = 150.0  # stop sampling early so a run always ends well within 180 s

END_TO_END = [("setup_s", "s"), ("samples_per_s", "1/s"), ("sample_ms.p50", "ms"),
              ("sample_ms.tail", "ms"), ("peak_rss_mb", "MB")]


def per_layer_names() -> list[tuple[str, str]]:
    from spans import CLI_STAGES, LAYERS, STRATEGIES

    names = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            names.append((f"{mod}.{fn}.calls", "count"))
            if mod != "geometry":
                names.append((f"{mod}.{fn}.self_ms", "ms"))
    names += [(f"cli.{stage}.self_ms", "ms") for stage in CLI_STAGES.values()]
    names += [(f"augment.ms.{s}", "ms") for s in STRATEGIES]
    names += [(f"augment.voxelize_calls.{s}", "count") for s in STRATEGIES]
    names += [(n, "count") for n in (
        "geometry.points_projected", "grid.points_in", "grid.points_dropped", "grid.occupied_voxels",
        "augment.pixels_swapped", "queries.hints.geometric", "queries.hints.texture",
        "queries.peaks_lost_empty")]
    names += [("formats.bytes_written", "B")]
    names += [(n, "frac") for n in (
        "tokens.image_valid_frac", "queries.dbscan.noise_frac", "tokens.nearest_occupied_row.fallback_frac")]
    names += [(f"stage_ms.{s}.p50", "ms") for s in ("synth", "voxelize", "augment", "fuse", "queries", "eval")]
    names += [("trace.overhead_pct", "%")]
    return names


def make_workload(name: str, seed: int):
    from workloads import CliChain, SeedQueries, TrainMix

    if name == "train-mix":
        return TrainMix(seed)
    if name == "seed-queries":
        return SeedQueries(seed)
    return CliChain(seed, OUT / f"work-{os.getpid()}")


class StageTimer:
    """Times the stages of one sample; in a traced sample each stage is also a span."""

    def __init__(self, tracer=None):
        self.ms: dict[str, float] = {}
        self.completed: set[str] = set()
        self.tracer = tracer
        self._name = None

    def __call__(self, name: str):
        self._name = name
        return self

    def __enter__(self):
        self._t0 = time.perf_counter()
        self._span = self.tracer.open(f"stage.{self._name}") if self.tracer else None
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._span is not None:
            self.tracer.close(self._span)
        self.ms[self._name] = self.ms.get(self._name, 0.0) + 1e3 * (time.perf_counter() - self._t0)
        if exc_type is None:
            self.completed.add(self._name)
        else:  # a stage that runs twice (synth) is complete only if both runs were
            self.completed.discard(self._name)
        return False


def run_sample(wl, spec, tracer=None, index=-1) -> dict:
    """Run one sample; returns its timing, outcome and (unchecked) fingerprint."""
    from workloads import StageFailed

    timer = StageTimer(tracer)
    if tracer:
        tracer.install(index)
        root = tracer.open("sample")
    error, outputs = None, None
    t0 = time.perf_counter()
    try:
        outputs = wl.run(spec, timer)
    except StageFailed as exc:
        error, outputs = str(exc), exc.outputs
    except Exception:  # a sample that raises is counted as failed and the run goes on
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    total_ms = 1e3 * (time.perf_counter() - t0)
    if tracer:
        tracer.close(root)
        tracer.remove()
    fp = None if outputs is None else wl.fingerprint(spec, outputs, timer.completed)
    wl.release(spec)
    return {"spec": spec, "index": index, "ms": total_ms, "stage_ms": timer.ms, "completed": timer.completed,
            "error": error, "fp": fp, "traced": tracer is not None}


def check(wl, result, reference) -> tuple[list[str], int]:
    from checks import compare

    if result["fp"] is None:
        return [], 0
    ref = reference.get(wl.name, {}).get(wl.key(result["spec"]))
    if ref is None:
        return [f"no reference for {wl.key(result['spec'])}"], 0
    return compare(result["fp"], ref, result["completed"])


def tail(values: list[float]) -> tuple[float, str, int]:
    """p75 of the completed samples' latency, with the number of samples beyond it.

    At 25 s 60-67 of cli-chain's 139 chains complete, leaving 15-16 beyond
    p75; train-mix's 35 samples leave 9 and seed-queries' 14 leave 4, fewer
    than the 10 a tail should rest on, so the report states the count. p90
    and p99 would rest on fewer still. One percentile for every workload
    and commit keeps the metric comparable when a fix lets more chains
    complete.
    """
    q = percentile(values, 75)
    return q, "p75", sum(v > q for v in values)


def percentile(values: list[float], q: float) -> float:
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * q / 100
    lo = math.floor(pos)
    return s[lo] + (s[min(lo + 1, len(s) - 1)] - s[lo]) * (pos - lo)


def src_lines() -> dict[str, int]:
    lines = {f"lines.{p.stem}": len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py"))}
    lines["lines.total"] = sum(lines.values())
    return lines


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "malloc": "heap only, never trimmed" if HEAP_ONLY else "default",
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = make_workload(name, seed)
    count = max(1, math.ceil(seconds * wl.rate - 1e-9))
    reference = json.loads(REFERENCE.read_text())
    started = time.perf_counter()

    results, bad, unreferenced, capped = [], [], 0, False
    try:
        prep_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            prep_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_sample(wl, wl.warmup_spec())
        warmup_s = time.perf_counter() - t0
        setup_s = statistics.median(prep_s) + warmup_s

        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            # Each spec runs untraced and traced, alternating which goes first, so
            # the overhead compares identical inputs.
            specs = wl.sequence(math.ceil(count / 2))
            plan = [(j, spec, (j + k) % 2 == 1) for j, spec in enumerate(specs) for k in (0, 1)]
        else:
            plan = [(j, spec, False) for j, spec in enumerate(wl.sequence(count))]
        count = len(plan)  # sequences run whole strategy cycles or scene passes

        for j, spec, traced in plan:
            if time.perf_counter() - started > TIME_CAP_S:
                capped = True
                break
            r = run_sample(wl, spec, tracer if traced else None, j)
            problems, unref = check(wl, r, reference)
            r["fp"] = None
            r["check_failed"] = bool(problems)
            bad += [f"{wl.key(spec)}: {p}" for p in problems]
            unreferenced += unref
            results.append(r)
    finally:
        wl.close()

    return {
        "wl": wl, "count": count, "results": results, "bad": bad, "unreferenced": unreferenced,
        "setup_s": setup_s, "prep_s": prep_s, "warmup_s": warmup_s, "capped": capped,
        "tracer": tracer, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def summarize(m: dict, trace: bool) -> tuple[dict, dict]:
    """End-to-end (or per-layer) metrics, and the report's extra fields."""
    wl, results = m["wl"], m["results"]
    plain = [r for r in results if not r["traced"]]
    ok = [r for r in plain if not r["error"] and not r["check_failed"]]
    total_s = sum(r["ms"] for r in plain) / 1e3
    ms = [r["ms"] for r in ok]
    tail_ms, tail_q, beyond = tail(ms)
    stage_p50 = {}
    for stage in ("synth", "voxelize", "augment", "fuse", "queries", "eval"):
        vals = [r["stage_ms"][stage] for r in plain if stage in r["completed"]]
        stage_p50[f"stage_ms.{stage}.p50"] = statistics.median(vals) if vals else 0.0
    failed = [r for r in results if r["error"] or r["check_failed"]]
    extra = {
        "workload": wl.name,
        "attempted": len(results),
        "failed": len(failed),
        "failed_frac": len(failed) / max(len(results), 1),
        "errors": sorted({re.sub(r"\S*/\S*", "<path>", r["error"]) for r in failed if r["error"]}),
        "checks": {"samples_checked": len(results), "mismatches": m["bad"][:20],
                   "unreferenced_items": m["unreferenced"]},
        "sample_count": len(ms),
        "nominal_count": m["count"],
        "tail": {"percentile": tail_q, "samples": len(ms), "beyond": beyond},
        "setup": {"prep_s": m["prep_s"], "warmup_s": m["warmup_s"]},
        "stopped_at_time_cap": m["capped"],
        **stage_p50,
    }
    if not trace:
        metrics = {
            "setup_s": m["setup_s"],
            "samples_per_s": len(ok) / total_s if total_s else 0.0,
            "sample_ms.p50": statistics.median(ms) if ms else 0.0,
            "sample_ms.tail": tail_ms,
            "peak_rss_mb": m["peak_rss_mb"],
        }
        return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, extra

    tracer = m["tracer"]
    per = tracer.per_sample()
    # per-layer medians over completed samples, so the chains that stop at the
    # flip defect do not zero out the stages they never reached
    traced = [r for r in results if r["traced"] and not r["error"] and not r["check_failed"]]
    metrics = dict(stage_p50)
    for s, d in tracer.augment_by_strategy().items():
        metrics[f"augment.ms.{s}"] = statistics.median(d["ms"])
        metrics[f"augment.voxelize_calls.{s}"] = statistics.median(d["voxelize_calls"])
    sps = {}
    for flag in (False, True):
        group = [r for r in results if r["traced"] is flag]
        done = sum(1 for r in group if not r["error"] and not r["check_failed"])
        secs = sum(r["ms"] for r in group) / 1e3
        sps[flag] = done / secs if secs else 0.0
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - sps[True] / sps[False]) if sps[False] else 0.0
    names = per_layer_names()
    for name, _ in names:
        if name not in metrics:  # a strategy set the run never drew reads 0
            metrics[name] = statistics.median([per.get(r["index"], {}).get(name, 0.0) for r in traced]) if traced else 0.0
    extra["trace"] = {"samples_per_s.untraced": sps[False], "samples_per_s.traced": sps[True]}
    return {k: {"value": metrics[k], "unit": u} for k, u in names}, extra


def print_report(metrics: dict, extra: dict, env: dict, seed: int, trace: bool):
    print(f"bench {extra['workload']} seed={seed} trace={int(trace)}: {extra['attempted']} attempted, "
          f"{extra['failed']} failed (failed_frac {extra['failed_frac']:.4f}), "
          f"{len(extra['checks']['mismatches'])} check mismatches, "
          f"{extra['checks']['unreferenced_items']} unreferenced items")
    for err in extra["errors"]:
        print(f"  failure: {err}")
    for bad in extra["checks"]["mismatches"]:
        print(f"  check mismatch: {bad}")
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups + one warm-up sample",
        "samples_per_s": f"{extra['sample_count']} completed of {extra['attempted']}",
        "sample_ms.p50": f"n={extra['sample_count']}",
        "sample_ms.tail": (f"{extra['tail']['percentile']}, n={extra['tail']['samples']}, "
                           f"{extra['tail']['beyond']} beyond"),
    }
    for name, mv in metrics.items():
        print(f"  {name:<44} {mv['value']:>14.4f} {mv['unit']:<6} {notes.get(name, '')}")
    if not trace:
        for k, v in extra.items():
            if k.startswith("stage_ms.") and v:
                print(f"  {k:<44} {v:>14.4f} ms     (report only)")
    print("env " + json.dumps(env))
    print("lines " + json.dumps(src_lines()))


def run_one(args) -> int:
    env = environment(args.seed)
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, extra = summarize(m, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if m["tracer"]:
        m["tracer"].write(OUT / f"spans-{stem}.jsonl")
    report = {"metrics": metrics, "env": env, "lines": src_lines(), **extra}
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    print_report(metrics, extra, env, args.seed, bool(args.trace))
    correct = not extra["checks"]["mismatches"]
    print(json.dumps({"correct": correct, "attempted": extra["attempted"], "failed": extra["failed"],
                      "metrics": metrics}))
    return 0


def record() -> int:
    """Fingerprint every sample each workload can draw and rewrite reference.json."""
    from workloads import CliChain, SeedQueries, TrainMix

    reference = {}
    for wl in (TrainMix(0), SeedQueries(0), CliChain(0, OUT / f"work-{os.getpid()}")):
        wl.prepare(universe=True)
        entries = {}
        for spec in wl.universe():
            r = run_sample(wl, spec)
            entries[wl.key(spec)] = r["fp"].to_json() if r["fp"] else {"ints": {}, "floats": {}}
        reference[wl.name] = entries
        print(f"recorded {len(entries)} {wl.name} samples", file=sys.stderr)
        wl.close()
    write_reference(reference)
    return 0


def write_reference(reference: dict):
    """One line per sample, so a re-recording diffs sample by sample."""
    blocks = [f'"note": {json.dumps(REFERENCE_NOTE)}']
    for name, entries in reference.items():
        rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                          for k, v in entries.items())
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    rc = 0
    for name in ("train-mix", "seed-queries", "cli-chain"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc |= subprocess.run(argv, check=False).returncode
    return rc


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["train-mix", "seed-queries", "cli-chain", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true", help="rewrite reference.json from the current code")
    args = p.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: {SRC} not found; run from a cylpano checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} not found; record it with --record", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
