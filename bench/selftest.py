"""Smoke check of the benchmark: python3 bench/selftest.py (from the repository root).

* runs a few samples of every workload untraced and traced (one strategy
  cycle of train-mix, traced and untraced, so every strategy set runs),
  choosing --seconds from each workload's rate, and asserts that the last
  line names exactly the metrics of BENCHMARK.json with their units, that the
  output checks ran and passed, and that the traced run counts 11 voxelize
  calls inside an all-strategy augment;
* asserts the checks' tolerance: a 4e-14 drift and one-ulp float32 flips
  pass, a swapped token row fails;
* asserts that a directory holding only BENCHMARK.json and bench/ makes the
  benchmark exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from checks import TAU32, Fingerprint, compare  # noqa: E402
from workloads import CliChain, SeedQueries, TrainMix  # noqa: E402

RATE = {wl.name: wl.rate for wl in (TrainMix, SeedQueries, CliChain)}


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600, check=False)


def check_workloads(spec: dict):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            # ten traced train-mix samples run five specs twice: one of each strategy set
            samples = 10 if trace and wl["name"] == "train-mix" else 2
            seconds = samples / RATE[wl["name"]]
            out = run(["--workload", wl["name"], "--seed", "0", "--seconds", repr(seconds), "--trace", str(trace)])
            assert out.returncode == 0, out.stderr
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], set(got) ^ set(expected[trace])
            assert result["correct"] and result["attempted"] >= samples, lines[0]
            for name in expected[trace]:
                assert any(line.split()[:1] == [name] for line in lines), f"{name} not printed"
            report = json.loads((BENCH / "out" / f"report-{wl['name']}-seed0-trace{trace}.json").read_text())
            assert report["checks"]["samples_checked"] == result["attempted"], report["checks"]
            assert not report["checks"]["mismatches"], report["checks"]
            if trace and wl["name"] == "train-mix":
                calls = result["metrics"]["augment.voxelize_calls.all"]["value"]
                assert calls == 11, calls
            print(f"ok  {wl['name']} trace={trace}: {result['attempted']} samples, "
                  f"{len(result['metrics'])} metrics")


def check_tolerance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((56000, 256))
    ref = Fingerprint()
    ref.add_floats("fuse.content", x)
    ref32 = Fingerprint()
    ref32.add_floats("fuse.content", x[:5000].astype(np.float32), TAU32)
    ref_json, ref32_json = ref.to_json(), ref32.to_json()

    def bad(values, tau_ref, tau=None):
        fp = Fingerprint()
        fp.add_floats("fuse.content", values, *([tau] if tau else []))
        return compare(fp, tau_ref, {"fuse"})[0]

    assert not bad(x + 4e-14 * np.sign(rng.standard_normal(x.shape)), ref_json)
    swapped = x.copy()
    swapped[[100, 200]] = swapped[[200, 100]]
    assert bad(swapped, ref_json)
    x32 = x[:5000].astype(np.float32)
    flipped = x32.copy()
    flipped.reshape(-1)[::997] = np.nextafter(flipped.reshape(-1)[::997], np.float32(np.inf))
    assert not bad(flipped, ref32_json, TAU32)
    swapped32 = x32.copy()
    swapped32[[100, 200]] = swapped32[[200, 100]]
    assert bad(swapped32, ref32_json, TAU32)
    print("ok  tolerance: drift and ulp flips pass, a swapped row fails")


def check_bare_directory():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        out = run(["--workload", "train-mix", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: exit code", out.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tolerance()
    check_bare_directory()
    check_workloads(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
