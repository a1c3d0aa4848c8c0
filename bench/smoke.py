"""Smoke check of the benchmark itself:  python3 bench/smoke.py

Runs every workload once at minimal length (one timed round), untraced and
traced, and asserts that

* every metric named in BENCHMARK.json is emitted with its unit, and no
  command fails;
* a deliberately corrupted output (``--corrupt-first-output``) is counted as a
  failure: ``failed`` >= 1, ``correct`` false, ``ok_frac`` < 1 and, traced,
  ``failed_frac`` > 0;
* in a copy holding only BENCHMARK.json and the benchmark's own files,
  run.py exits nonzero without printing a result.

Exits 0 when every assertion holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], what
    assert result["attempted"] >= 1, what
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} trace={trace}"
            result = result_of(bench(ROOT, "--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace)), what)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted[trace], f"{what}: metrics/units differ: {got}"
            assert result["failed"] == 0 and result["correct"], f"{what}: {result}"
            print(f"ok   {what}: {len(got)} metrics, {result['attempted']} commands")
        for trace, metric, broken in ((0, "ok_frac", lambda v: v < 1.0),
                                      (1, "failed_frac", lambda v: v > 0.0)):
            what = f"{workload} trace={trace} corrupted"
            result = result_of(bench(ROOT, "--workload", workload, "--seed", "7", "--seconds",
                                     "1", "--trace", str(trace), "--corrupt-first-output"), what)
            assert result["failed"] >= 1 and not result["correct"], f"{what}: not counted"
            assert broken(result["metrics"][metric]["value"]), f"{what}: {metric} unchanged"
            print(f"ok   {what}: {result['failed']} of {result['attempted']} failed")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare copy printed a result"
    print("ok   bare copy: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
