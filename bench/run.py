"""The clams benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload {sweep,models,validate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; clams is imported from ``src``.  Every
workload is a closed loop with a single caller in one worker interpreter
(worker.py), whose BLAS/OpenMP thread variables are pinned to 1.  Inputs are
drawn from ``--seed``, every output is checked, and failures count against the
attempted commands.

``--trace 0`` reports the end-to-end metrics.  The 2-core machine the
benchmark was defined on is shared, and its speed drifts by tens of percent
within seconds.  So every time is rescaled by a fixed clams-independent
kernel (worker.Reference) timed just before each round, or right after set-up:
the reported seconds are seconds at the speed where that kernel takes
REFERENCE_S.  Wall-clock command times are printed in the notes.

    setup_s       median over 4 worker spawns of the time from spawn to the
                  first completed command (import clams plus warm-up)
    cmd_p50_s     median time per command after warm-up, taken per command
                  kind (validate: per graph size) and averaged over the kinds,
                  so that the loop's mix of commands does not move it
    cmd_tail_s    time at the workload's tail percentile (TAIL_PERCENTILE:
                  the highest with >= 10 samples beyond it at the seed commit;
                  the count is printed)
    points_per_s  solved models (full steady state, reduced steady state or
                  propagate validation) per second of command time; the
                  median over the loop's rounds
    ok_frac       1 - failed/attempted (failed_frac itself is 0 when all is well)
    peak_rss_mb   maximum RSS of the worker interpreter

``--trace 1`` runs an untraced half and a traced half of the same loop and
reports the per-layer metrics: calls, self time and counts of the public clams
functions (see tracer.py), import costs from fresh interpreters, failed_frac,
and trace.overhead_frac = traced / untraced cmd_p50_s - 1.

Human-readable lines come first; the last line of standard output is the
result object.  The exit code is 0 whenever a result is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "models", "validate")
SETUP_SPAWNS = 4  # the measuring worker's own start-up is the last of them
TIME_LIMIT_S = 170.0

THREAD_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

# Typical time of worker.Reference on the 2-core machine that defined the
# benchmark; command times are reported at that machine speed.
REFERENCE_S = 0.0025

# Fixed per workload so that runs stay comparable as speed changes.
TAIL_PERCENTILE = {"sweep": 80.0, "models": 94.0, "validate": 98.0}

EXTRA_LAYER_UNITS = {
    "liouvillian.build_generator.bytes_computed": "B",
    "liouvillian.steady_state.lu_flops_computed": "flop",
    "liouvillian.steady_state.failed": "count",
    "liouvillian.propagate.failed": "count",
    "liouvillian.propagate.nfev": "count",
    "liouvillian.propagate.njev": "count",
    "liouvillian.propagate.nlu": "count",
    "cli.write_csv.bytes": "B",
    "cli.write_json.bytes": "B",
    "cli.write_complex_matrix_csv.bytes": "B",
}


def layer_units() -> dict[str, str]:
    units = {}
    for layer, _module, func in tracer.TRACED:
        units[f"{layer}.{func}.calls"] = "count"
        units[f"{layer}.{func}.self_s"] = "s"
    units.update(EXTRA_LAYER_UNITS)
    units.update({
        "import.clams_s": "s",
        "import.scipy_loaded": "flag",
        "import.modules": "count",
        "trace.overhead_frac": "frac",
        "failed_frac": "frac",
    })
    return units


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or git_sha
    return {"git_sha": git_sha, "nproc": os.cpu_count(), "threads": THREAD_ENV}


class Worker:
    """A worker interpreter; kills itself when the run's time limit passes."""

    def __init__(self, args: argparse.Namespace, work: Path, deadline: float, extra: list[str]):
        env = {**os.environ, **THREAD_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work), *extra]
        self.t0 = time.perf_counter()
        # Its own process group, so the watchdog also stops the commands it started.
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), self._kill)
        self.watchdog.start()

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def setup_seconds(self) -> float:
        """Spawn to first completed command, rescaled like the command times."""
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - self.t0
        ref = self.proc.stdout.readline().split()
        if line.strip() != "READY" or ref[:1] != ["REFERENCE"]:
            self.finish()
            raise RuntimeError("worker ended before its first command completed")
        return elapsed * REFERENCE_S / float(ref[1])

    def finish(self) -> str:
        out = self.proc.stdout.read()
        self.proc.wait()
        self.watchdog.cancel()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out


def calibrated(loop: dict) -> tuple[dict[str, list[float]], list[float]]:
    """Command times by kind and per-round throughputs, each rescaled to the
    reference machine speed with the reference-kernel time of its round."""
    refs = [ref for _points, _spent, ref in loop["rounds"]]
    by_kind: dict[str, list[float]] = {}
    for kind, seconds, index in loop["commands"]:
        by_kind.setdefault(kind, []).append(seconds * REFERENCE_S / refs[index])
    rates = [points / spent * ref / REFERENCE_S for points, spent, ref in loop["rounds"]]
    return by_kind, rates


def p50(by_kind: dict[str, list[float]]) -> float:
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def end_to_end(workload: str, res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    loop = res["untraced"]
    by_kind, rates = calibrated(loop)
    times = [t for kind_times in by_kind.values() for t in kind_times]
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(times, pct)
    beyond = sum(t > tail for t in times)
    raw: dict[str, list[float]] = {}
    for kind, seconds, _index in loop["commands"]:
        raw.setdefault(kind, []).append(seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cmd_p50_s": (p50(by_kind), "s"),
        "cmd_tail_s": (tail, "s"),
        "points_per_s": (statistics.median(rates), "1/s"),
        "ok_frac": (1.0 - res["failed"] / res["attempted"], "frac"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [
        f"commands timed: {len(times)} in {len(rates)} rounds; "
        f"cmd_tail_s is p{pct:g} with {beyond} samples beyond it",
        "reference kernel median "
        f"{statistics.median(ref for _p, _s, ref in loop['rounds']) * 1e3:.4f} ms "
        f"(REFERENCE_S {REFERENCE_S * 1e3:g} ms); wall-clock cmd_p50_s {p50(raw):.5f} s",
        "wall-clock median per kind: " + ", ".join(
            f"{kind} {statistics.median(v):.4f} s (n={len(v)})" for kind, v in sorted(raw.items())
        ),
        f"setup samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return metrics, notes


def per_layer(res: dict) -> tuple[dict, list[str]]:
    values = dict(res["layers"])
    for key, value in res["import"].items():
        values[f"import.{key}"] = value
    untraced = p50(calibrated(res["untraced"])[0])
    traced = p50(calibrated(res["traced"])[0])
    values["trace.overhead_frac"] = traced / untraced - 1.0
    values["failed_frac"] = res["failed"] / res["attempted"]
    metrics = {name: (float(values.get(name, 0.0)), unit) for name, unit in layer_units().items()}
    ranked = sorted(
        ((v, k[: -len(".self_s")]) for k, v in values.items() if k.endswith(".self_s")),
        reverse=True,
    )
    total = sum(v for v, _ in ranked)
    wall = sum(seconds for _kind, seconds, _index in res["traced"]["commands"])
    notes = [
        f"traced commands: {len(res['traced']['commands'])} in {wall:.3f} s; "
        f"untraced cmd_p50_s {untraced:.4f} s, traced {traced:.4f} s",
        # Pool threads run concurrently, so self times can sum to more than the wall time.
        f"self time {total:.3f} s, by function: " + ", ".join(
            f"{name} {v:.3f} s ({v / total:.0%})" for v, name in ranked[:6] if v > 0
        ),
    ]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-first-output", action="store_true",
                        help="damage the first timed command's output (smoke check only)")
    args = parser.parse_args()

    if not (ROOT / "src" / "clams" / "cli.py").is_file():
        print(f"error: no clams sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_SPAWNS - 1):
            worker = Worker(args, work / f"setup{i}", deadline, ["--setup-only"])
            setups.append(worker.setup_seconds())
            worker.finish()
        extra = ["--corrupt-first-output"] if args.corrupt_first_output else []
        worker = Worker(args, work / "run", deadline, extra)
        setups.append(worker.setup_seconds())
        lines = worker.finish().splitlines()
        res = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {**environment(), **res["env"]}
    if args.trace:
        metrics, notes = per_layer(res)
    else:
        metrics, notes = end_to_end(args.workload, res, setups)
    print(f"# clams benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("# " + note)
    print(f"# attempted {res['attempted']}, failed {res['failed']} "
          f"(failed_frac {res['failed'] / res['attempted']:.4g})")
    for error in res["errors"]:
        print("# failure: " + error)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
