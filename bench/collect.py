"""Repeat the benchmark over seeds and write one trajectory entry.

    python3 bench/collect.py --label 00_seed --seeds 10 [--workloads sweep models ...]

For every workload it runs ``run.py`` once per seed with ``--trace 0`` (seeds
interleaved across workloads), reports each end-to-end metric's median,
quartiles and spread ((q3 - q1) / median, with ``statistics.quantiles(n=4)``)
against its bound in BENCHMARK.json, then makes one ``--trace 1`` run for the
per-layer split.  The entry is written to ``bench/trajectory/BENCH_<label>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [line[2:] for line in lines if line.startswith("# ")]


def layer_shares(metrics: dict) -> dict[str, float]:
    """Traced self time summed per clams layer."""
    seconds: dict[str, float] = {}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            seconds[layer] = seconds.get(layer, 0.0) + m["value"]
    return seconds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    failures = {w: 0 for w in args.workloads}
    env_line = ""
    for seed in seeds:
        for workload in args.workloads:
            result, notes = run(workload, seed, args.seconds, 0)
            env_line = next(n for n in notes if n.startswith("env "))
            failures[workload] += result["failed"]
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    entry = {"label": args.label, "env": json.loads(env_line[4:]), "seconds": args.seconds,
             "seeds": list(seeds), "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        e2e = {}
        for name, vals in values[workload].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            e2e[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds[name], "values": vals}
            flag = "ok" if spread <= bounds[name] / 3 else "WIDE"
            if name != "setup_s" and spread > bounds[name]:
                flag, steady = "OVER BOUND", False
            print(f"{workload:9s} {name:13s} median {statistics.median(vals):10.5g} "
                  f"spread {spread:7.2%} bound {bounds[name]:.0%} {flag}")
        traced, notes = run(workload, args.first_seed, args.seconds, 1)
        failures[workload] += traced["failed"]
        shares = layer_shares(traced["metrics"])
        total = sum(shares.values())
        entry["workloads"][workload] = {
            "end_to_end": e2e,
            "failed": failures[workload],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "layer_self_share": {k: v / total for k, v in
                                 sorted(shares.items(), key=lambda kv: -kv[1])},
            "trace_notes": [n for n in notes if not n.startswith("env ")],
        }
        print(f"{workload}: layer shares " + ", ".join(
            f"{k} {v:.0%}" for k, v in entry["workloads"][workload]["layer_self_share"].items()))
    out = BENCH / "trajectory" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}; failures {failures}; "
          f"{'steady' if steady else 'NOT steady'}")
    return 0 if steady and not any(failures.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
