"""Benchmark worker: one clams workload as a closed loop in one interpreter.

run.py starts this file with the BLAS/OpenMP thread variables pinned to 1 and
``src`` on ``PYTHONPATH``.  A single caller sends the next command only when
the previous one has returned.  Every command's output is checked after it
returns, outside its timed span; a command fails on an exception, a nonzero
exit code or a failed check.

Protocol on standard output: the line ``READY`` once the first command has
completed (run.py times set-up up to it), ``REFERENCE <seconds>`` with the
reference kernel's time right after it, then one JSON line with the results.
"""
from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import clams.cli
import clams.effective
import clams.liouvillian
from clams.level_system import SystemParams
from clams.units import mhz_to_angular


# Output checks; the tolerances are the library's own acceptance bounds.
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIG_FLOOR = -1e-10
CLOSED_FORM_RTOL = 1e-9
PROPAGATE_ATOL = 1e-6  # criterion 09
VALIDATE_TOL = 1e-9  # criterion 09 propagator tolerance


class CheckError(AssertionError):
    """A command returned, but its output is wrong."""


@dataclass
class Op:
    """One command.  ``run`` is timed and returns what ``check`` inspects;
    ``points`` counts the models it solves; ``corrupt`` damages a result."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    points: int
    corrupt: Callable[[object], None]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _flags(pairs: dict[str, str]) -> list[str]:
    return [item for pair in pairs.items() for item in pair]


# ---------------------------------------------------------------------------
# output readers and checks
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    _expect(len(lines) >= 2 and lines[0].startswith("# config-hash: "), f"{path.name}: no header")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def read_complex_matrix(path: Path) -> np.ndarray:
    _, rows = read_csv(path)
    a = np.array(rows, dtype=float)
    return a[:, 0::2] + 1j * a[:, 1::2]


def check_density_matrix(rho: np.ndarray, what: str) -> None:
    _expect(rho.ndim == 2 and rho.shape[0] == rho.shape[1], f"{what}: not square")
    _expect(bool(np.all(np.isfinite(rho))), f"{what}: non-finite entries")
    _expect(abs(np.trace(rho) - 1.0) <= TRACE_ATOL, f"{what}: trace {np.trace(rho)}")
    _expect(np.abs(rho - rho.conj().T).max() <= HERM_ATOL, f"{what}: not Hermitian")
    lam = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    _expect(lam >= EIG_FLOOR, f"{what}: minimum eigenvalue {lam:.3e}")


def check_table(path: Path, n_rows: int, n_cols: int, n_numeric: int) -> list[list[str]]:
    """Row and column counts, and finite numbers in the first ``n_numeric`` columns."""
    header, rows = read_csv(path)
    _expect(len(header) == n_cols, f"{path.name}: {len(header)} columns, want {n_cols}")
    _expect(len(rows) == n_rows, f"{path.name}: {len(rows)} rows, want {n_rows}")
    for row in rows:
        _expect(len(row) == n_cols, f"{path.name}: ragged row {row}")
        _expect(bool(np.all(np.isfinite(np.array(row[:n_numeric], dtype=float)))),
                f"{path.name}: non-finite row {row}")
    return rows


def check_peaks_json(path: Path, n_peaks: int) -> list[float]:
    payload = json.loads(path.read_text())
    weights = [p["weight"] for p in payload["peaks"]]
    _expect(len(weights) == n_peaks, f"{path.name}: {len(weights)} peaks, want {n_peaks}")
    _expect(all(math.isfinite(w) and w >= 0 for w in weights), f"{path.name}: bad weights")
    _expect(weights[0] > 0, f"{path.name}: zero fundamental")
    return weights


def same_files(expected: Path, got: Path) -> None:
    names = sorted(p.name for p in expected.iterdir())
    _expect(sorted(p.name for p in got.iterdir()) == names, f"{got.name}: other file set")
    _, mismatch, errors = filecmp.cmpfiles(expected, got, names, shallow=False)
    _expect(not mismatch and not errors, f"{got.name}: differs in {mismatch + errors}")


def truncate_first_file(out: Path) -> Callable[[object], None]:
    def corrupt(_result) -> None:
        target = sorted(p for p in out.iterdir() if p.is_file())[0]
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])

    return corrupt


def cli_op(label: str, argv: list[str], out: Path, points: int, check) -> Op:
    """Run ``clams.cli.main`` in process; ``check(out, stdout)`` inspects the outputs."""
    out.mkdir(parents=True, exist_ok=True)

    def run() -> str:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = clams.cli.main([*argv, "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{label}: exit code {rc}: {stderr.getvalue().strip()}")
        return stdout.getvalue()

    return Op(label, run, lambda stdout: check(out, stdout), points, truncate_first_file(out))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """``warmup()`` runs untimed before the loop (its first op ends set-up),
    ``next_round()`` gives the loop's next commands, ``final()`` runs after it."""

    def __init__(self, rng: np.random.Generator, work: Path):
        self.rng = rng
        self.work = work

    def final(self) -> list[Op]:
        return []


class Sweep(Workload):
    """README sweeps: sweep-detuning N=5 and N=13 (41 points), sweep-rabi N=7
    (201 log points, --parallel 2).  Every round draws new continuous parameters."""

    def _round(self, tag: str) -> list[tuple[str, list[str], int, Callable]]:
        r = self.rng
        cmds = []
        for n in (5, 13):
            flags = {
                "--rabi-mhz": _fmt(r.uniform(13.0, 17.5)),
                "--gamma-mhz": _fmt(r.uniform(1800.0, 2000.0)),
                "--gamma-prime-mhz": _fmt(r.uniform(0.15, 0.25)),
                "--delta-omega-s-mhz": _fmt(r.uniform(2.0, 2.7)),
                "--start-mhz": _fmt(r.uniform(-2.5, -1.5)),
                "--stop-mhz": _fmt(r.uniform(1.5, 2.5)),
                "--count": "41",
            }
            argv = ["sweep-detuning", "--n-levels", str(n), *_flags(flags)]
            check = closed_form_check(flags) if n == 5 else detuning13_check
            cmds.append((f"{tag}detuning{n}", argv, 2 * 41, check))
        flags = {
            "--omega-min": _fmt(r.uniform(0.8e-4, 1.25e-4)),
            "--omega-max": _fmt(r.uniform(4e-2, 6e-2)),
            "--gamma-mhz": _fmt(r.uniform(1800.0, 2000.0)),
            "--gamma-prime-mhz": _fmt(r.uniform(0.015, 0.025)),
            "--delta-omega-s-mhz": _fmt(r.uniform(2.0, 2.7)),
            "--count": "201",
            "--parallel": "2",
        }
        cmds.append((f"{tag}rabi7", ["sweep-rabi", "--n-levels", "7", *_flags(flags)], 2 * 201,
                     rabi7_check))
        return cmds

    def _ops(self, cmds) -> list[Op]:
        return [cli_op(label, argv, self.work / label, points, lambda out, _s, c=check: c(out))
                for label, argv, points, check in cmds]

    def warmup(self) -> list[Op]:
        self.first = self._round("warm-")
        return self._ops(self.first)

    def next_round(self) -> list[Op]:
        return self._ops(self._round(""))

    def final(self) -> list[Op]:
        """Repeat the warm-up commands: each must write the same CSV byte for byte."""
        return [
            cli_op("repeat-" + label, argv, self.work / ("repeat-" + label), points,
                   lambda out, _s, label=label: same_files(self.work / label, out))
            for label, argv, points, _check in self.first
        ]


def closed_form_check(flags: dict[str, str]) -> Callable[[Path], None]:
    """Every reduced N=5 point against ``effective.closed_form_coherences`` (exact)."""
    params = SystemParams(
        n_levels=5,
        rabi=mhz_to_angular(float(flags["--rabi-mhz"])),
        gamma=mhz_to_angular(float(flags["--gamma-mhz"])),
        gamma_prime=mhz_to_angular(float(flags["--gamma-prime-mhz"])),
        detunings=(0.0,) * 4,
        delta_omega_s=mhz_to_angular(float(flags["--delta-omega-s-mhz"])),
    )

    def check(out: Path) -> None:
        for row in check_table(out / "sweep_detuning.csv", 41, 5, 5):
            delta = mhz_to_angular(float(row[0]))
            c = clams.effective.closed_form_coherences(
                5, params.hopping_rate, params.gamma_prime, delta
            ).coherences
            w1 = abs(c[(1, 3)]) ** 2 + abs(c[(3, 5)]) ** 2
            for got, want in ((float(row[2]), w1), (float(row[4]), abs(c[(1, 5)]) ** 2 / w1)):
                _expect(abs(got - want) <= CLOSED_FORM_RTOL * abs(want),
                        f"N=5 reduced point at {row[0]} MHz: {got!r} vs closed form {want!r}")

    return check


def detuning13_check(out: Path) -> None:
    check_table(out / "sweep_detuning.csv", 41, 3 + 2 * 5, 3 + 2 * 5)


def rabi7_check(out: Path) -> None:
    rows = check_table(out / "sweep_rabi.csv", 201, 2 + 2 * 2 + 1, 2 + 2 * 2)
    _expect(all(row[-1] == "ok" for row in rows), "sweep-rabi: flagged points")


class Models(Workload):
    """Few large models: rb85 with the truncated 13-level chain (both formats),
    steady N=21 with the generator dump, steady N=13 reduced, and the N=13
    rate table."""

    def _chain_flags(self) -> dict[str, str]:
        r = self.rng
        return {
            "--rabi-mhz": _fmt(r.uniform(12.0, 18.0)),
            "--gamma-mhz": _fmt(r.uniform(1800.0, 2000.0)),
            "--gamma-prime-mhz": _fmt(r.uniform(0.15, 0.25)),
            "--delta-omega-s-mhz": _fmt(r.uniform(2.0, 2.7)),
        }

    def _ops(self, tag: str, rb85_flags: dict[str, str]) -> list[Op]:
        work = self.work
        rb85_argv = ["rb85", "--with-truncated-13", "--format", "both", *_flags(rb85_flags)]
        readme_point = not rb85_flags
        ops = [cli_op(f"{tag}rb85", rb85_argv, work / f"{tag}rb85", 2,
                      lambda out, _s: rb85_check(out, readme_point))]
        flags21 = self._chain_flags()
        ops.append(cli_op(f"{tag}steady21",
                          ["steady", "--n-levels", "21", "--dump-generator", *_flags(flags21)],
                          work / f"{tag}steady21", 1,
                          lambda out, _s: steady21_check(out, flags21)))
        ops.append(cli_op(f"{tag}steady13e",
                          ["steady", "--n-levels", "13", "--effective", *_flags(self._chain_flags())],
                          work / f"{tag}steady13e", 1,
                          lambda out, _s: check_density_matrix(
                              read_complex_matrix(out / "steady_rho.csv"), "N=13 reduced rho")))
        ops.append(cli_op(f"{tag}rates13", ["rates", "--n-levels", "13", *_flags(self._chain_flags())],
                          work / f"{tag}rates13", 0, lambda out, _s: rates13_check(out)))
        return ops

    def warmup(self) -> list[Op]:
        return self._ops("warm-", {})  # the README rb85 point

    def next_round(self) -> list[Op]:
        r = self.rng
        return self._ops("", {"--rabi-fraction": _fmt(r.uniform(6e-3, 1e-2)),
                              "--line-detuning-mhz": _fmt(r.uniform(-20.0, 20.0))})


def rb85_check(out: Path, readme_point: bool) -> None:
    weights = check_peaks_json(out / "rb85_peaks.json", 6)
    check_peaks_json(out / "rb85_truncated13_peaks.json", 6)
    check_table(out / "rb85_peaks.csv", 6, 4, 4)
    check_table(out / "rb85_truncated13_peaks.csv", 6, 4, 4)
    summary = json.loads((out / "rb85_summary.json").read_text())
    _expect("full_model_fit" in summary and "truncated13_fit" in summary, "rb85: missing fits")
    if readme_point:  # criterion 08
        _expect(all(b < a for a, b in zip(weights, weights[1:])), "rb85: peaks not monotone")
        _expect(summary["full_model_fit"]["r_squared"] >= 0.98, "rb85: r^2 < 0.98")
        _expect(summary["visible_peaks"] == 5, f"rb85: {summary['visible_peaks']} visible")


def rates13_check(out: Path) -> None:
    rows = check_table(out / "rates.csv", 6, 7, 6)
    _expect(all(float(row[2]) > 0 for row in rows), "rates: non-positive amplitude")


def steady21_check(out: Path, flags: dict[str, str]) -> None:
    check_density_matrix(read_complex_matrix(out / "steady_rho.csv"), "N=21 rho")
    check_table(out / "steady_peaks.csv", 10, 4, 4)
    params = SystemParams(
        n_levels=21,
        rabi=mhz_to_angular(float(flags["--rabi-mhz"])),
        gamma=mhz_to_angular(float(flags["--gamma-mhz"])),
        gamma_prime=mhz_to_angular(float(flags["--gamma-prime-mhz"])),
        detunings=(0.0,) * 20,
        delta_omega_s=mhz_to_angular(float(flags["--delta-omega-s-mhz"])),
    )
    in_memory = clams.liouvillian.build_generator(clams.liouvillian.cascaded_lambda_graph(params))
    _expect(np.array_equal(read_complex_matrix(out / "steady_generator.csv"), in_memory.matrix),
            "N=21 generator dump does not read back")


class Validate(Workload):
    """Criterion 09's route on random connected graphs, d = 2..7: build, steady
    state, and propagate from the maximally mixed state to 30/gap at tol 1e-9.
    A round is a batch of graphs, so that its throughput averages over sizes."""

    batch = 16

    def warmup(self) -> list[Op]:
        return [self._op(random_graph(self.rng))]

    def next_round(self) -> list[Op]:
        return [self._op(random_graph(self.rng)) for _ in range(self.batch)]

    def _op(self, graph) -> Op:

        def run():
            lv = clams.liouvillian
            gen = lv.build_generator(graph)
            rho_ss = lv.steady_state(gen)
            evals = np.linalg.eigvals(gen.matrix)
            gap = -max(ev.real for ev in evals if abs(ev) > 1e-10 * np.abs(evals).max())
            d = graph.n_states
            rho0 = lv.DensityMatrix(np.eye(d, dtype=complex) / d)
            return [rho_ss.matrix, lv.propagate(gen, rho0, 30.0 / gap, tol=VALIDATE_TOL).matrix]

        def check(result) -> None:
            rho_ss, rho_t = result
            check_density_matrix(rho_ss, f"d={graph.n_states} steady state")
            err = float(np.abs(rho_t - rho_ss).max())
            _expect(err < PROPAGATE_ATOL, f"d={graph.n_states}: propagate vs steady {err:.2e}")

        def corrupt(result) -> None:
            result[1] = result[1] + 1e-3

        return Op(f"graph-d{graph.n_states}", run, check, 2, corrupt)


def random_graph(rng: np.random.Generator) -> clams.liouvillian.CouplingGraph:
    """Connected graph as in criterion 09: a decay ring, extra random channels and
    a dense random Hermitian Hamiltonian."""
    d = int(rng.integers(2, 8))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    chans = [(i, (i + 1) % d, float(rng.uniform(0.5, 2.0))) for i in range(d)]
    for _ in range(int(rng.integers(0, d))):
        src, tgt = rng.choice(d, size=2, replace=False)
        chans.append((int(src), int(tgt), float(rng.uniform(0.5, 2.0))))
    return clams.liouvillian.CouplingGraph(
        n_states=d, hamiltonian=0.5 * (a + a.conj().T), population_decays=tuple(chans)
    )


WORKLOADS = {"sweep": Sweep, "models": Models, "validate": Validate}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Runner:
    """Executes and checks commands, counting attempts and failures."""

    def __init__(self) -> None:
        self.tracer = None  # when set, active only while a command runs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.corrupt_next = False
        self.reference = Reference()

    def execute(self, op: Op) -> tuple[float, bool]:
        """Run ``op``, then check it; returns (wall seconds of ``run``, passed)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed command is counted, not fatal
            return self._stop(t0), self._fail(op, exc)
        elapsed = self._stop(t0)
        try:
            if self.corrupt_next:
                self.corrupt_next = False
                op.corrupt(result)
            op.check(result)
        except Exception as exc:  # includes unreadable output
            return elapsed, self._fail(op, exc)
        return elapsed, True

    def _stop(self, t0: float) -> float:
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.active = False
        return elapsed

    def _fail(self, op: Op, exc: Exception) -> bool:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return False

    def loop(self, workload: Workload, seconds: float) -> dict:
        """Whole rounds until ``seconds`` have passed.  Returns every command as
        (label, wall seconds, round index) and every round as (solved models,
        command wall seconds, median time of the reference kernel before it)."""
        commands: list[tuple[str, float, int]] = []
        rounds: list[tuple[int, float, float]] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            ref = statistics.median(self.reference.seconds() for _ in range(3))
            spent, points = 0.0, 0
            for op in workload.next_round():
                elapsed, ok = self.execute(op)
                commands.append((op.label, elapsed, len(rounds)))
                spent += elapsed
                points += op.points if ok else 0
            rounds.append((points, spent, ref))
        return {"commands": commands, "rounds": rounds}


class Reference:
    """A fixed kernel, independent of clams, timed before every round: dense
    complex LU, Kronecker assembly and float formatting, the kinds of work the
    workloads do.  Its time tracks the speed of a shared machine, which drifts
    by tens of percent over seconds; run.py rescales command times by it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Every array stays below glibc's default 128 KiB mmap threshold, so the
        # kernel's time does not depend on how the workload left the heap.
        self.a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self.b = rng.normal(size=64) + 0j
        self.h = rng.normal(size=(8, 8)) + 0j
        self.eye = np.eye(8)
        self.x = rng.normal(size=1500)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            np.linalg.solve(self.a, self.b)
            np.kron(self.eye, self.h) - np.kron(self.h.T, self.eye)
        ",".join(f"{v:.17g}" for v in self.x)
        return time.perf_counter() - t0


def import_probe() -> dict:
    """Import clams in a fresh interpreter: seconds, whether scipy loaded, modules added."""
    code = (
        "import json, sys, time; before = len(sys.modules); t = time.perf_counter(); "
        "import clams; dt = time.perf_counter() - t; "
        "print(json.dumps({'s': dt, 'scipy': int('scipy' in sys.modules), "
        "'modules': len(sys.modules) - before}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout)


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-first-output", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), args.work)
    runner = Runner()
    for i, op in enumerate(workload.warmup()):
        runner.execute(op)
        if i == 0:
            print("READY", flush=True)
            ref = statistics.median(runner.reference.seconds() for _ in range(3))
            print(f"REFERENCE {ref!r}", flush=True)
            if args.setup_only:
                return 0
    runner.corrupt_next = args.corrupt_first_output

    result: dict = {}
    if args.trace:
        # Untraced and traced halves back to back give the tracing overhead.
        import tracer

        untraced = runner.loop(workload, args.seconds / 2)
        runner.tracer = tracer.Tracer()
        runner.tracer.install()
        traced = runner.loop(workload, args.seconds / 2)
        runner.tracer.uninstall()
        layers = runner.tracer.summary()
        runner.tracer = None
        probes = [import_probe() for _ in range(3)]
        result["layers"] = layers
        result["import"] = {
            "clams_s": statistics.median(p["s"] for p in probes),
            "scipy_loaded": max(p["scipy"] for p in probes),
            "modules": statistics.median(p["modules"] for p in probes),
        }
        result["untraced"] = untraced
        result["traced"] = traced
    else:
        result["untraced"] = runner.loop(workload, args.seconds)

    for op in workload.final():
        runner.execute(op)
    result["env"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": blas_version()}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
                  peak_rss_mb=rss_kb / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
