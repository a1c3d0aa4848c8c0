"""Command-line front end: steady states, sweeps, the Rb-85 model, and rate tables.

Subcommands
-----------
steady          one steady state (full chain or reduced model) and its peak set
sweep-detuning  height ratios against the two-photon detuning, full vs reduced
sweep-rabi      height ratios against drive strength on a log grid
rb85            the 16-state Zeeman model, optionally the 13-level chain
rates           multi-photon transition-rate table
selftest        quick oracle-equivalence checks

Configuration files are flat ``key = value`` text ('#' starts a comment);
frequencies are ordinary MHz and are converted to angular rad/us on load (see
:mod:`clams.units`).  Recognized keys mirror the long command-line flags
(``rabi_mhz``, ``gamma_mhz``, ...); flags override file values.

Every CSV starts with a ``# config-hash:`` provenance comment followed by a
one-line header; floats are written with 17 significant digits (an exact zero
as ``0``) so identical configurations produce byte-identical files.  Complex
matrices are dumped with real and imaginary parts interleaved column-wise
(re[i,0], im[i,0], re[i,1], ...).  Exit codes: 0 success, 1 solver failure,
2 configuration error; errors are also emitted as one-line JSON on stderr.

Sweeps build the generator stack of each model from two pieces, L(x) = A + x B
(x is the drive, the two-photon detuning, or the reduced model's hopping rate),
in chunks that reuse one buffer and are solved by one batched LU call each; the
peak weights of all points are taken at once.  ``--parallel`` is ignored.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import effective, rb85, spectrum
from .level_system import SystemParams, ground_indices, raman_detunings
from .liouvillian import (
    PropagationError,
    SteadyStateError,
    affine_steady_states,
    build_generator,
    cascaded_lambda_graph,
    steady_state,
)
from .rates import MAX_DETUNED_ORDER, rate_ratio, transition_amplitude
from .units import angular_to_mhz, mhz_to_angular

__all__ = ["ConfigError", "main", "parse_config_file"]


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "n_levels": "5",
    "rabi_mhz": str(rb85.DEFAULT_RABI_FRACTION * rb85.DEFAULT_GAMMA_MHZ),
    "gamma_mhz": str(rb85.DEFAULT_GAMMA_MHZ),
    "gamma_prime_mhz": str(rb85.DEFAULT_GAMMA_PRIME_MHZ),
    "detunings_mhz": "",
    "delta_omega_s_mhz": str(rb85.DEFAULT_SPLITTING_MHZ),
    "threshold": str(spectrum.DEFAULT_DISPLAY_THRESHOLD),
    "seed": "0",
    "format": "csv",
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value configuration file."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value
    return out


def _resolve(args: argparse.Namespace, cfg: dict[str, str], key: str, default: str | None = None):
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return str(flag_value)
    if key in cfg:
        return cfg[key]
    if default is not None:
        return default
    return _DEFAULTS.get(key)


def _as_float(value: str, key: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return out


def _as_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _resolve_system(args, cfg) -> tuple[SystemParams, dict[str, str]]:
    used = {
        key: _resolve(args, cfg, key)
        for key in (
            "n_levels",
            "rabi_mhz",
            "gamma_mhz",
            "gamma_prime_mhz",
            "detunings_mhz",
            "delta_omega_s_mhz",
        )
    }
    n_levels = _as_int(used["n_levels"], "n_levels")
    raw_detunings = used["detunings_mhz"].strip()
    if raw_detunings:
        detunings = tuple(
            mhz_to_angular(_as_float(v.strip(), "detunings_mhz"))
            for v in raw_detunings.split(",")
        )
    else:
        detunings = (0.0,) * max(n_levels - 1, 0)
    params = SystemParams(
        n_levels=n_levels,
        rabi=mhz_to_angular(_as_float(used["rabi_mhz"], "rabi_mhz")),
        gamma=mhz_to_angular(_as_float(used["gamma_mhz"], "gamma_mhz")),
        gamma_prime=mhz_to_angular(_as_float(used["gamma_prime_mhz"], "gamma_prime_mhz")),
        detunings=detunings,
        delta_omega_s=mhz_to_angular(_as_float(used["delta_omega_s_mhz"], "delta_omega_s_mhz")),
    )
    return params, used


def config_digest(used: dict[str, str]) -> str:
    blob = "\n".join(f"{k}={v}" for k, v in sorted(used.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------


_FLOAT_FORMAT = "%.17g"  # 17 significant digits: every double reads back exactly
_ZERO = _FLOAT_FORMAT % 0.0


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FORMAT % float(value)
    return str(value)


def _write_lines(path: Path, header: list[str], lines, digest: str) -> None:
    """The CSV layout of every writer: provenance comment, header row, ``lines``."""
    path.write_text("\n".join([f"# config-hash: {digest}", ",".join(header), *lines]) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list], digest: str) -> None:
    _write_lines(path, header, (",".join(_fmt(v) for v in row) for row in rows), digest)


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_complex_matrix_csv(path: Path, matrix: np.ndarray, digest: str) -> None:
    """Dump a complex matrix with interleaved real/imaginary columns.

    The bytes are those of ``_fmt`` on every part, but only the parts that are
    not +0.0 (nonzeros, -0.0, NaN, +-inf) are formatted: generators are mostly
    exact zeros, and each of those is written as ``_ZERO``.
    """
    header = [f"{part}_{j}" for j in range(matrix.shape[1]) for part in ("re", "im")]
    flat = np.ascontiguousarray(matrix, dtype=complex).view(float).ravel()
    cells = [_ZERO] * flat.size
    formatted = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    for k, value in zip(formatted.tolist(), flat[formatted].tolist()):
        cells[k] = _FLOAT_FORMAT % value
    width = len(header)
    lines = (",".join(cells[k : k + width]) for k in range(0, flat.size, width))
    _write_lines(path, header, lines, digest)


def _peakset_payload(peaks: spectrum.PeakSet, threshold: float) -> dict:
    fundamental = peaks.fundamental_weight
    return {
        "delta_omega_s_mhz": angular_to_mhz(peaks.delta_omega_s),
        "threshold": threshold,
        "visible": [p.n for p in spectrum.visible_peaks(peaks, threshold)] if fundamental > 0 else [],
        "peaks": [
            {
                "n": p.n,
                "frequency_mhz": angular_to_mhz(p.frequency),
                "weight": p.weight,
                "ratio_to_fundamental": (p.weight / fundamental) if fundamental > 0 else None,
                "contributors": [[label, w] for label, w in p.contributors],
            }
            for p in peaks.peaks
        ],
    }


def _write_peaks(
    out: Path, stem: str, peaks: spectrum.PeakSet, fmt: str, threshold: float, digest: str
) -> None:
    """``<stem>_peaks.csv`` and/or ``<stem>_peaks.json``, as ``fmt`` says."""
    if fmt in ("csv", "both"):
        fundamental = peaks.fundamental_weight
        rows = [
            [p.n, angular_to_mhz(p.frequency), p.weight,
             p.weight / fundamental if fundamental > 0 else float("nan")]
            for p in peaks.peaks
        ]
        header = ["n", "frequency_mhz", "weight", "ratio_to_fundamental"]
        write_csv(out / f"{stem}_peaks.csv", header, rows, digest)
    if fmt in ("json", "both"):
        write_json(out / f"{stem}_peaks.json", _peakset_payload(peaks, threshold))


def _fit_payload(fit: spectrum.LogLinearFit) -> dict:
    return {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}


def _out_dir(args, cfg) -> Path:
    out = Path(_resolve(args, cfg, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_steady(args, cfg) -> int:
    params, used = _resolve_system(args, cfg)
    threshold = _as_float(_resolve(args, cfg, "threshold"), "threshold")
    used["threshold"] = _fmt(threshold)
    used["effective"] = str(bool(args.effective))
    digest = config_digest(used)
    out = _out_dir(args, cfg)

    if args.effective:
        gen = effective.reduce(params)
        rho = effective.effective_steady_state(gen)
        ground = rho.matrix
    else:
        gen = build_generator(cascaded_lambda_graph(params))
        rho = steady_state(gen)
        gidx = ground_indices(params.n_levels)
        ground = rho.matrix[np.ix_(gidx, gidx)]
    if args.dump_generator:
        write_complex_matrix_csv(out / "steady_generator.csv", gen.matrix, digest)

    peaks = spectrum.coherence_peaks(ground, params.delta_omega_s)
    write_complex_matrix_csv(out / "steady_rho.csv", rho.matrix, digest)
    _write_peaks(out, "steady", peaks, _resolve(args, cfg, "format"), threshold, digest)
    return 0


def _chain_generator(params: SystemParams) -> np.ndarray:
    return build_generator(cascaded_lambda_graph(params)).matrix


def _reduced_generator(params: SystemParams, j_hop: float) -> np.ndarray:
    return effective.build_effective_generator(
        params.n_levels, j_hop, params.gamma_prime, params.detunings
    ).matrix


def _sweep_rows(params: SystemParams, chain_at, xs, reduced_at, js) -> list[list[float]]:
    """Rows [w1_full, w1_eff, h21_full, h21_eff, ...] at the points ``xs`` of the
    full chain ``chain_at(x)`` and ``js`` of the reduced model ``reduced_at(j)``.
    Each generator family is solved as base + x * slope, so it must be affine
    in its argument, as it is in the drive, the detunings and the hopping rate."""
    models = []
    for build, points, gidx in (
        (chain_at, xs, ground_indices(params.n_levels)),
        (reduced_at, js, np.arange(params.n_ground)),
    ):
        base = build(0.0)
        rho = affine_steady_states(base, build(1.0) - base, points)
        models.append(spectrum.weight_ratios(spectrum.peak_weights(rho[:, gidx][:, :, gidx])))
    return np.stack(models, axis=-1).reshape(len(models[0]), -1).tolist()


def _sweep_header(params: SystemParams) -> list[str]:
    names = ["w1", *(f"h{n}1" for n in range(2, params.n_ground))]
    return [f"{name}_{model}" for name in names for model in ("full", "eff")]


def cmd_sweep_detuning(args, cfg) -> int:
    params, used = _resolve_system(args, cfg)
    start = _resolve(args, cfg, "start_mhz", cfg.get("sweep_start_mhz"))
    stop = _resolve(args, cfg, "stop_mhz", cfg.get("sweep_stop_mhz"))
    count = _resolve(args, cfg, "count", cfg.get("sweep_count"))
    if start is None or stop is None or count is None:
        raise ConfigError("sweep-detuning needs --start-mhz, --stop-mhz, and --count")
    start, stop = _as_float(start, "start_mhz"), _as_float(stop, "stop_mhz")
    count = _as_int(count, "count")
    if count < 2:
        raise ConfigError("sweep count must be >= 2")
    spacing = _resolve(args, cfg, "spacing", cfg.get("sweep_spacing", "linear")) or "linear"
    grid = _make_grid(start, stop, count, spacing)
    used.update(
        start_mhz=_fmt(start), stop_mhz=_fmt(stop), count=str(count), spacing=spacing
    )
    digest = config_digest(used)
    out = _out_dir(args, cfg)

    def at(delta: float) -> SystemParams:
        return replace(params, detunings=raman_detunings(params.n_levels, delta))

    deltas = [mhz_to_angular(v) for v in grid]
    rows = _sweep_rows(
        params,
        lambda x: _chain_generator(at(x)), deltas,
        lambda x: _reduced_generator(at(x), params.hopping_rate), deltas,
    )
    rows = [[delta_mhz, *row] for delta_mhz, row in zip(grid, rows)]
    header = ["delta_mhz", *_sweep_header(params)]
    write_csv(out / "sweep_detuning.csv", header, rows, digest)
    return 0


def cmd_sweep_rabi(args, cfg) -> int:
    params, used = _resolve_system(args, cfg)
    omega_min = _as_float(_resolve(args, cfg, "omega_min", "1e-4"), "omega_min")
    omega_max = _as_float(_resolve(args, cfg, "omega_max", "5e-2"), "omega_max")
    count = _as_int(_resolve(args, cfg, "count", "41"), "count")
    if count < 2:
        raise ConfigError("sweep count must be >= 2")
    spacing = _resolve(args, cfg, "spacing", "log") or "log"
    grid = _make_grid(omega_min, omega_max, count, spacing)
    used.update(
        omega_min=_fmt(omega_min), omega_max=_fmt(omega_max), count=str(count), spacing=spacing
    )
    digest = config_digest(used)
    out = _out_dir(args, cfg)

    rabis = grid * params.gamma
    driven = rabis[rabis != 0.0]
    solved = iter(_sweep_rows(
        params,
        lambda x: _chain_generator(replace(params, rabi=x)), driven,
        lambda j: _reduced_generator(params, j), driven**2 / params.gamma,
    ))
    rows = []
    for frac, rabi in zip(grid, rabis):
        if rabi == 0.0:
            nans = [float("nan")] * (2 * params.n_ground - 4)
            rows.append([frac, 0.0, *nans, "zero-fundamental"])
        else:
            jrel = rabi**2 / params.gamma / params.gamma_prime
            rows.append([frac, jrel, *next(solved)[2:], "ok"])
    header = ["omega_over_gamma", "j_hop_over_gamma_prime", *_sweep_header(params)[2:], "flag"]
    write_csv(out / "sweep_rabi.csv", header, rows, digest)
    return 0


def cmd_rb85(args, cfg) -> int:
    gamma_mhz = _as_float(_resolve(args, cfg, "gamma_mhz"), "gamma_mhz")
    gamma_prime_mhz = _as_float(_resolve(args, cfg, "gamma_prime_mhz"), "gamma_prime_mhz")
    splitting_mhz = _as_float(
        _resolve(args, cfg, "splitting_mhz", str(rb85.DEFAULT_SPLITTING_MHZ)), "splitting_mhz"
    )
    excited_splitting_mhz = _as_float(
        _resolve(args, cfg, "excited_splitting_mhz", _fmt(splitting_mhz)), "excited_splitting_mhz"
    )
    dws_mhz = _as_float(
        _resolve(args, cfg, "delta_omega_s_mhz", _fmt(splitting_mhz)), "delta_omega_s_mhz"
    )
    line_detuning_mhz = _as_float(
        _resolve(args, cfg, "line_detuning_mhz", "0"), "line_detuning_mhz"
    )
    # explicit rabi_mhz (flag, then config) wins over the gamma-fraction form
    rabi_mhz_raw = getattr(args, "rabi_mhz", None)
    if rabi_mhz_raw is None and getattr(args, "rabi_fraction", None) is None:
        rabi_mhz_raw = cfg.get("rabi_mhz")
    if rabi_mhz_raw is not None:
        rabi_mhz = _as_float(str(rabi_mhz_raw), "rabi_mhz")
    else:
        fraction = _as_float(
            _resolve(args, cfg, "rabi_fraction", str(rb85.DEFAULT_RABI_FRACTION)), "rabi_fraction"
        )
        rabi_mhz = fraction * gamma_mhz
    offset_branch = _resolve(args, cfg, "offset_branch", "sigma+") or "sigma+"
    if offset_branch not in ("sigma+", "pi"):
        raise ConfigError("offset_branch must be 'sigma+' or 'pi'")
    threshold = _as_float(_resolve(args, cfg, "threshold"), "threshold")

    used = {
        "gamma_mhz": _fmt(gamma_mhz),
        "gamma_prime_mhz": _fmt(gamma_prime_mhz),
        "splitting_mhz": _fmt(splitting_mhz),
        "excited_splitting_mhz": _fmt(excited_splitting_mhz),
        "delta_omega_s_mhz": _fmt(dws_mhz),
        "line_detuning_mhz": _fmt(line_detuning_mhz),
        "rabi_mhz": _fmt(rabi_mhz),
        "offset_branch": offset_branch,
        "threshold": _fmt(threshold),
    }
    digest = config_digest(used)
    out = _out_dir(args, cfg)

    rabi = mhz_to_angular(rabi_mhz)
    gamma = mhz_to_angular(gamma_mhz)
    gamma_prime = mhz_to_angular(gamma_prime_mhz)
    dws = mhz_to_angular(dws_mhz)
    line_detuning = mhz_to_angular(line_detuning_mhz)
    sigma_offset = dws if offset_branch == "sigma+" else 0.0
    pi_offset = dws if offset_branch == "pi" else 0.0
    drives = (
        rb85.DriveField("sigma+", rabi, line_detuning, sigma_offset),
        rb85.DriveField("pi", rabi, line_detuning, pi_offset),
    )
    graph = rb85.build_full_model(
        rb85.ZeemanManifold(rb85.F_GROUND, mhz_to_angular(splitting_mhz)),
        rb85.ZeemanManifold(rb85.F_EXCITED, mhz_to_angular(excited_splitting_mhz)),
        drives,
        gamma,
        gamma_prime,
    )
    rho = steady_state(build_generator(graph))
    peaks = spectrum.coherence_peaks(rb85.ground_block(rho), dws, labels=rb85.GROUND_M)

    fmt = _resolve(args, cfg, "format")
    _write_peaks(out, "rb85", peaks, fmt, threshold, digest)

    summary: dict = {
        "config_hash": digest,
        "j_hop_khz": 1e3 * angular_to_mhz(rabi**2 / gamma),
        "visible_peaks": len(spectrum.visible_peaks(peaks, threshold))
        if peaks.fundamental_weight > 0
        else 0,
        "threshold": threshold,
    }
    if peaks.fundamental_weight > 0:
        summary["full_model_fit"] = _fit_payload(spectrum.loglinear_fit(peaks))
    else:
        summary["flag"] = "zero-fundamental"

    if args.with_truncated_13:
        params13 = SystemParams(
            n_levels=13,
            rabi=rabi,
            gamma=gamma,
            gamma_prime=gamma_prime,
            detunings=(0.0,) * 12,
            delta_omega_s=dws,
        )
        rho13 = steady_state(build_generator(rb85.build_truncated_13(params13)))
        gidx = ground_indices(13)
        peaks13 = spectrum.coherence_peaks(rho13.matrix[np.ix_(gidx, gidx)], dws)
        _write_peaks(out, "rb85_truncated13", peaks13, fmt, threshold, digest)
        if peaks13.fundamental_weight > 0 and peaks.fundamental_weight > 0:
            fit13 = spectrum.loglinear_fit(peaks13)
            summary["truncated13_fit"] = _fit_payload(fit13)
            summary["slope_comparison"] = (
                "full model falls faster than the 13-level chain"
                if summary["full_model_fit"]["slope"] < fit13.slope
                else "13-level chain falls faster than the full model"
            )
    write_json(out / "rb85_summary.json", summary)
    return 0


def cmd_rates(args, cfg) -> int:
    params, used = _resolve_system(args, cfg)
    digest = config_digest(used)
    out = _out_dir(args, cfg)
    resonant_params = replace(params, detunings=(0.0,) * (params.n_levels - 1))
    rows = []
    detuned_input = any(d != 0.0 for d in params.detunings)
    for n in range(1, params.n_ground):
        if detuned_input and n <= MAX_DETUNED_ORDER:
            res = transition_amplitude(params, n)
            mode = "detuned"
        else:
            res = transition_amplitude(resonant_params, n)
            mode = "resonant-only" if detuned_input else "resonant"
        rows.append(
            [
                n,
                res.order,
                res.amplitude,
                rate_ratio(params, n),
                angular_to_mhz(res.resonance_frequency),
                int(res.resonant),
                mode,
            ]
        )
    write_csv(
        out / "rates.csv",
        ["n", "order", "amplitude", "ratio", "resonance_frequency_mhz", "resonant", "mode"],
        rows,
        digest,
    )
    return 0


def cmd_selftest(args, cfg) -> int:
    checks: list[tuple[str, bool, str]] = []
    seed = _as_int(_resolve(args, cfg, "seed"), "seed")
    rng = np.random.default_rng(seed)

    def run(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            checks.append((name, False, str(exc)))

    def check_closed_forms():
        points = [(j, d) for j in (1e-3, 1.0, 1e3) for d in (-5.0, 0.0, 5.0)]
        points += [
            (float(j), float(d))
            for j, d in zip(10.0 ** rng.uniform(-3, 3, 3), rng.uniform(-8.0, 8.0, 3))
        ]
        for n_levels in (3, 5):
            for j_rel, d_rel in points:
                gp = 1.0
                gen = effective.build_effective_generator(
                    n_levels, j_rel * gp, gp, raman_detunings(n_levels, d_rel * gp)
                )
                rho = effective.effective_steady_state(gen).matrix
                cf = effective.closed_form_coherences(n_levels, j_rel * gp, gp, d_rel * gp)
                for (l, lp), want in cf.coherences.items():
                    got = rho[(l - 1) // 2, (lp - 1) // 2]
                    if abs(got - want) > 1e-10 * abs(want):
                        raise AssertionError(
                            f"N={n_levels} coherence ({l},{lp}) off by "
                            f"{abs(got - want) / abs(want):.2e}"
                        )

    def check_rates():
        params = SystemParams(7, 0.01, 1.0, 1e-5, (0.0,) * 6, 1.0)
        for n in (1, 2, 3):
            detuned = transition_amplitude(params, n)
            expect = 2 * np.pi * params.hopping_rate ** (2 * n) / params.gamma_prime ** (2 * n - 2)
            if abs(detuned.amplitude - expect) > 1e-12 * expect:
                raise AssertionError(f"rate order {2 * n} mismatch")

    def check_cg():
        for m_e in rb85.EXCITED_M:
            total = sum(
                rb85.cg_weight(rb85.F_GROUND, m_e - q, q, rb85.F_EXCITED, m_e)
                for q in (-1, 0, 1)
                if abs(m_e - q) <= rb85.F_GROUND
            )
            if abs(total - 1.0) > 1e-12:
                raise AssertionError(f"branching out of m_e={m_e} sums to {total}")

    def check_anti_pt():
        for n_levels in (3, 5, 7, 13):
            gen = effective.build_effective_generator(n_levels, 0.7, 1.0)
            if effective.anti_pt_defect(gen) > 1e-14:
                raise AssertionError(f"anti-PT defect nonzero for N={n_levels}")
            mutant = effective.hopping_matrix((n_levels + 1) // 2, 0.7, imaginary=False)
            if effective.anti_pt_defect(mutant) < 0.7:
                raise AssertionError("Hermitian mutant not flagged")

    run("effective-vs-closed-form coherences (N=3, 5)", check_closed_forms)
    run("detuned rates reduce to resonant forms", check_rates)
    run("Clebsch-Gordan branching completeness", check_cg)
    run("anti-PT symmetry of the hopping term", check_anti_pt)

    ok = True
    for name, passed, msg in checks:
        line = f"{'PASS' if passed else 'FAIL'}  {name}"
        if msg:
            line += f"  ({msg})"
        print(line)
        ok = ok and passed
    return 0 if ok else 1


def _make_grid(start: float, stop: float, count: int, spacing: str) -> np.ndarray:
    if spacing == "linear":
        return np.linspace(start, stop, count)
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log spacing requires positive endpoints")
        return np.logspace(np.log10(start), np.log10(stop), count)
    raise ConfigError(f"unknown spacing {spacing!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-levels", dest="n_levels", type=int)
    p.add_argument("--rabi-mhz", dest="rabi_mhz", type=float)
    p.add_argument("--gamma-mhz", dest="gamma_mhz", type=float)
    p.add_argument("--gamma-prime-mhz", dest="gamma_prime_mhz", type=float)
    p.add_argument("--detunings-mhz", dest="detunings_mhz", type=str,
                   help="comma-separated, one per transition")
    p.add_argument("--delta-omega-s-mhz", dest="delta_omega_s_mhz", type=float)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, help="flat key=value configuration file")
    p.add_argument("--out", type=str, help="output directory (default: current)")
    p.add_argument("--format", choices=("csv", "json", "both"), dest="format")
    p.add_argument("--threshold", dest="threshold", type=float,
                   help="relative display cutoff for visible peaks")
    p.add_argument("--parallel", dest="parallel", type=int,
                   help="accepted for compatibility; has no effect (sweeps are batched)")
    p.add_argument("--seed", dest="seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clams",
        description="Driven cascaded-Lambda chains: steady states, coherence spectra, rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="solve one steady state and emit its peak set")
    _add_system_flags(p)
    _add_common_flags(p)
    p.add_argument("--effective", action="store_true", help="use the reduced ground-manifold model")
    p.add_argument("--dump-generator", action="store_true",
                   help="also dump the generator of the solved model (the reduced one "
                        "with --effective)")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("sweep-detuning", help="height ratios against two-photon detuning")
    _add_system_flags(p)
    _add_common_flags(p)
    p.add_argument("--start-mhz", dest="start_mhz", type=float)
    p.add_argument("--stop-mhz", dest="stop_mhz", type=float)
    p.add_argument("--count", dest="count", type=int)
    p.add_argument("--spacing", dest="spacing", choices=("linear", "log"))
    p.set_defaults(func=cmd_sweep_detuning)

    p = sub.add_parser("sweep-rabi", help="height ratios against drive strength")
    _add_system_flags(p)
    _add_common_flags(p)
    p.add_argument("--omega-min", dest="omega_min", type=float, help="lowest rabi/gamma")
    p.add_argument("--omega-max", dest="omega_max", type=float, help="highest rabi/gamma")
    p.add_argument("--count", dest="count", type=int)
    p.add_argument("--spacing", dest="spacing", choices=("linear", "log"))
    p.set_defaults(func=cmd_sweep_rabi)

    p = sub.add_parser("rb85", help="16-state Zeeman model of the driven D2 line")
    _add_common_flags(p)
    p.add_argument("--rabi-fraction", dest="rabi_fraction", type=float,
                   help="drive strength as a fraction of gamma")
    p.add_argument("--rabi-mhz", dest="rabi_mhz", type=float)
    p.add_argument("--gamma-mhz", dest="gamma_mhz", type=float)
    p.add_argument("--gamma-prime-mhz", dest="gamma_prime_mhz", type=float)
    p.add_argument("--splitting-mhz", dest="splitting_mhz", type=float)
    p.add_argument("--excited-splitting-mhz", dest="excited_splitting_mhz", type=float)
    p.add_argument("--delta-omega-s-mhz", dest="delta_omega_s_mhz", type=float)
    p.add_argument("--line-detuning-mhz", dest="line_detuning_mhz", type=float)
    p.add_argument("--offset-branch", dest="offset_branch", choices=("sigma+", "pi"),
                   help="which tone sits delta_omega_s above the other")
    p.add_argument("--with-truncated-13", action="store_true",
                   help="also run the 13-level comparison chain")
    p.set_defaults(func=cmd_rb85)

    p = sub.add_parser("rates", help="multi-photon transition-rate table")
    _add_system_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("selftest", help="run the oracle-equivalence checks")
    _add_common_flags(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config) if getattr(args, "config", None) else {}
        return args.func(args, cfg)
    except (ConfigError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 2
    except (SteadyStateError, PropagationError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
