"""Command-line front end: steady states, sweeps, the Rb-85 model, and rate tables.

Subcommands
-----------
steady          one steady state (full chain or reduced model) and its peak set
sweep-detuning  height ratios against the two-photon detuning, full vs reduced
sweep-rabi      height ratios against drive strength on a log grid
rb85            the 16-state Zeeman model, optionally the 13-level chain
rates           multi-photon transition-rate table

Configuration files are flat ``key = value`` text ('#' starts a comment);
frequencies are ordinary MHz and are converted to angular rad/us on load (see
:mod:`clams.units`).  One table, ``_PARAMS``, gives every setting's type or
choices, default, subcommands and help.  Every long flag except ``--config`` and
the switches ``--effective``, ``--dump-generator`` and ``--with-truncated-13`` is
also a config key, spelled with underscores (``rabi_mhz``, ``gamma_mhz``, ...);
a flag overrides the file, and the file overrides the default.  Each subcommand
takes only the flags it reads: ``--format`` and ``--threshold`` belong to
``steady`` and ``rb85``, and ``--parallel`` to the two sweeps.  A key that no
subcommand knows, a switch, or a value outside a key's choices exits 2.

Every CSV starts with a ``# config-hash:`` provenance comment followed by a
one-line header; floats are written with 17 significant digits (an exact zero
as ``0``) and files as UTF-8 bytes with ``\n`` line ends, so identical configurations
produce byte-identical files for one numpy/BLAS build and BLAS thread count.  Complex
matrices are dumped with real and imaginary parts interleaved column-wise
(re[i,0], im[i,0], re[i,1], ...).  Exit codes: 0 success, 1 solver failure,
2 configuration error, a command line that argparse rejects included; errors are
also emitted as one-line JSON on stderr.  A command writes its files, and creates
``--out``, only once every model it solves is solved, so one that fails writes
nothing.  ``main`` may be called repeatedly in one process; the parser is built once.

Sweeps build the generators of each model from two pieces, L(x) = A + x B
(x is the drive, the two-photon detuning, or the reduced model's hopping rate),
and solve them batched, in chunks of points, by block elimination over
coherence orders: models with two or more orders beyond 0 take only the blocks
of the orders 0 and +q next to the diagonal of each L (the orders -q are their
conjugate mirror), and any other model is one block, one dense LU each.  Each
point is checked by its residual ||L v|| / (||L||_F ||v||), of graded models from
the rows of the orders 0 and +q alone (the rows -q are their conjugates).  The
peak weights of all points are taken at once.  ``--parallel`` is ignored.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import effective, rb85, spectrum
from .level_system import SystemParams, ground_indices, raman_detunings
from .liouvillian import (
    CouplingGraph,
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

_SWEEPS = ("sweep-detuning", "sweep-rabi")
_SYSTEM = ("steady", *_SWEEPS, "rates")
_ALL = (*_SYSTEM, "rb85")
_PEAKS = ("steady", "rb85")

# Every setting: (key, type or choices, default text, subcommands, help).  The flag is
# --key-with-dashes and the config-file key is the key itself.  A key whose default
# differs between subcommands has one row per default; None means no default.  bool rows
# are store_true switches, which only a flag can set.
_PARAMS = (
    ("n_levels", int, "5", _SYSTEM, "number of levels of the chain (odd, >= 3)"),
    ("rabi_mhz", float, str(rb85.DEFAULT_RABI_FRACTION * rb85.DEFAULT_GAMMA_MHZ), _SYSTEM,
     "drive strength"),
    ("rabi_mhz", float, None, ("rb85",), "drive strength (default: rabi_fraction * gamma)"),
    ("rabi_fraction", float, str(rb85.DEFAULT_RABI_FRACTION), ("rb85",), "drive strength / gamma"),
    ("gamma_mhz", float, str(rb85.DEFAULT_GAMMA_MHZ), (*_SYSTEM, "rb85"), "excited-state decay rate"),
    ("gamma_prime_mhz", float, str(rb85.DEFAULT_GAMMA_PRIME_MHZ), (*_SYSTEM, "rb85"),
     "ground-state relaxation rate"),
    ("detunings_mhz", str, "", _SYSTEM, "comma-separated, one per transition (default: all 0)"),
    ("delta_omega_s_mhz", float, str(rb85.DEFAULT_SPLITTING_MHZ), _SYSTEM, "offset of the two tones"),
    ("delta_omega_s_mhz", float, None, ("rb85",), "offset of the two tones (default: splitting)"),
    ("splitting_mhz", float, str(rb85.DEFAULT_SPLITTING_MHZ), ("rb85",), "ground Zeeman splitting"),
    ("excited_splitting_mhz", float, None, ("rb85",), "excited Zeeman splitting (default: splitting)"),
    ("line_detuning_mhz", float, "0", ("rb85",), "detuning of both tones from the line"),
    ("offset_branch", ("sigma+", "pi"), "sigma+", ("rb85",), "tone that sits delta_omega_s higher"),
    ("start_mhz", float, None, ("sweep-detuning",), "first two-photon detuning"),
    ("stop_mhz", float, None, ("sweep-detuning",), "last two-photon detuning"),
    ("omega_min", float, "1e-4", ("sweep-rabi",), "lowest rabi/gamma"),
    ("omega_max", float, "5e-2", ("sweep-rabi",), "highest rabi/gamma"),
    ("count", int, None, ("sweep-detuning",), "number of sweep points"),
    ("count", int, "41", ("sweep-rabi",), "number of sweep points"),
    ("spacing", ("linear", "log"), "linear", ("sweep-detuning",), "sweep grid"),
    ("spacing", ("linear", "log"), "log", ("sweep-rabi",), "sweep grid"),
    ("effective", bool, None, ("steady",), "use the reduced ground-manifold model"),
    ("dump_generator", bool, None, ("steady",),
     "also dump the generator of the solved model (the reduced one with --effective)"),
    ("with_truncated_13", bool, None, ("rb85",), "also run the 13-level comparison chain"),
    ("out", str, ".", _ALL, "output directory (default: current)"),
    ("format", ("csv", "json", "both"), "csv", _PEAKS, "peak-set file format"),
    ("threshold", float, str(spectrum.DEFAULT_DISPLAY_THRESHOLD), _PEAKS,
     "relative display cutoff for visible peaks"),
    ("parallel", int, None, _SWEEPS,
     "accepted for compatibility; has no effect (sweeps are batched)"),
)
_KINDS = {key: kind for key, kind, *_ in _PARAMS}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _settings(args: argparse.Namespace, cfg: dict[str, str]) -> dict[str, str | None]:
    """The text of every setting of ``args.command``: ``str`` of its flag's parsed value,
    else the config file's text as written, else the default (None if it has none).

    The subcommands parse their numbers from this text.  The chain's parameters are
    hashed as this text, so ``--gamma-mhz 1900`` (text ``1900.0``) and ``gamma_mhz =
    1.9e3`` give different config hashes; the other numbers are hashed as parsed.

    A config file may hold the keys of any subcommand, so that one file serves several.
    """
    for key in cfg:
        if key not in _KINDS:
            raise ConfigError(f"unknown config key {key!r}")
        if _KINDS[key] is bool:
            raise ConfigError(f"{key} is a switch, not a config key: use --{key.replace('_', '-')}")
    settings = {}
    for key, kind, default, commands, _ in _PARAMS:
        if args.command not in commands or kind is bool:
            continue
        flag = getattr(args, key)
        text = cfg.get(key, default) if flag is None else str(flag)
        if isinstance(kind, tuple) and text not in kind:
            raise ConfigError(f"{key} must be {' or '.join(map(repr, kind))}")
        settings[key] = text
    return settings


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


def _system(s: dict[str, str | None]) -> tuple[SystemParams, dict[str, str]]:
    """The chain's parameters, and their settings' text, which the config hash covers."""
    n_levels = _as_int(s["n_levels"], "n_levels")
    raw_detunings = s["detunings_mhz"].strip()
    if raw_detunings:
        detunings = tuple(
            mhz_to_angular(_as_float(v.strip(), "detunings_mhz"))
            for v in raw_detunings.split(",")
        )
    else:
        detunings = (0.0,) * max(n_levels - 1, 0)
    params = SystemParams(
        n_levels=n_levels,
        rabi=mhz_to_angular(_as_float(s["rabi_mhz"], "rabi_mhz")),
        gamma=mhz_to_angular(_as_float(s["gamma_mhz"], "gamma_mhz")),
        gamma_prime=mhz_to_angular(_as_float(s["gamma_prime_mhz"], "gamma_prime_mhz")),
        detunings=detunings,
        delta_omega_s=mhz_to_angular(_as_float(s["delta_omega_s_mhz"], "delta_omega_s_mhz")),
    )
    keys = ("n_levels", "rabi_mhz", "gamma_mhz", "gamma_prime_mhz", "detunings_mhz",
            "delta_omega_s_mhz")
    return params, {key: s[key] for key in keys}


@contextlib.contextmanager
def _overflow_of(keys: str):
    """A float power out of range in the block (an OverflowError, or a ZeroDivisionError
    when it underflows to a divisor of 0) is an OverflowError that names the settings ``keys``."""
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise OverflowError(f"a float power is out of range: change {keys}") from None


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


def _write_text(path: Path, text: str) -> None:
    """Every output file is written here; a path that cannot be written is a configuration error.
    A file is overwritten from byte 0 and cut to length, not truncated first (ext4 writes back
    a file truncated to zero at close); a failed write leaves the new head on the old tail."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as f:
            f.write(text.encode())
            f.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None


def write_csv(path: Path, header: list[str], rows: list[list], digest: str) -> None:
    """Each line is one ``%`` of a format built from its values' types by ``_fmt``'s rule."""
    lines = ((",".join([_FLOAT_FORMAT if isinstance(v, (float, np.floating)) else "%s" for v in row])
              % tuple(row)) for row in rows)
    _write_text(path, "\n".join([f"# config-hash: {digest}", ",".join(header), *lines]) + "\n")


def write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_complex_matrix_csv(path: Path, matrix: np.ndarray, digest: str) -> None:
    """Dump a complex matrix with interleaved real/imaginary columns.

    The bytes are those of ``_fmt`` on every part.  The body is all-``_ZERO``
    rows of 4m bytes for m complex columns, in which part k of the flat
    row-major parts is the character at byte 2k.  Only the parts whose 64-bit
    pattern is not that of +0.0 (nonzeros, -0.0, NaN, +-inf) are spliced in,
    each distinct pattern formatted once, between gaps cut from one template of
    whole rows that is as long as the longest gap needs.
    """
    header = ",".join([f"re_{j},im_{j}" for j in range(matrix.shape[1])])
    bits = np.ascontiguousarray(matrix, dtype=complex).view(np.int64)
    flat = np.flatnonzero(bits != 0)
    distinct, which = np.unique(bits.ravel()[flat], return_inverse=True)
    texts = np.array([_FLOAT_FORMAT % v for v in distinct.view(float).tolist()], dtype=object)
    row = ",".join([_ZERO] * bits.shape[1]) + "\n"
    starts = np.append(0, 2 * flat + 1)  # the gaps of the body around the spliced parts
    sizes = np.append(2 * flat, len(row) * len(bits)) - starts
    starts %= len(row)  # rows repeat, so a gap starts at its offset within its row
    template = row * (int((starts + sizes).max()) // len(row) + 1)
    pieces = [f"# config-hash: {digest}\n{header}\n"] + [None] * (2 * len(flat) + 1)
    pieces[1::2] = [template[at : at + size] for at, size in zip(starts.tolist(), sizes.tolist())]
    pieces[2::2] = texts[which].tolist()
    _write_text(path, "".join(pieces))


def _peakset_payload(peaks: spectrum.PeakSet, threshold: float) -> dict:
    fundamental = peaks.fundamental_weight
    return {
        "delta_omega_s_mhz": angular_to_mhz(peaks.delta_omega_s),
        "threshold": threshold,
        "visible": [p.n for p in spectrum.visible_peaks(peaks, threshold)],
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


def _peak_files(stem: str, peaks: spectrum.PeakSet, fmt: str, threshold: float) -> dict:
    """``<stem>_peaks.csv`` and/or ``<stem>_peaks.json``, as ``fmt`` says."""
    files = {}
    if fmt in ("csv", "both"):
        fundamental = peaks.fundamental_weight
        rows = [
            [p.n, angular_to_mhz(p.frequency), p.weight,
             p.weight / fundamental if fundamental > 0 else float("nan")]
            for p in peaks.peaks
        ]
        header = ["n", "frequency_mhz", "weight", "ratio_to_fundamental"]
        files[f"{stem}_peaks.csv"] = (header, rows)
    if fmt in ("json", "both"):
        files[f"{stem}_peaks.json"] = _peakset_payload(peaks, threshold)
    return files


def _fit_payload(fit: spectrum.LogLinearFit) -> dict:
    return {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed ``args``, for its switches, and ``s``, the
# text of its settings from ``_settings``.  Each returns the settings that the
# config hash covers and its output files, by name: a table (header, rows),
# a complex matrix or a JSON payload, whose key ``config_hash``, if it has one,
# ``main`` sets to the hash
# ---------------------------------------------------------------------------


def cmd_steady(args, s):
    params, used = _system(s)
    threshold = _as_float(s["threshold"], "threshold")
    used.update(threshold=_fmt(threshold), effective=str(args.effective))

    if args.effective:
        with _overflow_of("rabi_mhz"):  # rabi**2 / gamma
            gen = effective.reduce(params)
        rho = effective.effective_steady_state(gen)
        peaks = spectrum.coherence_peaks(rho, params.delta_omega_s)
    else:
        gen, rho, peaks = _chain_peaks(cascaded_lambda_graph(params), params.delta_omega_s)
    files = {"steady_generator.csv": gen.matrix} if args.dump_generator else {}
    files["steady_rho.csv"] = rho.matrix
    return used, files | _peak_files("steady", peaks, s["format"], threshold)


def _chain_peaks(graph: CouplingGraph, delta_omega_s: float):
    """Generator, steady state and ground-block peak set of a cascaded-Lambda chain."""
    gen = build_generator(graph)
    rho = steady_state(gen)
    gidx = ground_indices(graph.n_states)
    return gen, rho, spectrum.coherence_peaks(rho.matrix[np.ix_(gidx, gidx)], delta_omega_s)


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
    return np.stack(models, axis=-1).reshape(len(models[0]), 2 * (params.n_ground - 1)).tolist()


def _sweep_header(params: SystemParams) -> list[str]:
    names = ["w1", *(f"h{n}1" for n in range(2, params.n_ground))]
    return [f"{name}_{model}" for name in names for model in ("full", "eff")]


def cmd_sweep_detuning(args, s):
    params, used = _system(s)
    if None in (s["start_mhz"], s["stop_mhz"], s["count"]):
        raise ConfigError("sweep-detuning needs --start-mhz, --stop-mhz, and --count")
    grid = _make_grid(s, "start_mhz", "stop_mhz", used)

    def at(delta: float) -> SystemParams:
        return replace(params, detunings=raman_detunings(params.n_levels, delta))

    deltas = [mhz_to_angular(v) for v in grid]
    with _overflow_of("rabi_mhz"):
        j_hop = params.hopping_rate
    rows = _sweep_rows(
        params,
        lambda x: _chain_generator(at(x)), deltas,
        lambda x: _reduced_generator(at(x), j_hop), deltas,
    )
    rows = [[delta_mhz, *row] for delta_mhz, row in zip(grid, rows)]
    return used, {"sweep_detuning.csv": (["delta_mhz", *_sweep_header(params)], rows)}


def cmd_sweep_rabi(args, s):
    params, used = _system(s)
    grid = _make_grid(s, "omega_min", "omega_max", used)

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
    return used, {"sweep_rabi.csv": (header, rows)}


def cmd_rb85(args, s):
    mhz: dict[str, float] = {}
    for key in ("gamma_mhz", "gamma_prime_mhz", "splitting_mhz", "excited_splitting_mhz",
                "delta_omega_s_mhz", "line_detuning_mhz"):
        # the two keys without a default take the ground splitting's
        mhz[key] = mhz["splitting_mhz"] if s[key] is None else _as_float(s[key], key)
    # rabi_mhz wins over the gamma-fraction form, except that a --rabi-fraction flag wins
    # over a config-file rabi_mhz
    if s["rabi_mhz"] is not None and (args.rabi_mhz is not None or args.rabi_fraction is None):
        mhz["rabi_mhz"] = _as_float(s["rabi_mhz"], "rabi_mhz")
    else:
        mhz["rabi_mhz"] = _as_float(s["rabi_fraction"], "rabi_fraction") * mhz["gamma_mhz"]
    threshold = _as_float(s["threshold"], "threshold")
    used = {key: _fmt(value) for key, value in mhz.items()}
    used.update(offset_branch=s["offset_branch"], threshold=_fmt(threshold))

    gamma, gamma_prime, splitting, excited_splitting, dws, line_detuning, rabi = (
        mhz_to_angular(value) for value in mhz.values()
    )
    drives = tuple(
        rb85.DriveField(branch, rabi, line_detuning, dws if branch == s["offset_branch"] else 0.0)
        for branch in ("sigma+", "pi")
    )
    graph = rb85.build_full_model(
        rb85.ZeemanManifold(rb85.F_GROUND, splitting),
        rb85.ZeemanManifold(rb85.F_EXCITED, excited_splitting),
        drives,
        gamma,
        gamma_prime,
    )
    rho = steady_state(build_generator(graph))
    peaks = spectrum.coherence_peaks(rb85.ground_block(rho), dws, labels=rb85.GROUND_M)
    files = _peak_files("rb85", peaks, s["format"], threshold)

    summary: dict = {
        "config_hash": None,
        "j_hop_khz": 1e3 * angular_to_mhz(rabi**2 / gamma),
        "visible_peaks": len(spectrum.visible_peaks(peaks, threshold)),
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
        _, _, peaks13 = _chain_peaks(rb85.build_truncated_13(params13), dws)
        files |= _peak_files("rb85_truncated13", peaks13, s["format"], threshold)
        if peaks13.fundamental_weight > 0 and peaks.fundamental_weight > 0:
            fit13 = spectrum.loglinear_fit(peaks13)
            summary["truncated13_fit"] = _fit_payload(fit13)
            summary["slope_comparison"] = (
                "full model falls faster than the 13-level chain"
                if summary["full_model_fit"]["slope"] < fit13.slope
                else "13-level chain falls faster than the full model"
            )
    return used, files | {"rb85_summary.json": summary}


def cmd_rates(args, s):
    params, used = _system(s)
    resonant_params = replace(params, detunings=(0.0,) * (params.n_levels - 1))
    rows = []
    detuned_input = any(d != 0.0 for d in params.detunings)
    with _overflow_of("rabi_mhz"):
        params.hopping_rate  # rabi**2 / gamma, which the rates raise to higher powers
    for n in range(1, params.n_ground):
        detuned = detuned_input and n <= MAX_DETUNED_ORDER
        with _overflow_of("rabi_mhz, gamma_prime_mhz or detunings_mhz" if detuned
                          else "rabi_mhz or gamma_prime_mhz"):
            res = transition_amplitude(params if detuned else resonant_params, n)
            ratio = rate_ratio(params, n)
        mode = "detuned" if detuned else "resonant-only" if detuned_input else "resonant"
        rows.append([n, res.order, res.amplitude, ratio, angular_to_mhz(res.resonance_frequency),
                     int(res.resonant), mode])
    header = ["n", "order", "amplitude", "ratio", "resonance_frequency_mhz", "resonant", "mode"]
    return used, {"rates.csv": (header, rows)}


def _make_grid(s: dict[str, str | None], first: str, last: str, used: dict[str, str]) -> np.ndarray:
    """The sweep grid from the settings ``first``, ``last``, ``count`` and ``spacing``,
    which are added to ``used`` as the config hash sees them."""
    start, stop = _as_float(s[first], first), _as_float(s[last], last)
    count = _as_int(s["count"], "count")
    if count < 2:
        raise ConfigError("sweep count must be >= 2")
    used.update({first: _fmt(start), last: _fmt(stop), "count": str(count), "spacing": s["spacing"]})
    if s["spacing"] == "linear":
        return np.linspace(start, stop, count)
    if start <= 0 or stop <= 0:
        raise ConfigError("log spacing requires positive endpoints")
    return np.logspace(np.log10(start), np.log10(stop), count)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_COMMANDS = {
    "steady": (cmd_steady, "solve one steady state and emit its peak set"),
    "sweep-detuning": (cmd_sweep_detuning, "height ratios against two-photon detuning"),
    "sweep-rabi": (cmd_sweep_rabi, "height ratios against drive strength"),
    "rb85": (cmd_rb85, "16-state Zeeman model of the driven D2 line"),
    "rates": (cmd_rates, "multi-photon transition-rate table"),
}


class _Parser(argparse.ArgumentParser):
    """Raises a rejected command line as a :class:`ConfigError`; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clams",
        description="Driven cascaded-Lambda chains: steady states, coherence spectra, rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (func, help_) in _COMMANDS.items():
        parsers[name] = sub.add_parser(name, help=help_)
        parsers[name].add_argument("--config", help="flat key=value configuration file")
        parsers[name].set_defaults(func=func)
    for key, kind, _, commands, help_ in _PARAMS:
        if kind is bool:
            how = {"action": "store_true"}
        else:
            how = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        for name in commands:
            parsers[name].add_argument("--" + key.replace("_", "-"), dest=key, help=help_, **how)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every output file is written here, once it has all been computed.
    Warnings pass the caller's filters and print as JSON lines, or in the error line if it fails."""
    error = {}
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser().parse_args(argv)
            cfg = parse_config_file(args.config) if args.config else {}
            s = _settings(args, cfg)
            used, files = args.func(args, s)
            digest, out = config_digest(used), Path(s["out"])
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory: {exc}") from None
            for name, data in files.items():
                if isinstance(data, tuple):
                    write_csv(out / name, *data, digest)
                elif isinstance(data, np.ndarray):
                    write_complex_matrix_csv(out / name, data, digest)
                else:
                    write_json(out / name, data | {"config_hash": digest} if "config_hash" in data else data)
            return 0
        # ConfigError is a ValueError; an OverflowError is a setting too large for a float power;
        # a Warning is one that the caller's filters turn into an error
        except (ValueError, OverflowError, Warning, SteadyStateError, PropagationError) as exc:
            error = {"error": str(exc), "type": type(exc).__name__}
            return 1 if isinstance(exc, (SteadyStateError, PropagationError)) else 2
        finally:
            warned = [{"warning": str(w.message), "type": w.category.__name__} for w in caught]
            for line in ([error | {"warnings": warned} if warned else error] if error else warned):
                print(json.dumps(line), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
