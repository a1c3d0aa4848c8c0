"""Command-line front end: steady states, sweeps, the Rb-85 model, and rate tables.

Subcommands
-----------
steady          one steady state (full chain or reduced model) and its peak set
sweep-detuning  height ratios against the two-photon detuning, full vs reduced
sweep-rabi      height ratios against drive strength on a log grid
rb85            the 16-state Zeeman model of the sigma+/pi drive, optionally the 13-level chain
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

Sweeps solve each model's L(x) = L(0) + x (L(1) - L(0)), x the drive, the two-photon detuning or
the reduced model's hopping rate, from its two builds by
:func:`clams.liouvillian.affine_steady_states`, which forms the slope once, at the union of their
patterns, and solves the points in chunks; a block freed at import raises glibc's mmap threshold,
so those chunks stay in the heap between sweeps.  The peak weights of all points are taken at once.
A point whose fundamental weight is 0 (undriven, or so weakly driven that it underflows) has NaN
ratios, and ``sweep-rabi`` flags its row ``zero-fundamental``.  ``--parallel`` is ignored.

``rb85`` fits the log-linear law to a model only when its fundamental and two more
of its peaks are nonzero; its summary's ``flag`` reads ``zero-fundamental`` or,
when a weak drive leaves fewer nonzero peaks, ``too-few-peaks``.
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
from math import isnan
from pathlib import Path

import numpy as np

from . import effective, rb85, spectrum
from .level_system import SystemParams, ground_indices, raman_detunings
from .liouvillian import (
    CouplingGraph,
    GeneratorMatrix,
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


def _hopping_rate(params: SystemParams) -> float:
    """j_hop = rabi**2 / gamma; an OverflowError that names both settings if it is not finite."""
    with _overflow_of("rabi_mhz or gamma_mhz"):
        if not np.isfinite(j_hop := params.hopping_rate):
            raise OverflowError
    return j_hop


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


def _write_text(path: Path, chunks) -> None:
    """Every output file is written here, from its text's ``chunks`` (str) one at a time, so that
    a large file makes no fresh buffer of its size; a path that cannot be written is a
    configuration error.  A file is overwritten from byte 0 and cut to length, not truncated
    first (ext4 writes back a file truncated to zero at close); a failed write leaves the new
    head on the old tail."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode())
            f.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None


def write_csv(path: Path, header: list[str], rows: list[list], digest: str) -> None:
    """Each line is one ``%`` of a format built from its values' types by ``_fmt``'s rule."""
    lines = ((",".join([_FLOAT_FORMAT if isinstance(v, (float, np.floating)) else "%s" for v in row])
              % tuple(row)) for row in rows)
    _write_text(path, ["\n".join([f"# config-hash: {digest}", ",".join(header), *lines]) + "\n"])


def write_json(path: Path, payload) -> None:
    _write_text(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def write_complex_matrix_csv(path: Path, matrix, digest: str) -> None:
    """Dump a complex matrix, an array or a ``GeneratorMatrix``, with interleaved real/imaginary
    columns, in the bytes of ``_fmt`` on every part: the parts of the entries at a generator's
    pattern (of all of an array), each distinct 64-bit pattern formatted once, between :func:`_gaps`."""
    gen = isinstance(matrix, GeneratorMatrix)
    shape = (matrix.n_states**2,) * 2 if gen else np.shape(matrix)
    pattern = matrix.pattern if gen else np.arange(np.prod(shape))
    bits = (matrix.values if gen else np.ascontiguousarray(matrix, dtype=complex).ravel()).view(np.int64)
    distinct = np.sort(bits)
    distinct = distinct[np.diff(distinct, prepend=distinct[:1] - 1) != 0]
    texts = np.array([_FLOAT_FORMAT % v for v in distinct.view(float).tolist()], dtype=object)
    pieces = np.empty(2 * bits.size + 1, dtype=object)
    pieces[::2], pieces[1::2] = _gaps(pattern.tobytes(), *shape), texts[distinct.searchsorted(bits)]
    pieces[0] = f"# config-hash: {digest}\n{pieces[0]}"
    _write_text(path, ("".join(pieces[at : at + 1024].tolist()) for at in range(0, pieces.size, 1024)))


@functools.lru_cache(maxsize=8)
def _gaps(pattern: bytes, rows: int, cols: int) -> np.ndarray:
    """The header and all-``_ZERO`` body of a (rows, cols) complex-matrix CSV, in which part k of
    the flat row-major parts is the character at byte 2k, cut around the parts of the entries at
    ``pattern`` (a +0.0 part prints as its gap would) from one template of whole rows."""
    parts = (2 * np.frombuffer(pattern, dtype=np.int64)[:, None] + [0, 1]).ravel()
    row = ",".join([_ZERO] * 2 * cols) + "\n"
    starts = np.append(0, 2 * parts + 1)
    sizes = np.append(2 * parts, len(row) * rows) - starts
    starts %= len(row)  # rows repeat, so a gap starts at its offset within its row
    template = row * (int((starts + sizes).max()) // len(row) + 1)
    gaps = [template[at : at + size] for at, size in zip(starts.tolist(), sizes.tolist())]
    gaps[0] = ",".join([f"re_{j},im_{j}" for j in range(cols)]) + "\n" + gaps[0]
    return np.array(gaps, dtype=object)


def _peakset_payload(peaks: spectrum.PeakSet, threshold: float) -> dict:
    return {
        "delta_omega_s_mhz": angular_to_mhz(peaks.delta_omega_s),
        "threshold": threshold,
        "visible": [p.n for p in spectrum.visible_peaks(peaks, threshold)],
        "peaks": [
            {
                "n": p.n,
                "frequency_mhz": angular_to_mhz(p.frequency),
                "weight": p.weight,
                "ratio_to_fundamental": None if isnan(r := peaks.ratio(p.n)) else r,  # JSON has no NaN
                "contributors": [[label, w] for label, w in p.contributors],
            }
            for p in peaks.peaks
        ],
    }


def _peak_files(stem: str, peaks: spectrum.PeakSet, fmt: str, threshold: float) -> dict:
    """``<stem>_peaks.csv`` and/or ``<stem>_peaks.json``, as ``fmt`` says."""
    files = {}
    if fmt in ("csv", "both"):
        rows = [[p.n, angular_to_mhz(p.frequency), p.weight, peaks.ratio(p.n)] for p in peaks.peaks]
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
        try:
            gen = effective.reduce(params)  # warns at strong drive, then forms rabi**2 / gamma
        except (OverflowError, ValueError):
            _hopping_rate(params)  # raises naming the settings if that is what overflowed
            raise
        rho = effective.effective_steady_state(gen)
        peaks = spectrum.coherence_peaks(rho, params.delta_omega_s)
    else:
        gen, rho, peaks = _chain_peaks(cascaded_lambda_graph(params), params.delta_omega_s)
    files = {"steady_generator.csv": gen} if args.dump_generator else {}
    files["steady_rho.csv"] = rho.matrix
    return used, files | _peak_files("steady", peaks, s["format"], threshold)


def _chain_peaks(graph: CouplingGraph, delta_omega_s: float):
    """Generator, steady state and ground-block peak set of a cascaded-Lambda chain."""
    gen = build_generator(graph)
    rho = steady_state(gen)
    gidx = ground_indices(graph.n_states)
    return gen, rho, spectrum.coherence_peaks(rho.matrix[np.ix_(gidx, gidx)], delta_omega_s)


def _reduced_generator(params: SystemParams, j_hop: float) -> GeneratorMatrix:
    return effective.build_effective_generator(params.n_levels, j_hop, params.gamma_prime, params.detunings)


def _sweep_rows(params: SystemParams, chain_at, xs, reduced_at, js) -> list[list[float]]:
    """Rows [w1_full, w1_eff, h21_full, h21_eff, ...] at the points ``xs`` of the
    full chain ``chain_at(x)`` and ``js`` of the reduced model ``reduced_at(j)``, a
    model's ratios NaN where its w1 is 0.  Each generator family is solved from its two builds
    L(0) and L(1), so it must be affine in its argument, as in the drive, detunings and hopping rate."""
    models = []
    for build, points, gidx in (
        (chain_at, xs, ground_indices(params.n_levels)),
        (reduced_at, js, np.arange(params.n_ground)),
    ):
        rho = affine_steady_states(build(0.0), build(1.0), points)
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
    j_hop = _hopping_rate(params)
    rows = _sweep_rows(
        params,
        lambda x: build_generator(cascaded_lambda_graph(at(x))), deltas,
        lambda x: _reduced_generator(at(x), j_hop), deltas,
    )
    rows = [[delta_mhz, *row] for delta_mhz, row in zip(grid, rows)]
    return used, {"sweep_detuning.csv": (["delta_mhz", *_sweep_header(params)], rows)}


def cmd_sweep_rabi(args, s):
    params, used = _system(s)
    grid = _make_grid(s, "omega_min", "omega_max", used)

    rabis = grid * params.gamma
    rows = _sweep_rows(
        params,
        lambda x: build_generator(cascaded_lambda_graph(replace(params, rabi=x))), rabis,
        lambda j: _reduced_generator(params, j), rabis**2 / params.gamma,
    )
    rows = [[frac, rabi**2 / params.gamma / params.gamma_prime, *row[2:],
             "zero-fundamental" if 0.0 in row[:2] else "ok"]
            for frac, rabi, row in zip(grid, rabis, rows)]
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
    graph = rb85.build_full_model(
        rabi, gamma, gamma_prime, splitting=splitting, excited_splitting=excited_splitting,
        delta_omega_s=dws, line_detuning=line_detuning, offset_branch=s["offset_branch"],
    )
    rho = steady_state(build_generator(graph))
    peaks = spectrum.coherence_peaks(rb85.ground_block(rho), dws, labels=rb85.GROUND_M)
    files = _peak_files("rb85", peaks, s["format"], threshold)
    models = {"full_model": peaks}
    if args.with_truncated_13:
        params13 = SystemParams(13, rabi, gamma, gamma_prime, (0.0,) * 12, dws)
        _, _, models["truncated13"] = _chain_peaks(cascaded_lambda_graph(params13), dws)
        files |= _peak_files("rb85_truncated13", models["truncated13"], s["format"], threshold)

    summary: dict = {
        "config_hash": None,
        "j_hop_khz": 1e3 * angular_to_mhz(rabi**2 / gamma),
        "visible_peaks": len(spectrum.visible_peaks(peaks, threshold)),
        "threshold": threshold,
    }
    for name, found in models.items():
        # a fit needs the fundamental and two more nonzero peaks
        if found.fundamental_weight > 0 and sum(p.weight > 0 for p in found.peaks) >= 3:
            summary[f"{name}_fit"] = _fit_payload(spectrum.loglinear_fit(found))
        elif summary.get("flag") != "zero-fundamental":
            summary["flag"] = "zero-fundamental" if found.fundamental_weight == 0 else "too-few-peaks"
    if "truncated13_fit" in summary and "full_model_fit" in summary:
        summary["slope_comparison"] = (
            "full model falls faster than the 13-level chain"
            if summary["full_model_fit"]["slope"] < summary["truncated13_fit"]["slope"]
            else "13-level chain falls faster than the full model"
        )
    return used, files | {"rb85_summary.json": summary}


def cmd_rates(args, s):
    params, used = _system(s)
    resonant_params = replace(params, detunings=(0.0,) * (params.n_levels - 1))
    rows = []
    detuned_input = any(d != 0.0 for d in params.detunings)
    _hopping_rate(params)  # which the rates raise to higher powers
    for n in range(1, params.n_ground):
        detuned = detuned_input and n <= MAX_DETUNED_ORDER
        with _overflow_of("rabi_mhz, gamma_mhz, gamma_prime_mhz or detunings_mhz" if detuned
                          else "rabi_mhz, gamma_mhz or gamma_prime_mhz"):
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
                elif isinstance(data, dict):
                    write_json(out / name, data | {"config_hash": digest} if "config_hash" in data else data)
                else:  # a complex matrix, an array or a generator
                    write_complex_matrix_csv(out / name, data, digest)
            return 0
        # ConfigError is a ValueError; an OverflowError is a setting too large for a float power;
        # a Warning is one that the caller's filters turn into an error
        except (ValueError, OverflowError, Warning, SteadyStateError, PropagationError) as exc:
            error = {"error": str(exc), "type": type(exc).__name__}
            return 1 if isinstance(exc, (SteadyStateError, PropagationError)) else 2
        finally:
            seen = dict.fromkeys((str(w.message), w.category.__name__) for w in caught)
            warned = [{"warning": message, "type": kind} for message, kind in seen]
            for line in ([error | {"warnings": warned} if warned else error] if error else warned):
                print(json.dumps(line), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
