import hashlib
import json
import warnings

import numpy as np
import pytest

from clams import cli, liouvillian
from clams.cli import (
    _PARAMS,
    ConfigError,
    main,
    parse_config_file,
    write_complex_matrix_csv,
    write_csv,
)
from clams.effective import reduce
from clams.liouvillian import (
    GeneratorMatrix,
    SteadyStateError,
    build_generator,
    cascaded_lambda_graph,
    steady_state,
)
from clams.units import mhz_to_angular
from conftest import chain_params, rb85_graph, run_python
from oracles import per_value_csv, per_value_matrix_csv


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config-hash: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "n_levels = 5\n"
        "rabi_mhz = 15.2   # inline comment\n"
        "detunings_mhz = 0.1, 0, 0.1, 0\n"
        "\n"
    )
    parsed = parse_config_file(cfg)
    assert parsed == {
        "n_levels": "5",
        "rabi_mhz": "15.2",
        "detunings_mhz": "0.1, 0, 0.1, 0",
    }


def test_parse_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_steady_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run_cli("steady", "--n-levels", "5", "--out", str(out), "--format", "both")
        assert code == 0
    for name in ("steady_peaks.csv", "steady_rho.csv", "steady_peaks.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header, rows = read_csv(out1 / "steady_peaks.csv")
    assert header == ["n", "frequency_mhz", "weight", "ratio_to_fundamental"]
    assert len(rows) == 2  # five levels -> two harmonics


def test_steady_effective_close_to_full(tmp_path):
    full_dir, eff_dir = tmp_path / "full", tmp_path / "eff"
    common = ["--n-levels", "5", "--rabi-mhz", "1.9", "--gamma-mhz", "1900"]
    assert run_cli("steady", *common, "--out", str(full_dir)) == 0
    assert run_cli("steady", *common, "--effective", "--out", str(eff_dir)) == 0
    _, rows_full = read_csv(full_dir / "steady_peaks.csv")
    _, rows_eff = read_csv(eff_dir / "steady_peaks.csv")
    for rf, re_ in zip(rows_full, rows_eff):
        assert float(rf[2]) == pytest.approx(float(re_[2]), rel=1e-3)


def chain21_generator():
    params = chain_params(21, rabi=96.0, gamma=1.2e4, gamma_prime=1.3,
                          detunings=np.linspace(-2.0, 2.0, 20))
    return build_generator(cascaded_lambda_graph(params)).matrix


def rb85_generator():
    return build_generator(rb85_graph()).matrix


def planted_matrix():
    """Dense random complex matrix with every kind of float planted in both parts."""
    rng = np.random.default_rng(17)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, np.nan, np.inf, -np.inf]
    m.real[0, :11] = special
    m.imag[4, 1:] = special[::-1]
    m[7:, :3] = 0.0
    m.imag[9, 5] = -0.0
    return m


def complex_from_parts(parts):
    """Complex matrix whose interleaved (re, im) parts are the rows of ``parts``."""
    return np.array(parts, dtype=float).view(complex)


def zero_matrix():
    return np.zeros((5, 3), dtype=complex)


def no_rows():
    return np.zeros((0, 3), dtype=complex)


def no_columns():
    return np.zeros((3, 0), dtype=complex)


def one_by_one():
    return complex_from_parts([[-0.0, 2.5]])


def one_row():
    return complex_from_parts([[np.nan, 0.0, 0.0, 1e-300, -np.inf, 0.0, 0.0, -0.0]])


def boundary_parts():
    """Each kind of part that is not +0.0 alone at the start of a row, alone at its end,
    and at both ends, with all-zero rows between and around those rows."""
    rows = [[0.0] * 8]
    for first, last in [(3.0, -7.5), (-0.0, -0.0), (np.nan, np.nan), (np.inf, -np.inf),
                        (-np.inf, np.inf), (5e-324, -1e300)]:
        rows += [[first] + [0.0] * 7, [0.0] * 8, [0.0] * 7 + [last], [first] + [0.0] * 6 + [last],
                 [0.0] * 8]
    return complex_from_parts(rows)


def repeated_patterns():
    """Wide sparse matrix in which a few bit patterns recur over many rows and in both
    parts: NaNs that differ in sign or payload, -0.0, +-5e-324, +-inf and one finite value."""
    values = np.array([np.nan, np.copysign(np.nan, -1), -0.0, 5e-324, -5e-324, np.inf, -np.inf,
                       0.1])
    patterns = np.append(values.view(np.int64), 0x7FF8_0000_0000_0ABC)  # another NaN payload
    rng = np.random.default_rng(11)
    bits = np.zeros((40, 160), dtype=np.int64)
    cells = rng.choice(bits.size, size=600, replace=False)
    bits.ravel()[cells] = rng.choice(patterns, size=cells.size)
    return bits.view(complex)


def steady_state_view():
    """The F-ordered view that ``steady_state`` hands the writer."""
    rho = steady_state(GeneratorMatrix(21, chain21_generator())).matrix
    assert not rho.flags.c_contiguous
    return rho


def strided_slice():
    return planted_matrix()[::2, 1::2]


@pytest.mark.parametrize("build", [chain21_generator, rb85_generator, planted_matrix, zero_matrix,
                                   no_rows, no_columns, one_by_one, one_row, boundary_parts,
                                   repeated_patterns, steady_state_view, strided_slice])
def test_matrix_csv_matches_per_value_oracle(tmp_path, build):
    matrix = build()
    write_complex_matrix_csv(tmp_path / "got.csv", matrix, "0123456789abcdef")
    per_value_matrix_csv(tmp_path / "want.csv", matrix, "0123456789abcdef")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_table_csv_matches_the_per_value_writer(tmp_path):
    # each row is one % of a format built from its values' types: %.17g for float and
    # np.floating, %s for everything else, the rule of _fmt
    values = [7, True, False, np.int64(-3), np.float32(0.1), np.float64(1 / 3), 0.0, -0.0,
              float("nan"), float("inf"), -float("inf"), 5e-324, np.float64(-5e-324), 1e300,
              "zero-fundamental", "100%", None]
    rows = [values, values[::-1], values[3:] + values[:3], [0.5] * 4, [np.float32(2.5), 1], []]
    header = ["a", "b", "c"]
    write_csv(tmp_path / "got.csv", header, rows, "0123456789abcdef")
    per_value_csv(tmp_path / "want.csv", header, rows, "0123456789abcdef")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("n_levels, effective", [(21, False), (13, True)])
def test_dump_generator_writes_the_solved_model(tmp_path, n_levels, effective):
    flags = ["--n-levels", str(n_levels), "--rabi-mhz", "15.3", "--gamma-mhz", "1900",
             "--gamma-prime-mhz", "0.2", "--delta-omega-s-mhz", "2.3", "--dump-generator"]
    if effective:
        flags.append("--effective")
    dumps = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run_cli("steady", *flags, "--out", str(out)) == 0
        dumps.append((out / "steady_generator.csv").read_bytes())
    assert dumps[0] == dumps[1]

    params = chain_params(n_levels, rabi=mhz_to_angular(15.3), gamma=mhz_to_angular(1900.0),
                          gamma_prime=mhz_to_angular(0.2), delta_omega_s=mhz_to_angular(2.3))
    if effective:
        want = reduce(params).matrix
    else:
        want = build_generator(cascaded_lambda_graph(params)).matrix
    _, rows = read_csv(tmp_path / "a" / "steady_generator.csv")
    assert np.array_equal(np.array(rows, dtype=float).view(complex), want)


def test_invalid_n_levels_exits_2(tmp_path, capsys):
    code = run_cli("steady", "--n-levels", "4", "--out", str(tmp_path))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "n_levels must be odd" in err["error"]


@pytest.mark.parametrize("flag", ["--rabi-mhz", "--gamma-mhz", "--gamma-prime-mhz"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_exits_2(tmp_path, capsys, flag, value):
    code = run_cli("steady", "--n-levels", "5", f"{flag}={value}", "--out", str(tmp_path))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert "expected a finite number" in err["error"]


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_levels = 5\ndetunings_mhz = 0, nan, 0, 0\n")
    assert run_cli("steady", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "detunings_mhz" in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("argv", [
    ["sweep-rabi", "--format", "json"],
    ["steady", "--rabi-mhz", "fast"],
    ["steady", "--no-such-flag", "1"],
    [],
    ["selftest"],
], ids=["flag-of-another-subcommand", "bad-value", "unknown-flag", "no-command", "removed-command"])
def test_rejected_command_line_is_one_json_error(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["type"] == "ConfigError"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("steady", "--help")
    assert exc.value.code == 0
    assert "--n-levels" in capsys.readouterr().out


def test_sweep_detuning_requires_grid(tmp_path, capsys):
    code = run_cli("sweep-detuning", "--out", str(tmp_path))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "start" in err["error"]


def test_sweep_detuning_lorentzian_shape(tmp_path):
    code = run_cli(
        "sweep-detuning",
        "--n-levels", "5",
        "--rabi-mhz", "15.2",
        "--gamma-mhz", "1900",
        "--gamma-prime-mhz", "0.2",
        "--start-mhz", "-0.5",
        "--stop-mhz", "0.5",
        "--count", "41",
        "--out", str(tmp_path),
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "sweep_detuning.csv")
    deltas = np.array([float(r[header.index("delta_mhz")]) for r in rows])
    h21 = np.array([float(r[header.index("h21_full")]) for r in rows])
    # maximum at zero detuning
    assert deltas[np.argmax(h21)] == pytest.approx(0.0, abs=1e-12)
    # half maximum at delta = (gamma_prime + 2 j_hop) / 2 = 0.2216 MHz, up to grid resolution
    j_hop_mhz = 15.2**2 / 1900.0
    half_pos = (0.2 + 2 * j_hop_mhz) / 2.0
    above = h21 >= h21.max() / 2.0
    crossing = deltas[np.where(np.diff(above.astype(int)) == -1)[0]]
    step = deltas[1] - deltas[0]
    assert any(abs(c - half_pos) <= step for c in crossing)


def test_sweep_parallel_matches_serial(tmp_path):
    args = [
        "sweep-detuning",
        "--n-levels", "5",
        "--start-mhz", "-0.3",
        "--stop-mhz", "0.3",
        "--count", "7",
    ]
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert run_cli(*args, "--out", str(serial)) == 0
    assert run_cli(*args, "--out", str(parallel), "--parallel", "4") == 0
    assert (serial / "sweep_detuning.csv").read_bytes() == (
        parallel / "sweep_detuning.csv"
    ).read_bytes()


def test_sweep_rabi_flags_zero_drive(tmp_path):
    code = run_cli(
        "sweep-rabi",
        "--n-levels", "5",
        "--omega-min", "0",
        "--omega-max", "0.01",
        "--count", "3",
        "--spacing", "linear",
        "--out", str(tmp_path),
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "sweep_rabi.csv")
    assert rows[0][header.index("flag")] == "zero-fundamental"
    assert rows[0][header.index("h21_full")] == "nan"
    assert all(r[header.index("flag")] == "ok" for r in rows[1:])


def test_sweep_rabi_with_no_driven_point_flags_every_row(tmp_path):
    code = run_cli(
        "sweep-rabi", "--n-levels", "5", "--spacing", "linear", "--omega-min", "0",
        "--omega-max", "0", "--count", "2", "--out", str(tmp_path),
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "sweep_rabi.csv")
    assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
    assert all(row[header.index("flag")] == "zero-fundamental" for row in rows)


def test_sweep_rabi_log_rejects_zero_endpoint(tmp_path, capsys):
    code = run_cli(
        "sweep-rabi", "--omega-min", "0", "--omega-max", "0.01", "--count", "3",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "log spacing" in json.loads(capsys.readouterr().err.strip())["error"]


def test_rates_table_geometric(tmp_path):
    code = run_cli(
        "rates",
        "--n-levels", "13",
        "--rabi-mhz", "15.2",
        "--gamma-mhz", "1900",
        "--gamma-prime-mhz", "0.2",
        "--out", str(tmp_path),
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "rates.csv")
    ratios = [float(r[header.index("ratio")]) for r in rows]
    j_over_gp = (15.2**2 / 1900.0) / 0.2
    for n, ratio in enumerate(ratios, start=1):
        assert ratio == pytest.approx(j_over_gp ** (2 * n - 2), rel=1e-12)
    quotients = [ratios[i + 1] / ratios[i] for i in range(len(ratios) - 1)]
    assert all(q == pytest.approx(j_over_gp**2, rel=1e-10) for q in quotients)
    assert all(r[header.index("mode")] == "resonant" for r in rows)


def test_rates_detuned_marks_high_orders(tmp_path):
    code = run_cli(
        "rates",
        "--n-levels", "13",
        "--detunings-mhz", ",".join(["0.1"] + ["0"] * 11),
        "--out", str(tmp_path),
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "rates.csv")
    modes = [r[header.index("mode")] for r in rows]
    assert modes[:3] == ["detuned"] * 3
    assert all(m == "resonant-only" for m in modes[3:])


def test_rates_of_a_large_gamma_prime_underflow_to_zero(tmp_path):
    # the amplitude is 2*pi * j_hop**2 * (j_hop/gamma_prime)**(2n-2): the ratio underflows
    # to 0 where gamma_prime**4 alone would overflow
    assert run_cli("rates", "--n-levels", "7", "--gamma-prime-mhz", "1e80",
                   "--out", str(tmp_path)) == 0
    header, rows = read_csv(tmp_path / "rates.csv")
    amplitudes = [float(r[header.index("amplitude")]) for r in rows]
    assert amplitudes[0] == pytest.approx(2 * np.pi * mhz_to_angular(15.2**2 / 1900.0) ** 2,
                                          rel=1e-14)
    assert 0.0 < amplitudes[1] < 1e-160 and amplitudes[2] == 0.0


def test_rb85_peaks_at_harmonics(tmp_path):
    code = run_cli("rb85", "--out", str(tmp_path), "--format", "both")
    assert code == 0
    header, rows = read_csv(tmp_path / "rb85_peaks.csv")
    for i, row in enumerate(rows, start=1):
        assert float(row[header.index("frequency_mhz")]) == pytest.approx(2.34 * i, rel=1e-12)
    summary = json.loads((tmp_path / "rb85_summary.json").read_text())
    assert summary["visible_peaks"] == 5
    assert summary["j_hop_khz"] == pytest.approx(121.6, rel=1e-10)
    payload = json.loads((tmp_path / "rb85_peaks.json").read_text())
    assert [p["n"] for p in payload["peaks"]] == [1, 2, 3, 4, 5, 6]
    assert len(payload["peaks"][0]["contributors"]) == 6


def test_rb85_zero_drive_flagged(tmp_path):
    code = run_cli("rb85", "--rabi-mhz", "0", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "rb85_summary.json").read_text())
    assert summary["flag"] == "zero-fundamental"
    assert summary["visible_peaks"] == 0


@pytest.mark.parametrize("argv", [["--rabi-fraction", "1e-40", "--with-truncated-13"],
                                  ["--rabi-fraction", "1e-60", "--with-truncated-13"],
                                  ["--rabi-fraction", "1e-40"]],
                         ids=["two-peaks", "one-peak", "full-model-only"])
def test_rb85_too_few_peaks_flagged(tmp_path, argv):
    """A drive so weak that fewer than 3 peaks are nonzero, the fundamental not among
    the lost, writes every file without a fit and flags the summary."""
    assert run_cli("rb85", *argv, "--format", "both", "--out", str(tmp_path)) == 0
    stems = ["rb85", "rb85_truncated13"][:1 + ("--with-truncated-13" in argv)]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        [f"{stem}_peaks.{ext}" for stem in stems for ext in ("csv", "json")]
        + ["rb85_summary.json"])
    for stem in stems:
        weights = [p["weight"] for p in json.loads((tmp_path / f"{stem}_peaks.json").read_text())["peaks"]]
        assert weights[0] > 0 and sum(w > 0 for w in weights) < 3
    summary = json.loads((tmp_path / "rb85_summary.json").read_text())
    assert summary["flag"] == "too-few-peaks"
    assert not {"full_model_fit", "truncated13_fit", "slope_comparison"} & set(summary)


@pytest.mark.parametrize("argv, error", [
    # delta_omega_s is the positive tone difference (offset_branch says which tone is
    # higher), and both models reject a negative one alike; left unset, it is the splitting
    (["--delta-omega-s-mhz", "-2.34"], "delta_omega_s must be positive"),
    (["--delta-omega-s-mhz", "-2.34", "--with-truncated-13"], "delta_omega_s must be positive"),
    (["--splitting-mhz", "-2.34"], "delta_omega_s must be positive"),
    # the drive is rabi_fraction * gamma, so it is negative too, but gamma is the fault
    (["--gamma-mhz", "-5"], "gamma and gamma_prime must be positive"),
], ids=["tone-offset", "tone-offset-with-truncated-13", "tone-offset-from-splitting", "gamma"])
def test_rb85_bad_setting_exits_2(tmp_path, capsys, argv, error):
    out = tmp_path / "out"
    assert run_cli("rb85", *argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {"error": error, "type": "ValueError"}
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_levels = 7\nrabi_mhz = 1.0\ngamma_mhz = 1000\n")
    out = tmp_path / "out"
    code = run_cli("steady", "--config", str(cfg), "--rabi-mhz", "2.0", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out / "steady_peaks.csv")
    assert len(rows) == 3  # n_levels=7 from config -> three harmonics


def test_format_json_skips_csv(tmp_path):
    assert run_cli("steady", "--n-levels", "5", "--format", "json", "--out", str(tmp_path)) == 0
    assert not (tmp_path / "steady_peaks.csv").exists()
    assert (tmp_path / "steady_peaks.json").exists()
    assert (tmp_path / "steady_rho.csv").exists()  # matrix dump is always CSV


def test_rb85_rabi_from_config_file(tmp_path):
    cfg = tmp_path / "rb.cfg"
    cfg.write_text("rabi_mhz = 15.2\n")
    out = tmp_path / "out"
    assert run_cli("rb85", "--config", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "rb85_summary.json").read_text())
    assert summary["j_hop_khz"] == pytest.approx(1e3 * 15.2**2 / 1900.0, rel=1e-12)


# Config hash and sha256 of every output file of a fixed command set, as an earlier
# version of the CLI wrote them. The hashes are pure text and must never change; the file
# digests pin the solver's bytes for one numpy/BLAS build and one BLAS thread count (the
# cases run with every BLAS thread variable at 1, as the benchmark runs them), so after a
# toolchain change regenerate them from a commit whose outputs are known to be right.
# The solved files of "steady-chain21-dump" and of the four "rb85-*" cases were
# re-recorded when models of 10 or more states moved from one dense LU to block
# elimination over coherence orders: it rounds differently, and every number in those
# files stayed within 1e-13 relative of the dense solve's (at most 6.4e-14, the smallest
# peak weight of "rb85-pi-branch").  Every solved file of the 13 "steady-*", "sweep-*"
# and "rb85-*" cases was re-recorded again when every model with two or more coherence
# orders beyond 0 moved to block elimination on the orders +q alone (the -q side is the
# conjugate mirror): each weight and ratio moved by at most 1.4e-14 relative and each
# entry of rho by at most 8.3e-16 of the largest (five imaginary parts of populations,
# at most 1.2e-17, became exact zeros), except the far height ratios of the two
# "sweep-rabi-*" cases, which moved by up to 3.2e-13 and 1.8e-12, toward a 40-digit
# solve of the same systems.  The generator dumps and "rates-readme" are unchanged.
# The rb85_peaks.* and rb85_summary.json files of the four "rb85-*" cases were
# re-recorded when the Rb-85 couplings moved from a general Clebsch-Gordan sum to the
# closed-form F=3 -> F'=4 dipole weights, each correctly rounded: every number in them
# moved by at most 1.0e-14 relative (9.98e-15, the smallest pair weight of the
# fundamental in rb85_peaks.json of "rb85-readme"; every peak weight by at most
# 3.0e-15).  The rb85_truncated13_* files and every config hash are unchanged.
# rates.csv of "rates-readme" was re-recorded when the resonant amplitude became
# 2*pi * j_hop**2 * rate_ratio instead of 2*pi * j_hop**(2n) / gamma_prime**(2n-2): the
# amplitudes of n = 3..6 moved by at most 4.4e-16 relative (n = 6), and both forms are
# within 2.3e-16 of a 40-digit evaluation; every other column is unchanged.
_RB85_BOTH_RABI_KEYS = "rabi_fraction = 0.009\nrabi_mhz = 14.5\ngamma_mhz = 1.9e3\n"
GOLDEN = {
    "steady-readme": (
        "steady --n-levels 5 --rabi-mhz 15.2 --gamma-mhz 1900 --gamma-prime-mhz 0.2",
        None,
        "044db897e89bc3cf",
        {
            "steady_peaks.csv": "37d5c196227a014d1ee0e09975b552942836c3224e1710dbb8702c5ba35335a8",
            "steady_rho.csv": "5a2e38ef67590cd2b09bfb8c8355f663ab25a8b7689e180d3ad4a319c9dedc4c",
        },
    ),
    "steady-defaults": (
        "steady",
        None,
        "16f97a82ef75289b",
        {
            "steady_peaks.csv": "a6ab5735cdad19b482678f775bea2bfe3be9d9882675f8e06c47c2ffbea351d4",
            "steady_rho.csv": "e251277f0eb79f8179c043fb98f4128721ae3ead042cc89300828509c0fb7c4e",
        },
    ),
    # numbers in non-canonical form are hashed as written in the file
    "steady-config-override": (
        "steady --gamma-prime-mhz 0.3",
        "n_levels = 5\nrabi_mhz = 15.20\ngamma_mhz = 1.9e3\ndetunings_mhz = 0.1, 0, 0.1, 0\n",
        "5a5e73a65bfd5069",
        {
            "steady_peaks.csv": "2337370b140ecf1a743d85183acf1b50612624f6449dfe58a426b272b022b09d",
            "steady_rho.csv": "2c1f1713fe4ea380bf5134a7a7dfca26138173989cd910611c77e3f08a3da381",
        },
    ),
    "steady-effective-dump": (
        "steady --n-levels 7 --effective --dump-generator --format both",
        None,
        "5172840c7b2218ba",
        {
            "steady_generator.csv":
                "80a70cf8168638e09edae359011b6e55773a7b82d70f53e59756113e371a4632",
            "steady_peaks.csv": "0c849f25ad9cb199f7092eb9b5e9a832cc430dcbdaa54cf9b189eae2233d0868",
            "steady_peaks.json": "fddf4d565fc9c5db142da87ac6f4fee0426cd65496f012024f073121226e36d0",
            "steady_rho.csv": "c55dedf80e33c54dfbea378d3a27b338109901da97e3abd85595bb4b7259ddfb",
        },
    ),
    # the N = 3 reduced model: its 2-state generator is a clique, built dense
    "steady-effective-n3-dump": (
        "steady --n-levels 3 --effective --dump-generator",
        None,
        "53ec6f98fbcfab32",
        {
            "steady_generator.csv":
                "96e26f6197e5b0e0a4ac11a87c7a7441911cf3e2e116c23e75d07f7f71b32a64",
            "steady_peaks.csv": "8691f6be3a947e2a4d222de776a410a5893c56c8e823a3af18fe00c11ce9e296",
            "steady_rho.csv": "017506a84e01ee2f7149a22a5eae00f740e5908934b9854629e4f26ed6301be1",
        },
    ),
    # the full N = 21 chain's generator: 441 x 441, 99 % exact zeros
    "steady-chain21-dump": (
        "steady --n-levels 21 --dump-generator",
        None,
        "33b2682baf81dea3",
        {
            "steady_generator.csv":
                "1b7b73156cc11fafa218a57457ed27e513ce403b1b1672be5c782c8fed9ebbaf",
            "steady_peaks.csv": "81fd9f41376f981ee2b728f3c1beb653cac4e1946acab5eedf499109ea26c1aa",
            "steady_rho.csv": "2e5352caa801be0cd407d84ed516f3d85de1a705e8a38ed8b449e1b854b75443",
        },
    ),
    "sweep-detuning-readme": (
        "sweep-detuning --n-levels 5 --start-mhz -2 --stop-mhz 2 --count 41",
        None,
        "f6bf4a0ab3f1d1d0",
        {"sweep_detuning.csv": "c4c0c15ebde4b336713a703e6f249a8c171e54b4a9c5dda62dad4d752662c981"},
    ),
    "sweep-detuning-config": (
        "sweep-detuning",
        "start_mhz = -1\nstop_mhz = 1.0\ncount = 7\nspacing = linear\nn_levels = 7\n",
        "6864a6326f77e71f",
        {"sweep_detuning.csv": "ee6ceef373d6ca6b8cbec3e6ad6776b4765feea23ff9c5a4e8e21426b86064d2"},
    ),
    "sweep-rabi-readme": (
        "sweep-rabi --n-levels 7 --omega-min 1e-4 --omega-max 5e-2 --count 201 "
        "--gamma-prime-mhz 0.02",
        None,
        "e8dba1a8b202d6f9",
        {"sweep_rabi.csv": "b6abf8afa52ad5741b77886d1279e41ebbfe41b2ea73065984701b23d8fc41ed"},
    ),
    "sweep-rabi-defaults": (
        "sweep-rabi",
        None,
        "8ff0945a624553ad",
        {"sweep_rabi.csv": "97879b7f12b556960b27528ab17a4255c7279727c226a8d078db1d8bec4a8da6"},
    ),
    # the reduced model of N = 3 has two ground states: the CLI's one family of one block
    "sweep-detuning-n3": (
        "sweep-detuning --n-levels 3 --start-mhz -2 --stop-mhz 2 --count 41",
        None,
        "fad19c1ef6fa309d",
        {"sweep_detuning.csv": "6052a9ea25555b365e3c9acc266978d0ae287911dcc3bd3eeda33a6bc20662b7"},
    ),
    "sweep-rabi-n3": (
        "sweep-rabi --n-levels 3 --count 201",
        None,
        "c860d15a3c40a890",
        {"sweep_rabi.csv": "f08047f33fd339f65450e2156d2fe4b96b8bdda0619c7f411ca68eb0ba3e321f"},
    ),
    "rb85-readme": (
        "rb85 --with-truncated-13 --format both",
        None,
        "47019e97af788057",
        {
            "rb85_peaks.csv": "a0495f6889bbdf8f2e2107a929237c7402b1bff5acf7494eab065a08fa51b65f",
            "rb85_peaks.json": "a63f917641156b89aa609c141faca8d9e1e7be57c3d98526622565bd22538dc9",
            "rb85_summary.json": "3b45b224209cefc6d40a508a6aea9fe704823fcff0a611c5e051e30f4a16b872",
            "rb85_truncated13_peaks.csv":
                "4e37b8176039ebd110f99eab5ac1ace71f5743db479bfed2b2f97e18b241246d",
            "rb85_truncated13_peaks.json":
                "fea6d7602f58cc007d376fa34578837fe868de73d4c295dad5081f1f1cc20293",
        },
    ),
    # a config rabi_mhz wins over a config rabi_fraction ...
    "rb85-config-rabi-mhz": (
        "rb85",
        _RB85_BOTH_RABI_KEYS,
        "048bd1b538f87027",
        {
            "rb85_peaks.csv": "dc9fed89379594d4bba36e01c0d45a908f2807edfb264c3724c1e61bbf203a9a",
            "rb85_summary.json": "b11d7d78cce673b0bb73021306445b3f3d7c9dbcda25b328f0c891d4afc6eebe",
        },
    ),
    # ... and a --rabi-fraction flag wins over both
    "rb85-fraction-flag": (
        "rb85 --rabi-fraction 0.007",
        _RB85_BOTH_RABI_KEYS,
        "080c37fbbd698e07",
        {
            "rb85_peaks.csv": "41be45f1d707353a74b2f9f30a3a7c501eba5ea86b08f6b956f4737150540dc7",
            "rb85_summary.json": "33f9e3d73ec17b3fbad564359d13c74373d989eeff48f16834be01be5996a570",
        },
    ),
    "rb85-pi-branch": (
        "rb85 --offset-branch pi --line-detuning-mhz 3",
        None,
        "7d0120e330e21b60",
        {
            "rb85_peaks.csv": "d71c156963e7da1ade64afe13cc4264ef684ebaf7c6b50a26aa6ba1fcf11901f",
            "rb85_summary.json": "36811d55fd0b81ed1bc1bc14a3847cab8f88f63e37250d2b394cacb9b0c93a09",
        },
    ),
    "rates-readme": (
        "rates --n-levels 13",
        None,
        "8a23821b3d493bd7",
        {"rates.csv": "2867b0e788f1e09275022f26524335b91f82a714478a3deb4c6fe22be431317f"},
    ),
}


# Runs [tag, argv] pairs from stdin through one in-process main() each, in order, and
# prints per tag the exit code, stderr, and every output file's first line, JSON
# config_hash and sha256.
_CHILD_RUNS = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from clams.cli import main

results = {}
for tag, argv in json.load(sys.stdin):
    out = Path(sys.argv[1]) / tag
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # an argparse error
            code = exc.code
    files = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        data = path.read_bytes()
        files[path.name] = {
            "first_line": data.decode().split("\\n", 1)[0],
            "config_hash": json.loads(data).get("config_hash") if path.suffix == ".json" else None,
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    results[tag] = {"code": code, "stderr": err.getvalue(), "files": files}
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """Every GOLDEN case run twice in one interpreter with BLAS at one thread: forward
    ("fwd-<name>"), then two failing commands, then in reverse order ("rev-<name>"), so
    that a call that leaves state behind in the CLI shows as a changed output."""
    root = tmp_path_factory.mktemp("golden")
    argvs = {}
    for name, (command, config, _, _) in GOLDEN.items():
        argvs[name] = command.split()
        if config is not None:
            (root / f"{name}.cfg").write_text(config)
            argvs[name] += ["--config", str(root / f"{name}.cfg")]
    (root / "bad.cfg").write_text("format = xml\n")
    runs = [
        *([f"fwd-{name}", argv] for name, argv in argvs.items()),
        ["bad-config", ["rb85", "--with-truncated-13", "--config", str(root / "bad.cfg")]],
        ["bad-flag", ["steady", "--n-levels", "21", "--effective", "--rabi-mhz", "fast"]],
        *([f"rev-{name}", argv] for name, argv in reversed(argvs.items())),
    ]
    return json.loads(run_python(_CHILD_RUNS, str(root / "out"), stdin=json.dumps(runs),
                                 blas_threads=1))


@pytest.mark.parametrize("name", GOLDEN)
def test_outputs_match_the_golden_bytes(golden_runs, name):
    _, _, digest, files = GOLDEN[name]
    for tag in (f"fwd-{name}", f"rev-{name}"):
        run = golden_runs[tag]
        assert (run["code"], run["stderr"]) == (0, ""), tag
        assert sorted(run["files"]) == sorted(files), tag
        for file_name, got in run["files"].items():
            if file_name.endswith(".csv"):
                assert got["first_line"] == f"# config-hash: {digest}", (tag, file_name)
            elif file_name == "rb85_summary.json":
                assert got["config_hash"] == digest, tag
            assert got["sha256"] == files[file_name], (tag, file_name)


def test_failing_calls_between_the_golden_runs_exit_2(golden_runs):
    bad_config, bad_flag = golden_runs["bad-config"], golden_runs["bad-flag"]
    assert bad_config["code"] == 2 and bad_config["files"] == {}
    assert json.loads(bad_config["stderr"])["error"].startswith("format must be ")
    assert bad_flag["code"] == 2 and bad_flag["files"] == {}
    assert "argument --rabi-mhz: invalid float value: 'fast'" in bad_flag["stderr"]


def test_rb85_peak_weights_barely_depend_on_the_blas_thread_count(tmp_path):
    """BLAS can round differently at one thread and at the library's default, so the
    golden bytes are only promised for one thread count; the numbers agree far below
    any tolerance of the model."""
    weights = []
    for threads in (1, None):
        out = tmp_path / str(threads)
        run_python("import sys; from clams.cli import main; sys.exit(main(sys.argv[1:]))",
                   "rb85", "--with-truncated-13", "--format", "json", "--out", str(out),
                   blas_threads=threads)
        weights.append([peak["weight"] for stem in ("rb85", "rb85_truncated13")
                        for peak in json.loads((out / f"{stem}_peaks.json").read_text())["peaks"]])
    np.testing.assert_allclose(weights[0], weights[1], rtol=1e-12, atol=0)


def run_with_config(tmp_path, capsys, config, *argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    code = run_cli(*argv, "--config", str(cfg), "--out", str(out))
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.strip())["error"] if code else None
    return code, error, out


@pytest.mark.parametrize("key", ["rabi_mz", "n_levls", "sweep_count", "sweep_start_mhz", "config"])
def test_unknown_config_key_exits_2(tmp_path, capsys, key):
    code, error, out = run_with_config(tmp_path, capsys, f"n_levels = 5\n{key} = 7\n", "steady")
    assert code == 2
    assert repr(key) in error
    assert not out.exists()


@pytest.mark.parametrize("key", ["effective", "dump_generator", "with_truncated_13"])
def test_switch_as_config_key_exits_2(tmp_path, capsys, key):
    code, error, _ = run_with_config(tmp_path, capsys, f"{key} = true\n", "steady")
    assert code == 2
    assert "--" + key.replace("_", "-") in error


def test_one_config_file_serves_several_subcommands(tmp_path, capsys):
    config = "n_levels = 3\nsplitting_mhz = 2.0\nomega_min = 1e-3\nstart_mhz = -1\n"
    for command in ("steady", "rb85", "rates"):
        (tmp_path / command).mkdir()
        code, _, out = run_with_config(tmp_path / command, capsys, config, command)
        assert code == 0
        assert any(out.iterdir())


@pytest.mark.parametrize("argv, config, key", [
    (["steady"], "format = xml\n", "format"),
    (["steady"], "format =\n", "format"),
    (["sweep-rabi"], "spacing = cubic\n", "spacing"),
    (["sweep-detuning", "--start-mhz", "-1", "--stop-mhz", "1", "--count", "3"], "spacing = \n",
     "spacing"),
    (["rb85"], "offset_branch = up\n", "offset_branch"),
    (["rb85"], "format = CSV\n", "format"),
], ids=["format", "empty-format", "spacing", "empty-spacing", "offset-branch", "rb85-format"])
def test_bad_choice_in_config_exits_2(tmp_path, capsys, argv, config, key):
    code, error, out = run_with_config(tmp_path, capsys, config, *argv)
    assert code == 2
    assert error.startswith(f"{key} must be ")
    assert not out.exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    code = run_cli("steady", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["type"] == "ConfigError" and "missing.cfg" in err["error"]


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert run_cli("rates", "--n-levels", "3", "--out", str(taken)) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ConfigError" and "taken" in err["error"]
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv, named", [
    (["steady", "--n-levels", "3", "--effective", "--rabi-mhz", "1e300"], "rabi_mhz"),
    (["rates", "--n-levels", "3", "--rabi-mhz", "1e300"], "rabi_mhz"),
    (["rates", "--n-levels", "3", "--detunings-mhz", "1e300,0"], "detunings_mhz"),
    # (j_hop / gamma_prime)**4, the ratio of the order-6 rate, overflows
    (["rates", "--n-levels", "7", "--gamma-prime-mhz", "1e-200"], "gamma_prime_mhz"),
    # every power is in range, but 2*pi * j_hop**2 * (j_hop/gamma_prime)**2 is not
    (["rates", "--n-levels", "5", "--rabi-mhz", "1e77", "--gamma-prime-mhz", "1e140"],
     "gamma_prime_mhz"),
    # ||L||_F overflows: the residual check fails (finite / inf would pass any vector)
    # and the error names the generator's scale, not a degenerate null space
    (["steady", "--n-levels", "3", "--rabi-mhz", "1e160"], "||L||_F overflows"),
    (["steady", "--n-levels", "3", "--rabi-mhz", "1e200"], "||L||_F overflows"),
    # j_hop = rabi**2 / gamma is a finite power over a tiny gamma, which overflows silently
    (["sweep-detuning", "--n-levels", "5", "--rabi-mhz", "1e10", "--gamma-mhz", "1e-300",
      "--start-mhz", "-1", "--stop-mhz", "1", "--count", "3"], "gamma_mhz"),
    (["steady", "--n-levels", "3", "--effective", "--rabi-mhz", "1e10", "--gamma-mhz", "1e-300"],
     "gamma_mhz"),
    # j_hop is finite, but a tiny gamma makes the amplitude overflow
    (["rates", "--n-levels", "3", "--rabi-mhz", "1e70", "--gamma-mhz", "1e-20",
      "--detunings-mhz", "1e-30,0"], "gamma_mhz"),
], ids=["steady-effective", "rates-rabi", "rates-detuning", "rates-gamma-prime",
        "rates-amplitude", "steady-norm-1e160",
        "steady-norm-1e200", "sweep-detuning-j-hop", "steady-effective-j-hop", "rates-gamma"])
@pytest.mark.filterwarnings("ignore:rabi/gamma")  # the reduced model's strong-drive warning
def test_overflowing_setting_exits_2(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["type"] == "OverflowError"
    assert named in err["error"]
    assert not out.exists()


def test_residual_failure_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(liouvillian, "RESIDUAL_RTOL", 0.0)
    out = tmp_path / "out"
    argv = ["--n-levels", "5", "--rabi-mhz", "15.2", "--gamma-mhz", "1900", "--gamma-prime-mhz", "0.2"]
    assert run_cli("steady", *argv, "--out", str(out)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["type"] == "SteadyStateError" and "exceeds" in err["error"]
    assert not out.exists()


def test_failing_second_model_writes_nothing(tmp_path, capsys, monkeypatch):
    # the full rb85 model solves; the 13-level chain after it fails
    solve = cli.steady_state

    def fail_at_13(gen):
        if gen.n_states == 13:
            raise SteadyStateError("13-level chain failed")
        return solve(gen)

    monkeypatch.setattr(cli, "steady_state", fail_at_13)
    out = tmp_path / "out"
    assert run_cli("rb85", "--with-truncated-13", "--format", "both", "--out", str(out)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "13-level chain failed", "type": "SteadyStateError"}
    assert not out.exists()


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    (tmp_path / "steady_rho.csv").mkdir()
    assert run_cli("steady", "--n-levels", "3", "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["type"] == "ConfigError"
    assert err["error"].startswith("cannot write output file") and "steady_rho.csv" in err["error"]


def test_warnings_are_one_json_line_each(tmp_path, capsys):
    argv = ["steady", "--n-levels", "3", "--effective", "--rabi-mhz", "200", "--out", str(tmp_path)]
    for _ in range(2):  # recorded again by a second call in the same process
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {
            "warning": "rabi/gamma = 0.105 > 0.05; the reduced description degrades at strong driving",
            "type": "UserWarning",
        }


def test_warnings_join_the_one_line_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["steady", "--n-levels", "3", "--effective", "--rabi-mhz", "1e300", "--out", str(out)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["type"] == "OverflowError"
    (warning,) = err["warnings"]
    assert warning["type"] == "UserWarning"
    assert warning["warning"].startswith("rabi/gamma = 5.26e+296 > 0.05")
    assert not out.exists()


def test_each_warning_appears_once_in_the_error(tmp_path, capsys):
    # the graded attempt and the one-block re-solve both multiply by the overflowing L
    argv = ["steady", "--n-levels", "3", "--rabi-mhz", "1e160", "--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    pairs = [(w["warning"], w["type"]) for w in json.loads(line)["warnings"]]
    assert ("overflow encountered in matmul", "RuntimeWarning") in pairs
    assert len(pairs) == len(set(pairs)), pairs


def test_warning_that_the_callers_filter_raises_exits_2(tmp_path, capsys):
    # python -W error: the reduced model's strong-drive warning is an exception
    out = tmp_path / "out"
    argv = ["steady", "--n-levels", "3", "--effective", "--rabi-mhz", "200", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "rabi/gamma = 0.105 > 0.05; the reduced description degrades at strong driving",
        "type": "UserWarning",
    }
    assert not out.exists()


# A longer and a shorter run of each command, by the size of the files they write.
REWRITES = {
    "steady": (["steady", "--n-levels", "21", "--dump-generator", "--format", "both"],
               ["steady", "--n-levels", "3", "--dump-generator", "--format", "both"]),
    "rb85": (["rb85", "--with-truncated-13", "--format", "both"],
             ["rb85", "--with-truncated-13", "--format", "both", "--rabi-fraction", "0"]),
    "sweep-rabi": (["sweep-rabi", "--count", "201"], ["sweep-rabi", "--count", "5"]),
}


def _written(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", REWRITES)
def test_junk_under_every_output_name_is_overwritten(tmp_path, name):
    argv = REWRITES[name][0]
    assert run_cli(*argv, "--out", str(tmp_path / "fresh")) == 0
    fresh = _written(tmp_path / "fresh")
    reused = tmp_path / "reused"
    reused.mkdir()
    for file_name in fresh:
        (reused / file_name).write_bytes(b"junk\n" * (2 * 2**20 // 5))  # 2 MB
    assert run_cli(*argv, "--out", str(reused)) == 0
    assert _written(reused) == fresh


@pytest.mark.parametrize("name", REWRITES)
def test_shorter_run_over_a_longer_one_leaves_no_tail(tmp_path, name):
    longer, shorter = REWRITES[name]
    assert run_cli(*shorter, "--out", str(tmp_path / "fresh")) == 0
    fresh = _written(tmp_path / "fresh")
    reused = tmp_path / "reused"
    assert run_cli(*longer, "--out", str(reused)) == 0
    old = _written(reused)
    assert run_cli(*shorter, "--out", str(reused)) == 0
    assert all(len(fresh[file_name]) < len(old[file_name]) for file_name in fresh)
    got = _written(reused)
    assert {file_name: got[file_name] for file_name in fresh} == fresh


# Every setting of a subcommand, written as str() of its parsed value, so that its text
# and therefore the config hash do not depend on whether a flag or the file gave it.
_CHAIN = {"n_levels": "5", "rabi_mhz": "15.3", "gamma_mhz": "1850.0",
          "gamma_prime_mhz": "0.25", "detunings_mhz": "0.01,0,0,0.02",
          "delta_omega_s_mhz": "2.5"}
_PEAK_FILES = {"format": "both", "threshold": "0.001"}
_RB85 = {"rabi_fraction": "0.007", "gamma_mhz": "1850.0", "gamma_prime_mhz": "0.25",
         "delta_omega_s_mhz": "2.5", "splitting_mhz": "2.3", "excited_splitting_mhz": "2.2",
         "line_detuning_mhz": "1.5", "offset_branch": "pi"}
EQUIVALENT = {
    "steady": ("steady", {**_CHAIN, **_PEAK_FILES}),
    "sweep-detuning": ("sweep-detuning", {**_CHAIN, "parallel": "2", "start_mhz": "-0.5",
                                          "stop_mhz": "0.5", "count": "5", "spacing": "linear"}),
    "sweep-rabi": ("sweep-rabi", {**_CHAIN, "parallel": "2", "omega_min": "0.001",
                                  "omega_max": "0.02", "count": "4", "spacing": "log"}),
    "rates": ("rates", {**_CHAIN, "n_levels": "9",
                        "detunings_mhz": "0.01,0,0,0,0,0,0,0.02"}),
    "rb85-rabi-mhz": ("rb85", {**_RB85, **_PEAK_FILES, "rabi_mhz": "14.0"}),
    "rb85-rabi-fraction": ("rb85", {**_RB85, **_PEAK_FILES}),
}


@pytest.mark.parametrize("command", ["steady", "sweep-detuning", "sweep-rabi", "rates", "rb85"])
def test_equivalence_cases_cover_the_table(command):
    given = set().union(*(values for cmd, values in EQUIVALENT.values() if cmd == command))
    table = {key for key, kind, _, cmds, _ in _PARAMS if command in cmds and kind is not bool}
    assert given | {"out"} == table


@pytest.mark.parametrize("name", EQUIVALENT)
def test_flags_and_config_file_give_the_same_bytes(tmp_path, capsys, name):
    command, values = EQUIVALENT[name]
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    assert run_cli(command, *flags, "--out", str(tmp_path / "flags")) == 0
    stdout = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items())
                   + f"out = {tmp_path / 'config'}\n")
    assert run_cli(command, "--config", str(cfg)) == 0
    assert capsys.readouterr().out == stdout
    by_flags = sorted((tmp_path / "flags").iterdir())
    by_config = sorted((tmp_path / "config").iterdir())
    assert [p.name for p in by_flags] == [p.name for p in by_config] != []
    for a, b in zip(by_flags, by_config):
        assert a.read_bytes() == b.read_bytes(), a.name
