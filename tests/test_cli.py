import hashlib
import json

import numpy as np
import pytest

from clams.cli import _PARAMS, ConfigError, main, parse_config_file, write_complex_matrix_csv
from clams.effective import reduce
from clams.liouvillian import build_generator, cascaded_lambda_graph
from clams.units import mhz_to_angular
from conftest import chain_params, rb85_graph, run_python
from oracles import per_value_matrix_csv


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


@pytest.mark.parametrize("build", [chain21_generator, rb85_generator, planted_matrix, zero_matrix,
                                   one_by_one, one_row, boundary_parts])
def test_matrix_csv_matches_per_value_oracle(tmp_path, build):
    matrix = build()
    write_complex_matrix_csv(tmp_path / "got.csv", matrix, "0123456789abcdef")
    per_value_matrix_csv(tmp_path / "want.csv", matrix, "0123456789abcdef")
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
], ids=["flag-of-another-subcommand", "bad-value", "unknown-flag", "no-command"])
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


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_levels = 7\nrabi_mhz = 1.0\ngamma_mhz = 1000\n")
    out = tmp_path / "out"
    code = run_cli("steady", "--config", str(cfg), "--rabi-mhz", "2.0", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out / "steady_peaks.csv")
    assert len(rows) == 3  # n_levels=7 from config -> three harmonics


def test_selftest_passes(capsys):
    assert run_cli("selftest") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


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
# peak weight of "rb85-pi-branch").  Every other digest, the N = 21 generator dump's
# included, is unchanged.
_RB85_BOTH_RABI_KEYS = "rabi_fraction = 0.009\nrabi_mhz = 14.5\ngamma_mhz = 1.9e3\n"
GOLDEN = {
    "steady-readme": (
        "steady --n-levels 5 --rabi-mhz 15.2 --gamma-mhz 1900 --gamma-prime-mhz 0.2",
        None,
        "044db897e89bc3cf",
        {
            "steady_peaks.csv": "031f5f7eb041c023be39b85b8b538703f1530ec6e07db4af6542f236e3e688ce",
            "steady_rho.csv": "edb883b590a9d875aeeaf32e0b172ba9aa664f95fce981cd36ce041f19031d2e",
        },
    ),
    "steady-defaults": (
        "steady",
        None,
        "16f97a82ef75289b",
        {
            "steady_peaks.csv": "d9a6bd96311e2a468d6f89ef3eeda8958429bbf9b2505c7dc4e8fff5e7196bd7",
            "steady_rho.csv": "53fcf803e48a637586a09e3dae945279f94c1f8a3f361fa668f05ef467df949a",
        },
    ),
    # numbers in non-canonical form are hashed as written in the file
    "steady-config-override": (
        "steady --gamma-prime-mhz 0.3",
        "n_levels = 5\nrabi_mhz = 15.20\ngamma_mhz = 1.9e3\ndetunings_mhz = 0.1, 0, 0.1, 0\n",
        "5a5e73a65bfd5069",
        {
            "steady_peaks.csv": "4f1d6b43a27b78ca609ac5c37a959ac17dcfe02532316e0366ca8a8e563e9617",
            "steady_rho.csv": "0a2b96b3b4afa69210b59ae82ca3599190e0ef7cfe03344a96f35aa800904e7e",
        },
    ),
    "steady-effective-dump": (
        "steady --n-levels 7 --effective --dump-generator --format both",
        None,
        "5172840c7b2218ba",
        {
            "steady_generator.csv":
                "80a70cf8168638e09edae359011b6e55773a7b82d70f53e59756113e371a4632",
            "steady_peaks.csv": "11399865e5ddc6c78e9451875f86990a9f93a66df8fe3082e4c3c00caac69c63",
            "steady_peaks.json": "555734c2bb06c4097efd6285f344cac6849349048458b4b8324789fd4a689704",
            "steady_rho.csv": "e254271995a02e59754e8d1309f7f9db118839b4ebb9721fb173fd2a0d54dc4c",
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
            "steady_peaks.csv": "1c978c0c2e55b2cd1a6e535864a4058a0ae55a2608e39264b3780e2d6e696252",
            "steady_rho.csv": "faefd1393585ddcb4da890fd38f5d19b628714b26e1fdb3dff522cfb6a543bf1",
        },
    ),
    "sweep-detuning-readme": (
        "sweep-detuning --n-levels 5 --start-mhz -2 --stop-mhz 2 --count 41",
        None,
        "f6bf4a0ab3f1d1d0",
        {"sweep_detuning.csv": "bcadf1e85923b6d38db657020555783b524887d5b5131b30ccd4ea7cf887168e"},
    ),
    "sweep-detuning-config": (
        "sweep-detuning",
        "start_mhz = -1\nstop_mhz = 1.0\ncount = 7\nspacing = linear\nn_levels = 7\n",
        "6864a6326f77e71f",
        {"sweep_detuning.csv": "181a4d10413a4c3497b62493a04569d8f8acb3dc56ad90789215c0c5d96e5f59"},
    ),
    "sweep-rabi-readme": (
        "sweep-rabi --n-levels 7 --omega-min 1e-4 --omega-max 5e-2 --count 201 "
        "--gamma-prime-mhz 0.02",
        None,
        "e8dba1a8b202d6f9",
        {"sweep_rabi.csv": "87174a6b104428178f408874bf8c8bac18f3eebfa69a991be99116c5bee98faf"},
    ),
    "sweep-rabi-defaults": (
        "sweep-rabi",
        None,
        "8ff0945a624553ad",
        {"sweep_rabi.csv": "b3d80bb98eab19dec6eacdda60608ed56ca3e5deafc11ca0f009fc9b540a0ab5"},
    ),
    "rb85-readme": (
        "rb85 --with-truncated-13 --format both",
        None,
        "47019e97af788057",
        {
            "rb85_peaks.csv": "f7e49db6cba375e90038b5dc7c0945c06ad27b5da23e9816ec4ee5706725d19f",
            "rb85_peaks.json": "76c574f847bff53811fbf1797a0cbb3bfb328deb2532d166fc06be7cc44a7184",
            "rb85_summary.json": "e3e55fe360c0dffe413545725ae4afced33fcc5d3278f4c8f07e93f067d0e13a",
            "rb85_truncated13_peaks.csv":
                "30d08d97383c68e64e40955c98e63e2e26fbf6a166a2feefa381bb5450f39fe0",
            "rb85_truncated13_peaks.json":
                "f062a42ec2d165bb828fce57c5704d36ffa19cf512f61a1768335cdc595ee6b2",
        },
    ),
    # a config rabi_mhz wins over a config rabi_fraction ...
    "rb85-config-rabi-mhz": (
        "rb85",
        _RB85_BOTH_RABI_KEYS,
        "048bd1b538f87027",
        {
            "rb85_peaks.csv": "c4ecbbb22a2e53dcedd8f2ba0117c2c6929759c4203ff8378a61e8bb3aeeb9f1",
            "rb85_summary.json": "9d9316bf9c84f34dfc3ed2ef461968d072951708e191a6f701db5f4630350f7a",
        },
    ),
    # ... and a --rabi-fraction flag wins over both
    "rb85-fraction-flag": (
        "rb85 --rabi-fraction 0.007",
        _RB85_BOTH_RABI_KEYS,
        "080c37fbbd698e07",
        {
            "rb85_peaks.csv": "45783dbd7efb8c2347d70ea2c3326ab3340075bc207d8727fbaa31ad74435c4a",
            "rb85_summary.json": "cc1a454317fe0941febfb063ac1b17de0a555d2d38e0d6dd944b94925f1c74d1",
        },
    ),
    "rb85-pi-branch": (
        "rb85 --offset-branch pi --line-detuning-mhz 3",
        None,
        "7d0120e330e21b60",
        {
            "rb85_peaks.csv": "c7a92a65a464b2482f3d8e95fd365feceeb40501221dc0d42eb1b4d2c0841181",
            "rb85_summary.json": "e4b04fa7095f633249a11d695789b78ff09f86761f4d0a537ef42f31493538eb",
        },
    ),
    "rates-readme": (
        "rates --n-levels 13",
        None,
        "8a23821b3d493bd7",
        {"rates.csv": "8734c6f1e4b50d9b7edd10faaa2beac5c0badb93cd3a930cb8c855215bc2fb29"},
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


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    (tmp_path / "steady_rho.csv").mkdir()
    assert run_cli("steady", "--n-levels", "3", "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["type"] == "ConfigError"
    assert err["error"].startswith("cannot write output file") and "steady_rho.csv" in err["error"]


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
    "selftest": ("selftest", {"seed": "3"}),
}


@pytest.mark.parametrize("command", ["steady", "sweep-detuning", "sweep-rabi", "rates", "rb85",
                                     "selftest"])
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
    if command == "selftest":
        return
    by_flags = sorted((tmp_path / "flags").iterdir())
    by_config = sorted((tmp_path / "config").iterdir())
    assert [p.name for p in by_flags] == [p.name for p in by_config] != []
    for a, b in zip(by_flags, by_config):
        assert a.read_bytes() == b.read_bytes(), a.name
