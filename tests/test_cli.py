import hashlib
import json

import numpy as np
import pytest

from clams.cli import _PARAMS, ConfigError, main, parse_config_file, write_complex_matrix_csv
from clams.effective import reduce
from clams.liouvillian import build_generator, cascaded_lambda_graph
from clams.units import mhz_to_angular
from conftest import chain_params, rb85_graph
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


@pytest.mark.parametrize("build", [chain21_generator, rb85_generator, planted_matrix])
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
# digests pin the solver's bytes for one numpy/BLAS build, so after a toolchain change
# regenerate them from a commit whose outputs are known to be right.
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
            "rb85_peaks.csv": "2bcc8074d821646037bace66fa5bf21122ab8c847ac74c0c4410a7b6e97e421b",
            "rb85_peaks.json": "f2dc058d7a3f8faf2cfffbf5f745457e0b73206605935170b88d91103f2cd3c3",
            "rb85_summary.json": "5e4f75ee599037ad1c85b905fc52af9f51b110a23a866d865d5d30e31faeb8d2",
            "rb85_truncated13_peaks.csv":
                "874ca34e55d6bd69299d95b32cd0455e9f3f3a08e9c9cad6e2d8251ecae2b30d",
            "rb85_truncated13_peaks.json":
                "ffa7fc639b97317de1b27f68af465fb501b80897b391bc27fcc8cce6a8795a91",
        },
    ),
    # a config rabi_mhz wins over a config rabi_fraction ...
    "rb85-config-rabi-mhz": (
        "rb85",
        _RB85_BOTH_RABI_KEYS,
        "048bd1b538f87027",
        {
            "rb85_peaks.csv": "30958300f1d263a4869072f0dd6eda526c3a01f1e5a40abb65c81f3b7487761a",
            "rb85_summary.json": "7f181ae43e879e665e2b5579da1e09fc976d973283ac5b77b0f89418d0386f4b",
        },
    ),
    # ... and a --rabi-fraction flag wins over both
    "rb85-fraction-flag": (
        "rb85 --rabi-fraction 0.007",
        _RB85_BOTH_RABI_KEYS,
        "080c37fbbd698e07",
        {
            "rb85_peaks.csv": "d32f8c910a884870aac324a9558b0740ba9afd86a505c942979dfd9441fa22fc",
            "rb85_summary.json": "7cfbb07dde96f56d149428920a45dcc16bedeb822b267be0e9a8a50c742cd20e",
        },
    ),
    "rb85-pi-branch": (
        "rb85 --offset-branch pi --line-detuning-mhz 3",
        None,
        "7d0120e330e21b60",
        {
            "rb85_peaks.csv": "483bd2bd18a6fd27ab9a610c076177966b9ae4127d29a0a21fbc7c44fc75a0fb",
            "rb85_summary.json": "78470fbcb122e6ed7d33910db48034943b406cd13b015d633487378137f46e30",
        },
    ),
    "rates-readme": (
        "rates --n-levels 13",
        None,
        "8a23821b3d493bd7",
        {"rates.csv": "8734c6f1e4b50d9b7edd10faaa2beac5c0badb93cd3a930cb8c855215bc2fb29"},
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_outputs_match_the_golden_bytes(tmp_path, name):
    command, config, digest, files = GOLDEN[name]
    argv = command.split()
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    written = sorted(out.iterdir())
    assert [path.name for path in written] == sorted(files)
    for path in written:
        if path.suffix == ".csv":
            assert path.read_text().splitlines()[0] == f"# config-hash: {digest}"
        elif path.name == "rb85_summary.json":
            assert json.loads(path.read_text())["config_hash"] == digest
        assert hashlib.sha256(path.read_bytes()).hexdigest() == files[path.name], path.name


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
    (["selftest"], "format = CSV\n", "format"),
], ids=["format", "empty-format", "spacing", "empty-spacing", "offset-branch", "selftest-format"])
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
_COMMON = {"format": "both", "threshold": "0.001", "parallel": "2", "seed": "3"}
_RB85 = {"rabi_fraction": "0.007", "gamma_mhz": "1850.0", "gamma_prime_mhz": "0.25",
         "delta_omega_s_mhz": "2.5", "splitting_mhz": "2.3", "excited_splitting_mhz": "2.2",
         "line_detuning_mhz": "1.5", "offset_branch": "pi"}
EQUIVALENT = {
    "steady": ("steady", {**_CHAIN, **_COMMON}),
    "sweep-detuning": ("sweep-detuning", {**_CHAIN, **_COMMON, "start_mhz": "-0.5",
                                          "stop_mhz": "0.5", "count": "5", "spacing": "linear"}),
    "sweep-rabi": ("sweep-rabi", {**_CHAIN, **_COMMON, "omega_min": "0.001",
                                  "omega_max": "0.02", "count": "4", "spacing": "log"}),
    "rates": ("rates", {**_CHAIN, **_COMMON, "n_levels": "9",
                        "detunings_mhz": "0.01,0,0,0,0,0,0,0.02"}),
    "rb85-rabi-mhz": ("rb85", {**_RB85, **_COMMON, "rabi_mhz": "14.0"}),
    "rb85-rabi-fraction": ("rb85", {**_RB85, **_COMMON}),
    "selftest": ("selftest", _COMMON),
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
