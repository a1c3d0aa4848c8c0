import json

import numpy as np
import pytest

from clams.cli import ConfigError, main, parse_config_file


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
