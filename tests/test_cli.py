"""Command-line interface: golden regressions, exit codes, formats, config."""

import json
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_INVOCATIONS = {
    "identity.csv": [
        "identity", "--alpha", "3", "--beta", "1", "--n-max", "8", "--mode", "exact",
    ],
    "spectrum.csv": [
        "spectrum", "-N", "5", "--eps0", "0.0", "--v", "1.0", "--gamma", "0.5",
        "--from", "-3.0", "--to", "3.0", "--points", "21", "--method", "both",
    ],
    "current.json": [
        "current", "-N", "1", "--eps0", "0.0", "--v", "1.0", "--gamma", "0.5",
        "--mu-l", "-2.0", "--mu-r", "2.0",
    ],
    "evolve.csv": [
        "evolve", "-N", "2", "--eps0", "0.0", "--v", "1.0", "--gamma", "1.0",
        "--drive-energy", "0.5", "--dt", "0.05", "--t-max", "12.0",
    ],
}


def run_cli(*args, env=None, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "qwire", *args],
        capture_output=True, text=False, env=env,
    )


def run_text(*args):
    proc = run_cli(*args)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


# --- golden regressions -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
def test_golden_outputs_byte_identical(name):
    proc = run_cli(*GOLDEN_INVOCATIONS[name])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()


def test_repeated_invocations_are_deterministic():
    args = GOLDEN_INVOCATIONS["spectrum.csv"]
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


# --- identity subcommand --------------------------------------------------------

def test_identity_exact_rows_are_integers():
    code, out, _ = run_text("identity", "--alpha", "3", "--beta", "1", "--n-max", "3")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "n,cof_sq,det_combination,residual"
    assert rows[1] == "2,1,1,0"
    assert rows[2] == "3,1,1,0"


def test_identity_even_offdiagonal_row():
    code, out, _ = run_text("identity", "--alpha", "0", "--beta", "2", "--n-max", "2")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    # cof^2 = beta^(2n-2) = 4 and A_1^2 - A_0 A_2 = 0 - (-4) = 4
    assert rows[-1] == "2,4,4,0"


def test_identity_float_mode_reports_zero_residual():
    code, out, _ = run_text(
        "identity", "--alpha", "1.5", "--beta", "0.25", "--n-max", "6", "--mode", "float",
    )
    assert code == 0
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("n,"):
            continue
        assert float(line.split(",")[3]) == 0.0


def test_identity_json_format():
    code, out, _ = run_text(
        "identity", "--alpha", "3", "--beta", "1", "--n-max", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["rows"] == [{"n": 2, "cof_sq": 1, "det_combination": 1, "residual": 0}]


def test_identity_exact_rejects_fractional_input():
    code, out, err = run_text("identity", "--alpha", "0.5", "--beta", "1", "--n-max", "3")
    assert code == 2
    assert out == ""
    assert "exact" in err


def test_identity_rejects_small_n_max():
    code, out, _ = run_text("identity", "--alpha", "1", "--beta", "1", "--n-max", "1")
    assert code == 2
    assert out == ""


def test_missing_required_flag_exits_2():
    code, out, _ = run_text("identity", "--alpha", "3", "--n-max", "3")
    assert code == 2
    assert out == ""


# --- spectrum subcommand ----------------------------------------------------------

def spectrum_args(**overrides):
    base = {
        "-N": "3", "--eps0": "0", "--v": "1", "--gamma": "0.5",
        "--from": "-2", "--to": "2", "--points": "5", "--method": "both",
    }
    base.update(overrides)
    out = []
    for key, value in base.items():
        out += [key, value]
    return out


def test_spectrum_row_count_and_round_trip():
    code, out, _ = run_text("spectrum", *spectrum_args(**{"--points": "2"}))
    assert code == 0
    data = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(data) == 1 + 2  # header + both endpoints
    cells = data[1].split(",")
    assert float(cells[0]) == -2.0
    # shortest round-trip formatting: parsing back gives the exact double
    import qwire

    p = qwire.WireParams(n=3, eps0=0.0, v=1.0, gamma=0.5)
    assert float(cells[1]) == float(qwire.transmittance_gf(p, -2.0))


def test_spectrum_gf_only_columns():
    code, out, _ = run_text("spectrum", *spectrum_args(**{"--method": "gf"}))
    assert code == 0
    header = [line for line in out.splitlines() if not line.startswith("#")][0]
    assert header == "energy,t_gf"


def test_spectrum_eo_only_columns():
    code, out, _ = run_text("spectrum", *spectrum_args(**{"--method": "eo"}))
    assert code == 0
    header = [line for line in out.splitlines() if not line.startswith("#")][0]
    assert header == "energy,t_eo"


def test_spectrum_abs_diff_small():
    code, out, _ = run_text("spectrum", *spectrum_args(**{"--points": "201"}))
    assert code == 0
    diffs = [
        float(line.split(",")[3])
        for line in out.splitlines()
        if not line.startswith("#") and not line.startswith("energy")
    ]
    assert max(diffs) <= 1e-10


def test_spectrum_invalid_grid_exits_2():
    code, out, _ = run_text("spectrum", *spectrum_args(**{"--from": "2", "--to": "-2"}))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("python_flags", [(), ("-O",)])
@pytest.mark.parametrize("method", ["gf", "both"])
def test_spectrum_overflow_exits_1_without_nan(method, python_flags):
    # n = 1000 just above the band: the continuants overflow to nan.
    proc = run_cli(
        "spectrum", "-N", "1000", "--eps0", "0", "--v", "1", "--gamma", "0.5",
        "--from", "2.5", "--to", "3", "--points", "3", "--method", method,
        python_flags=python_flags,
    )
    assert proc.returncode == 1
    assert b"nan" not in proc.stdout
    assert b"Traceback" not in proc.stderr
    assert b"qwire: " in proc.stderr


def test_spectrum_json_format():
    code, out, _ = run_text("spectrum", *spectrum_args(**{"--format": "json"}))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert len(payload["energy"]) == 5
    assert len(payload["t_gf"]) == len(payload["t_eo"]) == 5


# --- current subcommand -------------------------------------------------------------

def current_args(mu_l="1.0", mu_r="-1.0", extra=()):
    return [
        "current", "-N", "2", "--eps0", "0", "--v", "1", "--gamma", "0.5",
        "--mu-l", mu_l, "--mu-r", mu_r, *extra,
    ]


def test_current_zero_bias_is_zero():
    code, out, _ = run_text(*current_args(mu_l="0.3", mu_r="0.3"))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.0
    assert payload["error_estimate"] == 0.0


def test_current_swapped_bias_negates():
    _, fwd, _ = run_text(*current_args())
    _, rev, _ = run_text(*current_args(mu_l="-1.0", mu_r="1.0"))
    assert json.loads(fwd)["value"] == pytest.approx(-json.loads(rev)["value"], rel=1e-12)


def test_current_csv_format():
    code, out, _ = run_text(*current_args(extra=("--format", "csv")))
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "value,error_estimate,window_lo,window_hi"
    assert len(rows) == 2


# --- evolve subcommand ---------------------------------------------------------------

def test_evolve_columns_and_summary():
    code, out, _ = run_text(
        "evolve", "-N", "2", "--eps0", "0", "--v", "1", "--gamma", "1",
        "--drive-energy", "0.0", "--dt", "0.1", "--t-max", "12",
    )
    assert code == 0
    lines = out.splitlines()
    header = [line for line in lines if line.startswith("t,")][0]
    assert header == "t,re_u1,im_u1,abs_u1,re_u2,im_u2,abs_u2"
    assert any(line.startswith("# steady_state_max_abs_deviation") for line in lines)
    data = [line for line in lines if not line.startswith(("#", "t,"))]
    assert len(data) == 121
    first = data[0].split(",")
    assert float(first[0]) == 0.0 and all(float(c) == 0.0 for c in first[1:])


def test_evolve_short_horizon_skips_summary():
    code, out, _ = run_text(
        "evolve", "-N", "1", "--eps0", "0", "--v", "1", "--gamma", "1",
        "--drive-energy", "0.0", "--dt", "0.1", "--t-max", "2",
    )
    assert code == 0
    assert "steady_state_comparison = skipped" in out


def test_evolve_resolution_guard_exits_2():
    code, out, _ = run_text(
        "evolve", "-N", "1", "--eps0", "0", "--v", "1", "--gamma", "4",
        "--drive-energy", "0.0", "--dt", "0.1", "--t-max", "2",
    )
    assert code == 2
    assert out == ""


def test_evolve_json_format():
    code, out, _ = run_text(
        "evolve", "-N", "1", "--eps0", "0", "--v", "1", "--gamma", "1",
        "--drive-energy", "0.5", "--dt", "0.1", "--t-max", "12", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert len(payload["times"]) == 121
    assert payload["steady_state"]["max_abs_deviation"] < 1e-3


# --- config file and output handling ---------------------------------------------------

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=3\nbeta=1\nn-max=4\nmode=exact\n")
    code, out, _ = run_text("identity", "--config", str(cfg))
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith(("#", "n,"))]
    assert len(rows) == 3


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=3\nbeta=1\nn-max=4\n")
    code, out, _ = run_text("identity", "--config", str(cfg), "--n-max", "2")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith(("#", "n,"))]
    assert len(rows) == 1


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=3\nbeta=1\nn-max=4\nbogus=1\n")
    code, out, _ = run_text("identity", "--config", str(cfg))
    assert code == 2


def test_missing_config_file_exits_2(tmp_path):
    code, _, err = run_text("identity", "--config", str(tmp_path / "absent.cfg"),
                            "--alpha", "1", "--beta", "1", "--n-max", "2")
    assert code == 2
    assert "config" in err


def test_output_file_and_env_dir(tmp_path):
    import os

    env = dict(os.environ)
    env["QWIRE_OUTPUT_DIR"] = str(tmp_path)
    proc = run_cli(
        "identity", "--alpha", "3", "--beta", "1", "--n-max", "3",
        "--output", "rows.csv", env=env,
    )
    assert proc.returncode == 0
    written = (tmp_path / "rows.csv").read_bytes()
    direct = run_cli("identity", "--alpha", "3", "--beta", "1", "--n-max", "3").stdout
    assert written == direct


def test_absolute_output_ignores_env_dir(tmp_path):
    import os

    env = dict(os.environ)
    env["QWIRE_OUTPUT_DIR"] = str(tmp_path / "unused")
    target = tmp_path / "direct.csv"
    proc = run_cli(
        "identity", "--alpha", "1", "--beta", "1", "--n-max", "2",
        "--output", str(target), env=env,
    )
    assert proc.returncode == 0
    assert target.exists()


def test_wire_param_validation_exits_2():
    code, out, _ = run_text("spectrum", *spectrum_args(**{"--gamma": "-1"}))
    assert code == 2
    assert out == ""
