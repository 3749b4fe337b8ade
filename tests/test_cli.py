"""Command-line interface: golden regressions, exit codes, formats, config."""

import argparse
import json
import math
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from qwire import (
    EXACT,
    FLOAT,
    IntegratorConfig,
    PreconditionError,
    SymToeplitzTridiag,
    WireParams,
    cli,
    corner_cofactor,
    det_sequence,
    identity_residual,
    integrate,
    steady_state_compare,
    steady_state_horizon,
    tridiag_core,
)

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


def test_golden_current_lies_within_its_bound_of_the_arctangent():
    # One site: T(e) = gamma**2 / (e**2 + gamma**2), so the current over
    # mu = -+2 is -2 gamma atan(2/gamma), negative since mu_left < mu_right.
    payload = json.loads((GOLDEN / "current.json").read_bytes())
    gamma = payload["params"]["gamma"]
    assert payload["bias"]["mu_left"] == -2.0 and payload["bias"]["mu_right"] == 2.0
    exact = -2.0 * gamma * math.atan(2.0 / gamma)
    assert 0.0 < payload["error_estimate"] <= 1e-10 * abs(exact)
    assert abs(payload["value"] - exact) <= payload["error_estimate"]


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


@pytest.mark.parametrize("mode, alpha, beta, n_max", [
    pytest.param("exact", "3", "1", 40, id="3-1"),
    pytest.param("exact", "-5", "7", 40, id="-5-7"),
    pytest.param("exact", "2.0", "3.0", 40, id="2.0-3.0"),
    pytest.param("float", "1.5", "0.25", 40, id="float-1.5-0.25"),
    pytest.param("float", "-0.37", "1.3", 40, id="float--0.37-1.3"),
    pytest.param("float", "7", "3", 40, id="float-7-3"),
    # A_213 passes 2**512 but stays in range, so every row prints from the
    # plain recurrence's values.
    pytest.param("float", "7", "3", 213, id="float-7-3-rescaled"),
])
def test_identity_exact_rows_match_per_size_library_calls(mode, alpha, beta, n_max, capsys):
    # The table reads every row from one n_max sequence; each cell must still
    # print as the per-size calls give it, type included.  Exact mode takes an
    # integral float as an int, as det_sequence does, so beta 3.0 gives the
    # integer cof_sq of beta 3.
    argv = ["identity", "--alpha", alpha, "--beta", beta, "--n-max", str(n_max), "--mode", mode]
    assert cli.main(argv) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith(("#", "n,"))]
    assert len(rows) == n_max - 1
    for n, row in enumerate(rows, start=2):
        m = SymToeplitzTridiag(cli._number(alpha), cli._number(beta), n)
        seq = det_sequence(m, mode).values
        cof = corner_cofactor(m if mode == FLOAT else SymToeplitzTridiag(
            m.alpha, int(m.beta), n))
        expected = [n, (float(cof) if mode == FLOAT else cof) ** 2,
                    seq[n - 1] ** 2 - seq[n - 2] * seq[n], identity_residual(m, mode)]
        assert row == ",".join(map(repr, expected))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_identity_table_calls_det_sequence_once(mode, monkeypatch, capsys):
    calls = []
    real = tridiag_core.det_sequence
    monkeypatch.setattr(tridiag_core, "det_sequence", lambda *a: calls.append(a) or real(*a))
    assert cli.main(["identity", "--alpha", "7", "--beta", "3", "--n-max", "30",
                     "--mode", mode]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["--alpha", "2", "--beta", "3.0", "--n-max", "400", "--mode", "float"],
    ["--alpha", "2", "--beta", "3", "--n-max", "400", "--mode", "float"],
])
def test_identity_row_beyond_double_range_exits_1(argv, capsys):
    # (3**324)**2 exceeds the largest double, so row 325 cannot print.
    assert cli.main(["identity", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qwire: identity row n=325 leaves the double range\n"


def test_identity_exact_mode_takes_integral_float_beta_as_int(capsys):
    # Exact mode has no range limit: beta 3.0 is the int 3 there, so row
    # 325 prints exactly, as it does for beta 3.
    tables = []
    for beta in ("3.0", "3"):
        argv = ["identity", "--alpha", "3", "--beta", beta, "--n-max", "700", "--mode", "exact"]
        assert cli.main(argv) == 0
        tables.append(capsys.readouterr().out.splitlines())
    float_beta, int_beta = tables
    assert "# beta = 3.0" in float_beta and "# beta = 3" in int_beta
    rows = [[line for line in table if not line.startswith("#")] for table in tables]
    assert len(rows[0]) == 700
    assert rows[0] == rows[1]


def test_identity_sequence_beyond_double_range_exits_1(capsys):
    # A_426 of alpha = 7, beta = 3 is the first determinant beyond the
    # largest double, so the table fails before any row is formed.
    argv = ["identity", "--alpha", "7", "--beta", "3", "--n-max", "1000", "--mode", "float"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qwire: determinant A_426 leaves the double range\n"


def test_identity_names_the_first_determinant_beyond_double_range(capsys):
    # beta**2 = 1e400 overflows, but A_0 = 1 and A_1 = alpha do not: the
    # first entry beyond the double range is A_2 = alpha**2 - beta**2.
    argv = ["identity", "--alpha", "1", "--beta", "1e200", "--n-max", "2", "--mode", "float"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qwire: determinant A_2 leaves the double range\n"


HUGE = "1" + "0" * 400  # 1e400, beyond the largest double


@pytest.mark.parametrize("name, alpha, beta", [("alpha", HUGE, "1"), ("beta", "1", HUGE)])
def test_identity_float_mode_rejects_input_beyond_double_range(name, alpha, beta, capsys):
    argv = ["identity", "--alpha", alpha, "--beta", beta, "--n-max", "3", "--mode", "float"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qwire: {name} lies beyond the double range that float mode needs\n"


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


def test_spectrum_grid_width_overflow_exits_2_naming_bounds():
    code, out, err = run_text(
        "spectrum", "-N", "5", "--eps0", "0", "--v", "1", "--gamma", "0.5",
        "--from=-1e308", "--to=1e308", "--points", "3",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "qwire: grid width e_max - e_min leaves the double range, got [-1e+308, 1e+308]"
    ]


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


def test_current_of_a_weakly_hopping_wire_exits_0_with_finite_values():
    # 200 sites with v = 0.01: |det C|**2 underflowed to 0 inside the window;
    # in Chebyshev units it does not, and the quadrature (h = 25) returns.
    code, out, err = run_text(
        "current", "-N", "200", "--eps0", "0", "--v", "0.01", "--gamma", "0.5",
        "--mu-l", "0.01", "--mu-r", "-0.01",
    )
    assert code == 0
    assert "Traceback" not in err
    payload = json.loads(out)
    assert math.isfinite(payload["value"]) and math.isfinite(payload["error_estimate"])
    assert abs(payload["value"]) <= 0.02


@pytest.mark.parametrize("sites", ["1000", "2000"])
@pytest.mark.parametrize("command", [
    ["spectrum", "--from", "-1", "--to", "1", "--points", "3"],
    ["current", "--mu-l", "0.1", "--mu-r", "-0.1"],
])
def test_long_wire_beyond_the_cofactor_range_exits_0(command, sites):
    # v = 1.5: gamma**2 * v**(2n-2) (n = 1000) and v**(n-1) itself (n = 2000)
    # leave the double range, but no route takes a power of v.  No NaN may
    # reach stdout.
    code, out, err = run_text(
        command[0], "-N", sites, "--eps0", "0", "--v", "1.5", "--gamma", "0.5", *command[1:],
    )
    assert code == 0
    assert err == ""
    assert out and "nan" not in out.lower()


def test_current_on_a_long_wire_exits_0_without_a_quadrature_warning():
    # 226 chain resonances in the window: the quadrature stopped at its
    # subinterval limit 1.6e-6 off and printed scipy's IntegrationWarning.
    code, out, err = run_text(
        "current", "-N", "226", "--eps0", "0", "--v", "1", "--gamma", "0.3",
        "--mu-l", "2.2", "--mu-r", "-2.2",
    )
    assert code == 0
    assert err == ""
    assert abs(json.loads(out)["value"] - 0.9217386758698661) <= 1e-12


@pytest.mark.parametrize("temperature", ["3e306", "5e306"])
def test_current_window_beyond_double_range_exits_1_without_nan(temperature):
    # 3e306 pads the window to +-1.2e308, whose width overflows; 5e306 pads past it.
    code, out, err = run_text(
        *current_args(mu_l="1", mu_r="-1", extra=("--temperature", temperature)),
    )
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.count("qwire: ") == 1 and f"temperature {float(temperature)!r}" in err


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


def test_evolve_csv_rows_match_per_element_builder(capsys):
    # The CSV table is built from columns; every row must print as a loop over
    # Python complex values prints it, with abs(z) for the modulus.
    assert cli.main([
        "evolve", "-N", "5", "--eps0", "0.1", "--v", "-0.8", "--gamma", "0.6",
        "--drive-energy", "0.4", "--dt", "0.05", "--t-max", "20",
    ]) == 0
    data = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith(("#", "t,"))]
    p = WireParams(n=5, eps0=0.1, v=-0.8, gamma=0.6)
    traj = integrate(p, 0.4, IntegratorConfig(dt=0.05, t_max=20.0))
    expect = []
    for t, amplitudes in zip(traj.times.tolist(), traj.u.tolist()):
        row = [t]
        for z in amplitudes:
            row += [z.real, z.imag, abs(z)]
        expect.append(",".join(map(repr, row)))
    assert data == expect


def test_hypot_rounds_as_python_abs_on_trajectory_values():
    # Trajectory values scaled by exact powers of two: moduli from about 1e297
    # down through the subnormals to zero.
    p = WireParams(n=5, eps0=0.1, v=1.0, gamma=0.8)
    u = integrate(p, 0.4, IntegratorConfig(dt=0.05, t_max=20.0)).u[1:].ravel()
    values = np.concatenate([u * 2.0**e for e in range(-990, 1000, 30)])
    got = np.hypot(values.real, values.imag).tolist()
    assert [x.hex() for x in got] == [abs(z).hex() for z in values.tolist()]


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


@pytest.mark.parametrize("t_max, skipped", [("9.9", True), ("10", False)])
def test_evolve_summary_follows_steady_state_horizon(t_max, skipped, capsys):
    # The CLI skips the comparison exactly where steady_state_compare refuses.
    assert cli.main([
        "evolve", "-N", "1", "--eps0", "0", "--v", "1", "--gamma", "1",
        "--drive-energy", "0.0", "--dt", "0.1", "--t-max", t_max,
    ]) == 0
    out = capsys.readouterr().out
    assert ("# steady_state_comparison = skipped (t_max < 10/gamma)" in out) == skipped
    p = WireParams(n=1, eps0=0.0, v=1.0, gamma=1.0)
    traj = integrate(p, 0.0, IntegratorConfig(dt=0.1, t_max=float(t_max)))
    assert (traj.times[-1] < steady_state_horizon(p)) == skipped
    if skipped:
        with pytest.raises(PreconditionError):
            steady_state_compare(traj, p)
    else:
        steady_state_compare(traj, p)


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


def test_config_value_of_wrong_type_exits_2_naming_it(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites=abc\n")
    code, out, err = run_text("spectrum", "--config", str(cfg), "--eps0", "0", "--v", "1",
                              "--gamma", "0.5", "--from", "-1", "--to", "1", "--points", "3")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "sites='abc'" in errors[0]


def test_last_config_file_wins(tmp_path):
    # argparse keeps the last --config, as it keeps the last of every flag.
    first, last = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("alpha=3\nbeta=1\nn-max=2\n")
    last.write_text("alpha=5\nbeta=1\nn-max=2\n")
    for flags in (["--config", str(first), "--config", str(last)],
                  [f"--config={first}", f"--config={last}"]):
        code, out, _ = run_text("identity", *flags)
        assert code == 0
        assert "# alpha = 5" in out.splitlines()


@pytest.mark.parametrize("flag", ["--conf", "--c"])
def test_abbreviated_config_flag_applies_the_file(tmp_path, flag):
    # argparse takes any unique prefix of --config, so the file must apply as well.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=3\nbeta=1\nn-max=4\n")
    code, out, err = run_text("identity", flag, str(cfg))
    assert code == 0, err
    assert "# n_max = 4" in out.splitlines()


def test_config_without_value_reports_subcommand_usage_once():
    code, out, err = run_text("identity", "--alpha", "3", "--beta", "1", "--n-max", "3",
                              "--config")
    assert code == 2
    assert out == ""
    assert err.count("usage:") == 1 and err.startswith("usage: qwire identity ")
    assert "argument --config: expected one argument" in err


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # A config sets defaults and lifts `required` on its subparser; neither
    # may reach a later call in the same process.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=3\nbeta=1\nn-max=4\n")
    assert cli.main(["identity", "--config", str(cfg)]) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["identity", "--alpha", "3", "--n-max", "3"])
    assert info.value.code == 2
    assert "--beta" in capsys.readouterr().err
    assert cli.main(["identity", "--config", str(cfg)]) == 0
    assert capsys.readouterr() == first


@pytest.mark.parametrize("command", ["identity", "spectrum", "current", "evolve"])
def test_main_runs_the_module_level_command_function(command, monkeypatch):
    # main looks cmd_* up when it dispatches, so a replacement (a monkeypatch,
    # a tracing wrapper) runs instead of the function bound at import.
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args.command))
    argv = next(args for args in GOLDEN_INVOCATIONS.values() if args[0] == command)
    assert cli.main(argv) == 0
    assert seen == [command]


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



# --- parsers ----------------------------------------------------------------------------

def reference_main(argv):
    """``cli.main`` as it was when every call built the top-level parser, its four
    subparsers and the ``--config`` pre-parser: the reference for stdout, stderr
    and exit codes."""
    argv = list(argv)
    parser = argparse.ArgumentParser(
        prog="qwire",
        description="Tridiagonal continuant identities and quantum-wire transmittance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=entry[0]) for name, entry in cli.COMMANDS.items()}
    command = argv[0] if argv else None
    if command in cli.COMMANDS:
        _, add_options, _, default_format = cli.COMMANDS[command]
        add_options(parsers[command])
        cli._add_output_options(parsers[command], default_format)
        config_path = cli._config_path(argv[1:])
        if config_path is not None:
            try:
                config = cli._load_config(config_path)
            except OSError as exc:
                print(f"qwire: cannot read config: {exc}", file=sys.stderr)
                return 2
            except ValueError as exc:
                print(f"qwire: {exc}", file=sys.stderr)
                return 2
            cli._apply_config(parsers[command], config)
    args = parser.parse_args(argv)
    try:
        getattr(cli, cli.COMMANDS[args.command][2])(args)
    except (RuntimeError, OSError) as exc:
        print(f"qwire: {exc}", file=sys.stderr)
        return 1
    except (cli.QwireError, ValueError) as exc:
        print(f"qwire: {exc}", file=sys.stderr)
        return 2
    return 0


def outcome(main, argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_prints_what_the_six_parser_main_printed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=3\nbeta=1\nn-max=4\n")
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("alpha=3\nbogus=1\n")
    identity = GOLDEN_INVOCATIONS["identity.csv"]
    current = GOLDEN_INVOCATIONS["current.json"]
    cases = [
        *([name, "-h"] for name in cli.COMMANDS), ["-h"], [],
        *GOLDEN_INVOCATIONS.values(),
        ["bogus"], ["--", "spectrum", "--v", "1"], ["--config", str(cfg), "identity"],
        identity[:5],                                    # --n-max missing
        identity[:6] + ["eight"],                        # not an int
        current + ["--format", "xml"],                   # not a choice
        identity + ["--bogus"],                          # reported with the top-level usage
        identity + ["--", "extra"],
        ["identity", "--conf", str(cfg)], ["identity", "--c", str(cfg)],
        ["identity", "--config="], identity + ["--config"],
        ["identity", "--config", str(tmp_path / "absent.cfg")],
        ["identity", "--config", str(bad_key)],
    ]
    assert len(cases) == 24
    for argv in cases:
        want = outcome(reference_main, argv, capsys)
        assert outcome(cli.main, argv, capsys) == want, argv
        assert want[2] or want[0] == 0, argv


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "-N", "2", "--eps0", "0", "--v", "1", "--gamma", "0.5",
      "--from", "-1e-3", "--to", "1e-3", "--points", "2"], "--from"),
    (["spectrum", "-N", "3", "--eps0", "-1e-3", "--v", "1", "--gamma", "0.5",
      "--from", "-2", "--to", "2", "--points", "3"], "--eps0"),
    (current_args(mu_r="-2.5E+00"), "--mu-r"),
])
def test_negative_values_in_exponent_notation_are_values(argv, flag, capsys):
    # Python 3.11's argparse took "-1e-3" for an option, since its
    # negative-number pattern has no exponent, and exited 2 with "expected
    # one argument"; the attached form "--from=-1e-3" always parsed.
    i = argv.index(flag)
    attached = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
    assert cli.main(attached) == 0
    want = capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want
    assert repr(float(argv[i + 1])) in want.out


def test_negative_numbers_attach_only_to_options_that_take_a_value(monkeypatch, capsys):
    # Help takes no value, a value is no option, and nothing after "--" is
    # parsed as an option: there the outcome is the reference main's.
    monkeypatch.setenv("COLUMNS", "80")
    identity = GOLDEN_INVOCATIONS["identity.csv"]
    spectrum = GOLDEN_INVOCATIONS["spectrum.csv"]
    for argv in (["identity", "-h", "-1e-3"], ["spectrum", "--help", "-2.5E+00"],
                 ["spectrum", "--he", "-1e-3"], identity + ["--", "-1e-3"],
                 identity + ["-1e-3"], spectrum[:3] + ["-1e-3"] + spectrum[3:],
                 ["identity", "--alpha", "-3", "-1e-3", "--beta", "1", "--n-max", "2"]):
        want = outcome(reference_main, argv, capsys)
        assert outcome(cli.main, argv, capsys) == want, argv
    # A short option takes one too: -N's value is then checked as an int.
    code, out, err = outcome(cli.main, spectrum[:2] + ["-1e3"] + spectrum[3:], capsys)
    assert (code, out) == (2, "")
    assert "argument -N/--sites: invalid int value: '-1e3'" in err


def test_each_call_builds_only_the_parser_it_runs(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=3\nbeta=1\nn-max=4\n")
    for argv in GOLDEN_INVOCATIONS.values():
        built.clear()
        assert cli.main(argv) == 0
        assert built == [f"qwire {argv[0]}"]
    for flag in ("--config", "--conf"):
        built.clear()
        assert cli.main(["identity", flag, str(cfg)]) == 0
        assert built == ["qwire identity", None]  # the command and the pre-parser
    for argv in (["-h"], ["bogus"]):
        built.clear()
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert built == ["qwire", *(f"qwire {name}" for name in cli.COMMANDS)]
    capsys.readouterr()

# --- help -----------------------------------------------------------------------------

WIRE_FLAGS = ["-N SITES, --sites SITES", "--eps0 EPS0", "--v V", "--gamma GAMMA",
              "--bandwidth BANDWIDTH"]
OUTPUT_FLAGS = ["--config CONFIG", "--format {csv,json}", "--output OUTPUT"]
COMMAND_HELP = {
    "identity": ("continuant identity residuals over a range of sizes",
                 ["--alpha ALPHA", "--beta BETA", "--n-max N_MAX", "--mode {exact,float}"]),
    "spectrum": ("transmittance on an energy grid",
                 [*WIRE_FLAGS, "--from E_MIN", "--to E_MAX", "--points POINTS",
                  "--method {gf,eo,both}"]),
    "current": ("Landauer current for a bias window",
                [*WIRE_FLAGS, "--mu-l MU_L", "--mu-r MU_R", "--temperature TEMPERATURE"]),
    "evolve": ("integrate the evolution-operator amplitudes",
               [*WIRE_FLAGS, "--drive-energy DRIVE_ENERGY", "--dt DT", "--t-max T_MAX"]),
}


def help_text(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_top_level_help_names_every_subcommand(monkeypatch, capsys):
    out = help_text(["-h"], monkeypatch, capsys)
    assert "{identity,spectrum,current,evolve}" in out
    rows = [line.split(maxsplit=1) for line in out.splitlines() if line.startswith("    ")]
    assert rows == [[name, text] for name, (text, _) in COMMAND_HELP.items()]


@pytest.mark.parametrize("command", sorted(COMMAND_HELP))
def test_subcommand_help_names_every_flag(command, monkeypatch, capsys):
    out = help_text([command, "-h"], monkeypatch, capsys)
    assert out.startswith(f"usage: qwire {command} [-h] ")
    options = out.split("\noptions:\n", 1)[1]
    flags = [line.strip().split("  ")[0] for line in options.splitlines()
             if line.startswith("  -")]
    assert flags == ["-h, --help", *COMMAND_HELP[command][1], *OUTPUT_FLAGS]


# --- import graph -------------------------------------------------------------------

def test_only_current_imports_scipy():
    # scipy serves only the Landauer quadrature and the digamma potentials of
    # T > 0 currents; the other subcommands, ``import qwire`` itself and a
    # T = 0 current on the pole sum (the golden) must not load it.
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import qwire
        from qwire import cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        before = scipy_modules()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
            after_four = scipy_modules()
            codes.append(cli.main(json.loads(sys.argv[2])))
        print(json.dumps([codes, before, after_four, "scipy.integrate" in sys.modules]))
    """)
    goldens = [GOLDEN_INVOCATIONS[name]
               for name in ("identity.csv", "spectrum.csv", "evolve.csv", "current.json")]
    # h = gamma/(2|v|) = 1.25: the pole sum declines and the quadrature runs.
    quadrature = ["current", "-N", "5", "--eps0", "0", "--v", "0.2", "--gamma", "0.5",
                  "--mu-l", "0.3", "--mu-r", "-0.3"]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(goldens), json.dumps(quadrature)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    codes, before, after_four, loaded_by_quadrature = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 0, 0]
    assert before == [] and after_four == []
    assert loaded_by_quadrature  # the probe does see scipy once it is imported


def test_import_identity_help_and_argument_errors_load_no_numpy():
    # ``import qwire`` loads the package and its errors only; the identity
    # command, help and argparse errors run on tridiag_core, without numpy.
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import qwire

        def loaded():
            return sorted(m for m in sys.modules
                          if m == "numpy" or m.startswith("qwire."))

        after_import = loaded()
        from qwire import cli
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            for argv in json.loads(sys.argv[1]):
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
            after_four = loaded()
            codes.append(cli.main(json.loads(sys.argv[2])))
        print(json.dumps([codes, after_import, after_four, "numpy" in sys.modules]))
    """)
    identity = GOLDEN_INVOCATIONS["identity.csv"]
    spectrum = GOLDEN_INVOCATIONS["spectrum.csv"]
    no_gamma = spectrum[:7] + spectrum[9:]
    four = [identity, identity[:-1] + ["float"], ["-h"], no_gamma]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(four), json.dumps(spectrum)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    codes, after_import, after_four, loaded_by_spectrum = json.loads(proc.stdout)
    assert "--gamma" not in no_gamma
    assert codes == [0, 0, 0, 2, 0]
    assert after_import == ["qwire.errors"]
    assert "numpy" not in after_four
    assert loaded_by_spectrum  # the probe does see numpy once it is imported


def test_identity_and_help_load_no_dataclasses():
    # tridiag_core writes its two records by hand: dataclasses imports inspect,
    # which the identity command and help would otherwise load for them alone.
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from qwire import cli

        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in json.loads(sys.argv[1]):
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
        print(json.dumps([codes, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
    """)
    argv = [GOLDEN_INVOCATIONS["identity.csv"], ["-h"]]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], []]
