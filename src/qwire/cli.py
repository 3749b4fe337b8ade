"""Command-line front end: identity checks, spectra, currents, time evolution.

Output is CSV (with ``#`` metadata comments echoing the parameters) or JSON
(objects carrying ``schema_version: 1``).  Numbers are written in shortest
round-trip decimal form, so emitted files parse back to the exact doubles.
Every subcommand accepts ``--config FILE`` with ``key=value`` lines supplying
defaults that explicit flags override.  Argparse itself finds ``--config``,
so an abbreviation such as ``--conf`` works and the last one wins, as for
every flag; a ``--config`` before the subcommand is an argparse error.
Exit codes: 0 success, 2 invalid arguments or parameters, 1 runtime failure.

Each subcommand is one ``COMMANDS`` entry.  ``main`` builds one parser per
call, the one of the command it runs; the top-level parser, which lists every
name, is built only for top-level help, a missing or unknown command, or an
unrecognized argument.  The module loads only
``tridiag_core`` and ``errors``; a command that needs numpy imports it when it
runs, so ``identity``, help and argument errors never load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import tridiag_core
from .errors import NumericalError, QwireError

OUTPUT_DIR_ENV = "QWIRE_OUTPUT_DIR"
SCHEMA_VERSION = 1


def number(text: str):
    """An int when the literal is integral, else a float (argparse: "invalid number value")."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config(parser: argparse.ArgumentParser, config: dict[str, str]) -> None:
    """Feed config values in as defaults, so explicit flags win."""
    claimed = set()
    for action in parser._actions:
        if action.dest in config:
            raw = config[action.dest]
            try:
                value = action.type(raw) if action.type is not None else raw
            except ValueError:
                parser.error(f"invalid config value {action.dest}={raw!r}")
            if action.choices is not None and value not in action.choices:
                parser.error(
                    f"config value {action.dest}={raw!r} not in {sorted(action.choices)}"
                )
            parser.set_defaults(**{action.dest: value})
            action.required = False
            claimed.add(action.dest)
    unknown = set(config) - claimed
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")


def _add_output_options(sp: argparse.ArgumentParser, default_format: str) -> None:
    sp.add_argument("--config", help="key=value file supplying flag defaults")
    sp.add_argument(
        "--format", choices=("csv", "json"), default=default_format,
        help=f"output format (default {default_format})",
    )
    sp.add_argument(
        "--output", default="-",
        help="output path, or - for standard output; relative paths honour "
             f"${OUTPUT_DIR_ENV}",
    )


def _add_wire_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-N", "--sites", type=int, required=True, help="number of wire sites")
    sp.add_argument("--eps0", type=float, required=True, help="on-site energy")
    sp.add_argument("--v", type=float, required=True, help="nearest-neighbour hopping")
    sp.add_argument("--gamma", type=float, required=True, help="lead broadening")
    sp.add_argument("--bandwidth", type=float, default=1.0, help="lead band width (default 1)")


def _wire_params(args: argparse.Namespace):
    from .wire_matrix import WireParams

    return WireParams(n=args.sites, eps0=args.eps0, v=args.v, gamma=args.gamma,
                      bandwidth=args.bandwidth)


def _identity_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=number, required=True, help="diagonal entry")
    sp.add_argument("--beta", type=number, required=True, help="off-diagonal entry")
    sp.add_argument("--n-max", type=int, required=True, help="largest matrix size (>= 2)")
    sp.add_argument("--mode", choices=(tridiag_core.EXACT, tridiag_core.FLOAT),
                    default=tridiag_core.EXACT, help="arithmetic mode (default exact)")


def _spectrum_options(sp: argparse.ArgumentParser) -> None:
    _add_wire_options(sp)
    sp.add_argument("--from", dest="e_min", type=float, required=True, help="grid start")
    sp.add_argument("--to", dest="e_max", type=float, required=True, help="grid end")
    sp.add_argument("--points", type=int, required=True, help="number of grid points (>= 2)")
    sp.add_argument("--method", choices=("gf", "eo", "both"), default="both",
                    help="transmittance route(s) (default both)")


def _current_options(sp: argparse.ArgumentParser) -> None:
    _add_wire_options(sp)
    sp.add_argument("--mu-l", type=float, required=True, help="left chemical potential")
    sp.add_argument("--mu-r", type=float, required=True, help="right chemical potential")
    sp.add_argument("--temperature", type=float, default=0.0,
                    help="lead temperature, k_B = 1 (default 0)")


def _evolve_options(sp: argparse.ArgumentParser) -> None:
    _add_wire_options(sp)
    sp.add_argument("--drive-energy", type=float, required=True, help="lead state energy")
    sp.add_argument("--dt", type=float, required=True, help="integration step")
    sp.add_argument("--t-max", type=float, required=True, help="integration horizon")


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output == "-":
        sys.stdout.write(text)
        return
    # join keeps an absolute --output as it is, and "" leaves a relative one alone.
    path = os.path.join(os.environ.get(OUTPUT_DIR_ENV) or "", args.output)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_lines(meta: list[tuple[str, object]], header: list[str],
               rows: list[list[object]], trailer: list[tuple[str, object]] = ()) -> str:
    """CSV text from Python scalars, whose floats print in shortest round-trip form."""
    lines = [f"# {key} = {value}" for key, value in meta]
    lines.append(",".join(header))
    lines.extend(",".join(map(repr, row)) for row in rows)
    lines.extend(f"# {key} = {value}" for key, value in trailer)
    return "\n".join(lines) + "\n"


def _json_text(command: str, fields: dict) -> str:
    """The JSON document of one subcommand: the schema envelope, then its fields."""
    obj = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    return json.dumps(obj, indent=2) + "\n"


def _wire_meta(p) -> list[tuple[str, object]]:
    return [
        ("sites", p.n), ("eps0", p.eps0), ("v", p.v), ("gamma", p.gamma),
        ("bandwidth", p.bandwidth), ("v_lead", p.v_lead),
    ]


def cmd_identity(args: argparse.Namespace) -> None:
    if args.n_max < 2:
        raise ValueError(f"--n-max must be >= 2, got {args.n_max}")
    # A_k does not depend on the matrix size, so one n_max pass feeds every row.
    m = tridiag_core.SymToeplitzTridiag(alpha=args.alpha, beta=args.beta, n=args.n_max)
    dets = tridiag_core.det_sequence(m, args.mode).values
    residuals = tridiag_core.identity_residuals(m, args.mode)
    # Float mode rounds beta**(n-1) as given, once (an int power is exact);
    # exact mode takes beta as det_sequence does, so 3.0 counts as 3.
    float_mode = args.mode == tridiag_core.FLOAT
    beta = args.beta if float_mode else tridiag_core._inputs(m, args.mode)[1]
    cof_type = float if float_mode else type(beta)
    rows = []
    for n, residual in zip(range(2, args.n_max + 1), residuals):
        try:
            row = [n, cof_type(beta ** (n - 1)) ** 2,
                   dets[n - 1] ** 2 - dets[n - 2] * dets[n], residual]
        except OverflowError:  # a float power or square beyond the double range
            row = [math.inf]
        if not all(math.isfinite(c) for c in row if isinstance(c, float)):
            raise NumericalError(f"identity row n={n} leaves the double range")
        rows.append(row)
    meta = [("alpha", args.alpha), ("beta", args.beta),
            ("n_max", args.n_max), ("mode", args.mode)]
    header = ["n", "cof_sq", "det_combination", "residual"]
    if args.format == "csv":
        _emit(args, _csv_lines(meta, header, rows))
    else:
        _emit(args, _json_text("identity", {
            **dict(meta),
            "rows": [dict(zip(header, row)) for row in rows],
        }))


def cmd_spectrum(args: argparse.Namespace) -> None:
    from . import transport

    p = _wire_params(args)
    spec = transport.spectrum(p, args.e_min, args.e_max, args.points, args.method)
    header = ["energy"]
    columns = [spec.energies]
    if spec.t_gf is not None:
        header.append("t_gf")
        columns.append(spec.t_gf)
    if spec.t_eo is not None:
        header.append("t_eo")
        columns.append(spec.t_eo)
    if spec.t_gf is not None and spec.t_eo is not None:
        header.append("abs_diff")
        columns.append(spec.abs_diff())
    meta = _wire_meta(p) + [
        ("e_min", args.e_min), ("e_max", args.e_max),
        ("points", args.points), ("method", args.method),
    ]
    if args.format == "csv":
        rows = list(zip(*(col.tolist() for col in columns)))
        _emit(args, _csv_lines(meta, header, rows))
    else:
        payload = {
            "params": dict(_wire_meta(p)),
            "e_min": args.e_min,
            "e_max": args.e_max,
            "points": args.points,
            "method": args.method,
        }
        for name, col in zip(header, columns):
            payload[name] = list(map(float, col))
        _emit(args, _json_text("spectrum", payload))


def cmd_current(args: argparse.Namespace) -> None:
    from . import transport

    p = _wire_params(args)
    bias = transport.BiasWindow(mu_left=args.mu_l, mu_right=args.mu_r,
                                temperature=args.temperature)
    result = transport.landauer_current(p, bias)
    if args.format == "json":
        _emit(args, _json_text("current", {
            "params": dict(_wire_meta(p)),
            "bias": {"mu_left": bias.mu_left, "mu_right": bias.mu_right,
                     "temperature": bias.temperature},
            "value": result.value,
            "error_estimate": result.error_estimate,
            "window": list(result.window),
        }))
    else:
        meta = _wire_meta(p) + [
            ("mu_left", bias.mu_left), ("mu_right", bias.mu_right),
            ("temperature", bias.temperature),
        ]
        _emit(args, _csv_lines(
            meta,
            ["value", "error_estimate", "window_lo", "window_hi"],
            [[result.value, result.error_estimate, result.window[0], result.window[1]]],
        ))


def cmd_evolve(args: argparse.Namespace) -> None:
    import numpy as np

    from . import time_domain

    p = _wire_params(args)
    cfg = time_domain.IntegratorConfig(dt=args.dt, t_max=args.t_max)
    traj = time_domain.integrate(p, args.drive_energy, cfg)
    meta = _wire_meta(p) + [
        ("drive_energy", args.drive_energy), ("dt", args.dt), ("t_max", args.t_max),
    ]
    if traj.times[-1] >= time_domain.steady_state_horizon(p):
        report = time_domain.steady_state_compare(traj, p)
        trailer = [
            ("steady_state_max_abs_deviation", report.max_abs_deviation),
            ("steady_state_max_phase_deviation", report.max_phase_deviation),
        ]
        summary = {
            "max_abs_deviation": report.max_abs_deviation,
            "max_phase_deviation": report.max_phase_deviation,
            "window": list(report.window),
        }
    else:
        trailer = [("steady_state_comparison", "skipped (t_max < 10/gamma)")]
        summary = None
    if args.format == "csv":
        header = ["t"]
        for i in range(1, p.n + 1):
            header += [f"re_u{i}", f"im_u{i}", f"abs_u{i}"]
        table = np.empty((traj.times.size, 1 + 3 * p.n))
        table[:, 0] = traj.times
        table[:, 1::3] = traj.u.real
        table[:, 2::3] = traj.u.imag
        # np.hypot rounds as Python's abs(complex) does; np.abs differs in the last bit.
        table[:, 3::3] = np.hypot(traj.u.real, traj.u.imag)
        _emit(args, _csv_lines(meta, header, table.tolist(), trailer=trailer))
    else:
        payload = {
            "params": dict(_wire_meta(p)),
            "drive_energy": args.drive_energy,
            "dt": args.dt,
            "t_max": args.t_max,
            "times": list(map(float, traj.times)),
            "u_re": [list(map(float, traj.u[:, i].real)) for i in range(p.n)],
            "u_im": [list(map(float, traj.u[:, i].imag)) for i in range(p.n)],
            "steady_state": summary,
        }
        _emit(args, _json_text("evolve", payload))


# name: (help, add_options, run, default_format).  run names a module-level
# function that main looks up when it dispatches, so a replaced ``cli.cmd_*``
# (a test's monkeypatch, the perfbench tracer's wrapper) is the one that runs.
COMMANDS = {
    "identity": ("continuant identity residuals over a range of sizes",
                 _identity_options, "cmd_identity", "csv"),
    "spectrum": ("transmittance on an energy grid", _spectrum_options, "cmd_spectrum", "csv"),
    "current": ("Landauer current for a bias window", _current_options, "cmd_current", "json"),
    "evolve": ("integrate the evolution-operator amplitudes",
               _evolve_options, "cmd_evolve", "csv"),
}


# A negative decimal literal, exponent included: "-3", "-.5", "-1e-3", "-2.5E+00".
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _attach_negative_values(args: list[str]) -> list[str]:
    """``args`` with each negative number that follows an option attached to it.

    ``--from -1e-3`` becomes ``--from=-1e-3``.  Python 3.11's argparse takes
    a token such as ``-1e-3`` or ``-2.5E+00`` for an option, since its
    negative-number pattern has no exponent, and then reports that the
    option before it expected one argument; the attached form is a value in
    every version.  Every option but help takes one value, so a number is
    attached to a bare long option or a two-character short one, other than
    help; nothing from ``--`` on is touched.
    """
    out: list[str] = []
    for i, arg in enumerate(args):
        if arg == "--":
            return out + args[i:]
        prev = out[-1] if out else ""
        long_option = prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
        short_option = len(prev) == 2 and prev[0] == "-" and prev[1].isalpha() and prev != "-h"
        if (long_option or short_option) and _NEGATIVE_NUMBER.fullmatch(arg):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _config_path(args: list[str]) -> str | None:
    """The ``--config`` value argparse keeps: abbreviations, ``=`` and last-wins alike."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        return pre.parse_known_args(args)[0].config
    except argparse.ArgumentError:  # a trailing --config: the full parse reports it
        return None


def _top_level_parser() -> argparse.ArgumentParser:
    """``qwire`` with one bare subparser per command: its help, usage and errors."""
    parser = argparse.ArgumentParser(
        prog="qwire",
        description="Tridiagonal continuant identities and quantum-wire transmittance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        sub.add_parser(name, help=entry[0])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``qwire`` command line; return its exit code.

    A known command in ``argv[0]`` builds only its own parser, the one the
    top-level parser's ``add_parser`` would give (``prog="qwire <name>"``).
    The top-level parser is built only for ``-h``, a missing or unknown
    command, or arguments the command does not know, which it reports as
    argparse does.  ``--config`` is pre-parsed only when a token after the
    command starts with ``--c``, as every spelling argparse takes for it
    does.  Nothing is kept between calls.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in COMMANDS:
        argv[1:] = _attach_negative_values(argv[1:])
        _, add_options, _, default_format = COMMANDS[command]
        parser = argparse.ArgumentParser(prog=f"qwire {command}")
        add_options(parser)
        _add_output_options(parser, default_format)
        # Every spelling argparse takes for --config starts with --c.
        config_path = (_config_path(argv[1:])
                       if any(arg.startswith("--c") for arg in argv[1:]) else None)
        if config_path is not None:
            try:
                config = _load_config(config_path)
            except OSError as exc:
                print(f"qwire: cannot read config: {exc}", file=sys.stderr)
                return 2
            except ValueError as exc:
                print(f"qwire: {exc}", file=sys.stderr)
                return 2
            _apply_config(parser, config)
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=command))
        if extras:
            _top_level_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = _top_level_parser().parse_args(argv)
    try:
        globals()[COMMANDS[args.command][2]](args)
    except (RuntimeError, OSError) as exc:  # first: runtime-class QwireErrors exit 1
        print(f"qwire: {exc}", file=sys.stderr)
        return 1
    except (QwireError, ValueError) as exc:
        print(f"qwire: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
