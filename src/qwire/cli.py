"""Command-line front end: identity checks, spectra, currents, time evolution.

Output is CSV (with ``#`` metadata comments echoing the parameters) or JSON
(objects carrying ``schema_version: 1``).  Numbers are written in shortest
round-trip decimal form, so emitted files parse back to the exact doubles.
Every subcommand accepts ``--config FILE`` with ``key=value`` lines supplying
defaults that explicit flags override.  Exit codes: 0 success, 2 invalid
arguments or parameters, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import tridiag_core, transport, time_domain
from .errors import NumericalError, QwireError
from .tridiag_core import SymToeplitzTridiag
from .transport import BiasWindow
from .time_domain import IntegratorConfig
from .wire_matrix import WireParams

OUTPUT_DIR_ENV = "QWIRE_OUTPUT_DIR"
SCHEMA_VERSION = 1


def _number(text: str):
    """Parse an int when the literal is integral, else a float."""
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


def _wire_params(args: argparse.Namespace) -> WireParams:
    return WireParams(n=args.sites, eps0=args.eps0, v=args.v, gamma=args.gamma,
                      bandwidth=args.bandwidth)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwire",
        description="Tridiagonal continuant identities and quantum-wire transmittance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("identity", help="continuant identity residuals over a range of sizes")
    sp.add_argument("--alpha", type=_number, required=True, help="diagonal entry")
    sp.add_argument("--beta", type=_number, required=True, help="off-diagonal entry")
    sp.add_argument("--n-max", type=int, required=True, help="largest matrix size (>= 2)")
    sp.add_argument("--mode", choices=(tridiag_core.EXACT, tridiag_core.FLOAT),
                    default=tridiag_core.EXACT, help="arithmetic mode (default exact)")
    _add_output_options(sp, "csv")
    sp.set_defaults(func=cmd_identity)

    sp = sub.add_parser("spectrum", help="transmittance on an energy grid")
    _add_wire_options(sp)
    sp.add_argument("--from", dest="e_min", type=float, required=True, help="grid start")
    sp.add_argument("--to", dest="e_max", type=float, required=True, help="grid end")
    sp.add_argument("--points", type=int, required=True, help="number of grid points (>= 2)")
    sp.add_argument("--method", choices=("gf", "eo", "both"), default="both",
                    help="transmittance route(s) (default both)")
    _add_output_options(sp, "csv")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("current", help="Landauer current for a bias window")
    _add_wire_options(sp)
    sp.add_argument("--mu-l", type=float, required=True, help="left chemical potential")
    sp.add_argument("--mu-r", type=float, required=True, help="right chemical potential")
    sp.add_argument("--temperature", type=float, default=0.0,
                    help="lead temperature, k_B = 1 (default 0)")
    _add_output_options(sp, "json")
    sp.set_defaults(func=cmd_current)

    sp = sub.add_parser("evolve", help="integrate the evolution-operator amplitudes")
    _add_wire_options(sp)
    sp.add_argument("--drive-energy", type=float, required=True, help="lead state energy")
    sp.add_argument("--dt", type=float, required=True, help="integration step")
    sp.add_argument("--t-max", type=float, required=True, help="integration horizon")
    _add_output_options(sp, "csv")
    sp.set_defaults(func=cmd_evolve)
    return parser


def _output_path(args: argparse.Namespace) -> str:
    path = args.output
    if path == "-":
        return path
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def _emit(args: argparse.Namespace, text: str) -> None:
    path = _output_path(args)
    if path == "-":
        sys.stdout.write(text)
    else:
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


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _wire_meta(p: WireParams) -> list[tuple[str, object]]:
    return [
        ("sites", p.n), ("eps0", p.eps0), ("v", p.v), ("gamma", p.gamma),
        ("bandwidth", p.bandwidth), ("v_lead", p.v_lead),
    ]


def cmd_identity(args: argparse.Namespace) -> None:
    if args.n_max < 2:
        raise ValueError(f"--n-max must be >= 2, got {args.n_max}")
    # A_k does not depend on the matrix size, so one n_max pass feeds every row.
    m = SymToeplitzTridiag(alpha=args.alpha, beta=args.beta, n=args.n_max)
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
        _emit(args, _json_text({
            "schema_version": SCHEMA_VERSION,
            "command": "identity",
            **dict(meta),
            "rows": [dict(zip(header, row)) for row in rows],
        }))


def cmd_spectrum(args: argparse.Namespace) -> None:
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
            "schema_version": SCHEMA_VERSION,
            "command": "spectrum",
            "params": dict(_wire_meta(p)),
            "e_min": args.e_min,
            "e_max": args.e_max,
            "points": args.points,
            "method": args.method,
        }
        for name, col in zip(header, columns):
            payload[name] = list(map(float, col))
        _emit(args, _json_text(payload))


def cmd_current(args: argparse.Namespace) -> None:
    p = _wire_params(args)
    bias = BiasWindow(mu_left=args.mu_l, mu_right=args.mu_r, temperature=args.temperature)
    result = transport.landauer_current(p, bias)
    if args.format == "json":
        _emit(args, _json_text({
            "schema_version": SCHEMA_VERSION,
            "command": "current",
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
    p = _wire_params(args)
    cfg = IntegratorConfig(dt=args.dt, t_max=args.t_max)
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
            "schema_version": SCHEMA_VERSION,
            "command": "evolve",
            "params": dict(_wire_meta(p)),
            "drive_energy": args.drive_energy,
            "dt": args.dt,
            "t_max": args.t_max,
            "times": list(map(float, traj.times)),
            "u_re": [list(map(float, traj.u[:, i].real)) for i in range(p.n)],
            "u_im": [list(map(float, traj.u[:, i].imag)) for i in range(p.n)],
            "steady_state": summary,
        }
        _emit(args, _json_text(payload))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    config_path = _peek_config(argv)
    if config_path is not None:
        try:
            config = _load_config(config_path)
        except OSError as exc:
            print(f"qwire: cannot read config: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"qwire: {exc}", file=sys.stderr)
            return 2
        command_parser = _find_subparser(parser, argv)
        if command_parser is not None:
            _apply_config(command_parser, config)
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (RuntimeError, OSError) as exc:  # first: runtime-class QwireErrors exit 1
        print(f"qwire: {exc}", file=sys.stderr)
        return 1
    except (QwireError, ValueError) as exc:
        print(f"qwire: {exc}", file=sys.stderr)
        return 2
    return 0


def _peek_config(argv: list[str]) -> str | None:
    """The path of the last ``--config``, as argparse keeps the last value of a flag."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    return path


def _find_subparser(parser: argparse.ArgumentParser, argv: list[str]):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for token in argv:
                if token in action.choices:
                    return action.choices[token]
    return None


if __name__ == "__main__":
    sys.exit(main())
