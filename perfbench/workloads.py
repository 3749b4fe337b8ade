"""Seeded workloads: input streams, the timed operation, and its checks.

Each workload is a closed loop driven by one client: ``draw(seed)`` gives
the distinct operations of a pass, ``run(op)`` is the timed call into ``qwire``, and
``check(op, result)`` compares the result with a reference from
``references`` (or, for the CLI, with golden bytes and in-process library
values).  A check returns ``None`` when the result is right, or a
``(kind, message)`` pair; kind ``"mismatch"`` marks a finite value that
disagrees with its reference, any other kind an unusable result.

The inputs that set an operation's cost or decide whether it fails (wire
length, grid size and reach, hopping strength, broadening, bias window,
temperature, horizon) follow one fixed low-discrepancy design, so the passes
of any two seeds hold the same operation sizes and the same failing inputs.
The seed draws the rest: the on-site energy that every energy is measured
from, the sign of the hopping, the direction of the bias, and which energies
are checked.  At the seed state a long wire fails quickly on overflow while
its neighbour in size runs a slow exact bridge, so letting the seed move
those inputs would move throughput and percentiles by whole operations.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stdout

import numpy as np

import references as ref

# Tolerances of the transmittance checks.  Out of band the EO route cancels
# ``Chat_{n-1}**2 - Chat_{n-2} Chat_n`` and keeps only absolute accuracy near
# 1e-16, so the absolute floor sits four decades above that.  In band the
# recurrence's rounding grows with n: both routes were 3e-10 off the exact
# value at n = 873, so the relative tolerance sits more than two decades above.
T_RTOL = 1e-7
T_ATOL = 1e-12
DENSE_MAX_N = 128
# quad runs at epsrel 1e-10; it and the fine-grid reference agreed to 3e-10
# over the draw.
I_RTOL = 1e-6
I_ATOL = 1e-10
# Global RK4 error grows like (dt*scale)**4 * (t_max*scale) max|W|; the
# largest ratio seen over driven wires of 1-12 sites, gamma 0.05-1 and
# horizons of 20-40/gamma was 0.009.
RK4_ERR_CONST = 0.05


# Steps of the design: the golden ratio first, then square roots of other
# square-free integers, so the coordinates are independent (linearly
# independent over the rationals) and each is spread evenly.
_STEPS = np.array([(math.sqrt(5) - 1) / 2, math.sqrt(2) - 1, math.sqrt(3) - 1,
                   math.sqrt(6) - 2, math.sqrt(7) - 2, math.sqrt(11) - 3])


def _design(dims, size):
    """The first ``size`` points of a fixed additive recurrence in [0, 1)**dims."""
    return (0.5 + np.arange(size)[:, None] * _STEPS[:dims]) % 1.0


def _log_uniform(q, lo, hi):
    return math.exp(math.log(lo) + q * (math.log(hi) - math.log(lo)))


def _close(value, expected, rtol, atol):
    return abs(value - expected) <= rtol * abs(expected) + atol


def _all_finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


class _InProcess:
    """Workloads whose results are library objects, not output bytes."""

    @staticmethod
    def output_size(result):
        return 0


class SpectrumScan(_InProcess):
    """Vector path: ``spectrum(..., "both")`` on a grid, then ``equivalence_report``."""

    name = "spectrum_scan"
    pass_size = 34
    report_points = 24
    checked_points = 4

    def __init__(self, qwire):
        self.q = qwire
        self._refs = {}

    def draw(self, seed):
        rng = np.random.default_rng([seed, 1])
        return [self._op(rng, q) for q in _design(6, self.pass_size)]

    def _op(self, rng, q):
        n = int(round(_log_uniform(q[0], 2, 2000)))
        points = int(round(_log_uniform(q[1], 1000, 30000)))
        eps0 = float(rng.uniform(-1.0, 1.0))
        v = float(rng.choice([-1.0, 1.0]) * (0.5 + q[3]))
        gamma = _log_uniform(q[5], 0.1, 2.0)
        # Grid reaches 0.5..1.5 band edges above eps0, a bit less below.
        reach = 2.0 * abs(v) * (0.5 + q[2])
        e_min = eps0 - reach * (0.8 + 0.2 * q[4])
        e_max = eps0 + reach
        report = np.sort(rng.choice(points, self.report_points, replace=False))
        checked = sorted(rng.choice(points - 1, self.checked_points - 1, replace=False))
        return {
            "n": n, "eps0": eps0, "v": v, "gamma": gamma,
            "e_min": e_min, "e_max": e_max, "points": points,
            "report_idx": [int(i) for i in report],
            "check_idx": [int(i) for i in checked] + [points - 1],
        }

    def run(self, op):
        p = self.q.WireParams(n=op["n"], eps0=op["eps0"], v=op["v"], gamma=op["gamma"])
        spec = self.q.spectrum(p, op["e_min"], op["e_max"], op["points"], "both")
        report = self.q.equivalence_report(p, spec.energies[op["report_idx"]])
        return spec, report

    def check(self, op, result):
        spec, report = result
        if not _all_finite(spec.t_gf, spec.t_eo, report.abs_diff):
            return "nonfinite", "transmittance is not finite"
        if report.max_bridge_residual_rel != 0.0:
            return "mismatch", f"bridge residual {report.max_bridge_residual_rel!r} != 0"
        if report.max_abs_diff > T_RTOL + T_ATOL:  # T <= 1
            return "mismatch", f"routes differ by {report.max_abs_diff:.3e}"
        t_ref = ref.transmittance_dense if op["n"] <= DENSE_MAX_N else ref.transmittance_exact
        for i in op["check_idx"]:
            eps = float(spec.energies[i])
            key = (op["n"], op["eps0"], op["v"], op["gamma"], eps)
            if key not in self._refs:
                self._refs[key] = t_ref(*key)
            want = self._refs[key]
            for route, got in (("gf", spec.t_gf[i]), ("eo", spec.t_eo[i])):
                if not _close(float(got), want, T_RTOL, T_ATOL):
                    return "mismatch", f"T_{route}({eps!r}) = {got!r}, reference {want!r}"
        return None


class IVCurve(_InProcess):
    """Scalar path: one ``landauer_current`` per operation, T = 0 and T > 0 alternating."""

    name = "iv_curve"
    pass_size = 21  # design points; each pass adds one many-resonance operation
    fine_grid_max_n = 4

    def __init__(self, qwire):
        self.q = qwire
        self._refs = {}

    def draw(self, seed):
        rng = np.random.default_rng([seed, 2])
        ops = [self._op(rng, k, q) for k, q in enumerate(_design(6, self.pass_size))]
        # A 228-site wire with the whole band in the bias window: more chain
        # resonances than the 199 quad break points the library allows.
        return ops + [self._op(rng, 0, np.array([0.95, 0.97, 0.5, 0.5, 0.5, 0.5]))]

    def _op(self, rng, k, q):
        n = int(round(_log_uniform(q[0], 1, 300)))
        eps0 = float(rng.uniform(-0.5, 0.5))
        v = float(rng.choice([-1.0, 1.0]) * (0.5 + q[2]))
        gamma = _log_uniform(q[3], 0.1, 1.0)
        # Window width from 5% to 130% of the band 4|v|, centre inside the band.
        width = 4.0 * abs(v) * _log_uniform(q[1], 0.05, 1.3)
        centre = eps0 + 2.0 * abs(v) * (q[4] - 0.5)
        lo, hi = centre - 0.5 * width, centre + 0.5 * width
        if rng.random() < 0.5:
            lo, hi = hi, lo
        temperature = 0.0 if k % 2 == 0 else _log_uniform(q[5], 0.005, 0.1)
        return {"n": n, "eps0": eps0, "v": v, "gamma": gamma,
                "mu_left": hi, "mu_right": lo, "temperature": temperature}

    def run(self, op):
        p = self.q.WireParams(n=op["n"], eps0=op["eps0"], v=op["v"], gamma=op["gamma"])
        bias = self.q.BiasWindow(op["mu_left"], op["mu_right"], op["temperature"])
        return self.q.landauer_current(p, bias)

    def check(self, op, result):
        value = result.value
        if not (math.isfinite(value) and math.isfinite(result.error_estimate)):
            return "nonfinite", f"current {value!r} +- {result.error_estimate!r}"
        # 0 <= T <= 1, so |I| never exceeds the bias.
        bias = abs(op["mu_left"] - op["mu_right"])
        if abs(value) > bias * (1.0 + 1e-9) + I_ATOL:
            return "mismatch", f"|I| = {abs(value)!r} exceeds the bias {bias!r}"
        key = tuple(op[k] for k in ("n", "eps0", "v", "gamma", "mu_left", "mu_right",
                                    "temperature"))
        if key in self._refs:
            want = self._refs[key]
        elif op["n"] == 1 and op["temperature"] == 0.0:
            want = ref.current_single_site(op["eps0"], op["gamma"], op["mu_left"], op["mu_right"])
        elif op["n"] <= self.fine_grid_max_n:
            want = ref.current_fine_grid(*key)
        else:
            return None
        self._refs[key] = want
        if not _close(value, want, I_RTOL, I_ATOL):
            return "mismatch", f"I = {value!r}, reference {want!r}"
        return None


def _trajectory_problem(args, times, u):
    """Check an RK4 trajectory of ``evolve`` against the exact driven solution.

    ``args`` holds sites, eps0, v, gamma (bandwidth 1), drive_energy and
    t_max; ``u[k]`` are the amplitudes at ``times[k]``.  The trailing-quarter
    deviations of the steady-state comparison are recomputed from the
    trajectory and the dense steady state as well.  Returns ``None`` or
    ``(kind, message)``, as the checks do, and the two recomputed deviations.
    """
    steps = len(times) - 1
    dt = args["t_max"] / steps  # the step integrate() takes
    v_lead = math.sqrt(args["gamma"] / (2.0 * math.pi))
    w, exact = ref.relaxation_exact(args["sites"], args["eps0"], args["v"], args["gamma"],
                                    v_lead, args["drive_energy"], dt, steps)
    w_max = float(np.max(np.abs(w)))
    omega = args["eps0"] - args["drive_energy"]
    scale = max(abs(omega), args["gamma"], abs(args["v"]))
    tol = RK4_ERR_CONST * (dt * scale) ** 4 * (args["t_max"] * scale) * w_max + 1e-12
    err = float(np.max(np.abs(u - exact)))
    if err > tol:
        return ("mismatch", f"|U - U_exact| = {err:.3e} > {tol:.3e}"), None
    mask = times >= times[-1] - 0.25 * times[-1]
    block = u[mask]
    mean_mod = np.mean(np.abs(block), axis=0)
    mean_rot = np.mean(block * np.exp(-1j * omega * times[mask])[:, None], axis=0)
    deviation = max(np.max(np.abs(mean_mod - np.abs(w))), np.max(np.abs(mean_rot - w)))
    return None, (float(deviation), 1e-10 * w_max)


# The four invocations that produce tests/golden/, byte for byte.
GOLDEN = {
    "identity.csv": ["identity", "--alpha", "3", "--beta", "1", "--n-max", "8", "--mode", "exact"],
    "spectrum.csv": ["spectrum", "-N", "5", "--eps0", "0.0", "--v", "1.0", "--gamma", "0.5",
                     "--from", "-3.0", "--to", "3.0", "--points", "21", "--method", "both"],
    "current.json": ["current", "-N", "1", "--eps0", "0.0", "--v", "1.0", "--gamma", "0.5",
                     "--mu-l", "-2.0", "--mu-r", "2.0"],
    "evolve.csv": ["evolve", "-N", "2", "--eps0", "0.0", "--v", "1.0", "--gamma", "1.0",
                   "--drive-energy", "0.5", "--dt", "0.05", "--t-max", "12.0"],
}

_FLAGS = {"sites": "-N", "e_min": "--from", "e_max": "--to"}


def _argv(cmd, args):
    out = [cmd]
    for key, value in args.items():
        out += [_FLAGS.get(key, "--" + key.replace("_", "-")),
                repr(value) if isinstance(value, float) else str(value)]
    return out


def _parse_number(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_csv(text):
    """(echoed scalars, columns) of a qwire CSV: ``# key = value`` lines around a table."""
    scalars, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            try:
                scalars[key] = _parse_number(value)
            except ValueError:
                scalars[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([_parse_number(cell) for cell in line.split(",")])
    return scalars, {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _parse_json(obj):
    """(echoed scalars, columns) of a qwire JSON document, named as in its CSV form."""
    scalars, cols = {}, {}
    for key, value in obj.items():
        if key in ("schema_version", "command"):
            continue
        if key in ("params", "bias"):
            scalars.update(value)
        elif key == "steady_state":
            if value is None:
                scalars[key] = None
            else:
                scalars.update({f"steady_state_{k}": v for k, v in value.items()})
        elif key == "rows":
            cols = {k: [row[k] for row in value] for k in value[0]}
        elif key == "window":
            cols["window_lo"], cols["window_hi"] = [value[0]], [value[1]]
        elif key in ("value", "error_estimate"):
            cols[key] = [value]
        elif key == "times":
            cols["t"] = value
        elif key in ("u_re", "u_im"):
            for i, col in enumerate(value, 1):
                cols[f"{key[2:]}_u{i}"] = col
        elif isinstance(value, list):
            cols[key] = value
        else:
            scalars[key] = value
    return scalars, cols


class CliMix:
    """The CLI entry point over a seeded mix of subcommands.

    Each operation is one ``cli.main(argv)`` call in this interpreter, with
    standard output captured: the same argument parsing, library calls and
    formatting as a ``python -m qwire`` process, without the interpreter
    start and the imports, which ``setup_s`` measures in every workload.  A
    pass runs ten invocations: the four golden ones, four small seeded ones
    (one per subcommand) and two medium ones (an exact identity table with
    n-max 400 and a 4-site evolve table with 5000 rows).  Evolve
    trajectories are also checked against the exact driven solution.
    """

    name = "cli_mix"

    def __init__(self, qwire, golden_dir):
        self.q = qwire
        self.golden_dir = golden_dir
        self._verified = set()  # (argv, output) pairs already checked

    def draw(self, seed):
        rng = np.random.default_rng([seed, 4])
        ops = [{"cmd": a[0], "argv": a, "golden": name} for name, a in GOLDEN.items()]
        # Each invocation has a fixed subcommand, size and format, so the
        # pass time and its percentiles do not depend on the seed; the seed
        # draws the parameter values.
        return ops + [
            self._identity(rng, 30, "float", "csv"),
            self._spectrum(rng, 12, 200, "json"),
            self._current(rng, 6, "json"),
            self._evolve(rng, 2, 300, "json"),
            self._identity(rng, 400, "exact", "json"),
            self._evolve(rng, 4, 5000, "csv"),
        ]

    @staticmethod
    def _op(cmd, args, fmt):
        args["format"] = fmt
        return {"cmd": cmd, "args": args, "argv": _argv(cmd, args), "golden": None}

    @staticmethod
    def _wire(rng, sites):
        return {"sites": sites, "eps0": float(rng.uniform(-1, 1)),
                "v": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)),
                "gamma": _log_uniform(rng.random(), 0.2, 1.0)}

    def _identity(self, rng, n_max, mode, fmt):
        # Exact entries grow with |alpha| and beta, so only the sign is drawn.
        args = {"alpha": int(rng.choice([-7, 7])), "beta": 3, "n_max": n_max, "mode": mode}
        return self._op("identity", args, fmt)

    def _spectrum(self, rng, sites, points, fmt):
        args = self._wire(rng, sites)
        band = 2.0 * abs(args["v"])
        args["e_min"] = args["eps0"] - band * float(rng.uniform(0.5, 1.3))
        args["e_max"] = args["eps0"] + band * float(rng.uniform(0.5, 1.3))
        args["points"] = points
        args["method"] = "eo"
        return self._op("spectrum", args, fmt)

    def _current(self, rng, sites, fmt):
        # Bias window, broadening and temperature in units of |v|, so the
        # quadrature does the same work for every draw.
        args = self._wire(rng, sites)
        band = 2.0 * abs(args["v"])
        args["gamma"] = 0.5 * abs(args["v"])
        args["mu_l"] = args["eps0"] + band * 0.9
        args["mu_r"] = args["eps0"] - band * 0.7
        if rng.random() < 0.5:
            args["mu_l"], args["mu_r"] = args["mu_r"], args["mu_l"]
        args["temperature"] = 0.03 * abs(args["v"])
        return self._op("current", args, fmt)

    def _evolve(self, rng, sites, rows, fmt):
        args = self._wire(rng, sites)
        args["drive_energy"] = args["eps0"] + float(rng.uniform(-2.0, 2.0)) * abs(args["v"])
        scale = max(abs(args["eps0"] - args["drive_energy"]), args["gamma"], abs(args["v"]))
        args["dt"] = 0.04 / scale
        args["t_max"] = args["dt"] * rows
        return self._op("evolve", args, fmt)

    def run(self, op):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.q.cli.main(list(op["argv"]))
        return code, buf.getvalue().encode()

    @staticmethod
    def output_size(result):
        return len(result[1])

    def check(self, op, result):
        code, out = result
        if code != 0:
            return "exit", f"exit code {code}"
        if op["golden"] is not None:
            with open(os.path.join(self.golden_dir, op["golden"]), "rb") as fh:
                if out != fh.read():
                    return "mismatch", f"output differs from golden {op['golden']}"
            return None
        if (tuple(op["argv"]), out) in self._verified:
            return None
        fmt = op["args"]["format"]
        got_scalars, got = _parse_csv(out.decode()) if fmt == "csv" else _parse_json(json.loads(out))
        if op["cmd"] == "spectrum" and not _all_finite(*got.values()):
            return "nonfinite", "spectrum output is not finite"
        want_scalars, want = self._expected(op["cmd"], op["args"])
        if got != want:
            bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            return "mismatch", f"columns differ from the library: {bad[:4]}"
        if got_scalars != want_scalars:
            bad = sorted(k for k in set(got_scalars) | set(want_scalars)
                         if got_scalars.get(k) != want_scalars.get(k))
            return "mismatch", f"echoed values differ from the library: {bad[:4]}"
        if op["cmd"] == "evolve":
            n = op["args"]["sites"]
            u = np.array([got[f"re_u{i}"] for i in range(1, n + 1)]).T + 1j * np.array(
                [got[f"im_u{i}"] for i in range(1, n + 1)]).T
            problem, recomputed = _trajectory_problem(op["args"], np.array(got["t"]), u)
            if problem is not None:
                return problem
            reported = got_scalars.get("steady_state_max_abs_deviation")
            if reported is not None and abs(reported - recomputed[0]) > recomputed[1]:
                return "mismatch", f"steady-state deviation {reported!r}, recomputed {recomputed[0]!r}"
        self._verified.add((tuple(op["argv"]), out))
        return None

    def _expected(self, cmd, args):
        """Library values for one invocation: (echoed scalars, columns), named as parsed."""
        q = self.q
        fmt = args["format"]
        if cmd == "identity":
            cols = {"n": [], "cof_sq": [], "det_combination": [], "residual": []}
            for n in range(2, args["n_max"] + 1):
                m = q.SymToeplitzTridiag(alpha=args["alpha"], beta=args["beta"], n=n)
                if args["mode"] == q.EXACT:
                    seq = q.det_sequence(m, q.EXACT).values
                    cof_sq = q.corner_cofactor(m) ** 2
                else:
                    ds = q.det_sequence(m, q.FLOAT)
                    seq = [math.ldexp(x, ds.scale_exponent) for x in ds.values]
                    cof_sq = float(q.corner_cofactor(m)) ** 2
                cols["n"].append(n)
                cols["cof_sq"].append(cof_sq)
                cols["det_combination"].append(seq[n - 1] ** 2 - seq[n - 2] * seq[n])
                cols["residual"].append(q.identity_residual(m, args["mode"]))
            return {k: args[k] for k in ("alpha", "beta", "n_max", "mode")}, cols
        p = q.WireParams(n=args["sites"], eps0=args["eps0"], v=args["v"], gamma=args["gamma"])
        scalars = {"sites": p.n, "eps0": p.eps0, "v": p.v, "gamma": p.gamma,
                   "bandwidth": p.bandwidth, "v_lead": p.v_lead}
        if cmd == "spectrum":
            spec = q.spectrum(p, args["e_min"], args["e_max"], args["points"], args["method"])
            cols = {"energy": spec.energies}
            if spec.t_gf is not None:
                cols["t_gf"] = spec.t_gf
            if spec.t_eo is not None:
                cols["t_eo"] = spec.t_eo
            if spec.t_gf is not None and spec.t_eo is not None:
                cols["abs_diff"] = spec.abs_diff()
            scalars.update({k: args[k] for k in ("e_min", "e_max", "points", "method")})
            return scalars, {k: [float(x) for x in c] for k, c in cols.items()}
        if cmd == "current":
            bias = q.BiasWindow(args["mu_l"], args["mu_r"], args["temperature"])
            res = q.landauer_current(p, bias)
            scalars.update(mu_left=bias.mu_left, mu_right=bias.mu_right,
                           temperature=bias.temperature)
            return scalars, {"value": [res.value], "error_estimate": [res.error_estimate],
                             "window_lo": [res.window[0]], "window_hi": [res.window[1]]}
        traj = q.integrate(p, args["drive_energy"],
                           q.IntegratorConfig(dt=args["dt"], t_max=args["t_max"]))
        cols = {"t": [float(x) for x in traj.times]}
        for i in range(p.n):
            u = traj.u[:, i]
            cols[f"re_u{i + 1}"] = [float(x) for x in u.real]
            cols[f"im_u{i + 1}"] = [float(x) for x in u.imag]
            if fmt == "csv":
                cols[f"abs_u{i + 1}"] = [float(abs(x)) for x in u]
        scalars.update({k: args[k] for k in ("drive_energy", "dt", "t_max")})
        if traj.times[-1] < 10.0 / p.gamma:
            if fmt == "csv":
                scalars["steady_state_comparison"] = "skipped (t_max < 10/gamma)"
            else:
                scalars["steady_state"] = None
            return scalars, cols
        rep = q.steady_state_compare(traj, p)
        scalars["steady_state_max_abs_deviation"] = rep.max_abs_deviation
        scalars["steady_state_max_phase_deviation"] = rep.max_phase_deviation
        if fmt == "json":
            scalars["steady_state_window"] = list(rep.window)
        return scalars, cols
