"""Tests of the benchmark itself: its checks catch wrong results, its inputs
depend only on the seed, and its names follow the metric-name rule.

    python3 -m pytest perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import qwire  # noqa: E402
import qwire.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_UNITS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class Feed:
    """A workload whose operations return a fixed result, checked by the real check."""

    def __init__(self, real, result):
        self.real, self.result = real, result

    def run(self, op):
        return self.result

    def check(self, op, result):
        return self.real.check(op, result)

    def output_size(self, result):
        return self.real.output_size(result)


def assert_counted_as_failure(workload, op, wrong):
    loop = run.closed_loop(Feed(workload, wrong), [op], 0.0, np.random.default_rng(0))
    assert loop["attempted"] == 1
    assert loop["ok"] == 0
    assert loop["mismatches"] == 1
    assert loop["failures"][0]["kind"] == "mismatch"


def copy_of(obj, **changes):
    fields = dict(vars(obj))
    fields.update(changes)
    return SimpleNamespace(**fields)


def spectrum_op(n):
    return {"n": n, "eps0": 0.1, "v": 0.7, "gamma": 0.4, "e_min": -1.0, "e_max": 1.0,
            "points": 1000, "report_idx": [1, 500], "check_idx": [3, 700, 999]}


@pytest.mark.parametrize("n", [6, 300])  # dense and exact-integer references
@pytest.mark.parametrize("route", ["t_gf", "t_eo"])
def test_spectrum_check_catches_wrong_transmittance(n, route):
    wl = workloads.SpectrumScan(qwire)
    op = spectrum_op(n)
    spec, report = wl.run(op)
    assert wl.check(op, (spec, report)) is None
    wrong = np.array(getattr(spec, route))
    wrong[700] *= 1.001
    assert_counted_as_failure(wl, op, (copy_of(spec, **{route: wrong}), report))


def test_spectrum_check_catches_broken_bridge():
    wl = workloads.SpectrumScan(qwire)
    op = spectrum_op(5)
    spec, report = wl.run(op)
    assert_counted_as_failure(wl, op, (spec, copy_of(report, max_bridge_residual_rel=1e-3)))


@pytest.mark.parametrize("n,temperature", [(1, 0.0), (1, 0.05), (3, 0.0), (4, 0.02)])
def test_iv_check_catches_wrong_current(n, temperature):
    wl = workloads.IVCurve(qwire)
    op = {"n": n, "eps0": 0.1, "v": 0.9, "gamma": 0.3, "mu_left": 0.8, "mu_right": -0.5,
          "temperature": temperature}
    result = wl.run(op)
    assert wl.check(op, result) is None
    assert_counted_as_failure(wl, op, copy_of(result, value=result.value * (1 + 1e-4)))


def test_iv_check_catches_current_above_bias():
    wl = workloads.IVCurve(qwire)
    op = {"n": 50, "eps0": 0.0, "v": 1.0, "gamma": 0.5, "mu_left": 0.1, "mu_right": -0.1,
          "temperature": 0.0}
    result = wl.run(op)
    assert wl.check(op, result) is None
    assert_counted_as_failure(wl, op, copy_of(result, value=0.3))


def test_trajectory_check_catches_wrong_amplitudes():
    args = {"sites": 3, "eps0": 0.2, "v": 0.8, "gamma": 0.5, "drive_energy": 0.3,
            "dt": 0.05 / 0.8, "t_max": 50.0}
    p = qwire.WireParams(n=3, eps0=0.2, v=0.8, gamma=0.5)
    traj = qwire.integrate(p, 0.3, qwire.IntegratorConfig(dt=args["dt"], t_max=50.0))
    problem, (deviation, tol) = workloads._trajectory_problem(args, traj.times, traj.u)
    assert problem is None
    report = qwire.steady_state_compare(traj, p)
    assert abs(report.max_abs_deviation - deviation) <= tol
    u = traj.u.copy()
    u[len(u) // 2, 1] *= 1.0 + 1e-3
    problem, _ = workloads._trajectory_problem(args, traj.times, u)
    assert problem is not None and problem[0] == "mismatch"


def cli_ops(kind, seeds=range(40)):
    wl = workloads.CliMix(qwire, os.path.join(ROOT, "tests", "golden"))
    ops = [op for seed in seeds for op in wl.draw(seed) if op["cmd"] == kind]
    return wl, ops


@pytest.mark.parametrize("kind", ["identity", "spectrum", "current", "evolve"])
def test_cli_check_catches_changed_output(kind):
    wl, ops = cli_ops(kind)
    golden = next(op for op in ops if op["golden"])
    plain = [op for op in ops if not op["golden"]]
    for op in [golden] + plain[:2]:
        wl = workloads.CliMix(qwire, wl.golden_dir)  # nothing verified yet
        code, out = wl.run(op)
        assert wl.check(op, (code, out)) is None, op["argv"]
        text = out.decode()
        # Change the last number in the output at its first digit or decimal.
        m = list(re.finditer(r"\d", text))[-1]
        m = list(re.finditer(r"(?<![\d.])\d|(?<=\.)\d", text[:m.end()]))[-1]
        digit = "1" if text[m.start()] != "1" else "2"
        wrong = (text[:m.start()] + digit + text[m.end():]).encode()
        assert_counted_as_failure(wl, op, (0, wrong))


def test_cli_nonzero_exit_is_a_failure():
    wl, ops = cli_ops("identity")
    loop = run.closed_loop(Feed(wl, (2, b"")), ops[:1], 0.0, np.random.default_rng(0))
    assert loop["ok"] == 0 and loop["failures"][0]["kind"] == "exit"


def all_workloads():
    return [workloads.SpectrumScan(qwire), workloads.IVCurve(qwire),
            workloads.CliMix(qwire, os.path.join(ROOT, "tests", "golden"))]


@pytest.mark.parametrize("wl", all_workloads(), ids=lambda wl: wl.name)
def test_inputs_depend_only_on_the_seed(wl):
    def first(seed):
        return json.dumps(wl.draw(seed))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_names_follow_the_rule_and_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def test_tail_is_the_90th_percentile():
    assert run.tail(list(range(101))) == 90
    assert run.tail([3.0]) == 3.0


def test_summary_does_not_depend_on_the_pass_count():
    def loop(passes):
        times = [4.0, 1.0, 2.0, 3.0]
        executed = list(range(4)) * passes
        # Every execution after the first pass is slower than the first.
        latencies = [t * (1.0 if k < 4 else 1.5) for k, t in enumerate(times * passes)]
        return {"executed": executed, "latencies": latencies, "ok": 4 * passes,
                "attempted": 4 * passes, "passes": passes, "busy_s": sum(latencies),
                "setups": [0.5 + 0.1 * k for k in range(run.SETUP_STARTS)]}

    first = run.summarize(loop(3))
    for passes in (4, 9):
        again = run.summarize(loop(passes))
        for k in run.UNITS:
            if k in first:
                assert again[k] == pytest.approx(first[k]), k
    assert first["samples"] == 4
    assert first["op_p50_ms"] == pytest.approx(2500.0)
    assert first["setup_s"] == 0.5


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    tracer.install(qwire)
    try:
        p = qwire.WireParams(n=40, eps0=0.0, v=1.0, gamma=0.5)
        tracer.active = True
        qwire.transmittance_gf(p, np.linspace(-1, 1, 5000))
        tracer.active = False
        qwire.transmittance_gf(p, 0.3)  # inactive: not recorded
    finally:
        tracer.uninstall()
    assert qwire.transmittance_gf.__module__ == "qwire.transport"
    assert not hasattr(qwire.transmittance_gf, "__wrapped__")
    cols = tracer.columns()
    names = [tracer.names[i] for i in cols["name"]]
    assert names == ["transport.transmittance_gf", "wire_matrix.hat_dets",
                     "wire_matrix.corner_cofactor_wire"]
    assert list(cols["parent"]) == [-1, 0, 0]
    m = tracer.layer_metrics()
    dur = cols["end"] - cols["start"]
    assert m["transport.transmittance_gf.self_s"] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert m["wire_matrix.hat_dets.site_energies"] == 40 * 5000


def test_calls_that_raise_count_their_points():
    tracer = Tracer()
    tracer.install(qwire)
    try:
        p = qwire.WireParams(n=800, eps0=0.0, v=0.6, gamma=0.5)  # underflows in band
        tracer.active = True
        with warnings.catch_warnings(), pytest.raises(AssertionError):
            warnings.simplefilter("ignore")  # overflow and underflow in hat_dets
            qwire.transmittance_eo(p, np.linspace(-0.5, 0.5, 50))
        tracer.active = False
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["transport.transmittance_eo.errors"] == 1
    assert tracer.counts["transport.transmittance_eo.points"] == 50


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iv_curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
