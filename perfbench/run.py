"""Layered benchmark for qwire.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and perfbench/README.md) as a closed
loop from a single client for S seconds of operation time, checks every
result against an independent reference, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it give the same numbers for reading, with
sample counts.  Full results, the failing inputs and the span file go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Every process of the benchmark, its child interpreters included, uses one
# BLAS thread; set before numpy is first imported.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("spectrum_scan", "iv_curve", "cli_mix")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "ok_frac": "frac", "peak_rss_mb": "MB"}
SETUP_STARTS = 12
TAIL_PERCENTILE = 90
IMPORTTIME_STARTS = 3
IMPORT_LAYERS = ("qwire", "scipy.linalg", "scipy.integrate", "scipy.special")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _timed_child(args, env):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True)
    return time.perf_counter() - t0, proc.stderr.decode()


def import_layers(env):
    """Median cumulative import time (s) of IMPORT_LAYERS, from ``python -X importtime``."""
    samples = {name: [] for name in IMPORT_LAYERS}
    for _ in range(IMPORTTIME_STARTS):
        _, err = _timed_child(["-X", "importtime", "-c", "import qwire"], env)
        for line in err.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line.split("|")
            name = fields[-1].strip()
            if name in samples:
                samples[name].append(int(fields[1].strip()) * 1e-6)
    return {f"import.{name.replace('scipy.', 'scipy_')}_s": statistics.median(v) if v else 0.0
            for name, v in samples.items()}


def tail(values):
    """The TAIL_PERCENTILE-th percentile of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def closed_loop(workload, ops, seconds, order, tracer=None, setup=None):
    """Run passes over ``ops`` back to back until their summed time reaches
    ``seconds``; a run ends only at the end of a pass, after one at least.

    Each pass visits every operation once, in an order drawn from ``order``.
    Only the call into qwire is timed; checks run between operations with
    tracing off.  With a tracer, each operation runs twice, untraced and then
    traced; the traced call is the one timed, checked and counted, and
    ``plain_s`` sums the untraced calls for the tracing overhead.  Both count
    towards ``seconds``.  With ``setup``, a callable returning one set-up
    time, SETUP_STARTS set-ups are taken between operations, spread evenly
    over the run's operation time; they do not count towards ``seconds``.
    """
    executed, latencies, failures, setups = [], [], [], []
    ok = mismatches = output_bytes = 0
    busy = plain = 0.0
    while not latencies or busy + plain < seconds:
        for i in order.permutation(len(ops)):
            while setup is not None and busy >= len(setups) * seconds / SETUP_STARTS \
                    and len(setups) < SETUP_STARTS:
                setups.append(setup())
            op = ops[i]
            if tracer is not None:
                t0 = time.perf_counter()
                try:
                    workload.run(op)
                except Exception:  # the traced call below records the failure
                    pass
                plain += time.perf_counter() - t0
                tracer.op, tracer.active = len(latencies), True
            t0 = time.perf_counter()
            try:
                result = workload.run(op)
                problem = None
            except Exception as exc:  # a failed operation is counted, the loop goes on
                result, problem = None, (type(exc).__name__, str(exc)[:300])
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            busy += elapsed
            executed.append(int(i))
            latencies.append(elapsed)
            if problem is None:
                output_bytes += workload.output_size(result)
                problem = workload.check(op, result)
            if problem is None:
                ok += 1
                continue
            mismatches += problem[0] == "mismatch"
            failures.append({"kind": problem[0], "message": problem[1], "op": op})
    while setup is not None and len(setups) < SETUP_STARTS:  # due during the last operations
        setups.append(setup())
    return {"attempted": len(latencies), "ok": ok, "mismatches": mismatches, "busy_s": busy,
            "plain_s": plain, "output_bytes": output_bytes, "executed": executed,
            "latencies": latencies, "failures": failures, "setups": setups,
            "passes": len(latencies) // len(ops)}


def summarize(loop):
    """End-to-end figures of one run.

    Each distinct operation is timed at its best (shortest) execution in the
    run, and ``setup_s`` is the best of its starts.  Other tenants of a
    shared host slow it down by up to half, switching about every second; a
    short operation repeated over the run meets quiet moments, and its best
    time is what the program costs.  Every operation ran once per pass and a
    run ends at the end of a pass, so each distinct operation carries the
    same weight, and the percentiles are taken over the distinct operations:
    they do not depend on how many passes fit in the run.
    """
    samples = {}
    for i, t in zip(loop["executed"], loop["latencies"]):
        samples.setdefault(i, []).append(t)
    times = sorted(min(v) for v in samples.values())
    return {
        "setup_s": min(loop["setups"]),
        "ops_per_s": loop["ok"] / (loop["passes"] * sum(times)),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail(times),
        "ok_frac": loop["ok"] / loop["attempted"],
        "samples": len(times),
        "failed_frac": 1.0 - loop["ok"] / loop["attempted"],
        "raw_setup_s": statistics.median(loop["setups"]),
        "raw_ops_per_s": loop["ok"] / loop["busy_s"],
    }


def failure_classes(failures):
    classes = {}
    for f in failures:
        key = f"{f['kind']}: {f['message'][:60]}"
        classes[key] = classes.get(key, 0) + 1
    return dict(sorted(classes.items(), key=lambda kv: -kv[1]))


def make_workload(name, qwire):
    import workloads
    if name == "cli_mix":
        return workloads.CliMix(qwire, GOLDEN_DIR)
    cls = {"spectrum_scan": workloads.SpectrumScan, "iv_curve": workloads.IVCurve}[name]
    return cls(qwire)


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, **THREADS}


def main(argv=None):
    args = parse_args(argv)
    for needed in (os.path.join(SRC, "qwire", "__init__.py"), GOLDEN_DIR):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from a qwire checkout", file=sys.stderr)
            return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import warnings
    warnings.simplefilter("ignore")  # overflow and quadrature warnings of failing inputs
    import numpy as np
    import qwire
    import qwire.cli
    from tracer import LAYER_UNITS, Tracer

    env = child_env()
    order = np.random.default_rng([args.seed, 0])
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace == 0:
        wl = make_workload(args.workload, qwire)
        loop = closed_loop(wl, wl.draw(args.seed), args.seconds, order,
                           setup=lambda: _timed_child(["-c", "import qwire"], env)[0])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        stats = summarize(loop)
        values = {**{k: stats[k] for k in UNITS if k in stats}, "peak_rss_mb": rss_kb / 1024.0}
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        report["details"] = {k: stats[k] for k in stats if k not in UNITS}
        report["details"].update(busy_s=loop["busy_s"], passes=loop["passes"],
                                 setup_samples=loop["setups"], tail_percentile=TAIL_PERCENTILE,
                                 executed=loop["executed"], latencies=loop["latencies"])
        n = stats["samples"]
        print(f"{args.workload} seed={args.seed}: {loop['attempted']} ops attempted "
              f"({loop['passes']} passes over {n} distinct), "
              f"{loop['ok']} ok, failed_frac={stats['failed_frac']:.4f}, "
              f"{loop['busy_s']:.2f} s of operations")
        for k in UNITS:
            note = {"setup_s": f"best of {len(loop['setups'])} starts, "
                               f"median {stats['raw_setup_s']:.6g}",
                    "ops_per_s": f"raw {stats['raw_ops_per_s']:.6g}",
                    "op_p50_ms": f"n={n} distinct ops, best of {loop['passes']} each",
                    "op_tail_ms": f"p{TAIL_PERCENTILE}, n={n} distinct ops"}.get(k, "")
            print(f"  {k:<12} {values[k]:>14.6g} {UNITS[k]:<5} {note}")
    else:
        wl = make_workload(args.workload, qwire)
        tracer = Tracer()
        tracer.install(qwire)
        try:
            loop = closed_loop(wl, wl.draw(args.seed), args.seconds, order, tracer)
        finally:
            tracer.uninstall()
        tracer.counts["cli.output_bytes"] = loop["output_bytes"]
        values = tracer.layer_metrics()
        values.update(import_layers(env))
        values["cli.interpreter_s"] = statistics.median(
            _timed_child(["-c", "pass"], env)[0] for _ in range(IMPORTTIME_STARTS))
        values["trace.overhead_frac"] = loop["busy_s"] / loop["plain_s"] - 1.0
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in sorted(values.items())}
        tracer.save(os.path.join(OUT_DIR, f"spans-{tag}.npz"))
        print(f"{args.workload} seed={args.seed} traced: {loop['attempted']} ops, "
              f"{values['trace.spans']} spans, {loop['busy_s']:.2f} s traced against "
              f"{loop['plain_s']:.2f} s untraced")
        for k, m in metrics.items():
            print(f"  {k:<45} {m['value']:>14.6g} {m['unit']}")

    failed = loop["attempted"] - loop["ok"]
    report.update(metrics=metrics, attempted=loop["attempted"], failed=failed,
                  mismatches=loop["mismatches"], failure_classes=failure_classes(loop["failures"]),
                  failures=loop["failures"][:200])
    for key, count in report["failure_classes"].items():
        print(f"  failed {count:>4} x {key}")
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    # A wrong finite value is incorrect; a raised error or a non-finite value
    # is a failed operation, counted in ``failed`` and ok_frac.
    print(json.dumps({"correct": loop["mismatches"] == 0, "attempted": loop["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
