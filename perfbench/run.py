"""rtangle benchmark: one workload per run, end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ghzw-oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload generic-roof --smoke --trace 1
    python3 perfbench/run.py --self-test

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same inputs are run with
every layer's public functions wrapped, and the object holds the per-layer
metrics.  The lines before it give the machine, each metric with its unit,
and any failed operation or check.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import timeit
from pathlib import Path
from time import monotonic

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402

SETUP_SPAWNS = 5
KERNEL_REPEAT, KERNEL_NUMBER = 5, 400

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("roof_value_sum", "1", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("kernels.roof_value_grad.calls", "count", "lower"),
    ("kernels.roof_value_grad.rows", "count", "lower"),
    ("kernels.roof_value_grad.s", "s", "lower"),
    ("kernels.polar_retract.calls", "count", "lower"),
    ("kernels.polar_retract.s", "s", "lower"),
    ("kernels.roof_value.calls", "count", "lower"),
    ("kernels.roof_value.s", "s", "lower"),
    ("kernels.hyperdet_rows.calls", "count", "lower"),
    ("kernels.hyperdet_rows.s", "s", "lower"),
    ("kernels.hyperdet_rows.us", "us", "lower"),
    ("kernels.roof_value_grad.us", "us", "lower"),
    ("kernels.polar_retract.us", "us", "lower"),
    ("roof.roof_minimize.calls", "count", "lower"),
    ("roof.roof_minimize.s", "s", "lower"),
    ("roof.self_s", "s", "lower"),
    ("roof.seed_wins", "count", "higher"),
    ("invariants.invariants.calls", "count", "lower"),
    ("invariants.invariants.s", "s", "lower"),
    ("ghzw.analyze.s", "s", "lower"),
    ("ghzw.optimal_ensemble.s", "s", "lower"),
    ("ghzw.as_mixture.s", "s", "lower"),
    ("slocc.measure.calls", "count", "lower"),
    ("slocc.measure.s", "s", "lower"),
    ("states.apply_local.s", "s", "lower"),
    ("states.ensemble_to_density.s", "s", "lower"),
    ("io.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
)


def measure_setup(spawns: int) -> list:
    """(monotonic start, wall seconds) of each spawn of a fresh interpreter
    that runs ``import rtangle``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    spans = []
    for _ in range(spawns):
        t0 = monotonic()
        done = subprocess.run([sys.executable, "-c", "import rtangle"], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        spans.append((t0, monotonic() - t0))
        if done.returncode != 0:
            raise RuntimeError(f"import rtangle failed: {done.stderr.decode(errors='replace')}")
    return spans


def machine_record(rt) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "backend": getattr(rt, "BACKEND", "unknown"),
    }


def kernel_timings(rt) -> dict:
    """Minimum us per call over repeats at a fixed (4, 8) input, untraced."""
    kernels = __import__(rt.__name__ + ".kernels", fromlist=["_"])
    rng = np.random.default_rng(0)
    W = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    inputs = {"hyperdet_rows": (W,), "roof_value_grad": (W, True, 1e-6), "polar_retract": (A,)}
    out = {}
    for name, args in inputs.items():
        fn = getattr(kernels, name, None)
        if fn is None:
            continue
        best = min(timeit.repeat(lambda: fn(*args), repeat=KERNEL_REPEAT, number=KERNEL_NUMBER))
        out[f"kernels.{name}.us"] = best / KERNEL_NUMBER * 1e6
    return out


def weighted_stats(times, mix) -> tuple:
    """Throughput and median time of one operation over the pass's mix.

    Each operation kind counts as often as it occurs in one pass (roof
    workloads) or round (exact-pipeline), whatever share of a further pass
    the run reached.
    """
    per_kind = [(statistics.median(t), statistics.fmean(t), mix[k]) for k, t in times.items()]
    ops_per_s = sum(n for _, _, n in per_kind) / sum(mean * n for _, mean, n in per_kind)
    per_kind.sort()
    half, seen = sum(n for _, _, n in per_kind) / 2.0, 0
    for i, (median, _, n) in enumerate(per_kind):
        seen += n
        if seen > half:
            return ops_per_s, median
        if seen == half:  # an even count: the middle two
            return ops_per_s, (median + per_kind[i + 1][0]) / 2.0
    raise ValueError("no operations")


def layer_metrics(snapshot, kernel_us, seed_wins) -> dict:
    functions, layer_s, self_s = snapshot["functions"], snapshot["layer_s"], snapshot["self_s"]
    fields = {"calls": 0, "s": 1, "rows": 2}
    out = {}
    for name, _, _ in PER_LAYER:
        parts = name.split(".")
        if name in kernel_us:
            out[name] = kernel_us[name]
        elif name == "roof.seed_wins":
            out[name] = seed_wins
        elif len(parts) == 2 and parts[1] == "self_s":
            out[name] = self_s[parts[0]]
        elif len(parts) == 2 and parts[1] == "s":
            out[name] = layer_s[parts[0]]
        elif len(parts) == 3 and parts[2] in fields and ".".join(parts[:2]) in functions:
            out[name] = functions[".".join(parts[:2])][fields[parts[2]]]
        # a name missing at run time drops its metric
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one small pass with one restart per solve, in a few seconds")
    ap.add_argument("--self-test", action="store_true",
                    help="check that every correctness check rejects a perturbed value")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def self_test() -> int:
    broken = checks.self_test()
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        doc = json.loads(spec.read_text(encoding="utf-8"))
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            declared = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
            if declared != list(table):
                broken.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
        if sorted(w["name"] for w in doc["workloads"]) != sorted(workloads.WORKLOADS):
            broken.append("BENCHMARK.json workloads differ from run.py's")
    for line in broken:
        print(f"self-test: {line}")
    print(f"self-test: {'FAILED' if broken else 'ok'}")
    return 1 if broken else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_test:
        return self_test()
    if not (SRC / "rtangle" / "__init__.py").is_file():
        print(f"perfbench: no rtangle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one core for the whole run, set-up spawns included, so that the speed
    # samples and the operations they rescale run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tmp = os.path.relpath(ROOT / ".perfbench_tmp" / f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    speed = SpeedSampler(os.path.join(tmp, "speed.txt"))
    tracer = None
    try:
        with speed:
            setup = measure_setup(1 if args.smoke else SETUP_SPAWNS)
            import rtangle as rt

            machine = machine_record(rt)
            print("machine:", json.dumps(machine, sort_keys=True))
            kernel_us = kernel_timings(rt) if args.trace else {}
            tracer = Tracer(rt) if args.trace else None
            if tracer is not None:
                tracer.install()
            chk = checks.Checks()
            run = workloads.WORKLOADS[args.workload]
            outcome = run(rt, np.random.default_rng(args.seed), args.smoke,
                          0.0 if args.smoke else args.seconds, tracer, chk, tmp)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(ROOT / ".perfbench_tmp") and not os.listdir(ROOT / ".perfbench_tmp"):
            os.rmdir(ROOT / ".perfbench_tmp")

    def rescale(spans):
        return [d * speed.factor(t, d) for t, d in spans]

    ops_per_s, op_p50_s = weighted_stats(
        {k: rescale(v) for k, v in outcome.times.items()}, outcome.mix)
    raw_ops_per_s, raw_op_p50_s = weighted_stats(
        {k: [d for _, d in v] for k, v in outcome.times.items()}, outcome.mix)
    setup_s = statistics.median(rescale(setup))
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_p50_s": op_p50_s,
        "roof_value_sum": float(sum(outcome.values)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    digest = hashlib.sha256(np.array(outcome.values, dtype=np.float64).tobytes()).hexdigest()
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} smoke={args.smoke}")
    print(f"operations: attempted={outcome.attempted} failed={outcome.failed} "
          f"kinds={len(outcome.times)} per_pass={sum(outcome.mix.values())}")
    for line in outcome.failures:
        print(f"  failed operation: {line}")
    print(f"values: n={len(outcome.values)} sha256={digest[:16]}")
    print(f"wall clock, not rescaled: setup_s={statistics.median(d for _, d in setup)!r} "
          f"ops_per_s={raw_ops_per_s!r} "
          f"op_p50_s={raw_op_p50_s!r}; speed samples: median "
          f"{speed.median_s() * 1e3:.3f} ms per reference task ({len(speed.seconds)} samples)")
    print(f"checks: {chk.count} run, {'all passed' if chk.ok else 'FAILED'}")
    for line in chk.failures:
        print(f"  check failed: {line}", file=sys.stderr)
    if args.trace:
        table, metrics = PER_LAYER, layer_metrics(outcome.trace, kernel_us, outcome.seed_wins)
        # end-to-end figures of the traced run, against an untraced run they give the overhead
        print("traced end-to-end: " + " ".join(f"{k}={v!r}" for k, v in end_to_end.items()))
    else:
        table, metrics = END_TO_END, end_to_end
    result = {}
    for name, unit, _ in table:
        if name in metrics:
            print(f"  {name} = {metrics[name]!r} {unit}")
            result[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": chk.ok, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": result}))
    return 0 if chk.ok else 1


if __name__ == "__main__":
    sys.exit(main())
