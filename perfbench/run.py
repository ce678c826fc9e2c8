"""Run an obtusewalk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

Run from the root of a source checkout; the package is imported from
``src/``.  One run builds ``seconds * ROUNDS_PER_S`` rounds of the workload's op
mix from ``--seed``, runs them back to back in this process (one client, a
closed loop), then checks every output.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A readable report and, for traced runs, the spans are
written under ``perfbench/results/``.  See perfbench/README.md.
"""

import os

# single-threaded BLAS/OpenMP, set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

WORKLOAD_NAMES = ("algebra", "limit-cli", "walk-limit", "chain")
# rounds of each workload's op mix per second of --seconds.  The op mix of a
# run is fixed by --seconds alone, not by how fast the code runs, and at 25 s
# it puts the median and the tail percentile inside one size class each
# (see perfbench/README.md); algebra then measures about 10 s of work on the
# seed code, the others about 25 s.
ROUNDS_PER_S = {"algebra": 7 / 25, "limit-cli": 3 / 25, "walk-limit": 14 / 25, "chain": 7 / 25}
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACED_FUNCTIONS = (
    "obtuse.tensor_of",
    "obtuse.check_symmetries",
    "obtuse.validate_obtuse_system",
    "obtuse.relate_same_probabilities",
    "takagi.takagi",
    "tensor.diagonalize",
    "tensor.obtuse_fixed_points",
    "tensor.realify",
    "tensor.transform",
    "tensor.triangularize_system",
    "tensor.extract_phases",
    "limits.limit_tensor",
    "limits.check_limit_symmetries",
    "limits.classify",
    "multop.chain_mult_op",
    "multop.mult_op",
    "multop.expectation_functional",
    "simulate.walk_ensemble",
    "simulate.limit_ensemble",
    "simulate.distribution_compare",
    "simulate.walk_path",
    "simulate.limit_path",
    "simulate.empirical_brackets",
    "serialize.family_from_json",
    "serialize.limitspec_to_json",
    "serialize.tensor_to_json",
    "serialize.complex_to_json",
    "cli.main",
    "cli.cmd_limit",
)


def per_layer_units(layers):
    units = {}
    for fn in TRACED_FUNCTIONS:
        units[f"{fn}.calls_per_op"] = "count"
        units[f"{fn}.self_ms_per_op"] = "ms"
    for layer in layers:
        units[f"{layer}.self_share"] = "1"
    units["multop.chain_matrix_mb"] = "MB"
    units["trace.overhead_ratio"] = "1"
    return units


def tail(latencies):
    """(value, percentile, ops beyond) of the highest of TAIL_PERCENTILES
    with at least TAIL_BEYOND ops above it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    fits = [p for p in TAIL_PERCENTILES if n * (100 - p) >= 100 * TAIL_BEYOND]
    pct = max(fits, default=TAIL_PERCENTILES[0])
    rank = math.ceil(pct / 100 * n) - 1
    return ordered[rank], pct, n - rank - 1


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_op(op):
    """(latency, output or None, error or None) of one untraced op."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # a raising op is a failed op; keep going
        return time.perf_counter() - start, None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, out, None


def setup(workloads, name, seed, rounds, workdir):
    """Input generation and warm-up: the shuffled ops and the seconds taken.

    The warm-up runs one op of each of the two smallest size classes (each
    workload lists its classes smallest first), which loads what numpy and
    the package load lazily without timing the largest ops twice.
    """
    import numpy as np

    start = time.perf_counter()
    ops = workloads.WORKLOADS[name](np.random.default_rng([seed, 0]), rounds, workdir=workdir)
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    for op in list(first.values())[:2]:
        op.summarize(op.run())
    order = np.random.default_rng([seed, 1]).permutation(len(ops))
    return [ops[i] for i in order], time.perf_counter() - start


def import_probe():
    """Seconds a fresh interpreter takes to import obtusewalk from src/."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import obtusewalk; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def measure(ops, tracer=None, first=0):
    """Run the ops back to back: latencies, traced latencies, summaries.

    With a tracer each op runs a second time right after its untraced run,
    with the tracer installed and its spans tagged with the op's index
    (counted from ``first``).
    """
    latencies, traced, outputs = [], [], []
    for k, op in enumerate(ops, start=first):
        lat, out, err = run_op(op)
        latencies.append(lat)
        outputs.append((op.summarize(out) if err is None else None, err))
        del out  # an op's output must not be alive while the next op runs
        if tracer is not None:
            tracer.op = k
            with tracer:
                traced.append(run_op(op)[0])
    return latencies, traced, outputs


def check_all(ops, outputs):
    failures = []
    for k, (op, (out, err)) in enumerate(zip(ops, outputs)):
        if err is None:
            try:
                err = op.check(out)
            except Exception:  # a check that cannot run counts against the op
                err = "check raised: " + traceback.format_exc(limit=3)
        if err is not None:
            failures.append({"op": k, "kind": op.kind, "info": op.info, "reason": err})
    return failures


def run_workload(args):
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import obtusewalk
    except ImportError as exc:
        print(f"error: cannot import obtusewalk from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(obtusewalk.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: obtusewalk resolved outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import tracing
    import workloads

    rounds = max(1, round(args.seconds * ROUNDS_PER_S[args.workload]))
    if args.trace:
        rounds = max(1, rounds // 2)  # each op runs twice: untraced, then traced
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, seconds = setup(workloads, args.workload, args.seed, rounds, str(workdir))
        setups = [import_s + seconds]
        tracer = tracing.Tracer() if args.trace else None
        latencies, traced, outputs = [], [], []
        step = len(ops) // rounds
        for first in range(0, len(ops), step):
            lat, tr, out = measure(ops[first:first + step], tracer, first)
            latencies += lat
            traced += tr
            outputs += out
            # set up again after each round, outside the timing, so that the
            # median set-up time samples the whole run and not one moment
            setups.append(import_probe() + setup(workloads, args.workload, args.seed, rounds, str(workdir))[1])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check_all(ops, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops)
    p_tail, pct, beyond = tail(latencies)
    kinds = sorted({op.kind for op in ops})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "environment": environment(),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "tail": {"percentile": pct, "ops_beyond": beyond},
        "ops_per_kind": {k: sum(op.kind == k for op in ops) for k in kinds},
        "p50_ms_per_kind": {
            k: 1e3 * statistics.median(l for op, l in zip(ops, latencies) if op.kind == k)
            for k in kinds
        },
        "import_s": import_s,
        "setup_samples_s": setups,
        "latencies_ms": [[op.kind, 1e3 * lat] for op, lat in zip(ops, latencies)],
    }
    end_to_end = {
        "ops_per_s": attempted / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * p_tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        metrics, units = per_layer(tracer, ops, outputs, latencies, traced)
        spans_path = RESULTS / f"{tag}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["untraced_end_to_end"] = end_to_end
    else:
        metrics, units = end_to_end, END_TO_END
    report["metrics"] = metrics

    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} rounds={rounds} ops={attempted} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']['name']} {env['blas']['version']} "
          f"threads={env['threads']}")
    for f in failures:
        print(f"# FAILED op {f['op']} ({f['kind']}): {f['reason'].strip().splitlines()[-1]}")
    print(f"# fail_ratio {report['fail_ratio']:.6g} 1 ({len(failures)}/{attempted})")
    print(f"# op_tail_ms is p{pct:g} with {beyond} ops beyond it")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def per_layer(tracer, ops, outputs, latencies, traced):
    import tracing

    by_name, by_op = tracing.aggregate(tracer.spans)
    n = len(ops)
    wall = sum(traced)
    units = per_layer_units(tracing.LAYERS)
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        calls, own = by_name.get(fn, (0, 0.0))
        metrics[f"{fn}.calls_per_op"] = calls / n
        metrics[f"{fn}.self_ms_per_op"] = 1e3 * own / n
    for layer in tracing.LAYERS:
        own = sum(v[1] for name, v in by_name.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = own / wall
    matrix_bytes = [o.get("matrix_bytes", 0) for o, _ in outputs if isinstance(o, dict)]
    metrics["multop.chain_matrix_mb"] = sum(matrix_bytes) / n / 1e6
    metrics["trace.overhead_ratio"] = wall / sum(latencies) - 1.0
    return metrics, units


def run_all(args):
    """Each workload in a fresh process; prints each one's report."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
