"""kreinkit benchmark: certified operations per second on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload mnps-corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One closed-loop client, no concurrency: each operation starts when the
previous one has returned and been checked.  Every output is checked
independently (``checks.py``); an operation that raises, or whose output
fails its check, counts as failed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each operation untraced and traced (alternating
which goes first), requires identical outputs, and prints the per-layer
metrics with the tracing overhead.  The last line of standard output is one
JSON object; the lines before it are the same numbers for a reader.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, for this process and every child.
# The n = 400 ladder takes about twice as long with two BLAS threads as with one.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# The CLI ladder then takes its default threaded path (workers = min(4, cpus)).
os.environ.pop("KREINKIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("mnps-corpus", "pontryagin-large", "group-certify", "cli-cold")
#: Set-ups per run; setup_s is their median.
SETUP_REPS = 3
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_seconds() -> float:
    """Time ``import kreinkit`` in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import kreinkit; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy
    import scipy

    import kreinkit.cli

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cli_ladder_workers": kreinkit.cli._threads(),
    }


def _tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it, or None below p50."""
    n = len(latencies)
    if n <= 2 * TAIL_BEYOND:
        return None
    value = sorted(latencies)[n - TAIL_BEYOND - 1]
    return 100.0 * (n - TAIL_BEYOND) / n, value


def _peak_rss_mb(who: str) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


def _expected_metrics(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[workload_name]()
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=os.path.join(HERE, "work"))
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPS):  # a traced run reports no setup_s
            imported = _import_seconds()
            t0 = time.perf_counter()
            wl.setup(seed, workdir)
            setups.append(imported + time.perf_counter() - t0)
        wl.prepare()
        errors = checks.self_test()
        if errors:
            raise RuntimeError("check self-test failed: " + "; ".join(errors))

        latencies, spent, failed, i = [], 0.0, 0, 0
        acc, overhead = {}, 0.0
        first_failure = None
        while spent < seconds:
            passes = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
            outs, fails = {}, []
            for traced in passes:
                t0 = time.perf_counter()
                try:
                    outs[traced] = wl.run(i, traced)
                except Exception:  # an operation that raises is a failed operation
                    outs[traced] = None
                    fails.append(traceback.format_exc(limit=3))
                dt = time.perf_counter() - t0
                spent += dt
                overhead += dt if traced else -dt
                if not traced:
                    latencies.append(dt)
            for traced, result in outs.items():
                if result is not None:
                    try:
                        fails += wl.check(i, result[0])
                    except Exception:  # an output the check cannot read is a wrong output
                        fails.append(traceback.format_exc(limit=3))
                    if result[1]:
                        tracing.merge(acc, result[1])
            if trace and None not in outs.values() and not wl.same(outs[False][0], outs[True][0]):
                fails.append("traced output differs from untraced output")
            if fails:
                failed += 1
                first_failure = first_failure or fails[0]
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if first_failure:
        print(f"perfbench: {failed} of {i} operations failed; first: {first_failure}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": i, "failed": failed}
    if trace:
        metrics = tracing.layer_metrics(acc, i)
        metrics["tracing_overhead_s"] = (overhead / i, "s/op")
    else:
        metrics = {
            "ops_per_s": ((i - failed) / sum(latencies), "1/s"),
            "latency_ms_p50": (1e3 * statistics.median(latencies), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (_peak_rss_mb(wl.rss_who), "MB"),
        }
        result["tail"] = _tail(latencies)
    result["metrics"] = metrics
    return result


def report(workload: str, seed: int, trace: bool, result: dict, tail) -> None:
    """Print the numbers for a reader; the JSON line follows."""
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"operations {result['attempted']}  failed {result['failed']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not trace:
        print(f"  {'failed_ratio':36s} {result['failed'] / result['attempted']:14.6g} ratio")
        if tail is None:
            print(f"  {'latency_ms_tail':36s} {'omitted':>14s} (only {result['attempted']} samples)")
        else:
            percentile, seconds = tail
            print(f"  {'latency_ms_tail':36s} {1e3 * seconds:14.6g} ms  (p{percentile:.1f}, "
                  f"{TAIL_BEYOND} of {result['attempted']} samples beyond)")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return _fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kreinkit", "__init__.py")):
        return _fail(f"no kreinkit sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + pythonpath if pythonpath else "")
    import kreinkit

    if os.path.dirname(os.path.dirname(os.path.abspath(kreinkit.__file__))) != SRC:
        return _fail(f"kreinkit was imported from {kreinkit.__file__}, not from {SRC}")

    if args.workload == "all":
        return run_all(args)

    trace = bool(args.trace)
    section = "per_layer" if trace else "end_to_end"
    expected = _expected_metrics(section)
    result = measure(args.workload, args.seed, args.seconds, trace)
    produced = {name: unit for name, (_, unit) in result["metrics"].items()}
    if produced != expected:
        return _fail(f"metrics disagree with BENCHMARK.json {section}: "
                     f"{sorted(set(produced.items()) ^ set(expected.items()))}")
    report(args.workload, args.seed, trace, result, result.pop("tail", None))
    print(f"environment {json.dumps(_environment(), sort_keys=True)}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
