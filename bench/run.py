"""tracereg benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process with BLAS pinned to one
thread, against the library under ``src/`` of the checkout that holds this
file.  Units run in a closed loop, one at a time; every unit's output is
checked against ``reference.json``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  times units for S seconds after set-up and reports the end-to-end
           metrics.
--trace 1  runs a fixed number of units twice each, once under the span
           tracer and once without it, reports the per-layer metrics and
           the tracer's overhead, and writes the spans to
           .bench_out/trace-NAME.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
P90_MIN_UNITS = 100


def prepare_process() -> None:
    """Pin BLAS to one thread and put the checkout's sources first on the
    import path; must run before numpy is imported."""
    if not os.path.isfile(os.path.join(SRC, "tracereg", "__init__.py")):
        raise SystemExit(f"bench: no tracereg sources under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)


def _openblas_query():
    """(threads, config) reported by the OpenBLAS that numpy loaded, or
    (None, None) when it cannot be found."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    return int(get_threads()), get_config().decode()
    return None, None


def host_info() -> dict:
    import numpy as np

    threads, config = _openblas_query()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas_pinned": threads == 1,
        "openblas": config,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


@dataclass
class Outcome:
    index: int
    seconds: float | None  # None when the unit raised
    errors: dict | None  # estimator -> relative error
    successes: list | None  # recovery success flags
    problem: str | None


@contextlib.contextmanager
def _no_span(name):
    yield None


def run_one(workload, index, out_dir, reference, tracer=None) -> Outcome:
    """Run, time and check one unit.  A unit that raises is reported as
    failed and does not stop the run."""
    import workloads
    from tracer import INFO

    span = tracer.span if tracer else _no_span
    clock = tracer.now if tracer else time.perf_counter
    cfg = workload.config(index, out_dir)
    try:
        t0 = clock()
        with span("unit"):
            records, paths, emit = workloads.run_unit(workload, cfg, span)
        seconds = clock() - t0
    except Exception:
        traceback.print_exc()
        return Outcome(index, None, None, None, "raised")
    if emit is not None:
        emit[INFO] = {"bytes": sum(os.path.getsize(p) for p in paths.values())}
    problem = workload.check(index, records, paths, reference)
    if problem:
        print(f"bench: unit seed index {index}: {problem}", file=sys.stderr)
    return Outcome(
        index,
        seconds,
        {rec.estimator: rec.relative_error for rec in records},
        [rec.success for rec in records if rec.success is not None],
        problem,
    )


def set_up(workload, work_dir, indices) -> float:
    """Time one set-up: a fresh interpreter importing tracereg (what every
    CLI call pays) plus the workload's own preparation."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tracereg"], check=True)
    workload.set_up(work_dir, indices)
    return time.perf_counter() - t0


def timed_run(workload, seed, seconds, reference):
    indices = workload.run_indices(seed)
    work_dir = os.path.join(OUT, workload.name)
    setup_times = [set_up(workload, work_dir, indices) for _ in range(SETUP_REPEATS)]
    outcomes = []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        index = indices[len(outcomes) % len(indices)]
        outcomes.append(run_one(workload, index, workload.unit_dir(work_dir, index, len(outcomes)), reference))
    by_input = defaultdict(list)
    for o in outcomes:
        if o.seconds is not None:
            by_input[o.index].append(o.seconds)
    if not by_input:
        raise SystemExit("bench: every unit raised")
    times = [t for v in by_input.values() for t in v]
    # Every input weighs the same whichever inputs the run repeated: the
    # times of a repeated input are averaged first.
    per_input = [statistics.fmean(v) for v in by_input.values()]
    metrics = {
        "unit_s.p50": (statistics.median(per_input), "s"),
        "units_per_s": (len(per_input) / sum(per_input), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"{len(outcomes)} units over {len(per_input)} inputs, closed loop, one at a time; "
             f"set-up repeated {SETUP_REPEATS} times"]
    if len(times) >= P90_MIN_UNITS:
        notes.append(f"unit_s.p90 {statistics.quantiles(times, n=10)[-1]!r} s")
    else:
        notes.append(f"unit_s.p90 omitted: {len(times)} units < {P90_MIN_UNITS}")
    return outcomes, metrics, notes


def traced_run(workload, seed, reference, units=None):
    """The traced pass: set-up once and ``units`` units under the tracer;
    each unit also runs untraced, in alternating order, for the overhead."""
    from tracer import Tracer, layer_metrics

    units = workload.trace_units if units is None else units
    indices = workload.run_indices(seed)
    work_dir = os.path.join(OUT, workload.name)
    tracer = Tracer()
    with tracer.installed():
        workload.set_up(work_dir, indices)
    outcomes, traced_s, plain_s = [], [], []
    for k in range(units):
        index = indices[k % len(indices)]
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            out_dir = workload.unit_dir(work_dir, index, 2 * k + traced)
            if traced:
                tracer.unit = k
                with tracer.installed():
                    pair[traced] = run_one(workload, index, out_dir, reference, tracer)
            else:
                pair[traced] = run_one(workload, index, out_dir, reference)
        if pair[True].errors != pair[False].errors and not pair[True].problem:
            pair[True].problem = "traced and untraced outputs differ"
        outcomes += [pair[False], pair[True]]
        if pair[True].seconds is not None and pair[False].seconds is not None:
            traced_s.append(pair[True].seconds)
            plain_s.append(pair[False].seconds)
    metrics = layer_metrics(tracer)
    metrics["trace.units"] = (float(units), "count")
    metrics["trace.overhead_frac"] = (sum(traced_s) / sum(plain_s) - 1.0 if plain_s else 0.0, "frac")
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{workload.name}.jsonl")
    tracer.write_jsonl(trace_path)
    notes = [f"traced pass: set-up once and {units} units; spans written to {os.path.relpath(trace_path, ROOT)}",
             "bytes_computed is computed from array sizes, not measured"]
    return outcomes, metrics, notes


def quality_lines(outcomes) -> list[str]:
    done = [o for o in outcomes if o.errors is not None]
    lines = [f"failed_frac {sum(1 for o in outcomes if o.problem) / len(outcomes)!r} frac"]
    flags = [s for o in done for s in o.successes]
    if flags:
        lines.append(f"success_frac {sum(flags) / len(flags)!r} frac")
    else:
        errs = [e for o in done for e in o.errors.values()]
        lines.append(f"rel_error.mean {statistics.fmean(errs)!r} ratio")
    return lines


def main(argv=None) -> int:
    prepare_process()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    host = host_info()
    if args.trace:
        outcomes, metrics, notes = traced_run(workload, args.seed, reference)
    else:
        outcomes, metrics, notes = timed_run(workload, args.seed, args.seconds, reference)
    failed = sum(1 for o in outcomes if o.problem)

    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    if not host["blas_pinned"]:
        print(f"WARNING: BLAS threads are {host['blas_threads']}, not pinned to 1")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for line in quality_lines(outcomes):
        print(line)

    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload.name}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        units = [[o.index, o.seconds] for o in outcomes]
        json.dump({"workload": workload.name, "seed": args.seed, "host": host, "notes": notes, "units": units, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
