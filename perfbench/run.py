"""Benchmark for cubepu: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; cubepu is imported from ./src.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones, measured without tracing; with --trace 1 they are the
per-layer ones from a traced run.  Human-readable notes go to stderr.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 11
MODULES = ("cubepu", "cubepu.pu", "cubepu.rbf", "cubepu.halton",
           "cubepu.cube_index", "cubepu.geometry")


class SourceMissing(Exception):
    pass


def import_cubepu():
    """Import cubepu afresh from ./src and return its modules by short name."""
    if not (SRC / "cubepu" / "__init__.py").is_file():
        raise SourceMissing(f"no cubepu package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cubepu" or m.startswith("cubepu.")]:
        del sys.modules[name]
    mods = [importlib.import_module(m) for m in MODULES]
    if not Path(mods[0].__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"cubepu was imported from {mods[0].__file__}, not {SRC}")
    return SimpleNamespace(**{m.rpartition(".")[2]: mod for m, mod in zip(MODULES, mods)})


def set_up(wl, seed, repeats):
    """Import cubepu and build the inputs `repeats` times; returns the last
    result and the seconds each set-up took.  The first set-up also loads
    numpy's and scipy's submodules; the median leaves that one-off out."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        lib = import_cubepu()
        inp = workloads.make_inputs(lib, wl, seed)
        times.append(time.perf_counter() - t0)
    return lib, inp, times


def run_passes(lib, wl, inp, budget_s, tracer=None, log=sys.stderr):
    """Repeat whole passes until the next one would end more than half a
    pass after `budget_s`; at least one pass runs.  Returns the outcomes of
    the passes that succeeded (with their per-layer figures when traced),
    and the counts of passes attempted, failed, and failed by a check."""
    outcomes, durations = [], []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        gc.collect()  # every pass starts from the same collector state
        t0 = time.perf_counter()
        first = tracer.mark() if tracer else 0
        try:
            out = workloads.run_pass(lib, wl, inp)
            end = tracer.mark() if tracer else 0
            fails = workloads.check_pass(lib, wl, inp, out)
        except Exception:
            failed += 1
            traceback.print_exc(file=log)
        else:
            if fails:
                failed += 1
                wrong += 1
                print(f"pass {attempted} failed its checks:", *fails, sep="\n  ", file=log)
            else:
                if tracer:
                    out.layer = spans.layer_metrics(tracer.spans, first, end, out.models)
                out.models = out.singles = None  # keep memory flat across passes
                outcomes.append(out)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(durations) > budget_s:
            return outcomes, attempted, failed, wrong


def end_to_end(outcomes, setup_times):
    evals = [t for o in outcomes for t in o.eval_s]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "fit_s": (statistics.median(o.fit_s for o in outcomes), "s"),
        "eval_s": (statistics.median(evals), "s"),
        "total_s": (statistics.median(o.total_s for o in outcomes), "s"),
        "rmse": (statistics.median(o.rmse for o in outcomes), "1"),
        "max_err": (statistics.median(o.max_err for o in outcomes), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def latency_note(samples):
    """Median and the highest of p90/p99/p99.9 with at least ten samples
    beyond it, per the sample count."""
    ms = np.asarray(samples) * 1e3
    parts = [f"n={ms.size}", f"p50={np.percentile(ms, 50):.4g}ms"]
    for p in (90.0, 99.0, 99.9):
        if ms.size * (1 - p / 100) >= 10:
            parts.append(f"p{p:g}={np.percentile(ms, p):.4g}ms")
    return " ".join(parts)


def run(wl, seed, seconds, trace, log=sys.stderr, trace_dir=TRACE_DIR):
    """Run one workload; returns the result object that main prints."""
    lib, inp, setup_times = set_up(wl, seed, SETUP_REPEATS)
    print(f"{wl.name} seed {seed}: first set-up {setup_times[0]:.4f}s, "
          f"median {statistics.median(setup_times):.4f}s", file=log)
    if not trace:
        outcomes, attempted, failed, wrong = run_passes(lib, wl, inp, seconds, log=log)
        metrics = end_to_end(outcomes, setup_times) if outcomes else {}
        if outcomes:
            print(f"{len(outcomes)} passes; total_s",
                  *(f"{o.total_s:.3f}" for o in outcomes), file=log)
            print("eval call latency", latency_note([t for o in outcomes for t in o.eval_s]),
                  file=log)
    else:
        # Half the time untraced, half traced: the difference of the two
        # median pass times is the tracing overhead.
        plain, *counts = run_passes(lib, wl, inp, seconds / 2, log=log)
        tracer = spans.Tracer()
        tracer.install()
        try:
            first = tracer.mark()
            inp = workloads.make_inputs(lib, wl, seed)
            setup_range = (first, tracer.mark())
            traced, *more = run_passes(lib, wl, inp, seconds / 2, tracer, log)
        finally:
            tracer.uninstall()
        attempted, failed, wrong = (a + b for a, b in zip(counts, more))
        metrics = {}
        if plain and traced:
            layer = spans.median_metrics([o.layer for o in traced])
            layer["halton.generate_s"] = spans.seconds_in(
                tracer.spans, *setup_range, "halton.generate")
            layer["trace.overhead_s"] = (statistics.median(o.total_s for o in traced)
                                         - statistics.median(o.total_s for o in plain))
            metrics = {k: (layer[k], unit) for k, (unit, _) in spans.LAYER_METRICS.items()}
        if tracer.missing:
            print("not traced, not found in cubepu:", *tracer.missing, file=log)
        path = trace_dir / f"trace-{wl.name}-seed{seed}.json"
        tracer.write(path)
        print(f"{len(plain)} untraced and {len(traced)} traced passes; spans in {path}",
              file=log)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; no pass starts that would end more than "
                         "half a pass after it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except SourceMissing as exc:
        print(f"perfbench: {exc}; run from the root of a cubepu source checkout",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
