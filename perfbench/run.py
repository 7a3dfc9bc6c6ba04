"""Benchmark runner for nash-realize.

    python3 perfbench/run.py --workload simulate|measure|reduce \
        --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ./src. Passes
over the workload's fixed operations repeat until S seconds have gone by,
at least two of them when S > 0; every pass is checked against the
references in refs.py. Untraced passes are timed on hostclock's steady
clock, which leaves out the host's slow phases. The last line of
stdout is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
See README.md in this directory.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def _process_age() -> float:
    """Seconds since this process started (Linux /proc; 0 elsewhere)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - start)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE0 = _process_age()

# one thread per BLAS/OpenMP pool, before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("simulate", "measure", "reduce"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _no_span(_name):
    return nullcontext()


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("flows_per_call"):
        return "flows/call"
    if name.endswith("newton_evals_per_solve"):
        return "evals/solve"
    if name.endswith("flow_yield"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _args(argv)
    args.seed %= 2 ** 32     # numpy seeds must be non-negative
    if not os.path.isfile(os.path.join(SRC, "nash_realize", "__init__.py")):
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = _AGE0 + (time.perf_counter() - _T0)
    import nash_realize
    if not os.path.abspath(nash_realize.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported {nash_realize.__file__}, not the "
              f"program under {SRC}", file=sys.stderr)
        return 2
    wl.prepare()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    clock, steady = time.perf_counter, None
    if tracer is None:
        import hostclock
        steady = hostclock.SteadyClock()
        clock = steady.now
        steady.start()
    min_passes = 2 if args.seconds > 0 else 1
    passes, walls, metrics_per_pass, aggregates = [], [], [], []
    failed, errors, margin, worst = 0, [], float("inf"), None
    start = time.perf_counter()
    try:
        while True:
            if tracer is not None:
                tracer.reset()
                tracer.pass_index = len(passes)
                tracer.install()
                span = tracer.span
            else:
                span = _no_span
            t, w = clock(), time.perf_counter()
            try:
                outputs = wl.run_pass(span)
            finally:
                passes.append(clock() - t)
                walls.append(time.perf_counter() - w)
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                metrics_per_pass.append(tracer.layer_metrics())
                aggregates.append(tracer.aggregates())
            checks = wl.check(outputs)
            failed += checks.failed
            errors.extend(f"pass {len(passes)}: {e}" for e in checks.errors)
            if checks.margin < margin:
                margin, worst = checks.margin, checks.worst
            if len(passes) >= min_passes and \
                    time.perf_counter() - start >= args.seconds:
                break
    finally:
        if steady is not None:
            steady.stop()

    if margin == float("inf"):
        errors.append("no answer was checked")
        margin = 0.0
    print(f"margin_digits {margin:.4f} from {worst}", file=sys.stderr)
    print("pass wall times " + " ".join(f"{p:.3f}" for p in walls),
          file=sys.stderr)
    if steady is not None:
        print("pass steady times " + " ".join(f"{p:.3f}" for p in passes)
              + f"; median probe {statistics.median(steady.probe_times):.3e}"
              f" s, reference {hostclock.PROBE_REF_S:.3e} s", file=sys.stderr)
    for e in errors[:50]:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": wl.ops_per_pass * len(passes),
        "failed": failed,
    }
    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "margin_digits": {"value": margin, "unit": "digits"},
        }
    else:
        metrics = result["metrics"] = {}
        first = metrics_per_pass[0]
        for name, value in first.items():
            if name.endswith(".self_s"):
                value = statistics.median(m[name] for m in metrics_per_pass)
            elif any(m[name] != value for m in metrics_per_pass[1:]):
                print(f"counter {name} differs between passes",
                      file=sys.stderr)
            metrics[name] = {"value": value, "unit": _unit(name)}
        path = os.path.join(HERE, "traces",
                            f"{args.workload}-seed{args.seed}.json")
        tracing.write_trace(path, dict(
            result, workload=args.workload, seed=args.seed,
            margin_digits=margin, margin_check=worst, errors=errors,
            pass_s=passes, metrics_per_pass=metrics_per_pass),
            aggregates, tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
