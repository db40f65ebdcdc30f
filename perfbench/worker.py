"""One benchmark pass in a fresh interpreter, so caches start cold as they do
for a user's process.  Started by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --t0 T
        --workdir DIR --result FILE [--setup-only] [--trace] [--check]

Set-up is everything from interpreter start (``--t0``, the parent's
``perf_counter`` just before it started this process; the clock is
system-wide) until the package is imported and the inputs are written.
The pass then runs every operation once, timing each; outputs are checked
after the pass, outside the timed region.  Times are recorded as measured
and scaled to the machine's quiet speed (speed.py); run.py reports the
scaled ones.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import propconn  # noqa: E402

if not Path(propconn.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
    sys.exit(f"worker: imported propconn from {propconn.__file__}, "
             f"not from this checkout's src/")

import speed  # noqa: E402
import workloads  # noqa: E402


def _run_pass(inputs, probe):
    """Run every op once, timing each.  Returns the raw outputs and, per op,
    (measured seconds, start, end); handler time is taken out."""
    raw, times = {}, []
    for op in inputs.ops:
        handler_s = probe.handler_s
        start = time.perf_counter()
        try:
            raw[op.label] = workloads.run_op(op, inputs)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc()
            raw[op.label] = (None, exc)
        end = time.perf_counter()
        times.append((end - start - (probe.handler_s - handler_s), start, end))
    return raw, times


def _results(inputs, raw) -> dict:
    results = {}
    for op in inputs.ops:
        code, out = raw[op.label]
        try:
            results[op.label] = (workloads.normalize(op, code, out)
                                 if code is not None
                                 else {"error": f"raised {out!r}"})
        except (ValueError, OSError) as exc:
            results[op.label] = {"error": f"unreadable output: {exc!r}"}
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    inputs = workloads.WORKLOADS[args.workload].build(args.seed, args.workdir)
    setup_measured = time.perf_counter() - args.t0
    record = {"setup_s": setup_measured / speed.slowdown_now(),
              "setup_measured_s": setup_measured,
              "rounds": workloads.WORKLOADS[args.workload].rounds}
    if not args.setup_only:
        probe = speed.SpeedProbe()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(probe)
            tracer.install()
        probe.start()
        raw, times = _run_pass(inputs, probe)
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.layer_metrics(times[0][1], times[-1][2])
            tracer.write_spans(args.result.with_suffix(".spans.jsonl"))
        probe.stop()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results = _results(inputs, raw)
        failures = {label: result["error"]
                    for label, result in results.items() if "error" in result}
        if args.check:
            failures.update(workloads.check_outputs(
                args.workload, inputs, results,
                workloads.golden_for(args.workload, args.seed)))
        record.update(
            latencies=[probe.scaled(*t) for t in times],
            measured=[seconds for seconds, _, _ in times],
            peak_rss_kb=peak_rss_kb, results=results, failures=failures)
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
