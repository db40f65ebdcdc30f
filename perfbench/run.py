"""propconn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Workloads are defined, with the reason each was chosen, in workloads.py and
BENCHMARK.json.  Everything runs on one process at a time, with no threads.

A pass runs the workload's whole seeded operation list once, in a fresh
worker interpreter, so caches start cold.  Every time is scaled to the
machine's quiet speed by a reference loop sampled during the pass
(speed.py); the measured times are kept in the run record.

Untraced run (``--trace 0``): the workload's rounds of passes, then more
passes until at least ``--seconds`` have been measured, then five set-up
probes.  The first pass's outputs are checked in full; later passes must
reproduce them exactly.  Each operation's time is its fastest over the
passes.  Prints the end-to-end metrics: ``wall_s`` (sum of the operation
times), ``latency_p50_ms``/``latency_p90_ms`` over the operation times,
``setup_s`` (median over passes and probes: interpreter start until the
package is imported and the inputs are written) and ``peak_rss_mb``
(largest worker peak).

Traced run (``--trace 1``): one untraced pass, checked in full, then one
traced pass (tracing.py) that must reproduce it.  Prints the per-layer
metrics from the traced pass, plus ``trace.overhead_ratio`` = traced /
untraced pass time.

The last line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the run
record (python version, nproc, git sha, source digest, seed, operation
counts, failed ratio), which is also written to perfbench/out/ with every
operation's times.  Exits 2 without a result when the checkout has no
package source.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUT = HERE / "out"
SETUP_PROBES = 5
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _git_sha():
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """Digest of every file under src/propconn, so that runs of two commits
    can be told apart without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "propconn").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, rundir: Path, start: float):
        self.workload, self.seed = workload, seed
        self.rundir, self.start = rundir, start
        self.count = 0

    def worker(self, *flags) -> dict:
        """Run one worker to completion and return its record."""
        self.count += 1
        workdir = self.rundir / f"w{self.count}"
        workdir.mkdir()
        result = self.rundir / f"w{self.count}.json"
        remaining = self.start + DEADLINE_S - time.perf_counter()
        if remaining <= 0:
            raise RunError("out of time before starting a worker")
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(workdir), "--result", str(result), *flags,
               "--t0", repr(time.perf_counter())]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunError(f"worker {flags} ran past the deadline") from None
        if proc.returncode != 0:
            raise RunError(f"worker {flags} exited with {proc.returncode}")
        return json.loads(result.read_text())


def _mismatches(reference: dict, record: dict) -> dict:
    return {label: "differs from the checked pass"
            for label, result in record["results"].items()
            if result != reference["results"][label]}


def run(args, rundir: Path, start: float):
    runner = Runner(args.workload, args.seed, rundir, start)
    passes = [runner.worker("--check")]
    failures = dict(passes[0]["failures"])
    if args.trace:
        traced = runner.worker("--trace")
        failures.update(_mismatches(passes[0], traced))
        passes.append(traced)
        spans = rundir / f"w{runner.count}.spans.jsonl"
        spans.replace(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        untraced, traced_wall = (sum(p["latencies"]) for p in passes)
        metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": traced_wall / untraced,
                                           "unit": "ratio"}
        setups = []
    else:
        while (len(passes) < passes[0]["rounds"]
               or sum(sum(p["latencies"]) for p in passes) < args.seconds):
            passes.append(runner.worker())
            failures.update(_mismatches(passes[0], passes[-1]))
        setups = [p["setup_s"] for p in passes]
        setups += [runner.worker("--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES)]
        best = [min(times) for times in zip(*(p["latencies"] for p in passes))]
        metrics = {
            "wall_s": {"value": sum(best), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(best),
                               "unit": "ms"},
            "latency_p90_ms": {
                "value": 1000 * statistics.quantiles(best, n=10)[8],
                "unit": "ms"},
            "peak_rss_mb": {"value": max(p["peak_rss_kb"] for p in passes) / 1024,
                            "unit": "MB"},
        }
    attempted = sum(len(p["results"]) for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": _git_sha(),
        "src_sha256": _src_sha256(), "passes": len(passes),
        "ops_per_pass": len(passes[0]["results"]), "attempted": attempted,
        "failed": len(failures), "failed_ratio": len(failures) / attempted,
        "failures": failures, "setup_samples": setups, "metrics": metrics,
    }
    timings = {label: {"scaled": scaled, "measured": measured}
               for label, scaled, measured in zip(
                   passes[0]["results"],
                   zip(*(p["latencies"] for p in passes)),
                   zip(*(p["measured"] for p in passes)))}
    return record, timings, {"correct": not failures, "attempted": attempted,
                             "failed": len(failures), "metrics": metrics}


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "propconn" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'propconn'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        record, timings, result = run(args, rundir, start)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    name = f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**record, "timings": timings},
                                       indent=1))
    for label, reason in sorted(record["failures"].items()):
        print(f"failed: {label}: {reason}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
