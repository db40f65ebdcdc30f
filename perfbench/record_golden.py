"""Record the golden outputs the benchmark checks against.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Runs each workload once on the golden seed, checks every output from first
principles (witness checks, value entry points, enumeration counts), and
only then writes perfbench/golden/<workload>.json.  Goldens pin the
package's answers; re-record them only when an answer is meant to change.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(name: str) -> int:
    out = workloads.HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        inputs = workloads.WORKLOADS[name].build(workloads.GOLDEN_SEED,
                                                 Path(tmp))
        results = {op.label: workloads.normalize(
                       op, *workloads.run_op(op, inputs))
                   for op in inputs.ops}
        failures = workloads.check_outputs(name, inputs, results, None)
    for label, reason in sorted(failures.items()):
        print(f"{name}: {label}: {reason}", file=sys.stderr)
    if failures:
        return 1
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    workloads.golden_path(name).write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{name}: wrote {len(results)} goldens")
    return 0


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    sys.exit(max(record(name) for name in names))
