"""Workload definitions: seeded inputs, the operations run on them, and the
correctness checks applied to their outputs.

Every workload drives the package through its public entry points only
(``propconn.cli.main`` and public module functions).  Compute inputs are
stratified: each (n, p, r) cell of the grid gets a fixed number of G(n, p)
draws, so the seed changes which graphs are drawn but not how much of each
kind of work a run holds.  That keeps run-to-run spread low across seeds.
The sizes keep every run well under a minute on a 2-vCPU machine.
"""

import contextlib
import io
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from propconn import (DisconnectingWitness, Graph, Threshold, bounds, cli,
                      copec_value, copvc_value, enumeration, verify_witness)

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
# Goldens for the compute workloads are recorded for this seed only; on
# other seeds the value entry points stand in for them.  family-n7 does not
# depend on the seed, so its goldens hold on every seed.
GOLDEN_SEED = 1

R_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


@dataclass(frozen=True)
class Op:
    """One timed operation: a ``cli.main`` call (``argv``) or a direct
    ``bounds.max_bipartite_subgraph`` call on input graph ``graph``."""

    label: str
    argv: tuple = ()
    graph: int = -1
    out: str | None = None      # file a scan writes; read back for checking


@dataclass
class Inputs:
    graphs: list            # (Graph, r) pairs, indexed by Op.graph
    ops: list


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                # one line: what the workload stresses
    build: Callable[[int, Path], Inputs]
    # Cold passes per run; each op's time is its fastest.  One suffices
    # where the ops are many and alike; family-n7 has 29 ops whose median
    # sits among cache-hit calls of about 2 ms, too few and too short to
    # be steady from one pass.
    rounds: int = 1


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _write_edge_list(path: Path, g: Graph) -> None:
    lines = [f"n {g.n}"] + [f"{u} {v}" for u, v in g.edges()]
    path.write_text("\n".join(lines) + "\n")


def _ratio(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def _grid(n, densities, count):
    """``count`` draws in every (p, r) cell of the grid, at order n."""
    return [(n, p, r) for p in densities for r in R_GRID] * count


def _diagonal(n, densities):
    """One draw per density, each at a different r (a Latin-square slice of
    the grid): the heaviest orders get every p and every r once without
    paying for all nine cells."""
    return [(n, p, R_GRID[(i + 1) % len(R_GRID)])
            for i, p in enumerate(densities)]


def _draw(name, seed, workdir, cells):
    """One seeded G(n, p) draw per cell, in seeded order, each written to
    ``workdir/g<index>.el``.  Returns the generator (for further seeded
    choices), the cells in draw order and the (graph, r) pairs."""
    rng = random.Random(f"{name}/{seed}")
    cells = list(cells)
    rng.shuffle(cells)
    graphs = []
    for i, (n, p, r) in enumerate(cells):
        g = _gnp(rng, n, p)
        _write_edge_list(workdir / f"g{i:03d}.el", g)
        graphs.append((g, r))
    return rng, cells, graphs


def _compute_argv(workdir, i, r, mode):
    return ("compute", "--graph", str(workdir / f"g{i:03d}.el"),
            "--r", _ratio(r), "--mode", mode)


def build_compute_vertex(seed: int, workdir: Path) -> Inputs:
    # 60 graphs, 120 operations.  Most draws are at n = 14 and 15, where
    # one search takes 3-700 ms; n = 16 and 17 searches take up to 4 s
    # each, so they get one diagonal of the grid each.
    densities = (0.3, 0.6, 0.9)
    _, _, graphs = _draw("compute-vertex", seed, workdir,
                         _grid(14, densities, 4) + _grid(15, densities, 2)
                         + _diagonal(16, densities) + _diagonal(17, densities))
    ops = []
    for i, (_, r) in enumerate(graphs):
        ops.append(Op(f"g{i:03d}/compute", graph=i, argv=(
            *_compute_argv(workdir, i, r, "vertex"), "--witness")))
        ops.append(Op(f"g{i:03d}/max_cut", graph=i))
    return Inputs(graphs, ops)


def build_compute_edge(seed: int, workdir: Path) -> Inputs:
    # 102 calls: one costs 0.02-0.3 s at n = 10, up to 0.8 s at n = 11 and
    # up to 2.8 s at n = 12, hence the weights.  The slowest tenth, which
    # sets latency_p90_ms, is mostly n = 11 calls, so they come four per
    # cell to keep that percentile steady from seed to seed.
    densities = (0.2, 0.5, 0.8)
    rng, cells, graphs = _draw("compute-edge", seed, workdir,
                               _grid(10, densities, 7) + _grid(11, densities, 4)
                               + _diagonal(12, densities))
    # A quarter of the calls omit --witness: two per n = 10 cell and one per
    # n = 11 cell, chosen by the seed, so the seed does not move the mix.
    groups = {}
    for i, cell in enumerate(cells):
        groups.setdefault(cell, []).append(i)
    value_only = set()
    for (n, _, _), members in groups.items():
        value_only.update(rng.sample(members, {10: 2, 11: 1}.get(n, 0)))
    ops = []
    for i, (_, r) in enumerate(graphs):
        argv = _compute_argv(workdir, i, r, "edge")
        if i not in value_only:
            argv += ("--witness",)
        ops.append(Op(f"g{i:03d}/compute", argv=argv, graph=i))
    return Inputs(graphs, ops)


def build_family_n7(seed: int, workdir: Path) -> Inputs:
    # The sweep is fixed; the seed is recorded but changes nothing, so the
    # scan and verdict goldens hold on every seed.
    ops = []
    for r in ("1/3", "1/2", "2/3"):
        for stat in ("covmin", "coemin", "covmax", "coemax"):
            label = f"scan/n7/{stat}/{r}"
            out = str(workdir / f"scan-{stat}-{r.replace('/', '-')}.csv")
            ops.append(Op(label, argv=(
                "scan", "--n", "7", "--r", r, "--stat", stat, "--all-m",
                "--out", out, "--enumerate", "--witness"), out=out))
    for label, extra in (
            ("equal-partition/k2", ("--name", "equal-partition", "--k", "2")),
            ("equal-partition/k3", ("--name", "equal-partition", "--k", "3")),
            ("coemax-bound", ("--name", "coemax-bound"))):
        ops.append(Op(f"conjecture/n6/{label}",
                      argv=("conjecture", *extra, "--n", "6", "--all-m")))
    for m in range(7):
        for name in ("equal-partition", "coemax-bound"):
            ops.append(Op(f"conjecture/n8/{name}/m{m}", argv=(
                "conjecture", "--name", name, "--n", "8", "--m", str(m))))
    return Inputs([], ops)


WORKLOADS = {w.name: w for w in (
    Workload("compute-vertex",
             "vertex search and component_masks do almost all the work; "
             "max-cut gets its only real load; edge DP and enumeration idle",
             build_compute_vertex),
    Workload("compute-edge",
             "subset DP and witness loop dominate, sparse draws are often "
             "disconnected, and a quarter of calls skip --witness",
             build_compute_edge),
    Workload("family-n7",
             "canonical search is about 80% of the time, G(8) sparse levels "
             "are its worst case; thousands of small value-only solves",
             build_family_n7, rounds=2),
)}


def run_op(op: Op, inputs: Inputs):
    """Execute one operation; return (exit code, raw output).  Only this
    call sits inside the timed region."""
    if op.argv:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
        return code, buf.getvalue()
    return 0, bounds.max_bipartite_subgraph(inputs.graphs[op.graph][0])


def normalize(op: Op, code: int, raw) -> dict:
    """JSON-comparable form of an operation's result, as goldens store it."""
    if not op.argv:
        return {"code": code, "part_a": list(raw.partition[0]),
                "crossing": raw.crossing_edges}
    if op.out is not None:
        return {"code": code, "csv": Path(op.out).read_text()}
    report = json.loads(raw) if raw.strip() else None
    if op.argv[0] == "compute":
        report = report or {}
        return {"code": code, "value": report.get("value"),
                "witness": report.get("witness")}
    return {"code": code, "report": report}


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def golden_for(workload: str, seed: int):
    """The goldens that apply to this run, or None where the value entry
    points stand in for them."""
    if workload != "family-n7" and seed != GOLDEN_SEED:
        return None
    return json.loads(golden_path(workload).read_text())


def _check_compute(op, result, g, r, golden):
    """Failure reason for a compute result, or None."""
    if result["code"] != cli.EXIT_OK:
        return f"exit code {result['code']}"
    mode = op.argv[op.argv.index("--mode") + 1]
    value, witness = result["value"], result["witness"]
    if witness is not None:
        elements = (tuple(witness) if mode == "vertex"
                    else tuple(tuple(pair) for pair in witness))
        if len(elements) != value:
            return f"witness size {len(elements)} != value {value}"
        if not verify_witness(g, r, DisconnectingWitness(mode, elements, value)):
            return "witness does not leave a failure state"
    if golden is not None:
        if golden.get(op.label) != result:
            return f"differs from golden {golden.get(op.label)}"
        return None
    tau = Threshold.for_order(r, g.n).tau
    expected = copvc_value(g, tau) if mode == "vertex" else copec_value(g, tau)
    if expected != value:
        return f"value {value} != value entry point {expected}"
    return None


def _check_max_cut(op, result, g, golden):
    part_a = set(result["part_a"])
    if 0 not in part_a or not part_a <= set(range(g.n)):
        return f"bad part {sorted(part_a)}"
    crossing = sum(1 for u, v in g.edges() if (u in part_a) != (v in part_a))
    if crossing != result["crossing"]:
        return f"reported {result['crossing']} crossing edges, counted {crossing}"
    lower = [bounds.edwards_bound(g.m), *bounds.egk_bounds(g)]
    if any(b is not None and crossing < b for b in lower):
        return f"crossing {crossing} below a proven lower bound {lower}"
    if golden is not None and golden.get(op.label) != result:
        return f"differs from golden {golden.get(op.label)}"
    return None


def check_outputs(workload: str, inputs: Inputs, results: dict,
                  golden) -> dict:
    """Map each failed op label to its reason.

    Compute results must pass ``verify_witness`` and match the golden value
    and lex-first witness, or, without goldens, the value entry point.
    Max-cut results must be a bipartition crossing the reported number of
    edges, no fewer than the proven lower bounds.  Scan CSVs and conjecture
    verdicts must match their goldens, and a non-zero exit code (3 for a
    settled formula that disagrees with enumeration) fails the op.
    """
    failures = {}
    for op in inputs.ops:
        result = results[op.label]
        if "error" in result:
            reason = result["error"]
        elif op.argv and op.argv[0] == "compute":
            g, r = inputs.graphs[op.graph]
            reason = _check_compute(op, result, g, r, golden)
        elif not op.argv:
            reason = _check_max_cut(op, result, inputs.graphs[op.graph][0],
                                    golden)
        elif result["code"] != cli.EXIT_OK:
            reason = f"exit code {result['code']}"
        elif golden is not None and golden.get(op.label) != result:
            reason = "differs from golden"
        else:
            reason = None
        if reason is not None:
            failures[op.label] = reason
    if workload == "family-n7":
        failures.update(check_enumeration())
    return failures


# Classes of G(8, m) for m = 0..6 (OEIS A008406, row 8).
_G8_SPARSE_CLASSES = (1, 1, 2, 5, 11, 24, 56)


def check_enumeration() -> dict:
    """Per-m class counts of G(7, .) against the graph atlas shipped inside
    networkx, an enumeration independent of this package, and the sparse
    levels of G(8, .) against their known counts."""
    failures = {}
    try:
        from networkx.generators.atlas import graph_atlas_g
    except ImportError:
        return {"enumeration/atlas": "networkx is not installed"}
    atlas = [0] * 22
    for h in graph_atlas_g():
        if h.number_of_nodes() == 7:
            atlas[h.number_of_edges()] += 1
    ours = [enumeration.count_classes(7, m) for m in range(22)]
    if ours != atlas:
        failures["enumeration/g7"] = f"counts {ours} != atlas {atlas}"
    ours8 = tuple(enumeration.count_classes(8, m) for m in range(7))
    if ours8 != _G8_SPARSE_CLASSES:
        failures["enumeration/g8"] = f"counts {ours8} != {_G8_SPARSE_CLASSES}"
    return failures
