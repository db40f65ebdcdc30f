"""Graph ingestion and result serialization.

Edge-list documents: a header line ``n <count>`` followed by one ``u v``
line per edge; blank lines and lines starting with '#' are ignored, and
output always writes u < v.

graph6: one printable ASCII line per graph, order byte chr(n+63) for
n <= 62 followed by the graph's key (``graph.upper_triangle_key``, the
upper-triangle adjacency bits in column-major order) in base 64, 6 bits
per character offset by 63.
"""

import csv
import json
from fractions import Fraction
from math import comb

from .graph import Graph, MAX_VERTICES, graph_from_key, upper_triangle_key

GRAPH6_MAX_VERTICES = 62


def parse_edge_list(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count must be an integer") from None
            if not 0 <= n <= MAX_VERTICES:
                raise ValueError(f"line {lineno}: vertex count must be in [0, {MAX_VERTICES}]")
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints must be integers") from None
        edges.append((u, v))
    if n is None:
        raise ValueError("missing header 'n <count>'")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"bad edge list: {exc}") from None


def serialize_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph6(line: str) -> Graph:
    text = line.strip()
    if not text:
        raise ValueError("empty graph6 string")
    codes = [ord(c) - 63 for c in text]
    if any(not 0 <= c <= 63 for c in codes):
        raise ValueError(f"invalid graph6 character in {text!r}")
    n = codes[0]
    if n == 63:
        raise ValueError("multi-byte graph6 orders (n > 62) are not supported")
    bits = comb(n, 2)
    chars = -(-bits // 6)
    if len(codes) - 1 < chars:
        raise ValueError("truncated graph6 bit string")
    if len(codes) - 1 > chars:
        raise ValueError("trailing characters after graph6 bit string")
    key = 0
    for c in codes[1:]:
        key = key << 6 | c
    pad = 6 * chars - bits
    if key & (1 << pad) - 1:
        raise ValueError("nonzero padding in graph6 bit string")
    return graph_from_key(n, key >> pad)


def encode_graph6(g: Graph) -> str:
    """The order byte, then g's ``upper_triangle_key`` in base 64, padded
    with 0 bits to whole 6-bit characters, most significant first."""
    if g.n > GRAPH6_MAX_VERTICES:
        raise ValueError(f"graph6 encoding supports n <= {GRAPH6_MAX_VERTICES}")
    bits = comb(g.n, 2)
    chars = -(-bits // 6)
    key = upper_triangle_key(g) << 6 * chars - bits
    return chr(g.n + 63) + "".join([chr((key >> 6 * k & 63) + 63)
                                    for k in range(chars - 1, -1, -1)])


def fraction_str(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def witness_payload(witness) -> list:
    """JSON-friendly form of a disconnecting witness' elements."""
    if witness.kind == "vertex":
        return sorted(witness.elements)
    return [list(pair) for pair in sorted(witness.elements)]


def build_report(command: str, inputs: dict, value, witness=None,
                 method: str | None = None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "value": value,
        "witness": witness,
        "method": method,
        "discrepancies": [],
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False)


SCAN_FIELDS = ["n", "m", "r", "stat", "value", "method", "witness_graph6"]


def write_scan_csv(handle, rows) -> None:
    writer = csv.DictWriter(handle, fieldnames=SCAN_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
