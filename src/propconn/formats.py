"""Graph ingestion and result serialization.

Edge-list documents: a header line ``n <count>`` followed by one ``u v``
line per edge; blank lines and lines starting with '#' are ignored, and
output always writes u < v.

graph6: one printable ASCII line per graph, order byte chr(n+63) for
n <= 62 followed by the upper-triangle adjacency bits in column-major
order, packed 6 bits per character and offset by 63.
"""

import csv
import json
from fractions import Fraction
from math import comb

from .graph import Graph, MAX_VERTICES

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
    bits_needed = comb(n, 2)
    chars_needed = -(-bits_needed // 6)
    if len(codes) - 1 < chars_needed:
        raise ValueError("truncated graph6 bit string")
    if len(codes) - 1 > chars_needed:
        raise ValueError("trailing characters after graph6 bit string")
    bits = []
    for c in codes[1:]:
        for shift in range(5, -1, -1):
            bits.append(c >> shift & 1)
    if any(bits[bits_needed:]):
        raise ValueError("nonzero padding in graph6 bit string")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_VERTICES:
        raise ValueError(f"graph6 encoding supports n <= {GRAPH6_MAX_VERTICES}")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.rows[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = (value << 1) | bit
        chars.append(chr(value + 63))
    return "".join(chars)


def fraction_str(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def witness_payload(witness) -> list:
    """JSON-friendly form of a disconnecting witness' elements."""
    if witness is None or not witness.feasible:
        return []
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
