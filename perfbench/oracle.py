"""Reachability oracles that do not use the program.

* :class:`BitsetOracle` — the full transitive closure as one Python
  int bitset per node (sparse-paper and the served graphs).
* :class:`ScaleOracle` — for the width-3 scale family: a higher id
  never reaches a lower one, and ``s`` reaches ``t`` exactly when the
  lowest id ``s`` reaches on ``t``'s backbone chain is at most ``t``
  (the backbone ``v → v+3`` then carries it to ``t``).  A sample of
  forward pairs is cross-checked against plain BFS when it is built.
* :func:`check_cover` — every chain of a cover checked against an
  oracle, plus the partition of the nodes.
* :func:`closure_width` — the width by networkx Hopcroft–Karp over the
  oracle's closure (Dilworth: width = n − maximum matching).

Run as a script to recompute the stored sparse-paper width::

    python3 perfbench/oracle.py width
"""

from __future__ import annotations

import json
import random
import sys
from collections import deque
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.inputs import SCALE_WIDTH, Graph  # noqa: E402

WIDTH_FILE = Path(__file__).resolve().parent / "data" / "sparse_width.json"


class CheckFailed(Exception):
    """A program output disagreed with the oracle."""


class BitsetOracle:
    """Transitive closure of a DAG, one int bitset per node."""

    def __init__(self, graph: Graph) -> None:
        reach = [0] * graph.num_nodes
        succ = graph.succ
        for v in reversed(graph.order):
            bits = 1 << v
            for w in succ[v]:
                bits |= reach[w]
            reach[v] = bits
        self.reach = reach

    def reaches(self, source: int, target: int) -> bool:
        return (self.reach[source] >> target) & 1 == 1

    def answers(self, pairs) -> list[bool]:
        reach = self.reach
        return [(reach[s] >> t) & 1 == 1 for s, t in pairs]


class ScaleOracle:
    """Exact reachability on the width-3 forward family."""

    def __init__(self, graph: Graph, bfs_samples: int = 24,
                 seed: int = 0) -> None:
        n = graph.num_nodes
        inf = n
        first = [[inf] * n for _ in range(SCALE_WIDTH)]
        f0, f1, f2 = first
        succ = graph.succ
        for v in range(n - 1, -1, -1):
            a = b = c = inf
            for w in succ[v]:
                if f0[w] < a:
                    a = f0[w]
                if f1[w] < b:
                    b = f1[w]
                if f2[w] < c:
                    c = f2[w]
            chain = v % SCALE_WIDTH
            if chain == 0:
                a = v
            elif chain == 1:
                b = v
            else:
                c = v
            f0[v], f1[v], f2[v] = a, b, c
        self.first = first
        self._cross_check(graph, bfs_samples, seed)

    def reaches(self, source: int, target: int) -> bool:
        if source >= target:
            return source == target
        return self.first[target % SCALE_WIDTH][source] <= target

    def answers(self, pairs) -> list[bool]:
        first = self.first
        return [s == t if s >= t else first[t % SCALE_WIDTH][s] <= t
                for s, t in pairs]

    def _cross_check(self, graph: Graph, samples: int, seed: int) -> None:
        rng = random.Random(seed)
        n = graph.num_nodes
        for _ in range(samples):
            source = rng.randrange(n - 1)
            target = min(n - 1, source + rng.randrange(1, 4 * 900))
            if bfs_reaches(graph, source, target) != \
                    self.reaches(source, target):
                raise CheckFailed(
                    f"scale oracle disagrees with BFS on "
                    f"({source}, {target})")


def bfs_reaches(graph: Graph, source: int, target: int) -> bool:
    """Plain BFS; on forward graphs only ids up to ``target`` matter."""
    if source == target:
        return True
    seen = {source}
    queue = deque([source])
    succ = graph.succ
    forward = graph.order[0] == 0
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w == target:
                return True
            if w in seen or (forward and w > target):
                continue
            seen.add(w)
            queue.append(w)
    return False


def check_answers(what: str, pairs, expected: list, got) -> None:
    """Raise :class:`CheckFailed` naming the first wrong answer."""
    got = list(got)
    if len(got) != len(expected):
        raise CheckFailed(f"{what}: {len(got)} answers for "
                          f"{len(expected)} pairs")
    if got != expected:
        for pair, want, have in zip(pairs, expected, got):
            if want != have:
                raise CheckFailed(f"{what}: {pair} answered {have}, "
                                  f"oracle says {want}")


def check_cover(chains, num_nodes: int, oracle) -> int:
    """Check that ``chains`` partition the nodes into oracle chains.

    ``chains`` lists each chain top first, as lists of SCC member
    lists (the shape ``ChainIndex.chains()`` returns).  Returns the
    chain count; raises :class:`CheckFailed` on an invalid cover.
    """
    seen = bytearray(num_nodes)
    for number, chain in enumerate(chains):
        previous = None
        for members in chain:
            if len(members) != 1:
                raise CheckFailed(f"chain {number}: a DAG node came back "
                                  f"as component {members}")
            node = members[0]
            if not 0 <= node < num_nodes or seen[node]:
                raise CheckFailed(f"chain {number}: node {node} unknown "
                                  f"or covered twice")
            seen[node] = 1
            if previous is not None and not oracle.reaches(previous, node):
                raise CheckFailed(f"chain {number}: {previous} does not "
                                  f"reach {node}")
            previous = node
    if sum(seen) != num_nodes:
        raise CheckFailed(f"cover misses {num_nodes - sum(seen)} nodes")
    return len(chains)


def closure_width(graph: Graph, oracle: BitsetOracle) -> int:
    """Width of the DAG by Dilworth: n − maximum matching on the closure."""
    import networkx as nx
    from networkx.algorithms.bipartite import hopcroft_karp_matching

    n = graph.num_nodes
    bipartite = nx.Graph()
    left = [("out", v) for v in range(n)]
    bipartite.add_nodes_from(left)
    bipartite.add_nodes_from(("in", v) for v in range(n))
    for v in range(n):
        bits = oracle.reach[v] & ~(1 << v)
        while bits:
            low = bits & -bits
            bipartite.add_edge(("out", v), ("in", low.bit_length() - 1))
            bits ^= low
    matching = hopcroft_karp_matching(bipartite, top_nodes=left)
    return n - len(matching) // 2


def stored_sparse_width() -> int:
    return json.loads(WIDTH_FILE.read_text(encoding="utf-8"))["width"]


def source_antichain(graph: Graph) -> int:
    """Count of nodes with no in-arc: an antichain, so a width lower bound."""
    cited = bytearray(graph.num_nodes)
    for heads in graph.succ:
        for head in heads:
            cited[head] = 1
    return graph.num_nodes - sum(cited)


def main(argv: list[str]) -> int:
    if argv[:1] != ["width"]:
        print("usage: python3 perfbench/oracle.py width", file=sys.stderr)
        return 2
    from perfbench.inputs import (SPARSE_ARCS, SPARSE_GRAPH_SEED,
                                  SPARSE_NODES, sparse_paper_graph)
    graph = sparse_paper_graph()
    width = closure_width(graph, BitsetOracle(graph))
    record = {"graph": "sparse-paper", "seed": SPARSE_GRAPH_SEED,
              "nodes": SPARSE_NODES, "arcs": SPARSE_ARCS,
              "dag_nodes": graph.num_nodes, "width": width,
              "command": "python3 perfbench/oracle.py width"}
    print(json.dumps(record))
    stored = stored_sparse_width() if WIDTH_FILE.exists() else None
    if stored is not None and stored != width:
        print(f"stored width {stored} differs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
