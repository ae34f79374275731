"""Seeded inputs: the three graph families and the query streams.

The generators live here rather than in ``repro.graph.generators`` so
that a change to the program cannot change what is measured.  Every
graph is a DAG over the dense int labels ``0..n-1``, held as plain
successor lists (``succ[v]`` lists the heads of ``v``'s out-arcs).

* ``sparse_graph`` — the paper's Group-I family: a random digraph with
  its strongly connected components collapsed.  ``sparse_paper_graph``
  is the 3,000-node, 3,600-arc member (2,752 DAG nodes); its seed is
  fixed, not taken from ``--seed``: the stratified cover of this one
  graph is known to be wider than the graph's width, and a fault
  counted as a failed operation must show on every run (see
  ``README.md``).
* ``scale_graph`` — three backbone chains ``v → v+3`` plus random
  forward links spanning at most 900 ids; width exactly 3 because no
  link joins two of the nodes 0, 1 and 2.
* ``citation_graph`` — each paper cites up to three earlier ones,
  chosen by preferential attachment; arcs point from the citing paper
  to the cited one, so a higher id may reach a lower one, never the
  reverse.

Served queries draw their endpoints with :class:`ZipfNodes`, the law
the program's workload zoo documents for serving traffic
(``docs/WORKLOADS.md``): id ``r`` has weight ``(r + 1) ** -s``, with
the zoo's exponent for the family: ``s = 1.2`` for citation graphs,
``s = 1.1`` for the sparse family.  In-process batches stay uniform.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

#: seed of the fixed sparse-paper graph (the paper's Group-I family)
SPARSE_GRAPH_SEED = 3
SPARSE_NODES = 3000
SPARSE_ARCS = 3600

SCALE_WIDTH = 3
SCALE_SPAN = 900

CITATIONS_PER_NODE = 3
#: seed of the fixed citation graph scale-coldstart serves: its
#: stratified build time moves with the graph more than with the host
CITATION_GRAPH_SEED = 1

#: Zipf exponents of the served endpoints (the workload zoo's citation
#: and sparse families)
CITATION_ZIPF_S = 1.2
DEFAULT_ZIPF_S = 1.1


@dataclass
class Graph:
    """A DAG over dense int labels, as successor lists."""

    succ: list[list[int]]
    #: a topological order (every arc goes from earlier to later)
    order: list[int]

    @property
    def num_nodes(self) -> int:
        return len(self.succ)

    @property
    def num_arcs(self) -> int:
        return sum(len(heads) for heads in self.succ)

    def arcs(self):
        for tail, heads in enumerate(self.succ):
            for head in heads:
                yield tail, head


def _strong_components(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topo order."""
    n = len(succ)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            heads = succ[v]
            if i < len(heads):
                work[-1] = (v, i + 1)
                w = heads[i]
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def sparse_paper_graph() -> Graph:
    """The fixed Group-I graph: 3,000 nodes, 3,600 arcs, SCCs collapsed."""
    return sparse_graph(SPARSE_NODES, SPARSE_ARCS, SPARSE_GRAPH_SEED)


def sparse_graph(num_nodes: int, num_arcs: int, seed: int) -> Graph:
    """A Group-I graph: random digraph, SCCs collapsed.

    Components are numbered in topological order, so the DAG's ids
    are a topological order too.
    """
    rng = random.Random(seed)
    n = num_nodes
    succ: list[list[int]] = [[] for _ in range(n)]
    seen: set[int] = set()
    added = 0
    while added < num_arcs:
        tail = rng.randrange(n)
        head = rng.randrange(n)
        key = tail * n + head
        if tail == head or key in seen:
            continue
        seen.add(key)
        succ[tail].append(head)
        added += 1
    components = _strong_components(succ)
    components.reverse()                       # topological order
    component_of = [0] * n
    for cid, members in enumerate(components):
        for v in members:
            component_of[v] = cid
    dag: list[list[int]] = [[] for _ in components]
    dag_seen: set[int] = set()
    k = len(components)
    for tail in range(n):
        ct = component_of[tail]
        for head in succ[tail]:
            ch = component_of[head]
            key = ct * k + ch
            if ct != ch and key not in dag_seen:
                dag_seen.add(key)
                dag[ct].append(ch)
    return Graph(dag, list(range(k)))


def scale_graph(num_nodes: int, seed: int) -> Graph:
    """Width-3 forward DAG: backbone chains plus ≈1 random link per node."""
    rng = random.Random(seed)
    n = num_nodes
    width = SCALE_WIDTH
    succ: list[list[int]] = [[] for _ in range(n)]
    for v in range(n - width):
        succ[v].append(v + width)
    seen: set[int] = set()
    extra = n                      # ≈ 2 arcs per node with the backbone
    added = 0
    while added < extra:
        tail = rng.randrange(n - 1)
        head = tail + rng.randrange(1, SCALE_SPAN + 1)
        # head < width keeps {0, 1, 2} an antichain: width stays 3
        if head >= n or head - tail == width or head < width:
            continue
        key = tail * n + head
        if key in seen:
            continue
        seen.add(key)
        succ[tail].append(head)
        added += 1
    return Graph(succ, list(range(n)))


def citation_graph(num_nodes: int, seed: int) -> Graph:
    """Preferential-attachment citation DAG (arcs citing → cited)."""
    rng = random.Random(seed)
    succ: list[list[int]] = [[]]
    urn = [0]
    for paper in range(1, num_nodes):
        wanted = min(CITATIONS_PER_NODE, paper)
        cited: list[int] = []
        attempts = 0
        while len(cited) < wanted and attempts < 20 * wanted:
            attempts += 1
            pick = rng.choice(urn)
            if pick not in cited:
                cited.append(pick)
        succ.append(cited)
        urn.extend(cited)
        urn.append(paper)
    return Graph(succ, list(range(num_nodes - 1, -1, -1)))


def write_edge_list(graph: Graph, path) -> None:
    """Write ``graph`` in the program's documented edge-list format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n {graph.num_nodes}\n")
        handle.writelines(f"{tail} {head}\n" for tail, head in graph.arcs())


def uniform_pairs(rng: random.Random, n: int, count: int) -> list[tuple]:
    """``count`` source/target pairs drawn uniformly from ``0..n-1``."""
    randrange = rng.randrange
    return [(randrange(n), randrange(n)) for _ in range(count)]



class ZipfNodes:
    """Node ids drawn Zipf(s)-skewed over the id order: id ``r`` has
    weight ``(r + 1) ** -s``."""

    def __init__(self, num_nodes: int, s: float) -> None:
        self.cumulative = list(accumulate((rank + 1) ** -s
                                          for rank in range(num_nodes)))

    def pairs(self, rng: random.Random, count: int) -> list[tuple]:
        """``count`` source/target pairs, both ends Zipf-skewed."""
        cumulative = self.cumulative
        total = cumulative[-1]
        draw = rng.random
        return [(bisect_left(cumulative, draw() * total),
                 bisect_left(cumulative, draw() * total))
                for _ in range(count)]
