import random

import pytest

from modcert.absorb import AbsorptionProblem
from modcert.graph import Graph, bits_of
from modcert.witness import ModularWitness


def edges_of(graph: Graph) -> list[tuple[int, int]]:
    """The edges as ``(u, v)`` with u < v, in order, read off the adjacency masks."""
    return [(u, v) for u, mask in enumerate(graph.adj_masks) for v in bits_of(mask) if u < v]


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def relabeled(problem: AbsorptionProblem, rnd: random.Random) -> AbsorptionProblem:
    """The same problem on a copy of its graph with shuffled vertex ids.

    Every vertex keeps its name, so the copy's core ids are scattered and
    differ from their positions in the sorted core.
    """
    graph = problem.graph
    new_id = list(range(graph.n))
    rnd.shuffle(new_id)
    names = [""] * graph.n
    for v in range(graph.n):
        names[new_id[v]] = graph.name_of(v)
    copy = Graph.from_edges(graph.n, [(new_id[u], new_id[v]) for u, v in edges_of(graph)], names=names)
    witness = ModularWitness.build(copy, [new_id[v] for v in problem.witness.members], problem.q)
    return AbsorptionProblem.build(witness, [new_id[v] for v in problem.core])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
