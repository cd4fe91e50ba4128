"""Differential tests: the trace table against the frozen reference copy.

``_reference_traces`` maps each tail vertex's core neighborhood to core
positions on its own; ``compute_traces`` groups the tail by neighborhood and
keeps each as a vertex-id mask.  Once the reference's masks are mapped from
positions to ids, the tables must be equal with their entries in the same
order (first realizer first), on random graphs, on twin blow-ups where many
tail vertices share a trace, and on cores that some tail vertices miss
entirely or see whole.
"""

import random

import pytest

import _reference_traces as ref
from modcert.graph import Graph, mask_of
from modcert.traces import compute_traces

from conftest import edges_of, random_graph


def assert_same_table(graph: Graph, core, tail) -> None:
    got = compute_traces(graph, core, tail)
    want = ref.compute_traces(graph, core, tail)
    assert got.core == want.core
    by_ids = [
        (mask_of(v for i, v in enumerate(want.core) if mask >> i & 1), realizers)
        for mask, realizers in want.entries.items()
    ]
    assert list(got.entries.items()) == by_ids


def random_split(n: int, rnd: random.Random) -> tuple[list[int], list[int]]:
    """A nonempty core and a disjoint tail, scattered over the vertex ids."""
    ids = list(range(n))
    rnd.shuffle(ids)
    cut = rnd.randint(1, n)
    core = ids[:cut]
    tail = [v for v in ids[cut:] if rnd.random() < 0.9]
    return core, tail


def twin_blowup(base: Graph, copies: int) -> Graph:
    """Each base vertex b becomes independent twins b * copies + i."""
    edges = [
        (u * copies + i, v * copies + j)
        for u, v in edges_of(base)
        for i in range(copies)
        for j in range(copies)
    ]
    return Graph.from_edges(base.n * copies, edges)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
def test_random_graphs(p):
    rnd = random.Random(f"traces-gnp-{p}")
    for n in list(range(1, 13)) + [30, 64, 120]:
        graph = random_graph(n, p, rnd)
        for _ in range(4):
            assert_same_table(graph, *random_split(n, rnd))


@pytest.mark.parametrize("copies", [2, 3, 5])
def test_twin_blowups(copies):
    rnd = random.Random(f"traces-twins-{copies}")
    for base_n, p in ((8, 0.4), (40, 0.1), (60, 0.3)):
        graph = twin_blowup(random_graph(base_n, p, rnd), copies)
        # Representatives as the core, as in the certificate benchmark, and
        # a random split that puts some twins on each side.
        reps = sorted(copies * b for b in rnd.sample(range(base_n), base_n // 3 or 1))
        rest = sorted(set(range(graph.n)) - set(reps))
        assert_same_table(graph, reps, rest)
        assert_same_table(graph, *random_split(graph.n, rnd))


def test_empty_and_full_traces():
    rnd = random.Random("traces-empty-full")
    for c in (1, 2, 7, 70):
        core = list(range(c))
        # Tail ids c..: a block that misses the core, one that sees all of it,
        # then vertices with random traces, interleaved by id.
        kinds = [rnd.choice(("empty", "full", "random")) for _ in range(3 * c + 6)]
        kinds[:3] = ["random", "empty", "full"]
        edges = []
        for offset, kind in enumerate(kinds):
            x = c + offset
            if kind == "full":
                edges += [(x, u) for u in core]
            elif kind == "random":
                edges += [(x, u) for u in core if rnd.random() < 0.5]
        n = c + len(kinds)
        # Edges inside the tail leave every trace as it is.
        edges += [(u, v) for u in range(c, n) for v in range(u + 1, n) if rnd.random() < 0.2]
        graph = Graph.from_edges(n, edges)
        tail = list(range(c, n))
        table = compute_traces(graph, core, tail)
        assert 0 in table.entries and (1 << c) - 1 in table.entries
        assert_same_table(graph, core, tail)
        assert_same_table(graph, core, [])


def test_empty_tail_and_disjointness():
    graph = random_graph(10, 0.5, random.Random(7))
    assert_same_table(graph, [3], [])
    with pytest.raises(ValueError):
        compute_traces(graph, [1, 2], [2, 3])
