import random
from itertools import product

import pytest

from modcert.errors import InternalInvariantError
from modcert.gf2 import BitVector, Solution
from modcert.graph import Graph, induced_degrees, mask_of
from modcert.parity import parity_partition, two_modular_part, verify_even_partition
from modcert.witness import is_q_modular

from conftest import complete, cycle, random_graph


def all_even_inside(g, part):
    mask = mask_of(part)
    return all((g.adj_masks[v] & mask).bit_count() % 2 == 0 for v in part)


class TestParityPartition:
    def test_all_even_graph_keeps_everything(self):
        part0, part1 = parity_partition(cycle(4))
        assert part0 == frozenset(range(4))
        assert part1 == frozenset()

    def test_single_edge_splits(self):
        part0, part1 = parity_partition(Graph.from_edges(2, [(0, 1)]))
        assert {len(part0), len(part1)} == {1}
        assert verify_even_partition(Graph.from_edges(2, [(0, 1)]), part0, part1)

    def test_path_checked_against_all_bipartitions(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        part0, part1 = parity_partition(g)
        valid = set()
        for assignment in product((0, 1), repeat=3):
            a = frozenset(v for v in range(3) if assignment[v] == 0)
            b = frozenset(range(3)) - a
            if all_even_inside(g, a) and all_even_inside(g, b):
                valid.add((a, b))
        assert (part0, part1) in valid

    def test_empty_graph(self):
        part0, part1 = parity_partition(Graph.from_edges(0, []))
        assert part0 == part1 == frozenset()

    def test_random_graphs_verified_and_large(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randrange(1, 40)
            g = random_graph(n, rng.choice([0.1, 0.5, 0.9]), rng)
            part0, part1 = parity_partition(g)
            assert verify_even_partition(g, part0, part1)
            assert max(len(part0), len(part1)) >= (n + 1) // 2

    def test_uneven_part_is_an_internal_error(self, monkeypatch):
        import modcert.parity

        # c = 0 puts every vertex in part0, where the path's ends have degree 1.
        monkeypatch.setattr(modcert.parity, "solve_or_dual",
                            lambda matrix, target: Solution(BitVector(matrix.cols)))
        with pytest.raises(InternalInvariantError, match="^parity partition failed verification$"):
            parity_partition(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_larger_part_is_two_modular(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng.randrange(2, 30), 0.4, rng)
            part = two_modular_part(g)
            assert is_q_modular(g, part, 2).modular


class TestVerifyEvenPartition:
    def test_opposite_pairs_of_square(self):
        g = cycle(4)
        assert verify_even_partition(g, {0, 2}, {1, 3})

    def test_single_edge_together_fails(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert not verify_even_partition(g, {0, 1}, set())

    def test_triangle_split_fails(self):
        assert not verify_even_partition(complete(3), {0}, {1, 2})

    def test_rejects_non_partition(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            verify_even_partition(g, {0, 1}, {1, 2, 3})
        with pytest.raises(ValueError):
            verify_even_partition(g, {0}, {1, 2})

    def test_asks_the_q_modularity_test_once_per_part_at_modulus_two(self, monkeypatch):
        import modcert.parity

        calls = []
        real = modcert.parity.is_q_modular

        def spy(graph, members, q):
            calls.append((members, q))
            return real(graph, members, q)

        monkeypatch.setattr(modcert.parity, "is_q_modular", spy)
        assert verify_even_partition(cycle(4), iter([0, 2]), iter([1, 3]))
        assert calls == [({0, 2}, 2), ({1, 3}, 2)]


def test_partition_solution_satisfies_system():
    # Re-multiply L c = d for a handful of seeded graphs.
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 24)
        g = random_graph(n, 0.5, rng)
        part0, part1 = parity_partition(g)
        for v in range(n):
            inside = part0 if v in part0 else part1
            degs = induced_degrees(g, inside)
            assert degs[v] % 2 == 0
