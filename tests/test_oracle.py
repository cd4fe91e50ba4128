import random
from itertools import combinations

import pytest

from modcert.graph import Graph, is_regular, mask_of
from modcert.oracle import (
    brute_force_absorption,
    brute_force_alpha_omega,
    brute_force_max_regular,
)
from modcert.parity import two_modular_part
from modcert.traces import neighborhood_diversity
from modcert.witness import is_q_modular
from synth import path_pair_trace_problem, realize_problem

from conftest import complete, complete_bipartite, cycle, path, petersen, random_graph


class TestMaxRegular:
    def test_five_cycle(self):
        size, members = brute_force_max_regular(cycle(5))
        assert size == 5 and members == tuple(range(5))

    def test_path_three(self):
        # All eight subsets enumerated on the spot: the whole path is the
        # only irregular one of size > 2, so the best size is 2 and the
        # lexicographically smallest maximum witness is {0, 1}.
        g = path(3)
        by_size = {}
        for bits in range(8):
            members = tuple(v for v in range(3) if bits >> v & 1)
            if is_regular(g, members)[0] and members:
                by_size.setdefault(len(members), []).append(members)
        assert max(by_size) == 2
        assert min(by_size[2]) == (0, 1)
        assert brute_force_max_regular(g) == (2, (0, 1))

    def test_petersen(self):
        size, _ = brute_force_max_regular(petersen())
        assert size == 10

    def test_witness_is_regular(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_graph(rng.randrange(1, 12), 0.5, rng)
            size, members = brute_force_max_regular(g)
            regular, _ = is_regular(g, members)
            assert regular and len(members) == size

    def test_witness_is_lexicographically_smallest(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_graph(rng.randrange(1, 9), 0.5, rng)
            size, members = brute_force_max_regular(g)
            candidates = [
                combo
                for combo in combinations(range(g.n), size)
                if is_regular(g, combo)[0]
            ]
            assert members == min(candidates)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_max_regular(Graph.from_edges(25, []))


class TestAlphaOmega:
    def test_complete(self):
        assert brute_force_alpha_omega(complete(6)) == (1, 6)

    def test_five_cycle(self):
        assert brute_force_alpha_omega(cycle(5)) == (2, 2)

    def test_complete_bipartite(self):
        assert brute_force_alpha_omega(complete_bipartite(3, 5)) == (5, 2)

    def test_against_subset_enumeration(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randrange(1, 10)
            g = random_graph(n, 0.5, rng)
            alpha, omega = brute_force_alpha_omega(g)
            best_clique = 0
            best_independent = 0
            for bits in range(1, 1 << n):
                members = [v for v in range(n) if bits >> v & 1]
                pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
                if all(g.adj_masks[u] >> v & 1 for u, v in pairs):
                    best_clique = max(best_clique, len(members))
                if not any(g.adj_masks[u] >> v & 1 for u, v in pairs):
                    best_independent = max(best_independent, len(members))
            assert (alpha, omega) == (best_independent, best_clique)


class TestCalibration:
    def test_f_at_least_alpha_omega(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng.randrange(1, 13), rng.choice([0.2, 0.5, 0.8]), rng)
            f, _ = brute_force_max_regular(g)
            alpha, omega = brute_force_alpha_omega(g)
            assert f >= max(alpha, omega)

    def test_f_at_least_n_over_diversity(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(1, 13)
            g = random_graph(n, 0.5, rng)
            f, _ = brute_force_max_regular(g)
            assert f * neighborhood_diversity(g).t >= n

    def test_parity_part_is_two_modular_not_necessarily_regular(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_graph(rng.randrange(2, 14), 0.5, rng)
            part = two_modular_part(g)
            assert is_q_modular(g, part, 2).modular


class TestAbsorptionOracle:
    def test_defect_free_core(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0)
        exists, chosen = brute_force_absorption(problem)
        assert exists and chosen == ()

    def test_path_instance(self):
        problem = path_pair_trace_problem(2)
        exists, chosen = brute_force_absorption(problem)
        assert exists
        assert chosen == ((0, 1), (1, 2))

    def test_unsolvable_instance(self):
        problem = realize_problem(4, 2, [0b0011, 0b1100], 0b0001)
        exists, chosen = brute_force_absorption(problem)
        assert not exists and chosen is None

    def test_random_tuple_choice_is_immaterial(self):
        rng = random.Random(77)
        for masks, label in [
            ([0b0011, 0b0110, 0b1100], 0b0101),
            ([0b0011, 0b1100], 0b0001),
            ([0b001, 0b010], 0b011),
        ]:
            m = max(mask.bit_length() for mask in masks)
            problem = realize_problem(m, 2, masks, label)
            if problem is None:
                continue
            canonical, _ = brute_force_absorption(problem)
            for _ in range(4):
                randomized, _ = brute_force_absorption(problem, rng=rng)
                assert randomized == canonical

    def test_trace_count_cap(self):
        problem = path_pair_trace_problem(2)
        masks = problem.table.available_masks(2)
        assert len(masks) <= 20  # guard value used below stays realistic
        import modcert.oracle as oracle_module
        original = oracle_module.MAX_ORACLE_TRACES
        oracle_module.MAX_ORACLE_TRACES = 1
        try:
            with pytest.raises(ValueError):
                brute_force_absorption(problem)
        finally:
            oracle_module.MAX_ORACLE_TRACES = original


def test_max_regular_on_mask_subsets_matches_definition():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randrange(1, 9)
        g = random_graph(n, 0.4, rng)
        f, _ = brute_force_max_regular(g)
        best = 0
        for bits in range(1, 1 << n):
            members = [v for v in range(n) if bits >> v & 1]
            mask = mask_of(members)
            degrees = {(g.adj_masks[v] & mask).bit_count() for v in members}
            if len(degrees) == 1:
                best = max(best, len(members))
        assert f == best
