import random

import pytest

import modcert.traces as traces_module
from modcert.errors import InternalInvariantError
from modcert.gf2 import BitVector, rank
from modcert.graph import Graph
from modcert.traces import (
    TraceTable,
    complement_difference,
    compute_traces,
    neighborhood_diversity,
    next_bit_obstruction,
    oriented_orbit_form,
    pair_trace_graph,
    tail_degrees,
)
from modcert.witness import quotient_matrix

from conftest import complete, complete_bipartite, cycle, path, petersen, random_graph


def cancelling_pair_graph():
    """Core 1..4 with two tail vertices of complementary traces {1} and {2,3,4}.

    The tail counts come out constant, so every defined next-bit class is
    zero even though the complement orbit has total multiplicity 2.
    """
    names = ["1", "2", "3", "4", "x", "y"]
    edges = [(4, 0), (5, 1), (5, 2), (5, 3)]
    return Graph.from_edges(6, edges, names=names)


class TestComputeTraces:
    def test_empty_tail(self):
        table = compute_traces(cycle(4), range(4), set())
        assert table.entries == {}
        assert table.tail_size() == 0

    def test_cancelling_pair(self):
        g = cancelling_pair_graph()
        table = compute_traces(g, range(4), {4, 5})
        assert table.entries == {0b0001: (4,), 0b1110: (5,)}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            compute_traces(cycle(4), {0, 1}, {1, 2})

    def test_against_naive_neighbor_intersection(self):
        rng = random.Random(42)
        for _ in range(30):
            g = random_graph(10, 0.5, rng)
            core = {0, 2, 5, 7}
            tail = {1, 3, 4, 6, 8, 9}
            table = compute_traces(g, core, tail)
            for x in tail:
                expected = {u for u in core if g.adj_masks[x] >> u & 1}
                mask = sum(1 << u for u in expected)
                assert x in table.entries.get(mask, ())
            assert table.tail_size() == len(tail)


class TestTailDegrees:
    def test_cancelling_pair_is_constant(self):
        g = cancelling_pair_graph()
        table = compute_traces(g, range(4), {4, 5})
        assert tail_degrees(table) == (1, 1, 1, 1)

    def test_empty_table_zero(self):
        table = compute_traces(cycle(4), range(4), set())
        assert tail_degrees(table) == (0, 0, 0, 0)

    def test_against_direct_count(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(12, 0.4, rng)
            core = {1, 4, 6, 9}
            tail = set(range(12)) - core
            table = compute_traces(g, core, tail)
            rho = tail_degrees(table)
            for i, u in enumerate(sorted(core)):
                assert rho[i] == sum(g.adj_masks[u] >> x & 1 for x in tail)


class TestComplementDifference:
    def test_cancelling_pair_gives_zero_class(self):
        g = cancelling_pair_graph()
        table = compute_traces(g, range(4), {4, 5})
        vector, cls = complement_difference(table)
        assert vector == (0, 0, 0, 0)
        assert cls.is_zero()

    def test_naive_complement_sum_would_be_wrong(self):
        # Regression: halving the orbit total (n_B + n_comp)/2 = 1 yields a
        # nonzero coefficient on the representative, but the true class is
        # zero; only oriented differences survive modulo constants.
        g = cancelling_pair_graph()
        table = compute_traces(g, range(4), {4, 5})
        rep = 0b0001
        orbit_sum = table.count(rep) + table.count(0b1111 ^ rep)
        naive_coefficient = (orbit_sum // 2) % 2
        assert naive_coefficient == 1
        _, true_class = complement_difference(table)
        assert true_class.is_zero()

    def test_full_trace_only_is_constant(self):
        g = Graph.from_edges(5, [(4, 0), (4, 1), (4, 2), (4, 3)])
        table = compute_traces(g, range(4), {4})
        vector, cls = complement_difference(table)
        assert cls.is_zero()
        rho = tail_degrees(table)
        assert len({r - v for r, v in zip(rho, vector)}) == 1

    def test_representative_constant_shift_random(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(11, 0.5, rng)
            core = {0, 3, 8}
            table = compute_traces(g, core, set(range(11)) - core)
            vector, _ = complement_difference(table)
            rho = tail_degrees(table)
            assert len({r - v for r, v in zip(rho, vector)}) == 1

    def test_non_constant_shift_raises_internal_error(self, monkeypatch):
        real = traces_module.tail_degrees
        monkeypatch.setattr(traces_module, "tail_degrees", lambda t: (real(t)[0] + 1,) + tuple(real(t)[1:]))
        table = compute_traces(cancelling_pair_graph(), range(4), {4, 5})
        with pytest.raises(InternalInvariantError, match="not a constant shift"):
            complement_difference(table)


class TestNextBitObstruction:
    def test_constant_vector_zero_for_all_defined(self):
        for m in range(4):
            assert next_bit_obstruction((1, 1, 1, 1), m) == BitVector(3)

    def test_single_defect_vector(self):
        assert next_bit_obstruction((0, 2, 0, 0), 1) == BitVector.from_bits([1, 0, 0])
        # Cross-check by the constancy characterization: not constant mod 4.
        assert next_bit_obstruction((0, 2, 0, 0), 2) is None

    def test_constant_mod_two(self):
        assert next_bit_obstruction((3, 3, 3), 0) == BitVector(2)

    def test_not_constant_reported(self):
        assert next_bit_obstruction((0, 1), 1) is None

    def test_zero_iff_constant_next_modulus(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(1, 6)
            rho = tuple(rng.randrange(0, 16) for _ in range(n))
            for m in range(4):
                outcome = next_bit_obstruction(rho, m)
                if outcome is None:
                    continue
                constant_next = all((v - rho[0]) % (1 << (m + 1)) == 0 for v in rho)
                assert outcome.is_zero() == constant_next


class TestOrientedOrbitForm:
    def test_cancelling_pair(self):
        g = cancelling_pair_graph()
        table = compute_traces(g, range(4), {4, 5})
        assert oriented_orbit_form(table, 1) == BitVector(3)

    def test_empty_table(self):
        table = compute_traces(cycle(4), range(4), set())
        assert oriented_orbit_form(table, 2) == BitVector(3)

    def test_disagreeing_direct_class_raises_internal_error(self, monkeypatch):
        monkeypatch.setattr(traces_module, "next_bit_obstruction", lambda *a, **k: None)
        table = compute_traces(cancelling_pair_graph(), range(4), {4, 5})
        with pytest.raises(InternalInvariantError, match="disagrees with the direct"):
            oriented_orbit_form(table, 0)

    def test_divisibility_failure_reported_even_when_direct_form_exists(self):
        # Three singleton traces: each oriented difference is odd, but the
        # tail counts (1,1,1) are constant, so the direct class exists.
        g = Graph.from_edges(6, [(3, 0), (4, 1), (5, 2)])
        table = compute_traces(g, range(3), {3, 4, 5})
        assert oriented_orbit_form(table, 1) is None
        assert next_bit_obstruction(tail_degrees(table), 1) is not None

    def test_matches_direct_form_on_random_divisible_tables(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(120):
            m = rng.randrange(1, 5)
            masks = rng.sample(range(1 << m), k=min(4, 1 << m))
            entries = {}
            next_id = m
            for mask in masks:
                count = rng.randrange(0, 5)
                if count:
                    entries[mask] = tuple(range(next_id, next_id + count))
                    next_id += count
            table = TraceTable(core=tuple(range(m)), entries=entries)
            for bit in range(3):
                outcome = oriented_orbit_form(table, bit)
                if outcome is not None:
                    direct = next_bit_obstruction(tail_degrees(table), bit)
                    assert direct == outcome
                    checked += 1
        assert checked > 50


class TestPairTraceGraph:
    def test_empty_table_disconnected(self):
        table = compute_traces(cycle(4), range(4), set())
        view = pair_trace_graph(table, 2)
        assert view.edges == ()
        assert not view.connected

    def test_all_pairs_heavy_even_core_without_odd_trace(self):
        edges = []
        next_id = 4
        for i in range(4):
            for j in range(i + 1, 4):
                for _ in range(2):
                    edges += [(next_id, i), (next_id, j)]
                    next_id += 1
        g = Graph.from_edges(next_id, edges)
        table = compute_traces(g, range(4), range(4, next_id))
        view = pair_trace_graph(table, 2)
        assert view.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert view.connected
        assert not view.has_odd_heavy_trace
        # Even-weight span only: rank 2 < 3.
        masks = table.available_masks(2)
        assert rank(quotient_matrix(masks, range(4))[0]) == 2

    def test_edges_are_core_ids(self):
        # Core {2, 5, 7}: the heavy pair trace {5, 7} is the edge (5, 7).
        g = Graph.from_edges(9, [(0, 5), (0, 7), (1, 5), (1, 7), (3, 2)])
        table = compute_traces(g, {2, 5, 7}, {0, 1, 3})
        view = pair_trace_graph(table, 2)
        assert view.edges == ((5, 7),)
        assert not view.connected

    def test_small_core_rejected(self):
        table = compute_traces(cycle(4), {0}, {1})
        with pytest.raises(ValueError):
            pair_trace_graph(table, 2)


class TestNeighborhoodDiversity:
    def test_complete_graph_single_class(self):
        assert neighborhood_diversity(complete(5)).t == 1

    def test_complete_bipartite_two_classes(self):
        assert neighborhood_diversity(complete_bipartite(3, 3)).t == 2

    def test_five_cycle_all_distinct(self):
        g = cycle(5)
        partition = neighborhood_diversity(g)
        # Brute-force pairwise twin test.
        twins = 0
        for u in range(5):
            for v in range(u + 1, 5):
                strip = ~((1 << u) | (1 << v))
                twins += g.adj_masks[u] & strip == g.adj_masks[v] & strip
        assert twins == 0
        assert partition.t == 5

    def test_petersen_no_twins(self):
        assert neighborhood_diversity(petersen()).t == 10

    def test_classes_partition_vertices(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng.randrange(1, 20), 0.5, rng)
            partition = neighborhood_diversity(g)
            seen = sorted(v for cls in partition.classes for v in cls)
            assert seen == list(range(g.n))


class TestNeighborhoodDiversityInvariants:
    """Each re-check fires on a grouping that breaks it, with the internal-error type."""

    @pytest.mark.parametrize("groups, message", [
        ([[0], [1], [1], [2], [3]], "partition"),
        ([[0, 0], [1], [2], [3]], "partition"),
        ([[0], [1], [2]], "partition"),
        ([[0, 1, 2], [3]], "clique or an independent set"),
        ([[0, 3], [1], [2]], "joined completely or not at all"),
    ])
    def test_broken_grouping_raises(self, monkeypatch, groups, message):
        monkeypatch.setattr(traces_module, "_twin_groups", lambda adj: [list(g) for g in groups])
        with pytest.raises(InternalInvariantError, match=message):
            neighborhood_diversity(path(4))

    def test_classes_ordered_by_smallest_member(self):
        # 0, 3 and 4 are false twins (each sees exactly 1 and 2); 1 and 2 are true twins.
        g = Graph.from_edges(5, [(0, 1), (3, 1), (1, 2), (0, 2), (3, 2), (4, 2), (4, 1)])
        partition = neighborhood_diversity(g)
        assert partition.classes == ((0, 3, 4), (1, 2))


def test_table_json_round_trip_fields():
    g = cancelling_pair_graph()
    table = compute_traces(g, range(4), {4, 5})
    payload = table.to_json_dict(name_of=g.name_of)
    assert payload["core"] == ["1", "2", "3", "4"]
    assert payload["entries"][0] == {"trace": ["1"], "count": 1, "realizers": ["x"]}
    assert payload["entries"][1] == {"trace": ["2", "3", "4"], "count": 1, "realizers": ["y"]}
