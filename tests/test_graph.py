import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcert.graph as graph_module
from modcert.errors import ParseError
from modcert.graph import Graph, induced_degrees, is_regular, load_graph

from conftest import complete, cycle, path, petersen, random_graph


def parse(text: str, fmt: str = "edge-list") -> Graph:
    return load_graph(io.StringIO(text), fmt=fmt)


class TestLoadGraph:
    def test_path_from_edge_list(self):
        g = parse("0 1\n1 2\n")
        assert g.n == 3
        assert sorted(g.degree(v) for v in range(3)) == [1, 1, 2]

    def test_single_edge(self):
        g = parse("a b\n")
        assert g.n == 2
        assert g.adj_masks == (0b10, 0b01)
        assert g.names == ("a", "b")

    def test_header_declares_isolated_vertices(self):
        g = parse("n 4\n0 1\n")
        assert g.n == 4
        assert g.degree(3) == 0

    def test_comments_and_blank_lines(self):
        g = parse("# a comment\n\n0 1  # trailing\n")
        assert g.n == 2

    def test_duplicate_edges_collapse(self):
        g = parse("0 1\n1 0\n0 1\n")
        assert g.edge_count() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("0 1\n2 2\n")
        assert err.value.line == 2

    def test_out_of_declared_range(self):
        with pytest.raises(ParseError):
            parse("n 2\n0 5\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            parse("0 1\n0 1 2\n")
        assert err.value.line == 2

    def test_dimacs_five_cycle(self):
        text = "c five cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
        g = parse(text, fmt="dimacs")
        # Parse, then confirm the degree sequence checked by hand: (2,2,2,2,2).
        assert g.n == 5
        assert [g.degree(v) for v in range(5)] == [2, 2, 2, 2, 2]
        assert g.names == ("1", "2", "3", "4", "5")

    def test_dimacs_requires_header(self):
        with pytest.raises(ParseError):
            parse("e 1 2\n", fmt="dimacs")

    def test_dimacs_range_check(self):
        with pytest.raises(ParseError):
            parse("p edge 3 1\ne 1 9\n", fmt="dimacs")

    def test_dimacs_unrecognized_line_after_the_problem_line(self):
        with pytest.raises(ParseError, match="^line 3: unrecognized line 'x 1 2'$") as err:
            parse("p edge 3 1\ne 1 2\nx 1 2\n", fmt="dimacs")
        assert err.value.line == 3

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="^unknown graph format 'graphml'$"):
            parse("0 1\n", fmt="graphml")

    def test_name_lookup_round_trip(self):
        g = parse("alpha beta\nbeta gamma\n")
        assert g.ids_of(["gamma", "alpha"]) == [2, 0]
        with pytest.raises(ValueError, match="unknown vertex name 'delta'"):
            g.ids_of(["delta"])
        assert g.ids_of(["beta"]) == [1]

    def test_non_integer_count_line_is_an_edge(self):
        g = parse("n x\nx y\n")
        assert g.names == ("n", "x", "y")
        assert g.adj_masks == (0b010, 0b101, 0b010)

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError, match="line 2: negative vertex count -3") as err:
            parse("# header\nn -3\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("fmt, text", [
        ("edge-list", "n 3\n0 1\n1 2\n"),
        ("edge-list", "0 1\n1 2\n"),
        ("dimacs", "p edge 3 2\ne 1 2\ne 2 3\n"),
    ], ids=["headed", "header-less", "dimacs"])
    def test_leading_byte_order_mark_is_ignored(self, fmt, text):
        g = parse("\ufeff" + text, fmt=fmt)
        assert g == parse(text, fmt=fmt)
        assert (g.n, g.adj_masks) == (3, (0b010, 0b101, 0b010))

    def test_only_one_byte_order_mark_is_ignored(self):
        assert parse("\ufeff\ufeffn 3\n").names == ("\ufeffn", "3")

    def test_dimacs_negative_count_rejected(self):
        with pytest.raises(ParseError, match="negative vertex count -1") as err:
            parse("c x\np edge -1 0\n", fmt="dimacs")
        assert err.value.line == 2


class TestMaskIteration:
    def test_masks_hold_each_edge_both_ways(self):
        g = Graph.from_edges(5, [(3, 1), (0, 4), (1, 0), (4, 3), (1, 3)])
        assert g.adj_masks == (0b10010, 0b01001, 0, 0b10010, 0b01001)
        assert not hasattr(g, "adj_lists")

    def test_builder_accepts_a_generator(self):
        g = Graph.from_edges(9, ((v, v + 1) for v in range(8)))
        assert g.edge_count() == 8
        assert g.adj_masks[8] == 1 << 7


class TestInducedDegrees:
    def test_triangle_all(self):
        g = complete(3)
        assert induced_degrees(g, range(3)) == {0: 2, 1: 2, 2: 2}

    def test_path_endpoints_only(self):
        g = path(3)
        assert induced_degrees(g, {0, 2}) == {0: 0, 2: 0}

    def test_petersen_full_set(self):
        g = petersen()
        degs = induced_degrees(g, range(10))
        assert all(d == 3 for d in degs.values())

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            induced_degrees(path(3), {0, 7})


class TestIsRegular:
    def test_cycle(self):
        assert is_regular(cycle(5), range(5)) == (True, 2)

    def test_path_irregular(self):
        assert is_regular(path(3), range(3)) == (False, None)

    def test_independent_set_zero_regular(self):
        assert is_regular(path(3), {0, 2}) == (True, 0)

    def test_empty_set_vacuous(self):
        assert is_regular(path(3), set()) == (True, None)

    def test_asks_the_q_modularity_test_once_at_modulus_n_plus_one(self, monkeypatch):
        calls = []
        real = graph_module.is_q_modular

        def spy(graph, members, q):
            calls.append(q)
            return real(graph, members, q)

        monkeypatch.setattr(graph_module, "is_q_modular", spy)
        assert is_regular(cycle(5), iter(range(5))) == (True, 2)
        assert calls == [6]


@settings(max_examples=60)
@given(st.integers(1, 24), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_handshake_and_regular_agreement(n, p, rnd):
    g = random_graph(n, p, rnd)
    degs = induced_degrees(g, range(n))
    assert sum(degs.values()) % 2 == 0
    assert degs == {v: g.degree(v) for v in range(n)}
    regular, degree = is_regular(g, range(n))
    assert regular == (len(set(degs.values())) <= 1)
    if regular:
        assert degree == next(iter(degs.values()))


@settings(max_examples=40)
@given(st.integers(2, 16), st.randoms(use_true_random=False))
def test_handshake_on_subsets(n, rnd):
    g = random_graph(n, 0.5, rnd)
    members = {v for v in range(n) if rnd.random() < 0.5}
    degs = induced_degrees(g, members)
    assert sum(degs.values()) % 2 == 0
