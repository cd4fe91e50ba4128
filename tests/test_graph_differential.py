"""Differential tests: the mask-only graph against the frozen reference copies.

``_reference_graph`` keeps the builder that stored neighbor tuples beside the
masks, the parsers that built a full edge list first, and the pairwise twin
classification.  Graphs, neighbor and edge iteration, twin classes and parse
errors (type, message, line) must agree.  The one intended difference: a
header-less edge list whose first line is ``n x`` with a non-integer ``x`` is
the edge between ``n`` and ``x``, where the reference rejected it as a bad
vertex count.  A DIMACS problem line with a negative count is now rejected at
that line; the reference failed later, or with a names-count error.

A headed edge list is read in chunks; the chunk size is shrunk here so that
chunk boundaries fall between, before and after every kind of line.  A
canonical chunk is not tested for self-loops by the parser: the fill finds
them, and the loader reads that one chunk again line by line for the
message and line.  Self-loops are placed around defects, in pairs and at
both ends of a chunk so that the first error of the file is still the one
reported.

``Graph.from_edges`` sets both directions of an edge only up to a switch
(N²/32 edges, N the vertex count rounded up to a power of two), then one
direction, and closes the rows with A | Aᵀ through a tiled transpose; the
fill is compared on both sides of the switch and across tile boundaries.
A parser's bound on its edge count (a real file's size, or the length of a
header-less list) that reaches the switch starts the one-direction fill at
the first edge; those tests write real files, and compare them with the same
text through ``io.StringIO`` and a pipe, which have no size.
"""

import io
import os
import random
import threading
from itertools import product
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_graph as ref
import modcert.graph as graph_module
from modcert.errors import ParseError
from modcert.graph import Graph, is_regular, load_graph
from modcert.parity import parity_partition, verify_even_partition
from modcert.traces import neighborhood_diversity


def edge_pairs(n: int, p: float, rnd: random.Random) -> list[tuple[int, int]]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
    pairs += pairs[: len(pairs) // 3]  # duplicates collapse in both builders
    pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in pairs]
    rnd.shuffle(pairs)
    return pairs


def twin_blowup_pairs(base: int, p: float, rnd: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A random base graph with each vertex blown up into a clique or an independent set.

    Vertex ids are shuffled so classes are not contiguous runs.
    """
    sizes = [rnd.choice((1, 1, 2, 3, 4)) for _ in range(base)]
    cliques = [rnd.random() < 0.5 for _ in range(base)]
    blocks, next_id = [], 0
    for size in sizes:
        blocks.append(list(range(next_id, next_id + size)))
        next_id += size
    perm = list(range(next_id))
    rnd.shuffle(perm)
    pairs = []
    for b, block in enumerate(blocks):
        if cliques[b]:
            pairs += [(perm[u], perm[v]) for i, u in enumerate(block) for v in block[i + 1:]]
        for c in range(b + 1, base):
            if rnd.random() < p:
                pairs += [(perm[u], perm[v]) for u in block for v in blocks[c]]
    return next_id, pairs


def assert_same_graph(new: Graph, old: ref.RefGraph) -> None:
    assert new.n == old.n
    assert new.names == old.names
    assert new.adj_masks == old.adj_masks


def assert_same_nd(new: Graph, old: ref.RefGraph) -> None:
    partition = neighborhood_diversity(new)
    assert (partition.t, partition.classes) == ref.neighborhood_diversity(old)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 30), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_random_graphs_match_reference(n, p, rnd):
    pairs = edge_pairs(n, p, rnd)
    new = Graph.from_edges(n, iter(pairs))
    old = ref.RefGraph.from_edges(n, pairs)
    assert_same_graph(new, old)
    assert_same_nd(new, old)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_twin_rich_graphs_match_reference(base, p, rnd):
    n, pairs = twin_blowup_pairs(base, p, rnd)
    new = Graph.from_edges(n, pairs)
    old = ref.RefGraph.from_edges(n, pairs)
    assert_same_graph(new, old)
    assert_same_nd(new, old)


def test_from_edges_errors_match_reference():
    cases = [
        (3, [(0, 3)], None),
        (3, [(-1, 0)], None),
        (3, [(1, 1)], None),
        (3, [(0, 1)], ["a", "b"]),
        (-1, [], None),
    ]
    for n, pairs, names in cases:
        outcomes = []
        for build in (Graph.from_edges, ref.RefGraph.from_edges):
            try:
                build(n, pairs, names=names)
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert len(outcomes) == 2 and outcomes[0] == outcomes[1]


def outcome(loader, text: str):
    """The parsed graph's fields, or the error's type, message and line."""
    return stream_outcome(loader, io.StringIO(text))


def stream_outcome(loader, stream):
    """``outcome`` for a stream the caller opened."""
    try:
        g = loader(stream)
    except ValueError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return ("graph", g.n, g.names, g.adj_masks)


TOKENS = ["0", "1", "2", "3", "4", "9", "-1", "01", "+2", "1.5", "a", "b", "x", "n", "é"]
HEADERS = ["n 0", "n 3", "n 5", " n 4 ", "n\t2", "n -1", "n -0", "n x", "n 1.5", "n", "n 3 4", "n a # c"]
CLEAN_HEADERS = {"n 5": ["0", "1", "3", "03", "4"], "n\tx": ["a", "x", "n", "é"], "": ["a", "b", "n", "7"]}


@st.composite
def edge_list_text(draw) -> str:
    """Edge-list text: half the draws well formed, half with every kind of defect."""
    noisy = draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["", "# lead", "   "])))
    if noisy:
        if draw(st.integers(0, 3)):
            lines.append(draw(st.sampled_from(HEADERS)))
        tokens = TOKENS
    else:
        header = draw(st.sampled_from(sorted(CLEAN_HEADERS)))
        lines.append(header)
        tokens = CLEAN_HEADERS[header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# only a comment", "\t#x"])))
        elif kind == 1 and noisy:
            lines.append(draw(st.sampled_from(HEADERS)))
        else:
            count = draw(st.sampled_from([2, 2, 2, 2, 1, 3])) if noisy else 2
            pair = draw(st.lists(st.sampled_from(tokens), min_size=count, max_size=count, unique=not noisy))
            line = draw(st.sampled_from([" ", "  ", "\t"])).join(pair)
            if draw(st.integers(0, 4)) == 0:
                line = " " + line + draw(st.sampled_from(["", " # note", "#1 2"]))
            lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _first_content_tokens(text: str) -> list[str]:
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            return tokens
    return []


def _rename_n(text: str) -> str:
    """Rename the vertex ``n`` to ``nn_`` so the first line cannot read as a header."""
    out = []
    for raw in text.split("\n"):
        content, sep, comment = raw.partition("#")
        out.append(re.sub(r"(?<!\S)n(?!\S)", "nn_", content) + sep + comment)
    return "\n".join(out)


def _restore_n(result):
    if result[0] == "graph":
        _, n, names, masks = result
        return ("graph", n, tuple("n" if name == "nn_" else name for name in names), masks)
    kind, exc_type, message, line = result
    return (kind, exc_type, message.replace("nn_", "n"), line)


@settings(max_examples=400, deadline=None)
@given(edge_list_text())
def test_edge_list_parse_matches_reference(text):
    new = outcome(load_graph, text)
    old = outcome(ref.load_edge_list, text)
    if old[0] == "error" and old[2].split(": ", 1)[-1].startswith("bad vertex count"):
        # The fixed header case: the line is the edge between "n" and the
        # second token, as the reference reads it once "n" is not the first
        # token of the file.
        first = _first_content_tokens(text)
        assert first[0] == "n" and len(first) == 2
        old = _restore_n(outcome(ref.load_edge_list, _rename_n(text)))
    assert new == old


DIMACS_LINES = [
    "", "c comment", "c", "p edge 3 2", "p edge 4 0", "p edge 0 0", "p edge x 1", "p col 3 3",
    "p edge 3", "p edge -2 1", "e 1 2", "e 2 3", "e 3 1", "e 1 1", "e 1 4", "e 0 1", "e a b",
    "e 1", "e 1 2 3", "x 1 2", "  e 2 1  ",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(DIMACS_LINES), max_size=8))
def test_dimacs_parse_matches_reference(lines):
    text = "\n".join(lines) + "\n"
    new = outcome(lambda s: load_graph(s, fmt="dimacs"), text)
    problem = next((i for i, line in enumerate(lines, 1) if line.strip().startswith("p")), None)
    if problem is not None and lines[problem - 1].split()[2:3] == ["-2"]:
        prior = outcome(lambda s: load_graph(s, fmt="dimacs"), "\n".join(lines[: problem - 1]) + "\n")
        if prior[2:] == ("missing problem line", None):
            assert new == ("error", ParseError, f"line {problem}: negative vertex count -2", problem)
            return
    assert new == outcome(ref.load_dimacs, text)


def test_header_fix_is_the_only_bad_count_case():
    assert outcome(ref.load_edge_list, "n x\n")[2] == "line 1: bad vertex count 'x'"
    g = load_graph(io.StringIO("n x\nx y\n"))
    assert g.names == ("n", "x", "y")
    assert g.adj_masks == (0b010, 0b101, 0b010)


# Lines after an ``n 6`` header that are valid but not canonical ``u v``; each
# sends its chunk down the line-by-line path.
NON_CANONICAL = [
    "1\t2", " 1 2", "1 2 ", "1  2", "01 2", "+2 1", "1\x0b2", "1\x1c2", "1\u00a02", "1\u20282",
    "1 2\r", "# comment", "1 2 # note", "1 2#x", "", "   ", "\t",
    # Not ASCII, so never canonical: Arabic-Indic one (``int`` reads it as 1),
    # NEL and the ideographic space (``str.split`` whitespace).
    "\u0661 2", "1\x852", "1\u30002",
]
# Lines after an ``n 6`` header that the reference rejects.
DEFECTS = [
    "1 6", "6 1", "3 3", "03 3", "-1 2", "a 1", "1 2 3", "1", "1 2.0", "n 6", "1 2\r3 4", "\u00e9 1",
    "\ud800 1",  # a lone surrogate: no encoding of the chunk may raise on it
]


def canonical_lines(n: int, count: int, rnd: random.Random) -> list[str]:
    return [f"{u} {v}" for u, v in (rnd.sample(range(n), 2) for _ in range(count))]


def chunked_outcomes(text: str, chunk: int):
    with mock.patch.object(graph_module, "_CHUNK", chunk):
        new = outcome(load_graph, text)
    return new, outcome(ref.load_edge_list, text)


# Chunk sizes: one line per chunk, a few, ten short lines, and the default.
CHUNKS = (1, 9, 40, graph_module._CHUNK)


def test_chunked_parse_with_one_defect_anywhere():
    """One defect on every line in turn, so it lands first, last and inside a chunk."""
    rnd = random.Random(41)
    body = canonical_lines(6, 24, rnd)
    for chunk in (1, 4, 9, 16, 40):
        for index in range(len(body)):
            for defect in rnd.sample(DEFECTS, 3):
                lines = ["n 6"] + body[:index] + [defect] + body[index + 1:]
                new, old = chunked_outcomes("\n".join(lines) + "\n", chunk)
                assert new == old and new[0] == "error", (chunk, index, defect)


def test_chunked_parse_with_non_canonical_lines_anywhere():
    rnd = random.Random(42)
    body = canonical_lines(6, 24, rnd)
    for chunk in (1, 4, 9, 16, 40):
        for index in range(len(body) + 1):
            for line in NON_CANONICAL:
                lines = ["n 6"] + body[:index] + [line] + body[index:]
                for end in ("\n", ""):
                    new, old = chunked_outcomes("\n".join(lines) + end, chunk)
                    assert new == old and new[0] == "graph", (chunk, index, line, end)


def test_self_loop_then_each_defect_in_a_later_chunk():
    """The self-loop's chunk is canonical, so the fill finds it; the defect
    after it, in a later chunk (in the same one at the default size), is
    never reached."""
    body = canonical_lines(6, 24, random.Random(47))
    for chunk in CHUNKS:
        for defect in DEFECTS:
            lines = ["n 6"] + body[:3] + ["2 2"] + body[4:20] + [defect] + body[21:]
            new, old = chunked_outcomes("\n".join(lines) + "\n", chunk)
            assert new == old == ("error", ParseError, "line 5: self-loop at vertex '2'", 5), (chunk, defect)


def test_defect_then_self_loop():
    body = canonical_lines(6, 24, random.Random(48))
    for chunk in CHUNKS:
        for defect in DEFECTS:
            lines = ["n 6"] + body[:3] + [defect] + body[4:20] + ["2 2"] + body[21:]
            new, old = chunked_outcomes("\n".join(lines) + "\n", chunk)
            assert new == old and new[0] == "error" and new[3] == 5, (chunk, defect)


def test_two_self_loops_in_one_chunk():
    """Lines 13 and 15 of the body share a chunk at every size but 1."""
    body = canonical_lines(6, 24, random.Random(49))
    for chunk in CHUNKS:
        lines = ["n 6"] + body[:12] + ["4 4"] + body[13:14] + ["1 1"] + body[15:]
        new, old = chunked_outcomes("\n".join(lines) + "\n", chunk)
        assert new == old == ("error", ParseError, "line 14: self-loop at vertex '4'", 14), chunk


def test_self_loop_at_every_line_of_canonical_chunks():
    """Every body line is four characters, so chunk sizes 1, 9 and 40 give
    chunks of 1, 3 and 10 lines: the self-loop lands on the first and on the
    last line of a chunk, and inside one."""
    body = canonical_lines(6, 24, random.Random(50))
    for chunk in CHUNKS:
        for index in range(len(body)):
            for loop in ("0 0", "5 5"):
                lines = ["n 6"] + body[:index] + [loop] + body[index + 1:]
                new, old = chunked_outcomes("\n".join(lines) + "\n", chunk)
                assert new == old == ("error", ParseError, f"line {index + 2}: self-loop at vertex '{loop[0]}'",
                                      index + 2), (chunk, index)


def test_self_loop_found_by_the_fill_rereads_only_its_chunk(monkeypatch):
    """The chunks are canonical, so only the self-loop's chunk is read line by line."""
    calls = []
    real = graph_module._numbered_edges
    monkeypatch.setattr(graph_module, "_numbered_edges", lambda lines, n: calls.append(n) or real(lines, n))
    monkeypatch.setattr(graph_module, "_CHUNK", 40)
    body = canonical_lines(6, 30, random.Random(51))
    text = "\n".join(["n 6"] + body[:14] + ["3 3"] + body[15:]) + "\n"
    assert outcome(load_graph, text) == outcome(ref.load_edge_list, text)
    assert calls == [6]


@pytest.mark.parametrize("position", ["before", "after"])
def test_self_loop_around_the_switch_in_a_dense_headed_text(position):
    """G(40, 1/2) has more edges than the switch (128 for n = 40)."""
    pairs = edge_pairs(40, 0.5, random.Random(52))
    switch = _switch(40)
    assert len(pairs) > switch + 20
    index = switch - 20 if position == "before" else switch + 20
    lines = ["n 40"] + [f"{u} {v}" for u, v in pairs]
    lines[index + 1] = "39 39"
    for chunk in CHUNKS:
        new, old = chunked_outcomes("\n".join(lines) + "\n", chunk)
        assert new == old == ("error", ParseError, f"line {index + 2}: self-loop at vertex '39'", index + 2), chunk


@st.composite
def headed_text(draw) -> str:
    """An ``n 6`` edge list of mostly canonical lines, some not, up to two defects."""
    lines = [draw(st.sampled_from(["n 6", " n 6 # header", "n\t6", "# lead\nn 6"]))]
    lines += canonical_lines(6, draw(st.integers(0, 40)), draw(st.randoms(use_true_random=False)))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(NON_CANONICAL)))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(DEFECTS)))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(headed_text(), st.integers(1, 80))
def test_chunked_parse_matches_reference(text, chunk):
    new, old = chunked_outcomes(text, chunk)
    assert new == old


def test_canonical_chunks_skip_the_line_by_line_path(monkeypatch):
    """Only chunks holding a non-canonical line or a missing final newline go line by line."""
    calls = []
    real = graph_module._numbered_edges

    def spy(lines, n):
        calls.append(n)
        return real(lines, n)

    monkeypatch.setattr(graph_module, "_numbered_edges", spy)
    monkeypatch.setattr(graph_module, "_CHUNK", 64)
    body = canonical_lines(1000, 200, random.Random(43))
    text = "n 1000\n" + "\n".join(body) + "\n"
    assert outcome(load_graph, text) == outcome(ref.load_edge_list, text)
    assert calls == []
    text = "n 1000\n" + "\n".join(body[:100] + ["7\t8"] + body[100:])
    assert outcome(load_graph, text) == outcome(ref.load_edge_list, text)
    assert calls == [1000, 1000]


def test_non_ascii_lines_match_reference_in_every_chunk():
    """Each non-ASCII line, canonical chunks around it, at every chunk size."""
    body = canonical_lines(6, 12, random.Random(44))
    for line in ("\u0661 2", "1\x852", "1\u30002", "\ud800 1"):
        for chunk in (1, 5, 16, 40, 1 << 16):
            for index in (0, 6, 12):
                text = "\n".join(["n 6"] + body[:index] + [line] + body[index:]) + "\n"
                new, old = chunked_outcomes(text, chunk)
                assert new == old, (line, chunk, index)
                assert new[0] == ("error" if line.startswith("\ud800") else "graph")


def test_every_short_body_matches_reference():
    """Every body of up to six characters over ``1``, ``2``, space and
    newline after an ``n 20`` header, whole and in small chunks.  Among them
    are ``12`` and ``1 \\n2 1\\n2`` with no final newline, whose digit-free
    rest looks like whole canonical lines."""
    for size in range(7):
        for chars in product("12 \n", repeat=size):
            body = "".join(chars)
            for chunk in (1, 3, 1 << 16):
                new, old = chunked_outcomes("n 20\n" + body, chunk)
                assert new == old, (body, chunk)


def test_dense_headed_parse_crosses_the_switch_without_the_line_path(monkeypatch):
    """G(600, 1/2) passes the one-direction switch (32,768 edges for n = 600)
    with every chunk canonical."""
    calls, closures = [], []
    real_numbered, real_symmetrize = graph_module._numbered_edges, graph_module._symmetrize
    monkeypatch.setattr(graph_module, "_numbered_edges", lambda lines, n: calls.append(n) or real_numbered(lines, n))
    monkeypatch.setattr(graph_module, "_symmetrize", lambda rows: closures.append(len(rows)) or real_symmetrize(rows))
    rnd = random.Random(45)
    pairs = edge_pairs(600, 0.5, rnd)
    assert len(pairs) > _switch(600)
    text = "n 600\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    assert outcome(load_graph, text) == outcome(ref.load_edge_list, text)
    assert calls == []
    assert closures == [600]


def test_parsed_edges_skip_the_builders_check(monkeypatch):
    """Every parser hands over edges it has checked, so the builder's own
    check never sees one: headed (canonical chunks past the switch, and
    chunks read line by line), DIMACS and header-less."""

    def refuse(edges, n):
        raise AssertionError("parsed edges went through the builder's check")

    monkeypatch.setattr(graph_module, "_checked", refuse)
    monkeypatch.setattr(graph_module, "_CHUNK", 4096)
    with pytest.raises(AssertionError):
        Graph.from_edges(2, [(0, 1)])
    rnd = random.Random(46)
    dense = edge_pairs(600, 0.5, rnd)
    assert len(dense) > _switch(600)
    body = [f"{u} {v}" for u, v in edge_pairs(40, 0.3, rnd)]
    noisy = [f"{line}  # c" if i % 7 == 0 else line.replace(" ", "\t") if i % 5 == 0 else line
             for i, line in enumerate(body)]
    cases = [
        (load_graph, ref.load_edge_list, "n 600\n" + "".join(f"{u} {v}\n" for u, v in dense)),
        (load_graph, ref.load_edge_list, "n 40\n" + "\n".join(noisy)),
        (lambda s: load_graph(s, "dimacs"), ref.load_dimacs,
         "c x\np edge 40 0\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edge_pairs(40, 0.3, rnd))),
        (load_graph, ref.load_edge_list, "".join(f"v{u} w{v}\n" for u, v in edge_pairs(40, 0.3, rnd))),
    ]
    for new, old, text in cases:
        result = outcome(new, text)
        assert result[0] == "graph" and result[3]
        assert result == outcome(old, text)


def _switch(n: int) -> int:
    side = 1 << max(n - 1, 0).bit_length()
    return side * side >> 5


def _random_pairs(n: int, m: int, rnd: random.Random) -> list[tuple[int, int]]:
    """``m`` random pairs u != v, duplicates and both orientations included."""
    pairs: list[tuple[int, int]] = []
    while len(pairs) < m:
        k = m - len(pairs) + 8
        pairs += [(u, v) for u, v in zip(rnd.choices(range(n), k=k), rnd.choices(range(n), k=k)) if u != v]
    return pairs[:m]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 31, 32, 33, 1023, 1024, 1025, 2049])
def test_one_direction_fill_matches_reference(n):
    """Edge counts just below, at, just above and far above the switch."""
    rnd = random.Random(n)
    switch = _switch(n)
    far = 2 * switch + 64
    pairs = _random_pairs(n, far, rnd) if n > 1 else []
    for m in sorted({max(switch - 1, 0), switch, switch + 1, far}):
        if m > len(pairs):
            continue
        new = Graph.from_edges(n, iter(pairs[:m]))
        old = ref.RefGraph.from_edges(n, pairs[:m])
        assert new.adj_masks == old.adj_masks, (n, m)
    if n <= 33:
        assert_same_graph(Graph.from_edges(n, iter(pairs)), ref.RefGraph.from_edges(n, pairs))


@pytest.mark.parametrize("n", [9, 33, 1025])
def test_duplicates_after_the_switch_match_reference(n):
    rnd = random.Random(n + 1)
    switch = _switch(n)
    pairs = _random_pairs(n, switch + 8, rnd)
    again = rnd.sample(pairs, min(len(pairs), 200))
    pairs += [(v, u) for u, v in again] + again + [(v, u) for u, v in pairs[:50]]
    assert Graph.from_edges(n, iter(pairs)).adj_masks == ref.RefGraph.from_edges(n, pairs).adj_masks


@pytest.mark.parametrize("n", [2, 9, 33, 1025])
def test_bad_edges_after_the_switch_raise_as_the_reference(n):
    rnd = random.Random(n + 2)
    head = _random_pairs(n, _switch(n) + 3, rnd)
    for bad in ((1, 1), (0, n), (n, n), (-1, 0), (0, -1)):
        outcomes = []
        for build in (Graph.from_edges, ref.RefGraph.from_edges):
            with pytest.raises(ValueError) as err:
                build(n, iter(head + [bad] + head[:3]))
            outcomes.append(str(err.value))
        assert outcomes[0] == outcomes[1], (n, bad)


@pytest.mark.parametrize("n", [2, 9, 33, 1025])
def test_self_loops_on_both_sides_of_the_switch_raise_as_the_reference(n):
    """A plain iterable: the fill finds the self-loop, ``_checked`` an
    endpoint out of range, whichever comes first."""
    rnd = random.Random(n + 3)
    head = _random_pairs(n, _switch(n) + 3, rnd)
    for index in (0, _switch(n) // 2, _switch(n) + 1):
        for bad in ([(1, 1)], [(1, 1), (0, n)], [(0, n), (1, 1)], [(1, 1), (0, 0)]):
            pairs = head[:index] + bad + head[index:]
            outcomes = []
            for build in (Graph.from_edges, ref.RefGraph.from_edges):
                with pytest.raises(ValueError) as err:
                    build(n, iter(pairs))
                outcomes.append((type(err.value), str(err.value)))
            assert outcomes[0] == outcomes[1], (n, index, bad)


@pytest.mark.parametrize("tile", [8, 16])
def test_small_tiles_match_reference(tile, monkeypatch):
    """Many tiles per row, with a ragged last one, through the public builder."""
    monkeypatch.setattr(graph_module, "_TILE", tile)
    rnd = random.Random(tile)
    for n in (9, 17, 40, 100):
        pairs = _random_pairs(n, 3 * _switch(n) + 10, rnd)
        assert Graph.from_edges(n, iter(pairs)).adj_masks == ref.RefGraph.from_edges(n, pairs).adj_masks


def _naive_transpose(x: int, side: int) -> int:
    out = 0
    for r in range(side):
        for c in range(side):
            if x >> (r * side + c) & 1:
                out |= 1 << (c * side + r)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 16, 32, 64]), st.randoms(use_true_random=False), st.floats(0.0, 1.0))
def test_tiled_transpose_matches_naive(side, rnd, p):
    x = sum(1 << i for i in range(side * side) if rnd.random() < p)
    assert graph_module._transpose(x, side, graph_module._delta_swaps(side)) == _naive_transpose(x, side)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.sampled_from([8, 16, 1024]), st.randoms(use_true_random=False))
def test_symmetrize_is_a_or_a_transposed(n, tile, rnd):
    masks = [rnd.getrandbits(n) for _ in range(n)]
    rows = [bytearray(mask.to_bytes((n + 7) >> 3, "little")) for mask in masks]
    with mock.patch.object(graph_module, "_TILE", tile):
        graph_module._symmetrize(rows)
    want = [masks[r] | sum(1 << c for c in range(n) if masks[c] >> r & 1) for r in range(n)]
    assert [int.from_bytes(row, "little") for row in rows] == want


def closures(monkeypatch) -> list[bool]:
    """Spy on ``_symmetrize``: one entry per call, whether some row then held
    a bit below its own index (so an edge was filled in both directions)."""
    calls = []
    real = graph_module._symmetrize

    def spy(rows):
        calls.append(any(int.from_bytes(row, "little") & ((1 << r) - 1) for r, row in enumerate(rows)))
        real(rows)

    monkeypatch.setattr(graph_module, "_symmetrize", spy)
    return calls


def canonical_gnp_lines(n: int, rnd: random.Random) -> list[str]:
    """G(n, 1/2) as canonical ``u v`` lines with u < v, in order."""
    return [f"{u} {v}" for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.5]


def file_outcomes(path, text: str, fmt: str = "edge-list"):
    """The text loaded from a real file, and by the reference from the same text."""
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        new = stream_outcome(lambda stream: load_graph(stream, fmt), handle)
    return new, outcome(ref.load_edge_list if fmt == "edge-list" else ref.load_dimacs, text)


def test_dense_file_fills_one_direction_from_the_first_edge(tmp_path, monkeypatch):
    """The file's size bounds its edges past the switch (8,192 for n = 300),
    so no edge is filled in both directions before the closure."""
    calls = closures(monkeypatch)
    lines = canonical_gnp_lines(300, random.Random(53))
    assert len(lines) > _switch(300)
    new, old = file_outcomes(tmp_path / "g.txt", "n 300\n" + "\n".join(lines) + "\n")
    assert new == old and new[0] == "graph"
    assert calls == [False]


@pytest.mark.parametrize("index", [6, _switch(300) + 50])
def test_self_loop_in_a_dense_file_names_its_line(tmp_path, index):
    """At line 7, and past the switch's edge count: the one-direction fill
    finds it and the loader reads its chunk again for the line."""
    lines = ["n 300"] + canonical_gnp_lines(300, random.Random(54))
    lines[index] = "17 17"
    new, old = file_outcomes(tmp_path / "g.txt", "\n".join(lines) + "\n")
    assert new == old == ("error", ParseError, f"line {index + 1}: self-loop at vertex '17'", index + 1)


def test_sparse_file_padded_past_the_bound_matches_reference(tmp_path, monkeypatch):
    """Comment lines lift the bound past the switch while 100 edges stay below it."""
    calls = closures(monkeypatch)
    rnd = random.Random(55)
    body = [f"{u} {v}" for u, v in _random_pairs(300, 100, rnd)]
    pad = ["# padding, no edge here"] * (_switch(300) // 5)
    text = "\n".join(["n 300"] + pad + body[:50] + pad + body[50:]) + "\n"
    assert len(text) // 4 > _switch(300)
    new, old = file_outcomes(tmp_path / "g.txt", text)
    assert new == old and new[0] == "graph"
    assert len(calls) == 1


def test_string_pipe_and_file_load_equal(tmp_path, monkeypatch):
    """Neither a ``StringIO`` nor a pipe has a size, so both keep the switch
    by edge count; the file goes one direction from its first edge."""
    calls = closures(monkeypatch)
    text = "n 300\n" + "\n".join(canonical_gnp_lines(300, random.Random(56))) + "\n"
    from_string = outcome(load_graph, text)
    assert calls == [True]
    read_fd, write_fd = os.pipe()

    def feed():
        with open(write_fd, "w", encoding="utf-8") as writer:
            writer.write(text)

    feeder = threading.Thread(target=feed)
    feeder.start()
    with open(read_fd, encoding="utf-8") as reader:
        from_pipe = stream_outcome(load_graph, reader)
    feeder.join()
    from_file, old = file_outcomes(tmp_path / "g.txt", text)
    assert from_string == from_pipe == from_file == old and old[0] == "graph"


@pytest.mark.parametrize("m", [10, _switch(40) - 1, _switch(40), _switch(40) + 1, 3 * _switch(40)])
def test_dimacs_and_header_less_files_match_reference_around_the_switch(tmp_path, monkeypatch, m):
    """A DIMACS file's bound is its size over 6 bytes, a header-less list's
    its length, so at m = switch the header-less fill already goes one way."""
    calls = closures(monkeypatch)
    switch = _switch(40)
    pairs = _random_pairs(40, m, random.Random(m))
    text = "c x\np edge 40 0\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
    new, old = file_outcomes(tmp_path / "g.col", text, "dimacs")
    assert new == old and new[0] == "graph"
    assert len(calls) == (len(text) // 6 + 1 >= switch)
    calls.clear()
    new, old = file_outcomes(tmp_path / "g.txt", "".join(f"{u} {v}\n" for u, v in pairs))
    assert new == old and new[0] == "graph"
    assert len(calls) == (m >= switch)


def value_or_error(check, *args):
    """What a degree check returns, or the type and message of its ValueError."""
    try:
        return check(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_regularity_matches_reference(n, p, rnd):
    """``is_regular`` asks the one q-modularity test at modulus n + 1; the
    reference compared the set of degree values."""
    g = Graph.from_edges(n, edge_pairs(n, p, rnd))
    subsets = [[], list(range(n))] + [rnd.sample(range(n), k) for k in (1, 2) if k <= n]
    subsets += [rnd.sample(range(n), rnd.randint(0, n)) for _ in range(8)]
    for subset in subsets:
        want = ref.is_regular(g, subset)
        assert is_regular(g, subset) == want
        assert is_regular(g, iter(subset)) == want
    for bad in ([n], [-1], [0, n + 3]):
        want = value_or_error(ref.is_regular, g, bad)
        assert want[0] is ValueError and value_or_error(is_regular, g, bad) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_even_partition_check_matches_reference(n, p, rnd):
    """``verify_even_partition`` asks the one q-modularity test at modulus 2
    of each part; the reference counted each part's degrees itself."""
    g = Graph.from_edges(n, edge_pairs(n, p, rnd))
    everything = set(range(n))
    part0, part1 = parity_partition(g)
    split = set(rnd.sample(range(n), rnd.randint(0, n)))
    cases = [(part0, part1), (part1, part0), (everything, set()), (set(), everything), (split, everything - split)]
    if n:
        v = rnd.randrange(n)
        cases.append((part0 ^ {v}, part1 ^ {v}))
    for a, b in cases:
        want = ref.verify_even_partition(g, a, b)
        assert verify_even_partition(g, a, b) == want
        assert verify_even_partition(g, iter(sorted(a)), iter(sorted(b))) == want
    bad = [([-1], everything), (everything, [n]), (everything, [0, n + 2])]
    if n:
        bad += [(everything, [rnd.randrange(n)]), (everything - {n - 1}, set())]
    for a, b in bad:
        want = value_or_error(ref.verify_even_partition, g, a, b)
        assert want[0] is ValueError and value_or_error(verify_even_partition, g, a, b) == want
