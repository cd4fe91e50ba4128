"""Simple undirected graphs with dense ids, bit-packed rows, and induced-degree queries.

Vertices are the integers 0..n-1.  Input files may name vertices arbitrarily;
the original names are kept so reports and certificates can refer back to the
input.  Adjacency is stored once, as one bit-mask per vertex (bit v of
``adj_masks[u]`` is set exactly when uv is an edge).
:meth:`Graph.from_edges` is the one builder: it
sets bits in packed byte rows and turns each row into an integer once.  Past
N²/32 edges (N is n rounded up to a power of two) it sets only row u's bit v
of an edge, and when the edges run out it closes the rows with A | Aᵀ by a
delta-swap bit transpose of tiles at most 1024 bits square.  The
parsers stream validated edges into it without building an edge list
(except a header-less edge list, whose vertex count is known only at the
end), wrapped in the private ``_Parsed`` so that it skips ``_checked``,
together with an upper bound on how many edges they can yield: a file's
size over the fewest bytes an edge line takes, or the length of the
header-less list.  When that bound reaches N²/32 the fill sets one
direction from the first edge.  Otherwise (a small file, a stream with no
file behind it, a pipe, edges from any other caller) it sets both
directions of the first N²/32 edges and switches after them, so a small
sparse file never pays for the transpose.  The bound only picks the fill order.
The fill tests every edge for a self-loop.  The parser that reads an edge
finds malformed lines and ids out of range (and, when it reads line by
line, self-loops, with their line); ``_checked`` finds endpoints out of
range in edges from any other caller.

An edge list with an ``n <count>`` header is read in chunks of about 64 Ki
characters, each extended to the end of its line.  A chunk of canonical lines
only -- ``u v`` with one space, ids in the default decimal spelling (no sign,
no leading zero) below the count -- is checked in one pass that runs in C
(ASCII, and nothing but one space and one newline per line once the digits
are deleted) and converted by dict lookups; its line count is half its
token count.  Any other chunk (comments, blank lines, other whitespace,
non-ASCII digits, ``01`` or ``+2``, a missing final newline, an error) is
read line by line by :func:`_numbered_edges`, which alone defines the
accepted syntax and the error messages; line numbers count from the start of
the stream either way.  A self-loop in a canonical chunk is found by the
fill, and that one chunk is then read again line by line for its message
and line.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import ParseError


class _GraphFields(NamedTuple):
    n: int
    names: tuple[str, ...]
    adj_masks: tuple[int, ...]


class Graph(_GraphFields):
    """Immutable simple graph. Build via :meth:`from_edges` or :func:`load_graph`."""

    # No ``__slots__``: the instance ``__dict__`` holds the cached name index.

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        names: Iterable[str] | None = None,
    ) -> "Graph":
        """The graph on vertices 0..n-1 with the given edges, repeats allowed.

        The fill raises ``ValueError`` at the first self-loop.  Endpoints of
        edges in a ``_Parsed`` were range-checked by the parser that read
        them; any other edges pass through ``_checked``, which raises
        ``ValueError`` at the first endpoint outside 0..n-1, so the first
        bad edge raises.

        Edges up to the switch, N²/32 (N is n rounded up to a power of
        two), set both directions; later ones set only row u's bit v, and
        ``_symmetrize`` then closes the rows.  A ``_Parsed`` whose bound
        reaches the switch starts the one-direction fill at its first edge.
        """
        name_tuple = tuple(names) if names is not None else tuple(str(v) for v in range(n))
        if len(name_tuple) != n:
            raise ValueError(f"expected {n} names, got {len(name_tuple)}")
        side = 1 << max(n - 1, 0).bit_length()
        switch = side * side >> 5
        rows = [bytearray((n + 7) >> 3) for _ in range(n)]
        byte = [v >> 3 for v in range(n)]
        bit = [1 << (v & 7) for v in range(n)]
        parsed = type(edges) is _Parsed
        one_way = parsed and edges.bound is not None and edges.bound >= switch
        edges = iter(edges.pairs) if parsed else _checked(edges, n)
        if not one_way:
            for u, v in islice(edges, switch):
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                rows[u][byte[v]] |= bit[v]
                rows[v][byte[u]] |= bit[u]
            rest = next(edges, None)
            if rest is not None:
                one_way = True
                edges = chain((rest,), edges)
        if one_way:
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                rows[u][byte[v]] |= bit[v]
            _symmetrize(rows)
        masks = tuple(int.from_bytes(row, "little") for row in rows)
        return cls(n=n, names=name_tuple, adj_masks=masks)

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def name_of(self, v: int) -> str:
        return self.names[v]

    def names_of(self, members: Iterable[int]) -> list[str]:
        return [self.names[v] for v in sorted(members)]

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: v for v, name in enumerate(self.names)}

    def ids_of(self, names: Iterable[str]) -> list[int]:
        index = self._name_index
        out = []
        for name in names:
            if name not in index:
                raise ValueError(f"unknown vertex name {name!r}")
            out.append(index[name])
        return out


# Side of the square tiles that ``_symmetrize`` transposes one at a time.
_TILE = 1 << 10


class _Parsed(NamedTuple):
    """Edges a parser of this module has range-checked, which :meth:`Graph.from_edges` fills without ``_checked``.

    ``bound`` is meant to be at least the number of pairs (see
    ``_size_bound``), or None when the parser cannot tell.  It only picks the
    order of the fill, so a wrong one (a pipe has size 0, and a file may grow
    while it is read) costs time, never an edge.
    """

    pairs: Iterable[tuple[int, int]]
    bound: int | None


def _checked(edges: Iterable[tuple[int, int]], n: int) -> Iterator[tuple[int, int]]:
    """``edges``, raising at the first endpoint outside 0..n-1; the fill tests self-loops."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        yield u, v


def _symmetrize(rows: list[bytearray]) -> None:
    """Replace the square bit matrix A in ``rows`` by A | Aᵀ, in place.

    Bit c of row r is byte c >> 3, bit c & 7 of ``rows[r]``.  The rows are
    first padded with zero bytes to a whole number of tiles, which leaves
    their integer values alone.  Tiles (i, j) and (j, i) are rewritten
    together from X = A[i, j] | A[j, i]ᵀ and Xᵀ, so only tiles not yet
    rewritten are read, and besides the rows only a few tile-sized integers
    are live at a time.
    """
    n = len(rows)
    tile = min(max(1 << max(n - 1, 0).bit_length(), 8), _TILE)
    width = tile >> 3
    pad = bytes(-(-n // tile) * width - ((n + 7) >> 3))
    for row in rows:
        row += pad

    def read(top: int, left: int) -> int:
        lo = left >> 3
        return int.from_bytes(b"".join([rows[r][lo:lo + width] for r in range(top, min(top + tile, n))]), "little")

    def write(top: int, left: int, x: int) -> None:
        lo = left >> 3
        data = memoryview(x.to_bytes(tile * width, "little"))
        for k, r in enumerate(range(top, min(top + tile, n))):
            rows[r][lo:lo + width] = data[k * width:(k + 1) * width]

    swaps = _delta_swaps(tile)
    starts = range(0, n, tile)
    for i, top in enumerate(starts):
        for left in starts[i:]:
            x = read(top, left) | _transpose(read(left, top), tile, swaps)
            write(top, left, x)
            if left != top:
                write(left, top, _transpose(x, tile, swaps))


def _delta_swaps(side: int) -> list[tuple[int, int]]:
    """The (shift, mask) of each delta swap that transposes a side × side tile.

    One swap per bit j of the indices (side a power of two, at least 8): the
    bits at (r, c) with r & j clear and c & j set trade places with
    (r | j, c & ~j), ``j * (side - 1)`` positions higher.
    """
    width = side >> 3
    blank = bytes(width)
    swaps = []
    step = side >> 1
    while step:
        pattern = ((1 << side) - 1) // ((1 << 2 * step) - 1) * (((1 << step) - 1) << step)
        row = pattern.to_bytes(width, "little")
        mask = int.from_bytes((row * step + blank * step) * (side // (2 * step)), "little")
        swaps.append((step * (side - 1), mask))
        step >>= 1
    return swaps


def _transpose(x: int, side: int, swaps: list[tuple[int, int]]) -> int:
    """Transpose a side × side bit matrix stored row-major (bit r * side + c).

    ``swaps`` is ``_delta_swaps(side)``, built once for many tiles.
    """
    for delta, mask in swaps:
        swap = (x ^ x >> delta) & mask
        x ^= swap | swap << delta
    return x


def bits_of(mask: int) -> Iterator[int]:
    """The vertices of a mask, lowest first; the inverse of :func:`mask_of`."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(members: Iterable[int]) -> int:
    out = 0
    for v in members:
        out |= 1 << v
    return out


def check_subset(graph: Graph, members: Iterable[int]) -> frozenset[int]:
    """Validate a vertex set against the graph and return it as a frozenset."""
    s = frozenset(members)
    for v in s:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} out of range for n={graph.n}")
    return s


def load_graph(stream: IO[str], fmt: str = "edge-list") -> Graph:
    """Parse an edge-list or DIMACS stream into a :class:`Graph`.

    Edge list: optional first line ``n <count>``; then ``u v`` per line;
    ``#`` starts a comment.  With a header, endpoints must be integers in
    range; without one, tokens are arbitrary names assigned dense ids in
    order of first appearance.  A first line ``n x`` whose ``x`` is not an
    integer is the edge between the names ``n`` and ``x``.

    DIMACS: ``c`` comments, one ``p edge <n> <m>`` header, ``e u v`` lines
    with 1-based endpoints.

    One leading byte order mark (U+FEFF) is ignored in either format.
    """
    if fmt not in ("edge-list", "dimacs"):
        raise ValueError(f"unknown graph format {fmt!r}")
    lines = enumerate(chain([stream.readline().removeprefix("\ufeff")], stream), start=1)
    if fmt == "edge-list":
        return _load_edge_list(lines, stream)
    return _load_dimacs(lines, stream)


def _size_bound(stream: IO[str], line_bytes: int) -> int | None:
    """The most edge lines of at least ``line_bytes`` bytes, newline included,
    that ``stream``'s file can hold (the last line may lack its newline), or
    None when no file is behind it."""
    try:
        size = os.fstat(stream.fileno()).st_size
    except (OSError, ValueError, AttributeError):
        return None
    return size // line_bytes + 1


def _content_tokens(raw: str) -> list[str]:
    if "#" in raw:
        raw = raw.split("#", 1)[0]
    return raw.split()


def _load_edge_list(lines: Iterator[tuple[int, str]], stream: IO[str]) -> Graph:
    """An edge list; ``lines`` numbers the lines of ``stream``, which a headed list reads on in chunks."""
    for lineno, raw in lines:
        tokens = _content_tokens(raw)
        if not tokens:
            continue
        declared_n = _header_count(tokens, lineno)
        if declared_n is None:
            return _load_named_edges(chain([(lineno, raw)], lines))
        chunks = _numbered_chunks(stream, declared_n, lineno + 1)
        try:
            # Every edge line is at least ``u v`` and a newline.
            return Graph.from_edges(declared_n, _Parsed(chain.from_iterable(chunks), _size_bound(stream, 4)))
        except ValueError as exc:
            # ``chunks`` is paused where the error arose.  At a canonical
            # chunk's yield it can only be the fill's self-loop, as the ``ids``
            # lookup checked every other id, and the chunk raises its first bad
            # line's ParseError.  A line reader's ParseError (the other yield)
            # or a decode error (a finished generator) comes straight back.
            chunks.throw(exc)
            raise
    return Graph.from_edges(0, ())


def _header_count(tokens: list[str], lineno: int) -> int | None:
    """The count of an ``n <count>`` header, or None when the line is an edge."""
    if tokens[0] != "n" or len(tokens) != 2:
        return None
    try:
        count = int(tokens[1])
    except ValueError:
        return None
    if count < 0:
        raise ParseError(f"negative vertex count {count}", lineno)
    return count


# Characters per read of a headed edge list; keeps each chunk's token list small.
_CHUNK = 1 << 16


def _numbered_chunks(stream: IO[str], n: int, lineno: int) -> Iterator[Iterable[tuple[int, int]]]:
    """The edges after an ``n`` header, one iterable per chunk of whole lines.

    ``lineno`` is the number of the stream's next line.  A canonical chunk is
    converted at once, any other chunk line by line.  A canonical chunk's
    pairs are not tested for self-loops here: the fill raises ``ValueError``
    at one, and the loader throws it back in while this generator is paused
    on the chunk, which is then read line by line for the ParseError.
    """
    ids = {str(v): v for v in range(n)}
    while chunk := stream.read(_CHUNK):
        if chunk[-1] != "\n":
            chunk += stream.readline()
        ends = _canonical_ids(chunk, ids)
        if ends is None:
            yield _numbered_edges(enumerate(chunk.split("\n"), start=lineno), n)
            lineno += chunk.count("\n")
        else:
            pairs = iter(ends)
            try:
                yield zip(pairs, pairs)
            except ValueError:
                for _ in _numbered_edges(enumerate(chunk.split("\n"), start=lineno), n):
                    pass
                raise
            lineno += len(ends) >> 1


def _canonical_ids(chunk: str, ids: dict[str, int]) -> tuple[int, ...] | None:
    """The endpoint ids, in order, of a chunk whose every line is ``u v`` in canonical form, else None.

    An ASCII chunk that ends in a newline, with its decimal digits deleted,
    is k copies of ``" \\n"`` and splits into 2k or 2k + 1 tokens exactly
    when it is k lines ``a b`` of digits with one space between: its 2k
    digit runs must then all be nonempty.  The check runs in C: one
    ``isascii``, one ``encode`` (which cannot fail on ASCII) and one
    ``translate``; it fails on a chunk without tokens, so ``itemgetter``
    gets at least two and the chunk has ``len(tokens) >> 1`` lines.
    ``ids`` holds only the default names, so a lookup fails on ``01``,
    ``+2`` or an id out of range.  Self-loops pass.
    """
    if not chunk.isascii() or chunk[-1] != "\n":
        return None
    tokens = chunk.split()
    if chunk.encode("ascii").translate(None, b"0123456789") != b" \n" * (len(tokens) >> 1):
        return None
    try:
        return itemgetter(*tokens)(ids)
    except KeyError:
        return None


def _numbered_edges(lines: Iterator[tuple[int, str]], n: int) -> Iterator[tuple[int, int]]:
    """Validated ``(u, v)`` id pairs from the lines after an ``n`` header."""
    for lineno, raw in lines:
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        try:
            first, second = raw.split()
            u = int(first)
            v = int(second)
        except ValueError:
            if not raw.split():
                continue
            raise _numbered_line_error(raw, n, lineno) from None
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise _numbered_line_error(raw, n, lineno)
        yield u, v


def _numbered_line_error(line: str, n: int, lineno: int) -> ParseError:
    """Why a comment-free line after an ``n`` header is not a valid edge."""
    tokens = line.split()
    if len(tokens) != 2:
        return ParseError(f"expected 'u v', got {line.strip()!r}", lineno)
    for token in tokens:
        try:
            v = int(token)
        except ValueError:
            return ParseError(f"expected integer vertex id, got {token!r}", lineno)
        if not (0 <= v < n):
            return ParseError(f"vertex id {v} out of declared range 0..{n - 1}", lineno)
    return ParseError(f"self-loop at vertex {tokens[0]!r}", lineno)


def _load_named_edges(lines: Iterator[tuple[int, str]]) -> Graph:
    """A header-less edge list: names get dense ids in order of first appearance."""
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in lines:
        tokens = _content_tokens(raw)
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {raw.split('#', 1)[0].strip()!r}", lineno)
        u = ids.setdefault(tokens[0], len(ids))
        v = ids.setdefault(tokens[1], len(ids))
        if u == v:
            raise ParseError(f"self-loop at vertex {tokens[0]!r}", lineno)
        edges.append((u, v))
    return Graph.from_edges(len(ids), _Parsed(edges, len(edges)), names=list(ids))


def _load_dimacs(lines: Iterator[tuple[int, str]], stream: IO[str]) -> Graph:
    """A DIMACS graph; ``lines`` numbers the lines of ``stream``."""
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"expected 'p edge <n> <m>', got {line!r}", lineno)
            try:
                declared_n = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[2]!r}", lineno)
            if declared_n < 0:
                raise ParseError(f"negative vertex count {declared_n}", lineno)
            names = [str(v + 1) for v in range(declared_n)]
            # Every edge line is at least ``e u v`` and a newline.
            edges = _Parsed(_dimacs_edges(lines, declared_n), _size_bound(stream, 6))
            return Graph.from_edges(declared_n, edges, names=names)
        if tokens[0] == "e":
            raise ParseError("edge before problem line", lineno)
        raise ParseError(f"unrecognized line {line!r}", lineno)
    raise ParseError("missing problem line")


def _dimacs_edges(lines: Iterator[tuple[int, str]], n: int) -> Iterator[tuple[int, int]]:
    """Validated 0-based ``(u, v)`` pairs from the lines after the problem line."""
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            raise ParseError("duplicate problem line", lineno)
        if tokens[0] != "e":
            raise ParseError(f"unrecognized line {line!r}", lineno)
        if len(tokens) != 3:
            raise ParseError(f"expected 'e u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ParseError(f"bad edge endpoints in {line!r}", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex id out of declared range 1..{n}", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        yield u - 1, v - 1


def induced_degrees(graph: Graph, members: Iterable[int]) -> dict[int, int]:
    """Degree of each member inside the induced subgraph on ``members``."""
    s = check_subset(graph, members)
    mask = mask_of(s)
    return {v: (graph.adj_masks[v] & mask).bit_count() for v in sorted(s)}


class ModularityCheck(NamedTuple):
    modular: bool
    residue: int | None
    conflict: tuple[int, int] | None


def is_q_modular(graph: Graph, members: Iterable[int], q: int) -> ModularityCheck:
    """Do all induced degrees on ``members`` agree modulo q?

    Returns the common residue on success, or a witnessing pair of vertices
    with different residues on failure.  Any q >= 1 is accepted here; the
    power-of-two restriction applies only to the dyadic machinery.  The one
    test of agreeing degrees: regularity and even parts ask it too.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    degs = induced_degrees(graph, members)
    if not degs:
        return ModularityCheck(True, None, None)
    first_v = next(iter(degs))
    residue = degs[first_v] % q
    for v, deg in degs.items():
        if deg % q != residue:
            return ModularityCheck(False, None, (first_v, v))
    return ModularityCheck(True, residue, None)


def is_regular(graph: Graph, members: Iterable[int]) -> tuple[bool, int | None]:
    """Whether the induced subgraph is regular, and its degree when it is.

    No induced degree reaches n, so degrees that agree modulo n + 1 are
    equal.  The empty set is vacuously regular with no reported degree.
    """
    check = is_q_modular(graph, members, graph.n + 1)
    return check.modular, check.residue
