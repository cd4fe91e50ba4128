"""Dense GF(2) vectors and matrices with certificate-producing elimination.

Vectors and matrix rows are bit-packed into Python integers, so row updates
are single XORs.  One forward elimination, ``_eliminate``, serves every
caller.  Unpivoted rows wait in buckets keyed by their lowest set bit, and
the columns go in blocks of ``_BLOCK``.  When at least ``_CUTOVER`` rows
would take a block, it runs the Method of Four Russians (as in M4RI;
Albrecht, Bard and Hart, arXiv:0811.1714): it finds the block's pivots,
tabulates every XOR combination of them by block slice, and clears the block
from each other row with one lookup and one XOR.  The rows it clears stay
together as a group, in index order and with their values, and take the next
block with the rows of its buckets; their values are kept shifted down to a
base that follows the blocks every ``_REBASE`` columns, so that block slices
stay small ints and each XOR is only as wide as the columns left.  A row
with no bit in a block leaves the group for the bucket of its lowest bit,
and once fewer than ``_CUTOVER`` rows would take a block, the whole group
settles into the buckets.  A block with fewer rows goes column by column,
pivoting on the lowest-index row of each column's bucket; sparse and banded
matrices, and every small one, take this path throughout.
Either way a row is only ever combined with pivot rows of lower index, so
the pivot rows are the greedy lowest-index row basis, and every result
equals that of Gauss-Jordan elimination with the lowest-index pivot rule.

The solver is the workhorse of the whole package: it packs the target bit
above the columns of each row and either solves M x = t, by
back-substitution with free variables 0, or returns an explicit
inconsistency functional y with y^T M = 0 and y^T t = 1.  The dual is read
off a second elimination run on rows that also carry the identity, done only
when the system turns out inconsistent and only on the rows up to the first
inconsistent one.  The fixed pivot basis makes every downstream certificate
reproducible byte for byte.  Dimensions have no upper limit beyond memory.
"""

from __future__ import annotations

from bisect import bisect
from itertools import chain, repeat
from operator import and_, rshift, xor
from typing import Iterable, NamedTuple, Sequence, Union


# Four Russians block width, and the fewest rows in a block worth its 2^k
# table; a block with fewer rows goes column by column.
_BLOCK = 8
_CUTOVER = 192
# The group's values are shifted down to the block once it lies this many
# columns above their base.
_REBASE = 64


def _check_dim(value: int, what: str) -> int:
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


class _BitVectorFields(NamedTuple):
    length: int
    bits: int = 0


class BitVector(_BitVectorFields):
    """Immutable vector over GF(2); coordinate i is bit i of ``bits``."""

    __slots__ = ()

    def __new__(cls, length: int, bits: int = 0) -> "BitVector":
        _check_dim(length, "vector length")
        if not 0 <= bits < (1 << length):
            raise ValueError("bits outside the declared length")
        return super().__new__(cls, length, bits)

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVector":
        bits = 0
        length = 0
        for value in values:
            if value & 1:
                bits |= 1 << length
            length += 1
        return cls(length, bits)

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self.bits >> i & 1 for i in range(self.length))

    def is_zero(self) -> bool:
        return self.bits == 0


class _BitMatrixFields(NamedTuple):
    rows: int
    cols: int
    row_bits: tuple[int, ...]


class BitMatrix(_BitMatrixFields):
    """Matrix over GF(2); row i is the integer ``row_bits[i]`` over the columns."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, row_bits: tuple[int, ...]) -> "BitMatrix":
        _check_dim(rows, "row count")
        _check_dim(cols, "column count")
        if len(row_bits) != rows:
            raise ValueError("row count does not match row data")
        bound = 1 << cols
        for r in row_bits:
            if not 0 <= r < bound:
                raise ValueError("row bits outside the declared column count")
        return super().__new__(cls, rows, cols, row_bits)


class Solution(NamedTuple):
    """M x = t holds exactly."""

    x: BitVector


class Dual(NamedTuple):
    """y combines rows of M to zero while y . t = 1: the system is unsolvable."""

    y: BitVector


SolveResult = Union[Solution, Dual]


def mat_vec(m: BitMatrix, x: BitVector) -> BitVector:
    if x.length != m.cols:
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} with vector of length {x.length}")
    bits = 0
    for i in range(m.rows):
        if (m.row_bits[i] & x.bits).bit_count() & 1:
            bits |= 1 << i
    return BitVector(m.rows, bits)


def _settle(work: list[int], buckets: list[list[int]], ids: Iterable[int], cols: int) -> None:
    """Append each row in ``ids`` to the bucket of its lowest set bit, or to
    the last bucket when it has no bit at or below ``cols``."""
    for i in ids:
        r = work[i]
        low = (r & -r).bit_length() - 1
        buckets[low if low <= cols else -1].append(i)


def _release(
    work: list[int], buckets: list[list[int]], ids: list[int], vals: list[int], base: int, cols: int
) -> None:
    """Write group rows back to ``work`` from their values shifted right by
    ``base``, and settle them."""
    for i, v in zip(ids, vals):
        work[i] = v << base
    _settle(work, buckets, ids, cols)


def _block_step(
    ids: list[int], vals: list[int], shift: int, mask: int
) -> tuple[list[tuple[int, int, int]], list[int], list[int], list[int]]:
    """One Four Russians step on the group, over the bits ``mask << shift`` of its values.

    ``ids`` are the group's rows in index order and ``vals`` their values.
    The rows are scanned in that order on their block slices, and a row
    becomes a pivot when its slice is not yet a key of the table of the 2^r
    XOR combinations of the pivot rows found so far; the table doubles with
    each pivot.  Every other row is cleared of the block with one lookup and
    one XOR.  The pivot rows, and the rows with no bit in the block, leave
    ``ids`` in place.  Returns the pivot rows in echelon form, as (lowest
    bit in the block, row, value) in scan order; the rows with no bit in the
    block and their values; and the cleared values of the rows left in
    ``ids``.
    """
    block = mask << shift
    # Every XOR combination of the pivot rows found so far, keyed by its
    # slice, the block's bits shifted down to bit 0; the pivot slices are
    # independent, so each slice in their span has exactly one combination,
    # and only the zero slice has combination 0.
    table = {0: 0}
    chosen = []
    for pos, r in enumerate(vals):
        s = (r & block) >> shift
        if s not in table:
            chosen.append(pos)
            table.update(zip(list(map(xor, table, repeat(s))), list(map(xor, table.values(), repeat(r)))))
            if len(table) > mask:
                break
    # Echelon form of the pivot rows, for back-substitution: each is cleared
    # of the earlier pivot columns and pivots on its lowest bit in the block.
    echelon: list[tuple[int, int, int]] = []
    for pos in chosen:
        r = vals[pos]
        for bit, _, b in echelon:
            if r & bit:
                r ^= b
        s = r & block
        echelon.append((s & -s, ids[pos], r))
    # Slices fit in a byte, so finding the rows with none is a byte search.
    slices = bytes(map(rshift, map(and_, vals, repeat(block)), repeat(shift)))
    gone = []
    pos = slices.find(0)
    while pos >= 0:
        gone.append(pos)
        pos = slices.find(0, pos + 1)
    left = list(map(ids.__getitem__, gone))
    left_vals = list(map(vals.__getitem__, gone))
    cleared = list(map(xor, vals, map(table.__getitem__, slices)))
    # A pivot row clears to zero, its slice's combination being itself.  Few
    # rows leave a dense group, and deleting each in place moves the rows
    # after it, as the bisection that brings a row back does.
    for pos in sorted(chosen + gone, reverse=True):
        del ids[pos]
        del cleared[pos]
    return echelon, left, left_vals, cleared


def _eliminate(rows: Sequence[int], cols: int) -> tuple[list[int], list[tuple[int, int]], list[int]]:
    """Forward elimination of packed rows over their low ``cols`` bits.

    Bits at ``cols`` and above ride along unpivoted.  Unpivoted rows wait in
    buckets keyed by their lowest set bit, and the columns go in blocks
    [j, j + k) of ``_BLOCK``; buckets j .. j + k - 1 hold every waiting row
    with a bit in the block.

    Block steps.  The group is the rows that the last block step cleared and
    did not pivot on.  They stay together for the next block, in index
    order and with their values, and their entries of ``work`` are stale
    until they leave it.  When the group and the block's buckets hold at
    least ``_CUTOVER`` rows together, the bucket rows join the group, each
    at its place by bisection, and the group takes one ``_block_step``.  The
    values are kept shifted right by a base below which they have no bit,
    and the base moves up to the block once it lies ``_REBASE`` columns
    behind, so block slices and table keys stay small ints and each XOR is
    only as wide as the columns left.  A row with no bit in the block leaves
    the group for the bucket of its lowest bit: a sparse row drops out at
    the first block it has no bit in.  When fewer than ``_CUTOVER`` rows
    would take a block, and after the last column, the whole group settles
    into the buckets.

    Bucket steps, for a block with fewer rows: column by column, the pivot
    of column j is the lowest-index row in bucket j, and only that bucket's
    rows are touched.  A sparse or banded matrix, and every one with fewer
    than ``_CUTOVER`` rows, takes this path throughout.

    Either way a row is only ever combined with pivot rows of lower index,
    so row i ends as a pivot exactly when it is independent of rows
    0..i-1: the pivot rows are the greedy lowest-index row basis, and the
    pivot columns, the rank, the solution with free variables 0 and every
    dual are the same as under one-column-at-a-time Gauss-Jordan elimination
    with the lowest-index pivot rule.  Returns the reduced rows, the
    (column, row) pivots in column order, and the rows left with no column
    bit and bit ``cols`` set.
    """
    work = list(rows)
    pivots = []
    # The last bucket collects rows with no bit at or below ``cols``; a zero
    # row has low == -1 and lands there too.
    buckets: list[list[int]] = [[] for _ in range(cols + 2)]
    _settle(work, buckets, range(len(work)), cols)
    # The group's rows and their values shifted right by ``base``: empty
    # tuples until it forms, so that the many small calls that never run a
    # block step allocate nothing for it.  No comprehension in this function
    # either: in it, free variables become cells that every call creates.
    ids = vals = ()
    base = 0
    blocks = len(work) >= _CUTOVER
    for j in range(cols):
        if blocks and not j % _BLOCK:
            stop = min(j + _BLOCK, cols)
            if len(ids) + sum(map(len, buckets[j:stop])) >= _CUTOVER:
                if not ids:
                    base = j
                    ids = sorted(chain.from_iterable(buckets[j:stop]))
                    vals = list(map(rshift, map(work.__getitem__, ids), repeat(base)))
                else:
                    if j - base >= _REBASE:
                        vals = list(map(rshift, vals, repeat(j - base)))
                        base = j
                    for i in chain.from_iterable(buckets[j:stop]):
                        pos = bisect(ids, i)
                        ids.insert(pos, i)
                        vals.insert(pos, work[i] >> base)
                # The block's buckets stay empty, so the loop passes over its
                # other columns.
                for bucket in buckets[j:stop]:
                    bucket.clear()
                echelon, left, left_vals, vals = _block_step(ids, vals, j - base, (1 << (stop - j)) - 1)
                for bit, p, r in sorted(echelon):
                    work[p] = r << base
                    pivots.append((base + bit.bit_length() - 1, p))
                _release(work, buckets, left, left_vals, base, cols)
                continue
            # Too few rows for a block step: the group settles.
            if ids:
                _release(work, buckets, ids, vals, base, cols)
                ids = ()
        bucket = buckets[j]
        if not bucket:
            continue
        p = min(bucket)
        pivots.append((j, p))
        pivot_row = work[p]
        for i in bucket:
            if i != p:
                r = work[i] ^ pivot_row
                work[i] = r
                low = (r & -r).bit_length() - 1
                buckets[low if low <= cols else -1].append(i)
        buckets[j] = []
    # After the last column, the group settles too.
    if ids:
        _release(work, buckets, ids, vals, base, cols)
    return work, pivots, buckets[cols]


def solve_or_dual(m: BitMatrix, t: BitVector) -> SolveResult:
    """Solve M x = t over GF(2) or produce the dual inconsistency witness.

    The pivot rows are the greedy lowest-index row basis, so the outcome is
    deterministic and equals that of Gauss-Jordan elimination pivoting on the
    lowest-index row with a 1.  Free variables are set to 0.
    The dual witness is the combination, tracked by an appended identity,
    that reduces the lowest-index inconsistent row.
    """
    if t.length != m.rows:
        raise ValueError(f"dimension mismatch: {m.rows} rows vs target length {t.length}")
    cols = m.cols
    tgt = t.bits
    rows = [r | (tgt >> i & 1) << cols for i, r in enumerate(m.row_bits)]
    work, pivots, inconsistent = _eliminate(rows, cols)
    if inconsistent:
        # Row ``first`` is only ever combined with pivot rows of lower index,
        # so the rows after it cannot enter its dual.
        first = min(inconsistent)
        aug = [r | 1 << (cols + 1 + i) for i, r in enumerate(rows[:first + 1])]
        work = _eliminate(aug, cols)[0]
        return Dual(BitVector(m.rows, work[first] >> (cols + 1)))
    x_bits = 0
    for j, p in reversed(pivots):
        r = work[p]
        if ((r >> cols) ^ (r & x_bits).bit_count()) & 1:
            x_bits |= 1 << j
    return Solution(BitVector(cols, x_bits))


def rank(m: BitMatrix) -> int:
    return len(_eliminate(m.row_bits, m.cols)[1])


def pivot_columns(m: BitMatrix) -> list[int]:
    """Columns receiving a pivot under the deterministic elimination order."""
    return [j for j, _ in _eliminate(m.row_bits, m.cols)[1]]
