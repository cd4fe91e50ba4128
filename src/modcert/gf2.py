"""Dense GF(2) vectors and matrices with certificate-producing elimination.

Vectors and matrix rows are bit-packed into Python integers, so row updates
are single XORs.  One forward elimination, ``_eliminate``, serves every
caller.  Unpivoted rows wait in buckets keyed by their lowest set bit, and
the columns go in blocks of ``_BLOCK``; a block touches only the rows in its
own buckets, the rows with a bit in it.  When those are at least
``_CUTOVER`` rows, the block runs the Method of Four Russians (as in M4RI;
Albrecht, Bard and Hart, arXiv:0811.1714): it finds the block's pivots,
tabulates every XOR combination of them by block slice, and clears the block
from each other row with one lookup and one XOR.  Otherwise it goes column
by column, pivoting on the lowest-index row of each column's bucket; sparse
and banded matrices, and every small one, take this path throughout.
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

from itertools import chain, compress, repeat
from operator import and_, not_, rshift, xor
from typing import Iterable, NamedTuple, Sequence, Union


# Four Russians block width, and the fewest rows in a block's buckets worth
# its 2^k table; a block with fewer rows goes column by column.
_BLOCK = 8
_CUTOVER = 192


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


def _eliminate(rows: Sequence[int], cols: int) -> tuple[list[int], list[tuple[int, int]], list[int]]:
    """Forward elimination of packed rows over their low ``cols`` bits.

    Bits at ``cols`` and above ride along unpivoted.  Unpivoted rows wait in
    buckets keyed by their lowest set bit, and the columns go in blocks
    [j, j + k) of ``_BLOCK``.  A block touches only the rows in its buckets
    j .. j + k - 1, and every row with a bit in the block is there.

    Block step, when those buckets hold at least ``_CUTOVER`` rows: their
    rows are scanned in index order on their block slices ``(row >> j) &
    mask``.  A row becomes a pivot when its slice is not yet a key of the
    table of the 2^r XOR combinations of the pivot rows found so far, keyed
    by slice, and the table doubles with each pivot.  Every other row is
    cleared of the block with one lookup and one XOR.  The cleared rows go
    to bucket j + k as a whole, not one by one: their lowest bits are there
    or further on, and the next block re-buckets those with no bit in it.
    The pivot rows are stored in echelon form, each pivoting on its lowest
    bit in the block, for back-substitution.

    Bucket steps, for a block with fewer rows: column by column, the pivot
    of column j is the lowest-index row in bucket j, and only that bucket's
    rows are touched.  A sparse or banded matrix takes this path throughout.

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
    # Whether bucket j may hold rows whose lowest bit lies further on, moved
    # there by a block step.  No comprehension in this function: in it, free
    # variables become cells that every call creates, the many small calls
    # that never run a block step included.
    ahead = False
    blocks = len(work) >= _CUTOVER
    for j in range(cols):
        if blocks and not j % _BLOCK:
            stop = min(j + _BLOCK, cols)
            if sum(map(len, buckets[j:stop])) >= _CUTOVER:
                mask = (1 << (stop - j)) - 1
                block = sorted(chain.from_iterable(buckets[j:stop]))
                # The block's buckets stay empty, so the loop passes over its
                # other columns.
                for bucket in buckets[j:stop]:
                    bucket.clear()
                old = list(map(work.__getitem__, block))
                slices = list(map(rshift, map(and_, old, repeat(mask << j)), repeat(j)))
                # Every XOR combination of the pivot rows found so far, keyed
                # by its slice; the pivot slices are independent, so each
                # slice in their span has exactly one combination.
                table = {0: 0}
                chosen = []
                for i, r, s in zip(block, old, slices):
                    if s not in table:
                        chosen.append(i)
                        grown = list(map(s.__xor__, table))
                        table.update(zip(grown, list(map(r.__xor__, table.values()))))
                        if len(table) > mask:
                            break
                # Echelon form of the pivot rows, for back-substitution: each
                # is cleared of the earlier pivot columns and pivots on its
                # lowest bit.
                echelon: list[tuple[int, int, int]] = []
                for i in chosen:
                    r = work[i]
                    for bit, _, b in echelon:
                        if r & bit:
                            r ^= b
                    s = r >> j & mask
                    echelon.append(((s & -s) << j, i, r))
                for i, r in zip(block, map(xor, old, map(table.__getitem__, slices))):
                    work[i] = r
                for bit, p, r in sorted(echelon):
                    work[p] = r
                    pivots.append((bit.bit_length() - 1, p))
                # Rows with no bit in the block were moved on to bucket j by
                # the block before; the cleared ones move on in their turn.
                _settle(work, buckets, compress(block, map(not_, slices)), cols)
                moved = list(compress(block, slices))
                for p in chosen:
                    moved.remove(p)
                if stop < cols:
                    buckets[stop].extend(moved)
                    ahead = True
                else:
                    _settle(work, buckets, moved, cols)
                continue
            if ahead:
                bucket = buckets[j]
                buckets[j] = []
                _settle(work, buckets, bucket, cols)
                ahead = False
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
