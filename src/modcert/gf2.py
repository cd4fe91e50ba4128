"""Dense GF(2) vectors and matrices with certificate-producing elimination.

Vectors and matrix rows are bit-packed into Python integers, so row updates
are single XORs.  One forward elimination serves every caller: it packs the
target bit above the columns of each row, keeps rows bucketed by their lowest
set bit, and pivots on the lowest-index row of each column's bucket.  The
solver is the workhorse of the whole package: it either solves M x = t, by
back-substitution with free variables 0, or returns an explicit
inconsistency functional y with y^T M = 0 and y^T t = 1.  The dual is read
off a second elimination run on rows that also carry the identity, done only
when the system turns out inconsistent.  The lowest-index pivot rule makes
every downstream certificate reproducible byte for byte.  Dimensions have no
upper limit beyond memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union


def _check_dim(value: int, what: str) -> int:
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class BitVector:
    """Immutable vector over GF(2); coordinate i is bit i of ``bits``."""

    length: int
    bits: int = 0

    def __post_init__(self):
        _check_dim(self.length, "vector length")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError("bits outside the declared length")

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVector":
        bits = 0
        length = 0
        for value in values:
            if value & 1:
                bits |= 1 << length
            length += 1
        return cls(length, bits)

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range for length {self.length}")
        return self.bits >> i & 1

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self.bits >> i & 1 for i in range(self.length))

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return BitVector(self.length, self.bits ^ other.bits)

    def __str__(self) -> str:
        return "".join(str(self.bits >> i & 1) for i in range(self.length))


def dot(x: BitVector, y: BitVector) -> int:
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")
    return (x.bits & y.bits).bit_count() & 1


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2); row i is the integer ``row_bits[i]`` over the columns."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.rows, "row count")
        _check_dim(self.cols, "column count")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match row data")
        bound = 1 << self.cols
        for r in self.row_bits:
            if not 0 <= r < bound:
                raise ValueError("row bits outside the declared column count")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))


@dataclass(frozen=True)
class Solution:
    """M x = t holds exactly."""

    x: BitVector


@dataclass(frozen=True)
class Dual:
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


def _eliminate(rows: Sequence[int], cols: int) -> tuple[list[int], list[tuple[int, int]], list[int]]:
    """Forward elimination of packed rows over their low ``cols`` bits.

    Bits at ``cols`` and above ride along unpivoted.  Rows wait in buckets
    keyed by their lowest set bit; once the columns below j are done, no
    unpivoted row has a bit below j, so the pivot of column j is the
    lowest-index row in bucket j, and only that bucket's rows are touched.
    Unpivoted rows change exactly as under Gauss-Jordan elimination with the
    same pivot rule.  Returns the reduced rows, the (column, row) pivots in
    column order, and the rows left with no column bit and bit ``cols`` set.
    """
    work = list(rows)
    # The last bucket collects rows with no bit at or below ``cols``; a zero
    # row has low == -1 and lands there too.
    buckets: list[list[int]] = [[] for _ in range(cols + 2)]
    for i, r in enumerate(work):
        low = (r & -r).bit_length() - 1
        buckets[low if low <= cols else -1].append(i)
    pivots = []
    for j in range(cols):
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

    For each column the pivot is the lowest-index row that still has a 1
    there, so the outcome is deterministic.  Free variables are set to 0.
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
        aug = [r | 1 << (cols + 1 + i) for i, r in enumerate(rows)]
        work, _, inconsistent = _eliminate(aug, cols)
        return Dual(BitVector(m.rows, work[min(inconsistent)] >> (cols + 1)))
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
