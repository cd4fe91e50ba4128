"""Frozen reference copies of the GF(2) elimination and the quotient matrices.

These are the three Gauss-Jordan loops (solve, rank, pivot columns) that
tested one bit per row and column, and the trace-class matrices built one
``BitVector`` column at a time.  They exist only as the oracle for the
differential tests in ``test_gf2_differential.py``; do not edit them to
follow changes in ``modcert``.
"""

from __future__ import annotations

from typing import Sequence

from modcert.gf2 import BitMatrix, BitVector, Dual, Solution


def quotient_coords(x: BitVector, base_index: int) -> BitVector:
    if not 0 <= base_index < x.length:
        raise ValueError(f"base index {base_index} out of range for length {x.length}")
    base = x.bits >> base_index & 1
    bits = []
    for i in range(x.length):
        if i == base_index:
            continue
        bits.append((x.bits >> i & 1) ^ base)
    return BitVector.from_bits(bits)


def from_columns(columns: Sequence[BitVector], rows: int | None = None) -> BitMatrix:
    if rows is None:
        if not columns:
            raise ValueError("cannot infer row count from zero columns")
        rows = columns[0].length
    row_bits = [0] * rows
    for j, col in enumerate(columns):
        if col.length != rows:
            raise ValueError("column length does not match row count")
        for i in range(rows):
            if col.bits >> i & 1:
                row_bits[i] |= 1 << j
    return BitMatrix(rows, len(columns), tuple(row_bits))


def solve_or_dual(m: BitMatrix, t: BitVector):
    if t.length != m.rows:
        raise ValueError(f"dimension mismatch: {m.rows} rows vs target length {t.length}")
    work = list(m.row_bits)
    aug = [1 << i for i in range(m.rows)]
    tgt = [t.bits >> i & 1 for i in range(m.rows)]
    pivot_of_col: dict[int, int] = {}
    pivoted_rows: set[int] = set()
    for j in range(m.cols):
        pivot = next(
            (i for i in range(m.rows) if i not in pivoted_rows and work[i] >> j & 1),
            None,
        )
        if pivot is None:
            continue
        pivot_of_col[j] = pivot
        pivoted_rows.add(pivot)
        for i in range(m.rows):
            if i != pivot and work[i] >> j & 1:
                work[i] ^= work[pivot]
                aug[i] ^= aug[pivot]
                tgt[i] ^= tgt[pivot]
    for i in range(m.rows):
        if work[i] == 0 and tgt[i]:
            return Dual(BitVector(m.rows, aug[i]))
    x_bits = 0
    for j, i in pivot_of_col.items():
        if tgt[i]:
            x_bits |= 1 << j
    return Solution(BitVector(m.cols, x_bits))


def rank(m: BitMatrix) -> int:
    work = list(m.row_bits)
    count = 0
    for j in range(m.cols):
        pivot = next((i for i in range(count, m.rows) if work[i] >> j & 1), None)
        if pivot is None:
            continue
        work[count], work[pivot] = work[pivot], work[count]
        for i in range(m.rows):
            if i != count and work[i] >> j & 1:
                work[i] ^= work[count]
        count += 1
    return count


def pivot_columns(m: BitMatrix) -> list[int]:
    work = list(m.row_bits)
    pivoted: set[int] = set()
    out: list[int] = []
    for j in range(m.cols):
        pivot = next((i for i in range(m.rows) if i not in pivoted and work[i] >> j & 1), None)
        if pivot is None:
            continue
        out.append(j)
        pivoted.add(pivot)
        for i in range(m.rows):
            if i != pivot and work[i] >> j & 1:
                work[i] ^= work[pivot]
    return out


def trace_class_matrix(table, q: int) -> tuple[list[int], BitMatrix]:
    masks = table.available_masks(q)
    m = table.size
    columns = [
        quotient_coords(BitVector(m, mask), 0)
        for mask in masks
    ]
    return masks, from_columns(columns, rows=max(m - 1, 0))


def spans(core_size: int, masks: Sequence[int]) -> bool:
    columns = [quotient_coords(BitVector(core_size, mask), 0) for mask in masks]
    matrix = from_columns(columns, rows=max(core_size - 1, 0))
    return rank(matrix) == core_size - 1
