"""Differential tests: the packed-row elimination against the frozen reference copies.

``_reference_gf2`` keeps the three Gauss-Jordan loops and the column-by-column
quotient matrices.  Results must be equal, not merely valid: the same
``Solution`` or the same ``Dual``, the same rank and pivot columns, and the
same quotient matrix for every trace table and reservoir span check.  A
column block that at least ``_CUTOVER`` rows would take runs a Four Russians
block step; one with fewer goes column by column.  The rows a block step
clears stay together as a group for the next block, with their values
shifted down to a base that moves every ``_REBASE`` columns; a row with no
bit in a block leaves the group, and the whole group settles into the
buckets once it and the block's buckets hold fewer than ``_CUTOVER`` rows.
``first_block_rows`` shows which cases reach a block step, and
``recorded_block_steps`` records the group at each one, so that the tests
can show that a case reaches the state it is named for: a group alive
across a rebase or at the last column, rows that leave it or clear to zero
in it, a group that dissolves partway, and block steps alternating with
bucket steps under a lowered cut-over.
"""

import random
from contextlib import contextmanager
from typing import Iterator, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_gf2 as ref
from modcert import gf2
from modcert.absorb import trace_class_matrix
from modcert.gf2 import (
    _BLOCK,
    _CUTOVER,
    _REBASE,
    BitMatrix,
    BitVector,
    Dual,
    pivot_columns,
    rank,
    solve_or_dual,
)
from modcert.reservoir import _spans
from modcert.traces import TraceTable
from modcert.witness import quotient_matrix


def random_rows(rows: int, cols: int, density: float, rnd: random.Random) -> tuple[int, ...]:
    return tuple(
        sum(1 << j for j in range(cols) if rnd.random() < density) for _ in range(rows)
    )


def rows_in_span(basis: Sequence[int], rows: int, rnd: random.Random) -> tuple[int, ...]:
    """Each row the XOR of a random subset of ``basis``."""
    out = []
    for _ in range(rows):
        acc = 0
        for b in basis:
            if rnd.random() < 0.5:
                acc ^= b
        out.append(acc)
    return tuple(out)


def assert_same_elimination(matrix: BitMatrix, target: BitVector) -> None:
    got, want = solve_or_dual(matrix, target), ref.solve_or_dual(matrix, target)
    # Solution and Dual are tuples of one vector, so == alone would not tell them apart.
    assert type(got) is type(want) and got == want
    assert rank(matrix) == ref.rank(matrix)
    assert pivot_columns(matrix) == ref.pivot_columns(matrix)


@settings(max_examples=300)
@given(
    st.integers(0, 14),
    st.integers(0, 14),
    st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.8, 1.0)),
    st.randoms(use_true_random=False),
)
def test_random_systems_match_reference(rows, cols, density, rnd):
    row_bits = random_rows(rows, cols, density, rnd)
    target = BitVector(rows, rnd.getrandbits(rows) if rows else 0)
    assert_same_elimination(BitMatrix(rows, cols, row_bits), target)


@settings(max_examples=100)
@given(st.integers(1, 12), st.integers(1, 12), st.randoms(use_true_random=False))
def test_dependent_rows_match_reference(rank_bound, rows, rnd):
    # Rows drawn from a small span make inconsistent targets (duals) common.
    cols = rank_bound + rnd.randrange(4)
    basis = [rnd.getrandbits(cols) for _ in range(rank_bound)]
    row_bits = rows_in_span(basis, rows, rnd)
    target = BitVector(rows, rnd.getrandbits(rows))
    assert_same_elimination(BitMatrix(rows, cols, row_bits), target)


@pytest.mark.parametrize(
    "rows, cols, density",
    [(0, 0, 0.5), (0, 7, 0.5), (7, 0, 0.5), (3, 40, 0.5), (40, 3, 0.5), (9, 9, 0.0), (30, 60, 0.05)],
    ids=["empty", "no-rows", "no-columns", "wide", "tall", "all-zero", "sparse-wide"],
)
def test_shapes_match_reference(rows, cols, density):
    rnd = random.Random(rows * 1000 + cols)
    for _ in range(20):
        row_bits = random_rows(rows, cols, density, rnd)
        target = BitVector(rows, rnd.getrandbits(rows) if rows else 0)
        assert_same_elimination(BitMatrix(rows, cols, row_bits), target)


def dense_laplacian(n: int, seed: int) -> tuple[BitMatrix, int]:
    """The mod-2 Laplacian of a seeded G(n, 1/2), and the degree parities it is solved for."""
    rnd = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    parity = sum(1 << v for v in range(n) if adj[v].bit_count() & 1)
    return BitMatrix(n, n, tuple(adj[v] | (parity & (1 << v)) for v in range(n))), parity


def dense_head_on_banded_tail(
    rnd: random.Random, head: int = 2 * _CUTOVER, head_cols: int = 16 * _BLOCK, tail: int = 600
) -> tuple[tuple[int, ...], int]:
    """``head`` random rows over the first ``head_cols`` columns, on top of ``tail`` banded rows.

    Tail row t has bits t and t + 1, and bit t + 2 half the time, over
    ``tail + 2`` columns.  Returns the rows and the column count.
    """
    rows = [rnd.getrandbits(head_cols) for _ in range(head)]
    rows += [(3 | rnd.getrandbits(1) << 2) << t for t in range(tail)]
    return tuple(rows), tail + 2


def first_block_rows(row_bits: Sequence[int], cols: int) -> int:
    """Rows with a bit in the first column block: at least ``_CUTOVER`` of them run a block step."""
    low = (1 << min(_BLOCK, cols)) - 1
    return sum(1 for r in row_bits if r & low)


def test_dense_laplacian_matches_reference():
    for n in (300, 500, 1000):
        laplacian, parity = dense_laplacian(n, n)
        assert first_block_rows(laplacian.row_bits, n) >= _CUTOVER
        assert_same_elimination(laplacian, BitVector(n, parity))
        # The same matrix with a target outside its column space gives a dual.
        assert_same_elimination(laplacian, BitVector(n, parity ^ 1))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(_CUTOVER // 2, 3 * _CUTOVER // 2),
    st.integers(0, 100),
    st.sampled_from((0.05, 0.3, 0.5, 0.9)),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
)
def test_block_sized_systems_match_reference(rows, cols, density, span, seed):
    # The rows are drawn from a seeded generator: drawn one by one from hypothesis,
    # systems this large exceed its data budget.  A nonzero ``span`` draws every
    # row from the span of that many random rows, so duals are common.
    rnd = random.Random(seed)
    row_bits = random_rows(span or rows, cols, density, rnd)
    if span:
        row_bits = rows_in_span(row_bits, rows, rnd)
    target = BitVector(rows, rnd.getrandbits(rows))
    assert_same_elimination(BitMatrix(rows, cols, row_bits), target)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(0, 40),
    st.integers(0, 40),
    st.sampled_from((0.1, 0.3, 0.5, 0.9)),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
)
def test_block_steps_on_small_systems_match_reference(cutover, rows, cols, density, span, seed):
    # With the cut-over lowered, block steps run on small systems and alternate
    # with bucket steps: rows cleared by one block go on to the next in the
    # group, or settle into the buckets when too few rows would take it.
    rnd = random.Random(seed)
    row_bits = random_rows(span or rows, cols, density, rnd)
    if span:
        row_bits = rows_in_span(row_bits, rows, rnd)
    target = BitVector(rows, rnd.getrandbits(rows) if rows else 0)
    with mock.patch.object(gf2, "_CUTOVER", cutover):
        assert_same_elimination(BitMatrix(rows, cols, row_bits), target)


@contextmanager
def recorded_block_steps() -> Iterator[list[tuple[int, int, int, int]]]:
    """Record each block step run inside: (rows in the group, zero rows among
    them, rows that leave it for having no bit in the block, pivots)."""
    steps: list[tuple[int, int, int, int]] = []
    real = gf2._block_step

    def spy(ids, vals, shift, mask):
        rows, zeros = len(ids), vals.count(0)
        out = echelon, left, _, _ = real(ids, vals, shift, mask)
        steps.append((rows, zeros, len(left), len(echelon)))
        return out

    with mock.patch.object(gf2, "_block_step", spy):
        yield steps


def test_block_and_bucket_steps_alternate_under_a_lowered_cutover():
    # Eight rows in the first block, two more from the second on, and eight in
    # the third: with a cut-over of 6 the first and the third block take block
    # steps, and the second goes column by column between them.
    rnd = random.Random(7)
    k = _BLOCK
    row_bits = [rnd.getrandbits(k) | 1 for _ in range(k)]
    row_bits += [(1 | rnd.getrandbits(2 * k - 1) << 1) << k for _ in range(2)]
    row_bits += [(1 | rnd.getrandbits(k - 1) << 1) << 2 * k for _ in range(k)]
    matrix = BitMatrix(len(row_bits), 3 * k, tuple(row_bits))
    with mock.patch.object(gf2, "_CUTOVER", 6):
        with recorded_block_steps() as steps:
            full_rank = rank(matrix)
        assert len(steps) == 2 and full_rank > sum(step[3] for step in steps)
        for _ in range(10):
            assert_same_elimination(matrix, BitVector(matrix.rows, rnd.getrandbits(matrix.rows)))


@pytest.mark.parametrize("cols", [_REBASE - 1, _REBASE + 1, 2 * _REBASE - 1, 2 * _REBASE + 1, 200])
@pytest.mark.parametrize("span", [0, 30])
def test_widths_across_the_rebase_match_reference(cols, span):
    # Enough rows that a dense group outlives the last column, so its values
    # are shifted down at every multiple of _REBASE on the way.  A nonzero
    # ``span`` draws the rows from the span of that many, so rows clear to
    # zero in the group and most targets are inconsistent.
    rnd = random.Random(cols + span)
    rows = cols + _CUTOVER + _BLOCK
    for density in (0.1, 0.5):
        row_bits = random_rows(span or rows, cols, density, rnd)
        if span:
            row_bits = rows_in_span(row_bits, rows, rnd)
        matrix = BitMatrix(rows, cols, row_bits)
        with recorded_block_steps() as steps:
            pivot_columns(matrix)
        if span:
            assert any(zeros for _, zeros, _, _ in steps)
        elif density == 0.5:
            assert len(steps) == -(-cols // _BLOCK)
        assert_same_elimination(matrix, BitVector(rows, rnd.getrandbits(rows)))


def test_rows_that_leave_or_clear_to_zero_in_the_group_match_reference():
    # Rows 0..15, and every fourth row, repeat their first block in their
    # second.  Rows 0..15 hold the first block's pivots, so each such row
    # has no bit left in the second block once the first is cleared, and
    # leaves the group; it comes back, by bisection, at the block of its
    # lowest bit.  Every fifth row repeats an earlier one, so it clears to
    # zero in the group at the block where the earlier row is a pivot.
    rnd = random.Random(5)
    k = _BLOCK
    rows, cols = 3 * _CUTOVER, 6 * k
    row_bits: list[int] = []
    for i in range(rows):
        if i >= 16 and i % 5 == 0:
            row_bits.append(row_bits[rnd.randrange(i)])
            continue
        r = rnd.getrandbits(cols)
        if i < 16 or i % 4 == 0:
            r = r >> 2 * k << 2 * k | (r & (1 << k) - 1) * ((1 << k) + 1)
        row_bits.append(r)
    matrix = BitMatrix(rows, cols, tuple(row_bits))
    with recorded_block_steps() as steps:
        pivot_columns(matrix)
    assert len(steps) == 6
    assert steps[1][2] >= rows // 8 and any(zeros for _, zeros, _, _ in steps[1:-1])
    for _ in range(4):
        assert_same_elimination(matrix, BitVector(rows, rnd.getrandbits(rows)))


def test_dense_head_on_banded_tail_matches_reference():
    rnd = random.Random(11)
    row_bits, cols = dense_head_on_banded_tail(rnd)
    matrix = BitMatrix(len(row_bits), cols, row_bits)
    with recorded_block_steps() as steps:
        pivot_columns(matrix)
    # The group dissolves partway through, and bucket steps finish the tail.
    assert 0 < len(steps) < cols // _BLOCK // 2
    for _ in range(3):
        assert_same_elimination(matrix, BitVector(matrix.rows, rnd.getrandbits(matrix.rows)))


def test_sparse_tail_never_rides_in_the_group():
    # The banded tail rows that a head block fills leave the group at the
    # first block they have no bit in, so block steps stop one block after
    # the head's columns are pivoted and never touch more than the head and
    # the tail rows of about two blocks.  Block steps over every unpivoted
    # row would touch all of the tail in every block.
    head, head_cols = 2 * _CUTOVER, 16 * _BLOCK
    row_bits, cols = dense_head_on_banded_tail(random.Random(3), head, head_cols, tail=1500)
    with recorded_block_steps() as steps:
        rank(BitMatrix(len(row_bits), cols, row_bits))
    assert len(steps) <= head_cols // _BLOCK + 1
    assert max(rows for rows, _, _, _ in steps) <= head + 2 * _BLOCK
    assert sum(rows for rows, _, _, _ in steps) <= (head_cols // _BLOCK + 1) * (head + 2 * _BLOCK)


@pytest.mark.parametrize("cols", [40, 2 * _REBASE + 3])
def test_inconsistent_system_with_the_group_alive_at_the_last_column_matches_reference(cols):
    # Rows 0..first-1 are consistent with a random solution, row ``first`` is
    # not, and random rows follow.  first + 1 rows exceed cols + _CUTOVER, so
    # the group outlives the last column in both eliminations: the whole
    # system's and the identity-augmented one on rows 0..first.
    rnd = random.Random(cols)
    first = cols + _CUTOVER + 3 * _BLOCK
    row_bits = random_rows(first + 1 + 60, cols, 0.5, rnd)
    x = rnd.getrandbits(cols)
    target_bits = rnd.getrandbits(len(row_bits))
    for i in range(first + 1):
        consistent = (row_bits[i] & x).bit_count() & 1
        target_bits = target_bits & ~(1 << i) | (consistent ^ (i == first)) << i
    matrix, target = BitMatrix(len(row_bits), cols, row_bits), BitVector(len(row_bits), target_bits)
    sizes = []
    real = gf2._eliminate
    with mock.patch.object(gf2, "_eliminate", lambda rows, c: sizes.append(len(rows)) or real(rows, c)):
        with recorded_block_steps() as steps:
            result = solve_or_dual(matrix, target)
    assert isinstance(result, Dual) and sizes == [len(row_bits), first + 1]
    assert len(steps) == 2 * -(-cols // _BLOCK)
    assert_same_elimination(matrix, target)


def rank_deficient_blocks(rows: int, rnd: random.Random) -> tuple[int, ...]:
    """Rows over four blocks: random, all zero, rank 2 on the block, and random again.

    Every third row repeats an earlier one, so duplicates meet inside a block.
    """
    k = _BLOCK
    pair = (rnd.getrandbits(k), rnd.getrandbits(k))
    out: list[int] = []
    for i in range(rows):
        if i % 3 == 2:
            out.append(out[rnd.randrange(i)])
            continue
        low_rank = (pair[0] if rnd.random() < 0.5 else 0) ^ (pair[1] if rnd.random() < 0.5 else 0)
        out.append(rnd.getrandbits(k) | low_rank << 2 * k | rnd.getrandbits(k) << 3 * k)
    return tuple(out)


@pytest.mark.parametrize("rows", [_CUTOVER + 16, 2 * _CUTOVER])
def test_rank_deficient_blocks_match_reference(rows):
    rnd = random.Random(rows)
    for _ in range(5):
        matrix = BitMatrix(rows, 4 * _BLOCK, rank_deficient_blocks(rows, rnd))
        assert first_block_rows(matrix.row_bits, matrix.cols) >= _CUTOVER
        assert rank(matrix) < 4 * _BLOCK
        assert_same_elimination(matrix, BitVector(rows, rnd.getrandbits(rows)))


@pytest.mark.parametrize(
    "cols", [_BLOCK - 1, _BLOCK + 1, 8 * _BLOCK - 1, 8 * _BLOCK + 1, 12 * _BLOCK + 1]
)
def test_widths_off_the_block_match_reference(cols):
    rnd = random.Random(cols)
    for rows in (_CUTOVER + 16, 3 * _CUTOVER // 2):
        for density in (0.1, 0.5):
            row_bits = random_rows(rows, cols, density, rnd)
            target = BitVector(rows, rnd.getrandbits(rows))
            assert_same_elimination(BitMatrix(rows, cols, row_bits), target)


@pytest.mark.parametrize(
    "rows, cols", [(_CUTOVER + 16, 20), (_CUTOVER + 50, 40), (2 * _CUTOVER, 8), (_CUTOVER + 16, 140)]
)
def test_block_phase_duals_match_reference(rows, cols):
    # Far more rows than the rank: almost every target is inconsistent.
    rnd = random.Random(rows * cols)
    duals = 0
    for _ in range(4):
        basis = [rnd.getrandbits(cols) for _ in range(cols // 2)]
        matrix = BitMatrix(rows, cols, rows_in_span(basis, rows, rnd))
        assert first_block_rows(matrix.row_bits, cols) >= _CUTOVER
        target = BitVector(rows, rnd.getrandbits(rows))
        assert_same_elimination(matrix, target)
        duals += isinstance(solve_or_dual(matrix, target), Dual)
    assert duals >= 3


@pytest.mark.parametrize("first", [0, 5, _CUTOVER - 1, _CUTOVER, _CUTOVER + 20])
def test_duals_from_the_rows_up_to_the_first_inconsistent_one_match_reference(first):
    # Rows 0..first-1 are independent, row ``first`` repeats a combination of
    # them with the target flipped, and 300 random rows follow.  The dual's
    # elimination takes only rows 0..first, with block steps (first >=
    # _CUTOVER) or without, while the whole system takes them.
    rnd = random.Random(first)
    cols = 260
    for density in (0.1, 0.5):
        head = [r | 1 << i for i, r in enumerate(random_rows(first, cols, density, rnd))]
        chosen = [i for i in range(first) if rnd.random() < 0.5]
        again = 0
        for i in chosen:
            again ^= head[i]
        tail = list(random_rows(300, cols, 0.5, rnd))
        row_bits = tuple(head + [again] + tail)
        target_bits = rnd.getrandbits(len(row_bits))
        target_bits ^= ((target_bits >> first ^ sum(target_bits >> i for i in chosen)) & 1 ^ 1) << first
        matrix, target = BitMatrix(len(row_bits), cols, row_bits), BitVector(len(row_bits), target_bits)
        assert first_block_rows(row_bits, cols) >= _CUTOVER
        sizes = []
        real = gf2._eliminate
        with mock.patch.object(gf2, "_eliminate", lambda rows, c: sizes.append(len(rows)) or real(rows, c)):
            result = solve_or_dual(matrix, target)
        assert isinstance(result, Dual) and sizes == [len(row_bits), first + 1]
        assert_same_elimination(matrix, target)


@pytest.mark.parametrize("window", [_CUTOVER - 1, _CUTOVER, _CUTOVER + 1])
@pytest.mark.parametrize("density", [0.1, 0.5])
def test_block_rows_at_the_cutover_match_reference(window, density):
    # ``window`` rows have a bit in the first block; 40 more start after it.
    rnd = random.Random(window)
    for cols in (3 * _BLOCK, 3 * _BLOCK + 1, window):
        head = [r | 1 << rnd.randrange(_BLOCK) for r in random_rows(window, cols, density, rnd)]
        tail = [r >> _BLOCK << _BLOCK for r in random_rows(40, cols, density, rnd)]
        row_bits = head + tail
        rnd.shuffle(row_bits)
        assert first_block_rows(row_bits, cols) == window
        target = BitVector(len(row_bits), rnd.getrandbits(len(row_bits)))
        assert_same_elimination(BitMatrix(len(row_bits), cols, tuple(row_bits)), target)


@settings(max_examples=150)
@given(st.integers(1, 9), st.integers(1, 4), st.randoms(use_true_random=False))
def test_quotient_matrices_match_reference(size, q, rnd):
    entries = {}
    next_id = size
    for mask in rnd.sample(range(1 << size), rnd.randrange(min(1 << size, 40) + 1)):
        count = rnd.randrange(1, 2 * q + 1)
        entries[mask] = tuple(range(next_id, next_id + count))
        next_id += count
    table = TraceTable(core=tuple(range(size)), entries=entries)
    assert trace_class_matrix(table, q) == ref.trace_class_matrix(table, q)
    masks = list(entries)
    assert quotient_matrix(masks, range(size))[0] == ref.from_columns(
        [ref.quotient_coords(BitVector(size, mask), 0) for mask in masks], rows=size - 1
    )
    assert _spans(size, masks) == ref.spans(size, masks)


def test_quotient_matrix_rejects_out_of_range_masks():
    with pytest.raises(ValueError):
        quotient_matrix([0b1000], range(3))
    with pytest.raises(ValueError):
        quotient_matrix([], range(0))
    with pytest.raises(ValueError, match="^target mask 0x8 has a vertex outside the core$"):
        quotient_matrix([0b011], range(3), 0b1000)
