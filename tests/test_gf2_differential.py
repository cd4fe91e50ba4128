"""Differential tests: the packed-row elimination against the frozen reference copies.

``_reference_gf2`` keeps the three Gauss-Jordan loops and the column-by-column
quotient matrices.  Results must be equal, not merely valid: the same
``Solution`` or the same ``Dual``, the same rank and pivot columns, and the
same quotient matrix for every trace table and reservoir span check.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_gf2 as ref
from modcert.absorb import trace_class_matrix
from modcert.gf2 import BitMatrix, BitVector, pivot_columns, rank, solve_or_dual
from modcert.reservoir import _spans
from modcert.traces import TraceTable
from modcert.witness import quotient_matrix


def random_rows(rows: int, cols: int, density: float, rnd: random.Random) -> tuple[int, ...]:
    return tuple(
        sum(1 << j for j in range(cols) if rnd.random() < density) for _ in range(rows)
    )


def assert_same_elimination(matrix: BitMatrix, target: BitVector) -> None:
    assert solve_or_dual(matrix, target) == ref.solve_or_dual(matrix, target)
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
    row_bits = []
    for _ in range(rows):
        acc = 0
        for b in basis:
            if rnd.random() < 0.5:
                acc ^= b
        row_bits.append(acc)
    target = BitVector(rows, rnd.getrandbits(rows))
    assert_same_elimination(BitMatrix(rows, cols, tuple(row_bits)), target)


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


def test_dense_laplacian_matches_reference():
    n = 300
    rnd = random.Random(300)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    parity = sum(1 << v for v in range(n) if adj[v].bit_count() & 1)
    laplacian = BitMatrix(n, n, tuple(adj[v] | (parity & (1 << v)) for v in range(n)))
    assert_same_elimination(laplacian, BitVector(n, parity))
    # The same matrix with a target outside its column space gives a dual.
    assert_same_elimination(laplacian, BitVector(n, parity ^ 1))


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
    assert quotient_matrix(masks, size) == ref.from_columns(
        [ref.quotient_coords(BitVector(size, mask), 0) for mask in masks], rows=size - 1
    )
    assert _spans(size, masks) == ref.spans(size, masks)


def test_quotient_matrix_rejects_out_of_range_masks():
    with pytest.raises(ValueError):
        quotient_matrix([0b1000], 3)
    with pytest.raises(ValueError):
        quotient_matrix([], 0)
