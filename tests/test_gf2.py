import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_gf2 import quotient_coords
from modcert.gf2 import (
    BitMatrix,
    BitVector,
    Dual,
    Solution,
    mat_vec,
    pivot_columns,
    rank,
    solve_or_dual,
)
from modcert.witness import quotient_matrix


def naive_solve(rows, cols, row_bits, target_bits):
    """Reference elimination on dense 0/1 lists; returns a solution or None."""
    a = [[row_bits[i] >> j & 1 for j in range(cols)] + [target_bits >> i & 1] for i in range(rows)]
    pivots = []
    r = 0
    for j in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][j]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(rows):
            if i != r and a[i][j]:
                a[i] = [(x + y) % 2 for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
    for i in range(r, rows):
        if a[i][cols]:
            return None
    x = [0] * cols
    for idx, j in enumerate(pivots):
        x[j] = a[idx][cols]
    return x


class TestVectors:
    def test_mat_vec_identity(self):
        x = BitVector.from_bits([1, 0, 1])
        assert mat_vec(BitMatrix(3, 3, (0b001, 0b010, 0b100)), x) == x

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec(BitMatrix(3, 3, (0b001, 0b010, 0b100)), BitVector(2))

    @pytest.mark.parametrize("build", [
        lambda: BitVector(-1),
        lambda: BitVector(2, 0b100),
        lambda: BitVector(2, -1),
        lambda: BitMatrix(-1, 0, ()),
        lambda: BitMatrix(1, -1, (0,)),
        lambda: BitMatrix(2, 2, (0,)),
        lambda: BitMatrix(1, 2, (0b100,)),
        lambda: BitMatrix(1, 2, (-1,)),
    ])
    def test_constructors_validate(self, build):
        with pytest.raises(ValueError):
            build()

    def test_fields_and_repr(self):
        x = BitVector(length=3, bits=0b101)
        assert (x.length, x.bits, repr(x)) == (3, 0b101, "BitVector(length=3, bits=5)")
        assert BitVector(4) == BitVector(4, 0)
        m = BitMatrix(rows=1, cols=2, row_bits=(0b11,))
        assert repr(m) == "BitMatrix(rows=1, cols=2, row_bits=(3,))"


class TestSolveOrDual:
    def test_identity_system(self):
        result = solve_or_dual(BitMatrix(2, 2, (0b01, 0b10)), BitVector.from_bits([1, 0]))
        assert isinstance(result, Solution)
        assert result.x == BitVector.from_bits([1, 0])

    def test_zero_matrix_dual(self):
        result = solve_or_dual(BitMatrix(1, 1, (0,)), BitVector.from_bits([1]))
        assert isinstance(result, Dual)
        assert result.y == BitVector.from_bits([1])

    def test_path_pair_trace_columns(self):
        # Quotient columns of the four path pair traces on a 5-core, target
        # the coordinates of the label (1,0,1,0,0); the canonical solution
        # picks exactly the first two traces.
        core = 5
        masks = [0b00011, 0b00110, 0b01100, 0b11000]
        matrix, target = quotient_matrix(masks, range(core), 0b00101)
        result = solve_or_dual(matrix, target)
        assert isinstance(result, Solution)
        assert result.x == BitVector.from_bits([1, 1, 0, 0])

    def test_empty_system(self):
        result = solve_or_dual(BitMatrix(0, 0, ()), BitVector(0))
        assert isinstance(result, Solution)

    def test_deterministic(self):
        m = BitMatrix(3, 3, (0b011, 0b110, 0b101))
        t = BitVector.from_bits([1, 1, 0])
        first = solve_or_dual(m, t)
        second = solve_or_dual(m, t)
        assert first == second


class TestRank:
    def test_zero(self):
        assert rank(BitMatrix(3, 4, (0, 0, 0))) == 0

    def test_identity(self):
        assert rank(BitMatrix(5, 5, tuple(1 << i for i in range(5)))) == 5

    def test_all_pairs_on_four_core(self):
        # Quotient classes of the six pair traces on a 4-core span a space of
        # dimension 2: enumerate the GF(2) closure explicitly and compare.
        core = 4
        masks = [m for m in range(1 << core) if bin(m).count("1") == 2]
        columns = [quotient_coords(BitVector(core, m), 0) for m in masks]
        span = {0}
        for col in columns:
            span |= {x ^ col.bits for x in span}
        target_rank = rank(quotient_matrix(masks, range(core))[0])
        assert len(span) == 1 << target_rank
        assert target_rank == 2

    def test_pivot_columns_reproduce_rank(self):
        m = BitMatrix(3, 4, (0b0011, 0b0110, 0b0101))
        assert len(pivot_columns(m)) == rank(m)


@settings(max_examples=120)
@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.randoms(use_true_random=False),
)
def test_round_trip_property(rows, cols, rnd):
    row_bits = tuple(rnd.getrandbits(cols) for _ in range(rows))
    matrix = BitMatrix(rows, cols, row_bits)
    target = BitVector(rows, rnd.getrandbits(rows) if rows else 0)
    result = solve_or_dual(matrix, target)
    if isinstance(result, Solution):
        assert mat_vec(matrix, result.x) == target
    else:
        combined = 0
        for i in range(rows):
            if result.y.bits >> i & 1:
                combined ^= row_bits[i]
        assert combined == 0
        assert (result.y.bits & target.bits).bit_count() % 2 == 1


@settings(max_examples=60)
@given(st.integers(0, 6), st.integers(0, 6), st.randoms(use_true_random=False))
def test_rank_nullity_by_enumeration(rows, cols, rnd):
    matrix = BitMatrix(rows, cols, tuple(rnd.getrandbits(cols) for _ in range(rows)))
    kernel = sum(
        1
        for bits in range(1 << cols)
        if mat_vec(matrix, BitVector(cols, bits)).is_zero()
    )
    assert kernel == 1 << (cols - rank(matrix))


def test_agreement_with_reference_elimination():
    rnd = random.Random(20240817)
    for size in (1, 2, 3, 8, 17, 33, 64):
        for _ in range(8):
            rows, cols = size, rnd.randrange(1, size + 1)
            row_bits = tuple(rnd.getrandbits(cols) for _ in range(rows))
            target = rnd.getrandbits(rows)
            matrix = BitMatrix(rows, cols, row_bits)
            ours = solve_or_dual(matrix, BitVector(rows, target))
            reference = naive_solve(rows, cols, row_bits, target)
            if reference is None:
                assert isinstance(ours, Dual)
            else:
                assert isinstance(ours, Solution)
                assert mat_vec(matrix, ours.x) == BitVector(rows, target)
