import random
import time

import pytest

from modcert.errors import InternalInvariantError
from modcert.traces import tail_degrees
from modcert.witness import is_q_modular, quotient_matrix
import synth as synth_module
from synth import path_pair_trace_problem, realize_problem, twin_pair_example


def assert_realizes(problem, m, q, masks, label):
    assert problem.q == q
    assert len(problem.core) == m
    realized = set(problem.table.available_masks(q)) - {0}
    assert realized == set(masks)
    want = quotient_matrix((), range(m), label)[1]
    got = quotient_matrix((), range(m), problem.label)[1]
    assert want == got
    assert is_q_modular(problem.graph, problem.witness.members, q).modular


@pytest.mark.parametrize("m,q,masks,label", [
    (3, 2, [0b011, 0b110], 0b001),
    (3, 2, [], 0b011),
    (3, 4, [0b001, 0b010, 0b100], 0b111),
    (4, 2, [0b0011, 0b1100], 0b0001),
    (4, 4, [0b0011, 0b0110, 0b1100, 0b0001], 0b1010),
    (5, 2, [0b00011, 0b00110, 0b01100, 0b11000], 0b00101),
    (5, 4, [0b00001, 0b00010, 0b00100, 0b01000, 0b10000], 0b01110),
    (2, 2, [0b10], 0b01),
    (1, 2, [], 0b1),
])
def test_realize_requested_configurations(m, q, masks, label):
    problem = realize_problem(m, q, masks, label)
    assert problem is not None
    assert_realizes(problem, m, q, masks, label)


def test_unrealizable_two_core_separation():
    # With no available singleton, splitting two core vertices by exactly q
    # would need q sub-threshold copies of a separating trace; none exists.
    assert realize_problem(2, 2, [], 0b01) is None
    assert realize_problem(2, 2, [0b11], 0b01) is None


def test_invalid_arguments():
    with pytest.raises(ValueError):
        realize_problem(0, 2, [], 0)
    with pytest.raises(ValueError):
        realize_problem(3, 3, [], 0)
    with pytest.raises(ValueError):
        realize_problem(3, 2, [0], 0)
    with pytest.raises(ValueError):
        realize_problem(3, 2, [0b1000], 0)


def test_realization_is_deterministic():
    first = realize_problem(4, 2, [0b0011, 0b0110], 0b0100)
    second = realize_problem(4, 2, [0b0011, 0b0110], 0b0100)
    assert first is not None and second is not None
    assert first.graph == second.graph
    assert first.table == second.table


def test_twin_pair_example_shape():
    problem, blocks = twin_pair_example()
    assert problem.q == 2
    assert [problem.label >> v & 1 for v in problem.core] == [1, 0, 1, 0]
    assert problem.table.entries == {0b0001: (4, 5), 0b0100: (6, 7)}
    assert [mask for mask, _ in blocks] == [0b0001, 0b0100]
    assert tail_degrees(problem.table) == (2, 0, 2, 0)


def test_path_problem_heavy_pairs():
    problem = path_pair_trace_problem(2)
    available = set(problem.table.available_masks(2)) - {0}
    assert available == {0b00011, 0b00110, 0b01100, 0b11000}


def test_realize_q4_label_classes_cover_complement():
    # The realized label may be the complement representative; the class in
    # the quotient is what is guaranteed.
    problem = realize_problem(3, 4, [0b011, 0b101], 0b010)
    assert problem is not None
    assert problem.label in (0b010, 0b101)


def test_unrealizable_path_problem_raises_internal_error(monkeypatch):
    monkeypatch.setattr(synth_module, "realize_problem", lambda *args, **kwargs: None)
    with pytest.raises(InternalInvariantError, match="must be realizable"):
        path_pair_trace_problem()


def test_twin_pair_example_without_blocks_raises_internal_error(monkeypatch):
    monkeypatch.setattr(synth_module, "twin_tail_decompose", lambda table, q: None)
    with pytest.raises(InternalInvariantError, match="must decompose into twin blocks"):
        twin_pair_example()


def test_large_core_with_odd_defect_count_returns_quickly():
    # An odd defect count with no odd available trace falls through to the
    # unavailable odd traces of a 70-vertex core: 2^70 masks, each with up
    # to (k-1)!! pairings of the k defects, must not be listed in full.
    rng = random.Random(70)
    mask = 0b11 << 3
    for seed_label in range(3):
        label = rng.getrandbits(70)
        start = time.monotonic()
        problem = realize_problem(70, 2, [mask], label)
        assert time.monotonic() - start < 5
        assert problem is not None, seed_label
        assert_realizes(problem, 70, 2, [mask], label)
