import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcert.witness as witness_module
from modcert.absorb import solve_defect, twin_tail_decompose
from modcert.errors import InternalInvariantError
from modcert.gf2 import BitVector
from modcert.graph import induced_degrees
from modcert.parity import two_modular_part
from modcert.reservoir import ReservoirSpec
from modcert.traces import TraceTable
from modcert.witness import (
    ModularWitness,
    Regular,
    TooLarge,
    affine_lift_check,
    is_q_modular,
    quotient_matrix,
    terminal_check,
    top_bit_label,
)
from synth import realize_problem, twin_pair_example

from conftest import cycle, path, random_graph, star


def coords(values) -> BitVector:
    """Quotient coordinates of a vector of 0/1 entries over core positions."""
    vector = BitVector.from_bits(values)
    return quotient_matrix((), range(vector.length), vector.bits)[1]


class TestIsQModular:
    def test_regular_graph_any_modulus(self):
        check = is_q_modular(cycle(5), range(5), 1000)
        assert check == (True, 2, None)

    def test_star_odd_degrees_mod_two(self):
        check = is_q_modular(star(3), range(4), 2)
        assert check.modular and check.residue == 1

    def test_star_fails_mod_four(self):
        check = is_q_modular(star(3), range(4), 4)
        assert not check.modular
        u, v = check.conflict
        degs = {0: 3, 1: 1, 2: 1, 3: 1}
        assert degs[u] % 4 != degs[v] % 4

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            is_q_modular(cycle(3), range(3), 0)

    def test_empty_set(self):
        assert is_q_modular(cycle(3), set(), 2).modular


class TestModularWitness:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            ModularWitness.build(cycle(5), range(5), 3)

    def test_rejects_non_modular_set_with_conflict_names(self):
        with pytest.raises(ValueError) as err:
            ModularWitness.build(star(3), range(4), 4)
        assert "not 4-modular" in str(err.value)

    def test_residue_is_canonical(self):
        w = ModularWitness.build(cycle(5), range(5), 8)
        assert w.residue == 2


@pytest.mark.parametrize("q", [0, -2, 3, 6])
@pytest.mark.parametrize("step", [
    lambda q: ModularWitness.build(cycle(4), range(4), q),
    lambda q: solve_defect(TraceTable(core=(0, 1), entries={}), q, 0),
    lambda q: twin_tail_decompose(TraceTable(core=(0, 1), entries={}), q),
    lambda q: ReservoirSpec(core_size=2, q=q, samples=4, trials=1, seed=0),
], ids=["witness", "solve_defect", "twin_tail_decompose", "reservoir"])
def test_every_dyadic_step_rejects_a_modulus_alike(step, q):
    with pytest.raises(ValueError, match=f"^q must be a positive power of two, got {q}$"):
        step(q)


class TestTerminalCheck:
    def test_cycle_within_modulus(self):
        w = ModularWitness.build(cycle(5), range(5), 8)
        outcome = terminal_check(w)
        assert type(outcome) is Regular and outcome.degree == 2

    def test_independent_set(self):
        g = path(3)
        w = ModularWitness.build(g, {0, 2}, 4)
        outcome = terminal_check(w)
        assert type(outcome) is Regular and outcome.degree == 0

    def test_star_too_large(self):
        w = ModularWitness.build(star(3), range(4), 2)
        outcome = terminal_check(w)
        assert type(outcome) is TooLarge and (outcome.size, outcome.q) == (4, 2)


    def test_irregular_small_witness_raises_internal_error(self, monkeypatch):
        witness = ModularWitness.build(cycle(4), range(4), 4)
        monkeypatch.setattr(witness_module, "is_regular", lambda graph, members: (False, None))
        with pytest.raises(InternalInvariantError, match="must induce a regular subgraph"):
            terminal_check(witness)


class TestTopBitLabel:
    def test_defect_free_is_all_zero(self):
        # Degrees equal the residue on the nose, so no top bit is set.
        w = ModularWitness.build(cycle(4), range(4), 4)
        label = top_bit_label(w, range(4))
        assert set(label.labels.values()) == {0}

    def test_constant_one_labels(self):
        # All degrees are residue + q: labels all 1, a zero quotient class.
        w = ModularWitness.build(cycle(5), range(5), 2)
        label = top_bit_label(w, range(5))
        assert set(label.labels.values()) == {1}
        assert quotient_matrix((), range(5), label.mask())[1].is_zero()

    def test_worked_example_labels(self):
        problem, _ = twin_pair_example()
        assert [problem.label.labels[v] for v in problem.core] == [1, 0, 1, 0]

    def test_alternate_lift_flips_labels_same_class(self):
        problem, _ = twin_pair_example()
        w = problem.witness
        degs = induced_degrees(w.graph, w.members)
        d = w.residue
        canonical = [(degs[v] - d) // w.q % 2 for v in problem.core]
        shifted = [(degs[v] - d - w.q) // w.q % 2 for v in problem.core]
        assert all((a + b) % 2 == 1 for a, b in zip(canonical, shifted))
        assert coords(canonical) == coords(shifted)

    @pytest.mark.parametrize("seed", range(12))
    def test_labels_match_degrees_over_the_whole_witness(self, seed):
        """Labels read the induced degrees of the whole witness, as they did
        when every witness member's degree was computed first."""
        rng = random.Random(seed)
        m, q = rng.choice((3, 4, 5, 6)), rng.choice((2, 4))
        masks = rng.sample(range(1, 1 << m), rng.randint(1, min(6, (1 << m) - 1)))
        problem = realize_problem(m, q, masks, rng.getrandbits(m))
        assert problem is not None
        w = problem.witness
        degs = induced_degrees(w.graph, w.members)
        d = w.residue if w.residue is not None else 0
        subsets = [problem.core, w.members, rng.sample(sorted(w.members), len(w.members) // 2)]
        for subset in subsets:
            label = top_bit_label(w, subset)
            assert label.labels == {v: (degs[v] - d) // q % 2 for v in sorted(subset)}
            assert (label.base_lift, label.q) == (d, q)

    def test_subset_must_be_inside_witness(self):
        w = ModularWitness.build(cycle(4), {0, 1}, 2)
        with pytest.raises(ValueError):
            top_bit_label(w, {3})


    def test_wrong_residue_raises_internal_error(self, monkeypatch):
        real = witness_module.is_q_modular
        monkeypatch.setattr(
            witness_module, "is_q_modular",
            lambda graph, members, q: real(graph, members, q)._replace(residue=1),
        )
        witness = ModularWitness.build(cycle(4), range(4), 2)
        with pytest.raises(InternalInvariantError, match="defining congruence"):
            top_bit_label(witness, range(4))


class TestQuotientCoords:
    def test_constant_vector_maps_to_zero(self):
        assert coords([1, 1, 1]).is_zero()
        assert coords([0, 0, 0]).is_zero()

    def test_base_indicator_maps_to_all_ones(self):
        assert coords([1, 0, 0]) == BitVector.from_bits([1, 1])

    def test_zero_base_entry_copies_vector(self):
        assert coords([0, 1, 0, 1, 0]) == BitVector.from_bits([1, 0, 1, 0])

    def test_base_out_of_range(self):
        # A vector of length 0 has no entry 0 to be the base.
        with pytest.raises(ValueError):
            coords([])

    @settings(max_examples=80)
    @given(st.integers(1, 10), st.randoms(use_true_random=False))
    def test_equal_coords_iff_constant_shift(self, n, rnd):
        x, y = rnd.getrandbits(n), rnd.getrandbits(n)
        same = quotient_matrix((), range(n), x)[1] == quotient_matrix((), range(n), y)[1]
        assert same == (x ^ y in (0, (1 << n) - 1))


class TestAffineLiftCheck:
    def test_whole_witness_reduces_to_double_modulus(self):
        w = ModularWitness.build(cycle(4), range(4), 2)
        assert affine_lift_check(w, range(4)) == is_q_modular(cycle(4), range(4), 4).modular

    def test_worked_example_core_lifts(self):
        problem, _ = twin_pair_example()
        assert affine_lift_check(problem.witness, problem.core)

    def test_agrees_with_direct_check_on_random_instances(self):
        rng = random.Random(99)
        hits = 0
        for _ in range(150):
            g = random_graph(rng.randrange(2, 26), rng.choice([0.2, 0.5, 0.8]), rng)
            members = two_modular_part(g)
            if not members:
                continue
            w = ModularWitness.build(g, members, 2)
            subset = {v for v in members if rng.random() < 0.6}
            expected = is_q_modular(g, subset, 4).modular
            assert affine_lift_check(w, subset) == expected
            hits += expected
        assert hits > 0
