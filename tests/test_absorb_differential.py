"""Differential tests: the one cut predicate against the two checks it replaced.

``_reference_absorb`` keeps the vertex-level ``verify_parity_cut`` and the
position-level ``_assert_cut_valid``.  On realized problems and arbitrary
candidate cuts the new code must give the same verdict, the same failure
reason, or raise the same exception type.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _reference_absorb as ref
from modcert.absorb import CutPositions, ParityCut, _cut_failure, solve_core_correction, verify_parity_cut
from modcert.errors import InternalInvariantError
from modcert.synth import realize_problem


@st.composite
def problems(draw):
    m = draw(st.integers(1, 5))
    q = draw(st.sampled_from((2, 4)))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(1, full), max_size=4)) if m > 1 else []
    problem = realize_problem(m, q, masks, draw(st.integers(0, full)))
    assume(problem is not None)
    return problem


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ValueError, TypeError, InternalInvariantError) as exc:
        return "raises", type(exc)


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_verify_parity_cut_matches_reference(problem, data):
    # Core subsets or the solver's own cut; sometimes a tail or out-of-range vertex as well.
    members = set(data.draw(st.lists(st.sampled_from(problem.core), unique=True)))
    cert = solve_core_correction(problem)
    if isinstance(cert, ParityCut) and data.draw(st.booleans()):
        members = set(cert.members)
    members |= set(data.draw(st.lists(st.integers(-1, problem.graph.n), max_size=1)))
    assert outcome(verify_parity_cut, problem, members) == outcome(ref.verify_parity_cut, problem, members)


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_cut_predicate_matches_reference_assertion(problem, data):
    cut_mask = data.draw(st.integers(0, (1 << len(problem.core)) - 1))
    positions = tuple(p for p in range(len(problem.core)) if cut_mask >> p & 1)
    label_bits = problem.label_bits()
    try:
        ref.assert_cut_valid(problem.table, problem.q, label_bits, CutPositions(positions))
        expected = None
    except InternalInvariantError as exc:
        expected = str(exc)
    assert _cut_failure(problem.table, problem.q, label_bits, cut_mask) == expected
