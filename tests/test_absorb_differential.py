"""Differential tests: the one cut predicate against the two checks it replaced.

``_reference_absorb`` keeps the vertex-level ``verify_parity_cut`` and the
position-level ``_assert_cut_valid``; both read trace masks over core
positions from the frozen ``_reference_traces``, while the cut predicate
reads vertex-id masks off the graph and builds no trace table.  On realized problems, relabeled so that core ids
are not core positions, and arbitrary candidate cuts the new code must give
the same verdict, the same failure reason, or raise the same exception type.
"""

from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _reference_absorb as ref
import _reference_traces
from modcert.absorb import ParityCut, _cut_failure, solve_core_correction, verify_parity_cut
from modcert.errors import InternalInvariantError
from modcert.gf2 import BitVector
from modcert.graph import mask_of
from synth import realize_problem

from conftest import relabeled


@st.composite
def problems(draw):
    m = draw(st.integers(1, 5))
    q = draw(st.sampled_from((2, 4)))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(1, full), max_size=4)) if m > 1 else []
    problem = realize_problem(m, q, masks, draw(st.integers(0, full)))
    assume(problem is not None)
    return relabeled(problem, draw(st.randoms(use_true_random=False)))


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
    core = problem.core
    chosen = data.draw(st.integers(0, (1 << len(core)) - 1))
    positions = tuple(p for p in range(len(core)) if chosen >> p & 1)
    table = _reference_traces.compute_traces(problem.graph, core, problem.witness.members - set(core))
    label_bits = BitVector.from_bits(problem.label.labels[v] for v in core)
    try:
        ref.assert_cut_valid(table, problem.q, label_bits, SimpleNamespace(positions=positions))
        expected = None
    except InternalInvariantError as exc:
        expected = str(exc)
    cut_mask = mask_of(core[p] for p in positions)
    assert _cut_failure(problem, cut_mask) == expected
