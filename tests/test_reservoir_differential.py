"""Differential tests: the block-drawn reservoir samples and the trial loop against the frozen reference.

``_reference_reservoir`` keeps the per-sample ``getrandbits(m)`` loop, the
linear scan of the cumulative bounds, and the trial loop that counts every
draw and runs the span check in every trial.  Results must be equal, not
merely alike in distribution: the same values in the same order, the same
generator state afterwards, and the same reports and draw counts.  The
report cases include failing trials, where the span check decides, and
trials whose available traces do not span.  The early-verdict cases sit
around one MT19937 state (624 samples), where a byte-drawn trial decides
whether it needs the rest of its draws.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_reservoir as ref
import modcert.reservoir as reservoir
from modcert.reservoir import ReservoirSpec, estimate_availability, trial_rng

WIDTHS = list(range(1, 71)) + [96, 97, 128]

# (m, q, samples, trials) of the reservoir-sweep benchmark.
BENCH_CONFIGS = ((3, 2, 192, 4000), (4, 2, 436, 3000), (4, 4, 436, 3000), (6, 2, 2003, 1500))


def drawn(m: int, n: int, rng: random.Random) -> list[int]:
    return [v for block in reservoir._uniform_draws(m, n, rng) for v in block]


@pytest.mark.parametrize("m", WIDTHS)
def test_draws_match_getrandbits_across_blocks(monkeypatch, m):
    monkeypatch.setattr(reservoir, "_BLOCK", 4)
    for n in range(1, 12):
        seed = m * 1000 + n
        rng, expected_rng = random.Random(seed), random.Random(seed)
        assert drawn(m, n, rng) == [expected_rng.getrandbits(m) for _ in range(n)]
        assert rng.getstate() == expected_rng.getstate()


@pytest.mark.parametrize("m", [1, 3, 8, 9, 32, 33, 64, 65])
def test_draws_match_getrandbits_at_full_block(m):
    for n in (2003, reservoir._BLOCK + 3):
        rng, expected_rng = random.Random(m), random.Random(m)
        assert drawn(m, n, rng) == [expected_rng.getrandbits(m) for _ in range(n)]
        assert rng.getstate() == expected_rng.getstate()


def test_blocks_are_bounded(monkeypatch):
    monkeypatch.setattr(reservoir, "_BLOCK", 5)
    sizes = [len(block) for block in reservoir._uniform_draws(3, 12, random.Random(0))]
    assert sizes == [5, 5, 2]


def assert_same_report(spec, basis=None):
    got = estimate_availability(spec, basis)
    assert got.to_json_dict() == ref.estimate_availability(spec, basis).to_json_dict()
    return got


@pytest.mark.parametrize("seed", [1, 123456789, 2 ** 31 - 1])
@pytest.mark.parametrize("m,q,samples,trials", BENCH_CONFIGS)
def test_bench_reports_match_reference(m, q, samples, trials, seed):
    assert_same_report(ReservoirSpec(core_size=m, q=q, samples=samples, trials=trials, seed=seed))


# Small tails, where trials fail and the span check decides: per m, a tail
# of a few samples per core vertex and one of about q samples per mask.
FAILING_SPECS = [
    ReservoirSpec(core_size=m, q=q, samples=samples, trials=40, seed=100 * m + q)
    for m in range(1, 11)
    for q in (1, 2, 4)
    for samples in (3 * m, q << m)
]


def test_failing_trials_match_reference():
    failing = spanning_failures = 0
    for spec in FAILING_SPECS:
        report = assert_same_report(spec)
        failing += report.failures
        spanning_failures += round(report.rank_rich_fraction * spec.trials) - (spec.trials - report.failures)
    # Both outcomes of the span check occur in failing trials.
    assert 0 < spanning_failures < failing


@pytest.mark.parametrize("m", [1, 3, 8, 9])
def test_multi_block_trials_match_reference(monkeypatch, m):
    # Tails over several blocks take the counted path even for m <= 8.
    monkeypatch.setattr(reservoir, "_BLOCK", 16)
    for samples in (15, 16, 17, 50):
        assert_same_report(ReservoirSpec(core_size=m, q=2, samples=samples, trials=30, seed=m))


@pytest.mark.parametrize("basis", [(), (0,), (1,), (2,), (255,), (256,), (300,), (-1,), (1, 1)])
def test_single_vertex_core_with_user_basis_matches_reference(basis):
    # A one-vertex core has a trivial quotient, so its only basis is empty;
    # any other is rejected as it is for larger cores, not run.
    for samples in (1, 4, 9):
        spec = ReservoirSpec(core_size=1, q=2, samples=samples, trials=25, seed=samples)
        if basis:
            with pytest.raises(ValueError, match="basis must have 0 traces"):
                estimate_availability(spec, basis)
        else:
            assert_same_report(spec, basis)


@pytest.mark.parametrize("m,basis,message", [
    (2, (), "basis must have 1 traces"),
    (2, (0b10, 0b01), "basis must have 1 traces"),
    (2, (-1,), "outside the core"),
    (3, (0b010, 0b1000), "outside the core"),
    (8, (1 << 8,) * 7, "outside the core"),
])
def test_user_basis_of_wrong_length_or_outside_the_core_rejected(m, basis, message):
    with pytest.raises(ValueError, match=message):
        estimate_availability(ReservoirSpec(core_size=m, q=2, samples=8, trials=2, seed=0), basis)


# One MT19937 state: a byte-drawn trial decides from this many samples first.
STATE = 624


def first_state_decides(spec: ReservoirSpec, trial: int) -> bool:
    """Whether every basis mask reaches q among the trial's first STATE samples,
    recounted from the documented stream without modcert."""
    rng = random.Random((spec.seed << 32) + trial)
    first = [rng.getrandbits(spec.core_size) for _ in range(min(spec.samples, STATE))]
    return all(first.count(1 << i) >= spec.q for i in range(1, spec.core_size))


@pytest.mark.parametrize("samples", [1, STATE - 1, STATE, STATE + 1, 2003])
@pytest.mark.parametrize("m,q", [(1, 2), (3, 1), (3, 2), (6, 2), (6, 4), (8, 1)])
def test_early_verdict_matches_reference_around_one_state(m, q, samples):
    assert_same_report(ReservoirSpec(core_size=m, q=q, samples=samples, trials=40, seed=1000 * m + samples))


@pytest.mark.parametrize("m,q,samples,seed", [(6, 8, 2003, 5), (5, 16, 1000, 7)])
def test_basis_reaching_q_after_the_first_state_matches_reference(m, q, samples, seed):
    spec = ReservoirSpec(core_size=m, q=q, samples=samples, trials=80, seed=seed)
    report = assert_same_report(spec)
    late = [t for t in range(spec.trials)
            if not first_state_decides(spec, t) and report.per_trial_failures[t] == "0"]
    # Some trials pass only on samples past the first state: the early check alone would fail them.
    assert late


@pytest.mark.parametrize("m,q,samples", [(4, 64, STATE + 1), (6, 32, 2003), (3, 64, 500)])
def test_large_q_where_most_trials_fail_matches_reference(m, q, samples):
    spec = ReservoirSpec(core_size=m, q=q, samples=samples, trials=60, seed=q + samples)
    report = assert_same_report(spec)
    assert report.failures > spec.trials // 2


@pytest.mark.parametrize("samples", [STATE - 1, STATE, STATE + 1, 2003])
def test_byte_trials_draw_the_rest_only_when_undecided(monkeypatch, samples):
    calls = []  # per seed() call: its argument and the widths drawn after it

    class SpyRandom(random.Random):
        def seed(self, a=None, version=2):
            calls.append((a, []))
            super().seed(a, version)

        def getrandbits(self, k):
            calls[-1][1].append(k)
            return super().getrandbits(k)

    spec = ReservoirSpec(core_size=6, q=4, samples=samples, trials=120, seed=9)
    monkeypatch.setattr(random, "Random", SpyRandom)
    report = estimate_availability(spec)
    monkeypatch.undo()
    assert report.to_json_dict() == ref.estimate_availability(spec).to_json_dict()
    # One generator for the spec, built unseeded and then reseeded per trial.
    assert calls[0] == (None, [])
    first = min(samples, STATE)
    expected = []
    for trial in range(spec.trials):
        widths = [32 * first]
        if samples > first and not first_state_decides(spec, trial):
            widths.append(32 * (samples - first))
        expected.append(((spec.seed << 32) + trial, widths))
    assert calls[1:] == expected
    if samples > STATE:
        # Trials of both kinds occur.
        assert 0 < sum(len(widths) == 2 for _, widths in expected) < spec.trials


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.sampled_from([1, 2, 4]), st.integers(1, 80), st.integers(1, 12),
       st.integers(0, 2 ** 40))
def test_random_reports_match_reference(m, q, samples, trials, seed):
    assert_same_report(ReservoirSpec(core_size=m, q=q, samples=samples, trials=trials, seed=seed))


def assert_same_draws(spec):
    """Every trial counts the same masks as the reference, in order of first draw."""
    for trial in range(spec.trials):
        got = reservoir._draw_counts(spec, trial_rng(spec.seed, trial))
        assert list(got.items()) == list(ref._draw_counts(spec, trial_rng(spec.seed, trial)).items())


# Samples wider than a byte, and tails of more than one block, reach
# ``_uniform_draws`` through ``_draw_counts``.
@pytest.mark.parametrize("m,samples", [(1, 300), (2, 300), (5, 300), (8, 300), (9, 300), (31, 300),
                                       (33, 300), (70, 300), (3, reservoir._BLOCK + 3),
                                       (9, reservoir._BLOCK + 3)])
def test_uniform_draws_match_reference(m, samples):
    spec = ReservoirSpec(core_size=m, q=2, samples=samples, trials=3, seed=11)
    assert_same_draws(spec)
    assert_same_report(spec)


def test_explicit_draws_match_reference():
    spec = ReservoirSpec(core_size=3, q=2, samples=500, trials=3, seed=12,
                         distribution=((0b011, 0.5), (0b110, 0.0), (0b101, 0.25), (0b111, 0.25)))
    assert_same_draws(spec)
    assert_same_report(spec, (0b011, 0b101))


def test_explicit_reports_with_failing_trials_match_reference():
    # Rare basis traces: most trials fail, and the span check then rests on
    # the other available traces.
    spec = ReservoirSpec(core_size=4, q=2, samples=30, trials=60, seed=21,
                         distribution=((0b0010, 0.05), (0b0100, 0.05), (0b1000, 0.05),
                                       (0b0110, 0.35), (0b1100, 0.3), (0b0000, 0.2)))
    report = assert_same_report(spec, (0b0010, 0b0100, 0b1000))
    assert 0 < report.failures < spec.trials
    assert report.rank_rich_fraction < 1


class ScriptedRng:
    """Hands out fixed values from ``random()``, in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@st.composite
def distributions_and_draws(draw):
    weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8).filter(any))
    masks = draw(st.lists(st.integers(0, 15), min_size=len(weights), max_size=len(weights),
                          unique=True))
    total = sum(weights)
    distribution = tuple((mask, w / total) for mask, w in zip(masks, weights))
    bounds = []
    acc = 0.0
    for _, prob in distribution:
        acc += prob
        bounds.append(acc)
    u = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from(bounds),
        st.floats(bounds[-1], 1.0, exclude_max=True) if bounds[-1] < 1.0 else st.just(0.0),
    )
    return distribution, draw(st.lists(u, min_size=1, max_size=30))


@settings(max_examples=300)
@given(distributions_and_draws())
def test_bisect_matches_linear_scan(case):
    distribution, us = case
    spec = ReservoirSpec(core_size=4, q=2, samples=len(us), trials=1, seed=0,
                         distribution=distribution)
    got = reservoir._draw_counts(spec, ScriptedRng(us))
    expected = ref._draw_counts(spec, ScriptedRng(us))
    assert list(got.items()) == list(expected.items())


def test_bisect_on_and_past_the_bounds():
    # Bounds 0.25, 0.25, 0.75, 0.875, 1.0: u on a bound takes the next mask
    # with positive weight.  The bounds of ``short`` end below 1, and u at or
    # past its last bound takes the last mask.
    spec = ReservoirSpec(core_size=4, q=1, samples=1, trials=1, seed=0,
                         distribution=((1, 0.25), (2, 0.0), (4, 0.5), (8, 0.125), (0, 0.125)))
    short = ReservoirSpec(core_size=4, q=1, samples=1, trials=1, seed=0,
                          distribution=((1, 0.25), (2, 0.0), (4, 0.5), (8, 0.25 - 1e-13)))
    cases = [(spec, 0.0, 1), (spec, 0.25, 4), (spec, 0.75, 8), (spec, 0.875, 0), (spec, 0.999, 0),
             (short, 1.0 - 1e-13, 8), (short, 0.9999999999999, 8)]
    for case, u, mask in cases:
        got = reservoir._draw_counts(case, ScriptedRng([u]))
        assert got == ref._draw_counts(case, ScriptedRng([u])) == {mask: 1}
