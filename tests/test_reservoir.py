import math
from collections import Counter

import pytest

import _reference_reservoir as ref
from modcert.absorb import TraceSelection, rank_rich, solve_defect
from modcert.reservoir import (
    ReservoirSpec,
    _draw_counts,
    _uniform_draws,
    estimate_availability,
    trial_rng,
    uniform_basis,
    uniform_sample_size,
)


def draw_counts(spec: ReservoirSpec, trial: int = 0) -> Counter:
    return _draw_counts(spec, trial_rng(spec.seed, trial))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirSpec(core_size=0, q=2, samples=10, trials=1, seed=0)
        with pytest.raises(ValueError):
            ReservoirSpec(core_size=3, q=3, samples=10, trials=1, seed=0)
        with pytest.raises(ValueError):
            ReservoirSpec(core_size=3, q=2, samples=0, trials=1, seed=0)
        with pytest.raises(ValueError):
            ReservoirSpec(core_size=2, q=2, samples=5, trials=1, seed=0,
                          distribution=((0b01, 0.6), (0b10, 0.6)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, bad):
        # A NaN sum compares false against the 1e-12 tolerance, so it needs its own check.
        with pytest.raises(ValueError, match="finite"):
            ReservoirSpec(core_size=2, q=1, samples=5, trials=2, seed=0,
                          distribution=((1, bad), (2, 0.5)))

    def test_explicit_distribution_accepted(self):
        spec = ReservoirSpec(core_size=2, q=2, samples=5, trials=1, seed=0,
                             distribution=((0b01, 0.5), (0b10, 0.5)))
        assert spec.distribution[0] == (0b01, 0.5)


class TestDrawCounts:
    def test_point_mass(self):
        spec = ReservoirSpec(core_size=3, q=2, samples=40, trials=1, seed=1,
                             distribution=(((0b101), 1.0),))
        assert draw_counts(spec) == {0b101: 40}

    def test_uniform_single_vertex_core(self):
        spec = ReservoirSpec(core_size=1, q=2, samples=50, trials=1, seed=2)
        counts = draw_counts(spec)
        assert set(counts) <= {0, 1}
        assert counts[0] + counts[1] == 50

    def test_uniform_counts_within_five_sigma(self):
        # 800 draws over 8 traces: mean 100, sigma = sqrt(800 * 1/8 * 7/8).
        spec = ReservoirSpec(core_size=3, q=2, samples=800, trials=1, seed=3)
        counts = draw_counts(spec)
        sigma = math.sqrt(800 * (1 / 8) * (7 / 8))
        for mask in range(8):
            assert abs(counts[mask] - 100) < 5 * sigma

    def test_reproducible(self):
        spec = ReservoirSpec(core_size=4, q=2, samples=100, trials=1, seed=99)
        assert draw_counts(spec) == draw_counts(spec)
        assert draw_counts(spec, trial=3) == draw_counts(spec, trial=3)
        assert draw_counts(spec) != draw_counts(spec, trial=1)

    def test_trial_streams_do_not_depend_on_order(self):
        draws_a = trial_rng(5, 7).getrandbits(64)
        trial_rng(5, 8).getrandbits(64)
        draws_b = trial_rng(5, 7).getrandbits(64)
        assert draws_a == draws_b


class TestEstimateAvailability:
    def test_saturated_sampling_never_fails(self):
        spec = ReservoirSpec(core_size=3, q=2, samples=500, trials=50, seed=4)
        report = estimate_availability(spec)
        assert report.failures == 0
        assert report.empirical_failure_rate == 0.0
        assert report.rank_rich_fraction == 1.0
        assert not report.advisory_small_sample

    def test_bound_value_pinned_across_seeds(self):
        # (m-1) exp(-N p / 8) with m=3, N=64, p=1/8: 2 exp(-1); N p = 8 >= 2q,
        # so the one-sided comparison applies, with 3-sigma binomial slack.
        for seed in range(10):
            spec = ReservoirSpec(core_size=3, q=2, samples=64, trials=200, seed=seed)
            report = estimate_availability(spec)
            assert report.bound == pytest.approx(2 * math.exp(-1), rel=1e-12)
            assert not report.advisory_small_sample
            sigma = math.sqrt(report.bound * (1 - report.bound) / spec.trials)
            assert report.empirical_failure_rate <= report.bound + 3 * sigma

    def test_small_sample_flagged_advisory(self):
        spec = ReservoirSpec(core_size=4, q=4, samples=32, trials=5, seed=6)
        report = estimate_availability(spec)
        assert report.advisory_small_sample  # N p = 2 < 2q = 8

    def test_basis_available_implies_every_label_solvable(self):
        for m in (3, 4, 5):
            spec = ReservoirSpec(core_size=m, q=2, samples=400, trials=8, seed=7)
            basis, _ = uniform_basis(m)
            covered = 0
            for trial in range(spec.trials):
                table = ref.sample_reservoir(spec, trial)
                if any(table.count(mask) < spec.q for mask in basis):
                    continue
                covered += 1
                spanning, _ = rank_rich(table, spec.q)
                assert spanning
                for bits in range(1 << m):
                    outcome = solve_defect(table, spec.q, bits)
                    assert isinstance(outcome, TraceSelection)
                    assert len(outcome.masks) <= m - 1
            assert covered > 0

    def test_explicit_distribution_requires_basis(self):
        spec = ReservoirSpec(core_size=2, q=2, samples=10, trials=2, seed=8,
                             distribution=((0b01, 0.5), (0b10, 0.5)))
        with pytest.raises(ValueError):
            estimate_availability(spec)
        report = estimate_availability(spec, basis=(0b01,))
        assert report.min_probability == 0.5

    def test_declared_basis_must_span(self):
        spec = ReservoirSpec(core_size=3, q=2, samples=10, trials=2, seed=9,
                             distribution=((0b011, 0.5), (0b110, 0.25), (0b101, 0.25)))
        with pytest.raises(ValueError):
            estimate_availability(spec, basis=(0b011, 0b011))

    def test_report_json_shape(self):
        spec = ReservoirSpec(core_size=3, q=2, samples=64, trials=20, seed=10)
        payload = estimate_availability(spec).to_json_dict()
        assert payload["rng"] == "mt19937"
        assert payload["spec"]["seed"] == 10
        assert len(payload["per_trial_failures"]) == 20
        assert set(payload["per_trial_failures"]) <= {"0", "1"}


class TestStreamPin:
    """Literals recorded from the per-sample getrandbits(m) draws.

    A change to how samples are drawn from the per-trial stream
    Random((seed << 32) + trial) fails here.
    """

    def test_failures_pinned(self):
        spec = ReservoirSpec(core_size=4, q=2, samples=60, trials=40, seed=7)
        report = estimate_availability(spec)
        assert report.per_trial_failures == "1000000000000001000000100100000010001000"
        assert report.rank_rich_fraction == 1.0

    def test_span_fraction_pinned(self):
        spec = ReservoirSpec(core_size=4, q=2, samples=16, trials=40, seed=7)
        assert estimate_availability(spec).rank_rich_fraction == 0.725

    def test_wide_samples_pinned(self):
        assert list(_uniform_draws(12, 4, trial_rng(7, 2))) == [[187, 2357, 3072, 1349]]
        assert list(_uniform_draws(40, 4, trial_rng(7, 2))) == [
            [631556436403, 363999344202, 1068151292457, 613676423427]]


class TestUniformSampleSize:
    def test_matches_formula(self):
        n = uniform_sample_size(4, 2, 0.1)
        expected = max(2 ** 5 * 2, 8 * 2 ** 4 * math.log(3 / 0.1))
        assert n == math.ceil(expected)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            uniform_sample_size(4, 2, 0.0)
