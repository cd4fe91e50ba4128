"""Frozen reference copies of the reservoir draws and the availability loop.

``_draw_counts`` and ``sample_reservoir`` are as they were before the
uniform samples were drawn in whole-word blocks: one ``getrandbits(m)`` call
per sample, and a linear scan of the cumulative bounds for an explicit
distribution.  ``estimate_availability`` is the trial loop as it was before
a trial that keeps its basis skipped the span check: every trial counts all
of its draws and runs the elimination.  They exist only as the oracle for the
differential tests in ``test_reservoir_differential.py``; do not edit them to
follow changes in ``modcert``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Sequence

from modcert.gf2 import rank
from modcert.reservoir import AvailabilityReport, ReservoirSpec, uniform_basis
from modcert.traces import TraceTable
from modcert.witness import quotient_matrix


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((seed << 32) + trial)


def _draw_counts(spec: ReservoirSpec, rng: random.Random) -> Counter:
    counts: Counter = Counter()
    if spec.distribution == "uniform":
        m = spec.core_size
        for _ in range(spec.samples):
            counts[rng.getrandbits(m)] += 1
        return counts
    masks = [mask for mask, _ in spec.distribution]
    cumulative = []
    acc = 0.0
    for _, prob in spec.distribution:
        acc += prob
        cumulative.append(acc)
    for _ in range(spec.samples):
        u = rng.random()
        index = next((i for i, bound in enumerate(cumulative) if u < bound), len(masks) - 1)
        counts[masks[index]] += 1
    return counts


def sample_reservoir(spec: ReservoirSpec, trial: int = 0) -> TraceTable:
    rng = trial_rng(spec.seed, trial)
    m = spec.core_size
    draws: list[int] = []
    if spec.distribution == "uniform":
        draws = [rng.getrandbits(m) for _ in range(spec.samples)]
    else:
        counts = _draw_counts(spec, rng)
        for mask in sorted(counts):
            draws.extend([mask] * counts[mask])
    grouped: dict[int, list[int]] = {}
    for index, mask in enumerate(draws):
        grouped.setdefault(mask, []).append(m + index)
    return TraceTable(core=tuple(range(m)), entries={k: tuple(v) for k, v in grouped.items()})


def _spans(core_size: int, masks: Sequence[int]) -> bool:
    return rank(quotient_matrix(masks, range(core_size))[0]) == core_size - 1


def estimate_availability(spec: ReservoirSpec, basis: Sequence[int] | None = None) -> AvailabilityReport:
    m = spec.core_size
    if basis is None:
        if spec.distribution == "uniform":
            basis_masks, p = uniform_basis(m)
        else:
            raise ValueError("an explicit distribution needs an explicit basis")
    else:
        basis_masks = tuple(basis)
        if spec.distribution == "uniform":
            p = 2.0 ** -m
        else:
            probs = dict(spec.distribution)
            missing = [mask for mask in basis_masks if probs.get(mask, 0.0) <= 0.0]
            if missing:
                raise ValueError(f"basis traces with zero probability: {missing}")
            p = min(probs[mask] for mask in basis_masks)
    if m > 1:
        if len(basis_masks) != m - 1:
            raise ValueError(f"basis must have {m - 1} traces, got {len(basis_masks)}")
        if not _spans(m, basis_masks):
            raise ValueError("declared basis traces do not span the quotient")
    failures = 0
    spanning = 0
    bits = []
    for trial in range(spec.trials):
        counts = _draw_counts(spec, trial_rng(spec.seed, trial))
        failed = any(counts.get(mask, 0) < spec.q for mask in basis_masks)
        failures += failed
        bits.append("1" if failed else "0")
        available = [mask for mask, count in counts.items() if count >= spec.q]
        spanning += _spans(m, available)
    return AvailabilityReport(
        spec=spec,
        basis=basis_masks,
        min_probability=p,
        failures=failures,
        empirical_failure_rate=failures / spec.trials,
        bound=(m - 1) * math.exp(-spec.samples * p / 8.0),
        rank_rich_fraction=spanning / spec.trials,
        advisory_small_sample=spec.samples * p < 2 * spec.q,
        per_trial_failures="".join(bits),
    )
