"""Frozen reference copies of the reservoir draws.

These are ``_draw_counts`` and ``sample_reservoir`` as they were before the
uniform samples were drawn in whole-word blocks: one ``getrandbits(m)`` call
per sample, and a linear scan of the cumulative bounds for an explicit
distribution.  They exist only as the oracle for the differential tests in
``test_reservoir_differential.py``; do not edit them to follow changes in
``modcert``.
"""

from __future__ import annotations

import random
from collections import Counter

from modcert.reservoir import ReservoirSpec, trial_rng
from modcert.traces import TraceTable


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
