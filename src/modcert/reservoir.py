"""Monte-Carlo study of random trace reservoirs against the availability bound.

Samples N traces independently from a distribution over core subsets and
measures how often some basis trace falls below multiplicity q, the failure
event of the reservoir absorption guarantee.  The guarantee: when each of
the m-1 basis traces has probability at least p and Np >= 2q, all of them
reach multiplicity q except with probability (m-1) exp(-Np/8); with a full
basis available, the trace classes span the quotient and every defect is
absorbable.

Randomness is Mersenne Twister with per-trial streams derived from
(seed, trial index), so serial and parallel execution agree and identical
specs reproduce identical output byte for byte.  The stream contract: trial t
seeds ``random.Random((seed << 32) + t)`` and, for the uniform distribution,
its N samples are the values of N successive ``getrandbits(m)`` calls.  They
are drawn in blocks of whole 32-bit words (one ``getrandbits(32 * w * k)`` per
block of k samples, w = ceil(m / 32)), which consumes the same MT19937 words
in the same order and leaves the generator in the same state.  The trial
loop keeps that stream.  For uniform samples of at most 8 bits in one block it
reseeds one generator per trial instead of building a new one, and a trial
stops drawing once its verdict is known: it draws one MT19937 state's worth of
samples (624 words) first, and the rest of its N only while some basis trace
is still below q.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from typing import Iterator, NamedTuple, Sequence, Union

from .gf2 import rank
from .witness import _check_modulus, quotient_matrix

RNG_ALGORITHM = "mt19937"

Distribution = Union[str, tuple[tuple[int, float], ...]]


class _ReservoirSpecFields(NamedTuple):
    core_size: int
    q: int
    samples: int
    trials: int
    seed: int
    distribution: Distribution = "uniform"


class ReservoirSpec(_ReservoirSpecFields):
    """Sampling plan: core size, modulus, distribution, sample and trial counts."""

    __slots__ = ()

    def __new__(
        cls,
        core_size: int,
        q: int,
        samples: int,
        trials: int,
        seed: int,
        distribution: Distribution = "uniform",
    ) -> "ReservoirSpec":
        if core_size < 1:
            raise ValueError(f"core size must be >= 1, got {core_size}")
        _check_modulus(q)
        if samples < 1:
            raise ValueError(f"sample count must be >= 1, got {samples}")
        if trials < 1:
            raise ValueError(f"trial count must be >= 1, got {trials}")
        if distribution != "uniform":
            total = 0.0
            full = (1 << core_size) - 1
            for mask, prob in distribution:
                if not 0 <= mask <= full:
                    raise ValueError(f"trace mask {mask:#x} out of range")
                if not (math.isfinite(prob) and prob >= 0):
                    raise ValueError(f"trace probabilities must be finite and nonnegative, got {prob!r}")
                total += prob
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"trace probabilities sum to {total!r}, not 1")
        return super().__new__(cls, core_size, q, samples, trials, seed, distribution)

    def to_json_dict(self) -> dict:
        dist = (
            "uniform"
            if self.distribution == "uniform"
            else [[mask, prob] for mask, prob in self.distribution]
        )
        return {
            "core_size": self.core_size,
            "q": self.q,
            "samples": self.samples,
            "trials": self.trials,
            "seed": self.seed,
            "distribution": dist,
        }


def trial_rng(seed: int, trial: int) -> random.Random:
    """Independent stream per (seed, trial); stable across run orders."""
    return random.Random((seed << 32) + trial)


# Samples per getrandbits call: the transient draw stays under 256 KiB per
# 32-bit word of a sample, however many samples a trial takes.
_BLOCK = 1 << 16
# _TOP_BITS[m] maps a byte to its top m bits, for m = 1..8.
_TOP_BITS = [None] + [bytes(b >> (8 - m) for b in range(256)) for m in range(1, 9)]
# 32-bit words in one MT19937 state; a seeded generator hands out this many
# before its next twist.
_STATE_WORDS = 624


def _top_bytes(draw: int, k: int, table: bytes) -> bytes:
    """The values of k successive ``getrandbits(m)`` calls, m <= 8, from one
    draw of 32k bits, one byte each; ``table`` is ``_TOP_BITS[m]``."""
    # Byte 3 of each little-endian word is its top byte.
    return draw.to_bytes(4 * k, "little")[3::4].translate(table)


def _uniform_draws(m: int, n: int, rng: random.Random) -> Iterator[Sequence[int]]:
    """The values of n successive ``rng.getrandbits(m)`` calls, in blocks.

    For k <= 32, CPython's getrandbits(k) takes one 32-bit MT19937 word and
    keeps its top k bits; for larger k it takes ceil(k / 32) words, least
    significant first, and keeps the top bits of the last one.  A draw of
    32 * w * k bits is k * w whole words in the same order, so slicing it
    gives the same values and leaves ``rng`` in the same state.
    """
    words = (m + 31) >> 5  # 32-bit words per sample
    span = 4 * words  # bytes per sample
    low_bits = 32 * (words - 1)  # taken whole from the lower words
    low = (1 << low_bits) - 1
    drop = 32 * words - m  # low bits dropped from the top word
    for start in range(0, n, _BLOCK):
        k = min(_BLOCK, n - start)
        draw = rng.getrandbits(8 * span * k)
        if m <= 8:
            yield _top_bytes(draw, k, _TOP_BITS[m])
        else:
            raw = draw.to_bytes(span * k, "little")
            values = (int.from_bytes(raw[i:i + span], "little") for i in range(0, span * k, span))
            yield [(v & low) | (v >> (low_bits + drop)) << low_bits for v in values]


def _draw_counts(spec: ReservoirSpec, rng: random.Random) -> Counter:
    counts: Counter = Counter()
    if spec.distribution == "uniform":
        for block in _uniform_draws(spec.core_size, spec.samples, rng):
            counts.update(block)
        return counts
    masks = [mask for mask, _ in spec.distribution]
    cumulative = []
    acc = 0.0
    for _, prob in spec.distribution:
        acc += prob
        cumulative.append(acc)
    last = len(masks) - 1
    for _ in range(spec.samples):
        # The first bound above u; u at or past the last bound (float
        # rounding) takes the last mask.
        index = min(bisect.bisect_right(cumulative, rng.random()), last)
        counts[masks[index]] += 1
    return counts


def uniform_basis(core_size: int) -> tuple[tuple[int, ...], float]:
    """Singleton traces off the base vertex; each has probability 2^-m."""
    masks = tuple(1 << i for i in range(1, core_size))
    return masks, 2.0 ** -core_size


def _verify_basis(core_size: int, basis: Sequence[int]) -> None:
    if len(basis) != core_size - 1:
        raise ValueError(f"basis must have {core_size - 1} traces, got {len(basis)}")
    if rank(quotient_matrix(basis, range(core_size))[0]) != core_size - 1:
        raise ValueError("declared basis traces do not span the quotient")


def _spans(core_size: int, masks: Sequence[int]) -> bool:
    return rank(quotient_matrix(masks, range(core_size))[0]) == core_size - 1


def _failed_trials(spec: ReservoirSpec, basis: tuple[int, ...]) -> Iterator[Counter | None]:
    """Per trial, in order: None if every basis mask reaches multiplicity q,
    else the counts of all N draws of the trial.

    Byte draws (uniform, m <= 8, one block) reseed one generator to the state
    of ``trial_rng`` and draw past the first MT19937 state only while some
    basis mask is below q: counts only grow, so a trial that holds q copies of
    every basis mask cannot fail.
    """
    q = spec.q
    m, n = spec.core_size, spec.samples
    if spec.distribution != "uniform" or m > 8 or n > _BLOCK:
        for trial in range(spec.trials):
            counts = _draw_counts(spec, trial_rng(spec.seed, trial))
            yield counts if any(counts.get(mask, 0) < q for mask in basis) else None
        return
    table = _TOP_BITS[m]
    first = min(n, _STATE_WORDS)
    rest = n - first
    first_bits, rest_bits = 32 * first, 32 * rest
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits
    base = spec.seed << 32
    for trial in range(spec.trials):
        reseed(base + trial)
        block = _top_bytes(getrandbits(first_bits), first, table)
        # A one-vertex core has an empty basis: its trials never fail.
        if min(map(block.count, basis), default=q) >= q:
            yield None
            continue
        if rest:
            block += _top_bytes(getrandbits(rest_bits), rest, table)
        yield Counter(block) if min(map(block.count, basis)) < q else None


class AvailabilityReport(NamedTuple):
    spec: ReservoirSpec
    basis: tuple[int, ...]
    min_probability: float
    failures: int
    empirical_failure_rate: float
    bound: float
    rank_rich_fraction: float
    advisory_small_sample: bool
    per_trial_failures: str

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "rng": RNG_ALGORITHM,
            "basis": [mask for mask in self.basis],
            "min_probability": self.min_probability,
            "failures": self.failures,
            "empirical_failure_rate": self.empirical_failure_rate,
            "bound": self.bound,
            "rank_rich_fraction": self.rank_rich_fraction,
            "advisory_small_sample": self.advisory_small_sample,
            "per_trial_failures": self.per_trial_failures,
        }


def estimate_availability(
    spec: ReservoirSpec,
    basis: Sequence[int] | None = None,
) -> AvailabilityReport:
    """Fraction of trials where some basis trace stays below multiplicity q.

    Compared against the theoretical bound (m-1) exp(-Np/8).  With N p below
    2q the guarantee's hypothesis fails; the run still executes but is
    marked advisory.  Also reports how often the full available family spans;
    a trial that keeps its verified basis spans without an elimination.
    """
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
    _verify_basis(m, basis_masks)
    failures = 0
    spanning = 0
    bits = []
    q = spec.q
    for counts in _failed_trials(spec, basis_masks):
        if counts is None:
            # The surviving basis spans: _verify_basis checked it above.
            bits.append("0")
            spanning += 1
        else:
            bits.append("1")
            failures += 1
            spanning += _spans(m, [mask for mask, count in counts.items() if count >= q])
    bound = (m - 1) * math.exp(-spec.samples * p / 8.0)
    return AvailabilityReport(
        spec=spec,
        basis=basis_masks,
        min_probability=p,
        failures=failures,
        empirical_failure_rate=failures / spec.trials,
        bound=bound,
        rank_rich_fraction=spanning / spec.trials,
        advisory_small_sample=spec.samples * p < 2 * spec.q,
        per_trial_failures="".join(bits),
    )


def uniform_sample_size(core_size: int, q: int, delta: float) -> int:
    """Smallest N meeting the uniform-reservoir guarantee at confidence 1 - delta."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    m = core_size
    lower = max(
        2 ** (m + 1) * q,
        8.0 * 2 ** m * math.log((m - 1) / delta),
    )
    return math.ceil(lower)
