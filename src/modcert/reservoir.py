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
seeds ``random.Random((seed << 32) + t)``, which for a seed >= 0 and t < 2^32
is a distinct stream per (seed, t), and, for the uniform distribution,
its N samples are the values of N successive ``getrandbits(m)`` calls; a
sample of an explicit distribution takes one ``random()`` call.  Uniform
samples of more than 8 bits are drawn by exactly those calls.  Samples of at
most 8 bits are drawn as whole 32-bit words, one ``getrandbits(32 * k)`` per
k samples, which consumes the same MT19937 words in the same order and
leaves the generator in the same state.  One trial loop serves every spec:
it reseeds one generator per spec for each trial, and a trial stops drawing
once its verdict is known.  It draws one MT19937 state's worth of samples
(624) first, and the rest of its N, in bounded blocks, only while some basis
trace is still below q.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, repeat
from typing import Callable, Iterator, NamedTuple, Sequence, Union

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
        for field, value in (("core size", core_size), ("sample count", samples), ("trial count", trials),
                             ("seed", seed)):
            if type(value) is not int:
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if core_size < 1:
            raise ValueError(f"core size must be >= 1, got {core_size}")
        _check_modulus(q)
        if samples < 1:
            raise ValueError(f"sample count must be >= 1, got {samples}")
        if trials < 1:
            raise ValueError(f"trial count must be >= 1, got {trials}")
        # random.Random seeds from |x|, so a negative seed would replay
        # another seed's trials.
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if distribution != "uniform":
            try:
                if isinstance(distribution, str):
                    raise TypeError
                # Stored as a tuple of tuples, so that the spec stays hashable.
                distribution = tuple(map(tuple, distribution))
            except TypeError:
                raise ValueError(f'distribution must be "uniform" or (mask, probability) pairs, '
                                 f"got {distribution!r}") from None
            total = 0.0
            full = (1 << core_size) - 1
            seen = set()
            for pair in distribution:
                if not (len(pair) == 2 and isinstance(pair[0], int) and isinstance(pair[1], (int, float))):
                    raise ValueError(f"distribution entry {pair!r} is not an (integer mask, real probability) pair")
                mask, prob = pair
                if not 0 <= mask <= full:
                    raise ValueError(f"trace mask {mask:#x} out of range")
                if mask in seen:
                    raise ValueError(f"trace mask {mask:#x} listed twice")
                seen.add(mask)
                if not (math.isfinite(prob) and prob >= 0):
                    raise ValueError(f"trace probabilities must be finite and nonnegative, got {prob!r}")
                total += prob
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"trace probabilities sum to {total!r}, not 1")
        return super().__new__(cls, core_size, q, samples, trials, seed, distribution)


# Samples per draw after a trial's first: a draw of byte samples, one 32-bit
# word each, stays within 256 KiB however many samples a trial takes.
_BLOCK = 1 << 16
# 32-bit words in one MT19937 state; a seeded generator hands out this many
# before its next twist.
_STATE_WORDS = 624
# _TOP_BITS[m] maps a byte to its top m bits, for m = 1..8.
_TOP_BITS = [None] + [bytes(b >> (8 - m) for b in range(256)) for m in range(1, 9)]


def _drawer(spec: ReservoirSpec, rng: random.Random, k: int) -> Callable[[], Sequence[int]]:
    """The function that draws the spec's next k samples from ``rng``: bytes
    for uniform samples of at most 8 bits, else a list.

    CPython's getrandbits(m) for m <= 8 takes one 32-bit MT19937 word and
    keeps its top m bits, so the top bytes of one draw of 32 * k bits give the
    values of k getrandbits(m) calls and leave ``rng`` in the same state.
    """
    if spec.distribution != "uniform":
        masks = [mask for mask, _ in spec.distribution]
        cumulative = list(accumulate(prob for _, prob in spec.distribution))
        last, uniform = len(masks) - 1, rng.random
        # The first bound above u; u at or past the last bound (float
        # rounding) takes the last mask.
        return lambda: [masks[min(bisect_right(cumulative, uniform()), last)] for _ in range(k)]
    getrandbits, m = rng.getrandbits, spec.core_size
    if m > 8:
        return lambda: list(map(getrandbits, repeat(m, k)))
    top, bits, size = _TOP_BITS[m], 32 * k, 4 * k
    # Byte 3 of each little-endian word is its top byte.
    return lambda: getrandbits(bits).to_bytes(size, "little")[3::4].translate(top)


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

    One generator, reseeded to the trial's stream for each trial.
    Counts only grow, so a trial draws min(N, 624) samples first and the rest,
    in blocks of at most ``_BLOCK``, only while some basis mask is below q.
    """
    q, n = spec.q, spec.samples
    first = min(n, _STATE_WORDS)
    rng = random.Random()
    reseed, draw_first = rng.seed, _drawer(spec, rng, first)
    # Two drawers serve the rest of N however large it is: whole blocks, then the last one.
    starts = range(first, n, _BLOCK)
    draw_block = _drawer(spec, rng, _BLOCK)
    draw_last = _drawer(spec, rng, n - starts[-1]) if starts else draw_block
    base = spec.seed << 32
    for trial in range(spec.trials):
        reseed(base + trial)
        block = draw_first()
        # A one-vertex core has an empty basis: its trials never fail.
        if min(map(block.count, basis), default=q) >= q:
            yield None
            continue
        # Byte samples wait in ``block``, up to _BLOCK of them, because
        # bytes.count tests the basis far faster than a Counter counts them.
        counts = None
        for start in starts:
            block += (draw_block if n - start > _BLOCK else draw_last)()
            if len(block) >= _BLOCK or not isinstance(block, bytes):
                counts = counts or Counter()
                counts.update(block)
                block = block[:0]
                if min(counts[mask] for mask in basis) >= q:
                    break
        if counts is None:
            yield Counter(block) if min(map(block.count, basis)) < q else None
            continue
        counts.update(block)
        yield counts if min(counts[mask] for mask in basis) < q else None


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
        fields = self._asdict()
        del fields["spec"]
        return {"spec": self.spec._asdict(), "rng": RNG_ALGORITHM, **fields}


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
    if spec.distribution == "uniform":
        default, p = uniform_basis(m)
        basis_masks = default if basis is None else tuple(basis)
    elif basis is None:
        raise ValueError("an explicit distribution needs an explicit basis")
    else:
        basis_masks = tuple(basis)
        probs = dict(spec.distribution)
        missing = [mask for mask in basis_masks if probs.get(mask, 0.0) <= 0.0]
        if missing:
            raise ValueError(f"basis traces with zero probability: {missing}")
        # A one-vertex core's only basis is empty: no trace can fail, so the bound is 0.
        p = min((probs[mask] for mask in basis_masks), default=1.0)
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
    if core_size < 1:
        raise ValueError(f"core size must be >= 1, got {core_size}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    m = core_size
    lower = 2 ** (m + 1) * q
    # A one-vertex core has no basis traces, so its failure bound is 0.
    if m > 1:
        lower = max(lower, 8.0 * 2 ** m * math.log((m - 1) / delta))
    return math.ceil(lower)
