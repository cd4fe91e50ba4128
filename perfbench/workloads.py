"""Seeded inputs for the three benchmark workloads.

Every instance is a pure function of (workload, seed): the generators draw
from ``random.Random`` streams derived from the seed and write the graph
files into the run's work directory.  Alongside the files each instance
carries the harness's own reference data (adjacency masks, witness, cores),
which the checkers in ``checks.py`` use instead of any modcert code.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

TWIN_BASE_N = 1500
TWIN_BASE_P = 0.04
# One representative per base vertex.  400 leaves about 1100 available
# traces against 399 quotient rows (deletion branch); 1000 leaves about 500
# against 999 rows (parity-cut branch).
TWIN_CORE_SIZES = (400, 1000)
DENSE_N = 2000
# (m, q, trials): the sample size N is the uniform-reservoir guarantee at
# delta = 0.1, which gives N = 192, 436, 436 and 2003.
RESERVOIR_CONFIGS = ((3, 2, 4000), (4, 2, 3000), (4, 4, 3000), (6, 2, 1500))
RESERVOIR_DELTA = 0.1


@dataclass
class GraphInput:
    """A generated graph file plus the harness's independent adjacency."""

    path: str
    n: int
    adj: list[int]

    @property
    def edges(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2


@dataclass
class Core:
    """One absorb problem on a graph: witness, core and modulus."""

    label: str
    witness: list[int]
    core: list[int]
    q: int


@dataclass
class Instance:
    workload: str
    graph: GraphInput | None = None
    cores: list[Core] = field(default_factory=list)
    reservoir: list[tuple[int, int, int, int, int]] = field(default_factory=list)


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def _write_edge_list(path: str, adj: list[int]) -> None:
    """``n`` header, then ``u v`` with u < v, one edge per line."""
    n = len(adj)
    chunks = [f"n {n}\n"]
    for u in range(n):
        upper = adj[u] >> (u + 1)
        if not upper:
            continue
        bits = bin(upper)[:1:-1]
        prefix = f"{u} "
        chunks.append("".join(
            f"{prefix}{u + 1 + i}\n" for i, c in enumerate(bits) if c == "1"
        ))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("".join(chunks))


def _symmetrize(upper: list[int]) -> list[int]:
    """Adjacency masks from per-vertex masks of higher neighbors."""
    adj = list(upper)
    for u, mask in enumerate(upper):
        bit = 1 << u
        while mask:
            low = mask & -mask
            adj[low.bit_length() - 1] |= bit
            mask ^= low
    return adj


def gnp_half(n: int, rng: random.Random) -> list[int]:
    """G(n, 1/2): each vertex's higher neighbors are one random bit mask."""
    return _symmetrize([rng.getrandbits(n) >> (u + 1) << (u + 1) for u in range(n)])


def gnp(n: int, p: float, rng: random.Random) -> list[int]:
    """G(n, p) by geometric skipping over the pairs u < v."""
    upper = [0] * n
    log_q = math.log(1.0 - p)
    for u in range(n - 1):
        v = u
        while True:
            v += 1 + int(math.log(1.0 - rng.random()) / log_q)
            if v >= n:
                break
            upper[u] |= 1 << v
    return _symmetrize(upper)


def twin_blowup(base: list[int]) -> list[int]:
    """Replace base vertex b by independent twins 2b and 2b+1."""
    adj = []
    for mask in base:
        doubled = 0
        while mask:
            low = mask & -mask
            c = low.bit_length() - 1
            doubled |= 0b11 << (2 * c)
            mask ^= low
        adj.extend((doubled, doubled))
    return adj


def uniform_sample_size(m: int, q: int, delta: float) -> int:
    """Smallest N meeting the uniform-reservoir guarantee (paper's bound)."""
    return math.ceil(max(2 ** (m + 1) * q, 8.0 * 2 ** m * math.log((m - 1) / delta)))


def build(workload: str, seed: int, workdir: str) -> Instance:
    """Generate one workload's inputs under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    inst = Instance(workload=workload)
    if workload == "dense-2k":
        adj = gnp_half(DENSE_N, _rng(seed, "dense"))
        path = os.path.join(workdir, "dense.txt")
        _write_edge_list(path, adj)
        inst.graph = GraphInput(path=path, n=DENSE_N, adj=adj)
    elif workload == "twin-certify":
        rng = _rng(seed, "twin")
        adj = twin_blowup(gnp(TWIN_BASE_N, TWIN_BASE_P, rng))
        path = os.path.join(workdir, "twin.txt")
        _write_edge_list(path, adj)
        inst.graph = GraphInput(path=path, n=len(adj), adj=adj)
        witness = list(range(len(adj)))
        for size in TWIN_CORE_SIZES:
            reps = sorted(2 * b for b in rng.sample(range(TWIN_BASE_N), size))
            inst.cores.append(Core(label=f"core{size}", witness=witness, core=reps, q=2))
    elif workload == "reservoir-sweep":
        rng = _rng(seed, "reservoir")
        for m, q, trials in RESERVOIR_CONFIGS:
            samples = uniform_sample_size(m, q, RESERVOIR_DELTA)
            inst.reservoir.append((m, q, samples, trials, rng.getrandbits(31)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inst


WORKLOADS = ("dense-2k", "twin-certify", "reservoir-sweep")
