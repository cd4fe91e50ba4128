"""Independent checks of modcert's outputs, written against the harness's own data.

Nothing here imports modcert: every check recomputes what it needs from the
generated adjacency masks (or, for ``reservoir``, from the documented
per-trial MT19937 stream), so a defect in the code under test cannot hide
behind the same defect in its checker.  Each checker returns ``None`` when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import copy
import math
import random
from collections import Counter

SCHEMA_VERSION = "modcert-v1"


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _ids(names) -> list[int]:
    # Generated files carry an ``n`` header, so a vertex's name is its id.
    return [int(name) for name in names]


def check_parity(payload: dict, adj: list[int]) -> str | None:
    """Both parts partition V and induce only even degrees."""
    n = len(adj)
    part0, part1 = _ids(payload["part0"]), _ids(payload["part1"])
    if payload.get("n") != n:
        return f"n is {payload.get('n')}, expected {n}"
    if sorted(part0 + part1) != list(range(n)):
        return "parts do not partition the vertex set"
    for part in (part0, part1):
        mask = _mask(part)
        odd = next((v for v in part if (adj[v] & mask).bit_count() % 2), None)
        if odd is not None:
            return f"vertex {odd} has odd degree inside its part"
    if payload.get("larger_size") != max(len(part0), len(part1)):
        return "larger_size does not match the parts"
    if payload.get("verified") is not True:
        return "partition not marked verified"
    return None


def twin_classes(adj: list[int]) -> set[frozenset[int]]:
    """Twin classes by hashing open masks N(v) and closed masks N(v) | {v}.

    False twins share N(v), true twins share N[v]; since the twin relation is
    an equivalence whose classes are cliques or independent sets, no vertex
    has both kinds, and vertices with neither are singletons.
    """
    by_open: dict[int, list[int]] = {}
    by_closed: dict[int, list[int]] = {}
    for v, mask in enumerate(adj):
        by_open.setdefault(mask, []).append(v)
        by_closed.setdefault(mask | 1 << v, []).append(v)
    classes = set()
    for v, mask in enumerate(adj):
        group = by_open[mask]
        if len(group) == 1:
            group = by_closed[mask | 1 << v]
        classes.add(frozenset(group))
    return classes


def check_nd(payload: dict, expected: set[frozenset[int]]) -> str | None:
    """Classes equal ``twin_classes`` of the graph, compared as a set of sets."""
    got = {frozenset(_ids(cls)) for cls in payload["classes"]}
    if len(got) != len(payload["classes"]):
        return "duplicate class in the output"
    if got != expected:
        return "twin classes differ from open/closed-neighborhood classes"
    if payload.get("t") != len(got):
        return f"t is {payload.get('t')}, expected {len(got)}"
    return None


class Problem:
    """One absorb problem recomputed from the adjacency: labels and traces."""

    def __init__(self, adj: list[int], witness, core, q: int):
        self.adj = adj
        self.q = q
        self.witness = sorted(witness)
        self.core = sorted(core)
        self.witness_mask = _mask(self.witness)
        self.core_mask = _mask(self.core)
        self.deg = {v: (adj[v] & self.witness_mask).bit_count() for v in self.witness}
        self.lift = self.deg[self.witness[0]] % q
        self.label = {u: (self.deg[u] - self.lift) // q % 2 for u in self.core}
        self.tail = [v for v in self.witness if not self.core_mask >> v & 1]
        self.trace = {v: adj[v] & self.core_mask for v in self.tail}
        self.available = [t for t, c in Counter(self.trace.values()).items() if c >= q]


def check_certificate(payload: dict, exit_code: int, problem: Problem) -> str | None:
    """Recount a deletion certificate, or recheck the three cut conditions."""
    q = problem.q
    if payload.get("version") != SCHEMA_VERSION:
        return f"unexpected version {payload.get('version')!r}"
    if payload.get("q") != q or payload.get("d") != problem.lift:
        return "q or d does not match the problem"
    if _ids(payload["core"]) != problem.core:
        return "core does not match the problem"
    if payload.get("verified") is not True:
        return "certificate not marked verified"
    kind = payload.get("kind")
    if kind == "deletion":
        if exit_code != 0:
            return f"deletion certificate with exit code {exit_code}"
        deleted: set[int] = set()
        tail = set(problem.tail)
        for entry in payload["chosen_traces"]:
            trace = _mask(_ids(entry["trace"]))
            members = _ids(entry["deleted_vertices"])
            if len(members) != q:
                return f"q-tuple of size {len(members)}"
            for v in members:
                if v not in tail or v in deleted:
                    return f"deleted vertex {v} is not a fresh tail vertex"
                if problem.trace[v] != trace:
                    return f"deleted vertex {v} does not realize its declared trace"
                deleted.add(v)
        retained = problem.witness_mask & ~_mask(deleted)
        residues = {(problem.adj[u] & retained).bit_count() % (2 * q) for u in problem.core}
        if len(residues) != 1:
            return "core degrees disagree modulo 2q after the deletions"
        if payload.get("residue_achieved") != residues.pop():
            return "residue_achieved differs from the recounted residue"
        return None
    if kind == "parity-cut":
        if exit_code != 1:
            return f"parity cut with exit code {exit_code}"
        cut = _ids(payload["parity_cut_Y"])
        cut_mask = _mask(cut)
        if len(set(cut)) != len(cut) or cut_mask & ~problem.core_mask:
            return "cut is not a subset of the core"
        if not cut or len(cut) % 2:
            return "cut is empty or odd"
        if sum(problem.label[u] for u in cut) % 2 == 0:
            return "cut meets the label evenly"
        if any((t & cut_mask).bit_count() % 2 for t in problem.available):
            return "cut meets an available trace oddly"
        return None
    return f"unknown certificate kind {kind!r}"


def check_verified(payload: dict, exit_code: int) -> str | None:
    if exit_code != 0 or payload.get("valid") is not True:
        return f"genuine certificate rejected (exit {exit_code})"
    return None


def tamper_set(cert: dict) -> list[tuple[str, dict]]:
    """The fixed mutations of one emitted certificate; each makes a false claim."""
    out = []

    def mutant(label, edit):
        changed = copy.deepcopy(cert)
        edit(changed)
        out.append((label, changed))

    two_q = 2 * cert["q"]
    if cert["kind"] == "deletion":
        mutant("residue", lambda c: c.update(residue_achieved=(c["residue_achieved"] + 1) % two_q))
        mutant("d+1", lambda c: c.update(d=c["d"] + 1))
        first = next((e for e in cert["chosen_traces"] if e["trace"]), None)
        if first is not None:
            index = cert["chosen_traces"].index(first)
            mutant("trace", lambda c: c["chosen_traces"][index]["trace"].pop(0))
    else:
        mutant("2q", lambda c: c.update(q=two_q))
        mutant("core", lambda c: c["core"].pop(0))
        mutant("cut", lambda c: c["parity_cut_Y"].pop(0))
    mutant("no-q", lambda c: c.pop("q"))
    return out


def reservoir_expected(m: int, q: int, samples: int, trials: int, seed: int) -> dict:
    """Failures and span fraction from the per-trial stream Random((seed << 32) + trial)."""
    full = (1 << m) - 1
    basis = [1 << i for i in range(1, m)]
    bits = []
    spanning = 0
    for trial in range(trials):
        rng = random.Random((seed << 32) + trial)
        counts = Counter(rng.getrandbits(m) for _ in range(samples))
        bits.append("1" if any(counts[b] < q for b in basis) else "0")
        # Span check in the quotient by constants, coordinates relative to bit 0.
        # Pivots have distinct leading bits and are kept in decreasing order,
        # so min(x, x ^ p) clears each leading bit in turn.
        pivots: list[int] = []
        for mask, count in counts.items():
            if count < q:
                continue
            x = (mask ^ (full if mask & 1 else 0)) >> 1
            for p in pivots:
                x = min(x, x ^ p)
            if x:
                pivots.append(x)
                pivots.sort(reverse=True)
        spanning += len(pivots) == m - 1
    return {"per_trial_failures": "".join(bits), "spanning": spanning, "basis": basis}


def check_reservoir(payload: dict, m: int, q: int, samples: int, trials: int, seed: int,
                    expected: dict) -> str | None:
    """Compare one ``reservoir --json`` output with ``reservoir_expected``."""
    spec = payload.get("spec", {})
    if (spec.get("core_size"), spec.get("q"), spec.get("samples"), spec.get("trials"),
            spec.get("seed")) != (m, q, samples, trials, seed):
        return "spec does not echo the request"
    if payload.get("rng") != "mt19937" or payload.get("basis") != expected["basis"]:
        return "rng or basis differs"
    bits = expected["per_trial_failures"]
    if payload.get("per_trial_failures") != bits:
        return "per_trial_failures differs from the recomputed stream"
    failures = bits.count("1")
    if payload.get("failures") != failures or payload.get("empirical_failure_rate") != failures / trials:
        return "failure count or rate differs"
    if payload.get("rank_rich_fraction") != expected["spanning"] / trials:
        return "rank_rich_fraction differs from the recomputed span checks"
    p = 2.0 ** -m
    if payload.get("min_probability") != p or payload.get("advisory_small_sample") != (samples * p < 2 * q):
        return "min_probability or advisory flag differs"
    if not math.isclose(payload.get("bound", -1.0), (m - 1) * math.exp(-samples * p / 8.0), rel_tol=1e-12):
        return "bound differs from (m-1) exp(-Np/8)"
    return None
