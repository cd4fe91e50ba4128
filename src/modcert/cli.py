"""Command-line front end; every analysis is a subcommand with JSON output.

Exit codes are part of the contract: 0 success (for ``absorb``: a deletion
certificate), 1 the parity-cut branch of a decision, 2 invalid input, and 3
an internal inconsistency that should never happen.  Two more report the
environment, as a shell reports a process killed by the signal: 130 an
interrupt (SIGINT, one ``interrupted`` line on stderr) and 141 a reader that
closed stdout early (SIGPIPE, nothing on stderr).  Every run ends in one of
them, never in a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

from .absorb import (
    AbsorptionProblem,
    DeletionCertificate,
    certificate_from_json,
    certificate_ids,
    certificate_to_json,
    check_claims,
    pair_trace_sufficiency,
    solve_core_correction,
    verify_certificate,
)
from .errors import InternalInvariantError
from .graph import Graph, load_graph
from .parity import parity_partition
from .reservoir import RNG_ALGORITHM, ReservoirSpec, estimate_availability
from .traces import (
    compute_traces,
    next_bit_obstruction,
    neighborhood_diversity,
    pair_trace_graph,
    split_witness,
    tail_degrees,
)
from .witness import ModularWitness, is_q_modular


def _load(args) -> Graph:
    # load_graph ignores a leading byte order mark itself.
    with open(args.graph, "r", encoding="utf-8") as handle:
        return load_graph(handle, fmt=args.format)


def _names(spec: str) -> list[str]:
    return [token.strip() for token in spec.split(",") if token.strip()]


def _ids(graph: Graph, spec: str) -> list[int]:
    return graph.ids_of(_names(spec))


def _emit(args, payload: dict, human: Iterable[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        for line in human:
            print(line)


def _cmd_parity(args) -> int:
    graph = _load(args)
    # parity_partition checks the parts before returning them.
    part0, part1 = parity_partition(graph)
    payload = {
        "command": "parity",
        "n": graph.n,
        "part0": graph.names_of(part0),
        "part1": graph.names_of(part1),
        "larger_size": max(len(part0), len(part1)),
        "verified": True,
    }
    _emit(args, payload, [
        f"part0 ({len(part0)}): {' '.join(payload['part0'])}",
        f"part1 ({len(part1)}): {' '.join(payload['part1'])}",
        f"larger part: {payload['larger_size']} of {graph.n}, verified: True",
    ])
    return 0


def _problem_from_args(args, graph: Graph) -> AbsorptionProblem:
    witness = ModularWitness.build(graph, _ids(graph, args.witness), args.q)
    return AbsorptionProblem.build(witness, _ids(graph, args.core))


def _absorb_lines(payload: dict) -> Iterator[str]:
    # A generator, so that a --json run does not serialize the payload twice.
    yield f"certificate: {payload['kind']} (verified)"
    yield json.dumps(payload, indent=2)


def _cmd_absorb(args) -> int:
    graph = _load(args)
    # solve_core_correction checks the certificate before returning it.
    certificate = solve_core_correction(_problem_from_args(args, graph))
    payload = certificate_to_json(certificate, name_of=graph.name_of)
    payload["verified"] = True
    _emit(args, payload, _absorb_lines(payload))
    return 0 if isinstance(certificate, DeletionCertificate) else 1


def _cmd_check_modular(args) -> int:
    graph = _load(args)
    members = _ids(graph, args.witness)
    check = is_q_modular(graph, members, args.q)
    payload = {
        "command": "check-modular",
        "q": args.q,
        "modular": check.modular,
        "residue": check.residue,
        "conflict": None if check.conflict is None else [graph.name_of(v) for v in check.conflict],
    }
    _emit(args, payload, [
        f"{args.q}-modular: {check.modular}"
        + (f", residue {check.residue}" if check.modular else f", conflict {payload['conflict']}"),
    ])
    return 0


def _core_table(args, graph: Graph):
    core, tail = split_witness(graph, _ids(graph, args.witness), _ids(graph, args.core))
    return compute_traces(graph, core, tail)


def _cmd_traces(args) -> int:
    graph = _load(args)
    table = _core_table(args, graph)
    payload = {"command": "traces", **table.to_json_dict(name_of=graph.name_of)}
    payload["tail_neighbor_counts"] = list(tail_degrees(table))
    _emit(args, payload, [
        f"core: {' '.join(payload['core'])}",
        *(
            f"trace {{{', '.join(entry['trace'])}}}: count {entry['count']}"
            for entry in payload["entries"]
        ),
        f"tail neighbor counts: {payload['tail_neighbor_counts']}",
    ])
    return 0


def _cmd_next_bit(args) -> int:
    graph = _load(args)
    table = _core_table(args, graph)
    rho = tail_degrees(table)
    results = []
    cap = max(rho).bit_length() + 2  # split_witness rejects an empty core
    for m in range(cap + 1):
        theta = next_bit_obstruction(rho, m)
        if theta is None:
            results.append({"m": m, "defined": False, "theta": None, "zero": None})
            break
        results.append({
            "m": m,
            "defined": True,
            "theta": theta.to_tuple(),
            "zero": theta.is_zero(),
        })
    payload = {
        "command": "next-bit",
        "core": [graph.name_of(v) for v in table.core],
        "tail_neighbor_counts": list(rho),
        "results": results,
    }
    _emit(args, payload, [
        f"counts: {list(rho)}",
        *(
            f"m={r['m']}: " + ("undefined (not constant)" if not r["defined"]
                               else f"theta={''.join(map(str, r['theta']))} zero={r['zero']}")
            for r in results
        ),
    ])
    return 0


def _cmd_pair_trace(args) -> int:
    graph = _load(args)
    table = _core_table(args, graph)
    view = pair_trace_graph(table, args.q)
    reason = pair_trace_sufficiency(table, args.q, view)
    applies = reason is None
    payload = {
        "command": "pair-trace",
        "q": args.q,
        "core": [graph.name_of(v) for v in table.core],
        "edges": [[graph.name_of(a), graph.name_of(b)] for a, b in view.edges],
        "connected": view.connected,
        "odd_heavy_trace": view.has_odd_heavy_trace,
        "applies": applies,
        "reason": reason,
    }
    _emit(args, payload, [
        f"heavy pair edges: {payload['edges']}",
        f"connected: {view.connected}, odd heavy trace: {view.has_odd_heavy_trace}",
        f"sufficiency applies: {applies}" + ("" if applies else f" ({reason})"),
    ])
    return 0


def _cmd_nd(args) -> int:
    graph = _load(args)
    partition = neighborhood_diversity(graph)
    payload = {
        "command": "nd",
        "t": partition.t,
        "classes": [[graph.name_of(v) for v in cls] for cls in partition.classes],
    }
    _emit(args, payload, [
        f"neighborhood diversity: {partition.t}",
        *(f"class: {' '.join(names)}" for names in payload["classes"]),
    ])
    return 0


def _cmd_oracle_f(args) -> int:
    # The oracles serve small checks only; other runs skip their import.
    from .oracle import brute_force_max_regular

    graph = _load(args)
    size, members = brute_force_max_regular(graph)
    payload = {
        "command": "oracle-f",
        "f": size,
        "witness": [graph.name_of(v) for v in members],
    }
    _emit(args, payload, [f"f = {size}, witness: {' '.join(payload['witness'])}"])
    return 0


def _cmd_oracle_absorb(args) -> int:
    from .oracle import brute_force_absorption

    graph = _load(args)
    problem = _problem_from_args(args, graph)
    exists, chosen = brute_force_absorption(problem)
    payload = {
        "command": "oracle-absorb",
        "exists": exists,
        "chosen_traces": None if chosen is None else [
            [graph.name_of(v) for v in trace] for trace in chosen
        ],
    }
    _emit(args, payload, [
        f"absorption exists: {exists}"
        + ("" if chosen is None else f", traces: {payload['chosen_traces']}"),
    ])
    return 0 if exists else 1


def _cmd_reservoir(args) -> int:
    spec = ReservoirSpec(
        core_size=args.m,
        q=args.q,
        samples=args.samples,
        trials=args.trials,
        seed=args.seed,
    )
    report = estimate_availability(spec)
    payload = {"command": "reservoir", **report.to_json_dict()}
    _emit(args, payload, [
        f"rng: {RNG_ALGORITHM}, trials: {spec.trials}, samples: {spec.samples}",
        f"empirical failure rate: {report.empirical_failure_rate}",
        f"bound: {report.bound}",
        f"rank-rich fraction: {report.rank_rich_fraction}",
        f"advisory (Np < 2q): {report.advisory_small_sample}",
    ])
    return 0


def _cmd_ladder_budget(args) -> int:
    for flag, value in (("--C", args.C), ("--a", args.a), ("--C0", args.C0)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.C <= 0 or args.C0 <= 0:
        raise ValueError(f"--C and --C0 must be positive, got {args.C} and {args.C0}")
    if args.r < 0:
        raise ValueError(f"--r must be nonnegative, got {args.r}")
    try:
        log2 = 1.0 + math.log2(args.C0) + args.r
        if args.r > 2:
            # The sum over j = 2..r-1 of log2(C) + j*a, with an exact triangular number.
            log2 += (args.r - 2) * math.log2(args.C) + args.a * ((args.r - 1) * args.r // 2 - 1)
    except OverflowError:
        log2 = math.inf
    if not math.isfinite(log2):
        raise ValueError("the budget's log2 overflows a float")
    # Past 2**1020 the budget itself has no float; log2 still says how big it is.
    budget = 2.0 ** log2 if log2 < 1020 else None
    payload = {
        "command": "ladder-budget",
        "C": args.C,
        "a": args.a,
        "C0": args.C0,
        "r": args.r,
        "budget": budget,
        "log2": log2,
    }
    _emit(args, payload, [f"budget: {budget} (log2 = {log2})"])
    return 0


def _cmd_verify_cert(args) -> int:
    # A certificate of the wrong shape, or one whose q or core contradicts the
    # command line, is rejected (exit 2) before the graph is read.  Every
    # verdict needs the graph and a valid problem, so exit 1 still comes after.
    with open(args.certificate, "r", encoding="utf-8-sig") as handle:
        try:
            payload = json.load(handle)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
    claims = certificate_from_json(payload)
    check_claims(claims, args.q, sorted(set(_names(args.core))))
    graph = _load(args)
    problem = _problem_from_args(args, graph)
    valid = verify_certificate(problem, certificate_ids(claims, graph.ids_of))
    _emit(args, {"command": "verify-cert", "valid": valid}, [f"valid: {valid}"])
    return 0 if valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcert",
        description="Parity partitions, trace tables, and absorption certificates "
                    "for regular induced subgraph analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, graph=True, core=False, witness=False, q=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        if graph:
            cmd.add_argument("graph", help="path to the input graph file")
            cmd.add_argument("--format", choices=["edge-list", "dimacs"], default="edge-list")
        cmd.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        if core:
            cmd.add_argument("--core", required=True, help="comma-separated core vertex names")
        if witness:
            cmd.add_argument("--witness", required=True, help="comma-separated witness vertex names")
        if q:
            cmd.add_argument("--q", type=int, required=True, help="modulus (power of two)")
        return cmd

    add("parity", _cmd_parity, "even-degree bipartition with verification")
    add("absorb", _cmd_absorb, "solve one core correction; exit 0 deletion / 1 parity cut",
        core=True, witness=True, q=True)
    # is_q_modular takes any modulus; only the dyadic steps need a power of two.
    modular_cmd = add("check-modular", _cmd_check_modular, "test degree congruence of a vertex set",
                      witness=True)
    modular_cmd.add_argument("--q", type=int, required=True, help="modulus (any q >= 1)")
    add("traces", _cmd_traces, "trace table of the tail against the core",
        core=True, witness=True)
    add("next-bit", _cmd_next_bit, "next-bit obstruction classes of the tail counts",
        core=True, witness=True)
    add("pair-trace", _cmd_pair_trace, "heavy pair-trace graph and sufficiency flags",
        core=True, witness=True, q=True)
    add("nd", _cmd_nd, "neighborhood diversity and twin classes")
    add("oracle-f", _cmd_oracle_f, "exact largest regular induced subgraph (small n)")
    add("oracle-absorb", _cmd_oracle_absorb, "brute-force absorption search (small instances)",
        core=True, witness=True, q=True)

    reservoir_cmd = add("reservoir", _cmd_reservoir, "sample random reservoirs and compare "
                        "against the availability bound", graph=False)
    reservoir_cmd.add_argument("--m", type=int, required=True, help="core size")
    reservoir_cmd.add_argument("--q", type=int, required=True, help="modulus (power of two)")
    reservoir_cmd.add_argument("--samples", type=int, required=True, help="tail samples per trial")
    reservoir_cmd.add_argument("--trials", type=int, default=100)
    reservoir_cmd.add_argument("--seed", type=int, required=True, help="RNG seed (no default)")

    ladder_cmd = add("ladder-budget", _cmd_ladder_budget, "starting-size budget of the "
                     "dyadic ladder for given loss constants", graph=False)
    ladder_cmd.add_argument("--C", type=float, required=True)
    ladder_cmd.add_argument("--a", type=float, required=True)
    ladder_cmd.add_argument("--C0", type=float, required=True)
    ladder_cmd.add_argument("--r", type=int, required=True)

    verify_cmd = add("verify-cert", _cmd_verify_cert, "re-verify a serialized certificate",
                     core=True, witness=True, q=True)
    verify_cmd.add_argument("--certificate", required=True, help="path to certificate JSON")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        # Parsed inside the try for an interrupt; argparse's SystemExit passes through.
        args = build_parser().parse_args(argv)
        code = args.func(args)
        # Flushed here, so that a closed stdout raises inside this try.
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # As the "Note on SIGPIPE" in Python's signal docs shows: whatever is
        # still buffered goes to devnull, so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # The input is too large for this machine, not a defect of the program.
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:
        # Last resort, so that no run ends in a traceback: any other failure
        # is a defect of the program, not of its input.  The repr keeps the
        # report on one line; the innermost frame says where it happened.
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {exc!r} at {os.path.basename(where.filename)}:{where.lineno}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
