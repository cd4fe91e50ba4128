"""Seeded end-to-end benchmark of the modcert CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-2k --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs real ``python3 -m modcert`` subprocesses, one at a
time and pinned to one CPU, over the workload's command list ("a pass") for
about ``--seconds`` and at least ``MIN_PASSES`` passes.  Each child's wall
time is taken around spawn and reap, and its CPU time and peak RSS come from
its own rusage through ``os.wait4``.  A reference task runs between the
children, and the gated time metrics are ratios to it.  With ``--trace 1``
the same argv run in this process through ``modcert.cli.main``, each once
untraced and once traced; the traced runs give the per-layer metrics, and the
pair the tracing overhead.

Every output is checked by ``checks.py`` the first time its argv runs; later
repeats must print the same bytes.  Tampered certificates are a soundness
probe: their outcomes are counted, not treated as failed operations.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  The
full report, and the spans of the last traced pass, go to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
MIN_PASSES = 2
SETUP_REPEATS = 3
# No pass starts after this long, so a run exits well within 180 s even on
# a slow machine.
HARD_STOP_S = 120.0
TAMPERS_PER_CERT = 4
# A fixed pure-Python task made of what modcert's hot paths are made of (dict
# updates, big-int shifts and XORs, splitting and parsing integers), run as
# its own child before the first invocation and after every invocation.  On
# a shared 2-vCPU Xeon virtual machine the speed drifted by up to 2x within a
# minute; dividing each invocation's time by the mean of the two reference runs
# around it cancels most of that drift, so ``pass_ref`` and ``cpu_ref`` are
# steadier than the seconds they are made from.
REFERENCE_TASK = """
import random
rng = random.Random(7)
counts, x = {}, 0
for i in range(150000):
    k = rng.getrandbits(12)
    counts[k] = counts.get(k, 0) + 1
    x ^= k << (i % 2000)
line = " ".join(map(str, range(50000)))
for _ in range(4):
    sum(int(t) for t in line.split())
"""

# Per-layer metrics: (name, unit, how, traced functions).  "self" sums self
# time, "total" sums inclusive time, "calls" counts calls; counters come
# from the tracer's COUNTERS hooks, and "harness" values from the harness.
LAYER_METRICS = (
    ("graph.load_s", "s", "self", ("graph.load_graph",)),
    ("graph.from_edges_s", "s", "total", ("graph.Graph.from_edges",)),
    ("graph.edges", "count", "counter", ("graph.load_graph",)),
    ("graph.ids_of_s", "s", "total", ("graph.Graph.ids_of",)),
    ("graph.ids_of_calls", "count", "calls", ("graph.Graph.ids_of",)),
    ("gf2.solve_s", "s", "total", ("gf2.solve_or_dual",)),
    ("gf2.solve_calls", "count", "calls", ("gf2.solve_or_dual",)),
    ("gf2.solve_rows", "count", "counter", ("gf2.solve_or_dual",)),
    ("gf2.solve_cols", "count", "counter", ("gf2.solve_or_dual",)),
    ("gf2.rank_s", "s", "total", ("gf2.rank",)),
    ("gf2.rank_calls", "count", "calls", ("gf2.rank",)),
    ("gf2.mat_vec_s", "s", "total", ("gf2.mat_vec",)),
    ("parity.partition_s", "s", "self", ("parity.parity_partition",)),
    ("parity.verify_s", "s", "total", ("parity.verify_even_partition",)),
    ("parity.larger_part", "count", "counter", ("parity.parity_partition",)),
    ("witness.build_s", "s", "total", ("witness.ModularWitness.build",)),
    ("witness.label_s", "s", "total", ("witness.top_bit_label",)),
    ("witness.size", "count", "counter", ("witness.ModularWitness.build",)),
    ("traces.compute_s", "s", "total", ("traces.compute_traces",)),
    ("traces.tail_size", "count", "counter", ("traces.compute_traces",)),
    ("traces.distinct", "count", "counter", ("traces.compute_traces",)),
    ("traces.available", "count", "counter", ("absorb.AbsorptionProblem.build",)),
    ("traces.nd_s", "s", "total", ("traces.neighborhood_diversity",)),
    ("traces.nd_classes", "count", "counter", ("traces.neighborhood_diversity",)),
    ("absorb.build_s", "s", "self", ("absorb.AbsorptionProblem.build",)),
    ("absorb.matrix_s", "s", "total", ("absorb.trace_class_matrix",)),
    ("absorb.solve_s", "s", "self", ("absorb.solve_core_correction", "absorb.solve_defect")),
    ("absorb.verify_s", "s", "total", ("absorb.verify_deletion_certificate", "absorb.verify_parity_cut")),
    ("absorb.to_json_s", "s", "total", ("absorb.certificate_to_json",)),
    ("absorb.from_json_s", "s", "self", ("absorb.certificate_from_json",)),
    ("absorb.deletions", "count", "counter", ("absorb.solve_core_correction",)),
    ("absorb.cuts", "count", "counter", ("absorb.solve_core_correction",)),
    ("absorb.deleted", "count", "counter", ("absorb.solve_core_correction",)),
    ("reservoir.estimate_s", "s", "self", ("reservoir.estimate_availability",)),
    ("reservoir.trials", "count", "counter", ("reservoir.estimate_availability",)),
    ("cli.self_s", "s", "self", ("cli.main",)),
    ("cli.stdout_bytes", "bytes", "harness", ()),
)


@dataclass
class Op:
    """One CLI invocation of a pass.  ``check`` is None for tamper probes."""

    group: str
    argv: list[str]
    check: Callable[[dict, int], str | None] | None
    on_first: Callable[[dict], None] | None = None
    trials: int = 0


@dataclass
class Outcome:
    exit: int
    stdout: bytes
    stderr: str
    wall: float
    cpu: float
    rss_kb: int = 0


@dataclass
class Tally:
    """Per-op samples and the checks' verdicts over a run."""

    walls: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    cpus: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    rel_walls: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    rel_cpus: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    ref_walls: list[float] = field(default_factory=list)
    first: dict[int, bytes] = field(default_factory=dict)
    rss_kb: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tamper: dict[int, str] = field(default_factory=dict)


def make_ops(inst: workloads.Instance, workdir: str) -> list[Op]:
    """One pass of CLI invocations, with the reference data their checks need."""
    ops: list[Op] = []
    graph = inst.graph
    if inst.workload == "dense-2k":
        ops.append(Op("parity", ["parity", graph.path, "--json"],
                      lambda p, code: checks.check_parity(p, graph.adj)))
    for core in inst.cores:
        problem = checks.Problem(graph.adj, core.witness, core.core, core.q)
        cert = os.path.join(workdir, f"{core.label}.cert.json")
        tampered = [os.path.join(workdir, f"{core.label}.tamper{i}.json") for i in range(TAMPERS_PER_CERT)]
        problem_args = ["--witness", ",".join(map(str, core.witness)),
                        "--core", ",".join(map(str, core.core)), "--q", str(core.q)]

        def write_certs(payload, cert=cert, tampered=tampered):
            with open(cert, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            mutants = checks.tamper_set(payload)
            if len(mutants) != len(tampered):
                raise ValueError(f"tamper set has {len(mutants)} mutants, expected {len(tampered)}")
            for path, (_, mutant) in zip(tampered, mutants):
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(mutant, handle)

        ops.append(Op("absorb", ["absorb", graph.path, *problem_args, "--json"],
                      lambda p, code, problem=problem: checks.check_certificate(p, code, problem),
                      on_first=write_certs))
        ops.append(Op("verify", ["verify-cert", graph.path, *problem_args, "--certificate", cert, "--json"],
                      checks.check_verified))
        for path in tampered:
            ops.append(Op("verify_tampered",
                          ["verify-cert", graph.path, *problem_args, "--certificate", path, "--json"], None))
    if graph is not None:
        classes = checks.twin_classes(graph.adj)
        ops.append(Op("nd", ["nd", graph.path, "--json"], lambda p, code: checks.check_nd(p, classes)))
    for spec in inst.reservoir:
        m, q, samples, trials, seed = spec
        expected = checks.reservoir_expected(*spec)
        ops.append(Op("reservoir", ["reservoir", "--m", str(m), "--q", str(q), "--samples", str(samples),
                                    "--trials", str(trials), "--seed", str(seed), "--json"],
                      lambda p, code, spec=spec, expected=expected: checks.check_reservoir(p, *spec, expected),
                      trials=trials))
    return ops


def run_child(args: list[str], outdir: str) -> Outcome:
    """Run ``python3 <args>`` with stdout and stderr in files; rusage via ``os.wait4``."""
    out_path = os.path.join(outdir, "stdout")
    err_path = os.path.join(outdir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Outcome(exit=os.waitstatus_to_exitcode(status), stdout=stdout, stderr=stderr, wall=wall,
                   cpu=usage.ru_utime + usage.ru_stime, rss_kb=usage.ru_maxrss)


def run_inprocess(argv: list[str]) -> Outcome:
    import modcert.cli

    out, err = io.StringIO(), io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = modcert.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is what the CLI would print and exit 1 on
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return Outcome(exit=code, stdout=out.getvalue().encode("utf-8"), stderr=err.getvalue(),
                   wall=wall, cpu=time.process_time() - cpu_start)


def judge(index: int, op: Op, outcome: Outcome, tally: Tally) -> None:
    """Check one outcome: exit contract, traceback, repeat bytes, output content."""
    tally.walls[index].append(outcome.wall)
    tally.cpus[index].append(outcome.cpu)
    tally.rss_kb = max(tally.rss_kb, outcome.rss_kb)
    traceback_seen = "Traceback (most recent call last)" in outcome.stderr
    if op.check is None:
        if index not in tally.tamper:
            if traceback_seen or outcome.exit not in (0, 1, 2, 3):
                tally.tamper[index] = "traceback"
            else:
                tally.tamper[index] = "accepted" if outcome.exit == 0 else "rejected"
        return
    tally.attempted += 1
    where = f"{op.group} #{index}"
    if outcome.exit not in (0, 1, 2, 3):
        tally.failures.append(f"{where}: exit code {outcome.exit}")
    elif traceback_seen:
        tally.failures.append(f"{where}: traceback on stderr")
    elif index in tally.first:
        if outcome.stdout != tally.first[index]:
            tally.failures.append(f"{where}: stdout differs across repeats")
    else:
        tally.first[index] = outcome.stdout
        try:
            payload = json.loads(outcome.stdout)
            reason = op.check(payload, outcome.exit)
            if reason is None and op.on_first is not None:
                op.on_first(payload)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            tally.failures.append(f"{where}: {reason}")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def group_medians(ops: list[Op], tally: Tally) -> dict[str, tuple[float, int]]:
    samples: dict[str, list[float]] = defaultdict(list)
    for index, op in enumerate(ops):
        samples[op.group].extend(tally.walls[index])
    return {f"{group}_s": (median(values), len(values)) for group, values in samples.items()}


def trials_per_second(ops: list[Op], tally: Tally) -> tuple[float, int]:
    reservoir = [i for i, op in enumerate(ops) if op.group == "reservoir"]
    if not reservoir:
        return 0.0, 0
    passes = min(len(tally.walls[i]) for i in reservoir)
    rates = [sum(ops[i].trials for i in reservoir) / sum(tally.walls[i][k] for i in reservoir)
             for k in range(passes)]
    return median(rates), passes


def layer_values(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, _, how, functions in LAYER_METRICS:
        if how == "harness":
            continue
        if how == "counter":
            out[name] = tracer.counts.get(name, 0)
        elif how == "calls":
            out[name] = sum(tracer.calls.get(f, 0) for f in functions)
        else:
            source = tracer.self_time if how == "self" else tracer.total
            out[name] = sum(source.get(f, 0.0) for f in functions)
    out["cli.stdout_bytes"] = stdout_bytes
    return out


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": max(os.sched_getaffinity(0)),
    }


def keep_going(start: float, passes: int, seconds: float, min_passes: int) -> bool:
    """Start another pass unless it would overrun the deadline by over half a pass."""
    elapsed = time.perf_counter() - start
    if passes < min_passes:
        return True
    return elapsed + elapsed / passes / 2 <= seconds and elapsed < HARD_STOP_S


def measure(ops: list[Op], tally: Tally, seconds: float, outdir: str) -> int:
    start = time.perf_counter()
    passes = 0
    before = run_child(["-c", REFERENCE_TASK], outdir)
    tally.ref_walls.append(before.wall)
    while keep_going(start, passes, seconds, MIN_PASSES):
        for index, op in enumerate(ops):
            outcome = run_child(["-m", "modcert", *op.argv], outdir)
            after = run_child(["-c", REFERENCE_TASK], outdir)
            judge(index, op, outcome, tally)
            tally.ref_walls.append(after.wall)
            tally.rel_walls[index].append(2 * outcome.wall / (before.wall + after.wall))
            tally.rel_cpus[index].append(2 * outcome.cpu / (before.cpu + after.cpu))
            before = after
        passes += 1
    return passes


def measure_traced(ops: list[Op], tally: Tally, seconds: float) -> dict:
    """In-process passes; each op runs untraced and then traced, back to back.

    Running the two copies of an op next to each other keeps the CPU's
    speed drift out of ``trace.overhead_frac``.  A first untraced pass warms
    the interpreter's heap and is not timed.
    """
    sys.path.insert(0, SRC)
    tracer = Tracer()
    untraced, traced = [], []
    layers: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    for index, op in enumerate(ops):
        judge(index, op, run_inprocess(op.argv), tally)
    while keep_going(start, len(traced), seconds, 1):
        tracer.reset()
        plain_wall = traced_wall = 0.0
        stdout_bytes = 0
        for index, op in enumerate(ops):
            plain = run_inprocess(op.argv)
            judge(index, op, plain, tally)
            tracer.request = index
            tracer.install()
            try:
                outcome = run_inprocess(op.argv)
            finally:
                tracer.uninstall()
            judge(index, op, outcome, tally)
            plain_wall += plain.wall
            traced_wall += outcome.wall
            stdout_bytes += len(outcome.stdout)
        untraced.append(plain_wall)
        traced.append(traced_wall)
        for name, value in layer_values(tracer, stdout_bytes).items():
            layers[name].append(value)
    return {
        "layers": {name: median(values) for name, values in layers.items()},
        "overhead_frac": median(traced) / median(untraced) - 1.0,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "missing_spans": tracer.missing(LAYER_METRICS),
        "counter_errors": sorted(tracer.counter_errors),
        "spans": tracer.spans,
        "calls": dict(tracer.calls),
    }


def summarize(ops: list[Op], tally: Tally, setup_times: list[float], report: dict) -> dict:
    """End-to-end metrics of a subprocess run; prints the readable report lines."""
    n = len(ops)
    pass_s = sum(median(tally.walls[i]) for i in range(n))
    cpu_s = sum(median(tally.cpus[i]) for i in range(n))
    pass_ref = sum(median(tally.rel_walls[i]) for i in range(n))
    cpu_ref = sum(median(tally.rel_cpus[i]) for i in range(n))
    cpu_total = sum(sum(values) for values in tally.cpus.values())
    peak_mb = tally.rss_kb / 1024.0
    groups = group_medians(ops, tally)
    rate, rate_passes = trials_per_second(ops, tally)
    for name, (value, count) in groups.items():
        if name != "reservoir_s":
            print(f"  {name:<24}{value:>12.4f} s      (n={count}, median per invocation)")
    if rate_passes:
        print(f"  {'reservoir_trials_per_s':<24}{rate:>12.1f} 1/s    (n={rate_passes} passes)")
    print(f"  {'pass_s':<24}{pass_s:>12.4f} s      (sum of per-command medians)")
    print(f"  {'cpu_s':<24}{cpu_s:>12.4f} s      (child user+sys per pass, per-command medians; "
          f"{cpu_total:.2f} s over the run)")
    print(f"  {'peak_rss_mb':<24}{peak_mb:>12.1f} MiB    (largest single child)")
    print(f"  {'pass_ref':<24}{pass_ref:>12.4f} ref    (pass_s, each invocation divided by the "
          f"reference task around it)")
    print(f"  {'cpu_ref':<24}{cpu_ref:>12.4f} ref    (cpu_s, divided the same way)")
    print(f"  {'reference task':<24}{median(tally.ref_walls):>12.4f} s      (n={len(tally.ref_walls)}, "
          f"min {min(tally.ref_walls):.4f}, max {max(tally.ref_walls):.4f})")
    report.update({
        "groups": {name: {"median_s": value, "samples": count} for name, (value, count) in groups.items()},
        "reservoir_trials_per_s": {"value": rate, "passes": rate_passes},
        "walls": {f"{index}:{op.group}": tally.walls[index] for index, op in enumerate(ops)},
        "pass_s": pass_s, "cpu_s": cpu_s, "cpu_total_s": cpu_total, "pass_ref": pass_ref,
        "cpu_ref": cpu_ref, "ref_walls": tally.ref_walls, "peak_rss_mb": peak_mb,
    })
    return {
        "setup_s": {"value": median(setup_times), "unit": "s"},
        "pass_ref": {"value": pass_ref, "unit": "ref"},
        "cpu_ref": {"value": cpu_ref, "unit": "ref"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MiB"},
    }


def summarize_traced(traced: dict, report: dict) -> dict:
    """Per-layer metrics of a traced run; prints the readable report lines."""
    metrics = {name: {"value": traced["layers"][name], "unit": unit} for name, unit, *_ in LAYER_METRICS}
    metrics["trace.overhead_frac"] = {"value": traced["overhead_frac"], "unit": "frac"}
    for name, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:>12.4f}" if entry["unit"] in ("s", "frac") else f"{value:>12g}"
        print(f"  {name:<24}{shown} {entry['unit']}")
    print(f"  untraced pass: {median(traced['untraced_pass_s']):.4f} s, "
          f"traced pass: {median(traced['traced_pass_s']):.4f} s")
    print(f"  missing spans: {', '.join(traced['missing_spans']) or 'none'}")
    if traced["counter_errors"]:
        print(f"  counters that failed to read: {', '.join(traced['counter_errors'])}")
    report.update({key: value for key, value in traced.items() if key != "spans"})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modcert", "cli.py")):
        print(f"error: no modcert sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    # One CPU for the harness and every child it spawns: on a shared 2-vCPU
    # Xeon virtual machine the two CPUs drifted in speed independently
    # (correlation about 0), so a reference run only says something about a
    # command that ran on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rundir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    # Set-up generates the inputs and the checks' reference answers.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        inst = workloads.build(args.workload, args.seed, rundir)
        ops = make_ops(inst, rundir)
        setup_times.append(time.perf_counter() - start)
    tally = Tally()
    info = provenance(args)
    try:
        if args.trace:
            traced = measure_traced(ops, tally, args.seconds)
            passes = len(traced["traced_pass_s"])
        else:
            passes = measure(ops, tally, args.seconds, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = len(tally.failures)
    report = {"provenance": info, "passes": passes, "setup_s": setup_times, "ops_attempted": tally.attempted,
              "ops_failed": failed, "failures": tally.failures}
    if inst.graph is not None:
        report["graph"] = {"n": inst.graph.n, "edges": inst.graph.edges}
    print(f"modcert benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={info['python']} nproc={info['nproc']} passes={passes}")
    print(f"  {'setup_s':<24}{median(setup_times):>12.4f} s      (n={len(setup_times)})")
    if args.trace:
        metrics = summarize_traced(traced, report)
        spans = traced["spans"]
    else:
        metrics = summarize(ops, tally, setup_times, report)
        spans = []
    print(f"  ops_attempted {tally.attempted}  ops_failed {failed}  "
          f"ops_failed_frac {failed / max(tally.attempted, 1):.4f}")
    if tally.tamper:
        outcomes = list(tally.tamper.values())
        report["tamper"] = {kind: outcomes.count(kind) for kind in ("accepted", "traceback", "rejected")}
        print(f"  tamper_accepted {outcomes.count('accepted')} of {len(outcomes)}  (tracebacks "
              f"{outcomes.count('traceback')}, clean rejections {outcomes.count('rejected')})")
    for reason in tally.failures[:10]:
        print(f"  FAILED {reason}")

    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if spans:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as handle:
            handle.write('{"fields": ["id", "parent", "name", "start_s", "end_s", "request"]}\n')
            handle.writelines(json.dumps(span) + "\n" for span in spans)

    result = {"correct": failed == 0 and tally.attempted > 0, "attempted": tally.attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
