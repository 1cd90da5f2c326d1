"""Delay-first benchmark for romanenum.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rdf-sparse --seed 0 --seconds 28 --trace 0

The benchmark times the program from outside: it calls the public functions
of ``graphs``, ``fixed_two``, ``engine`` and ``roman`` the way
``romanenum enumerate`` does and stamps every output with ``perf_counter``.
A run builds the workload's instances from the seed.  Then five worker
interpreters in turn (``worker.py``) pass over the instances (one cycle)
until the run's passes have taken their share of ``--seconds``, with cold
set-up measured in fresh interpreters before each worker.  The end-to-end
metrics take the best of the repeats of each output over all workers.  With
``--trace 1`` one worker takes all the time and runs every instance a second
time with spans around the calls into each layer; the per-layer metrics come
from those traced passes.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs are checked outside the timed region: they must be distinct and
minimal, the chain's must have the fixed 2-set, 1 on the other anchors and
one raised connector per gap, every pass must give the same set, seed 0 must give the pinned set, and
the generator at 10 vertices must agree with the brute-force oracle.  A
failed check counts one failed attempt; ``failed_share`` is printed with the
human-readable lines.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from pathlib import Path
from time import perf_counter
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_RUNS = 10
WORKERS = 5
# On the enumeration workloads the first output comes in tens of
# microseconds, so each pass is followed by this many first-output probes.
PROBES = 20

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import (  # noqa: E402
    CANON, CONNECT, ENGINE, FIRST, FORMAT, LOOP, MINIMAL, STREAM, VALID, WINDOW, Tracer,
)
from workloads import PINNED, WORKLOADS, Instance, make_instances, oracle_instance  # noqa: E402


class CannotRun(RuntimeError):
    """The checkout has no runnable program; no result is printed."""


def load_program():
    """Import the package from this checkout's src/, as the CLI would."""
    if not (SRC / "romanenum" / "__init__.py").is_file():
        raise CannotRun(f"no romanenum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import romanenum.cli  # the entry point users run; loads what they load

    if not Path(romanenum.cli.__file__).resolve().is_relative_to(SRC):
        raise CannotRun(f"romanenum imported from {romanenum.cli.__file__}")


@dataclass
class Prepared:
    inst: Instance
    graph: object
    variant: object
    solver: object
    two_set: Optional[int]


def prepare(inst: Instance) -> Prepared:
    from romanenum.fixed_two import solver_for
    from romanenum.graphs import parse_graph, parse_intervals
    from romanenum.roman import Variant

    g = parse_graph(inst.graph_text)
    model = parse_intervals(inst.intervals_text) if inst.intervals_text is not None else None
    variant = Variant(inst.variant)
    solver = solver_for(g, variant, model=model, class_hint=inst.graph_class)
    two_set = None if inst.two_set is None else sum(1 << v for v in inst.two_set)
    return Prepared(inst, g, variant, solver, two_set)


@dataclass
class Pass:
    """One timed pass over one instance."""

    outputs: int
    first_s: float
    last_s: float
    wall_s: float
    gaps: array
    text: str
    stats: object
    instance: int = 0


def run_pass(prep: Prepared, tracer: Optional[Tracer] = None) -> Pass:
    """Stream the instance's outputs, formatting each line into a buffer as
    ``enumerate`` does, and stamp each output as it arrives."""
    from romanenum.engine import EnumerationStats, iter_minimal
    from romanenum.roman import format_function

    fmt = format_function if tracer is None else tracer.function(format_function, FORMAT)
    solver = prep.solver if tracer is None else tracer.solver(prep.solver)
    stats = EnumerationStats()
    buf = io.StringIO()
    stamps = []
    stamp = stamps.append
    clock = perf_counter
    if tracer is None:
        t_ready = clock()
    else:
        loop = tracer.open(LOOP)
        t_ready = loop.start
    if prep.two_set is None:
        stream = iter_minimal(prep.graph, prep.variant, solver, stats=stats)
        if tracer is not None:
            stream = tracer.generator(stream, ENGINE)
        pairs = stream
    else:
        stream = solver.stream(prep.two_set)
        pairs = zip(repeat(prep.two_set), islice(stream, prep.inst.limit or None))
    for _a, f in pairs:
        stamp(clock())
        buf.write(fmt(f))
        buf.write("\n")
    stream.close()
    t_end = clock() if tracer is None else tracer.close(loop)
    gaps = array("d", (b - a for a, b in zip(stamps, stamps[1:])))
    return Pass(
        outputs=len(stamps),
        first_s=stamps[0] - t_ready if stamps else t_end - t_ready,
        last_s=stamps[-1] - t_ready if stamps else t_end - t_ready,
        wall_s=t_end - t_ready,
        gaps=gaps,
        text=buf.getvalue(),
        stats=stats,
    )


def first_probe(prep: Prepared) -> float:
    """Ready solver to first output of a fresh enumeration, which is then
    dropped."""
    from romanenum.engine import iter_minimal

    t_ready = perf_counter()
    stream = iter_minimal(prep.graph, prep.variant, prep.solver)
    next(stream)
    t_first = perf_counter()
    stream.close()
    return t_first - t_ready


# ------------------------------------------------------------------ checks


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def check_lines(prep: Prepared, lines: List[str]) -> List[str]:
    """Problems with one pass's output lines; empty when all is well."""
    from romanenum.roman import is_minimal_variant, parse_function

    problems = []
    if len(set(lines)) != len(lines):
        problems.append("duplicate outputs")
    if prep.inst.limit and len(lines) != prep.inst.limit:
        problems.append(f"{len(lines)} outputs, expected {prep.inst.limit}")
    for line in lines:
        if not is_minimal_variant(prep.graph, parse_function(line), prep.variant):
            problems.append(f"not a minimal {prep.variant.value}: {line}")
            break
        if prep.inst.two_set is not None and not chain_member(prep.inst, line):
            problems.append(f"not a completion of the chain's 2-set: {line}")
            break
    return problems


@lru_cache(maxsize=4)
def _chain_fixed(inst: Instance):
    """(vertex, value) of every vertex outside the gaps: 2 on the 2-set, 1
    on the other anchors."""
    connectors = {v for gap in inst.gaps for v in gap}
    twos = set(inst.two_set)
    n = len(connectors) + len(inst.gaps) + 1
    return n, tuple((v, "2" if v in twos else "1") for v in range(n) if v not in connectors)


def chain_member(inst: Instance, line: str) -> bool:
    """2 on the 2-set, 1 on the other anchors, and exactly one raised
    connector in every gap: 2^gaps functions in all, which the oracle check
    confirms is the whole completion set at a small size."""
    n, fixed = _chain_fixed(inst)
    return len(line) == n and all(line[v] == value for v, value in fixed) and all(
        {line[u], line[w]} == {"0", "1"} for u, w in inst.gaps
    )


def oracle_check(workload: str, seed: int) -> List[str]:
    """The generator at 10 vertices: the program's set equals the oracle's."""
    from romanenum.oracle import oracle_all_minimal
    from romanenum.roman import format_function

    inst = oracle_instance(workload, seed)
    prep = prepare(inst)
    got = run_pass(prep).text.splitlines()
    want = {format_function(f) for f in oracle_all_minimal(prep.graph, prep.variant)}
    if inst.two_set is not None:
        want = {line for line in want if {v for v, ch in enumerate(line) if ch == "2"} == set(inst.two_set)}
        if len(want) != 2 ** len(inst.gaps) or not all(chain_member(inst, x) for x in want):
            return ["oracle: the chain's completions are not one connector per gap"]
    if len(got) != len(set(got)) or set(got) != want:
        return [f"oracle: program gives {len(set(got))} functions, oracle {len(want)}"]
    return []


# ------------------------------------------------------------------ set-up


def measure_setup(inst: Instance, runs: int, warm_up: bool = False) -> List[dict]:
    """Cold set-up in fresh interpreters, after an untimed warm-up run, if
    asked for, that leaves the byte-code cache as an installed package would
    have it."""
    job = json.dumps({
        "graph": inst.graph_text,
        "intervals": inst.intervals_text,
        "variant": inst.variant,
        "class": inst.graph_class,
    })
    results = []
    for _ in range(runs + warm_up):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=job, capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise CannotRun(f"set-up probe failed: {proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results[warm_up:]


# ------------------------------------------------------------------ run


class Checks:
    """Every check made in a run: one attempt each, failed if it found problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Run(Checks):
    """The passes one worker made and the checks made on them."""

    def __init__(self, preps: List[Prepared], line_check: bool):
        super().__init__()
        self.preps = preps
        self.line_check = line_check
        self.untraced: List[Pass] = []
        self.traced: List[Pass] = []
        self.probes: List[float] = []  # instance, first_s pairs, flattened
        self.cycles = 0
        self.sets = {}  # instance -> (outputs, digest) of its first pass

    def record(self, k: int, p: Pass, into: List[Pass]) -> None:
        """Check a pass, then keep it without its text.  The first pass of an
        instance is checked line by line when line_check is set; later ones
        must give the same set."""
        lines = p.text.splitlines()
        got = (len(lines), digest(lines))
        if k not in self.sets:
            self.sets[k] = got
            if self.line_check:
                self.count(check_lines(self.preps[k], lines))
        else:
            self.count([] if got == self.sets[k] else [f"instance {k}: a pass gave another set"])
        p.instance, p.text = k, ""
        into.append(p)


def run_cycles(workload: str, seed: int, seconds: float, tracer: Optional[Tracer] = None,
               size: Optional[int] = None, count: Optional[int] = None,
               line_check: bool = True) -> dict:
    """One worker's share of a run: cycles over the instances in this process
    until its passes have taken ``seconds``; the checks between passes do
    not count.  With a tracer every pass is repeated traced.  Returns the
    untraced passes' timings (the caller pools them over the workers) or the
    per-layer metrics, the time measured, and the worker's checks.  Only one
    worker of a run checks outputs line by line; the others must give the
    same sets, which the caller compares."""
    preps = [prepare(inst) for inst in make_instances(workload, seed, size, count)]
    run = Run(preps, line_check)
    measured = 0.0
    while run.cycles == 0 or measured < seconds:
        for k, prep in enumerate(preps):
            p = run_pass(prep)
            measured += p.wall_s
            run.record(k, p, run.untraced)
            if tracer is None and prep.two_set is None:
                for _ in range(PROBES):
                    first_s = first_probe(prep)
                    measured += first_s
                    run.probes += (k, first_s)
            if tracer is not None:
                with tracer.installed():
                    p = run_pass(prep, tracer)
                measured += p.wall_s
                run.record(k, p, run.traced)
        run.cycles += 1
        if run.cycles == 1:
            # what a process holding one enumeration of each instance needs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.logging = False
    result = {
        "measured_s": measured,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "sets": [run.sets[k] for k in sorted(run.sets)],
    }
    if tracer is not None:
        result["metrics"] = per_layer_metrics(run, tracer)
    else:
        result["passes"] = [encode_pass(p) for p in run.untraced]
        result["probes"] = run.probes
        result["peak_rss_mb"] = peak_rss_mb
    return result


def encode_pass(p: Pass) -> dict:
    return {"instance": p.instance, "outputs": p.outputs, "first_s": p.first_s,
            "last_s": p.last_s, "gaps": base64.b64encode(p.gaps.tobytes()).decode("ascii")}


def decode_pass(d: dict) -> Pass:
    gaps = array("d")
    gaps.frombytes(base64.b64decode(d["gaps"]))
    return Pass(outputs=d["outputs"], first_s=d["first_s"], last_s=d["last_s"], wall_s=0.0,
                gaps=gaps, text="", stats=None, instance=d["instance"])


def run_worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise CannotRun(f"worker failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool = False,
            size: Optional[int] = None, count: Optional[int] = None,
            setup_runs: int = SETUP_RUNS, workers: int = WORKERS):
    """One benchmark run; returns (metrics, checks).

    Untraced, the timed cycles are split over ``workers`` fresh interpreters
    in turn, and the metrics are taken over all of their passes pooled.
    Each worker measures until the run's passes reach its share of
    ``seconds``, so one that overruns shortens the next.  On a shared 2-core
    machine one process ran the same passes faster than another; several
    workers sample that.  Traced, one worker takes all the time and writes
    the span log.  size and count shrink the instances for the self-test;
    the pinned set applies only without them.
    """
    first = make_instances(workload, seed, size, count)[0]
    job = {"workload": workload, "seed": seed, "size": size, "count": count, "trace": trace}
    if trace:
        setup = measure_setup(first, setup_runs, warm_up=True)
        results = [run_worker({**job, "seconds": seconds, "line_check": True})]
    else:
        setup, results, measured = [], [], 0.0
        for i in range(workers):
            # set-up runs spread over the run, like the timed passes
            setup += measure_setup(first, -(-setup_runs // workers), warm_up=i == 0)
            share = max((i + 1) * seconds / workers - measured, 0.0)
            results.append(run_worker({**job, "seconds": share, "line_check": i == 0}))
            measured += results[-1]["measured_s"]
    checks = Checks()
    for r in results:
        checks.attempted += r["attempted"]
        checks.failed += r["failed"]
        checks.problems.extend(r["problems"])
    sets = results[0]["sets"]
    checks.count([] if all(r["sets"] == sets for r in results) else ["workers gave different sets"])
    if size is None and count is None and seed == 0 and workload in PINNED:
        total = sum(n for n, _ in sets)
        combined = hashlib.sha256("".join(d for _, d in sets).encode()).hexdigest()
        checks.count([] if (total, combined) == PINNED[workload]
                     else [f"seed 0: {total} outputs with digest {combined}, not the pinned set"])
    checks.count(oracle_check(workload, seed))
    metrics = setup_metrics(setup, trace)
    if trace:
        metrics.update((name, tuple(v)) for name, v in results[0]["metrics"].items())
    else:
        passes = [decode_pass(d) for r in results for d in r["passes"]]
        probes = [pair for r in results for pair in zip(r["probes"][::2], r["probes"][1::2])]
        metrics.update(end_to_end_metrics(passes, probes, [r["peak_rss_mb"] for r in results]))
    return metrics, checks


def setup_metrics(setup: List[dict], trace: bool) -> dict:
    n = len(setup)
    if not trace:
        return {"setup_s": (statistics.median(s["import_s"] + s["parse_s"] + s["solver_for_s"] for s in setup), n)}
    return {
        "cli.import_s": (statistics.median(s["import_s"] for s in setup), n),
        "graphs.parse_s": (statistics.median(s["parse_s"] for s in setup), n),
        "fixed_two.solver_for_s": (statistics.median(s["solver_for_s"] for s in setup), n),
    }


def end_to_end_metrics(passes: List[Pass], probes, peak_rss_mb: List[float]) -> dict:
    """Every worker's passes and first-output probes pooled, best of the
    repeats per instance and per output; memory is the median over the
    workers.

    An instance gives its outputs in the same order on every pass, so the
    i-th gap of one pass is the i-th gap of every other.  Each time below is
    the least of its repeats, as ``timeit`` advises: the same passes ran up
    to 1.7 times slower while the shared machine was busy, in spells of tens
    of milliseconds to minutes, and the share of slow spells differed from
    one run to the next.  A slower program is slower on every repeat.

    first_output_s is the median over instances of the best first output
    of passes and probes.  outputs_per_s divides a cycle's
    outputs by the sum over instances of the best first output plus the
    best of each gap.
    """
    by_instance = {}
    for p in passes:
        by_instance.setdefault(p.instance, []).append(p)
    probed = {}
    for k, first_s in probes:
        probed.setdefault(k, []).append(first_s)
    first, cycle_s, outputs = [], 0.0, 0
    gaps = array("d")
    for k, reps in by_instance.items():
        best_gaps = array("d", map(min, zip(*(p.gaps for p in reps))))
        best_first = min(p.first_s for p in reps)
        first.append(min([best_first] + probed.get(k, [])))
        cycle_s += best_first + sum(best_gaps)
        outputs += reps[0].outputs
        gaps.extend(best_gaps)
    measured = sum(len(p.gaps) for p in passes)
    return {
        "first_output_s": (statistics.median(first), len(passes) + len(probes)),
        "outputs_per_s": (outputs / cycle_s, sum(p.outputs for p in passes)),
        "delay_p50_s": (statistics.median(gaps), measured),
        "delay_p99_s": (statistics.quantiles(gaps, n=100)[98], measured),
        "peak_rss_mb": (statistics.median(peak_rss_mb), len(peak_rss_mb)),
        "delay_max_s": (max(gaps), measured),  # diagnostic only
    }


def per_layer_metrics(run: Run, tracer: Tracer) -> dict:
    c = run.cycles
    calls, self_s = tracer.calls, tracer.self_s
    stats = [p.stats for p in run.traced]
    explored = sum(s.sets_explored for s in stats)
    empty = sum(s.empty_sets_explored for s in stats)
    outputs = sum(p.outputs for p in run.traced)
    minimal_calls = calls[MINIMAL]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "engine.self_s": self_s[ENGINE] / c,
        "engine.sets_explored": explored / c,
        "engine.empty_sets": empty / c,
        "engine.nonempty_ratio": ratio(explored - empty, explored),
        "engine.max_inter_output_sets": max(s.max_inter_output_work for s in stats),
        "fixed_two.first.calls": calls[FIRST] / c,
        "fixed_two.first.self_s": self_s[FIRST] / c,
        "fixed_two.stream.calls": tracer.generators[STREAM] / c,
        "fixed_two.stream.self_s": self_s[STREAM] / c,
        "fixed_two.solver_calls_per_output": ratio(calls[FIRST] + tracer.generators[STREAM], outputs),
        "fixed_two.window.tables_built": tracer.tables_built / c,
        "fixed_two.window.tests": tracer.window_tests / c,
        "fixed_two.window.hit_ratio": ratio(tracer.window_hits, tracer.window_tests),
        "fixed_two.window.self_s": self_s[WINDOW] / c,
        "roman.valid_two_set.calls": calls[VALID] / c,
        "roman.valid_two_set.self_s": self_s[VALID] / c,
        "roman.canonical_rdf.calls": calls[CANON] / c,
        "roman.canonical_rdf.self_s": self_s[CANON] / c,
        "roman.is_minimal_variant.calls": minimal_calls / c,
        "roman.is_minimal_variant.self_s": self_s[MINIMAL] / c,
        "roman.is_minimal_variant.accept_ratio": ratio(tracer.accepted[MINIMAL], minimal_calls),
        "graphs.connectivity.calls": calls[CONNECT] / c,
        "graphs.connectivity.self_s": self_s[CONNECT] / c,
        "cli.format.self_s": self_s[FORMAT] / c,
        "bench.loop.self_s": self_s[LOOP] / c,
        "trace.wall_s": sum(p.wall_s for p in run.traced) / c,
        "trace.overhead_s": (sum(p.wall_s for p in run.traced) - sum(p.wall_s for p in run.untraced)) / c,
    }
    return {k: (v, c) for k, v in values.items()}


def report(workload: str, metrics: dict, checks: Checks, trace: bool, out=sys.stdout) -> dict:
    """Print the human-readable lines, then the JSON result as the last line."""
    table = PER_LAYER if trace else END_TO_END
    units = {m.name: m.unit for m in table}
    lines = [(name, value, units.get(name, "s"), n, name not in units)
             for name, (value, n) in metrics.items()]
    lines.append(("failed_share", checks.failed / checks.attempted, "ratio", checks.attempted, False))
    for name, value, unit, samples, diagnostic in lines:
        note = "  diagnostic, not in the result" if diagnostic else ""
        print(f"{workload:20s} {name:40s} {value:14.6g} {unit:6s} (n={samples}){note}", file=out)
    for problem in checks.problems:
        print(f"{workload:20s} check failed: {problem}", file=out)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m.name: {"value": metrics[m.name][0], "unit": m.unit} for m in table},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_program()
        metrics, checks = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, metrics, checks, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
