"""Command-line front end.

Subcommands:

  enumerate   stream every minimal function of a variant for a graph
  fixed-two   stream the completions of one 2-set A
  oracle      exhaustive reference answers on small graphs
  check       explain whether one function is (minimally) of a variant
  gadget      build a reduction instance (graph + labels + 2-set/function)
  gen         write a generated instance from a named family

Exit codes: 0 success (or nonempty result), 1 input/parse/cap trouble,
2 unsupported variant/graph-class combination, 3 empty result where
emptiness is the answer.  Function streams are flushed line by line;
--stats appends '# key=value' lines after the stream.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .engine import EnumerationStats, iter_minimal
from .fixed_two import solver_for
from .graphs import (
    Graph,
    GraphFormatError,
    bits,
    format_graph,
    format_intervals,
    format_vertex_set,
    parse_graph,
    parse_intervals,
    parse_vertex_set,
)
from .roman import (
    UnsupportedRoute,
    Variant,
    format_function,
    minimality_report,
    parse_function,
    pos_mask,
    two_mask,
)

OK, ERR_INPUT, ERR_UNSUPPORTED, ERR_EMPTY = 0, 1, 2, 3


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(ns: argparse.Namespace) -> Graph:
    if ns.graph is None:
        raise GraphFormatError("no graph file given")
    return parse_graph(_read_text(ns.graph))


def _load_model(ns: argparse.Namespace):
    if ns.intervals is None:
        return None
    return parse_intervals(_read_text(ns.intervals))


class _Out:
    def __init__(self, path: Optional[str]):
        self.path = path
        self.fh = open(path, "w", encoding="utf-8") if path else sys.stdout

    def line(self, text: str) -> None:
        print(text, file=self.fh, flush=True)

    def close(self) -> None:
        if self.path:
            self.fh.close()


def _function_line(f, fmt: str) -> str:
    if fmt == "json":
        import json

        two = two_mask(f)
        return json.dumps(
            {
                "values": list(f),
                "v2": list(bits(two)),
                "v1": list(bits(pos_mask(f) & ~two)),
            },
            separators=(",", ":"),
        )
    return format_function(f)


def _emit_stats(out: _Out, st: EnumerationStats) -> None:
    for key, value in st.as_dict().items():
        out.line(f"# {key}={value}")


def _make_solver(ns: argparse.Namespace, g: Graph):
    return solver_for(g, ns.variant, model=_load_model(ns), class_hint=ns.class_hint)


def cmd_enumerate(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    solver = _make_solver(ns, g)
    out = _Out(ns.output)
    try:
        st = EnumerationStats()
        stream = iter_minimal(g, ns.variant, solver, stats=st)
        count = 0
        for _a, f in stream:
            out.line(_function_line(f, ns.fmt))
            count += 1
            if ns.limit and count >= ns.limit:
                break
        stream.close()
        if ns.stats:
            _emit_stats(out, st)
        return OK
    finally:
        out.close()


def cmd_fixed_two(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    a = parse_vertex_set(ns.two_set, g.n)
    solver = _make_solver(ns, g)
    out = _Out(ns.output)
    try:
        # seconds is the solver's own time, as in enumerate: only its
        # stream steps are timed, not the writes
        clock = time.perf_counter
        seconds = 0.0
        count = 0
        stream = solver.stream(a)
        while True:
            start = clock()
            f = next(stream, None)
            seconds += clock() - start
            if f is None:
                break
            out.line(_function_line(f, ns.fmt))
            count += 1
            if ns.limit and count >= ns.limit:
                break
        stream.close()
        if ns.stats:
            out.line(f"# outputs={count}")
            out.line(f"# seconds={round(seconds, 6)}")
        return OK if count else ERR_EMPTY
    finally:
        out.close()


def cmd_oracle(ns: argparse.Namespace) -> int:
    from .oracle import oracle_all_minimal, oracle_fixed_two

    g = _load_graph(ns)
    out = _Out(ns.output)
    try:
        if ns.two_set is not None:
            a = parse_vertex_set(ns.two_set, g.n)
            fns = sorted(oracle_fixed_two(g, ns.variant, a, cap=ns.cap))
        else:
            fns = sorted(oracle_all_minimal(g, ns.variant, cap=ns.cap))
        for f in fns:
            out.line(_function_line(f, ns.fmt))
        if ns.stats:
            out.line(f"# outputs={len(fns)}")
        if ns.two_set is not None and not fns:
            return ERR_EMPTY
        return OK
    finally:
        out.close()


def cmd_check(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    f = parse_function(ns.function)
    if len(f) != g.n:
        raise GraphFormatError(
            f"function has {len(f)} digits, graph has {g.n} vertices"
        )
    verdict, lines = minimality_report(g, f, ns.variant)
    out = _Out(ns.output)
    try:
        for line in lines:
            out.line(line)
        return OK if verdict else ERR_EMPTY
    finally:
        out.close()


def cmd_gadget(ns: argparse.Namespace) -> int:
    from .gadgets import (
        gadget_crdf_from_sat,
        gadget_maxrd_from_extds,
        gadget_split_from_hypergraph,
        gadget_trdf_from_sat,
    )
    from .oracle import parse_dimacs, parse_hypergraph

    kind = ns.kind
    if kind in ("crdf-sat", "trdf-sat"):
        if ns.cnf is None:
            raise GraphFormatError("sat gadgets need --cnf FILE")
        cnf = parse_dimacs(_read_text(ns.cnf))
        build = gadget_crdf_from_sat if kind == "crdf-sat" else gadget_trdf_from_sat
        inst = build(cnf, strict=ns.strict)
    elif kind == "mrdf-extension":
        g = _load_graph(ns)
        u = parse_vertex_set(ns.set or "", g.n)
        inst = gadget_maxrd_from_extds(g, u)
    elif kind == "split-transversal":
        if ns.hypergraph is None:
            raise GraphFormatError("split gadget needs --hypergraph FILE")
        h = parse_hypergraph(_read_text(ns.hypergraph))
        inst = gadget_split_from_hypergraph(h)
    else:  # pragma: no cover - argparse restricts choices
        raise GraphFormatError(f"unknown gadget kind {kind}")

    prefix = ns.out
    graph_text = format_graph(inst.graph)
    label_lines = [f"{v} {name}" for v, name in enumerate(inst.labels)]
    if prefix:
        with open(f"{prefix}.graph", "w", encoding="utf-8") as fh:
            fh.write(graph_text)
        with open(f"{prefix}.labels", "w", encoding="utf-8") as fh:
            fh.write("\n".join(label_lines) + "\n")
        if inst.fixed_two is not None:
            with open(f"{prefix}.two_set", "w", encoding="utf-8") as fh:
                fh.write(format_vertex_set(inst.fixed_two) + "\n")
        else:
            with open(f"{prefix}.prefunction", "w", encoding="utf-8") as fh:
                fh.write(format_function(inst.prefunction) + "\n")
        print(f"wrote {prefix}.graph")
        return OK
    out = _Out(ns.output)
    try:
        out.line(graph_text.rstrip("\n"))
        out.line("# labels")
        for line in label_lines:
            out.line("# " + line)
        if inst.fixed_two is not None:
            out.line(f"# two_set={format_vertex_set(inst.fixed_two)}")
        else:
            out.line(f"# prefunction={format_function(inst.prefunction)}")
        return OK
    finally:
        out.close()


def _family_instance(family: str, n: int, p: float, seed: int):
    """Returns (graph, model-or-None, partition-or-None, distinguished-set-or-None)."""
    import random

    from . import families

    rng = random.Random(seed)
    if family == "path":
        return families.path_graph(n), None, None, None
    if family == "cycle":
        return families.cycle_graph(n), None, None, None
    if family == "complete":
        return families.complete_graph(n), None, None, None
    if family == "random":
        return families.random_graph(n, p, rng), None, None, None
    if family == "connected-random":
        return families.random_connected_graph(n, p, rng), None, None, None
    if family == "cobipartite-random":
        g, part = families.random_cobipartite(n, p, rng)
        return g, None, part, None
    if family == "interval-random":
        g, model = families.random_interval_instance(n, rng)
        return g, model, None, None
    if family == "split-random":
        return families.random_split_graph(n, p, rng), None, None, None
    if family == "gn":
        g, model, a = families.double_link_chain(n)
        return g, model, None, a
    raise GraphFormatError(f"unknown family {family}")


def cmd_gen(ns: argparse.Namespace) -> int:
    family = ns.family
    n = ns.n
    g, model, part, dset = _family_instance(family, n, ns.p, ns.seed)
    prefix = ns.out
    if prefix:
        with open(f"{prefix}.graph", "w", encoding="utf-8") as fh:
            fh.write(format_graph(g))
        if model is not None:
            with open(f"{prefix}.intervals", "w", encoding="utf-8") as fh:
                fh.write(format_intervals(model))
        print(f"wrote {prefix}.graph")
        return OK
    out = _Out(ns.output)
    try:
        out.line(f"# family={family} n={n} seed={ns.seed}")
        if part is not None:
            out.line(
                f"# cobipartite: {format_vertex_set(part.c1)} | {format_vertex_set(part.c2)}"
            )
        if dset is not None:
            out.line(f"# two_set={format_vertex_set(dset)}")
        out.line(format_graph(g).rstrip("\n"))
        if model is not None:
            out.line("# intervals")
            out.line(format_intervals(model).rstrip("\n"))
        return OK
    finally:
        out.close()


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="romanenum",
        description="Enumerate minimal Roman domination functions and variants.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, variants=("rdf", "mrdf", "trdf", "crdf"), streams=True):
        p.add_argument("--graph", required=False, help="graph file ('n m' header + edge lines)")
        p.add_argument("--variant", choices=variants, default="rdf")
        p.add_argument("--output", help="write results here instead of stdout")
        if streams:  # check prints a report, not functions
            p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")

    p = sub.add_parser("enumerate", help="stream all minimal functions of a variant")
    common(p)
    p.add_argument("--class", dest="class_hint", choices=("auto", "general", "cobipartite", "interval"), default="auto")
    p.add_argument("--intervals", help="interval file (needed for --class interval)")
    p.add_argument("--limit", type=int, default=0, help="stop after this many functions")
    p.add_argument("--stats", action="store_true", help="append '# key=value' lines")

    p = sub.add_parser("fixed-two", help="stream the completions of one 2-set")
    common(p)
    p.add_argument("--class", dest="class_hint", choices=("auto", "general", "cobipartite", "interval"), default="auto")
    p.add_argument("--intervals")
    p.add_argument("--two-set", required=True, help="comma-separated vertices, '' for the empty set")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--stats", action="store_true")

    p = sub.add_parser("oracle", help="exhaustive reference answers (small graphs)")
    common(p, variants=("rdf", "mrdf", "trdf", "crdf", "prdf"))
    p.add_argument("--two-set", help="restrict to functions whose 2-set is exactly this")
    p.add_argument("--cap", type=int, default=10, help="largest n the oracle will scan")
    p.add_argument("--stats", action="store_true")

    p = sub.add_parser("check", help="explain whether a function is (minimally) of a variant")
    common(p, variants=("rdf", "mrdf", "trdf", "crdf", "prdf"), streams=False)
    p.add_argument("--function", required=True, help="digit string, e.g. 2002")

    p = sub.add_parser("gadget", help="build a reduction instance")
    p.add_argument("--kind", required=True, choices=("crdf-sat", "trdf-sat", "mrdf-extension", "split-transversal"))
    p.add_argument("--cnf", help="DIMACS file for the sat kinds")
    p.add_argument("--graph", help="graph file for mrdf-extension")
    p.add_argument("--set", help="vertex set U for mrdf-extension")
    p.add_argument("--hypergraph", help="hypergraph file for split-transversal")
    p.add_argument("--strict", action="store_true", help="enforce the exactly-(2,2) occurrence discipline")
    p.add_argument("--out", help="write PREFIX.graph / PREFIX.labels / PREFIX.two_set|prefunction")
    p.add_argument("--output", help="write stdout form here instead")

    p = sub.add_parser("gen", help="generate an instance from a named family")
    p.add_argument("--family", required=True, choices=(
        "path", "cycle", "complete", "random", "connected-random",
        "cobipartite-random", "interval-random", "split-random", "gn"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5, help="edge probability for random families")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write PREFIX.graph (+ PREFIX.intervals)")
    p.add_argument("--output")

    return top


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "fixed-two": cmd_fixed_two,
    "oracle": cmd_oracle,
    "check": cmd_check,
    "gadget": cmd_gadget,
    "gen": cmd_gen,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    if getattr(ns, "variant", None):
        ns.variant = Variant(ns.variant)
    try:
        if getattr(ns, "limit", 0) < 0:
            raise ValueError("--limit must not be negative")
        return _COMMANDS[ns.command](ns)
    except UnsupportedRoute as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_UNSUPPORTED
    except (OSError, ValueError) as exc:  # input errors, oracle caps and gadget rejections
        print(f"error: {exc}", file=sys.stderr)
        return ERR_INPUT


if __name__ == "__main__":
    sys.exit(main())
