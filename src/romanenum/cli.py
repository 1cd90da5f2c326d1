"""Command-line front end.

Subcommands:

  enumerate   stream every minimal function of a variant for a graph
  fixed-two   stream the completions of one 2-set A
  oracle      exhaustive reference answers on small graphs
  check       explain whether one function is (minimally) of a variant
  gadget      build a reduction instance (graph + labels + 2-set/function)
  gen         write a generated instance from a named family

Exit codes: 0 success (or nonempty result), 1 input/parse/cap trouble or a
closed stdout, 2 unsupported variant/graph-class combination, 3 empty result
where emptiness is the answer.  Function streams are flushed line by line;
--stats appends '# key=value' lines after the stream.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing, contextmanager
from typing import Optional, Sequence

from .engine import EnumerationStats, iter_minimal, timed
from .fixed_two import ROUTES, solver_for
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


def _read(path: Optional[str], missing: str) -> str:
    """The text of the file at path; `missing` says why one is needed."""
    if path is None:
        raise GraphFormatError(missing)
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        return fh.read()


def _load_graph(ns: argparse.Namespace) -> Graph:
    return parse_graph(_read(ns.graph, "no graph file given"))


def _write_line(fh, text: str) -> None:
    print(text, file=fh, flush=True)


@contextmanager
def _output(path: Optional[str]):
    """Yield the line writer for the file at path, or for stdout."""
    fh = open(path, "w", encoding="utf-8") if path else sys.stdout
    try:
        yield lambda text: _write_line(fh, text)
    finally:
        if path:
            fh.close()


def _save(prefix: str, files) -> None:
    """Write each (suffix, text) with a text to PREFIX.suffix, and name the
    graph file."""
    for suffix, text in files:
        if text is not None:
            with _output(f"{prefix}.{suffix}") as write:
                write(text)
    print(f"wrote {prefix}.graph")


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


def _make_solver(ns: argparse.Namespace, g: Graph):
    model = None if ns.intervals is None else parse_intervals(_read(ns.intervals, "no interval file"))
    return solver_for(g, ns.variant, model=model, class_hint=ns.class_hint)


def _write_stream(ns: argparse.Namespace, stream, st: EnumerationStats, keys=None) -> None:
    """Write the function of each (2-set, function) pair of the timed
    stream, stopping at --limit, then close the stream, so that st holds
    its final counts, and with --stats write st's lines (those of keys when
    given)."""
    with _output(ns.output) as write:
        with closing(stream):
            for _a, f in stream:
                write(_function_line(f, ns.fmt))
                if st.outputs == ns.limit:
                    break
        if ns.stats:
            stats = st.as_dict()
            for key in keys or stats:
                write(f"# {key}={stats[key]}")


def cmd_enumerate(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    st = EnumerationStats()
    _write_stream(ns, iter_minimal(g, ns.variant, _make_solver(ns, g), stats=st), st)
    return OK


def cmd_fixed_two(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    a = parse_vertex_set(ns.two_set, g.n)
    solver = _make_solver(ns, g)
    # seconds is the solver's own time, as in enumerate: the writes are left
    # out; the other counters belong to the engine's walk
    st = EnumerationStats()
    _write_stream(ns, timed(((a, f) for f in solver.stream(a)), st), st, ("outputs", "seconds"))
    return OK if st.outputs else ERR_EMPTY


def cmd_oracle(ns: argparse.Namespace) -> int:
    from .oracle import oracle_all_minimal, oracle_fixed_two

    g = _load_graph(ns)
    # the answer comes before the output file is opened, so a cap error
    # leaves an existing file as it was
    if ns.two_set is not None:
        a = parse_vertex_set(ns.two_set, g.n)
        fns = sorted(oracle_fixed_two(g, ns.variant, a, cap=ns.cap))
    else:
        fns = sorted(oracle_all_minimal(g, ns.variant, cap=ns.cap))
    with _output(ns.output) as write:
        for f in fns:
            write(_function_line(f, ns.fmt))
        if ns.stats:
            write(f"# outputs={len(fns)}")
    return ERR_EMPTY if ns.two_set is not None and not fns else OK


def cmd_check(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    f = parse_function(ns.function)
    if len(f) != g.n:
        raise GraphFormatError(
            f"function has {len(f)} digits, graph has {g.n} vertices"
        )
    verdict, lines = minimality_report(g, f, ns.variant)
    with _output(ns.output) as write:
        for line in lines:
            write(line)
    return OK if verdict else ERR_EMPTY


def _cnf(gadgets, ns: argparse.Namespace):
    return gadgets.parse_dimacs(_read(ns.cnf, "sat gadgets need --cnf FILE"))


def _extension(gadgets, ns: argparse.Namespace):
    g = _load_graph(ns)
    return gadgets.gadget_maxrd_from_extds(g, parse_vertex_set(ns.set or "", g.n))


def _split(gadgets, ns: argparse.Namespace):
    text = _read(ns.hypergraph, "split gadget needs --hypergraph FILE")
    return gadgets.gadget_split_from_hypergraph(gadgets.parse_hypergraph(text))


# gadget --kind: name -> builder(romanenum.gadgets, arguments) of its instance
_GADGETS = {
    "crdf-sat": lambda gadgets, ns: gadgets.gadget_crdf_from_sat(_cnf(gadgets, ns), strict=ns.strict),
    "trdf-sat": lambda gadgets, ns: gadgets.gadget_trdf_from_sat(_cnf(gadgets, ns), strict=ns.strict),
    "mrdf-extension": _extension,
    "split-transversal": _split,
}


def cmd_gadget(ns: argparse.Namespace) -> int:
    from . import gadgets

    inst = _GADGETS[ns.kind](gadgets, ns)
    graph_text = format_graph(inst.graph).rstrip("\n")
    label_lines = [f"{v} {name}" for v, name in enumerate(inst.labels)]
    if inst.fixed_two is not None:
        query = "two_set", format_vertex_set(inst.fixed_two)
    else:
        query = "prefunction", format_function(inst.prefunction)
    if ns.out:
        _save(ns.out, [("graph", graph_text), ("labels", "\n".join(label_lines)), query])
        return OK
    with _output(ns.output) as write:
        write(graph_text)
        write("# labels")
        for line in label_lines:
            write("# " + line)
        write("# {}={}".format(*query))
    return OK


def _cobipartite(families, n: int, p: float, rng):
    g, part = families.random_cobipartite(n, p, rng)
    return g, None, None, part


# gen --family: name -> builder(romanenum.families, n, p, rng) of its graph,
# or of (graph, interval model, distinguished 2-set, cobipartite partition)
# with None for what the family does not have
_FAMILIES = {
    "path": lambda families, n, p, rng: families.path_graph(n),
    "cycle": lambda families, n, p, rng: families.cycle_graph(n),
    "complete": lambda families, n, p, rng: families.complete_graph(n),
    "random": lambda families, n, p, rng: families.random_graph(n, p, rng),
    "connected-random": lambda families, n, p, rng: families.random_connected_graph(n, p, rng),
    "cobipartite-random": _cobipartite,
    "interval-random": lambda families, n, p, rng: (
        *families.random_interval_instance(n, rng), None, None),
    "split-random": lambda families, n, p, rng: families.random_split_graph(n, p, rng),
    "gn": lambda families, n, p, rng: (*families.double_link_chain(n), None),
}


def cmd_gen(ns: argparse.Namespace) -> int:
    import random

    from . import families

    if not 0 <= ns.p <= 1:
        raise ValueError(f"--p {ns.p} is not a probability in [0, 1]")
    if ns.n < 0:
        raise ValueError(f"--n {ns.n} is not a vertex count")
    made = _FAMILIES[ns.family](families, ns.n, ns.p, random.Random(ns.seed))
    g, model, dset, part = (made, None, None, None) if isinstance(made, Graph) else made
    graph_text = format_graph(g).rstrip("\n")
    model_text = None if model is None else format_intervals(model).rstrip("\n")
    if ns.out:
        _save(ns.out, [("graph", graph_text), ("intervals", model_text)])
        return OK
    with _output(ns.output) as write:
        write(f"# family={ns.family} n={ns.n} seed={ns.seed}")
        if part is not None:
            write(f"# cobipartite: {format_vertex_set(part.c1)} | {format_vertex_set(part.c2)}")
        if dset is not None:
            write(f"# two_set={format_vertex_set(dset)}")
        write(graph_text)
        if model is not None:
            write("# intervals")
            write(model_text)
    return OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="romanenum",
        description="Enumerate minimal Roman domination functions and variants.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    routed = tuple(dict.fromkeys(v.value for _, variants, _ in ROUTES for v in variants))
    every = tuple(v.value for v in Variant)

    def common(p, variants, streams=True):
        p.add_argument("--graph", required=False, help="graph file ('n m' header + edge lines)")
        p.add_argument("--variant", choices=variants, default="rdf")
        p.add_argument("--output", help="write results here instead of stdout")
        if streams:  # check prints a report, not functions
            p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")

    classes = ("auto", *dict.fromkeys(graph_class for graph_class, _, _ in ROUTES))
    # enumerate and fixed-two share --class, --intervals, --limit and --stats;
    # fixed-two's --two-set sits among them
    for name, blurb in (
        ("enumerate", "stream all minimal functions of a variant"),
        ("fixed-two", "stream the completions of one 2-set"),
    ):
        p = sub.add_parser(name, help=blurb)
        common(p, routed)
        p.add_argument("--class", dest="class_hint", choices=classes, default="auto")
        p.add_argument(
            "--intervals",
            help="interval model file: --class interval needs it, and the crdf auto route uses it",
        )
        if name == "fixed-two":
            p.add_argument("--two-set", required=True, help="comma-separated vertices, '' for the empty set")
        p.add_argument("--limit", type=int, default=0, help="stop after this many functions")
        p.add_argument("--stats", action="store_true", help="append '# key=value' lines")

    p = sub.add_parser("oracle", help="exhaustive reference answers (small graphs)")
    common(p, every)
    p.add_argument("--two-set", help="restrict to functions whose 2-set is exactly this")
    p.add_argument("--cap", type=int, default=10, help="largest n the oracle will scan")
    p.add_argument("--stats", action="store_true")

    p = sub.add_parser("check", help="explain whether a function is (minimally) of a variant")
    common(p, every, streams=False)
    p.add_argument("--function", required=True, help="digit string, e.g. 2002")

    p = sub.add_parser("gadget", help="build a reduction instance")
    p.add_argument("--kind", required=True, choices=tuple(_GADGETS))
    p.add_argument("--cnf", help="DIMACS file for the sat kinds")
    p.add_argument("--graph", help="graph file for mrdf-extension")
    p.add_argument("--set", help="vertex set U for mrdf-extension")
    p.add_argument("--hypergraph", help="hypergraph file for split-transversal")
    p.add_argument("--strict", action="store_true", help="enforce the exactly-(2,2) occurrence discipline")
    p.add_argument("--out", help="write PREFIX.graph / PREFIX.labels / PREFIX.two_set|prefunction")
    p.add_argument("--output", help="write stdout form here instead")

    p = sub.add_parser("gen", help="generate an instance from a named family")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
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
    except BrokenPipeError:
        # the reader closed the output, as a --limit would stop it; stdout
        # goes to os.devnull so that the flush at exit has nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return ERR_INPUT
    except UnsupportedRoute as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_UNSUPPORTED
    except (OSError, ValueError) as exc:  # input errors, oracle caps and gadget rejections
        print(f"error: {exc}", file=sys.stderr)
        return ERR_INPUT


if __name__ == "__main__":
    sys.exit(main())
