"""The command-line front end, pinned byte for byte.

One sha256 covers a matrix of invocations: each one's argv, exit code and
standard output, and the bytes of every file that its --out or --output
writes.  Standard error is left out, so a refusal may change its wording
but not its exit code.  The `# seconds=` values are masked, since they
are timings.  Each call runs in-process, in a directory holding only the
input files, so the paths in argv and in `wrote PREFIX.graph` lines are
the same on every run.  The help text is formatted for 80 columns; the
digest was recorded on Python 3.11, and another version's argparse may lay
the help out differently.
"""

import hashlib
import itertools
import os
import re

from romanenum.cli import main
from romanenum.families import double_link_chain
from romanenum.graphs import format_graph, format_intervals

VARIANTS = ("rdf", "mrdf", "trdf", "crdf")
CLASSES = ("auto", "general", "cobipartite", "interval")
GN_GRAPH, GN_MODEL, _ = double_link_chain(3)

INPUTS = {
    "p4.graph": "4 3\n0 1\n1 2\n2 3\n",
    # the cliques {0, 1, 2} and {3, 4, 5}, joined by 0-3 and 2-5
    "cob.graph": "6 8\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n0 3\n2 5\n",
    "gn.graph": format_graph(GN_GRAPH),
    "gn.intervals": format_intervals(GN_MODEL),
    "f.cnf": "p cnf 2 2\n1 2 0\n-1 -2 0\n",
    "h.hg": "3 3\n0 1\n1 2\n0 2\n",
}

# each is refused with exit 1
MALFORMED = {
    "empty.graph": "",
    "wide.graph": "3 1 0\n0 1\n",
    "word.graph": "3 1\n0 x\n",
    "long.graph": "3 1\n0 1 2\n",
    "few.graph": "3 2\n0 1\n",
    "loop.graph": "3 1\n1 1\n",
    "empty.intervals": "# nothing\n",
    "wide.intervals": "2 2\n0 1\n1 2\n",
    "short.intervals": "2\n0 1\n1\n",
    "word.intervals": "2\n0 1\n1 y\n",
    "few.intervals": "3\n0 1\n",
    "back.intervals": "2\n0 1\n3 2\n",
    "empty.hg": "\n",
    "wide.hg": "3 2 1\n0 1\n1 2\n",
    "word.hg": "3 1\n0 z\n",
    "few.hg": "3 2\n0 1\n",
    "range.hg": "3 1\n0 3\n",
    "negative.hg": "3 1\n-1 0\n",
    "few.cnf": "p cnf 3 5\n1 2 0\n-1 -3 0\n",
    "word.cnf": "p cnf 2 1\n1 x 0\n",
    "open.cnf": "p cnf 2 1\n1 2\n",
    "mixed.cnf": "p cnf 2 1\n1 -2 0\n",
}

STREAM_GRAPHS = (
    ("p4.graph", None, ("0", "")),
    ("cob.graph", None, ("3", "")),
    ("gn.graph", "gn.intervals", ("1", "0,2")),
)


def invocations():
    """The argv of every call in the matrix, in order."""
    yield ["--help"]
    for command in ("enumerate", "fixed-two", "oracle", "check", "gadget", "gen"):
        yield [command, "--help"]
    for graph, intervals, two_sets in STREAM_GRAPHS:
        model = ["--intervals", intervals] if intervals else []
        for variant, fmt, cls, limit, stats in itertools.product(
            VARIANTS, ("text", "json"), CLASSES, ([], ["--limit", "2"]), ([], ["--stats"])
        ):
            tail = ["--graph", graph, "--variant", variant, "--format", fmt, "--class", cls,
                    *model, *limit, *stats]
            yield ["enumerate", *tail]
            for two_set in two_sets:
                yield ["fixed-two", "--two-set", two_set, *tail]
        yield ["enumerate", "--graph", graph, "--limit", "0", "--output", "out.txt"]
        yield ["fixed-two", "--graph", graph, "--two-set", two_sets[0], "--output", "out.txt"]
    for graph in ("p4.graph", "cob.graph"):
        for variant, two_set, fmt, stats in itertools.product(
            (*VARIANTS, "prdf"), ([], ["--two-set", "0"]), ("text", "json"), ([], ["--stats"])
        ):
            yield ["oracle", "--graph", graph, "--variant", variant, *two_set, "--format", fmt, *stats]
    yield ["oracle", "--graph", "p4.graph", "--cap", "3"]
    yield ["oracle", "--graph", "p4.graph", "--output", "out.txt"]
    for graph, functions in (("p4.graph", ("1111", "2002", "2011", "0201", "2111", "1120", "0000")),
                             ("cob.graph", ("200100", "111111", "201000", "210120"))):
        for variant, function in itertools.product((*VARIANTS, "prdf"), functions):
            yield ["check", "--graph", graph, "--variant", variant, "--function", function]
    yield ["check", "--graph", "p4.graph", "--function", "20"]
    yield ["check", "--graph", "p4.graph", "--function", "2002", "--output", "out.txt"]
    for kind, inputs in (
        ("crdf-sat", ["--cnf", "f.cnf"]),
        ("trdf-sat", ["--cnf", "f.cnf"]),
        ("mrdf-extension", ["--graph", "p4.graph", "--set", "1"]),
        ("split-transversal", ["--hypergraph", "h.hg"]),
    ):
        yield ["gadget", "--kind", kind, *inputs]
        yield ["gadget", "--kind", kind, *inputs, "--out", "inst"]
        yield ["gadget", "--kind", kind, *inputs, "--output", "out.txt"]
        yield ["gadget", "--kind", kind]
    yield ["gadget", "--kind", "crdf-sat", "--cnf", "f.cnf", "--strict"]
    for family, n in (("path", 4), ("cycle", 5), ("complete", 4), ("random", 6),
                      ("connected-random", 6), ("cobipartite-random", 6),
                      ("interval-random", 6), ("split-random", 6), ("gn", 3)):
        yield ["gen", "--family", family, "--n", str(n), "--seed", "5"]
        yield ["gen", "--family", family, "--n", str(n), "--seed", "5", "--p", "0.3", "--out", "made"]
        yield ["gen", "--family", family, "--n", str(n), "--output", "out.txt"]
    for name in MALFORMED:
        if name.endswith(".graph"):
            yield ["enumerate", "--graph", name]
            yield ["check", "--graph", name, "--function", "111"]
        elif name.endswith(".intervals"):
            yield ["enumerate", "--graph", "gn.graph", "--variant", "crdf", "--intervals", name]
        elif name.endswith(".hg"):
            yield ["gadget", "--kind", "split-transversal", "--hypergraph", name]
        else:
            yield ["gadget", "--kind", "trdf-sat", "--cnf", name]
    yield ["enumerate", "--graph", "missing.graph"]


def transcript(capsys):
    """(argv, exit code, stdout, files written) for each invocation; run in
    an empty directory."""
    inputs = {**INPUTS, **MALFORMED}
    for name, text in inputs.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    for argv in invocations():
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and argparse refusals
            code = exc.code
        out = capsys.readouterr().out
        written = []
        for name in sorted(set(os.listdir()) - set(inputs)):
            with open(name, "rb") as fh:
                written.append((name, fh.read()))
            os.remove(name)
        yield argv, code, out, written


def mask(text):
    return re.sub(r"# seconds=\S+", "# seconds=*", text)


# re-recorded when fixed-two's --help came to describe --intervals, --limit
# and --stats, and both commands' --intervals help the crdf auto route; the
# other 1,375 calls of the matrix gave the same transcript as before
FRONT_END_DIGEST = "103b04e5129f4959965c4bfa0138ade9d497c40d9ec03e3dae5a123e9201f35c"


def test_front_end_output_is_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv, code, out, written in transcript(capsys):
        digest.update(repr((argv, code, mask(out))).encode())
        for name, data in written:
            digest.update(repr((name, mask(data.decode()))).encode())
    assert digest.hexdigest() == FRONT_END_DIGEST
