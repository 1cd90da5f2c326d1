"""Command-line behaviour: golden outputs, exit codes, file round-trips.

main() is invoked in-process with argv lists; stdout/stderr go through
pytest's capsys fixture.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import romanenum.cli as cli
import romanenum.families as families
from romanenum.cli import main
from romanenum.families import path_graph
from romanenum.fixed_two import MrdfSolver
from romanenum.gadgets import gadget_maxrd_from_extds
from romanenum.graphs import Graph, bit, format_graph, format_intervals, parse_graph
from romanenum.oracle import oracle_all_minimal
from romanenum.roman import Variant, format_function

from reference import path_interval_model

P4_TEXT = "4 3\n0 1\n1 2\n2 3\n"

RDF_P4_LINES = ["1111", "2011", "2002", "0201", "0220", "1020", "1102"]
MRDF_P4_LINES = ["1111", "2011", "1201", "0211", "1120", "1021", "1102"]


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.graph"
    path.write_text(P4_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


# ------------------------------------------------------------- enumerate


def test_enumerate_rdf_golden(capsys, p4_file):
    code, out, err = run(capsys, ["enumerate", "--graph", p4_file, "--variant", "rdf"])
    assert code == 0
    assert out == RDF_P4_LINES
    assert err == ""


def test_enumerate_mrdf_with_stats(capsys, p4_file):
    code, out, err = run(
        capsys, ["enumerate", "--graph", p4_file, "--variant", "mrdf", "--stats"]
    )
    assert code == 0
    assert out[:7] == MRDF_P4_LINES
    assert out[7:12] == [
        "# outputs=7",
        "# sets_explored=7",
        "# empty_sets_explored=2",
        "# max_consecutive_empty=1",
        "# max_inter_output_work=2",
    ]
    assert out[12].startswith("# seconds=")
    assert len(out) == 13


def test_enumerate_json_and_limit(capsys, p4_file):
    code, out, _ = run(
        capsys,
        ["enumerate", "--graph", p4_file, "--variant", "rdf", "--format", "json", "--limit", "2"],
    )
    assert code == 0
    assert len(out) == 2
    first = json.loads(out[0])
    assert first == {"values": [1, 1, 1, 1], "v2": [], "v1": [0, 1, 2, 3]}
    second = json.loads(out[1])
    assert second == {"values": [2, 0, 1, 1], "v2": [0], "v1": [2, 3]}


def test_negative_limit_is_refused(capsys, p4_file):
    for command in (["enumerate"], ["fixed-two", "--two-set", "0"]):
        code, out, err = run(capsys, [*command, "--graph", p4_file, "--limit", "-1"])
        assert code == 1, command
        assert out == []
        assert err == "error: --limit must not be negative\n"


def test_enumerate_to_output_file(capsys, p4_file, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run(
        capsys,
        ["enumerate", "--graph", p4_file, "--variant", "rdf", "--output", str(target)],
    )
    assert code == 0
    assert out == []
    assert target.read_text().splitlines() == RDF_P4_LINES


def test_enumerate_unsupported_route(capsys, tmp_path):
    # a 5-path is not cobipartite, so the total variant has no route
    p5 = tmp_path / "p5.graph"
    p5.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    code, out, err = run(capsys, ["enumerate", "--graph", str(p5), "--variant", "trdf"])
    assert code == 2
    assert out == []
    assert err.startswith("error:")


def test_enumerate_missing_graph(capsys, tmp_path):
    code, _, err = run(capsys, ["enumerate", "--graph", str(tmp_path / "nope.graph")])
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run(capsys, ["enumerate"])
    assert code == 1
    assert "no graph file" in err


def test_interval_class_refuses_a_model_that_misses_an_edge(capsys, tmp_path):
    # a path on 0..10 with the chord 3-9, given the path's layout: answers
    # read off the layout would miss functions, so both commands refuse
    g = Graph(11, [(i, i + 1) for i in range(10)] + [(3, 9)])
    (tmp_path / "g.graph").write_text(format_graph(g))
    (tmp_path / "g.intervals").write_text(format_intervals(path_interval_model(11)))
    route = [
        "--graph", str(tmp_path / "g.graph"),
        "--variant", "crdf",
        "--class", "interval",
        "--intervals", str(tmp_path / "g.intervals"),
    ]
    for argv in (["enumerate", *route], ["fixed-two", *route, "--two-set", "3"]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == []
        assert err == "error: interval model does not realize the graph\n"


def test_enumerate_interval_class_on_the_gn_family(capsys, tmp_path):
    prefix = str(tmp_path / "chain")
    code, _, _ = run(capsys, ["gen", "--family", "gn", "--n", "2", "--out", prefix])
    assert code == 0
    code, out, err = run(
        capsys,
        [
            "enumerate",
            "--graph", prefix + ".graph",
            "--variant", "crdf",
            "--class", "interval",
            "--intervals", prefix + ".intervals",
        ],
    )
    assert code == 0
    assert err == ""
    g = parse_graph((tmp_path / "chain.graph").read_text())
    want = oracle_all_minimal(g, Variant.CRDF)
    assert len(out) == len(want) == 7
    assert set(out) == {format_function(f) for f in want}


# sha256 of the whole standard output, recorded before the window walk was
# rewritten: (command, anchors, format) -> digest
GN_DIGESTS = {
    ("fixed-two", 3, "text"): "f01412d529f46f903a72b7290246923e05a5ff0613f131796795ff86c4ca6723",
    ("fixed-two", 3, "json"): "007397283616fe712cb00a4099afd07545ebfc78586a99cec6c5bf2f2c2d5ca9",
    ("enumerate", 3, "text"): "131617a34176b4e487d560f42d9c9a23c5e21776b875980beb2e4b0a3ad61e4c",
    ("enumerate", 3, "json"): "94f32590bd460ebdc189bc2d939716b68c28cea93418f198794ca2b0beefb396",
    ("fixed-two", 5, "text"): "82bb6500e47800ca8cafc0287c8ffb9d83714be6bf4d2cc6ffc72a25073f44b6",
    ("fixed-two", 5, "json"): "93d055f794366131c5de34baaf0ef2a1b7fd56cd9fb314c9fa4ec83fe4c12b65",
    ("enumerate", 5, "text"): "1b2dedd65bb6f55830c583dc2dee7371585d3f6edae54effb8ce7bf5def5ea24",
    ("enumerate", 5, "json"): "85bab498562b2ef4cd482fcb07956ab392041314f0b181a95ac30e437dc5cb4b",
    ("fixed-two", 6, "text"): "fa5559f243016a7487290e8899d413a1b35d754aa85ca7def7610dd03ef915aa",
    ("fixed-two", 6, "json"): "c3291d3b748b1e2dac0a8ac4f828dc93c072373fd9950b2500bb2d856e37b9fa",
    ("fixed-two", 12, "text"): "3b9cffe0a942417baac46fab3c15dbb43d023b7bc3b1b1b1e3b73455893712cf",
    ("fixed-two", 12, "json"): "6f310d55089e2a1a0e230db3cf4b04c920b0e02710a7ab950ad59126a458e13c",
}


def test_interval_route_output_is_byte_identical_on_gn_chains(capsys, tmp_path):
    got = {}
    for anchors in (3, 5, 6, 12):
        prefix = str(tmp_path / f"gn{anchors}")
        assert main(["gen", "--family", "gn", "--n", str(anchors), "--out", prefix]) == 0
        code, out, _ = run(capsys, ["gen", "--family", "gn", "--n", str(anchors)])
        assert code == 0
        (two_set,) = [line[len("# two_set="):] for line in out if line.startswith("# two_set=")]
        commands = [("fixed-two", ["fixed-two", "--two-set", two_set])]
        if anchors <= 5:  # the whole enumeration grows about 4.5x per anchor
            commands.append(("enumerate", ["enumerate"]))
        for name, argv in commands:
            for fmt in ("text", "json"):
                code = main(argv + [
                    "--graph", prefix + ".graph", "--variant", "crdf", "--class", "interval",
                    "--intervals", prefix + ".intervals", "--format", fmt,
                ])
                assert code == 0
                text = capsys.readouterr().out
                got[name, anchors, fmt] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GN_DIGESTS


FOOTPRINT_SCRIPT = """
import sys
from romanenum.cli import main
graph, tmp = sys.argv[1], sys.argv[2]
main(["enumerate", "--graph", graph, "--variant", "mrdf", "--stats", "--output", tmp + "/enum.txt"])
main(["fixed-two", "--graph", graph, "--two-set", "0", "--output", tmp + "/two.txt"])
print("\\n".join(sorted(sys.modules)))
"""


def test_enumerate_loads_only_what_it_runs(tmp_path, p4_file):
    # a fresh interpreter, since this session has long since imported everything
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, p4_file, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert (tmp_path / "enum.txt").read_text().splitlines()[:7] == MRDF_P4_LINES
    assert (tmp_path / "two.txt").read_text().splitlines() == ["2011"]
    loaded = set(proc.stdout.split())
    assert "romanenum.engine" in loaded
    unused = {
        "romanenum.oracle",
        "romanenum.gadgets",
        "romanenum.families",
        "dataclasses",
        "inspect",
        "json",
        "numpy",
    }
    assert loaded & unused == set()


# -------------------------------------------------------------- fixed-two


def test_fixed_two_nonempty_and_empty(capsys, p4_file):
    code, out, _ = run(
        capsys,
        ["fixed-two", "--graph", p4_file, "--variant", "rdf", "--two-set", "0"],
    )
    assert code == 0
    assert out == ["2011"]

    code, out, _ = run(
        capsys,
        ["fixed-two", "--graph", p4_file, "--variant", "mrdf", "--two-set", "0,3"],
    )
    assert code == 3
    assert out == []


def test_fixed_two_empty_set_and_stats(capsys, p4_file):
    code, out, _ = run(
        capsys,
        ["fixed-two", "--graph", p4_file, "--variant", "rdf", "--two-set", "", "--stats"],
    )
    assert code == 0
    assert out[0] == "1111"
    assert out[1] == "# outputs=1"
    assert out[2].startswith("# seconds=")


def test_fixed_two_seconds_leave_out_the_writes(capsys, monkeypatch, tmp_path):
    # an output sink that sleeps at every function line: --stats times the
    # solver's stream steps only, as enumerate does, and a --limit break
    # closes the stream before the stats are written
    path = tmp_path / "p6.graph"
    path.write_text(format_graph(path_graph(6)))
    pause = 0.02
    events = []
    write, stream = cli._write_line, MrdfSolver.stream

    def slow(fh, text):
        if not text.startswith("#"):
            time.sleep(pause)
        events.append(text)
        write(fh, text)

    def watched(self, a):
        try:
            yield from stream(self, a)
        finally:
            events.append("closed")

    monkeypatch.setattr(cli, "_write_line", slow)
    monkeypatch.setattr(MrdfSolver, "stream", watched)
    argv = ["fixed-two", "--graph", str(path), "--variant", "mrdf", "--two-set", "1,4", "--stats"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out[:4] == ["120020", "021120", "020021", "# outputs=3"]
    assert 0.0 < float(out[4].removeprefix("# seconds=")) < pause

    events.clear()
    code, out, _ = run(capsys, [*argv, "--limit", "1"])
    assert code == 0
    assert events[:3] == ["120020", "closed", "# outputs=1"]


def test_fixed_two_bad_vertex(capsys, p4_file):
    code, _, err = run(
        capsys,
        ["fixed-two", "--graph", p4_file, "--variant", "rdf", "--two-set", "9"],
    )
    assert code == 1
    assert "out of range" in err
    for two_set, entry in (("1,,2", "''"), ("x", "'x'"), ("0, y", "'y'")):
        code, out, err = run(
            capsys,
            ["fixed-two", "--graph", p4_file, "--variant", "rdf", "--two-set", two_set],
        )
        assert code == 1, two_set
        assert out == [], two_set
        assert err == f"error: vertex set entry {entry} is not an integer\n", two_set


# ----------------------------------------------------------------- oracle


def test_oracle_all_sorted(capsys, p4_file):
    code, out, _ = run(capsys, ["oracle", "--graph", p4_file, "--variant", "rdf"])
    assert code == 0
    assert out == sorted(RDF_P4_LINES)


def test_oracle_fixed_two_set(capsys, p4_file):
    code, out, _ = run(
        capsys,
        ["oracle", "--graph", p4_file, "--variant", "rdf", "--two-set", "0,3", "--stats"],
    )
    assert code == 0
    assert out == ["2002", "# outputs=1"]

    code, out, _ = run(
        capsys,
        ["oracle", "--graph", p4_file, "--variant", "mrdf", "--two-set", "0,3"],
    )
    assert code == 3
    assert out == []


def test_oracle_cap(capsys, tmp_path):
    big = tmp_path / "p11.graph"
    big.write_text("11 10\n" + "".join(f"{i} {i+1}\n" for i in range(10)))
    code, _, err = run(capsys, ["oracle", "--graph", str(big), "--variant", "rdf"])
    assert code == 1
    assert "capped" in err
    code, out, _ = run(
        capsys, ["oracle", "--graph", str(big), "--variant", "rdf", "--cap", "11", "--stats"]
    )
    assert code == 0
    assert out[-1].startswith("# outputs=")


def test_oracle_cap_error_leaves_the_output_file_untouched(capsys, tmp_path):
    # the cap refuses before the file is opened, so it is not truncated
    big = tmp_path / "p11.graph"
    big.write_text("11 10\n" + "".join(f"{i} {i+1}\n" for i in range(10)))
    out_file = tmp_path / "out.txt"
    out_file.write_text("kept\n")
    code, out, err = run(capsys, ["oracle", "--graph", str(big), "--output", str(out_file)])
    assert code == 1
    assert "capped" in err
    assert out_file.read_text() == "kept\n"


# ------------------------------------------------------------------ check


def test_check_golden_reports(capsys, p4_file):
    code, out, _ = run(
        capsys, ["check", "--graph", p4_file, "--variant", "mrdf", "--function", "1111"]
    )
    assert code == 0
    assert out == [
        "rdf: ok",
        "0-set not dominating: ok",
        "every 2-vertex keeps an external private neighbor: ok",
        "no droppable 1-vertex: ok",
        "minimal mrdf: YES",
    ]

    code, out, _ = run(
        capsys, ["check", "--graph", p4_file, "--variant", "mrdf", "--function", "2002"]
    )
    assert code == 3
    assert out == [
        "rdf: ok",
        "0-set dominates the graph: not maximal",
        "minimal mrdf: NO (property fails)",
    ]

    code, out, _ = run(
        capsys, ["check", "--graph", p4_file, "--variant", "rdf", "--function", "2111"]
    )
    assert code == 3
    assert out == [
        "rdf: ok",
        "2-vertices without an external private neighbor: [0]",
        "differs from the canonical rdf of its 2-set: some value is droppable",
        "minimal rdf: NO",
    ]

    code, out, _ = run(
        capsys, ["check", "--graph", p4_file, "--variant", "prdf", "--function", "1111"]
    )
    assert code == 0
    assert out == ["prdf: yes (predicate only, no minimality test)"]


def test_check_input_errors(capsys, p4_file):
    code, _, err = run(
        capsys, ["check", "--graph", p4_file, "--variant", "rdf", "--function", "20"]
    )
    assert code == 1
    assert "function has 2 digits, graph has 4 vertices" in err

    code, _, err = run(
        capsys, ["check", "--graph", p4_file, "--variant", "rdf", "--function", "20x2"]
    )
    assert code == 1
    assert err.startswith("error:")


def test_check_has_no_format_option(capsys, p4_file):
    # check prints a report, so a --format it would ignore is refused
    with pytest.raises(SystemExit) as exc:
        main(["check", "--graph", p4_file, "--function", "2002", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


# ----------------------------------------------------------------- gadget


def test_gadget_trdf_sat_stdout(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    code, out, _ = run(capsys, ["gadget", "--kind", "trdf-sat", "--cnf", str(cnf)])
    assert code == 0
    assert out[0] == "8 8"
    labels_at = out.index("# labels")
    assert out[labels_at + 1] == "# 0 v_1"
    assert out[-1] == "# two_set=4,5"


def test_gadget_crdf_sat_out_files(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    prefix = str(tmp_path / "inst")
    code, out, _ = run(
        capsys, ["gadget", "--kind", "crdf-sat", "--cnf", str(cnf), "--out", prefix]
    )
    assert code == 0
    assert out == [f"wrote {prefix}.graph"]
    g = parse_graph((tmp_path / "inst.graph").read_text())
    assert g.n == 3 * 2 + 2 + 2 * 1
    labels = (tmp_path / "inst.labels").read_text().splitlines()
    assert labels[0] == "0 v_1"
    assert (tmp_path / "inst.two_set").read_text().strip() == "4,5,8"


def test_gadget_extension_stdout_and_files(capsys, p4_file, tmp_path):
    code, out, _ = run(
        capsys,
        ["gadget", "--kind", "mrdf-extension", "--graph", p4_file, "--set", "1"],
    )
    assert code == 0
    expect = gadget_maxrd_from_extds(parse_graph(P4_TEXT), bit(1)).prefunction
    assert out[-1] == f"# prefunction={format_function(expect)}"

    prefix = str(tmp_path / "ext")
    code, out, _ = run(
        capsys,
        ["gadget", "--kind", "mrdf-extension", "--graph", p4_file, "--set", "1", "--out", prefix],
    )
    assert code == 0
    assert (tmp_path / "ext.prefunction").read_text().strip() == format_function(expect)


def test_gadget_split_universal_handling(capsys, tmp_path):
    hg = tmp_path / "h.hg"
    hg.write_text("3 3\n0 1\n1 2\n0 2\n")  # no element is in every edge
    code, out, _ = run(
        capsys, ["gadget", "--kind", "split-transversal", "--hypergraph", str(hg)]
    )
    assert code == 0
    assert out[-1] == "# two_set=0"

    nested = tmp_path / "nested.hg"
    nested.write_text("3 2\n0 1\n1\n")
    code, _, err = run(
        capsys, ["gadget", "--kind", "split-transversal", "--hypergraph", str(nested)]
    )
    assert code == 1
    assert "universal element" in err


def test_gadget_split_rejects_a_negative_vertex_count(capsys, tmp_path):
    hg = tmp_path / "negative.hg"
    hg.write_text("-1 0\n")
    code, out, err = run(
        capsys, ["gadget", "--kind", "split-transversal", "--hypergraph", str(hg)]
    )
    assert code == 1
    assert out == []
    assert err == "error: hypergraph vertex count -1 is negative\n"


def test_gadget_missing_inputs(capsys):
    code, _, err = run(capsys, ["gadget", "--kind", "crdf-sat"])
    assert code == 1
    assert "--cnf" in err
    code, _, err = run(capsys, ["gadget", "--kind", "split-transversal"])
    assert code == 1
    assert "--hypergraph" in err


def test_gadget_rejects_a_cnf_whose_clauses_disagree_with_its_header(capsys, tmp_path):
    for name, text in (
        ("short.cnf", "p cnf 3 5\n1 2 0\n-1 -3 0\n"),
        ("twice.cnf", "p cnf 2 2\np cnf 3 2\n1 2 0\n-1 -2 0\n"),
    ):
        cnf = tmp_path / name
        cnf.write_text(text)
        code, out, err = run(capsys, ["gadget", "--kind", "crdf-sat", "--cnf", str(cnf)])
        assert code == 1, name
        assert out == [], name
        assert err.startswith("error: "), name


def test_gadget_names_the_line_of_a_literal_that_is_not_an_integer(capsys, tmp_path):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 x 0\n")
    code, out, err = run(capsys, ["gadget", "--kind", "trdf-sat", "--cnf", str(cnf)])
    assert code == 1
    assert out == []
    assert err == "error: line 2: clause literals must be integers\n"


# -------------------------------------------------------------------- gen


def test_gen_gn_stdout(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "gn", "--n", "3"])
    assert code == 0
    assert out[0] == "# family=gn n=3 seed=0"
    assert out[1] == "# two_set=1"
    assert "# intervals" in out


def test_gen_cobipartite_comment(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "cobipartite-random", "--n", "5", "--seed", "7"])
    assert code == 0
    assert any(line.startswith("# cobipartite: ") for line in out)


def test_gen_out_files_round_trip(capsys, tmp_path):
    prefix = str(tmp_path / "inst")
    code, out, _ = run(
        capsys, ["gen", "--family", "interval-random", "--n", "6", "--seed", "3", "--out", prefix]
    )
    assert code == 0
    assert out == [f"wrote {prefix}.graph"]
    g = parse_graph((tmp_path / "inst.graph").read_text())
    assert g.n == 6
    assert (tmp_path / "inst.intervals").read_text().splitlines()[0] == "6"


@pytest.mark.parametrize(
    "argv", [["--family", "random", "--p", "2"], ["--family", "random", "--p", "-1"],
             ["--family", "split-random", "--p", "7"], ["--family", "cobipartite-random", "--p", "-3"]]
)
def test_gen_refuses_a_p_outside_the_unit_interval(capsys, argv):
    code, out, err = run(capsys, ["gen", "--n", "5", *argv])
    assert code == 1
    assert out == []
    assert err.startswith("error: --p ")


@pytest.mark.parametrize("family", sorted(cli._FAMILIES))
def test_gen_refuses_a_negative_n(capsys, family):
    code, out, err = run(capsys, ["gen", "--family", family, "--n", "-3"])
    assert code == 1
    assert out == []
    assert err.startswith("error: --n -3 ")


def test_gen_refuses_connected_random_that_can_never_connect(capsys, monkeypatch):
    # with p = 0 no sample on two or more vertices is connected, so the
    # resampling would never end: the family refuses before it samples
    def sample(n, p, rng):
        raise AssertionError("sampled")

    monkeypatch.setattr(families, "random_graph", sample)
    code, out, err = run(capsys, ["gen", "--family", "connected-random", "--n", "5", "--p", "0"])
    assert code == 1
    assert out == []
    assert err.startswith("error: ")


def test_gen_refuses_connected_random_it_cannot_draw(capsys):
    # at p = 0.001 a graph on 40 vertices is almost never connected: the
    # family stops resampling after a bounded number of draws and refuses
    start = time.perf_counter()
    code, out, err = run(capsys, ["gen", "--family", "connected-random", "--n", "40", "--p", "0.001"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert out == []
    assert err.startswith("error: no connected graph in ")
    assert elapsed < 1.0, f"the refusal took {elapsed:.2f}s"


CLOSED_STDOUT_SCRIPT = """
import sys
import romanenum.cli as cli

engine = cli.iter_minimal


def watched(*args, **kwargs):
    try:
        yield from engine(*args, **kwargs)
    finally:
        with open(sys.argv[1], "a") as fh:
            fh.write("closed\\n")


cli.iter_minimal = watched
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "a") as fh:
    fh.write("returned\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["enumerate", "gen"])
def test_a_closed_stdout_stops_the_command_quietly(tmp_path, command):
    # the reader stops after one line, as `| head -1` does; each output is
    # larger than a pipe's buffer, so the command is still writing then
    (tmp_path / "p18.graph").write_text(format_graph(path_graph(18)))
    argv = {
        "enumerate": ["enumerate", "--graph", str(tmp_path / "p18.graph")],
        "gen": ["gen", "--family", "complete", "--n", "400"],
    }[command]
    events = tmp_path / "events"
    src = Path(__file__).resolve().parents[1] / "src"
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CLOSED_STDOUT_SCRIPT, str(events), *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            stderr=err,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
    assert (tmp_path / "stderr").read_text() == ""
    if command == "enumerate":  # the engine's stream is closed before main returns
        assert events.read_text() == "closed\nreturned\n"
    else:
        assert events.read_text() == "returned\n"


def test_gen_path_graph_text(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "path", "--n", "4"])
    assert code == 0
    assert out[1:] == P4_TEXT.strip().splitlines()
