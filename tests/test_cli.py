"""Command-line behaviour: golden outputs, exit codes, file round-trips.

main() is invoked in-process with argv lists; stdout/stderr go through
pytest's capsys fixture.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from romanenum.cli import main
from romanenum.families import path_interval_model
from romanenum.gadgets import gadget_maxrd_from_extds
from romanenum.graphs import Graph, bit, format_graph, format_intervals, parse_graph
from romanenum.oracle import oracle_all_minimal
from romanenum.roman import Variant, format_function

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
        "# sets_explored=11",
        "# empty_sets_explored=6",
        "# max_consecutive_empty=3",
        "# max_inter_output_work=4",
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


def test_fixed_two_bad_vertex(capsys, p4_file):
    code, _, err = run(
        capsys,
        ["fixed-two", "--graph", p4_file, "--variant", "rdf", "--two-set", "9"],
    )
    assert code == 1
    assert "out of range" in err


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

    code, out, _ = run(
        capsys,
        ["gadget", "--kind", "split-transversal", "--hypergraph", str(nested), "--allow-universal"],
    )
    assert code == 0


def test_gadget_missing_inputs(capsys):
    code, _, err = run(capsys, ["gadget", "--kind", "crdf-sat"])
    assert code == 1
    assert "--cnf" in err
    code, _, err = run(capsys, ["gadget", "--kind", "split-transversal"])
    assert code == 1
    assert "--hypergraph" in err


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


def test_gen_path_graph_text(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "path", "--n", "4"])
    assert code == 0
    assert out[1:] == P4_TEXT.strip().splitlines()
