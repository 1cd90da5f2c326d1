"""Self-test of the benchmark: every workload at a tiny size, both modes.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import gzip
import json
import shutil
import subprocess
import sys
from array import array
from collections import Counter
from io import StringIO
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, make_instances  # noqa: E402

TINY = {"rdf-sparse": 8, "trdf-cobipartite": 8, "crdf-interval-chain": 6}
# self times are computed from the same clock readings as the wall time, so
# they close up to rounding
SELF_TIME_TOLERANCE = 1e-6

run.load_program()


@pytest.fixture(autouse=True)
def shipped_solvers(monkeypatch):
    """The repository's own suite makes every solver re-check its yields for
    the whole session; the benchmark measures the solvers as shipped."""
    from romanenum import fixed_two

    monkeypatch.setattr(fixed_two, "VERIFY_YIELDS", False, raising=False)


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def _printed(workload, metrics, checks, trace):
    out = StringIO()
    result = run.report(workload, metrics, checks, trace, out=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == json.loads(json.dumps(result))
    return result, lines


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_untraced(workload):
    metrics, checks = run.measure(
        workload, 3, 0, size=TINY[workload], count=2, setup_runs=1, workers=2
    )
    result, lines = _printed(workload, metrics, checks, False)
    assert result["correct"], checks.problems
    assert result["failed"] == 0 and result["attempted"] >= 4
    for m in END_TO_END:
        assert result["metrics"][m.name]["unit"] == m.unit
        assert result["metrics"][m.name]["value"] > 0
        assert any(m.name in line and m.unit in line and "(n=" in line for line in lines[:-1])
    assert any("failed_share" in line for line in lines[:-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_traced(workload):
    metrics, checks = run.measure(
        workload, 3, 0, trace=True, size=TINY[workload], count=2, setup_runs=1
    )
    result, _ = _printed(workload, metrics, checks, True)
    assert result["correct"], checks.problems
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m.name, m.unit) for m in PER_LAYER
    ]
    self_times = sum(v for name, v in values.items() if name.endswith(".self_s"))
    assert self_times == pytest.approx(values["trace.wall_s"], rel=SELF_TIME_TOLERANCE)
    if workload == "crdf-interval-chain":
        assert values["engine.self_s"] == 0 and values["engine.sets_explored"] == 0
        # five gaps: the completions go through the window DAG
        assert values["fixed_two.window.tests"] > 0
    else:
        assert values["engine.sets_explored"] > 0
    if workload == "rdf-sparse":
        assert values["roman.is_minimal_variant.calls"] == 0


def test_span_log_gives_the_self_times(tmp_path):
    from romanenum import fixed_two, roman

    before = (dict(vars(fixed_two)), dict(vars(roman)))
    tracer = Tracer()
    run.run_cycles("crdf-interval-chain", 1, 0, tracer, size=6, count=1)
    assert (vars(fixed_two), vars(roman)) == before
    tracer.write(tmp_path / "spans.gz")
    with gzip.open(tmp_path / "spans.gz", "rb") as fh:
        header = json.loads(fh.readline())
        log = {}
        for key, code, size in header["arrays"]:
            log[key] = array(code)
            log[key].frombytes(fh.read(size * header["spans"]))
    assert header["spans"] == sum(tracer.calls.values()) > 0
    duration = {i: e - s for i, s, e in zip(log["id"], log["start"], log["end"])}
    covered = Counter()
    for i, parent in zip(log["id"], log["parent"]):
        covered[parent] += duration[i]
    self_s = Counter()
    for i, name in zip(log["id"], log["name"]):
        self_s[SPAN_NAMES[name]] += duration[i] - covered[i]
    for name in SPAN_NAMES:
        assert self_s[name] == pytest.approx(tracer.self_s[name], rel=1e-9, abs=1e-12)


def test_gate_rejects_wrong_outputs():
    prep = run.prepare(make_instances("trdf-cobipartite", 0, size=8, count=1)[0])
    lines = run.run_pass(prep).text.splitlines()
    assert run.check_lines(prep, lines) == []
    assert run.check_lines(prep, lines + lines[:1])
    k = next(i for i, line in enumerate(lines) if "0" in line)
    raised = lines[k].replace("0", "1", 1)
    assert run.check_lines(prep, lines[:k] + [raised] + lines[k + 1:])


def test_chain_gate_checks_the_structure():
    prep = run.prepare(make_instances("crdf-interval-chain", 0, size=6, count=1)[0])
    lines = run.run_pass(prep).text.splitlines()
    assert len(lines) == 32 and run.check_lines(prep, lines) == []
    u, w = prep.inst.gaps[0]
    both = list(lines[0])
    both[u] = both[w] = "1"
    assert not run.chain_member(prep.inst, "".join(both))
    connectors = {v for gap in prep.inst.gaps for v in gap}
    anchor = next(v for v, ch in enumerate(lines[0]) if ch == "1" and v not in connectors)
    assert not run.chain_member(prep.inst, lines[0][:anchor] + "0" + lines[0][anchor + 1:])


def test_end_to_end_takes_the_best_repeat_of_each_output():
    def made(k, first_s, gaps):
        return run.Pass(outputs=len(gaps) + 1, first_s=first_s, last_s=first_s + sum(gaps),
                        wall_s=0.0, gaps=array("d", gaps), text="", stats=None, instance=k)

    passes = [made(0, 1.0, [3.0, 1.0]), made(0, 2.0, [1.0, 2.0]), made(1, 4.0, [2.0, 2.0])]
    m = run.end_to_end_metrics(passes, [(0, 0.5), (1, 5.0)], [30.0, 40.0])
    assert m["first_output_s"][0] == (0.5 + 4.0) / 2
    assert m["outputs_per_s"][0] == 6 / ((1.0 + 1.0 + 1.0) + (4.0 + 2.0 + 2.0))
    assert sorted(run.decode_pass(run.encode_pass(passes[0])).gaps) == [1.0, 3.0]
    assert m["delay_p50_s"][0] == 1.5 and m["peak_rss_mb"][0] == 35.0


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        assert make_instances(workload, 5) == make_instances(workload, 5)
        assert make_instances(workload, 5) != make_instances(workload, 6)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rdf-sparse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
