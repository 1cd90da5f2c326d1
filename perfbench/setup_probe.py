"""Cold set-up of one instance, run in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR < instance.json

Times what a user of ``romanenum enumerate`` waits for before the first
2-set is tried: importing the command-line module, parsing the graph and
interval text, and building the solver (class recognition or interval model
validation happen inside ``solver_for``).  Prints one JSON line.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    src = sys.argv[1]
    job = json.load(sys.stdin)
    sys.path.insert(0, src)
    t0 = perf_counter()
    import romanenum.cli  # noqa: F401  (the entry point users run)

    t1 = perf_counter()
    from romanenum.fixed_two import solver_for
    from romanenum.graphs import parse_graph, parse_intervals
    from romanenum.roman import Variant

    g = parse_graph(job["graph"])
    model = parse_intervals(job["intervals"]) if job["intervals"] is not None else None
    t2 = perf_counter()
    solver_for(g, Variant(job["variant"]), model=model, class_hint=job["class"])
    t3 = perf_counter()
    if not romanenum.cli.__file__.startswith(src):
        print(f"romanenum imported from {romanenum.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "solver_for_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
