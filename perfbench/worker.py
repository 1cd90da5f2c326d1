"""One worker of a benchmark run, in a fresh interpreter.

Usage: python3 worker.py < job.json

Runs ``run.run_cycles`` for the job and prints its result as one JSON line.
A traced worker also writes its span log under ``.perfbench/``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    job = json.load(sys.stdin)
    run.load_program()
    tracer = Tracer() if job["trace"] else None
    result = run.run_cycles(
        job["workload"], job["seed"], job["seconds"], tracer, job["size"], job["count"],
        job["line_check"],
    )
    if tracer is not None:
        run.TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(run.TRACE_DIR / f"{job['workload']}-seed{job['seed']}.spans.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
