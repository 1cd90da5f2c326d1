"""Every metric the benchmark reports, with the layer-to-metric mapping.

End-to-end metrics are what a user of ``romanenum enumerate`` feels; they are
measured with tracing off.  Per-layer metrics come from the separate traced
run (``--trace 1``).  Per-layer times and counts are per cycle, one cycle
being one pass over the run's instances; ``moves`` says which end-to-end
metric a per-layer metric should move, and on which workload.
``BENCHMARK.json`` lists the same names; the self-test keeps them in step.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end only: allowed worsening, share of the parent's median
    moves: str = ""  # per-layer only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("first_output_s", "s", "lower", 0.25),
    Metric("outputs_per_s", "1/s", "higher", 0.25),
    Metric("delay_p50_s", "s", "lower", 0.25),
    Metric("delay_p99_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_ENGINE_DELAY = "delay_p99_s on trdf-cobipartite"
_FIRST_CHAIN = "first_output_s on crdf-interval-chain"

PER_LAYER = (
    Metric("cli.import_s", "s", "lower", moves="setup_s on all workloads"),
    Metric("graphs.parse_s", "s", "lower", moves="setup_s on all workloads"),
    Metric("fixed_two.solver_for_s", "s", "lower",
           moves="setup_s on trdf-cobipartite and crdf-interval-chain"),
    Metric("engine.self_s", "s", "lower",
           moves="outputs_per_s and delay_p50_s on rdf-sparse; about 0 on crdf-interval-chain"),
    Metric("engine.sets_explored", "count", "lower", moves=_ENGINE_DELAY),
    Metric("engine.empty_sets", "count", "lower", moves=_ENGINE_DELAY),
    Metric("engine.nonempty_ratio", "ratio", "higher", moves=_ENGINE_DELAY),
    Metric("engine.max_inter_output_sets", "count", "lower", moves=_ENGINE_DELAY),
    Metric("fixed_two.first.calls", "count", "lower", moves="outputs_per_s on rdf-sparse"),
    Metric("fixed_two.first.self_s", "s", "lower", moves="outputs_per_s on rdf-sparse"),
    Metric("fixed_two.stream.calls", "count", "lower", moves="outputs_per_s on rdf-sparse"),
    Metric("fixed_two.stream.self_s", "s", "lower",
           moves="outputs_per_s on trdf-cobipartite; delay_p50_s on crdf-interval-chain"),
    Metric("fixed_two.solver_calls_per_output", "ratio", "lower",
           moves="outputs_per_s on rdf-sparse and trdf-cobipartite"),
    Metric("fixed_two.window.tables_built", "count", "lower", moves=_FIRST_CHAIN),
    Metric("fixed_two.window.tests", "count", "lower", moves=_FIRST_CHAIN),
    Metric("fixed_two.window.hit_ratio", "ratio", "higher", moves=_FIRST_CHAIN),
    Metric("fixed_two.window.self_s", "s", "lower", moves=_FIRST_CHAIN),
    Metric("roman.valid_two_set.calls", "count", "lower", moves="outputs_per_s on rdf-sparse"),
    Metric("roman.valid_two_set.self_s", "s", "lower", moves="outputs_per_s on rdf-sparse"),
    Metric("roman.canonical_rdf.calls", "count", "lower", moves="outputs_per_s on rdf-sparse"),
    Metric("roman.canonical_rdf.self_s", "s", "lower", moves="outputs_per_s on rdf-sparse"),
    Metric("roman.is_minimal_variant.calls", "count", "lower",
           moves="outputs_per_s and delay_p99_s on trdf-cobipartite; " + _FIRST_CHAIN),
    Metric("roman.is_minimal_variant.self_s", "s", "lower",
           moves="outputs_per_s and delay_p99_s on trdf-cobipartite; " + _FIRST_CHAIN),
    Metric("roman.is_minimal_variant.accept_ratio", "ratio", "higher",
           moves="outputs_per_s and delay_p99_s on trdf-cobipartite; " + _FIRST_CHAIN),
    Metric("graphs.connectivity.calls", "count", "lower",
           moves=_FIRST_CHAIN),
    Metric("graphs.connectivity.self_s", "s", "lower",
           moves=_FIRST_CHAIN),
    Metric("cli.format.self_s", "s", "lower", moves="outputs_per_s on rdf-sparse"),
    Metric("bench.loop.self_s", "s", "lower",
           moves="nothing in the program: the benchmark's own consumer loop"),
    Metric("trace.wall_s", "s", "lower", moves="traced wall time, which the self times sum to"),
    Metric("trace.overhead_s", "s", "lower",
           moves="nothing in the program: traced minus untraced wall time"),
)
