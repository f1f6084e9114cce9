"""Experiment drivers used by the benchmark suite and examples.

Each paper experiment (DESIGN.md §3) is a thin composition of these
drivers; the benchmarks call them with scaled-down cycle budgets and
print paper-vs-measured tables.
"""

from repro.experiments.runner import (
    alone_ipc,
    bench_scale,
    compare_controllers,
    default_mechanism,
    run_workload,
    scaled_cycles,
    workload_alone_ipc,
)
from repro.experiments.sweeps import (
    locality_sweep,
    pairwise_ipf_grid,
    scaling_sweep,
    static_throttle_sweep,
    workload_batch_comparison,
)
from repro.experiments.tables import format_table, paper_vs_measured

__all__ = [
    "run_workload",
    "compare_controllers",
    "default_mechanism",
    "alone_ipc",
    "workload_alone_ipc",
    "bench_scale",
    "scaled_cycles",
    "static_throttle_sweep",
    "scaling_sweep",
    "locality_sweep",
    "pairwise_ipf_grid",
    "workload_batch_comparison",
    "format_table",
    "paper_vs_measured",
]
