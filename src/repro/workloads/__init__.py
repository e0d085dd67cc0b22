"""Benchmark workloads: BV, QFT, QAOA, Adder, QPE, GHZ, mirror circuits and
the Table 4 suite plus the parametric families (``GHZ:<n>``, ``QFT:<n>[A|B]``,
``BV:<n>``, ``QAOA:<n>@<graph>``, ``MIRROR:<n>@<seed>``)."""

from .adder import adder_expected_output, quantum_adder
from .bv import bernstein_vazirani, bv_expected_output
from .ghz import ghz
from .mirror import DEFAULT_MIRROR_LAYERS, mirror_circuit, mirror_target
from .qaoa import (
    QAOA_GRAPHS,
    heavy_hex_subgraph,
    path_graph,
    qaoa_benchmark,
    qaoa_maxcut,
    qaoa_on_graph,
    ring_graph,
)
from .qft import qft, qft_benchmark
from .qpe import qpe_expected_output, quantum_phase_estimation
from .suite import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark_families,
    get_benchmark,
    register_resolver,
    table4_suite,
)
from . import primitives

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "DEFAULT_MIRROR_LAYERS",
    "QAOA_GRAPHS",
    "adder_expected_output",
    "benchmark_families",
    "bernstein_vazirani",
    "bv_expected_output",
    "get_benchmark",
    "ghz",
    "heavy_hex_subgraph",
    "mirror_circuit",
    "mirror_target",
    "path_graph",
    "primitives",
    "qaoa_benchmark",
    "qaoa_maxcut",
    "qaoa_on_graph",
    "qft",
    "qft_benchmark",
    "qpe_expected_output",
    "quantum_adder",
    "quantum_phase_estimation",
    "register_resolver",
    "ring_graph",
    "table4_suite",
]
