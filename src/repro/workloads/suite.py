"""The benchmark suite of Table 4 plus the parametric workload families.

Every fixed entry is a named, parameter-free constructor so experiments and
examples can refer to benchmarks by the same identifiers the paper uses
(``BV-7``, ``QFT-6A``, ``QAOA-10B``, ...).

Beyond the fixed table, :func:`get_benchmark` is a *resolver chain*: names
that miss the table are handed to the parametric family parser, which
understands

* ``GHZ:<n>`` — GHZ preparation at any width;
* ``QFT:<n>`` / ``QFT:<n>A`` / ``QFT:<n>B`` — the round-trip QFT variants;
* ``BV:<n>`` — Bernstein–Vazirani with the default alternating secret;
* ``QAOA:<n>@<graph>`` — MaxCut QAOA on a device-native problem graph
  (``path``, ``ring`` or ``heavy_hex`` — see
  :data:`repro.workloads.qaoa.QAOA_GRAPHS`);
* ``MIRROR:<n>@<seed>`` — seeded random-Clifford mirror circuits with an
  analytically known target bitstring (:mod:`repro.workloads.mirror`), the
  verification workload that scales to full-device widths on the stabilizer
  execution path.

Parametric builds are deterministic per name — the same name always
constructs the bit-identical circuit — because the experiment store
fingerprints circuit *content* into its keys.  Custom resolvers can be
prepended with :func:`register_resolver`.
"""

from __future__ import annotations

import re

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..circuits.circuit import QuantumCircuit
from .adder import quantum_adder
from .bv import bernstein_vazirani
from .ghz import ghz
from .mirror import mirror_circuit, mirror_target
from .qaoa import QAOA_GRAPHS, qaoa_benchmark, qaoa_on_graph
from .qft import qft_benchmark
from .qpe import quantum_phase_estimation

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "benchmark_families",
    "get_benchmark",
    "register_resolver",
    "table4_suite",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named benchmark: description + constructor.

    ``expected_output``, when set, returns the workload's analytically known
    noise-free outcome bitstring — the verification hook of the mirror
    family, consumed by the hardware-scaling study.  Keeping it on the spec
    means only the resolver ever parses workload names.
    """

    name: str
    description: str
    num_qubits: int
    builder: Callable[[], QuantumCircuit]
    in_table4: bool = True
    expected_output: Optional[Callable[[], str]] = None

    def build(self) -> QuantumCircuit:
        circuit = self.builder()
        circuit.name = self.name.lower()
        return circuit


def _spec(
    name, description, num_qubits, builder, in_table4=True, expected_output=None
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        description=description,
        num_qubits=num_qubits,
        builder=builder,
        in_table4=in_table4,
        expected_output=expected_output,
    )


BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        # ---- Table 4 suite -------------------------------------------------
        _spec("BV-7", "Bernstein Vazirani, 6-bit secret", 7, lambda: bernstein_vazirani(7)),
        _spec("BV-8", "Bernstein Vazirani, 7-bit secret", 8, lambda: bernstein_vazirani(8)),
        _spec("QFT-6A", "Fourier transform of a basis state", 6, lambda: qft_benchmark(6, "A")),
        _spec("QFT-6B", "Fourier transform of a superposition state", 6, lambda: qft_benchmark(6, "B")),
        _spec("QFT-7A", "Fourier transform of a basis state", 7, lambda: qft_benchmark(7, "A")),
        _spec("QFT-7B", "Fourier transform of a superposition state", 7, lambda: qft_benchmark(7, "B")),
        _spec("QAOA-8A", "MaxCut QAOA on an 8-node ring", 8, lambda: qaoa_benchmark(8, "A")),
        _spec("QAOA-8B", "MaxCut QAOA on a dense 8-node graph", 8, lambda: qaoa_benchmark(8, "B")),
        _spec("QAOA-10A", "MaxCut QAOA on a 10-node ring", 10, lambda: qaoa_benchmark(10, "A")),
        _spec("QAOA-10B", "MaxCut QAOA on a dense 10-node graph", 10, lambda: qaoa_benchmark(10, "B")),
        _spec("QPEA-5", "Quantum phase estimation", 5, lambda: quantum_phase_estimation(5)),
        # ---- characterisation / motivation workloads ------------------------
        _spec("BV-4", "Bernstein Vazirani (Figure 3 example)", 4, lambda: bernstein_vazirani(4), False),
        _spec("BV-6", "Bernstein Vazirani (Figure 8 study)", 6, lambda: bernstein_vazirani(6), False),
        _spec("QFT-5", "Fourier transform (Table 1 workload)", 5, lambda: qft_benchmark(5, "A"), False),
        _spec("QFT-6", "Fourier transform (Figure 8 study)", 6, lambda: qft_benchmark(6, "A"), False),
        _spec("QAOA-5", "MaxCut QAOA (Table 1 workload)", 5, lambda: qaoa_benchmark(5, "A"), False),
        _spec("ADDER-4", "Ripple-carry adder (Table 1 / Figure 9)", 4, lambda: quantum_adder(1), False),
        _spec("GHZ-5", "GHZ state preparation (example workload)", 5, lambda: ghz(5), False),
    ]
}


# ---------------------------------------------------------------------------
# Parametric families
# ---------------------------------------------------------------------------

#: ``<family>:<args>`` grammar shown in error messages and ``repro ls``.
_FAMILY_GRAMMAR: Dict[str, str] = {
    "GHZ": "GHZ:<n>",
    "QFT": "QFT:<n>[A|B]",
    "BV": "BV:<n>",
    "QAOA": "QAOA:<n>@<graph>  (graphs: " + ", ".join(sorted(QAOA_GRAPHS)) + ")",
    "MIRROR": "MIRROR:<n>@<seed>",
}


def benchmark_families() -> Dict[str, str]:
    """Grammar of the parametric workload families (name -> usage string)."""
    return dict(_FAMILY_GRAMMAR)


def _parse_size(family: str, token: str, minimum: int) -> int:
    try:
        size = int(token)
    except ValueError:
        raise ValueError(
            f"workload '{family}' size must be an integer, got {token!r}"
            f" (expected '{_FAMILY_GRAMMAR[family]}')"
        ) from None
    if size < minimum:
        raise ValueError(
            f"workload family '{family}' needs at least {minimum} qubits, got {size}"
        )
    return size


def _split_at(family: str, rest: str, expected_parts: int) -> List[str]:
    """Split the ``@``-separated argument list, enforcing the family's arity."""
    parts = rest.split("@")
    if len(parts) != expected_parts:
        raise ValueError(
            f"workload '{family}:{rest}' has the wrong number of arguments"
            f" (expected '{_FAMILY_GRAMMAR[family]}')"
        )
    return parts


def _resolve_ghz(rest: str) -> BenchmarkSpec:
    (size_token,) = _split_at("GHZ", rest, 1)
    size = _parse_size("GHZ", size_token, 2)
    return _spec(
        f"GHZ:{size}",
        f"GHZ state preparation on {size} qubits",
        size,
        lambda: ghz(size),
        in_table4=False,
    )


def _resolve_qft(rest: str) -> BenchmarkSpec:
    (token,) = _split_at("QFT", rest, 1)
    match = re.fullmatch(r"(\d+)([ABab])?", token)
    if match is None:
        _parse_size("QFT", token, 1)  # raises the non-integer-size error
        raise ValueError(
            f"malformed QFT workload 'QFT:{rest}' (expected '{_FAMILY_GRAMMAR['QFT']}')"
        )
    size = _parse_size("QFT", match.group(1), 1)
    variant = (match.group(2) or "A").upper()
    return _spec(
        f"QFT:{size}{variant}",
        f"Round-trip Fourier transform ({variant}) on {size} qubits",
        size,
        lambda: qft_benchmark(size, variant),
        in_table4=False,
    )


def _resolve_bv(rest: str) -> BenchmarkSpec:
    (size_token,) = _split_at("BV", rest, 1)
    size = _parse_size("BV", size_token, 2)
    return _spec(
        f"BV:{size}",
        f"Bernstein–Vazirani on {size} qubits (alternating secret)",
        size,
        lambda: bernstein_vazirani(size),
        in_table4=False,
    )


def _resolve_qaoa(rest: str) -> BenchmarkSpec:
    size_token, graph = _split_at("QAOA", rest, 2)
    size = _parse_size("QAOA", size_token, 2)
    graph = graph.lower()
    if graph not in QAOA_GRAPHS:
        raise ValueError(
            f"unknown QAOA graph '{graph}'; known graphs: {sorted(QAOA_GRAPHS)}"
        )
    return _spec(
        f"QAOA:{size}@{graph}",
        f"MaxCut QAOA on the {size}-node {graph} graph",
        size,
        lambda: qaoa_on_graph(size, graph),
        in_table4=False,
    )


def _resolve_mirror(rest: str) -> BenchmarkSpec:
    size_token, seed_token = _split_at("MIRROR", rest, 2)
    size = _parse_size("MIRROR", size_token, 2)
    try:
        seed = int(seed_token)
    except ValueError:
        raise ValueError(
            f"MIRROR seed must be an integer, got {seed_token!r}"
            f" (expected '{_FAMILY_GRAMMAR['MIRROR']}')"
        ) from None
    return _spec(
        f"MIRROR:{size}@{seed}",
        f"Random-Clifford mirror circuit, {size} qubits, seed {seed}",
        size,
        lambda: mirror_circuit(size, seed),
        in_table4=False,
        expected_output=lambda: mirror_target(size, seed),
    )


_FAMILY_RESOLVERS: Dict[str, Callable[[str], BenchmarkSpec]] = {
    "GHZ": _resolve_ghz,
    "QFT": _resolve_qft,
    "BV": _resolve_bv,
    "QAOA": _resolve_qaoa,
    "MIRROR": _resolve_mirror,
}

#: Memo of resolved parametric specs (builds stay deterministic either way;
#: this only avoids re-parsing hot names during sweep expansion).
_PARAMETRIC_CACHE: Dict[str, BenchmarkSpec] = {}


def _resolve_table(name: str) -> Optional[BenchmarkSpec]:
    return BENCHMARKS.get(name.upper())


def _resolve_parametric(name: str) -> Optional[BenchmarkSpec]:
    if ":" not in name:
        return None
    cached = _PARAMETRIC_CACHE.get(name.upper())
    if cached is not None:
        return cached
    family, _, rest = name.partition(":")
    resolver = _FAMILY_RESOLVERS.get(family.upper())
    if resolver is None:
        # Unknown family: pass, so resolvers registered *after* this one can
        # claim new colon-named families; get_benchmark raises if nobody does.
        return None
    spec = resolver(rest)
    _PARAMETRIC_CACHE[name.upper()] = spec
    return spec


#: The resolver chain consulted by :func:`get_benchmark`, in order.
_RESOLVERS: List[Callable[[str], Optional[BenchmarkSpec]]] = [
    _resolve_table,
    _resolve_parametric,
]


def register_resolver(
    resolver: Callable[[str], Optional[BenchmarkSpec]], prepend: bool = False
) -> Callable[[str], Optional[BenchmarkSpec]]:
    """Add a custom name resolver to the chain (return ``None`` to pass).

    Resolvers must be *deterministic per name*: the experiment store
    fingerprints circuit content, so a name that resolves to different
    circuits across processes would silently fracture its cache keys.
    """
    if prepend:
        _RESOLVERS.insert(0, resolver)
    else:
        _RESOLVERS.append(resolver)
    return resolver


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark by its paper name or parametric family name.

    The fixed Table-4 table is consulted first (case insensitive), then the
    parametric families (``GHZ:<n>``, ``QFT:<n>[A|B]``, ``BV:<n>``,
    ``QAOA:<n>@<graph>``, ``MIRROR:<n>@<seed>``), then any resolver added via
    :func:`register_resolver`.  Malformed parametric names raise
    ``ValueError`` with the family grammar; unknown names raise ``KeyError``.
    """
    for resolver in _RESOLVERS:
        spec = resolver(name)
        if spec is not None:
            return spec
    family, sep, _ = name.partition(":")
    if sep and family.upper() not in _FAMILY_RESOLVERS:
        raise KeyError(
            f"unknown workload family '{family}'; known families:"
            f" {sorted(_FAMILY_RESOLVERS)}"
        )
    raise KeyError(
        f"unknown benchmark '{name}'; known: {sorted(BENCHMARKS)};"
        f" parametric families: {sorted(_FAMILY_GRAMMAR.values())}"
    )


def table4_suite() -> List[BenchmarkSpec]:
    """The eleven benchmarks of Table 4 in their paper order."""
    order = [
        "BV-7", "BV-8", "QFT-6A", "QFT-6B", "QFT-7A", "QFT-7B",
        "QAOA-8A", "QAOA-8B", "QAOA-10A", "QAOA-10B", "QPEA-5",
    ]
    return [BENCHMARKS[name] for name in order]
