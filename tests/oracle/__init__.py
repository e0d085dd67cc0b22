"""Reference implementations of the packed Clifford stack and the dense engine.

Production keeps one implementation of the stabilizer stack, on bit-packed
``uint64`` words.  This test-only package keeps the plain boolean-row
version of each piece — one ``bool`` per qubit, one column rule per gate,
one loop iteration per event and trajectory — as the reference the
differential suites compare against bit for bit.  It also keeps
:class:`DensityMatrixSimulator`, the one-state, one-Kraus-channel-at-a-time
reference of the batched superoperator ``density_matrix`` engine, and
:func:`networkx_graph`, the graph-library reference of the topology and
layout tests.

:func:`installed` swaps the references in through ``monkeypatch`` on the
production attributes below and counts every call under the key shown, so
a test can prove the oracle ran instead of comparing packed with packed:

* ``stabilizer.PackedCliffordTableau`` ← :class:`CliffordTableau`
  (``"tableau"``), which takes the same ``apply_gates`` batches one column
  rule at a time;
* ``engines._build_mask_table`` ← ``mask_table`` (``"mask_table"``);
* ``engines._window_variant_events`` ← ``window_variant_events``
  (``"variant_masks"``);
* ``engines.StabilizerFrameEngine.run`` ← ``frame_run`` (``"frame_loop"``);
* ``mirror._target_bits`` ← ``target_bits`` (``"mirror_target"``).

:func:`enumerate_probabilities` is an independent route to
``StabilizerSimulator.probabilities``: a recursive branch walk over the
tableau's measurements, compared with it directly by the differential suite.

:mod:`oracle.compile` keeps the full-recompute forms of the device-scale
compile and evaluate steps: SABRE rebuilding and re-summing every round, the
dict-accumulating concurrent-CNOT scan, the per-tuple crosstalk fold, and
the per-op window-variant and per-event gate-noise mask paths.
``tests/test_compile_differential.py`` imports them directly.
:mod:`oracle.calibration` keeps calibration generation with one
``CrosstalkEntry`` per (qubit, link) pair in a dict, which
``tests/test_calibration_differential.py`` compares with the arrays.

The references hand masks and suffix maps back packed by
:func:`repro.simulators.symplectic.pack_rows`, so production code never sees
a boolean row.  Compiled programs memoize the mask table in their
``engine_cache``: build a fresh executor for every oracle run.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Iterator

import pytest

from repro.simulators import engines as engines_module
from repro.simulators import stabilizer as stabilizer_module
from repro.workloads import mirror as mirror_module

from .density_matrix import DensityMatrixSimulator
from .engines import frame_run, mask_table, window_variant_events
from .graphs import networkx_graph
from .mirror import target_bits
from .tableau import CliffordTableau, enumerate_probabilities

__all__ = [
    "CliffordTableau",
    "DensityMatrixSimulator",
    "enumerate_probabilities",
    "installed",
    "networkx_graph",
]


def _counted(calls: Counter, key: str, function):
    def counting(*args, **kwargs):
        calls[key] += 1
        return function(*args, **kwargs)

    return counting


@contextlib.contextmanager
def installed() -> Iterator[Counter]:
    """Run the enclosed code on the oracle; yields the per-seam call counts."""
    calls: Counter = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for owner, name, key, reference in (
            (stabilizer_module, "PackedCliffordTableau", "tableau", CliffordTableau),
            (engines_module, "_build_mask_table", "mask_table", mask_table),
            (engines_module, "_window_variant_events", "variant_masks", window_variant_events),
            (engines_module.StabilizerFrameEngine, "run", "frame_loop", frame_run),
            (mirror_module, "_target_bits", "mirror_target", target_bits),
        ):
            patch.setattr(owner, name, _counted(calls, key, reference))
        yield calls
