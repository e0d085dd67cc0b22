"""Boolean-row reference implementation of the packed Clifford stack.

Production keeps one implementation of the stabilizer stack, on bit-packed
``uint64`` words.  This test-only package keeps the plain boolean-row
version of each piece — one ``bool`` per qubit, one column rule per gate,
one loop iteration per event and trajectory — as the reference the
differential suites compare against bit for bit.

:func:`installed` swaps the references in through ``monkeypatch`` on the
production attributes below and counts every call under the key shown, so
a test can prove the oracle ran instead of comparing packed with packed:

* ``stabilizer.PackedCliffordTableau`` ← :class:`CliffordTableau`
  (``"tableau"``);
* ``engines._packed_mask_results`` ← ``mask_results`` (``"mask_table"``);
* ``engines._variant_mask_events`` ← ``variant_mask_events``
  (``"variant_masks"``);
* ``engines.StabilizerFrameEngine.run`` ← ``frame_run`` (``"frame_loop"``);
* ``mirror._target_bits`` ← ``target_bits`` (``"mirror_target"``).

:func:`enumerate_probabilities` is an independent route to
``StabilizerSimulator.probabilities``: a recursive branch walk over the
tableau's measurements, compared with it directly by the differential suite.

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

from .engines import frame_run, mask_results, variant_mask_events
from .mirror import target_bits
from .tableau import CliffordTableau, enumerate_probabilities

__all__ = ["CliffordTableau", "enumerate_probabilities", "installed"]


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
            (engines_module, "_packed_mask_results", "mask_table", mask_results),
            (engines_module, "_variant_mask_events", "variant_masks", variant_mask_events),
            (engines_module.StabilizerFrameEngine, "run", "frame_loop", frame_run),
            (mirror_module, "_target_bits", "mirror_target", target_bits),
        ):
            patch.setattr(owner, name, _counted(calls, key, reference))
        yield calls
