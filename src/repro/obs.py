"""Named integer counters behind one lock: the one counter type of the
executor, the store, the service queue, the context cache and the distance
memo, each held by its owner.
"""

from __future__ import annotations

import threading
from typing import Dict

from .lint.annotations import guarded_by

__all__ = ["Counters"]


@guarded_by("_lock", "_values")
class Counters:
    """Counters named at construction, each starting at zero; safe to add to
    from any thread.  An unknown name raises ``KeyError``."""

    def __init__(self, *names: str) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = dict.fromkeys(names, 0)

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._values[name] += int(n)

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._values[name]

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of every counter."""
        with self._lock:
            return dict(self._values)
