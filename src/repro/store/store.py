"""The two-tier experiment store.

On-disk layout (all paths under one *store root*)::

    <root>/
      objects/<kk>/<key>.json    -- compact JSON manifest (schema, kind, meta, array names)
      objects/<kk>/<key>.npz     -- numpy arrays (only when the record has any)
      sweeps/<name>.json         -- sweep checkpoint journals (repro.runtime)
      leases/<sweep>/<key>.lease -- work-stealing task leases (repro.runtime.leases)
      jobs/journal-*.jsonl       -- ``repro serve`` job journal, one segment per daemon
      stats.json                 -- cumulative hit/miss counters across sessions

Federation: a store can be opened over *ordered read-through roots*
(``ExperimentStore.from_spec("local:shared")``).  Reads consult the first
(write) root, then each further root in order; every write — records,
journals, leases, stats, gc — goes to the write root only.  Because keys are
content-addressed there is no conflict to resolve between roots: two roots
holding the same key hold the same record by construction, so "first root
wins" and "any root wins" are the same answer.

where ``<kk>`` is the first two hex characters of the key (fan-out keeps
directory listings short on large stores).

Write protocol — safe under concurrent writers:

1. arrays (if any) are written to a unique temporary file in the *final
   directory* and published with :func:`os.replace` (atomic on POSIX);
2. the manifest is written the same way, **last**.

A record therefore *exists* exactly when its manifest is readable, and a
manifest never references arrays that were not fully written by the same
writer.  Two processes racing on one key both write valid artifacts; the
last rename wins and every reader sees one complete version.  Readers treat
any undecodable manifest or unloadable ``.npz`` as a cache miss, quarantine
the files (delete them) and recompute — a crash mid-write can never poison
the store.

The in-memory tier is a per-process LRU over each record's manifest bytes
and frozen arrays: sweeps that revisit a key (ADAPT re-scoring, report
generation after a run) skip the disk and the npz decode, and a hit decodes
its meta from the same bytes a disk hit reads, so both return equal records.
It sits behind one lock, because ``repro serve`` reads a handle from its
handler threads while its scheduler thread writes it; disk reads and writes
stay outside that lock.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..lint.annotations import guarded_by
from ..obs import Counters
from .keys import SCHEMA_VERSION

__all__ = ["StoreRecord", "ExperimentStore", "default_store_root"]


def default_store_root() -> str:
    """The CLI's default store location (override with ``REPRO_STORE``)."""
    return os.environ.get("REPRO_STORE", os.path.join(".", ".repro-store"))


@dataclass
class StoreRecord:
    """One stored experiment result: JSON metadata plus optional arrays."""

    key: str
    meta: Dict[str, object]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION
    created_at: float = 0.0

    @property
    def kind(self) -> str:
        return str(self.meta.get("kind", "unknown"))


def _record(key: str, manifest: dict, arrays: Dict[str, np.ndarray]) -> StoreRecord:
    """The record a decoded manifest describes."""
    return StoreRecord(
        key=key,
        meta=manifest["meta"],
        arrays=arrays,
        schema=int(manifest.get("schema", -1)),
        created_at=float(manifest.get("created_at", 0.0)),
    )


@guarded_by("_memory_lock", "_memory")
class ExperimentStore:
    """Content-addressed result store: in-memory LRU over on-disk artifacts.

    Args:
        root: store directory (created on first write).
        max_memory_entries: size of the in-process LRU tier.  ``0`` disables
            the memory tier (every ``get`` decodes from disk — used by tests).
        read_roots: further roots consulted (in order) when a key is not in
            the write root.  Read roots are strictly read-only: no writes, no
            quarantine, no gc ever touches them from this handle.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_memory_entries: int = 256,
        read_roots: Sequence[str] = (),
    ) -> None:
        self.root = Path(root if root is not None else default_store_root())
        self.max_memory_entries = max(0, int(max_memory_entries))
        self._memory_lock = threading.Lock()
        #: key -> (manifest bytes, frozen arrays), least recently used first
        self._memory: Dict[str, Tuple[bytes, Dict[str, np.ndarray]]] = {}
        self._readonly = False
        self._read_stores: List["ExperimentStore"] = []
        for extra in read_roots:
            child = ExperimentStore(extra, max_memory_entries=0)
            child._readonly = True
            self._read_stores.append(child)
        #: This handle's counters: hits per tier, misses, writes, corrupt
        #: drops and ``contains`` probes.
        self.stats = Counters(
            "memory_hits", "disk_hits", "federated_hits", "misses",
            "writes", "corrupt_dropped", "probe_hits", "probe_misses",
        )

    @classmethod
    def from_spec(cls, spec: Optional[str], max_memory_entries: int = 256) -> "ExperimentStore":
        """Open a (possibly federated) store from a ``root[:root...]`` spec.

        The spec is a list of roots joined by ``os.pathsep`` (``:`` on
        POSIX, like ``$PATH``): the first root takes every write, the rest
        are ordered read-through fallbacks.  ``None`` falls back to
        :func:`default_store_root`, which may itself be a federated spec via
        ``$REPRO_STORE``.
        """
        roots = [r for r in (spec or default_store_root()).split(os.pathsep) if r]
        if not roots:
            raise ValueError(f"store spec {spec!r} names no roots")
        return cls(
            roots[0], max_memory_entries=max_memory_entries, read_roots=roots[1:]
        )

    def spec_string(self) -> str:
        """The ``from_spec`` round-trip: write root + read roots, in order.

        This is what crosses process boundaries (fork workers, ``--join``
        payloads) so every worker sees the same federation.
        """
        return os.pathsep.join(
            [str(self.root)] + [str(child.root) for child in self._read_stores]
        )

    @property
    def read_roots(self) -> List[Path]:
        return [child.root for child in self._read_stores]

    # -- paths ----------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def sweeps_dir(self) -> Path:
        return self.root / "sweeps"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def jobs_dir(self) -> Path:
        """The ``repro serve`` job journal's segments (:mod:`repro.service.journal`)."""
        path = self.root / "jobs"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _bucket(self, key: str) -> Path:
        return self.objects_dir / key[:2]

    def _manifest_path(self, key: str) -> Path:
        return self._bucket(key) / f"{key}.json"

    def _arrays_path(self, key: str) -> Path:
        return self._bucket(key) / f"{key}.npz"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        """Publish ``data`` at ``path`` via a unique temp file + atomic rename.

        The temp name carries pid + thread id + random bytes so concurrent
        writers (threads, fork workers, independent processes) can never
        collide on the scratch file; uniqueness never relies on shared state.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".tmp-{os.getpid()}-{threading.get_ident():x}"
            f"-{os.urandom(6).hex()}-{path.name}"
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed replace
                tmp.unlink()

    # -- core API -------------------------------------------------------

    def put(
        self,
        key: str,
        meta: Dict[str, object],
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> StoreRecord:
        """Store a record (arrays first, manifest last — see module docs)."""
        if self._readonly:
            raise PermissionError(
                f"store root {self.root} is a federated read root; writes go"
                " to the first root of the federation"
            )
        arrays = {str(k): np.asarray(v) for k, v in (arrays or {}).items()}
        record = StoreRecord(
            key=key, meta=dict(meta), arrays=arrays, created_at=time.time()
        )
        if arrays:
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **arrays)
            self._atomic_write(self._arrays_path(key), buffer.getvalue())
        manifest = {
            "schema": record.schema,
            "key": key,
            "kind": record.kind,
            "created_at": record.created_at,
            "arrays": sorted(arrays),
            "meta": record.meta,
        }
        # Compact: without ``indent`` json runs its C encoder.
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
        self._atomic_write(self._manifest_path(key), manifest_bytes)
        self.stats.add("writes")
        self._remember(key, manifest_bytes, arrays)
        return record

    def get(self, key: str) -> Optional[StoreRecord]:
        """Fetch a record, or ``None`` on miss / corrupt artifact.

        Lookup order: memory tier, the write root's disk, then each
        federated read root in order.  A hit from any tier lands in the
        memory tier, so repeated reads of a shared-root record cost one
        decode.
        """
        with self._memory_lock:
            cached = self._memory.pop(key, None)
            if cached is not None:
                self._memory[key] = cached  # LRU refresh
        if cached is not None:
            self.stats.add("memory_hits")
            manifest_bytes, arrays = cached
            return _record(key, json.loads(manifest_bytes), dict(arrays))
        found = self._read_disk(key)
        if found is None:
            for child in self._read_stores:
                found = child._read_disk(key)
                if found is not None:
                    self.stats.add("federated_hits")
                    break
        if found is None:
            self.stats.add("misses")
            return None
        self.stats.add("disk_hits")
        record, manifest_bytes = found
        self._remember(key, manifest_bytes, record.arrays)
        return record

    def _read_disk(self, key: str) -> Optional[Tuple[StoreRecord, bytes]]:
        """Decode one record from this root's disk (no memory tier, no
        federation, no stats beyond quarantine accounting); returns it with
        the manifest bytes it was decoded from."""
        manifest_path = self._manifest_path(key)
        try:
            with open(manifest_path, "rb") as handle:
                manifest_bytes = handle.read()
            manifest = json.loads(manifest_bytes)
            if manifest.get("key") != key or "meta" not in manifest:
                raise ValueError("manifest does not describe this key")
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError, OSError):
            self._quarantine(key)
            return None
        arrays: Dict[str, np.ndarray] = {}
        if manifest.get("arrays"):
            import zipfile

            try:
                with np.load(self._arrays_path(key)) as bundle:
                    names = set(manifest["arrays"])
                    if not names.issubset(bundle.files):
                        raise ValueError("arrays missing from bundle")
                    arrays = {name: bundle[name] for name in names}
            except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
                # Partial write (manifest from an old complete record but a
                # later crashed arrays rewrite, or filesystem damage).
                self._quarantine(key)
                return None
        record = _record(key, manifest, arrays)
        if record.schema != SCHEMA_VERSION:
            # Readable but written by another schema: treat as a miss, leave
            # the files for `gc` to reclaim (so downgrades don't destroy data).
            return None
        return record, manifest_bytes

    def contains(self, key: str) -> bool:
        """Existence probe (manifest validated, arrays not decoded).

        This is the orchestrator's skip-or-run decision, so it must agree
        with what ``get`` would do: an unreadable or wrong-schema manifest is
        *not* present — otherwise a damaged record would be skipped forever
        instead of recomputed on resume.  The array bundle is not opened
        (that cost stays on the ``get`` path); a truncated ``.npz`` behind a
        valid manifest is caught by ``get`` when the record is actually read.
        Probes are counted separately (``probe_*``) from the decoding ``get``
        path so ``repro ls --stats`` can report how much of a sweep was
        served from the store.
        """
        with self._memory_lock:
            present = key in self._memory
        present = present or self._valid_manifest(key)
        if not present:
            present = any(child._valid_manifest(key) for child in self._read_stores)
        self.stats.add("probe_hits" if present else "probe_misses")
        return present

    def _valid_manifest(self, key: str) -> bool:
        try:
            with open(self._manifest_path(key), "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return False
        except (json.JSONDecodeError, OSError):
            self._quarantine(key)
            return False
        return manifest.get("key") == key and manifest.get("schema") == SCHEMA_VERSION

    def delete(self, key: str) -> bool:
        """Remove a record from both tiers.  Returns True if anything existed."""
        existed = False
        with self._memory_lock:
            self._memory.pop(key, None)
        for path in (self._manifest_path(key), self._arrays_path(key)):
            if path.exists():
                path.unlink()
                existed = True
        return existed

    # -- internals ------------------------------------------------------

    def _remember(
        self, key: str, manifest_bytes: bytes, arrays: Dict[str, np.ndarray]
    ) -> None:
        if self.max_memory_entries <= 0:
            return
        # The tier keeps the record's manifest bytes and its own frozen array
        # copies, and decodes fresh meta on every hit: a caller mutating a
        # result it got from the store must never poison later reads of the
        # key, a memory hit returns exactly what a disk hit returns, and the
        # tier never touches buffers the caller still owns (a put() must not
        # freeze the caller's own array as a side effect).
        frozen = {}
        for name, array in arrays.items():
            if array.flags.writeable:
                array = array.copy()
                array.setflags(write=False)
            frozen[name] = array
        with self._memory_lock:
            self._memory.pop(key, None)
            self._memory[key] = (manifest_bytes, frozen)
            while len(self._memory) > self.max_memory_entries:
                self._memory.pop(next(iter(self._memory)))

    def _quarantine(self, key: str) -> None:
        """Drop the artifacts of an unreadable record so it gets recomputed.

        Read-only roots are never mutated: a federated fallback treats their
        corrupt artifacts as plain misses and leaves cleanup to whoever owns
        that root as a write root.
        """
        if self._readonly:
            return
        self.stats.add("corrupt_dropped")
        for path in (self._manifest_path(key), self._arrays_path(key)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def _iter_manifests(self) -> Iterator[Path]:
        if not self.objects_dir.exists():
            return
        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir():
                continue
            yield from sorted(bucket.glob("*.json"))

    # -- listing / maintenance -----------------------------------------

    def keys(self) -> List[str]:
        return [path.stem for path in self._iter_manifests()]

    def ls(self) -> List[Dict[str, object]]:
        """Manifest summaries of every record (without decoding arrays)."""
        rows: List[Dict[str, object]] = []
        for path in self._iter_manifests():
            try:
                with open(path, encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (json.JSONDecodeError, OSError):
                rows.append({"key": path.stem, "kind": "<corrupt>", "schema": None})
                continue
            arrays_path = self._arrays_path(path.stem)
            rows.append(
                {
                    "key": manifest.get("key", path.stem),
                    "kind": manifest.get("kind", "unknown"),
                    "schema": manifest.get("schema"),
                    "created_at": manifest.get("created_at", 0.0),
                    "arrays": manifest.get("arrays", []),
                    "bytes": path.stat().st_size
                    + (arrays_path.stat().st_size if arrays_path.exists() else 0),
                }
            )
        return rows

    def gc(
        self,
        older_than_s: Optional[float] = None,
        dry_run: bool = False,
        lease_older_than_s: Optional[float] = 86400.0,
    ) -> Dict[str, List[str]]:
        """Reclaim space: stale schemas, corrupt records, orphans, temp files.

        Removes (unless ``dry_run``):

        * records whose manifest ``schema`` differs from :data:`SCHEMA_VERSION`;
        * manifests that no longer parse;
        * ``.npz`` files with no manifest (crashed before the manifest rename);
        * leftover ``.tmp-*`` files;
        * lease files untouched for ``lease_older_than_s`` seconds (dead
          sweeps; live workers re-stamp their leases every few seconds);
        * optionally, records older than ``older_than_s`` seconds.

        GC is scoped to the write root: federated read roots are never
        touched — each root is collected by whoever opens it as a write root.
        Returns the removed paths grouped by reason.
        """
        removed: Dict[str, List[str]] = {
            "stale_schema": [],
            "corrupt": [],
            "orphan": [],
            "tmp": [],
            "expired": [],
            "stale_lease": [],
        }
        now = time.time()

        def _drop(paths: List[Path], reason: str) -> None:
            for path in paths:
                removed[reason].append(str(path))
                if not dry_run and path.exists():
                    path.unlink()

        if self.leases_dir.exists() and lease_older_than_s is not None:
            for sweep_dir in sorted(self.leases_dir.iterdir()):
                if not sweep_dir.is_dir():
                    continue
                for lease in sorted(sweep_dir.iterdir()):
                    try:
                        age = now - lease.stat().st_mtime
                    except FileNotFoundError:  # pragma: no cover - racing worker
                        continue
                    if age > lease_older_than_s:
                        _drop([lease], "stale_lease")
                if not dry_run and not any(sweep_dir.iterdir()):
                    sweep_dir.rmdir()
        if not self.objects_dir.exists():
            return removed

        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir():
                continue
            for tmp in sorted(bucket.glob(".tmp-*")):
                _drop([tmp], "tmp")
            manifests = {path.stem: path for path in bucket.glob("*.json")}
            for npz in sorted(bucket.glob("*.npz")):
                if npz.stem not in manifests:
                    _drop([npz], "orphan")
            for key, path in sorted(manifests.items()):
                pair = [path, self._arrays_path(key)]
                pair = [p for p in pair if p.exists()]
                try:
                    with open(path, encoding="utf-8") as handle:
                        manifest = json.load(handle)
                except (json.JSONDecodeError, OSError):
                    _drop(pair, "corrupt")
                    continue
                if manifest.get("schema") != SCHEMA_VERSION:
                    _drop(pair, "stale_schema")
                elif (
                    older_than_s is not None
                    and now - float(manifest.get("created_at", 0.0)) > older_than_s
                ):
                    _drop(pair, "expired")
        if not dry_run:
            dropped = {p for paths in removed.values() for p in paths}
            with self._memory_lock:
                self._memory = {
                    k: r
                    for k, r in self._memory.items()
                    if str(self._manifest_path(k)) not in dropped
                }
        return removed

    def disk_bytes(self) -> int:
        total = 0
        if self.objects_dir.exists():
            for bucket in self.objects_dir.iterdir():
                if bucket.is_dir():
                    total += sum(p.stat().st_size for p in bucket.iterdir())
        return total

    # -- cumulative stats (surfaced by `repro ls --stats`) --------------

    @property
    def stats_path(self) -> Path:
        return self.root / "stats.json"

    def flush_session_stats(self) -> Dict[str, int]:
        """Fold this handle's counters into the persistent ``stats.json``.

        Called once, by the code that opened the handle, when it is done.
        The read-merge-rename is not transactional across processes; for the
        diagnostic counters it feeds (`repro ls --stats`) last-writer-wins on
        a race is acceptable.
        """
        cumulative = self.cumulative_stats()
        for name, value in self.stats.snapshot().items():
            cumulative[name] = cumulative.get(name, 0) + value
        self._atomic_write(
            self.stats_path, json.dumps(cumulative, sort_keys=True, indent=1).encode()
        )
        return cumulative

    def cumulative_stats(self) -> Dict[str, int]:
        try:
            with open(self.stats_path, encoding="utf-8") as handle:
                return {str(k): int(v) for k, v in json.load(handle).items()}
        except (FileNotFoundError, json.JSONDecodeError, OSError, ValueError):
            return {}
