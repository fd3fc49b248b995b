"""Named, versioned relation catalog with incremental delta appends.

The catalog is the serving layer's data plane.  Every registered relation is
held as a **base** (the part the optimizer has seen — plans and materialized
base results key off its content) plus a **delta** tail of rows appended
since the base was last (re-)partitioned.  An append therefore never touches
the base: it concatenates onto the delta and bumps the content version,
which is what invalidates the prepared queries' materialized results.

Once the delta grows past a configurable fraction of the base
(:attr:`RelationCatalog.staleness_threshold`), the relation is *stale*: the
catalog reports it and fires the ``on_stale`` callback, which the service
wires to background compaction — merging the delta into a new base, after
which the next query re-optimizes over the full data.  Until then, queries
answer through the delta-join path of
:class:`~repro.service.prepared.PreparedQuery`, which routes only the
appended rows through the existing partitioning.

All mutation happens under one lock; readers receive immutable
:class:`RelationSnapshot` objects and are never blocked by an append racing
with their query.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from collections.abc import Mapping

import numpy as np

from repro import faults
from repro.config import (
    DEFAULT_SPILL_THRESHOLD_BYTES,
    DEFAULT_STALENESS_THRESHOLD,
    DEFAULT_STORAGE_BACKEND,
    MAX_SEGMENTS_BEFORE_REWRITE,
    STORAGE_BACKENDS,
)
from repro.data.relation import Relation
from repro.data.storage import recover_spill_dir
from repro.exceptions import CorruptSegmentError, NonFiniteInputError, ServiceError
from repro.obs.globals import registry as obs_registry

__all__ = ["RelationSnapshot", "RelationCatalog"]

#: Spill attempts before giving up (the last one runs fault-suppressed).
MAX_SPILL_ATTEMPTS = 3


def _recovery_counter():
    return obs_registry().counter(
        "repro_segment_recoveries_total",
        "corrupt segment writes detected and retried into a fresh directory",
    )


def _as_relation(name: str, data) -> Relation:
    """Coerce a Relation or a ``{column: array}`` mapping into a Relation."""
    if isinstance(data, Relation):
        return data if data.name == name else data.rename(name)
    if isinstance(data, Mapping):
        return Relation(name, {c: np.asarray(v) for c, v in data.items()})
    raise ServiceError(
        f"relation data for {name!r} must be a Relation or a column mapping, "
        f"got {type(data).__name__}"
    )


def _reject_non_finite(relation: Relation) -> None:
    """Raise :class:`NonFiniteInputError` if a float column holds NaN or ±inf.

    The scan reads the columns in bounded chunks, so an out-of-core relation
    is checked without being materialized.
    """
    columns = [
        c for c in relation.column_names
        if np.issubdtype(relation.store.dtype(c), np.floating)
    ]
    if not columns or len(relation) == 0:
        return
    for start, _, chunk in relation.iter_join_matrix(columns):
        bad = np.argwhere(~np.isfinite(chunk))
        if bad.size:
            row, col = bad[0]
            raise NonFiniteInputError(
                f"relation {relation.name!r} column {columns[col]!r} holds the "
                f"non-finite value {chunk[row, col]} at row {start + row}; "
                "band-joins need finite values"
            )


class RelationSnapshot:
    """Immutable view of one catalog relation at a point in time.

    Attributes
    ----------
    name:
        Catalog name of the relation.
    version:
        Content version; bumped on every append and re-registration.  Result
        caches key off this, so stale results can never be served.
    base_version:
        Partitioning lineage; bumped when the base changes (registration or
        compaction) but *not* on appends — cached plans and base results
        stay valid across appends.
    base / delta:
        The optimized part and the appended tail (``None`` when no rows have
        been appended since the last compaction).
    """

    __slots__ = ("name", "version", "base_version", "base", "delta", "_full")

    def __init__(
        self,
        name: str,
        version: int,
        base_version: int,
        base: Relation,
        delta: Relation | None,
    ) -> None:
        self.name = name
        self.version = version
        self.base_version = base_version
        self.base = base
        self.delta = delta
        self._full: Relation | None = None

    @property
    def full(self) -> Relation:
        """Return base and delta concatenated (materialized lazily, once)."""
        if self.delta is None:
            return self.base
        full = self._full
        if full is None:
            full = self.base.concat(self.delta)
            self._full = full
        return full

    @property
    def rows(self) -> int:
        """Return the total row count including the delta."""
        return len(self.base) + self.delta_rows

    @property
    def delta_rows(self) -> int:
        """Return the number of appended rows awaiting compaction."""
        return 0 if self.delta is None else len(self.delta)

    @property
    def staleness(self) -> float:
        """Return the delta-to-base row fraction."""
        return self.delta_rows / max(1, len(self.base))

    @property
    def storage(self) -> str:
        """Return the storage backend of the relation's base."""
        return self.base.storage

    @property
    def segment_count(self) -> int:
        """Return the physical segment count across base and delta."""
        total = self.base.segment_count
        if self.delta is not None:
            total += self.delta.segment_count
        return total

    def describe(self) -> dict:
        """Return a JSON-friendly summary."""
        return {
            "name": self.name,
            "version": self.version,
            "base_version": self.base_version,
            "rows": self.rows,
            "delta_rows": self.delta_rows,
            "staleness": self.staleness,
            "columns": list(self.base.column_names),
            "storage": self.storage,
            "segments": self.segment_count,
            "bytes": self.base.nbytes + (self.delta.nbytes if self.delta else 0),
        }

    def __repr__(self) -> str:
        return (
            f"RelationSnapshot(name={self.name!r}, version={self.version}, "
            f"rows={self.rows}, delta_rows={self.delta_rows})"
        )


class RelationCatalog:
    """Registry of named, versioned relations supporting incremental appends.

    Parameters
    ----------
    staleness_threshold:
        Delta-to-base fraction past which :meth:`append` reports the
        relation stale and fires ``on_stale``.
    on_stale:
        Callback ``on_stale(name)`` invoked (outside the catalog lock) when
        an append pushes a relation past the threshold; the service uses it
        to schedule background compaction.
    storage:
        ``"memory"`` (historical all-heap behavior) or ``"mmap"``:
        registered relations of at least ``spill_threshold_bytes`` bytes are
        spilled to memory-mapped ``.npy`` segments under ``spill_dir``, and
        compaction maintains the segment chain incrementally on disk.
    spill_dir:
        Segment directory root; a private temp directory (removed by
        :meth:`cleanup`) when ``None``.
    spill_threshold_bytes:
        Minimum relation payload size for spilling — small relations stay on
        the heap even under ``storage="mmap"``.
    """

    def __init__(
        self,
        staleness_threshold: float = DEFAULT_STALENESS_THRESHOLD,
        on_stale=None,
        storage: str = DEFAULT_STORAGE_BACKEND,
        spill_dir: str | None = None,
        spill_threshold_bytes: int = DEFAULT_SPILL_THRESHOLD_BYTES,
    ) -> None:
        if staleness_threshold <= 0:
            raise ServiceError("staleness_threshold must be positive")
        if storage not in STORAGE_BACKENDS:
            raise ServiceError(
                f"storage must be one of {STORAGE_BACKENDS}, got {storage!r}"
            )
        if spill_threshold_bytes < 1:
            raise ServiceError("spill_threshold_bytes must be positive")
        self.staleness_threshold = staleness_threshold
        self.on_stale = on_stale
        self.storage = storage
        self.spill_threshold_bytes = int(spill_threshold_bytes)
        self._owns_spill_dir = storage == "mmap" and spill_dir is None
        if storage == "mmap":
            self.spill_dir = (
                tempfile.mkdtemp(prefix="repro-catalog-") if spill_dir is None else spill_dir
            )
            os.makedirs(self.spill_dir, exist_ok=True)
            # Startup recovery: a crash mid-spill leaves ``*.tmp`` segment
            # files behind (finished segments were atomically renamed, so
            # anything still tmp-named is garbage by definition).
            recover_spill_dir(self.spill_dir)
        else:
            self.spill_dir = spill_dir
        self._lock = threading.Lock()
        self._entries: dict[str, RelationSnapshot] = {}
        self._spill_lock = threading.Lock()
        self._spill_serial = 0

    def _spill_path(self, label: str) -> str:
        """Return a fresh segment directory for ``label`` under the root."""
        with self._spill_lock:
            self._spill_serial += 1
            serial = self._spill_serial
        return os.path.join(self.spill_dir, f"{label}-{serial:05d}")

    def _maybe_spill(self, relation: Relation) -> Relation:
        """Spill a heap relation to disk segments when policy says so."""
        if (
            self.storage != "mmap"
            or relation.storage != "memory"
            or relation.nbytes < self.spill_threshold_bytes
        ):
            return relation
        return self._spill_with_retry(relation, relation.name, "register")

    def _spill_with_retry(self, relation: Relation, label: str, stage: str) -> Relation:
        """Spill ``relation`` to segments, retrying torn writes (see below)."""
        return self._retry_segment_write(relation.spill, label, stage)

    def _retry_segment_write(self, write, label: str, stage: str):
        """Run ``write(path)`` against fresh segment directories until it sticks.

        Segment writes validate on finish, so a torn write (crash window,
        full disk, injected ``spill_torn`` fault) surfaces as
        :class:`CorruptSegmentError` here rather than as wrong query
        answers later.  Each retry targets a *fresh* directory — the bad
        one is removed — and the final attempt runs fault-suppressed, so
        availability never depends on the injector's draw.
        """
        last_error: CorruptSegmentError | None = None
        for attempt in range(MAX_SPILL_ATTEMPTS):
            path = self._spill_path(label)
            final = attempt == MAX_SPILL_ATTEMPTS - 1
            try:
                if final:
                    with faults.suppressed():
                        return write(path)
                return write(path)
            except CorruptSegmentError as exc:
                last_error = exc
                _recovery_counter().inc(stage=stage)
                shutil.rmtree(path, ignore_errors=True)
        raise CorruptSegmentError(
            f"segment write for {label!r} failed after {MAX_SPILL_ATTEMPTS} "
            f"attempts: {last_error}"
        ) from last_error

    def cleanup(self) -> None:
        """Remove the catalog-owned spill directory (call after shutdown).

        Segment files are shared by every snapshot version that references
        them, so individual files are never deleted while the catalog is
        live; the whole directory goes at once when the owning service
        closes.  Catalogs pointed at a caller-provided ``spill_dir`` leave
        it untouched.
        """
        if self._owns_spill_dir and self.spill_dir:
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Registration and lookup
    # ------------------------------------------------------------------ #
    def register(self, name: str, data, replace: bool = False) -> RelationSnapshot:
        """Register a relation under ``name`` (a fresh base with no delta).

        Under ``storage="mmap"`` a heap relation at or above the spill
        threshold is rewritten to memory-mapped segments before it enters
        the catalog, so registration — not first query — pays the I/O.
        Data holding NaN or ±inf raises :class:`NonFiniteInputError` before
        anything is stored.
        """
        relation = _as_relation(name, data)
        _reject_non_finite(relation)
        relation = self._maybe_spill(relation)
        with self._lock:
            existing = self._entries.get(name)
            if existing is not None and not replace:
                raise ServiceError(
                    f"relation {name!r} is already registered; pass replace=True to overwrite"
                )
            version = existing.version + 1 if existing is not None else 1
            base_version = existing.base_version + 1 if existing is not None else 1
            snapshot = RelationSnapshot(name, version, base_version, relation, None)
            self._entries[name] = snapshot
            return snapshot

    def get(self, name: str) -> RelationSnapshot:
        """Return the current snapshot of ``name``."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise ServiceError(
                    f"unknown relation {name!r}; registered: {sorted(self._entries)}"
                ) from None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def names(self) -> list[str]:
        """Return the registered relation names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def drop(self, name: str) -> None:
        """Remove a relation from the catalog."""
        with self._lock:
            if self._entries.pop(name, None) is None:
                raise ServiceError(f"unknown relation {name!r}")

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def append(self, name: str, rows) -> RelationSnapshot:
        """Append rows to a relation's delta and return the new snapshot.

        The appended rows are schema-checked against the base; the base
        itself (and therefore every cached plan and base result) is
        untouched.  When the grown delta pushes the relation past the
        staleness threshold, ``on_stale(name)`` fires after the catalog
        lock is released.  Rows holding NaN or ±inf raise
        :class:`NonFiniteInputError` and leave the relation unchanged.
        """
        delta_rows = _as_relation(name, rows)
        _reject_non_finite(delta_rows)
        stale = False
        with self._lock:
            current = self._entries.get(name)
            if current is None:
                raise ServiceError(f"cannot append to unknown relation {name!r}")
            if len(delta_rows) == 0:
                return current
            if delta_rows.column_names != current.base.column_names:
                raise ServiceError(
                    f"appended rows for {name!r} have schema "
                    f"{delta_rows.column_names}, expected {current.base.column_names}"
                )
            delta = (
                delta_rows
                if current.delta is None
                else current.delta.concat(delta_rows)
            )
            snapshot = RelationSnapshot(
                name, current.version + 1, current.base_version, current.base, delta
            )
            self._entries[name] = snapshot
            stale = snapshot.staleness >= self.staleness_threshold
        if stale and self.on_stale is not None:
            self.on_stale(name)
        return snapshot

    def compact(self, name: str) -> RelationSnapshot:
        """Merge a relation's delta into a fresh base (the re-partition point).

        The content version is preserved — the rows are unchanged, so
        materialized results for the current version remain servable — but
        the base lineage is bumped: the next uncached query re-optimizes
        over the full data instead of taking the delta path.

        The merge never materializes the whole relation at once.  A heap
        base concatenates column by column (peak transient memory is one
        column pair), then spills if it crossed the threshold.  An mmap
        base spills the delta and unions the segment chains — O(delta)
        I/O — rewriting the chain into even segments only once it exceeds
        ``MAX_SEGMENTS_BEFORE_REWRITE``.
        """
        with self._lock:
            current = self._entries.get(name)
            if current is None:
                raise ServiceError(f"cannot compact unknown relation {name!r}")
            if current.delta is None:
                return current
            base, delta = current.base, current.delta
            if base.storage == "mmap":
                delta = self._retry_segment_write(
                    delta.spill, f"{name}-delta", "compact"
                )
                merged = base.concat(delta)
                if merged.segment_count > MAX_SEGMENTS_BEFORE_REWRITE:
                    merged = Relation.from_store(
                        name,
                        self._retry_segment_write(
                            merged.store.compacted, f"{name}-compact", "compact"
                        ),
                    )
            else:
                merged = self._maybe_spill(base.concat(delta))
            snapshot = RelationSnapshot(
                name, current.version, current.base_version + 1, merged, None
            )
            self._entries[name] = snapshot
            return snapshot

    def stale_names(self) -> list[str]:
        """Return the relations currently past the staleness threshold."""
        with self._lock:
            return sorted(
                name
                for name, snap in self._entries.items()
                if snap.staleness >= self.staleness_threshold
            )

    def describe(self) -> dict:
        """Return a JSON-friendly summary of every registered relation."""
        with self._lock:
            return {name: snap.describe() for name, snap in self._entries.items()}

    def __repr__(self) -> str:
        return f"RelationCatalog(relations={self.names()})"
