"""Persistent, cross-process solver query cache.

The paper's second solver optimisation (§3.3) caches all equivalence queries;
:class:`repro.solver.equivalence.QueryCache` implements it in memory, scoped
to one :class:`EquivalenceChecker` — i.e. one transfer.  A campaign runs many
transfers, and the same donor checks are rewritten against overlapping
recipient vocabularies over and over (three PNG recipients share the same
three donors, for example), so at campaign scale the cache must outlive both
the checker and the worker process.

:class:`PersistentSolverCache` is that extension: an append-only JSONL file
mapping a canonical query key to the serialised verdict payload.  Properties:

* **append-only** — entries are one JSON object per line, written under an
  advisory ``flock`` so concurrent campaign workers never interleave bytes;
* **incrementally shared** — a reader that misses re-checks the file for
  lines appended by sibling processes since its last load before declaring
  the miss, so workers running in parallel benefit from each other;
* **memoized per process** — :func:`open_solver_cache` hands every opener of
  one path the same instance while it still describes the file, so a
  long-lived worker parses each line once, not once per job;
* **crash-safe** — a torn trailing line (a writer killed mid-append) is left
  unread by readers and sealed off with a newline by the next writer, so it
  can never merge with a later entry; duplicate keys are idempotent (last
  wins, verdicts are deterministic for a given key).

The cache is deliberately solver-agnostic: it stores opaque JSON payloads
keyed by strings, and :mod:`repro.solver.equivalence` owns the
(de)serialisation and the key namespaces.  Two key kinds share the file
(since ``CACHE_SCHEMA_VERSION`` 3): equivalence verdicts under the sorted
digest-pair of :func:`query_key`, and satisfiability verdicts under a
``##sat##``-tagged single digest.  Namespaces fold in the schema version
and every verdict-affecting option, the SAT conflict budget included, so
a budget-limited verdict is only replayed under the same budget (see
``docs/SOLVER.md``).  Keys are built from the
structural *digests* of the *simplified* query pair
(:attr:`repro.symbolic.expr.Expr.digest`): content hashes computed bottom-up
over the hash-consed expression DAG.  Digests are deterministic across
processes and runs (interning order and object ids are not), injective
modulo SHA-1 collisions — unlike the paper-notation rendering, which omits
e.g. ``Constant`` widths and would let distinct queries collide on one
cached verdict — and constant-length, so cache lines stay small even for
checks whose ``repr`` runs to hundreds of kilobytes.  They are also O(1) to
obtain for any node the process has already digested, where the previous
``repr``-derived keys re-rendered the whole tree on every query.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Optional

try:  # pragma: no cover - always available on the Linux CI substrate
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..obs import metrics as obs_metrics
from ..symbolic.expr import Expr


def query_key(left: Expr, right: Expr) -> str:
    """Canonical, order-insensitive key for an equivalence query pair.

    The in-memory cache probes ``(left, right)`` then ``(right, left)``; the
    persistent key gets the same symmetry by sorting the two digests.
    """
    first, second = sorted((left.digest, right.digest))
    return f"{first}||{second}"


class PersistentSolverCache:
    """Append-only JSONL store of solver verdicts shared across processes.

    Safe to share between threads: :meth:`refresh` and :meth:`put` hold
    the instance's lock while they read or write the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        #: Bytes of the file loaded so far (always just past a newline), the
        #: last complete line below that offset, and the file's
        #: ``(st_dev, st_ino)`` — what :meth:`describes_file` checks.
        self._offset = 0
        self._tail = b""
        self._identity: Optional[tuple[int, int]] = None
        self._lock = threading.Lock()
        self.refresh()

    # -- reading ---------------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Look up a verdict payload, picking up sibling writers' appends."""
        payload = self._entries.get(key)
        if payload is not None:
            return payload
        if self._file_grew():
            self.refresh()
            return self._entries.get(key)
        return None

    def refresh(self) -> None:
        """Load any complete lines appended since the last load."""
        with self._lock:
            try:
                with open(self.path, "rb") as handle:
                    handle.seek(self._offset)
                    data = handle.read()
                    identity = _file_identity(handle)
            except FileNotFoundError:
                return
            end = data.rfind(b"\n")
            if end < 0:
                return  # nothing new, or a torn line still being written
            parsed = 0
            for line in data[: end + 1].splitlines():
                if not line.strip():
                    continue
                parsed += 1
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a crashed process; skip the line
                key = entry.get("k")
                payload = entry.get("v")
                if isinstance(key, str) and isinstance(payload, dict):
                    self._entries[key] = payload
            self._offset += end + 1
            self._tail = data[data.rfind(b"\n", 0, end) + 1 : end + 1]
            self._identity = identity
        obs_metrics.inc("solver.persistent_lines_loaded", parsed)

    def describes_file(self) -> bool:
        """Whether what this instance loaded still matches the file on disk.

        The file must be the same inode, no shorter than the loaded offset,
        and still hold the last line loaded just below that offset: a file
        deleted and recreated at the same path can reuse the inode, so
        identity alone is not enough.
        """
        with self._lock:
            if self._identity is None:
                # Nothing loaded yet: only verdicts this instance wrote
                # itself could be missing from the file.
                return not self._entries
            try:
                with open(self.path, "rb") as handle:
                    stat = os.fstat(handle.fileno())
                    if (stat.st_dev, stat.st_ino) != self._identity:
                        return False
                    if stat.st_size < self._offset:
                        return False
                    handle.seek(self._offset - len(self._tail))
                    return handle.read(len(self._tail)) == self._tail
            except FileNotFoundError:
                return False

    def _file_grew(self) -> bool:
        try:
            return self.path.stat().st_size > self._offset
        except FileNotFoundError:
            return False

    # -- writing ---------------------------------------------------------------------

    def put(self, key: str, payload: dict) -> None:
        """Record a verdict; no-op if this process already holds the key."""
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = payload
            line = json.dumps({"k": key, "v": payload}, separators=(",", ":"))
            record = (line + "\n").encode("utf-8")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as handle:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                try:
                    # Heal a torn trailing line left by a crashed writer: close
                    # it with a newline so this entry starts a fresh line
                    # instead of merging with (and corrupting) the partial one.
                    size = handle.seek(0, os.SEEK_END)
                    if size > 0:
                        handle.seek(-1, os.SEEK_END)
                        if handle.read(1) != b"\n":
                            handle.write(b"\n")
                    handle.write(record)
                    handle.flush()
                    if size == self._offset and handle.tell() == size + len(record):
                        # Nothing unread lies before this line (no sibling
                        # append slipped in, even without ``flock``): count it
                        # as loaded rather than parse it back on a refresh.
                        self._offset = handle.tell()
                        self._tail = record
                        self._identity = _file_identity(handle)
                finally:
                    if fcntl is not None:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


def _file_identity(handle) -> tuple[int, int]:
    stat = os.fstat(handle.fileno())
    return stat.st_dev, stat.st_ino


# -- partitioned key-space ---------------------------------------------------------------


class ShardedSolverCache:
    """A partitioned verdict key-space: one JSONL shard per ring partition.

    Distributed campaigns split the cache into ``partitions`` shard files
    (``shard-XXX-of-YYY.jsonl``) under one directory; a key's home shard
    is fixed by consistent hashing over partition labels
    (:func:`repro.dist.ring.shard_of`), so every node finds the lines
    every other node writes.  Each shard file is a plain
    :class:`PersistentSolverCache` — same locking, healing, and
    incremental-sharing rules.

    Locality: a node opens the space with its own ring partition as
    ``local_partition``.  A process-wide *overlay* dict caches every key
    this process has seen regardless of home shard, so a warm node mostly
    answers from memory; only overlay misses touch shard files, and a
    touch on a non-local shard is counted as a **hop**
    (``dist.cache_hops``) in the metrics registry, alongside
    ``dist.cache_local_hits`` / ``dist.cache_remote_hits`` /
    ``dist.cache_misses``.
    """

    def __init__(
        self,
        directory: str | Path,
        partitions: int,
        local_partition: Optional[int] = None,
    ) -> None:
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.directory = Path(directory)
        self.partitions = partitions
        self.local_partition = local_partition
        self._shards: dict[int, PersistentSolverCache] = {}
        self._overlay: dict[str, dict] = {}

    def shard_index(self, key: str) -> int:
        """The home partition of ``key`` (stable across nodes and runs)."""
        from ..dist.ring import shard_of  # lazy: campaign <-> dist layering

        return shard_of(key, self.partitions)

    def shard_path(self, index: int) -> Path:
        return self.directory / (
            f"shard-{index:03d}-of-{self.partitions:03d}.jsonl"
        )

    def _shard(self, index: int) -> PersistentSolverCache:
        shard = self._shards.get(index)
        if shard is None:
            shard = PersistentSolverCache(self.shard_path(index))
            self._shards[index] = shard
        return shard

    def _count_touch(self, index: int) -> None:
        if self.local_partition is not None and index != self.local_partition:
            obs_metrics.inc("dist.cache_hops")

    def get(self, key: str) -> Optional[dict]:
        payload = self._overlay.get(key)
        if payload is not None:
            obs_metrics.inc("dist.cache_local_hits")
            return payload
        index = self.shard_index(key)
        self._count_touch(index)
        payload = self._shard(index).get(key)
        if payload is not None:
            self._overlay[key] = payload
            if self.local_partition is None or index == self.local_partition:
                obs_metrics.inc("dist.cache_local_hits")
            else:
                obs_metrics.inc("dist.cache_remote_hits")
        else:
            obs_metrics.inc("dist.cache_misses")
        return payload

    def put(self, key: str, payload: dict) -> None:
        if key in self._overlay:
            return
        self._overlay[key] = payload
        index = self.shard_index(key)
        self._count_touch(index)
        self._shard(index).put(key, payload)

    def refresh(self) -> None:
        for shard in self._shards.values():
            shard.refresh()

    def __len__(self) -> int:
        keys = set(self._overlay)
        for shard in self._shards.values():
            keys.update(shard._entries)
        return len(keys)

    def __contains__(self, key: str) -> bool:
        # Metric-free: membership probes must not skew hop accounting.
        if key in self._overlay:
            return True
        return key in self._shard(self.shard_index(key))


#: Spec separator for sharded cache paths: ``<dir>::shards=<P>::local=<k>``.
_SPEC_SEP = "::"

#: Opened caches memoized per process, so a long-lived worker keeps one warm
#: instance across every job it executes: flat files by absolute path (and
#: only while :meth:`PersistentSolverCache.describes_file` holds), sharded
#: spaces by spec, so a node keeps one overlay.
_OPEN_FLAT: dict[str, PersistentSolverCache] = {}
_OPEN_SHARDED: dict[str, ShardedSolverCache] = {}
_OPEN_LOCK = threading.Lock()


def sharded_cache_spec(
    directory: str | Path, partitions: int, local_partition: Optional[int] = None
) -> str:
    """Build the string spec a coordinator hands to a node's runner."""
    spec = f"{directory}{_SPEC_SEP}shards={partitions}"
    if local_partition is not None:
        spec += f"{_SPEC_SEP}local={local_partition}"
    return spec


def open_solver_cache(spec: str | Path):
    """Open a cache from a path-or-spec string.

    A plain path opens the classic single-file
    :class:`PersistentSolverCache`.  A ``::shards=``-tagged spec (built
    by :func:`sharded_cache_spec`) opens a :class:`ShardedSolverCache`.
    Both are memoized per process (see :data:`_OPEN_FLAT`), so every
    checker in one worker shares one instance and later opens read only
    the lines appended since.  Keeping the spec a string keeps it
    trivially picklable through worker process boundaries.
    """
    text = str(spec)
    with _OPEN_LOCK:
        if _SPEC_SEP not in text:
            path = os.path.abspath(text)
            flat = _OPEN_FLAT.get(path)
            if flat is None or not flat.describes_file():
                flat = _OPEN_FLAT[path] = PersistentSolverCache(path)
            return flat
        sharded = _OPEN_SHARDED.get(text)
        if sharded is None:
            sharded = _OPEN_SHARDED[text] = _open_sharded(text)
        return sharded


def _open_sharded(text: str) -> ShardedSolverCache:
    parts = text.split(_SPEC_SEP)
    directory = parts[0]
    partitions = 1
    local: Optional[int] = None
    for part in parts[1:]:
        name, _, value = part.partition("=")
        if name == "shards":
            partitions = int(value)
        elif name == "local":
            local = int(value)
        else:
            raise ValueError(f"unknown cache spec field {part!r} in {text!r}")
    return ShardedSolverCache(directory, partitions, local_partition=local)
