"""Content-addressed analysis result cache.

A :class:`ResultCache` stores serialized analysis results keyed by
:class:`CacheKey` — the content hash of everything a run depends on:
``(program_hash, query, input_types, config_hash, domain, format)``.
Two layers:

* an **in-memory LRU** (bounded by ``max_memory_entries``) serving the
  hot keys of a long-lived service process;
* an optional **on-disk store** under ``cache_dir`` that persists
  across processes, laid out as
  ``objects/<program_hash>/<key_digest>.json`` so all results for one
  program version can be listed (promotion) or dropped (invalidation)
  without touching the rest of the store.

Payloads are the JSON-ready objects of :mod:`repro.service.serialize`.
The memory layer holds each one as a :class:`CacheEntry`: the payload's
canonical JSON bytes plus its table fingerprint, both computed once
when the entry is stored (``put``, ``seed``, or a disk read promoted
into memory).  A server answers a warm hit by copying those bytes into
its reply — no per-request encoding and no decoded dict kept beside
them; callers that need the dict call :meth:`ResultCache.get`, which
decodes on demand.

Concurrency model (PR 5's server hangs many readers and writers off
one instance and many *processes* off one ``cache_dir``):

* **Within a process** the memory layer and the stats counters are
  guarded by an internal lock, so any number of threads may ``get`` /
  ``put`` / ``invalidate`` concurrently.
* **Across processes** safety rests on the filesystem: writes land via
  tempfile + atomic ``os.replace`` (a reader sees the old record or
  the new one, never a torn one), unreadable/partial records count as
  misses, and every directory listing / unlink tolerates entries
  vanishing underneath it.  A ``put`` whose program directory is
  concurrently removed (``invalidate_program`` / ``clear`` in another
  process) recreates the directory and retries once.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..fixpoint.engine import AnalysisConfig
from ..prolog.program import PredId, Program
from ..typegraph.grammar import Grammar
from .serialize import (FORMAT_VERSION, canonical_json, config_hash,
                        content_hash, grammar_content_hash,
                        payload_fingerprint, program_hash)

__all__ = ["CacheEntry", "CacheKey", "CacheStats", "ResultCache",
           "make_key"]


@dataclass(frozen=True)
class CacheKey:
    """Everything an analysis run's outcome depends on."""

    program_hash: str
    query: PredId
    # canonical JSON text, grammar specs as content hashes; None = all Any
    input_types_key: Optional[str]
    config_hash: str
    domain: str
    version: int = FORMAT_VERSION

    @functools.cached_property
    def digest(self) -> str:
        return content_hash({
            "program": self.program_hash,
            "query": list(self.query),
            "input_types": self.input_types_key,
            "config": self.config_hash,
            "domain": self.domain,
            "version": self.version,
        })

    def with_program(self, new_program_hash: str) -> "CacheKey":
        """The same workload against another program version — the
        re-keying primitive behind incremental promotion."""
        return CacheKey(new_program_hash, self.query,
                        self.input_types_key, self.config_hash,
                        self.domain, self.version)

    def to_obj(self) -> dict:
        return {
            "program_hash": self.program_hash,
            "query": list(self.query),
            "input_types_key": self.input_types_key,
            "config_hash": self.config_hash,
            "domain": self.domain,
            "version": self.version,
        }

    @classmethod
    def from_obj(cls, data: dict) -> "CacheKey":
        return cls(
            program_hash=data["program_hash"],
            query=(data["query"][0], int(data["query"][1])),
            input_types_key=data.get("input_types_key"),
            config_hash=data["config_hash"],
            domain=data["domain"],
            version=int(data.get("version", FORMAT_VERSION)),
        )


def make_key(source: Union[str, Program], query: PredId,
             input_types: Optional[Sequence[Union[str, Grammar]]] = None,
             config: Optional[AnalysisConfig] = None,
             baseline: bool = False) -> CacheKey:
    """Cache key for one :func:`repro.analyze` workload.

    Grammar-valued input types enter the key by their (memoized)
    content hash rather than a full re-encoding — interned grammars
    shared across many jobs are hashed once per process."""
    return CacheKey(
        program_hash=program_hash(source),
        query=(query[0], int(query[1])),
        input_types_key=(None if input_types is None
                         else canonical_json([
                             spec if isinstance(spec, str)
                             else ["g", grammar_content_hash(spec)]
                             for spec in input_types])),
        config_hash=config_hash(config),
        domain="trivial" if baseline else "type",
    )


class CacheEntry(NamedTuple):
    """One memory-tier entry: the payload as canonical JSON bytes and
    its table fingerprint, both computed once when the entry is
    stored."""

    key: CacheKey
    payload: bytes
    fingerprint: str

    @classmethod
    def encode(cls, key: CacheKey, payload: dict) -> "CacheEntry":
        """Fingerprint ``payload`` and encode it with the C encoder.
        Raises ``ValueError`` when the payload is not an encoded
        analysis result: what cannot be fingerprinted is never
        stored."""
        try:
            fingerprint = payload_fingerprint(payload)
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as error:
            raise ValueError("payload is not an encoded analysis result "
                             "(%s: %s)" % (type(error).__name__, error)
                             ) from None
        return cls(key, canonical_json(payload).encode("utf-8"),
                   fingerprint)

    def decode(self) -> dict:
        """The payload as a fresh dict (callers may mutate it)."""
        return json.loads(self.payload)


@dataclass
class CacheStats:
    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    seeds: int = 0
    evictions: int = 0
    invalidations: int = 0


class ResultCache:
    """LRU-over-disk store for serialized analysis results.

    ``fsync=True`` (or ``REPRO_CACHE_FSYNC=1``) additionally fsyncs
    each record file before the atomic rename and the program
    directory after it, so a committed record survives a machine
    crash, not just a process crash.  Off by default: the atomic
    rename already guarantees readers never see a torn record, and
    the cache is a cache — a lost record is a recomputation, not
    corruption.
    """

    def __init__(self, cache_dir: Optional[Union[str, os.PathLike]] = None,
                 max_memory_entries: int = 256,
                 fsync: Optional[bool] = None) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.max_memory_entries = max_memory_entries
        self.fsync = (os.environ.get("REPRO_CACHE_FSYNC") == "1"
                      if fsync is None else bool(fsync))
        self._memory: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()
        #: guards the memory layer and the stats counters; disk I/O
        #: happens outside it (atomic-rename protocol, see module doc).
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------------

    def _objects_dir(self) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, "objects")

    def _program_dir(self, prog_hash: str) -> str:
        return os.path.join(self._objects_dir(), prog_hash)

    def _entry_path(self, key: CacheKey) -> str:
        return os.path.join(self._program_dir(key.program_hash),
                            key.digest + ".json")

    # -- core get/put --------------------------------------------------------

    def get_memory(self, key: CacheKey) -> Optional[CacheEntry]:
        """Probe the in-memory layer only — a cheap, non-blocking
        lookup the server's event loop can afford to run inline.  A
        hit counts toward the stats; a miss counts nothing (the caller
        is expected to fall through to :meth:`get_entry`, which does
        the full accounting)."""
        digest = key.digest
        with self._lock:
            entry = self._memory.get(digest)
            if entry is None:
                return None
            self._memory.move_to_end(digest)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return entry

    def get_entry(self, key: CacheKey) -> Optional[CacheEntry]:
        """The stored entry, or None.  A disk hit is encoded and
        fingerprinted once and promoted into the memory layer."""
        entry = self.get_memory(key)
        if entry is not None:
            return entry
        if self.cache_dir is not None:
            entry = self._read_disk(key)
            if entry is not None:
                with self._lock:
                    self._remember(entry)
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                return entry
        with self._lock:
            self.stats.misses += 1
        return None

    def get(self, key: CacheKey) -> Optional[dict]:
        """The stored payload decoded into a fresh dict, or None."""
        entry = self.get_entry(key)
        return None if entry is None else entry.decode()

    def put(self, key: CacheKey, payload: dict) -> CacheEntry:
        """Store a payload under ``key`` in both layers and return its
        entry.  Disk writes are atomic (tempfile + rename), so a
        crashed writer never leaves a half-written object behind and a
        concurrent reader never observes a torn record.  Raises
        ``ValueError`` for a payload that cannot be fingerprinted."""
        entry = CacheEntry.encode(key, payload)
        with self._lock:
            self._remember(entry)
            self.stats.puts += 1
        if self.cache_dir is not None:
            self._write_disk(entry)
        return entry

    def seed(self, key: CacheKey, payload: dict) -> CacheEntry:
        """Store a payload in the *memory* layer only — the replication
        primitive.  A replica seeded with another shard's result serves
        it as a memory hit after failover; the disk layer is left to
        the home shard (the store is shared, a second write would be
        redundant I/O for the same bytes).  Raises ``ValueError`` for
        a payload that cannot be fingerprinted, storing nothing."""
        entry = CacheEntry.encode(key, payload)
        with self._lock:
            self._remember(entry)
            self.stats.seeds += 1
        return entry

    def memory_digests(self) -> List[Tuple[str, str]]:
        """``(digest, program_hash)`` for every memory-tier entry —
        the cheap inventory behind the server's ``digest`` op, which
        the router's anti-entropy pass compares across replicas.  A
        lock and a list copy; never touches disk."""
        with self._lock:
            return [(digest, entry.key.program_hash)
                    for digest, entry in self._memory.items()]

    def get_by_digest(self, digest: str) -> Optional[Tuple[CacheKey, dict]]:
        """Memory-tier lookup by key digest (no :class:`CacheKey` in
        hand) — the fetch half of anti-entropy repair.  Does not count
        as a hit or bump LRU recency: repair reads are bookkeeping,
        not traffic.  The payload comes back decoded."""
        with self._lock:
            entry = self._memory.get(digest)
        return None if entry is None else (entry.key, entry.decode())

    def _read_disk(self, key: CacheKey) -> Optional[CacheEntry]:
        try:
            with open(self._entry_path(key), "r",
                      encoding="utf-8") as handle:
                record = json.load(handle)
            return CacheEntry.encode(key, record["payload"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # unreadable/truncated/foreign record: a miss

    def _write_disk(self, entry: CacheEntry) -> None:
        # The record is spliced around the stored bytes, not re-encoded.
        key = entry.key
        record = b"".join((b'{"key": ', json.dumps(key.to_obj()).encode(),
                           b', "payload": ', entry.payload, b"}"))
        directory = self._program_dir(key.program_hash)
        # Two rounds: a concurrent invalidate_program/clear may remove
        # the program directory between makedirs and the rename.
        for attempt in (0, 1):
            os.makedirs(directory, exist_ok=True)
            tmp_path = None
            try:
                fd, tmp_path = tempfile.mkstemp(dir=directory,
                                                suffix=".tmp")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(record)
                    if self.fsync:
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(tmp_path, self._entry_path(key))
                if self.fsync:
                    self._fsync_dir(directory)
                return
            except FileNotFoundError:
                # directory vanished underneath us; retry once
                if tmp_path is not None:
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
                if attempt:
                    raise
            except BaseException:
                if tmp_path is not None:
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
                raise

    @staticmethod
    def _fsync_dir(directory: str) -> None:
        """Durably commit a rename by fsyncing its directory (best
        effort — not every platform allows opening a directory)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _remember(self, entry: CacheEntry) -> None:
        digest = entry.key.digest
        self._memory[digest] = entry
        self._memory.move_to_end(digest)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # -- program-level index -------------------------------------------------

    def keys_for_program(self, prog_hash: str) -> List[CacheKey]:
        """All stored keys for one program version (both layers)."""
        keys: Dict[str, CacheKey] = {}
        with self._lock:
            memory_items = list(self._memory.items())
        for digest, entry in memory_items:
            if entry.key.program_hash == prog_hash:
                keys[digest] = entry.key
        for key, _ in self._iter_disk(prog_hash):
            keys.setdefault(key.digest, key)
        return list(keys.values())

    def _iter_disk(self, prog_hash: str) -> Iterator[Tuple[CacheKey, dict]]:
        if self.cache_dir is None:
            return
        directory = self._program_dir(prog_hash)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(directory, name), "r",
                          encoding="utf-8") as handle:
                    record = json.load(handle)
                yield CacheKey.from_obj(record["key"]), record["payload"]
            except (OSError, ValueError, KeyError):
                continue

    def entries_for_program(self,
                            prog_hash: str) -> List[Tuple[CacheKey, dict]]:
        """(key, payload) pairs stored for one program version, the
        payloads decoded."""
        seen: Dict[str, Tuple[CacheKey, dict]] = {}
        with self._lock:
            memory_items = list(self._memory.items())
        for digest, entry in memory_items:
            if entry.key.program_hash == prog_hash:
                seen[digest] = (entry.key, entry.decode())
        for key, payload in self._iter_disk(prog_hash):
            seen.setdefault(key.digest, (key, payload))
        return list(seen.values())

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry from both layers; True if anything existed."""
        with self._lock:
            existed = self._memory.pop(key.digest, None) is not None
        if self.cache_dir is not None:
            try:
                os.unlink(self._entry_path(key))
                existed = True
            except OSError:
                pass
        if existed:
            with self._lock:
                self.stats.invalidations += 1
        return existed

    def invalidate_program(self, prog_hash: str) -> int:
        """Drop every entry for one program version; returns a count."""
        dropped = 0
        for key in self.keys_for_program(prog_hash):
            if self.invalidate(key):
                dropped += 1
        return dropped

    def flush(self) -> int:
        """Write every in-memory entry through to disk (idempotent;
        entries already on disk are skipped).  This is what a draining
        server calls on shutdown so results computed while the store
        was busy — or before a ``cache_dir`` existed — survive the
        process; returns the number of records written."""
        if self.cache_dir is None:
            return 0
        with self._lock:
            entries = list(self._memory.values())
        written = 0
        for entry in entries:
            if not os.path.exists(self._entry_path(entry.key)):
                self._write_disk(entry)
                written += 1
        return written

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
        if self.cache_dir is None:
            return
        try:
            program_dirs = os.listdir(self._objects_dir())
        except OSError:
            return
        for prog_hash in program_dirs:
            directory = self._program_dir(prog_hash)
            try:
                for name in os.listdir(directory):
                    try:
                        os.unlink(os.path.join(directory, name))
                    except OSError:
                        pass
                os.rmdir(directory)
            except OSError:
                pass

    def __len__(self) -> int:
        """Number of distinct stored entries across both layers."""
        with self._lock:
            digests = set(self._memory)
        if self.cache_dir is not None:
            try:
                program_dirs = os.listdir(self._objects_dir())
            except OSError:
                program_dirs = []
            for prog_hash in program_dirs:
                try:
                    names = os.listdir(self._program_dir(prog_hash))
                except OSError:
                    continue
                digests.update(name[:-5] for name in names
                               if name.endswith(".json"))
        return len(digests)
