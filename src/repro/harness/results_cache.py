"""Content-addressed on-disk cache of simulation results.

A sweep cell is identified by everything that can change its outcome:
the workload name and scale, the compile-option and machine-config
fingerprints, the timing-model name, the functional-execution
instruction budget, and a digest of the ``src/repro`` source tree (so
any change to the simulators, compiler or workload generators
invalidates every cached cell).  The key is the SHA-256 of a canonical
rendering of that tuple; the value is the pickled
:class:`~repro.pipeline.stats.SimStats`, which round-trips bit-identical
to a fresh simulation because every simulator is deterministic.

Layout on disk (sharded by the first two hex digits to keep directories
small on very large sweeps)::

    <root>/ab/abcdef....pkl

Corrupt or unreadable entries are treated as misses and removed, so a
killed writer can never poison later sweeps; writes go through a
temporary file and ``os.replace`` so concurrent readers only ever see
complete entries.  The same discipline (plus an advisory ``flock``)
protects the lifetime-counter sidecar ``_stats.json``, so concurrent
``repro sweep`` processes can share one cache directory without
corrupting it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Bump to invalidate every existing cache entry on a format change.
CACHE_FORMAT_VERSION = 1

#: Environment variable that supplies a default cache directory.
CACHE_ENV_VAR = "REPRO_RESULTS_CACHE"

def human_bytes(size: Union[int, float]) -> str:
    """``1536`` -> ``"1.5 KiB"`` (plain ``"n B"`` below one KiB)."""
    value = float(size)
    unit = "B"
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            break
        value /= 1024.0
    if unit == "B":
        return f"{int(value)} B"
    return f"{value:.1f} {unit}"


def canonical(value: object) -> str:
    """A deterministic, hash()-free rendering of a configuration value.

    Supports the closed world of types that appear in
    :class:`~repro.compiler.passes.CompileOptions` and
    :class:`~repro.machine.MachineConfig`: dataclasses (recursively, by
    sorted field name), mappings, sequences, enums and primitives.
    Anything else is rejected so an unhashable new field type becomes a
    loud error instead of a silently unstable cache key.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = sorted(f.name for f in dataclasses.fields(value))
        inner = ",".join(
            f"{name}={canonical(getattr(value, name))}" for name in fields)
        return f"{type(value).__qualname__}({inner})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, dict):
        items = sorted(
            (canonical(k), canonical(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, frozenset) or isinstance(value, set):
        return "{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return repr(value)
    raise TypeError(
        f"cannot build a stable cache fingerprint for {type(value)!r}")


def fingerprint(value: object) -> str:
    """SHA-256 of the canonical rendering of ``value``."""
    return hashlib.sha256(canonical(value).encode()).hexdigest()


@lru_cache(maxsize=1)
def source_digest() -> str:
    """Digest of every ``.py`` file under ``src/repro``.

    Memoized per process: the tree cannot change under a running sweep
    in any scenario the cache is expected to survive.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cell_key(workload: str, model: str, scale: float,
             compile_options: object, config: object,
             max_instructions: int,
             tree_digest: Optional[str] = None) -> str:
    """Content-addressed key for one (workload, model, config) cell."""
    parts = "|".join([
        f"v{CACHE_FORMAT_VERSION}",
        tree_digest if tree_digest is not None else source_digest(),
        repr(workload),
        repr(model),
        repr(float(scale)),
        repr(int(max_instructions)),
        fingerprint(compile_options),
        fingerprint(config),
    ])
    return hashlib.sha256(parts.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultsCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def summary(self) -> str:
        return (f"{self.hits} hit(s), {self.misses} miss(es), "
                f"{self.stores} store(s), {self.errors} error(s)")

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors}


class ResultsCache:
    """Sharded on-disk store mapping cell keys to pickled stats."""

    #: Lifetime hit/miss counters persisted in the cache root, so
    #: ``repro cache stats`` can report the hit rate across sessions
    #: (per-instance :class:`CacheStats` dies with the process).
    _STATS_FILE = "_stats.json"
    #: Sidecar lock serializing read-modify-write of the stats file.
    _LOCK_FILE = "_stats.lock"
    _LIFETIME_KEYS = ("hits", "misses", "stores", "errors")

    def __init__(self, root: Union[str, Path],
                 tree_digest: Optional[str] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.tree_digest = (tree_digest if tree_digest is not None
                            else source_digest())
        self.stats = CacheStats()

    def _lifetime(self) -> dict:
        """Persisted counters; corrupt/foreign contents reset to zero."""
        try:
            with open(self.root / self._STATS_FILE) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
        if not isinstance(data, dict):
            data = {}
        counters = {}
        for key in self._LIFETIME_KEYS:
            try:
                counters[key] = int(data.get(key, 0))
            except (TypeError, ValueError):
                counters[key] = 0
        return counters

    def _lock_stats(self):
        """Advisory exclusive lock on the stats sidecar (best effort).

        ``flock`` serializes per open file description, so it excludes
        concurrent *threads* of one process as well as other processes,
        such as two CLI sweeps sharing this cache directory.  Platforms
        without ``fcntl`` fall back to unlocked read-modify-write — the
        counters degrade to approximate there, never the entries
        themselves (those are atomic-rename protected).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return None
        try:
            fd = os.open(self.root / self._LOCK_FILE,
                         os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - exotic filesystems
            os.close(fd)
            return None
        return fd

    @staticmethod
    def _unlock_stats(fd) -> None:
        if fd is None:  # pragma: no cover - non-POSIX platforms
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _bump_lifetime(self, **deltas: int) -> None:
        """Fold counter deltas into the persistent stats file.

        Safe under concurrent writers: the read-modify-write runs under
        an exclusive ``flock`` and the rewrite goes through the same
        tmp-file + ``os.replace`` discipline as cache entries, so
        readers never observe a partial file and parallel bumps are not
        lost.  A corrupt or partial stats file resets to zero counters
        (via :meth:`_lifetime`) instead of crashing.
        """
        lock = self._lock_stats()
        try:
            data = self._lifetime()
            for key, delta in deltas.items():
                data[key] = data.get(key, 0) + delta
            path = self.root / self._STATS_FILE
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(data, handle)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        finally:
            self._unlock_stats(lock)

    def key_for(self, workload: str, model: str, scale: float,
                compile_options: object, config: object,
                max_instructions: int) -> str:
        return cell_key(workload, model, scale, compile_options, config,
                        max_instructions, tree_digest=self.tree_digest)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """The cached stats for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                stats = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            self._bump_lifetime(misses=1)
            return None
        except Exception:
            # Truncated/corrupt entry (e.g. a writer killed mid-dump
            # before the format grew atomic writes): drop it and miss.
            self.stats.misses += 1
            self.stats.errors += 1
            self._bump_lifetime(misses=1, errors=1)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        self._bump_lifetime(hits=1)
        return stats

    def put(self, key: str, stats: object) -> None:
        """Atomically persist ``stats`` under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(stats, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self._bump_lifetime(stores=1)

    def entries(self) -> Iterator[Path]:
        yield from sorted(self.root.glob("??/*.pkl"))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        for shard in self.root.glob("??"):
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed

    def describe_dict(self) -> dict:
        """Machine-readable cache report (``repro cache stats --json``)."""
        count = 0
        size = 0
        for path in self.entries():
            count += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        life = self._lifetime()
        lookups = life["hits"] + life["misses"]
        return {
            "root": str(self.root),
            "entries": count,
            "size_bytes": size,
            "size_human": human_bytes(size),
            "source_digest": self.tree_digest,
            "lifetime": life,
            "lifetime_hit_rate": (life["hits"] / lookups
                                  if lookups else None),
            "session": self.stats.to_dict(),
        }

    def describe(self) -> str:
        doc = self.describe_dict()
        life = doc["lifetime"]
        lookups = life["hits"] + life["misses"]
        rate = (f"{life['hits'] / lookups:.1%}" if lookups else "n/a")
        return "\n".join([
            f"results cache at {self.root}",
            f"  entries:       {doc['entries']}",
            f"  size:          {doc['size_human']} "
            f"({doc['size_bytes']} bytes)",
            f"  source digest: {self.tree_digest[:16]}…",
            f"  lifetime:      {life['hits']} hit(s) / {lookups} "
            f"lookup(s) — {rate} hit rate, {life['stores']} store(s), "
            f"{life['errors']} error(s)",
            f"  this session:  {self.stats.summary()}",
        ])


def resolve_results_cache(value: Union[None, str, Path, ResultsCache]
                          ) -> Optional[ResultsCache]:
    """Normalize a cache argument; ``None`` falls back to $REPRO_RESULTS_CACHE.

    Returns ``None`` when caching is disabled (no argument and no
    environment default), so callers can use plain truthiness.
    """
    if isinstance(value, ResultsCache):
        return value
    if value is None:
        value = os.environ.get(CACHE_ENV_VAR) or None
        if value is None:
            return None
    return ResultsCache(value)


__all__: Tuple[str, ...] = (
    "CACHE_ENV_VAR", "CACHE_FORMAT_VERSION", "CacheStats", "ResultsCache",
    "canonical", "cell_key", "fingerprint", "human_bytes",
    "resolve_results_cache", "source_digest",
)
