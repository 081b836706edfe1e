"""On-disk layout and LRU size-cap eviction for the shared plan cache.

The persistent plan cache (:mod:`repro.experiments.cache`) is written by
many processes at once — experiment pool workers, daemon pool workers,
CLI invocations.  Its recency record is the entry files themselves:

* Every entry lives at ``<root>/<key[:2]>/<key>.pkl``; :class:`CacheIndex`
  is the one owner of that layout.
* A store's ``os.replace`` lands a file with a fresh modification time,
  and a hit touches it with ``os.utime(path)`` (no times argument: the
  kernel stamps it, so no Python clock call lands on the serve path).
  Recency is therefore the entries' ``st_mtime_ns``, and no index file
  has to be kept in step with the entries or can grow on hits.
* Timestamps are tick-granular (one filesystem timestamp tick covers
  many back-to-back touches), so entries touched in the same tick are
  ordered by key — the order is still the same in every reader.

Eviction (:meth:`CacheIndex.prune`) takes an exclusive ``flock`` on a
sidecar lock file, scans the directory once, and unlinks least-recently
used entries until the total size fits the cap.  Concurrent readers
treat a vanished entry file as an ordinary cache miss, and a touch that
loses the race with an unlink is ignored — so an in-flight
``load``/``store`` can race an eviction without corruption: the worst
case is one recomputation.  Callers may also pass ``keep`` keys
(entries they are actively using) which are never evicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO

try:  # POSIX-only; the repo targets Linux but degrades gracefully.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Lock file name (flock target) inside the cache directory.
LOCK_NAME = "index.lock"


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one :meth:`CacheIndex.prune` pass."""

    evicted_count: int
    evicted_bytes: int
    remaining_count: int
    remaining_bytes: int

    def to_payload(self) -> dict[str, int]:
        """The result as a JSON-safe dict (CLI / bench output)."""
        return {
            "evicted_count": self.evicted_count,
            "evicted_bytes": self.evicted_bytes,
            "remaining_count": self.remaining_count,
            "remaining_bytes": self.remaining_bytes,
        }


class _Flock:
    """Exclusive advisory lock on a file (no-op where flock is missing)."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._handle: IO[str] | None = None

    def __enter__(self) -> "_Flock":
        self._path.parent.mkdir(parents=True, exist_ok=True)
        handle = self._path.open("a")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        self._handle = handle
        return self

    def __exit__(self, *exc_info: object) -> None:
        handle = self._handle
        self._handle = None
        if handle is not None:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()


class CacheIndex:
    """Entry layout, directory scan and LRU eviction for one cache directory.

    All methods are safe to call from many processes concurrently; only
    :meth:`prune` takes the exclusive lock.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    @property
    def lock_path(self) -> Path:
        """Location of the flock sidecar file."""
        return self.root / LOCK_NAME

    def entry_path(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-character fan-out)."""
        return self.root / key[:2] / f"{key}.pkl"

    def entries(self) -> list[tuple[str, int, int]]:
        """``(key, size_bytes, mtime_ns)`` per entry file, least recent first.

        One scan of the directory; files that vanish mid-scan (a
        concurrent eviction or clear) are skipped.  Ties in ``mtime_ns``
        — touches within one timestamp tick — are broken by key.
        """
        found: list[tuple[str, int, int]] = []
        for path in self.root.glob("*/*.pkl"):
            try:
                info = path.stat()
            except OSError:
                continue
            found.append((path.stem, info.st_size, info.st_mtime_ns))
        found.sort(key=lambda entry: (entry[2], entry[0]))
        return found

    def prune(
        self, max_bytes: int, *, keep: frozenset[str] = frozenset()
    ) -> PruneResult:
        """Evict least-recently-used entries until the total fits the cap.

        Holds the exclusive index lock for the whole pass, so concurrent
        prunes serialize.  Keys in ``keep`` (in-flight entries the caller
        is actively reading or just wrote) are never evicted.
        """
        with _Flock(self.lock_path):
            entries = self.entries()
            total_bytes = sum(size for _, size, _ in entries)
            evicted_count = evicted_bytes = 0
            for key, size, _ in entries:  # oldest first
                if total_bytes - evicted_bytes <= max_bytes:
                    break
                if key in keep:
                    continue
                try:
                    self.entry_path(key).unlink()
                except OSError:
                    pass  # vanished under a concurrent clear
                evicted_count += 1
                evicted_bytes += size
            return PruneResult(
                evicted_count=evicted_count,
                evicted_bytes=evicted_bytes,
                remaining_count=len(entries) - evicted_count,
                remaining_bytes=total_bytes - evicted_bytes,
            )
