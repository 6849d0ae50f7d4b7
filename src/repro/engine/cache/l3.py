"""L3 of the tiered subtree artifact store: disk-backed persistence.

:class:`DiskArtifactStore` persists tiered artifact kinds between
processes and runs so CI reruns, sensitivity sweeps, and ``repro
serve`` restarts warm-start instead of recomputing every subtree from
scratch.

Layout under the cache dir::

    <root>/v1/<sha256(namespace)[:20]>/
        meta.json        # {"schema": 1, "namespace": "<full ns string>"}
        walkvol.pkl      # {"schema": 1, "namespace": ..., "kind": ...,
        num_pe.pkl       #  "entries": {key: value, ...}}
        ...

Invalidation is structural, not temporal: the namespace string embeds
the workload digest, architecture identity, and model flags
(:func:`~repro.analysis.fingerprint.cache_namespace`), and keys within
a shard are subtree fingerprints — change any of them and probes simply
address a different shard/key; stale shards linger harmlessly until
``repro cache purge``.  The shard payload additionally records its full
namespace and schema, and :meth:`load` cross-checks both (hash-prefix
collisions and format drift read as a cold cache, never as wrong data).

Writes are atomic (tmp file + :func:`os.replace`) and merge-then-replace
under an advisory :func:`fcntl.flock` on a per-shard-dir lock file, so
concurrent flushes from several processes union rather than clobber.
Values round-trip through pickle byte-identically (exact ints, strings,
float tuples — see ``TIERED_KINDS``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import threading
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional

try:  # pragma: no cover - import guard exercised only off-linux
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = ["L3_SCHEMA", "DiskArtifactStore"]

L3_SCHEMA = 1


def _ns_dir_name(namespace: str) -> str:
    return hashlib.sha256(namespace.encode("utf-8")).hexdigest()[:20]


class DiskArtifactStore:
    """Schema-versioned on-disk shards of tiered subtree artifacts."""

    def __init__(self, root: str):
        #: Versioned root; a schema bump starts cold instead of
        #: misreading old shards.
        self.root = Path(root) / f"v{L3_SCHEMA}"
        self.loads = 0
        self.load_entries = 0
        self.flushes = 0
        self.invalid = 0
        self._lock = threading.Lock()

    def _shard_dir(self, namespace: str) -> Path:
        return self.root / _ns_dir_name(namespace)

    def _flocked(self, shard_dir: Path):
        return _DirLock(shard_dir / ".lock")

    # -- read side -------------------------------------------------------

    def load(self, namespace: str, kind: str) -> Dict[Hashable, Any]:
        """The persisted entries of one namespace/kind shard ({} if cold).

        Schema or namespace mismatches (format drift, hash-prefix
        collision) and unreadable files all read as an empty shard.
        """
        path = self._shard_dir(namespace) / f"{kind}.pkl"
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return {}
        if (not isinstance(payload, dict)
                or payload.get("schema") != L3_SCHEMA
                or payload.get("namespace") != namespace
                or payload.get("kind") != kind
                or not isinstance(payload.get("entries"), dict)):
            with self._lock:
                self.invalid += 1
            return {}
        entries = payload["entries"]
        with self._lock:
            self.loads += 1
            self.load_entries += len(entries)
        return entries

    # -- write side ------------------------------------------------------

    def flush(self, namespace: str, kind: str,
              entries: Dict[Hashable, Any]) -> int:
        """Merge ``entries`` into the shard on disk; returns entry count.

        Concurrent flushers serialise on the shard lock file, re-read
        the shard under the lock, union, and atomically replace — a
        flush never loses another process's entries.
        """
        if not entries:
            return 0
        shard_dir = self._shard_dir(namespace)
        shard_dir.mkdir(parents=True, exist_ok=True)
        meta = shard_dir / "meta.json"
        with self._flocked(shard_dir):
            if not meta.exists():
                tmp = meta.with_suffix(".json.tmp")
                tmp.write_text(json.dumps(
                    {"schema": L3_SCHEMA, "namespace": namespace},
                    indent=1, sort_keys=True) + "\n")
                os.replace(tmp, meta)
            merged = dict(self.load(namespace, kind))
            merged.update(entries)
            payload = {"schema": L3_SCHEMA, "namespace": namespace,
                       "kind": kind, "entries": merged}
            path = shard_dir / f"{kind}.pkl"
            tmp_path = shard_dir / f".{kind}.pkl.tmp"
            with open(tmp_path, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        with self._lock:
            self.flushes += 1
        return len(merged)

    # -- inventory / maintenance ----------------------------------------

    def _shards(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir()
                      if p.is_dir() and (p / "meta.json").exists())

    def stats(self) -> Dict[str, Any]:
        """On-disk inventory: per-namespace kinds, entries, bytes."""
        namespaces = []
        total_entries = 0
        total_bytes = 0
        for shard_dir in self._shards():
            try:
                meta = json.loads((shard_dir / "meta.json").read_text())
                ns = meta.get("namespace", "?")
            except (OSError, ValueError):
                ns = "?"
            kinds: Dict[str, Dict[str, int]] = {}
            shard_bytes = 0
            for pkl in sorted(shard_dir.glob("*.pkl")):
                size = pkl.stat().st_size
                shard_bytes += size
                entries = len(self.load(ns, pkl.stem)) if ns != "?" else 0
                kinds[pkl.stem] = {"entries": entries, "bytes": size}
                total_entries += entries
            total_bytes += shard_bytes
            namespaces.append({"namespace": ns, "dir": shard_dir.name,
                               "kinds": kinds, "bytes": shard_bytes})
        return {"root": str(self.root), "schema": L3_SCHEMA,
                "namespaces": namespaces,
                "total_entries": total_entries,
                "total_bytes": total_bytes}

    def purge(self, selector: Optional[str] = None) -> List[str]:
        """Remove shards whose namespace (or dir hash) starts with
        ``selector``; all shards when ``selector`` is None.  Returns the
        namespaces removed.  Only directories carrying a ``meta.json``
        marker are touched — the store never deletes files it did not
        write."""
        removed = []
        for shard_dir in self._shards():
            try:
                meta = json.loads((shard_dir / "meta.json").read_text())
                ns = meta.get("namespace", "")
            except (OSError, ValueError):
                ns = ""
            if (selector is None or ns.startswith(selector)
                    or shard_dir.name.startswith(selector)):
                shutil.rmtree(shard_dir, ignore_errors=True)
                removed.append(ns or shard_dir.name)
        return removed

    def purge_budget(self, max_age_s: Optional[float] = None,
                     max_bytes: Optional[int] = None) -> List[str]:
        """Budget-driven purge: drop stale shards, then trim to a size cap.

        Two independent budgets, either may be None:

        * ``max_age_s`` — remove every shard whose newest ``.pkl`` was
          last written more than this many seconds ago (age is
          per-shard mtime, so one warm kind keeps its namespace alive);
        * ``max_bytes`` — while the remaining shards' total ``.pkl``
          bytes exceed this cap, remove whole shards oldest-mtime-first
          (never partial shards: a namespace warm-starts completely or
          not at all).

        Returns the namespaces removed, oldest first.  Like
        :meth:`purge`, only ``meta.json``-marked directories are
        touched.
        """
        import time

        shards = []  # (mtime, bytes, dir, namespace)
        for shard_dir in self._shards():
            try:
                meta = json.loads((shard_dir / "meta.json").read_text())
                ns = meta.get("namespace", "") or shard_dir.name
            except (OSError, ValueError):
                ns = shard_dir.name
            mtime = 0.0
            size = 0
            for pkl in shard_dir.glob("*.pkl"):
                try:
                    stat = pkl.stat()
                except OSError:
                    continue
                mtime = max(mtime, stat.st_mtime)
                size += stat.st_size
            shards.append((mtime, size, shard_dir, ns))
        shards.sort(key=lambda item: item[0])

        removed: List[str] = []
        kept = []
        now = time.time()
        for mtime, size, shard_dir, ns in shards:
            if max_age_s is not None and now - mtime > max_age_s:
                shutil.rmtree(shard_dir, ignore_errors=True)
                removed.append(ns)
            else:
                kept.append((mtime, size, shard_dir, ns))
        if max_bytes is not None:
            total = sum(size for _m, size, _d, _n in kept)
            for mtime, size, shard_dir, ns in kept:
                if total <= max_bytes:
                    break
                shutil.rmtree(shard_dir, ignore_errors=True)
                removed.append(ns)
                total -= size
        return removed

    def clear(self) -> int:
        """Remove every shard; returns the number removed."""
        return len(self.purge(None))


class _DirLock:
    """``with``-scoped advisory lock on a shard-dir lock file."""

    def __init__(self, path: Path):
        self._path = path
        self._fd: Optional[int] = None

    def __enter__(self):
        if fcntl is not None:
            self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o600)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
            self._fd = None
        return False
