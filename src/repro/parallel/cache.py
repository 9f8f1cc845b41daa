"""Content-addressed result cache for campaign jobs.

A cached result is valid only while *nothing that could influence it*
changed, so the cache key folds together:

- the **source-tree digest** — SHA-256 over every ``*.py`` file under
  ``src/repro`` (path and content), so any code change invalidates
  every entry;
- the job ``kind`` and ``key``;
- the canonical JSON of the job **payload** — scenario config, seed,
  duration, every simulation input.

Entries live as one JSON document per key under ``~/.cache/repro`` (or
``$REPRO_CACHE_DIR``, or ``--cache-dir``).  The cache is strictly an
optimization: a hit returns the byte-identical ``stable`` result a
fresh run would produce, which ``repro chaos --check`` re-proves by
forcing its second campaign run fresh.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.parallel.jobs import Job, JobResult

PathLike = Union[str, Path]

#: Bump when the cache record layout changes (invalidates old entries).
CACHE_SCHEMA = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def tree_digest(root: PathLike) -> str:
    """SHA-256 over every ``*.py`` under ``root`` (relative path + bytes)."""
    root = Path(root)
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        hasher.update(path.relative_to(root).as_posix().encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


@functools.lru_cache(maxsize=4)
def _memoized_tree_digest(root: str) -> str:
    return tree_digest(root)


def source_tree_digest() -> str:
    """The digest of the installed ``repro`` package source (memoized)."""
    import repro

    return _memoized_tree_digest(str(Path(repro.__file__).parent))


class CacheStats:
    """Hit/miss accounting for one campaign run."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def as_dict(self) -> Dict[str, int]:
        """Exportable snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def summary(self) -> str:
        """One human-readable report line (``--cache-stats``)."""
        return f"cache: hits={self.hits} misses={self.misses} stores={self.stores}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CacheStats {self.summary()}>"


class ResultCache:
    """Content-addressed storage of :class:`JobResult` records."""

    def __init__(self, root: Optional[PathLike] = None,
                 source_digest: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: injectable for tests; defaults to the real package digest.
        self.source_digest = (
            source_digest if source_digest is not None else source_tree_digest()
        )
        self.stats = CacheStats()

    def key_for(self, job: Job) -> str:
        """The content address of ``job`` under the current source tree."""
        hasher = hashlib.sha256()
        for part in (
            f"schema={CACHE_SCHEMA}",
            f"tree={self.source_digest}",
            f"kind={job.kind}",
            f"key={job.key}",
            f"payload={job.payload_json()}",
        ):
            hasher.update(part.encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def path_for(self, job: Job) -> Path:
        """Where ``job``'s cached record lives."""
        return self.root / f"{self.key_for(job)}.json"

    def load(self, job: Job) -> Optional[JobResult]:
        """The cached result for ``job``, or ``None`` (counted either way)."""
        path = self.path_for(job)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return JobResult.from_record(record, cached=True)

    def store(self, job: Job, result: JobResult) -> Path:
        """Persist a fresh result."""
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        document: Dict[str, Any] = dict(result.record())
        document["schema"] = CACHE_SCHEMA
        path.write_text(json.dumps(document, sort_keys=True) + "\n")
        self.stats.stores += 1
        return path
