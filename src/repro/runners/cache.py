"""On-disk memoization of completed sweep tasks.

One cache entry per task, stored as a pickle file named by the task's
content hash (see :meth:`repro.runners.runner.SimTask.cache_key`): any
change to the task's function, parameters or seed changes the file name,
so stale entries are never *returned* — they are simply orphaned and can
be cleared wholesale.  Writes go through a temp file + ``os.replace`` so
concurrent workers or an interrupted run never leave a torn entry behind.

Corrupt or truncated entries (a crash mid-``write``, a filesystem hiccup,
an unpicklable payload from an incompatible interpreter) are **quarantined
and recomputed** rather than aborting the sweep: the damaged file is moved
aside to ``<key>.pkl.quarantined`` for post-mortem inspection, a warning
is logged, and the lookup reports a miss so the runner re-executes the
cell and overwrites the entry with a fresh result.
"""

from __future__ import annotations

import logging
import os
import pickle
from pathlib import Path
from typing import Any, Iterator

logger = logging.getLogger(__name__)

_SUFFIX = ".pkl"
_QUARANTINE_SUFFIX = ".pkl.quarantined"

#: Sentinel distinguishing "cached None" from "not cached".
_MISS = object()


class ResultCache:
    """A directory of pickled task results keyed by content hash.

    Args:
        root: cache directory; created (with parents) if missing.

    Attributes:
        quarantined: corrupt entries moved aside (and treated as misses)
            over this instance's lifetime.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def quarantine_path_for(self, key: str) -> Path:
        """Where a corrupt entry for `key` is moved for inspection."""
        return self.root / f"{key}{_QUARANTINE_SUFFIX}"

    def __contains__(self, key: str) -> bool:
        return self._load(key) is not _MISS

    def lookup(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)`` — one disk read, None-safe."""
        value = self._load(key)
        if value is _MISS:
            return False, None
        return True, value

    def _load(self, key: str) -> Any:
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return _MISS
        except Exception as error:
            # Truncated write, bit rot, or an unpicklable payload: the
            # entry is damaged.  Quarantine it (keeping the bytes for
            # post-mortem) and report a miss so the cell is recomputed.
            self._quarantine(key, error)
            return _MISS

    def _quarantine(self, key: str, error: Exception) -> None:
        path = self.path_for(key)
        destination = self.quarantine_path_for(key)
        try:
            os.replace(path, destination)
            moved = f"moved to {destination.name}"
        except OSError:
            path.unlink(missing_ok=True)
            moved = "deleted"
        self.quarantined += 1
        logger.warning(
            "corrupt cache entry %s (%s: %s); %s and the cell will be "
            "recomputed",
            path,
            type(error).__name__,
            error,
            moved,
        )

    def put(self, key: str, value: Any) -> None:
        """Store `value` under `key` atomically."""
        path = self.path_for(key)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry (quarantined ones included), returning the
        number of live entries removed."""
        removed = 0
        for path in self.root.glob(f"*{_QUARANTINE_SUFFIX}"):
            path.unlink(missing_ok=True)
        for path in self.root.glob(f"*{_SUFFIX}"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self.root)!r})"
