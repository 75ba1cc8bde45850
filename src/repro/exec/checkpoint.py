"""Schema-versioned atomic JSON checkpointing for long batches.

One checkpoint recipe shared by sweeps and certification batches:

* **atomic writes** — each save lands in a ``tempfile.mkstemp`` file in
  the target directory and is published with ``os.replace``, so a kill
  mid-dump can never corrupt the file: readers see the previous complete
  checkpoint or the new one, nothing in between;
* **schema versioning** — every file carries a ``version`` field (first
  key, stable insertion order); a file written by an *incompatible*
  schema is silently discarded and the batch starts fresh, because an
  old file holds nothing this build can misread;
* **keyed batches** — an optional ``batch_key`` stamps the experiment's
  identity (scheme, engine, epsilon, config, ...) into the file; a
  checkpoint from a *different* experiment is likewise discarded rather
  than resumed into wrong results;
* **corrupt is not incompatible** — a file that exists but cannot be
  *parsed* (truncated write outside this store, disk corruption,
  hand-editing) raises :class:`~repro.errors.ExecError` naming the
  path.  Hours of completed work may be behind that file; silently
  re-running everything is the one repair the substrate refuses to make
  on its own.  Pass ``fresh=True`` (the CLI's ``--fresh``) to discard
  it deliberately.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Mapping, Optional

from ..errors import ExecError


class CheckpointStore:
    """Load/save one consumer's checkpoint file under the substrate's
    atomicity, versioning, and corrupt-vs-incompatible rules.

    The store adds only the envelope (``version`` first, then the
    optional batch-key field); the consumer owns every other key, so
    adopting the store changes no checkpoint bytes.
    """

    def __init__(
        self,
        path: Optional[str],
        version: int,
        batch_key: Optional[str] = None,
        batch_key_field: str = "batch_key",
        fresh: bool = False,
        tmp_prefix: str = ".exec-ckpt-",
    ) -> None:
        #: Checkpoint file path; ``None`` disables persistence (both
        #: :meth:`load` and :meth:`save` become no-ops).
        self.path = path
        #: Consumer schema version; a file with any other value is
        #: silently discarded on load.
        self.version = version
        #: Experiment identity; a file keyed differently is discarded.
        self.batch_key = batch_key
        self.batch_key_field = batch_key_field
        #: When True, :meth:`load` ignores any existing file (the CLI's
        #: ``--fresh`` escape hatch for deliberately discarding a
        #: corrupt or stale checkpoint).
        self.fresh = fresh
        self.tmp_prefix = tmp_prefix

    def load(self) -> Optional[Dict[str, object]]:
        """The checkpointed dict, or ``None`` to start fresh.

        ``None`` covers: no path configured, no file yet, ``fresh``
        requested, version mismatch, and batch-key mismatch.  A file
        that cannot be parsed raises :class:`~repro.errors.ExecError`
        naming the path — never a silent fresh start.
        """
        if self.path is None or self.fresh:
            return None
        if not os.path.exists(self.path):
            return None
        try:
            with open(self.path) as handle:
                data = json.load(handle)
        except ValueError as exc:
            raise ExecError(
                f"checkpoint {self.path!r} exists but cannot be parsed "
                f"({exc}); it may be truncated or corrupt — inspect it, "
                f"or pass --fresh (fresh=True) to discard it and start "
                f"over"
            ) from exc
        except OSError as exc:
            raise ExecError(
                f"checkpoint {self.path!r} cannot be read: {exc}"
            ) from exc
        if not isinstance(data, dict):
            return None  # incompatible shape: start fresh
        if data.get("version") != self.version:
            return None  # incompatible schema: start fresh
        if self.batch_key is not None and (
            data.get(self.batch_key_field) != self.batch_key
        ):
            return None  # different experiment: start fresh
        return data

    def save(self, body: Mapping[str, object]) -> None:
        """Atomically write ``body`` under the version/batch-key
        envelope (a kill mid-dump never corrupts the file)."""
        if self.path is None:
            return
        data: Dict[str, object] = {"version": self.version}
        if self.batch_key is not None:
            data[self.batch_key_field] = self.batch_key
        data.update(body)
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=self.tmp_prefix
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(data, handle, indent=1)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:  # pragma: no cover - already replaced
                pass
            raise


__all__ = ["CheckpointStore"]
