"""Content-addressed result store for cross-session reuse.

Fixed-service schedules are deterministic functions of their inputs, so
every sweep cell and certification trial is a pure function
of its payload — computed once, correct forever.  This package caches
those results on disk across sessions:

* :mod:`repro.store.keys` — canonical SHA-256 keying of job specs
  (dataclass fields, configs, seeds, engine, schema-version salt);
* :mod:`repro.store.store` — :class:`ResultStore` (the duck-typed
  ``store=`` hook consumed by :func:`repro.exec.run_jobs`), atomic entry
  I/O, and the ``ls``/``gc``/``verify`` maintenance surface behind
  ``repro store``.

The store layers *beside* :mod:`repro.exec`, not inside it: the runner
only sees the two-method ``lookup``/``record`` protocol, so the
substrate keeps zero knowledge of persistence, and the layering DAG in
``DESIGN.md`` §4 stays acyclic.  See ``docs/store.md`` for the design
rationale and determinism contract.
"""

from .keys import (
    STORE_SCHEMA_VERSION,
    UncacheableValue,
    canonicalize,
    content_key,
    fn_identity,
)
from .store import (
    DEFAULT_STORE_DIR,
    ENTRY_VERSION,
    EntryInfo,
    GcResult,
    ResultStore,
    STORE_DIR_ENV,
    gc,
    iter_entries,
    resolve_store_root,
    verify,
)

__all__ = [
    "DEFAULT_STORE_DIR",
    "ENTRY_VERSION",
    "EntryInfo",
    "GcResult",
    "ResultStore",
    "STORE_DIR_ENV",
    "STORE_SCHEMA_VERSION",
    "UncacheableValue",
    "canonicalize",
    "content_key",
    "fn_identity",
    "gc",
    "iter_entries",
    "resolve_store_root",
    "verify",
]
