"""Persistent content-addressed cache for :mod:`repro.exec` job results.

Every sweep cell and certification trial in this project is
a pure function of its payload (the paper's fixed-service schedules are
*deterministic* by construction — that is the whole point), so a result
computed once is correct forever.  :class:`ResultStore` keeps the raw
wire dict a worker returned, keyed by the canonical SHA-256 of the job's
worker identity and payload (:mod:`repro.store.keys`), in a directory
tree shared across sessions::

    <root>/objects/<hh>/<sha256>.pkl

where ``<hh>`` is the first two hex digits (keeps directory fan-out flat
at any cache size).  Each file is a pickled envelope ::

    {"version": ENTRY_VERSION, "key": <sha256>, "fn": <module:qualname>,
     "value": <raw wire dict>}

written with the same mkstemp + ``os.replace`` discipline as
:mod:`repro.exec.checkpoint`, so a crash mid-write leaves either the old
entry or none — never a torn one.

Failure philosophy: the store is an accelerator, never a correctness
dependency.  A corrupt entry is warned about, evicted, and recomputed; a
version or key mismatch is a silent miss; an unpicklable result or an
unwritable object tree skips the write.  The only exception the store
ever raises is :class:`~repro.errors.StoreError`, at construction, when
the root itself is unusable.

Determinism contract: the store hands back the byte-identical raw wire
dict the worker produced (including shipped span records and metrics
registries), and :func:`repro.exec.run_jobs` consumes hits at the same
point in the same submission-order walk as computed results — so warm
runs, cold runs, and ``--workers N`` runs all emit byte-identical
checkpoints, artifacts, and metrics snapshots.  Store *activity*
(hit/miss/bypass tallies, lookup spans) stays in the store's own
registry and tracer, never in consumer artifacts, precisely so a warm
artifact cannot be distinguished from a cold one.

Timings taken against a warm store describe the machine that populated
it; the repository benchmark (``perfbench/README.md``, workloads
declared in ``BENCHMARK.json``) therefore runs with no store attached.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..errors import StoreError
from ..telemetry.log import get_logger
from ..telemetry.registry import MetricsRegistry
from ..telemetry.spans import SpanTracer
from .keys import UncacheableValue, content_key, fn_identity

_LOG = get_logger("store")

#: Environment variable overriding the default store root.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Default store root when neither an explicit path nor the environment
#: variable names one.
DEFAULT_STORE_DIR = os.path.join("~", ".cache", "repro-store")

#: On-disk envelope version.  An entry with any other version is treated
#: as a miss (and reaped by ``gc``/``verify``), never parsed further.
ENTRY_VERSION = 1

#: Pickle protocol for entry envelopes — pinned, like the checkpoint
#: format, so stores are portable across the Python versions CI spans.
_PICKLE_PROTOCOL = 4

#: Subdirectory of the root holding the content-addressed object tree.
_OBJECTS_DIR = "objects"


def resolve_store_root(root: Optional[str] = None) -> str:
    """Resolve the store root: explicit path > ``REPRO_STORE_DIR`` > default.

    Returns an absolute, user-expanded path.  Does not create anything —
    creation is deferred to the first write so read-only consumers never
    touch the filesystem.
    """
    if not root:
        root = os.environ.get(STORE_DIR_ENV) or DEFAULT_STORE_DIR
    return os.path.abspath(os.path.expanduser(root))


@dataclass(frozen=True)
class EntryInfo:
    """One on-disk store entry, as reported by :func:`iter_entries`.

    ``status`` is ``"ok"`` for a loadable current-version entry,
    ``"stale"`` for a loadable entry with a foreign version or a key
    that does not match its filename, and ``"corrupt"`` for a file that
    cannot be unpickled at all.  ``fn`` is the recorded worker identity
    (empty when unreadable).
    """

    path: str
    key: str
    size: int
    mtime: float
    status: str
    fn: str = ""


@dataclass(frozen=True)
class GcResult:
    """Summary of one :func:`gc` pass: entries removed/kept, bytes freed."""

    removed: int
    kept: int
    reclaimed_bytes: int


class ResultStore:
    """Content-addressed, cross-session cache of job results.

    Duck-typed to the ``store=`` hook of :func:`repro.exec.run_jobs`:
    :meth:`lookup` maps a :class:`~repro.exec.JobSpec` to its cached raw
    wire dict (or ``None``), and :meth:`record` writes a fresh result
    back.  Plain integer tallies (:attr:`hits`, :attr:`misses`,
    :attr:`bypasses`, :attr:`writes`, :attr:`corrupt`, :attr:`errors`)
    track activity; :meth:`metrics_registry` exports them through the
    telemetry layer and :attr:`tracer` records a ``store``-category span
    per lookup on a dedicated ``store`` track.
    """

    def __init__(self, root: Optional[str] = None,
                 tracer: Optional[SpanTracer] = None) -> None:
        self.root = resolve_store_root(root)
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            raise StoreError(
                f"store root {self.root!r} exists and is not a directory"
            )
        self.tracer = tracer if tracer is not None else SpanTracer(
            track="store"
        )
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.writes = 0
        self.corrupt = 0
        self.errors = 0

    # -- keying ---------------------------------------------------------

    def key_for(self, spec) -> Optional[str]:
        """The content key for a job spec, or ``None`` when uncacheable.

        ``None`` (a *bypass*) covers payloads with no canonical form —
        live telemetry sessions, arbitrary objects — and specs without a
        worker function.  Bypassed jobs simply run uncached.
        """
        fn = getattr(spec, "fn", None)
        if fn is None:
            return None
        try:
            return content_key(fn, getattr(spec, "payload", None))
        except UncacheableValue:
            return None

    def object_path(self, key: str) -> str:
        """Absolute path of the entry file for a content key."""
        return os.path.join(
            self.root, _OBJECTS_DIR, key[:2], f"{key}.pkl"
        )

    # -- the run_jobs hook ----------------------------------------------

    def lookup(self, spec) -> Optional[dict]:
        """Return the cached raw wire dict for ``spec``, or ``None``.

        A hit hands back exactly what the worker returned on the cold
        run (an ``{"ok": True, "value": ...}`` dict, spans and all).
        Corrupt entries are warned about, evicted, and reported as
        misses; stale-version entries are silent misses.
        """
        key = self.key_for(spec)
        if key is None:
            self.bypasses += 1
            return None
        with self.tracer.span(
            "lookup", "store",
            args={"job": str(getattr(spec, "key", ""))},
        ):
            raw = self._load(key)
        if raw is None:
            self.misses += 1
        else:
            self.hits += 1
        return raw

    def record(self, spec, raw) -> bool:
        """Write a freshly computed raw result back; returns True if stored.

        Only successful results (``raw["ok"]`` truthy) are cached —
        failures may be environmental (budget, fault isolation) and must
        re-run.  Every filesystem or pickling problem degrades to "not
        stored" with a warning; the run itself is never failed.
        """
        if not isinstance(raw, dict) or not raw.get("ok"):
            return False
        key = self.key_for(spec)
        if key is None:
            return False
        path = self.object_path(key)
        if os.path.exists(path):
            return False
        envelope = {
            "version": ENTRY_VERSION,
            "key": key,
            "fn": fn_identity(spec.fn),
            "value": raw,
        }
        try:
            blob = pickle.dumps(envelope, protocol=_PICKLE_PROTOCOL)
        except Exception as exc:  # unpicklable live object in the value
            self.bypasses += 1
            _LOG.warning(
                "store: result not picklable, leaving uncached",
                extra={"job": str(getattr(spec, "key", "")),
                       "error": str(exc)},
            )
            return False
        try:
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".store-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.errors += 1
            _LOG.warning(
                "store: entry write failed, leaving uncached",
                extra={"path": path, "error": str(exc)},
            )
            return False
        self.writes += 1
        return True

    # -- internals ------------------------------------------------------

    def _load(self, key: str) -> Optional[dict]:
        """Load one entry by key; corrupt files are evicted, never raised."""
        path = self.object_path(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            # Truncated write survived a crash, disk corruption, or a
            # foreign pickle: warn, evict, recompute.
            self.corrupt += 1
            _LOG.warning(
                "store: corrupt entry evicted, recomputing",
                extra={"path": path, "error": str(exc)},
            )
            self._evict(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != ENTRY_VERSION
            or envelope.get("key") != key
        ):
            # A foreign schema carries no information this build can
            # misinterpret — silent miss, reaped later by gc/verify.
            return None
        raw = envelope.get("value")
        if not isinstance(raw, dict) or not raw.get("ok"):
            self.corrupt += 1
            _LOG.warning(
                "store: malformed entry payload evicted",
                extra={"path": path},
            )
            self._evict(path)
            return None
        return raw

    @staticmethod
    def _evict(path: str) -> None:
        """Best-effort removal of a bad entry file."""
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- observability ---------------------------------------------------

    def metrics_registry(self) -> MetricsRegistry:
        """Export the activity tallies as a telemetry registry.

        All store metrics are *volatile* — they describe cache state,
        which legitimately differs between byte-identical runs — so they
        appear in ``.prom``/JSON exports but never in determinism
        snapshots, and they are kept out of consumer artifacts entirely.
        """
        registry = MetricsRegistry()
        lookups = registry.counter(
            "store_lookups_total",
            "result-store lookups by outcome", ("outcome",),
            volatile=True,
        )
        lookups.inc(self.hits, outcome="hit")
        lookups.inc(self.misses, outcome="miss")
        lookups.inc(self.bypasses, outcome="bypass")
        registry.counter(
            "store_writes_total", "entries written back",
            volatile=True,
        ).inc(self.writes)
        registry.counter(
            "store_corrupt_entries_total",
            "corrupt entries evicted on lookup", volatile=True,
        ).inc(self.corrupt)
        registry.counter(
            "store_write_errors_total",
            "write-backs abandoned on filesystem errors", volatile=True,
        ).inc(self.errors)
        return registry

    def summary(self) -> str:
        """One human line of this store's session activity."""
        return (
            f"store {self.root}: {self.hits} hit(s), "
            f"{self.misses} miss(es), {self.bypasses} bypass(es), "
            f"{self.writes} write(s), {self.corrupt} corrupt"
        )


# -- maintenance (CLI surface) -----------------------------------------


def iter_entries(root: Optional[str] = None) -> Iterator[EntryInfo]:
    """Walk a store's object tree, yielding one :class:`EntryInfo` each.

    Classifies every ``*.pkl`` file (see :class:`EntryInfo` for the
    status taxonomy) without ever raising on bad content.  Yields in
    sorted path order so listings are stable.
    """
    resolved = resolve_store_root(root)
    objects = os.path.join(resolved, _OBJECTS_DIR)
    if not os.path.isdir(objects):
        return
    paths: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(objects):
        for name in filenames:
            if name.endswith(".pkl"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        key = os.path.basename(path)[:-len(".pkl")]
        try:
            stat = os.stat(path)
        except OSError:
            continue
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except Exception:
            yield EntryInfo(path, key, stat.st_size, stat.st_mtime,
                            "corrupt")
            continue
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != ENTRY_VERSION
            or envelope.get("key") != key
            or not isinstance(envelope.get("value"), dict)
        ):
            yield EntryInfo(path, key, stat.st_size, stat.st_mtime,
                            "stale", str(envelope.get("fn", ""))
                            if isinstance(envelope, dict) else "")
            continue
        yield EntryInfo(path, key, stat.st_size, stat.st_mtime, "ok",
                        str(envelope.get("fn", "")))


def gc(root: Optional[str] = None, older_than_s: Optional[float] = None,
       everything: bool = False) -> GcResult:
    """Reap store entries; returns a :class:`GcResult` summary.

    Always removes corrupt and stale-version entries.  With
    ``older_than_s`` also removes healthy entries not touched within
    that many seconds; with ``everything=True`` removes all entries.
    Empty fan-out directories are pruned afterwards.
    """
    resolved = resolve_store_root(root)
    removed = kept = reclaimed = 0
    now = time.time()
    for entry in iter_entries(resolved):
        doomed = (
            everything
            or entry.status != "ok"
            or (older_than_s is not None
                and now - entry.mtime > older_than_s)
        )
        if doomed:
            try:
                os.unlink(entry.path)
                removed += 1
                reclaimed += entry.size
            except OSError:
                kept += 1
        else:
            kept += 1
    objects = os.path.join(resolved, _OBJECTS_DIR)
    if os.path.isdir(objects):
        for name in sorted(os.listdir(objects)):
            bucket = os.path.join(objects, name)
            try:
                os.rmdir(bucket)
            except OSError:
                pass  # non-empty or racing — both fine
    return GcResult(removed=removed, kept=kept, reclaimed_bytes=reclaimed)


def verify(root: Optional[str] = None) -> List[EntryInfo]:
    """Return every non-``ok`` entry in a store (empty list ⇒ healthy).

    A read-only audit: nothing is evicted.  The CLI exits non-zero when
    this returns anything, making it a usable CI gate.
    """
    return [
        entry for entry in iter_entries(root) if entry.status != "ok"
    ]


__all__ = [
    "DEFAULT_STORE_DIR",
    "ENTRY_VERSION",
    "EntryInfo",
    "GcResult",
    "ResultStore",
    "STORE_DIR_ENV",
    "gc",
    "iter_entries",
    "resolve_store_root",
    "verify",
]
