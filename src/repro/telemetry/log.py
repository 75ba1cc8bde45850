"""Structured JSON-lines logging with run-id correlation.

Every long-running surface (sweep grids, certification batches, CLI
status) logs through :func:`get_logger` instead of ad-hoc prints.
Records render as one JSON object per line on stderr::

    {"ts": "...", "level": "INFO", "logger": "repro.sweep",
     "run_id": "a1b2c3d4", "msg": "cell done", "scheme": "fs_rp", ...}

so a multiprocess sweep's interleaved output stays machine-parseable
and every line can be joined back to its invocation via ``run_id``.

Design notes:

* built on stdlib :mod:`logging` under the ``repro.`` namespace — the
  root ``repro`` logger gets one stderr handler and does not propagate,
  so embedding applications keep their own logging untouched;
* the run id is process-global (:func:`set_run_id` /
  :func:`get_run_id`), defaulting to a fresh ``uuid4`` prefix per
  process — wall-clock-adjacent and therefore *volatile*: it never
  flows into metrics snapshots, traces, or artifacts, only log lines;
* extra fields ride in ``logger.info("msg", extra={"scheme": ...})``
  and are emitted as top-level JSON keys (standard ``LogRecord``
  attributes are filtered out);
* logging is **off by default** (level ``WARNING``); the CLI's
  ``--log-level`` flag calls :func:`configure`.
"""

from __future__ import annotations

import json
import logging
import sys
import time
import uuid
from contextlib import contextmanager
from typing import Optional

_run_id: Optional[str] = None

#: ``LogRecord.__dict__`` keys that are plumbing, not user payload.
_RESERVED = frozenset((
    "args", "asctime", "created", "exc_info", "exc_text", "filename",
    "funcName", "levelname", "levelno", "lineno", "message", "module",
    "msecs", "msg", "name", "pathname", "process", "processName",
    "relativeCreated", "stack_info", "taskName", "thread", "threadName",
))


def get_run_id() -> str:
    """The process-global correlation id (created on first use)."""
    global _run_id
    if _run_id is None:
        _run_id = uuid.uuid4().hex[:12]
    return _run_id


def set_run_id(run_id: str) -> None:
    """Pin the correlation id (workers inherit the parent's)."""
    global _run_id
    _run_id = run_id


class JsonLineFormatter(logging.Formatter):
    """One compact JSON object per record, sorted keys."""

    def format(self, record: logging.LogRecord) -> str:
        out = {
            "ts": round(record.created, 3),
            "level": record.levelname,
            "logger": record.name,
            "run_id": get_run_id(),
            "msg": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key in out:
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            out[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            out["exc"] = self.formatException(record.exc_info)
        return json.dumps(out, sort_keys=True)


def _root() -> logging.Logger:
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(JsonLineFormatter())
        root.addHandler(handler)
        root.propagate = False
        root.setLevel(logging.WARNING)
    return root


def get_logger(name: str) -> logging.Logger:
    """A namespaced structured logger (``repro.<name>``)."""
    _root()
    if name.startswith("repro"):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


def configure(level: str = "warning") -> None:
    """Set the shared log level (``--log-level`` flag backend)."""
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        from ..errors import TelemetryError

        raise TelemetryError(f"unknown log level: {level!r}")
    _root().setLevel(numeric)


@contextmanager
def log_duration(logger: logging.Logger, msg: str, **fields):
    """Context manager logging ``msg`` with a ``wall_s`` field on exit
    (at WARNING with ``outcome="error"`` when the block raised)."""
    start = time.monotonic()
    emit = logger.info
    try:
        yield
    except BaseException:
        emit = logger.warning
        fields["outcome"] = "error"
        raise
    finally:
        fields["wall_s"] = round(time.monotonic() - start, 4)
        emit(msg, extra=fields)


__all__ = [
    "JsonLineFormatter",
    "configure",
    "get_logger",
    "get_run_id",
    "log_duration",
    "set_run_id",
]
