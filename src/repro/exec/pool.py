"""Worker-pool lifecycle for the execution substrate.

One process-pool recipe for every simulation fan-out in the repository
(parallel sweep grids and certification batches):

* **spawn start method** — fork would duplicate parent state (schedule
  template caches, telemetry registries, open sinks) into workers and
  make results depend on *when* the pool was created; spawn re-executes
  the interpreter so every worker starts from the same blank slate.
* **import-path mirroring** — spawn loses ``sys.path`` edits the parent
  made (pytest rootdir insertion, scripts prepending ``src``), so the
  initializer replays them; without this the repro package — or a
  test-local controller module a custom
  :class:`~repro.schemes.SchemeSpec` points at — would not import in
  workers.
* **hard-death isolation** — a worker dying without an exception
  (``os._exit``, segfault, OOM-kill) breaks the pool; the runner
  (:mod:`repro.exec.runner`) converts the resulting
  ``BrokenProcessPool`` into per-job failures instead of aborting the
  batch, so completed work stays checkpointed.
"""

from __future__ import annotations

import sys
from typing import List

from ..errors import ConfigError


def validate_workers(workers: int) -> int:
    """Validate a worker count, returning it unchanged.

    Raises :class:`~repro.errors.ConfigError` for anything that is not
    an integer >= 1 — shared by every consumer so ``workers=0`` fails
    the same way on a sweep and a certification batch.
    """
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigError(
            f"workers must be an integer >= 1, got {workers!r}"
        )
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


def worker_pool(workers: int):
    """A spawn-context :class:`~concurrent.futures.ProcessPoolExecutor`
    with the parent's import paths mirrored into every worker.

    The one process-pool recipe the repository uses for simulation
    fan-out, so worker bootstrap fixes (path mirroring, spawn start
    method) land in one place.
    """
    import concurrent.futures as cf
    import multiprocessing

    validate_workers(workers)
    ctx = multiprocessing.get_context("spawn")
    return cf.ProcessPoolExecutor(
        max_workers=workers, mp_context=ctx,
        initializer=_worker_init, initargs=(list(sys.path),),
    )


def _worker_init(parent_sys_path: List[str]) -> None:
    """Mirror the parent's import paths in a spawn-started worker."""
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


__all__ = ["validate_workers", "worker_pool"]
