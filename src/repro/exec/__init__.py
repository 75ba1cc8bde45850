"""The deterministic execution substrate.

One fan-out / checkpoint / merge recipe under every long-running batch
in the repository — parallel sweep grids (:class:`~repro.sim.sweep.Sweep`)
and certification batches
(:class:`~repro.certify.harness.CertificationRun`).  The scheduler
side-channel literature is blunt about why this layer exists: the
experiment harness — trial fan-out, pairing, aggregation — is where
subtle nondeterminism corrupts leakage estimates, so the repository has
exactly one such harness and proves its properties once.

Four layers, one contract:

* :mod:`repro.exec.pool` — spawn-context process-pool lifecycle with
  parent import paths mirrored into workers, and shared ``workers``
  validation;
* :mod:`repro.exec.jobs` — picklable :class:`JobSpec`/:class:`JobResult`
  with a reserved :data:`SPANS_KEY` side channel for shipped span
  records and uniform in-process/cross-process failure capture;
* :mod:`repro.exec.checkpoint` — schema-versioned atomic JSON
  checkpoints (``os.replace`` semantics, keyed batches, an explicit
  corrupt-vs-incompatible distinction raising
  :class:`~repro.errors.ExecError` for unparseable files);
* :mod:`repro.exec.runner` — serial and parallel drivers with
  submission-order merging, per-job failure isolation, wall-clock
  budgets, span adoption, and an optional duck-typed ``store=`` hook
  (``lookup``/``record``) through which :mod:`repro.store` substitutes
  cached results without perturbing merge order.

The contract: a ``workers=N`` batch produces byte-identical
checkpoints, artifacts, and (``wall_*``-scrubbed) span traces to a
serial run, and a killed batch resumes from its checkpoint to the same
bytes an uninterrupted run writes.

Layering: this package imports nothing from :mod:`repro.sim`,
:mod:`repro.certify`, or :mod:`repro.store` — consumers (and the result
store) adapt *onto* the substrate, never the other way around (CI greps
the DAG).

The cost of these batches is measured by the repository benchmark
(``perfbench/README.md``, workloads declared in ``BENCHMARK.json``),
whose ``certify`` workload times the runner and checkpoint layers.
"""

from .checkpoint import CheckpointStore
from .jobs import (
    SPANS_KEY,
    JobResult,
    JobSpec,
    failure_result,
    result_from_wire,
    run_job,
)
from .pool import validate_workers, worker_pool
from .runner import adopt_spans, run_jobs

__all__ = [
    "SPANS_KEY",
    "CheckpointStore",
    "JobResult",
    "JobSpec",
    "adopt_spans",
    "failure_result",
    "result_from_wire",
    "run_job",
    "run_jobs",
    "validate_workers",
    "worker_pool",
]
