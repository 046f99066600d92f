"""Real multi-core trial execution for the experiment-parallel method.

The search driver's second execution backend, behind claim C1: a pool
of persistent worker processes runs self-contained single-replica
trials concurrently
(:class:`ProcessPoolTrialExecutor`), fed zero-copy from shared-memory
split arrays (:class:`SharedArrayStore` / :class:`SharedArrayHandle`)
so each extra worker costs an attach, not a dataset copy.  Selected via
``executor="process"`` in
:func:`repro.core.experiment_parallel.run_search_inprocess`,
:func:`repro.core.search.run_search` (and
:meth:`repro.core.runner.DistMISRunner.run_inprocess`, which delegates
to it), and
``distmis search --executor process --workers N``;
:func:`repro.raysim.tune.tune_run` takes a pre-built
:class:`ProcessPoolTrialExecutor` as ``executor=``.  Data-parallel
trials (``num_replicas > 1``) fork their own replica processes, which a
daemonic worker may not, so they run on the serial backend only.
"""

from .executor import (
    ProcessPoolTrialExecutor,
    TrialExecutionError,
    run_trials_parallel,
)
from .sharedmem import AttachedArrays, SharedArrayHandle, SharedArrayStore

__all__ = [
    "ProcessPoolTrialExecutor",
    "TrialExecutionError",
    "run_trials_parallel",
    "SharedArrayStore",
    "SharedArrayHandle",
    "AttachedArrays",
]
