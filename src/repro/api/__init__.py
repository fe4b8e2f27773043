"""Unified prediction-backend API.

This package is the single well-typed interface over the repo's heterogeneous
prediction engines:

* :class:`Scenario` / :class:`ScenarioSuite` — frozen, JSON-round-trippable
  specifications of *what* to predict (cluster + workload + scheduler + seed);
* :class:`PredictionBackend` + :func:`register_backend` — the string-keyed
  registry of *how* to predict (analytic MVA, static ARIA / Herodotou /
  Vianna baselines, the YARN simulator);
* :class:`PredictionResult` — the uniform answer shape (total seconds,
  per-phase breakdown, metadata);
* :class:`PredictionService` — batch evaluation of suites across backends
  with keyed result caching, serial / thread-pool / process-pool execution
  modes, and one-call ``predict_batch`` dispatch to batch-capable backends;
* :class:`SqliteResultStore` (via :func:`open_store`) — the persistent,
  crash-tolerant result store keyed by ``(Scenario.cache_key(), backend)``,
  one SQLite file per store directory, with TTL/size garbage collection
  (:meth:`SqliteResultStore.gc`) and a claim/lease table
  (:class:`LeaseManager`) for cooperative multi-worker sweeps;
* :class:`SweepScheduler` — store-aware sweep planning: compute the missing
  points of a target grid, execute only those, resume interrupted sweeps —
  or drain one grid from k processes with zero duplicate evaluations
  (:meth:`SweepScheduler.run_cooperative`);
* :class:`RetryPolicy` / :class:`BreakerPolicy` / :class:`CircuitBreaker` —
  the resilience layer: bounded retries with deterministic backoff,
  per-evaluation deadlines, per-backend circuit breaking, and the
  ``on_error="raise" | "skip" | "record"`` partial-results contract whose
  failures surface as structured :class:`FailedResult` rows;
* :class:`FailureSpec` — deterministic failure injection (stragglers,
  task-attempt failures, node loss, speculative execution) simulated in
  full by the ``simulator`` backend; analytic backends degrade gracefully —
  expected-value inflation where the spec admits it, a structured
  :class:`BackendCapabilityError` where it does not.

Quick example::

    from repro.api import PredictionService, Scenario

    service = PredictionService()
    scenario = Scenario(workload="wordcount", num_nodes=4, input_size_bytes=10**9)
    result = service.evaluate(scenario, "mva-forkjoin")
    print(result.summary())
"""

from ..config import FailureSpec
from ..exceptions import BackendCapabilityError
from .backends import (
    PredictionBackend,
    backend_is_cpu_bound,
    backend_names,
    backend_supports_batch,
    backend_version,
    create_backend,
    register_backend,
)
from .resilience import (
    NO_RETRY,
    ON_ERROR_MODES,
    BreakerPolicy,
    BreakerSnapshot,
    CircuitBreaker,
    RetryPolicy,
)
from .results import BackendComparison, FailedResult, PredictionResult
from .scenario import (
    SCENARIO_SPEC_VERSION,
    WORKLOAD_PROFILES,
    Scenario,
    ScenarioSuite,
    register_workload_profile,
)
from .service import (
    DEFAULT_BASELINE,
    EXECUTION_MODES,
    PredictionService,
    ServiceStats,
    SuiteResult,
)
from .store import (
    QUARANTINE_DIR,
    STORE_FORMAT_VERSION,
    GcStats,
    LeaseManager,
    SqliteResultStore,
    StoreStats,
    open_store,
)
from .sweep import CooperativeOutcome, SweepOutcome, SweepPlan, SweepScheduler

#: Capacity-planner names re-exported lazily (PEP 562): ``repro.plan`` builds
#: on this package, so an eager import here would be circular.  Importing any
#: of these from ``repro.api`` resolves through :func:`__getattr__` below.
_PLANNER_EXPORTS = (
    "CapacityPlanner",
    "Constraint",
    "Objective",
    "PlanPoint",
    "PlanProbe",
    "PlanReport",
    "PlanSpec",
    "SearchSpace",
)


def __getattr__(name: str):
    if name in _PLANNER_EXPORTS:
        from .. import plan

        return getattr(plan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BackendCapabilityError",
    "BackendComparison",
    "BreakerPolicy",
    "BreakerSnapshot",
    "CapacityPlanner",
    "CircuitBreaker",
    "Constraint",
    "CooperativeOutcome",
    "DEFAULT_BASELINE",
    "EXECUTION_MODES",
    "FailedResult",
    "FailureSpec",
    "GcStats",
    "LeaseManager",
    "NO_RETRY",
    "ON_ERROR_MODES",
    "Objective",
    "PlanPoint",
    "PlanProbe",
    "PlanReport",
    "PlanSpec",
    "PredictionBackend",
    "PredictionResult",
    "PredictionService",
    "QUARANTINE_DIR",
    "RetryPolicy",
    "SCENARIO_SPEC_VERSION",
    "STORE_FORMAT_VERSION",
    "Scenario",
    "ScenarioSuite",
    "SearchSpace",
    "ServiceStats",
    "SqliteResultStore",
    "StoreStats",
    "SuiteResult",
    "SweepOutcome",
    "SweepPlan",
    "SweepScheduler",
    "WORKLOAD_PROFILES",
    "backend_is_cpu_bound",
    "backend_names",
    "backend_supports_batch",
    "backend_version",
    "create_backend",
    "open_store",
    "register_backend",
    "register_workload_profile",
]
