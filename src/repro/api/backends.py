"""Prediction backends: one uniform ``predict(scenario)`` over every engine.

The registry maps short string keys to backend classes:

* ``mva-forkjoin`` / ``mva-tripathi`` — the paper's analytic Hadoop 2.x model
  (:class:`~repro.core.model.Hadoop2PerformanceModel`) with either estimator;
* ``aria`` — ARIA makespan bounds from a job profile derived from the same
  uncontended service demands the analytic model uses;
* ``herodotou`` — the Herodotou phase model on dataflow/cost statistics;
* ``vianna`` — the slot-based Hadoop 1.x baseline model;
* ``simulator`` — the discrete-event YARN simulator (median of the mean job
  response time over ``scenario.repetitions`` seeded runs — the "measured"
  value of the evaluation figures).

Backends are stateless: every :meth:`PredictionBackend.predict` call builds
its engine from the scenario alone, so instances can be shared across threads.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections.abc import Sequence
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from ..core.estimators import EstimatorKind
from ..core.model import Hadoop2PerformanceModel
from ..core.parameters import TaskClass
from ..exceptions import BackendCapabilityError, BackendError
from ..hadoop.failures import expected_inflation
from ..hadoop.simulator import ClusterSimulator
from ..static_models.aria import AriaJobProfile, AriaModel, batch_stage_bounds
from ..static_models.herodotou import CostStatistics, HerodotouJobModel, batch_estimate
from ..static_models.vianna import ViannaHadoop1Model
from .results import PredictionResult
from .scenario import Scenario

#: Sigmas of task-duration spread assumed when deriving ARIA's max durations.
_ARIA_SPREAD_SIGMAS = 2.0


@runtime_checkable
class PredictionBackend(Protocol):
    """A named engine that turns a :class:`Scenario` into a :class:`PredictionResult`.

    Backends may additionally declare two class attributes consumed by the
    service and the persistent store:

    * ``version`` (int, default 1) — bump whenever the backend's numerical
      behaviour changes; stored results recorded under an older version are
      treated as stale;
    * ``cpu_bound`` (bool, default False) — marks backends whose ``predict``
      does enough Python-level work that the GIL serialises a thread pool;
      the service's ``execution="process"`` mode ships those to a process
      pool instead.

    Backends may also implement an optional batch capability::

        def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]

    evaluating a whole grid in one call (vectorised arithmetic, warm-started
    fixed points, ...).  The service dispatches suite misses to
    ``predict_batch`` when present (see
    :meth:`~repro.api.service.PredictionService.evaluate_suite`); results
    must be returned in input order and agree with per-scenario ``predict``
    up to numerical tolerance (batch paths may reorder float reductions or
    warm-start iterative solves).
    """

    name: ClassVar[str]

    def predict(self, scenario: Scenario) -> PredictionResult:
        """Evaluate one scenario."""
        ...


_REGISTRY: dict[str, type] = {}


def register_backend(name: str):
    """Class decorator registering a backend under a string key."""

    def decorator(cls):
        if name in _REGISTRY:
            raise BackendError(f"backend {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def backend_names() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


def backend_version(name: str) -> int | None:
    """Behaviour version of a registered backend; ``None`` when unregistered.

    The persistent result store records this next to every result and treats
    any mismatch on load as a stale record.
    """
    cls = _REGISTRY.get(name)
    return getattr(cls, "version", 1) if cls is not None else None


def backend_is_cpu_bound(name: str) -> bool:
    """Whether a backend benefits from process-pool (GIL-free) execution."""
    return bool(getattr(_REGISTRY.get(name), "cpu_bound", False))


def backend_supports_batch(name: str) -> bool:
    """Whether a registered backend implements ``predict_batch``."""
    return callable(getattr(_REGISTRY.get(name), "predict_batch", None))


def _grid_order(scenarios: Sequence[Scenario]) -> list[int]:
    """Indices ordering a grid so consecutive scenarios are near neighbours.

    Warm-started backends seed each fixed point from the previously solved
    scenario of the same family (workload, variability, concurrency); sorting
    the grid axes makes that previous point the nearest already-solved grid
    neighbour along the innermost axis.
    """

    def sort_key(index: int):
        scenario = scenarios[index]
        return (
            scenario.workload,
            scenario.duration_cv,
            scenario.num_jobs,
            scenario.block_size_bytes,
            scenario.num_nodes,
            scenario.num_reduces,
            scenario.input_size_bytes,
            scenario.cache_key(),
        )

    return sorted(range(len(scenarios)), key=sort_key)


def _warm_start_family(scenario: Scenario) -> tuple:
    """Scenarios sharing this key exchange warm-start seeds.

    The seed is only a starting point — any family split is *correct* — but
    seeding across different workloads or concurrency levels would start far
    from the fixed point and waste iterations.
    """
    return (scenario.workload, scenario.duration_cv, scenario.num_jobs)


def _scaled_seed(previous_residences, previous_input, model_input):
    """Rescale a neighbour's converged residences to a new grid point.

    Residence times grow roughly in proportion to the uncontended service
    demands, so scaling each per-class, per-center residence by the demand
    ratio between the two grid points lands the seed much closer to the new
    fixed point than the raw neighbour state (measured: ~6% fewer total
    A2–A6 iterations on a 32-node×size grid versus unscaled seeds).
    """
    seed = {}
    for task_class, centers in previous_residences.items():
        previous_demands = previous_input.demands[task_class]
        new_demands = model_input.demands[task_class]
        seed[task_class] = {}
        for center, residence in centers.items():
            previous_demand = previous_demands.demand(center)
            if previous_demand > 0:
                residence = residence * (new_demands.demand(center) / previous_demand)
            seed[task_class][center] = residence
    return seed


def _warm_started_batch(scenarios: Sequence[Scenario], solve) -> list[PredictionResult]:
    """Solve a grid in grid order, seeding each point from its family's last solve.

    ``solve(scenario, neighbour)`` returns the result and the state
    ``(converged residences, model input)`` that the family's next point is
    seeded from.  ``neighbour`` is ``None`` for a family's first point, so a
    one-scenario batch is exactly a cold ``predict``.
    """
    results: list[PredictionResult | None] = [None] * len(scenarios)
    neighbours: dict[tuple, tuple] = {}
    for index in _grid_order(scenarios):
        family = _warm_start_family(scenarios[index])
        results[index], neighbours[family] = solve(
            scenarios[index], neighbours.get(family)
        )
    return results


def create_backend(name: str, **options) -> PredictionBackend:
    """Instantiate a backend by name (``options`` go to its constructor)."""
    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise BackendError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from exc
    return cls(**options)


def _fair_share(total: int, num_jobs: int) -> int:
    """Per-job share of ``total`` slots when ``num_jobs`` run concurrently."""
    return max(1, total // num_jobs)


# -- graceful degradation under failure specs ----------------------------------
#
# Only the simulator models failures mechanistically.  The analytic backends
# follow a strict contract: apply an expected-value inflation correction where
# the model supports it (stragglers + task re-execution are mean-field
# effects), and *decline* — a structured BackendCapabilityError, never a
# silently failure-free number — where it doesn't (mid-run node loss and
# speculative races are scheduling-history dependent).


def _failure_inflation_factor(scenario: Scenario, backend_name: str) -> float:
    """Expected-value correction factor for an analytic backend, or raise.

    Returns 1.0 for failure-free scenarios.  Raises
    :class:`~repro.exceptions.BackendCapabilityError` for spec features with
    no closed-form correction (node failures, speculative execution).
    """
    spec = scenario.failures
    if spec is None or spec.is_noop:
        return 1.0
    if spec.node_failure_times:
        raise BackendCapabilityError(
            f"backend {backend_name!r} cannot model mid-run node failures; "
            "use the simulator backend for this failure spec"
        )
    if spec.speculative:
        raise BackendCapabilityError(
            f"backend {backend_name!r} cannot model speculative execution; "
            "use the simulator backend for this failure spec"
        )
    return expected_inflation(spec)


def _decline_failures(scenario: Scenario, backend_name: str) -> None:
    """Refuse any non-noop failure spec (backends without a correction)."""
    spec = scenario.failures
    if spec is not None and not spec.is_noop:
        raise BackendCapabilityError(
            f"backend {backend_name!r} has no failure model or correction; "
            "use the simulator backend for this failure spec"
        )


def _inflate_result(result: PredictionResult, factor: float) -> PredictionResult:
    """Scale a clean prediction by the expected failure inflation (>= 1)."""
    if factor == 1.0:
        return result
    return PredictionResult(
        backend=result.backend,
        scenario=result.scenario,
        total_seconds=result.total_seconds * factor,
        phases={name: seconds * factor for name, seconds in result.phases.items()},
        metadata={**result.metadata, "failure_inflation": factor},
    )


class _MvaBackend:
    """Shared implementation of the two analytic-model backends."""

    name: ClassVar[str]
    kind: ClassVar[EstimatorKind]
    #: 2: the solver's array timeline path moved answers at summation order.
    version: ClassVar[int] = 2

    def _result(
        self, scenario: Scenario, prediction, **extra_metadata
    ) -> PredictionResult:
        return PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=prediction.job_response_time,
            phases={
                task_class.value: seconds
                for task_class, seconds in prediction.class_response_times.items()
            },
            metadata={
                "estimator": prediction.estimator.value,
                "iterations": prediction.iterations,
                "converged": prediction.converged,
                "tree_depth": prediction.tree_depth,
                "num_leaves": prediction.num_leaves,
                "timeline_makespan": prediction.timeline_makespan,
                **extra_metadata,
            },
        )

    def _solve(
        self, scenario: Scenario, neighbour: tuple | None
    ) -> tuple[PredictionResult, tuple]:
        """One solve, seeded from a solved ``neighbour`` when given."""
        factor = _failure_inflation_factor(scenario, self.name)
        model_input = scenario.model_input()
        seed = _scaled_seed(*neighbour, model_input) if neighbour is not None else None
        model = Hadoop2PerformanceModel(model_input)
        prediction = model.predict(self.kind, initial_residences=seed)
        result = self._result(scenario, prediction, warm_started=seed is not None)
        state = (model.trace(self.kind).final_residences, model_input)
        return _inflate_result(result, factor), state

    def predict(self, scenario: Scenario) -> PredictionResult:
        return self._solve(scenario, None)[0]

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """Grid-ordered, warm-started evaluation of a whole sweep.

        Scenarios are visited in grid order and each A1–A6 fixed point is
        seeded with the converged residence times of the previously solved
        scenario of the same family — the nearest already-solved grid
        neighbour.  The fixed point (and hence the prediction) is the same as
        the cold start's up to the solver epsilon; only the iteration count
        shrinks (``metadata["warm_started"]`` records which points were
        seeded).
        """
        for scenario in scenarios:  # decline the whole batch before any solve
            _failure_inflation_factor(scenario, self.name)
        return _warm_started_batch(scenarios, self._solve)


@register_backend("mva-forkjoin")
class MvaForkJoinBackend(_MvaBackend):
    """Analytic Hadoop 2.x model with the fork/join estimator."""

    kind = EstimatorKind.FORK_JOIN


@register_backend("mva-tripathi")
class MvaTripathiBackend(_MvaBackend):
    """Analytic Hadoop 2.x model with the Tripathi-based estimator."""

    kind = EstimatorKind.TRIPATHI


@register_backend("aria")
class AriaBackend:
    """ARIA makespan bounds on a profile derived from the scenario's demands.

    Stage averages are the uncontended per-task service demands the analytic
    model uses; maxima assume a ``_ARIA_SPREAD_SIGMAS``-sigma spread at the
    scenario's task-duration CV.  Concurrent jobs get a fair share of the
    cluster's container slots.
    """

    name: ClassVar[str]

    def predict(self, scenario: Scenario) -> PredictionResult:
        factor = _failure_inflation_factor(scenario, self.name)
        model_input = scenario.model_input()
        spread = 1.0 + _ARIA_SPREAD_SIGMAS * scenario.duration_cv

        def demand_seconds(task_class: TaskClass) -> float:
            demands = model_input.demands[task_class]
            return demands.cpu_seconds + demands.disk_seconds + demands.network_seconds

        avg_map = demand_seconds(TaskClass.MAP)
        avg_shuffle = demand_seconds(TaskClass.SHUFFLE_SORT)
        avg_reduce = demand_seconds(TaskClass.MERGE)
        profile = AriaJobProfile(
            num_maps=model_input.num_maps,
            num_reduces=model_input.num_reduces,
            avg_map_seconds=avg_map,
            max_map_seconds=avg_map * spread,
            avg_shuffle_seconds=avg_shuffle,
            max_shuffle_seconds=avg_shuffle * spread,
            avg_reduce_seconds=avg_reduce,
            max_reduce_seconds=avg_reduce * spread,
        )
        cluster = scenario.cluster_config()
        map_slots = _fair_share(cluster.total_map_capacity(), scenario.num_jobs)
        reduce_slots = _fair_share(cluster.total_reduce_capacity(), scenario.num_jobs)
        model = AriaModel(profile)
        bounds = model.job_bounds(map_slots, reduce_slots)
        result = PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=bounds.average_seconds,
            phases={
                "map": model.map_stage_bounds(map_slots).average_seconds,
                "shuffle-sort": model.shuffle_stage_bounds(reduce_slots).average_seconds,
                "merge": model.reduce_stage_bounds(reduce_slots).average_seconds,
            },
            metadata={
                "lower_seconds": bounds.lower_seconds,
                "upper_seconds": bounds.upper_seconds,
                "map_slots": map_slots,
                "reduce_slots": reduce_slots,
            },
        )
        return _inflate_result(result, factor)

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """Vectorised sweep: the whole grid's bounds as stacked arrays.

        Per-scenario primitives (task counts, demand totals, fair-share
        slots) are stacked into NumPy arrays and the makespan-theorem bounds
        evaluate once per stage over the grid
        (:func:`~repro.static_models.aria.batch_stage_bounds`), with the
        scalar path's exact arithmetic.
        """
        factors = [
            _failure_inflation_factor(scenario, self.name) for scenario in scenarios
        ]
        count = len(scenarios)
        num_maps = np.empty(count)
        num_reduces = np.empty(count)
        stage_avgs = {
            TaskClass.MAP: np.empty(count),
            TaskClass.SHUFFLE_SORT: np.empty(count),
            TaskClass.MERGE: np.empty(count),
        }
        spread = np.empty(count)
        map_slots = np.empty(count, dtype=int)
        reduce_slots = np.empty(count, dtype=int)
        for index, scenario in enumerate(scenarios):
            model_input = scenario.model_input()
            cluster = scenario.cluster_config()
            num_maps[index] = model_input.num_maps
            num_reduces[index] = model_input.num_reduces
            for task_class, values in stage_avgs.items():
                demands = model_input.demands[task_class]
                values[index] = (
                    demands.cpu_seconds + demands.disk_seconds + demands.network_seconds
                )
            spread[index] = 1.0 + _ARIA_SPREAD_SIGMAS * scenario.duration_cv
            map_slots[index] = _fair_share(
                cluster.total_map_capacity(), scenario.num_jobs
            )
            reduce_slots[index] = _fair_share(
                cluster.total_reduce_capacity(), scenario.num_jobs
            )
        stage_tasks = {
            TaskClass.MAP: (num_maps, map_slots),
            TaskClass.SHUFFLE_SORT: (num_reduces, reduce_slots),
            TaskClass.MERGE: (num_reduces, reduce_slots),
        }
        averages: dict[TaskClass, np.ndarray] = {}
        lower_total = np.zeros(count)
        upper_total = np.zeros(count)
        for task_class, (tasks, slots) in stage_tasks.items():
            avg = stage_avgs[task_class]
            lower, upper = batch_stage_bounds(tasks, avg, avg * spread, slots)
            averages[task_class] = 0.5 * (lower + upper)
            lower_total = lower_total + lower
            upper_total = upper_total + upper
        total = 0.5 * (lower_total + upper_total)
        return [
            _inflate_result(
                PredictionResult(
                    backend=self.name,
                    scenario=scenario,
                    total_seconds=float(total[index]),
                    phases={
                        task_class.value: float(averages[task_class][index])
                        for task_class in TaskClass.ordered()
                    },
                    metadata={
                        "lower_seconds": float(lower_total[index]),
                        "upper_seconds": float(upper_total[index]),
                        "map_slots": int(map_slots[index]),
                        "reduce_slots": int(reduce_slots[index]),
                    },
                ),
                factors[index],
            )
            for index, scenario in enumerate(scenarios)
        ]


@register_backend("herodotou")
class HerodotouBackend:
    """Herodotou static phase model (waves over fair-share slots)."""

    name: ClassVar[str]

    def predict(self, scenario: Scenario) -> PredictionResult:
        factor = _failure_inflation_factor(scenario, self.name)
        profile = scenario.profile()
        environment = self._environment(scenario)
        dataflow = profile.herodotou_dataflow(scenario.job_configs()[0])
        estimate = HerodotouJobModel(environment).estimate(dataflow)
        result = PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=estimate.total_seconds,
            phases={
                "map": estimate.map_stage_seconds,
                "shuffle-sort": 0.0,
                "merge": estimate.reduce_stage_seconds,
            },
            metadata={
                "map_waves": estimate.map_waves,
                "reduce_waves": estimate.reduce_waves,
                "map_task_seconds": estimate.map_phases.total,
                "reduce_task_seconds": estimate.reduce_phases.total,
            },
        )
        return _inflate_result(result, factor)

    @staticmethod
    def _environment(scenario: Scenario):
        environment = scenario.profile().herodotou_environment(
            scenario.cluster_config()
        )
        if scenario.num_jobs > 1:
            environment = dataclasses.replace(
                environment,
                map_slots_per_node=_fair_share(
                    environment.map_slots_per_node, scenario.num_jobs
                ),
                reduce_slots_per_node=_fair_share(
                    environment.reduce_slots_per_node, scenario.num_jobs
                ),
            )
        return environment

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """Vectorised sweep: all phase costs evaluated as stacked arrays.

        Dataflow and cost statistics are stacked per grid point and the
        phase-cost formulas run once over the grid
        (:func:`~repro.static_models.herodotou.batch_estimate`), mirroring
        the scalar model's arithmetic.
        """
        factors = [
            _failure_inflation_factor(scenario, self.name) for scenario in scenarios
        ]
        # Per-byte cost statistics, stacked straight off the dataclass so the
        # name list cannot drift from CostStatistics (and batch_estimate's
        # matching keyword raises immediately if it does).
        cost_names = tuple(
            field.name for field in dataclasses.fields(CostStatistics)
        )
        dataflow_names = (
            "split_bytes",
            "map_output_bytes",
            "sort_buffer_bytes",
            "reduce_input_bytes",
            "reduce_output_bytes",
            "num_maps",
            "num_reduces",
            "output_replication",
        )
        environment_names = ("total_map_slots", "total_reduce_slots")
        fields: dict[str, list[float]] = {
            name: []
            for name in (
                *dataflow_names,
                *environment_names,
                "remote_fraction",
                *cost_names,
            )
        }
        for scenario in scenarios:
            environment = self._environment(scenario)
            dataflow = scenario.profile().herodotou_dataflow(
                scenario.job_configs()[0]
            )
            for name in dataflow_names:
                fields[name].append(getattr(dataflow, name))
            for name in environment_names:
                fields[name].append(getattr(environment, name))
            fields["remote_fraction"].append(
                (environment.num_nodes - 1) / environment.num_nodes
                if environment.num_nodes > 1
                else 0.0
            )
            for name in cost_names:
                fields[name].append(getattr(environment.costs, name))
        estimate = batch_estimate(
            **{name: np.asarray(values) for name, values in fields.items()}
        )
        map_stage = estimate.map_stage_seconds
        reduce_stage = estimate.reduce_stage_seconds
        total = estimate.total_seconds
        return [
            _inflate_result(
                PredictionResult(
                    backend=self.name,
                    scenario=scenario,
                    total_seconds=float(total[index]),
                    phases={
                        "map": float(map_stage[index]),
                        "shuffle-sort": 0.0,
                        "merge": float(reduce_stage[index]),
                    },
                    metadata={
                        "map_waves": int(estimate.map_waves[index]),
                        "reduce_waves": int(estimate.reduce_waves[index]),
                        "map_task_seconds": float(estimate.map_task_seconds[index]),
                        "reduce_task_seconds": float(
                            estimate.reduce_task_seconds[index]
                        ),
                    },
                ),
                factors[index],
            )
            for index, scenario in enumerate(scenarios)
        ]


@register_backend("vianna")
class ViannaBackend:
    """Vianna et al.'s slot-based Hadoop 1.x baseline model."""

    name: ClassVar[str]
    #: 2: the solver's array timeline path moved answers at summation order.
    version: ClassVar[int] = 2

    def __init__(self, map_slots_per_node: int = 2, reduce_slots_per_node: int = 2) -> None:
        self.map_slots_per_node = map_slots_per_node
        self.reduce_slots_per_node = reduce_slots_per_node

    def _result(
        self, scenario: Scenario, prediction, **extra_metadata
    ) -> PredictionResult:
        return PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=prediction.job_response_time,
            phases={
                task_class.value: seconds
                for task_class, seconds in prediction.class_response_times.items()
            },
            metadata={
                "iterations": prediction.iterations,
                "converged": prediction.converged,
                "map_slots_per_node": self.map_slots_per_node,
                "reduce_slots_per_node": self.reduce_slots_per_node,
                **extra_metadata,
            },
        )

    def _solve(
        self, scenario: Scenario, neighbour: tuple | None
    ) -> tuple[PredictionResult, tuple]:
        """One solve, seeded from a solved ``neighbour`` when given."""
        _decline_failures(scenario, self.name)
        model = ViannaHadoop1Model(
            scenario.model_input(),
            map_slots_per_node=self.map_slots_per_node,
            reduce_slots_per_node=self.reduce_slots_per_node,
        )
        model_input = model.model_input
        seed = _scaled_seed(*neighbour, model_input) if neighbour is not None else None
        prediction = model.predict(initial_residences=seed)
        result = self._result(scenario, prediction, warm_started=seed is not None)
        return result, (model.trace.final_residences, model_input)

    def predict(self, scenario: Scenario) -> PredictionResult:
        return self._solve(scenario, None)[0]

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """Grid-ordered, warm-started evaluation of a whole sweep.

        Each point runs the Hadoop 1.x fixed point seeded from the previously
        solved grid neighbour of its family, as :meth:`_MvaBackend.predict_batch`
        does.
        """
        for scenario in scenarios:  # decline the whole batch before any solve
            _decline_failures(scenario, self.name)
        return _warm_started_batch(scenarios, self._solve)


@register_backend("simulator")
class SimulatorBackend:
    """Discrete-event YARN simulator — the evaluation's "measured" series.

    Runs ``scenario.repetitions`` simulations with seeds ``seed + i`` and
    reports the median of the per-run mean job response times, exactly as the
    experiment runner has always derived the measurement.
    """

    name: ClassVar[str]
    #: The discrete-event loop is pure Python: fan it out over processes.
    cpu_bound: ClassVar[bool] = True

    #: Failure counters surfaced in result metadata (summed over repetitions).
    _FAILURE_COUNTERS = (
        "task_failures",
        "task_reexecutions",
        "node_failures",
        "containers_killed",
        "maps_invalidated",
        "speculative_launched",
        "speculative_wins",
    )

    def predict(self, scenario: Scenario) -> PredictionResult:
        workload = scenario.workload_spec()
        cluster = scenario.cluster_config()
        scheduler = scenario.scheduler_config()
        simulator_profile = workload.profile.simulator_profile()
        failures = scenario.failures
        inject = failures is not None and not failures.is_noop
        means: list[float] = []
        first_result = None
        failure_counts = dict.fromkeys(self._FAILURE_COUNTERS, 0)
        for repetition in range(scenario.repetitions):
            simulator = ClusterSimulator(
                cluster,
                scheduler,
                seed=scenario.seed + repetition,
                failures=failures,
            )
            for job_config in workload.job_configs():
                simulator.submit_job(job_config, simulator_profile)
            result = simulator.run()
            if first_result is None:
                first_result = result
            means.append(result.mean_response_time)
            if inject:
                for counter in self._FAILURE_COUNTERS:
                    failure_counts[counter] += getattr(result.metrics, counter)
        traces = first_result.job_traces
        metadata = {
            "repetitions": scenario.repetitions,
            "repetition_means": tuple(means),
            "makespan": first_result.makespan,
            "data_local_fraction": first_result.metrics.data_local_fraction,
        }
        if inject:
            metadata["failures"] = failure_counts
        return PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=statistics.median(means),
            phases={
                "map": _mean(trace.average_map_duration() for trace in traces),
                "shuffle-sort": _mean(
                    trace.average_shuffle_sort_duration() for trace in traces
                ),
                "merge": _mean(trace.average_merge_duration() for trace in traces),
            },
            metadata=metadata,
        )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
