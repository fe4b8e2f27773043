"""The modified MVA fixed-point loop (activities A1–A6, paper Figure 4).

Each iteration:

* **A2** places the tasks of one job on the cluster (Algorithm 1) from the
  current per-class, per-center residence-time estimates (initially the
  uncontended service demands or the Herodotou/profile seeds), with the
  array placement of :func:`~repro.core.fast_timeline.place_tasks`;
* **A3** computes the intra-/inter-job overlap factors from that placement
  (vectorised with NumPy);
* **A4** solves the closed queueing network with the overlap-weighted
  approximate MVA, producing new per-class residence and response times;
* **A5** places the tasks again with the new estimates, materialises the
  timeline, builds the precedence tree and computes the job response time
  with the selected estimator (fork/join or Tripathi).  The placement is
  also the next iteration's A2: both are computed from the same residences;
* **A6** compares the new job response time against the previous iteration's
  value; the loop stops when the change is below ``epsilon`` (1e-7 by
  default, the value the paper recommends).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError
from ..queueing.mva_overlap import OverlapFactors, solve_mva_with_overlaps
from ..queueing.network import ClosedNetwork
from ..queueing.service_center import CenterKind, ServiceCenter, ServiceDemand
from .estimators import EstimatorKind, create_estimator
from .fast_timeline import TimelinePlacement, place_tasks
from .parameters import ModelInput, ServiceCenterName, TaskClass
from .precedence.builder import build_precedence_tree
from .precedence.metrics import tree_depth
from .precedence.tree import PrecedenceNode
from .timeline import Timeline

#: Per-class, per-center residence times — the solver's iterated state.
Residences = dict[TaskClass, dict[ServiceCenterName, float]]

#: Convergence threshold recommended by the paper (Section 4.2.6).
DEFAULT_EPSILON = 1e-7
#: Safety bound on the number of A2–A6 iterations.
DEFAULT_MAX_ITERATIONS = 60


@dataclass(frozen=True)
class SolverIteration:
    """Snapshot of one A2–A6 iteration."""

    index: int
    class_response_times: dict[TaskClass, float]
    job_response_time: float
    tree_depth: int
    delta: float
    #: Average container-waiting time added for concurrent jobs (0 for 1 job).
    inter_job_wait: float = 0.0


@dataclass
class SolverTrace:
    """Full record of a modified-MVA solve."""

    iterations: list[SolverIteration] = field(default_factory=list)
    converged: bool = False
    final_timeline: Timeline | None = None
    final_tree: PrecedenceNode | None = None
    final_overlaps: OverlapFactors | None = None
    #: Converged per-class, per-center residence times — the state a
    #: neighbouring grid point can be warm-started from.
    final_residences: Residences | None = None

    @property
    def num_iterations(self) -> int:
        """Number of A2–A6 iterations executed."""
        return len(self.iterations)

    @property
    def job_response_time(self) -> float:
        """Job response time of the last iteration."""
        if not self.iterations:
            raise ModelError("solver has not produced any iteration")
        return self.iterations[-1].job_response_time

    @property
    def class_response_times(self) -> dict[TaskClass, float]:
        """Per-class response times of the last iteration."""
        if not self.iterations:
            raise ModelError("solver has not produced any iteration")
        return self.iterations[-1].class_response_times


class ModifiedMVASolver:
    """Iterative solver combining the timeline, overlap factors and MVA."""

    def __init__(
        self,
        estimator: EstimatorKind | str = EstimatorKind.FORK_JOIN,
        epsilon: float = DEFAULT_EPSILON,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        balanced_tree: bool = True,
        enforce_merge_after_last_map: bool = True,
    ) -> None:
        if epsilon <= 0:
            raise ModelError("epsilon must be positive")
        if max_iterations <= 0:
            raise ModelError("max_iterations must be positive")
        self.estimator = create_estimator(estimator)
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self.balanced_tree = balanced_tree
        self.enforce_merge_after_last_map = enforce_merge_after_last_map

    # -- building blocks -----------------------------------------------------------

    def _expected_remote_fraction(self, model_input: ModelInput) -> float:
        """Expected fraction of a reducer's input located on other nodes."""
        if model_input.num_nodes <= 1:
            return 0.0
        return (model_input.num_nodes - 1) / model_input.num_nodes

    def _build_network(self, model_input: ModelInput) -> ClosedNetwork:
        """Closed queueing network with one class per task class."""
        centers = [
            ServiceCenter(
                name=ServiceCenterName.CPU.value,
                kind=CenterKind.QUEUEING,
                servers=model_input.cpu_per_node,
            ),
            ServiceCenter(
                name=ServiceCenterName.DISK.value,
                kind=CenterKind.QUEUEING,
                servers=model_input.disk_per_node,
            ),
            ServiceCenter(
                name=ServiceCenterName.NETWORK.value,
                kind=CenterKind.QUEUEING,
                servers=1,
            ),
        ]
        demands = []
        for task_class in TaskClass.ordered():
            class_demands = model_input.demands[task_class]
            for center in ServiceCenterName.ordered():
                value = class_demands.demand(center)
                if value > 0:
                    demands.append(
                        ServiceDemand(
                            class_name=task_class.value,
                            center_name=center.value,
                            demand=value,
                        )
                    )
        populations = [
            model_input.total_population(task_class)
            for task_class in TaskClass.ordered()
        ]
        return ClosedNetwork(
            centers=centers,
            class_names=[task_class.value for task_class in TaskClass.ordered()],
            populations=populations,
            demands=demands,
        )

    def _scaled_overlaps(
        self, overlaps: OverlapFactors, model_input: ModelInput
    ) -> OverlapFactors:
        """Scale overlap factors by the node-sharing probability ``1 / numNodes``.

        Tasks spread uniformly over a homogeneous cluster only interfere with
        the competitors placed on the *same* node, which happens with
        probability ``1/n`` per competitor.
        """
        factor = 1.0 / model_input.num_nodes
        return OverlapFactors(
            class_names=overlaps.class_names,
            intra_job=np.clip(overlaps.intra_job * factor, 0.0, 1.0),
            inter_job=np.clip(overlaps.inter_job * factor, 0.0, 1.0),
        )

    def _place_tasks(
        self, model_input: ModelInput, residences: Residences
    ) -> TimelinePlacement:
        """Algorithm 1 placement (A2/A5) from the current per-class per-center residences.

        The same placement as :func:`~repro.core.timeline.build_timeline`'s,
        entry for entry; that scalar path is kept only as the test oracle.
        """
        shuffle = residences[TaskClass.SHUFFLE_SORT]
        remote_fraction = self._expected_remote_fraction(model_input)
        # ``place_tasks`` expects the time to fetch the *entire* input
        # remotely and scales it by the actual remote-map fraction; the
        # residence time corresponds to the expected remote portion.
        shuffle_network_full = (
            shuffle[ServiceCenterName.NETWORK] / remote_fraction
            if remote_fraction > 0
            else 0.0
        )
        return place_tasks(
            model_input,
            map_duration=sum(residences[TaskClass.MAP].values()),
            shuffle_sort_base_duration=(
                shuffle[ServiceCenterName.CPU] + shuffle[ServiceCenterName.DISK]
            ),
            shuffle_network_duration=shuffle_network_full,
            merge_duration=sum(residences[TaskClass.MERGE].values()),
            enforce_merge_after_last_map=self.enforce_merge_after_last_map,
        )

    def _inter_job_container_wait(
        self,
        model_input: ModelInput,
        class_response: dict[TaskClass, float],
    ) -> float:
        """Average waiting for containers held by the other concurrent jobs.

        The Capacity scheduler with a single root queue serves applications
        in FIFO order (paper Section 4.2.2, assumption 1): while an earlier
        job still has outstanding requests it effectively owns the container
        pool.  A job submitted together with ``J - 1`` identical jobs
        therefore waits, on average, for half of the other jobs' container
        work to drain through the pool::

            wait = (J - 1) / 2 * (per-job container-seconds / pool size)

        where the per-job container-seconds use the contention-inflated class
        response times of the current iteration and the pool size is
        ``numNodes * max(MaxMapPerNode, MaxReducePerNode)``.  For ``J = 1``
        the term vanishes and the model reduces to the pure tree + MVA
        estimate.
        """
        if model_input.num_jobs <= 1:
            return 0.0
        container_seconds = (
            model_input.num_maps * class_response[TaskClass.MAP]
            + model_input.num_reduces
            * (
                class_response[TaskClass.SHUFFLE_SORT]
                + class_response[TaskClass.MERGE]
            )
        )
        pool_size = model_input.num_nodes * max(
            model_input.max_maps_per_node, model_input.max_reduces_per_node
        )
        drain_time = container_seconds / pool_size
        return 0.5 * (model_input.num_jobs - 1) * drain_time

    def _initial_residences(
        self,
        model_input: ModelInput,
        initial_response_times: dict[TaskClass, float] | None,
    ) -> dict[TaskClass, dict[ServiceCenterName, float]]:
        """Split the seed response times over the centers proportionally to demand."""
        residences: dict[TaskClass, dict[ServiceCenterName, float]] = {}
        for task_class in TaskClass.ordered():
            demands = model_input.demands[task_class]
            total_demand = demands.total_seconds
            if initial_response_times and task_class in initial_response_times:
                seed_total = initial_response_times[task_class]
            else:
                seed_total = model_input.initial_response_time(task_class)
            residences[task_class] = {}
            for center in ServiceCenterName.ordered():
                demand = demands.demand(center)
                if total_demand > 0:
                    share = demand / total_demand
                else:
                    share = 0.0
                residences[task_class][center] = seed_total * share
        return residences

    # -- the A1-A6 loop ---------------------------------------------------------------

    def solve(
        self,
        model_input: ModelInput,
        initial_response_times: dict[TaskClass, float] | None = None,
        initial_residences: Residences | None = None,
    ) -> SolverTrace:
        """Run the modified MVA iteration and return its full trace.

        ``initial_residences`` seeds A1 with explicit per-class, per-center
        residence times — typically the :attr:`SolverTrace.final_residences`
        of a neighbouring, already-solved grid point (warm start).  It takes
        precedence over ``initial_response_times`` (which only provides
        per-class totals, split over the centers proportionally to demand).
        The fixed point reached is the same either way; a good seed merely
        needs fewer A2–A6 iterations to get there.
        """
        if initial_residences is not None:
            for task_class in TaskClass.ordered():
                centers = initial_residences.get(task_class)
                if centers is None:
                    raise ModelError(
                        f"initial residences missing class {task_class.value!r}"
                    )
                for center in ServiceCenterName.ordered():
                    if centers.get(center, 0.0) < 0:
                        raise ModelError("initial residences must be non-negative")
        trace = SolverTrace()
        network = self._build_network(model_input)
        cv_by_class = {
            task_class: model_input.demands[task_class].coefficient_of_variation
            for task_class in TaskClass.ordered()
        }
        # Precomputed index maps for extracting residence times from the MVA
        # solution (the solution arrays share the network's class/center
        # order, so repeated ``list.index`` scans per iteration are avoided).
        class_row = {
            task_class: network.class_names.index(task_class.value)
            for task_class in TaskClass.ordered()
        }
        center_column = {
            center: network.center_index(center.value)
            for center in ServiceCenterName.ordered()
        }

        # A1: initialise residence times (per center) from the seed values.
        if initial_residences is not None:
            residences = {
                task_class: {
                    center: float(initial_residences[task_class].get(center, 0.0))
                    for center in ServiceCenterName.ordered()
                }
                for task_class in TaskClass.ordered()
            }
        else:
            residences = self._initial_residences(model_input, initial_response_times)
        previous_estimate: float | None = None
        # A2 of the first iteration; later iterations reuse A5's placement.
        placement = self._place_tasks(model_input, residences)

        for index in range(1, self.max_iterations + 1):
            # A3: overlap factors from the placement of the current estimates.
            overlaps = placement.overlap_factors()
            scaled = self._scaled_overlaps(overlaps, model_input)
            # A4: overlap-weighted MVA.
            solution = solve_mva_with_overlaps(
                network,
                scaled,
                jobs_in_system=model_input.num_jobs,
            )
            residences = {
                task_class: {
                    center: float(
                        solution.residence_times[
                            class_row[task_class], center_column[center]
                        ]
                    )
                    for center in ServiceCenterName.ordered()
                }
                for task_class in TaskClass.ordered()
            }
            class_response = {
                task_class: sum(residences[task_class].values())
                for task_class in TaskClass.ordered()
            }
            # A5: response time over the rebuilt tree.
            placement = self._place_tasks(model_input, residences)
            updated_timeline = placement.to_timeline()
            tree = build_precedence_tree(
                updated_timeline,
                coefficient_of_variation=cv_by_class,
                balanced=self.balanced_tree,
            )
            inter_job_wait = self._inter_job_container_wait(model_input, class_response)
            job_estimate = (
                self.estimator.estimate(tree)
                + inter_job_wait
                + model_input.job_overhead_seconds
            )
            # A6: convergence test.
            delta = (
                abs(job_estimate - previous_estimate)
                if previous_estimate is not None
                else float("inf")
            )
            trace.iterations.append(
                SolverIteration(
                    index=index,
                    class_response_times=class_response,
                    job_response_time=job_estimate,
                    tree_depth=tree_depth(tree),
                    delta=delta,
                    inter_job_wait=inter_job_wait,
                )
            )
            trace.final_timeline = updated_timeline
            trace.final_tree = tree
            trace.final_overlaps = overlaps
            trace.final_residences = residences
            if previous_estimate is not None and delta <= self.epsilon:
                trace.converged = True
                break
            previous_estimate = job_estimate
        return trace
