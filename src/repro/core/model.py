"""Public facade of the Hadoop 2.x performance model.

:class:`Hadoop2PerformanceModel` bundles a :class:`~repro.core.parameters.ModelInput`
with the solver configuration and exposes :meth:`predict` /
:meth:`predict_all`, returning :class:`PredictionResult` objects that carry
the job response-time estimate together with diagnostic information
(per-class response times, precedence-tree depth, iteration count).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ModelError
from .estimators import EstimatorKind
from .mva_solver import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    ModifiedMVASolver,
    Residences,
    SolverTrace,
)
from .parameters import ModelInput, TaskClass
from .precedence.metrics import tree_depth, tree_leaves


@dataclass(frozen=True)
class PredictionResult:
    """Outcome of one model evaluation."""

    estimator: EstimatorKind
    job_response_time: float
    class_response_times: dict[TaskClass, float]
    iterations: int
    converged: bool
    tree_depth: int
    num_leaves: int
    timeline_makespan: float

    def summary(self) -> str:
        """One-line human-readable summary."""
        classes = ", ".join(
            f"{task_class.value}={seconds:.2f}s"
            for task_class, seconds in self.class_response_times.items()
        )
        return (
            f"[{self.estimator.value}] job={self.job_response_time:.2f}s "
            f"({classes}; iterations={self.iterations}, depth={self.tree_depth})"
        )


class Hadoop2PerformanceModel:
    """The paper's performance model for MapReduce on Hadoop 2.x."""

    def __init__(
        self,
        model_input: ModelInput,
        epsilon: float = DEFAULT_EPSILON,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        balanced_tree: bool = True,
        enforce_merge_after_last_map: bool = True,
    ) -> None:
        self.model_input = model_input
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self.balanced_tree = balanced_tree
        self.enforce_merge_after_last_map = enforce_merge_after_last_map
        self._traces: dict[EstimatorKind, SolverTrace] = {}

    def _solver(self, estimator: EstimatorKind | str) -> ModifiedMVASolver:
        return ModifiedMVASolver(
            estimator=estimator,
            epsilon=self.epsilon,
            max_iterations=self.max_iterations,
            balanced_tree=self.balanced_tree,
            enforce_merge_after_last_map=self.enforce_merge_after_last_map,
        )

    def predict(
        self,
        estimator: EstimatorKind | str = EstimatorKind.FORK_JOIN,
        initial_response_times: dict[TaskClass, float] | None = None,
        initial_residences: Residences | None = None,
    ) -> PredictionResult:
        """Estimate the average job response time with one estimator.

        ``initial_residences`` warm-starts the solver from a neighbouring
        solve's converged state (see :meth:`ModifiedMVASolver.solve`); the
        converged state of this solve is available through :meth:`trace`.
        """
        if isinstance(estimator, str):
            estimator = EstimatorKind(estimator)
        solver = self._solver(estimator)
        trace = solver.solve(
            self.model_input, initial_response_times, initial_residences
        )
        self._traces[estimator] = trace
        if trace.final_tree is None or trace.final_timeline is None:
            raise ModelError("solver finished without producing a tree")
        return PredictionResult(
            estimator=estimator,
            job_response_time=trace.job_response_time,
            class_response_times=trace.class_response_times,
            iterations=trace.num_iterations,
            converged=trace.converged,
            tree_depth=tree_depth(trace.final_tree),
            num_leaves=len(tree_leaves(trace.final_tree)),
            timeline_makespan=trace.final_timeline.makespan,
        )

    def predict_all(
        self,
        initial_response_times: dict[TaskClass, float] | None = None,
    ) -> dict[EstimatorKind, PredictionResult]:
        """Run both estimators (fork/join and Tripathi) on the same input."""
        return {
            kind: self.predict(kind, initial_response_times)
            for kind in (EstimatorKind.FORK_JOIN, EstimatorKind.TRIPATHI)
        }

    def trace(self, estimator: EstimatorKind | str) -> SolverTrace:
        """Solver trace of the last :meth:`predict` call for ``estimator``."""
        if isinstance(estimator, str):
            estimator = EstimatorKind(estimator)
        if estimator not in self._traces:
            raise ModelError(
                f"no prediction has been computed yet with the {estimator.value} estimator"
            )
        return self._traces[estimator]
