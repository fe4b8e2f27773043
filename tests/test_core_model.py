"""Tests for overlap factors, estimators, the modified-MVA solver and the model facade."""

from __future__ import annotations

import pytest

from repro.core import (
    EstimatorKind,
    ForkJoinEstimator,
    Hadoop2PerformanceModel,
    ModelInput,
    ModifiedMVASolver,
    TaskClass,
    TaskClassDemands,
    TripathiEstimator,
    build_timeline,
    compute_overlap_factors,
    create_estimator,
    estimate_complexity,
)
from repro.core.complexity import container_count, timeline_task_count
from repro.core.initialization import (
    InitializationStrategy,
    initialize_from_herodotou,
    initialize_from_profile,
)
from repro.core import estimators
from repro.core.precedence.tree import LeafNode, OperatorKind, OperatorNode
from repro.core.task_instances import TaskInstance
from repro.exceptions import ModelError
from repro.queueing.distributions import fit_distribution, maximum_of, sum_of
from repro.static_models.herodotou import DataflowStatistics, HadoopEnvironment, CostStatistics
from repro.units import MiB


def make_input(num_jobs=1, num_maps=8, num_reduces=2, num_nodes=4, cv=0.4) -> ModelInput:
    demands = {
        TaskClass.MAP: TaskClassDemands(
            cpu_seconds=20.0, disk_seconds=2.0, coefficient_of_variation=cv
        ),
        TaskClass.SHUFFLE_SORT: TaskClassDemands(
            cpu_seconds=0.0, disk_seconds=2.0, network_seconds=4.0, coefficient_of_variation=cv
        ),
        TaskClass.MERGE: TaskClassDemands(
            cpu_seconds=15.0, disk_seconds=3.0, coefficient_of_variation=cv
        ),
    }
    return ModelInput(
        num_nodes=num_nodes,
        cpu_per_node=8,
        disk_per_node=1,
        max_maps_per_node=4,
        max_reduces_per_node=4,
        num_jobs=num_jobs,
        num_maps=num_maps,
        num_reduces=num_reduces,
        demands=demands,
    )


def leaf(mean, cv=0.0, index=0, task_class=TaskClass.MAP):
    reduce_index = None if task_class is TaskClass.MAP else index
    return LeafNode(
        instance=TaskInstance(task_class, index, reduce_index=reduce_index),
        mean_response_time=mean,
        coefficient_of_variation=cv,
    )


class TestOverlapFactors:
    def make_timeline(self, model_input=None):
        model_input = model_input or make_input()
        return build_timeline(model_input, 22.0, 2.0, 4.0, 18.0)

    def test_factors_in_unit_interval(self):
        factors = compute_overlap_factors(self.make_timeline())
        assert (factors.intra_job >= 0).all() and (factors.intra_job <= 1).all()
        assert (factors.inter_job >= 0).all() and (factors.inter_job <= 1).all()

    def test_map_map_overlap_high_in_single_wave(self):
        model_input = make_input(num_maps=8, num_nodes=4)
        factors = compute_overlap_factors(self.make_timeline(model_input))
        classes = list(factors.class_names)
        map_index = classes.index(TaskClass.MAP.value)
        # All maps of a single wave fully overlap each other.
        assert factors.intra_job[map_index, map_index] == pytest.approx(1.0, abs=0.15)

    def test_map_merge_overlap_is_low(self):
        factors = compute_overlap_factors(self.make_timeline())
        classes = list(factors.class_names)
        map_index = classes.index(TaskClass.MAP.value)
        merge_index = classes.index(TaskClass.MERGE.value)
        # Merges start only after the last map finished, so they barely overlap.
        assert factors.intra_job[map_index, merge_index] <= 0.2


class TestEstimators:
    def test_forkjoin_serial_sums(self):
        tree = OperatorNode(OperatorKind.SERIAL, leaf(10.0), leaf(5.0))
        assert ForkJoinEstimator().estimate(tree) == pytest.approx(15.0)

    def test_forkjoin_parallel_deterministic_children_take_max(self):
        tree = OperatorNode(OperatorKind.PARALLEL, leaf(10.0, cv=0.0), leaf(5.0, cv=0.0))
        assert ForkJoinEstimator().estimate(tree) == pytest.approx(10.0)

    def test_forkjoin_literal_applies_full_premium(self):
        tree = OperatorNode(OperatorKind.PARALLEL, leaf(10.0, cv=0.0), leaf(5.0, cv=0.0))
        assert ForkJoinEstimator(literal=True).estimate(tree) == pytest.approx(15.0)

    def test_forkjoin_premium_scales_with_cv(self):
        low = OperatorNode(OperatorKind.PARALLEL, leaf(10.0, cv=0.2), leaf(10.0, cv=0.2))
        high = OperatorNode(OperatorKind.PARALLEL, leaf(10.0, cv=0.8), leaf(10.0, cv=0.8))
        estimator = ForkJoinEstimator()
        assert estimator.estimate(high) > estimator.estimate(low) > 10.0

    def test_forkjoin_exponential_children_match_literal(self):
        tree = OperatorNode(OperatorKind.PARALLEL, leaf(10.0, cv=1.0), leaf(10.0, cv=1.0))
        assert ForkJoinEstimator().estimate(tree) == pytest.approx(15.0)

    def test_tripathi_serial_sums(self):
        tree = OperatorNode(OperatorKind.SERIAL, leaf(10.0, cv=0.5), leaf(5.0, cv=0.5))
        assert TripathiEstimator().estimate(tree) == pytest.approx(15.0, rel=1e-6)

    def test_tripathi_parallel_exceeds_max(self):
        tree = OperatorNode(OperatorKind.PARALLEL, leaf(10.0, cv=0.6), leaf(10.0, cv=0.6))
        estimate = TripathiEstimator().estimate(tree)
        assert estimate > 10.0
        assert estimate < 20.0

    def test_tripathi_exceeds_forkjoin_for_high_cv(self):
        # With hyperexponential children the Tripathi maximum exceeds the
        # CV-scaled fork/join premium — the ordering observed in the paper.
        tree = OperatorNode(OperatorKind.PARALLEL, leaf(10.0, cv=1.4), leaf(10.0, cv=1.4))
        assert TripathiEstimator().estimate(tree) > ForkJoinEstimator().estimate(tree)

    def test_factory(self):
        assert isinstance(create_estimator("fork-join"), ForkJoinEstimator)
        assert isinstance(create_estimator(EstimatorKind.TRIPATHI), TripathiEstimator)
        with pytest.raises(ModelError):
            create_estimator("unknown")


def unmemoised_tripathi(node):
    """Tripathi's fold without the memo: one integration per P-node."""
    if isinstance(node, LeafNode):
        return fit_distribution(node.mean_response_time, node.coefficient_of_variation)
    left = unmemoised_tripathi(node.left)
    right = unmemoised_tripathi(node.right)
    if node.operator is OperatorKind.SERIAL:
        return sum_of([left, right])
    return maximum_of([left, right])


def parallel_nodes(node) -> int:
    if isinstance(node, LeafNode):
        return 0
    own = 1 if node.operator is OperatorKind.PARALLEL else 0
    return own + parallel_nodes(node.left) + parallel_nodes(node.right)


@pytest.fixture
def integrations(monkeypatch):
    """Count the estimator's ``maximum_of`` calls (one integration each)."""
    calls = []
    original = estimators.maximum_of

    def counting(distributions):
        calls.append(len(distributions))
        return original(distributions)

    monkeypatch.setattr(estimators, "maximum_of", counting)
    return calls


class TestTripathiMemo:
    """Tripathi's maxima are memoised within one fold and never across folds."""

    INPUTS = {
        "erlang": dict(num_maps=40, num_reduces=6, num_nodes=4, cv=0.4),
        "hyperexponential": dict(num_maps=40, num_reduces=6, num_nodes=4, cv=1.4),
        "three-jobs": dict(num_jobs=3, num_maps=24, num_reduces=5, num_nodes=3, cv=0.3),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_memoised_fold_equals_unmemoised_fold_bit_for_bit(self, name):
        trace = ModifiedMVASolver(estimator=EstimatorKind.TRIPATHI).solve(
            make_input(**self.INPUTS[name])
        )
        expected = unmemoised_tripathi(trace.final_tree)
        actual = TripathiEstimator().estimate_node(trace.final_tree)
        assert actual.mean.hex() == expected.mean.hex()
        assert (
            actual.coefficient_of_variation.hex()
            == expected.coefficient_of_variation.hex()
        )

    def test_memo_skips_repeated_child_pairs(self, integrations):
        trace = ModifiedMVASolver(estimator=EstimatorKind.TRIPATHI).solve(
            make_input(**self.INPUTS["erlang"])
        )
        integrations.clear()
        TripathiEstimator().estimate(trace.final_tree)
        assert 0 < len(integrations) < parallel_nodes(trace.final_tree)

    def test_every_solve_integrates_afresh(self, integrations):
        solver = ModifiedMVASolver(estimator=EstimatorKind.TRIPATHI)
        model_input = make_input(**self.INPUTS["three-jobs"])
        first = solver.solve(model_input)
        first_count = len(integrations)
        second = solver.solve(model_input)
        assert first_count > 0
        assert len(integrations) - first_count == first_count
        assert second.job_response_time == first.job_response_time


class TestInitialization:
    def test_profile_based(self):
        initial = initialize_from_profile(30.0, 5.0, 20.0)
        assert initial.strategy is InitializationStrategy.PROFILE
        assert initial.response_time(TaskClass.MAP) == pytest.approx(30.0)

    def test_herodotou_based(self):
        dataflow = DataflowStatistics(
            input_bytes=1024 * MiB,
            split_bytes=128 * MiB,
            num_maps=8,
            num_reduces=2,
            map_output_ratio=0.4,
            reduce_output_ratio=0.1,
        )
        environment = HadoopEnvironment(
            num_nodes=4,
            map_slots_per_node=2,
            reduce_slots_per_node=2,
            costs=CostStatistics(
                hdfs_read_cost=1e-8,
                hdfs_write_cost=1e-8,
                local_io_cost=1e-8,
                network_cost=1e-8,
                map_cpu_cost=2e-9,
                reduce_cpu_cost=1e-9,
                sort_cpu_cost=1e-10,
            ),
        )
        initial = initialize_from_herodotou(dataflow, environment)
        assert initial.strategy is InitializationStrategy.HERODOTOU
        for task_class in TaskClass:
            assert initial.response_time(task_class) > 0


class TestModifiedMVASolver:
    def test_converges_for_single_job(self):
        trace = ModifiedMVASolver().solve(make_input())
        assert trace.converged
        assert trace.job_response_time > 0
        assert trace.num_iterations >= 2

    def test_iterations_record_deltas(self):
        trace = ModifiedMVASolver().solve(make_input())
        assert trace.iterations[-1].delta <= 1e-7

    def test_more_jobs_never_faster(self):
        single = ModifiedMVASolver().solve(make_input(num_jobs=1)).job_response_time
        quad = ModifiedMVASolver().solve(make_input(num_jobs=4)).job_response_time
        assert quad > single

    def test_more_nodes_never_slower_for_large_jobs(self):
        small = ModifiedMVASolver().solve(make_input(num_nodes=4, num_maps=32))
        large = ModifiedMVASolver().solve(make_input(num_nodes=8, num_maps=32))
        assert large.job_response_time <= small.job_response_time + 1e-6

    def test_response_time_at_least_service_demand(self):
        model_input = make_input()
        trace = ModifiedMVASolver().solve(model_input)
        total_demand = (
            model_input.demands[TaskClass.MAP].total_seconds
            + model_input.demands[TaskClass.SHUFFLE_SORT].total_seconds
            + model_input.demands[TaskClass.MERGE].total_seconds
        )
        # A job cannot finish faster than one map followed by one reduce.
        assert trace.job_response_time >= total_demand * 0.5

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ModelError):
            ModifiedMVASolver(epsilon=0.0)

    def test_inter_job_wait_zero_for_single_job(self):
        trace = ModifiedMVASolver().solve(make_input(num_jobs=1))
        assert trace.iterations[-1].inter_job_wait == 0.0

    def test_inter_job_wait_positive_for_multiple_jobs(self):
        trace = ModifiedMVASolver().solve(make_input(num_jobs=3))
        assert trace.iterations[-1].inter_job_wait > 0.0


class TestHadoop2PerformanceModel:
    def test_predict_both_estimators(self):
        model = Hadoop2PerformanceModel(make_input())
        results = model.predict_all()
        forkjoin = results[EstimatorKind.FORK_JOIN]
        tripathi = results[EstimatorKind.TRIPATHI]
        assert forkjoin.job_response_time > 0
        assert tripathi.job_response_time > 0
        assert forkjoin.converged and tripathi.converged
        # The paper observes the Tripathi estimate above the fork/join one.
        assert tripathi.job_response_time >= forkjoin.job_response_time * 0.95

    def test_trace_available_after_predict(self):
        model = Hadoop2PerformanceModel(make_input())
        model.predict(EstimatorKind.FORK_JOIN)
        assert model.trace(EstimatorKind.FORK_JOIN).num_iterations >= 1
        with pytest.raises(ModelError):
            model.trace(EstimatorKind.TRIPATHI)

    def test_summary_mentions_estimator(self):
        model = Hadoop2PerformanceModel(make_input())
        result = model.predict("fork-join")
        assert "fork-join" in result.summary()

    def test_block_size_effect_more_maps_larger_estimate_error_proxy(self):
        # Halving the block size doubles the number of maps; the tree deepens.
        base = Hadoop2PerformanceModel(make_input(num_maps=8)).predict()
        fine = Hadoop2PerformanceModel(make_input(num_maps=16)).predict()
        assert fine.tree_depth >= base.tree_depth
        assert fine.num_leaves > base.num_leaves


class TestComplexity:
    def test_counts_match_formulas(self):
        model_input = make_input(num_maps=10, num_reduces=2)
        assert timeline_task_count(model_input) == 10 + 2 * 11
        assert container_count(model_input) == 4 * 4
        report = estimate_complexity(model_input, iterations=5)
        assert report.iterations == 5
        assert report.timeline_operations == report.timeline_operations_per_iteration * 5
        assert report.total_operations == report.mva_operations + report.timeline_operations

    def test_mva_cost_grows_quadratically_with_jobs(self):
        one = estimate_complexity(make_input(num_jobs=1), iterations=1).mva_operations
        four = estimate_complexity(make_input(num_jobs=4), iterations=1).mva_operations
        assert four == 16 * one
