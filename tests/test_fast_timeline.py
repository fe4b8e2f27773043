"""Equivalence tests: array-based placement vs. the scalar timeline path.

The modified-MVA solver relies on :mod:`repro.core.fast_timeline` producing
the *same placement* as :func:`repro.core.timeline.build_timeline`
(Algorithm 1, kept as the oracle) and overlap factors equal to
:func:`repro.core.overlap.compute_overlap_factors` up to floating-point
summation order.  These tests sweep the parameter space (cluster shapes, task
counts, slow start, merge enforcement, degenerate durations) and compare
entry for entry; ``tests/test_analytic_golden.py`` pins whole solves against
answers the scalar path computed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ModifiedMVASolver
from repro.core.fast_timeline import place_tasks
from repro.core.overlap import compute_overlap_factors
from repro.core.parameters import ModelInput, TaskClass, TaskClassDemands
from repro.core.timeline import build_timeline
from repro.exceptions import ModelError

#: (num_nodes, max_maps_per_node, max_reduces_per_node, num_maps, num_reduces).
SHAPES = [
    (1, 1, 1, 1, 1),
    (2, 2, 1, 7, 3),
    (3, 2, 2, 17, 5),
    (4, 8, 4, 40, 9),
    (5, 3, 2, 11, 4),
    (8, 2, 2, 64, 16),
]

#: (map, shuffle base, shuffle network, merge) duration quadruples.
DURATIONS = [
    (3.7, 2.1, 5.3, 1.9),
    (0.0, 0.0, 0.0, 0.0),
    (1e-3, 40.0, 0.1, 7.0),
    (12.5, 0.0, 9.0, 0.0),
]


def make_input(num_nodes, max_maps, max_reduces, num_maps, num_reduces, slow_start):
    demands = {cls: TaskClassDemands(cpu_seconds=1.0) for cls in TaskClass.ordered()}
    return ModelInput(
        num_nodes=num_nodes,
        max_maps_per_node=max_maps,
        max_reduces_per_node=max_reduces,
        num_maps=num_maps,
        num_reduces=num_reduces,
        demands=demands,
        slow_start=slow_start,
    )


def entry_tuples(timeline, task_class):
    return [
        (entry.instance.index, entry.node_id, entry.start, entry.end)
        for entry in timeline.entries_of_class(task_class)
    ]


class TestPlacementEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("durations", DURATIONS)
    @pytest.mark.parametrize("slow_start", [True, False])
    @pytest.mark.parametrize("enforce", [True, False])
    def test_placement_matches_build_timeline_bit_for_bit(
        self, shape, durations, slow_start, enforce
    ):
        model_input = make_input(*shape, slow_start)
        reference = build_timeline(
            model_input, *durations, enforce_merge_after_last_map=enforce
        )
        placement = place_tasks(
            model_input, *durations, enforce_merge_after_last_map=enforce
        )
        materialised = placement.to_timeline()
        for task_class in TaskClass.ordered():
            assert entry_tuples(materialised, task_class) == entry_tuples(
                reference, task_class
            ), f"{task_class.value} entries differ"
        assert materialised.border == reference.border
        assert materialised.slow_start == reference.slow_start
        assert placement.makespan == reference.makespan
        assert placement.last_map_end == reference.last_map_end()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("durations", DURATIONS[:2])
    def test_overlap_factors_match_scalar_path(self, shape, durations):
        model_input = make_input(*shape, True)
        reference = compute_overlap_factors(
            build_timeline(model_input, *durations)
        )
        fast = place_tasks(model_input, *durations).overlap_factors()
        assert fast.class_names == reference.class_names
        np.testing.assert_allclose(
            fast.intra_job, reference.intra_job, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            fast.inter_job, reference.inter_job, rtol=1e-12, atol=1e-12
        )

    def test_negative_duration_rejected(self):
        model_input = make_input(2, 2, 2, 4, 2, True)
        with pytest.raises(ModelError, match="map_duration"):
            place_tasks(model_input, -1.0, 0.0, 0.0, 0.0)

    def test_wave_compression_counts(self):
        model_input = make_input(3, 2, 1, 14, 2, True)
        placement = place_tasks(model_input, 5.0, 1.0, 1.0, 1.0)
        # capacity 6 -> waves of 6, 6, 2 maps starting at 0, 5, 10.
        assert placement.map_wave_counts.tolist() == [6, 6, 2]
        assert placement.map_wave_starts.tolist() == [0.0, 5.0, 10.0]
        assert placement.map_starts().shape == (14,)


class TestSolverWarmStart:
    def test_warm_start_reaches_same_fixed_point(self):
        model_input = make_input(4, 4, 2, 24, 8, True)
        solver = ModifiedMVASolver()
        cold = solver.solve(model_input)
        warm = solver.solve(model_input, initial_residences=cold.final_residences)
        assert warm.job_response_time == pytest.approx(
            cold.job_response_time, abs=solver.epsilon
        )
        # Seeding with the converged state itself needs the minimum number of
        # iterations (one to confirm, one for the convergence test).
        assert warm.num_iterations <= max(2, cold.num_iterations)

    def test_warm_start_rejects_missing_class(self):
        model_input = make_input(2, 2, 2, 4, 2, True)
        with pytest.raises(ModelError, match="missing class"):
            ModifiedMVASolver().solve(
                model_input, initial_residences={TaskClass.MAP: {}}
            )
