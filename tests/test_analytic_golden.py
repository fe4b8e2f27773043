"""Golden answers of the three analytic backends (``tests/data/analytic_golden.json``).

The file holds, for every scenario of ``paper_grid(repetitions=1)`` plus the
three benchmark scales (8 nodes / 4 GiB, 16 nodes / 16 GiB / 4 jobs, 32 nodes /
64 GiB) and each of ``mva-forkjoin``, ``mva-tripathi`` and ``vianna``, the
total, the per-phase times and the A2–A6 iteration count, as the scalar
timeline path (``build_timeline`` + ``compute_overlap_factors``) computed
them.  The solver now runs the array path of :mod:`repro.core.fast_timeline`;
its overlap matrices differ from the scalar path's only at floating-point
summation order, so totals and phases must stay within :data:`REL_TOL` and the
iteration counts must be identical.

Re-record (only when a model change is *meant* to move the answers)::

    PYTHONPATH=src python tests/test_analytic_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.api import Scenario, create_backend
from repro.api.dashboard import paper_grid
from repro.units import GiB

GOLDEN_PATH = Path(__file__).parent / "data" / "analytic_golden.json"

#: Relative drift allowed between the array and the scalar timeline path.
REL_TOL = 1e-12

BACKENDS = ("mva-forkjoin", "mva-tripathi", "vianna")

#: (label, nodes, input GiB, concurrent jobs) of the benchmark's cold solves.
SCALES = (("8n", 8, 4, 1), ("16n4j", 16, 16, 4), ("32n", 32, 64, 1))


def golden_scenarios() -> dict[str, Scenario]:
    """Scenarios of the golden file, keyed by a readable label."""
    scenarios = {
        f"paper-{index:02d}": scenario
        for index, scenario in enumerate(paper_grid(repetitions=1).scenarios)
    }
    for label, nodes, gib, jobs in SCALES:
        scenarios[f"scale-{label}"] = Scenario(
            workload="wordcount",
            num_nodes=nodes,
            input_size_bytes=gib * GiB,
            num_jobs=jobs,
            num_reduces=nodes,
            duration_cv=0.3,
            seed=2017,
            repetitions=1,
        )
    return scenarios


def record(scenario: Scenario, backend: str) -> dict:
    """Total, phases and iteration count of one cold ``predict``."""
    result = create_backend(backend).predict(scenario)
    return {
        "total": result.total_seconds,
        "phases": dict(result.phases),
        "iterations": result.metadata["iterations"],
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_scenario_and_backend():
    golden = load_golden()
    scenarios = golden_scenarios()
    assert sorted(golden) == sorted(scenarios)
    for label, scenario in scenarios.items():
        assert golden[label]["cache_key"] == scenario.cache_key(), label
        assert sorted(golden[label]["answers"]) == sorted(BACKENDS), label


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", sorted(golden_scenarios()))
def test_answer_within_tolerance_of_scalar_path(label, backend):
    expected = load_golden()[label]["answers"][backend]
    actual = record(golden_scenarios()[label], backend)
    assert actual["iterations"] == expected["iterations"]
    assert actual["total"] == pytest.approx(expected["total"], rel=REL_TOL, abs=0)
    assert sorted(actual["phases"]) == sorted(expected["phases"])
    for phase, seconds in expected["phases"].items():
        assert actual["phases"][phase] == pytest.approx(seconds, rel=REL_TOL, abs=0), phase


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", sorted(golden_scenarios()))
def test_predict_and_one_point_batch_agree_bit_for_bit(label, backend):
    """The route that computed an answer (and so the one the store keeps) is moot."""
    scenario = golden_scenarios()[label]
    instance = create_backend(backend)
    single = instance.predict(scenario)
    batched = instance.predict_batch([scenario])[0]
    assert batched.total_seconds == single.total_seconds
    assert dict(batched.phases) == dict(single.phases)
    assert batched.metadata["iterations"] == single.metadata["iterations"]


def write_golden() -> None:
    golden = {
        label: {
            "cache_key": scenario.cache_key(),
            "answers": {backend: record(scenario, backend) for backend in BACKENDS},
        }
        for label, scenario in golden_scenarios().items()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    write_golden()
