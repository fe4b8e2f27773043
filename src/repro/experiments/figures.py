"""Definitions of the paper's evaluation figures (Section 5.2).

Each :class:`FigureDefinition` records the workload grid of one figure:

* Figure 10 — 1 GB input, 1 job, 4/6/8 nodes;
* Figure 11 — 1 GB input, 4 jobs, 4/6/8 nodes;
* Figure 12 — 5 GB input, 1 job, 4/6/8 nodes;
* Figure 13 — 5 GB input, 4 jobs, 4/6/8 nodes;
* Figure 14 — 5 GB input, 4 nodes, 1..4 jobs;
* Figure 15 — 5 GB input, 1 job, 64 MB blocks, 4/6/8 nodes.

``run_figure`` regenerates the three series of a figure (measured /
fork-join / Tripathi) using the experiment runner.  The bench scripts under
``benchmarks/`` print these series and check the qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import PredictionService, Scenario, ScenarioSuite, SqliteResultStore
from ..exceptions import ExperimentError
from ..units import MiB, gigabytes, megabytes
from .runner import DEFAULT_BASE_SEED, ExperimentSeries, run_suite_series

#: Default number of reduce tasks per WordCount job in the evaluation grid.
DEFAULT_REDUCES = 4


@dataclass(frozen=True)
class FigureDefinition:
    """Parameter grid of one evaluation figure."""

    figure_id: str
    description: str
    input_size_bytes: int
    block_size_bytes: int
    num_jobs_values: tuple[int, ...]
    node_counts: tuple[int, ...]
    x_label: str

    def x_values(self) -> list[float]:
        """The x-axis values (node counts or job counts)."""
        if self.x_label == "number of nodes":
            return [float(value) for value in self.node_counts]
        return [float(value) for value in self.num_jobs_values]

    def grid(self) -> list[tuple[int, int]]:
        """(num_nodes, num_jobs) pairs, aligned with :meth:`x_values`."""
        if self.x_label == "number of nodes":
            jobs = self.num_jobs_values[0]
            return [(nodes, jobs) for nodes in self.node_counts]
        nodes = self.node_counts[0]
        return [(nodes, jobs) for jobs in self.num_jobs_values]


FIGURE_DEFINITIONS: dict[str, FigureDefinition] = {
    "figure10": FigureDefinition(
        figure_id="figure10",
        description="Input: 1GB; #jobs: 1",
        input_size_bytes=gigabytes(1),
        block_size_bytes=megabytes(128),
        num_jobs_values=(1,),
        node_counts=(4, 6, 8),
        x_label="number of nodes",
    ),
    "figure11": FigureDefinition(
        figure_id="figure11",
        description="Input: 1GB; #jobs: 4",
        input_size_bytes=gigabytes(1),
        block_size_bytes=megabytes(128),
        num_jobs_values=(4,),
        node_counts=(4, 6, 8),
        x_label="number of nodes",
    ),
    "figure12": FigureDefinition(
        figure_id="figure12",
        description="Input: 5GB; #jobs: 1",
        input_size_bytes=gigabytes(5),
        block_size_bytes=megabytes(128),
        num_jobs_values=(1,),
        node_counts=(4, 6, 8),
        x_label="number of nodes",
    ),
    "figure13": FigureDefinition(
        figure_id="figure13",
        description="Input: 5GB; #jobs: 4",
        input_size_bytes=gigabytes(5),
        block_size_bytes=megabytes(128),
        num_jobs_values=(4,),
        node_counts=(4, 6, 8),
        x_label="number of nodes",
    ),
    "figure14": FigureDefinition(
        figure_id="figure14",
        description="#Nodes: 4; Input: 5GB",
        input_size_bytes=gigabytes(5),
        block_size_bytes=megabytes(128),
        num_jobs_values=(1, 2, 3, 4),
        node_counts=(4,),
        x_label="number of jobs",
    ),
    "figure15": FigureDefinition(
        figure_id="figure15",
        description="Block: 64MB; Input: 5GB; #jobs: 1",
        input_size_bytes=gigabytes(5),
        block_size_bytes=64 * MiB,
        num_jobs_values=(1,),
        node_counts=(4, 6, 8),
        x_label="number of nodes",
    ),
}


def figure_definition(figure_id: str) -> FigureDefinition:
    """Look up a figure definition by id (e.g. ``"figure12"``)."""
    try:
        return FIGURE_DEFINITIONS[figure_id]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown figure {figure_id!r}; known: {sorted(FIGURE_DEFINITIONS)}"
        ) from exc


def figure_suite(
    figure_id: str,
    repetitions: int = 3,
    base_seed: int = DEFAULT_BASE_SEED,
    duration_cv: float = 0.3,
    num_reduces: int = DEFAULT_REDUCES,
) -> ScenarioSuite:
    """The :class:`~repro.api.ScenarioSuite` behind one evaluation figure."""
    definition = figure_definition(figure_id)
    scenarios = tuple(
        Scenario(
            workload="wordcount",
            input_size_bytes=definition.input_size_bytes,
            block_size_bytes=definition.block_size_bytes,
            num_nodes=num_nodes,
            num_jobs=num_jobs,
            num_reduces=num_reduces,
            duration_cv=duration_cv,
            seed=base_seed,
            repetitions=repetitions,
        )
        for num_nodes, num_jobs in definition.grid()
    )
    return ScenarioSuite(
        name=figure_id, scenarios=scenarios, description=definition.description
    )


def run_figure(
    figure_id: str,
    repetitions: int = 3,
    base_seed: int = DEFAULT_BASE_SEED,
    duration_cv: float = 0.3,
    num_reduces: int = DEFAULT_REDUCES,
    store: SqliteResultStore | str | None = None,
    execution: str | None = None,
    service: PredictionService | None = None,
) -> ExperimentSeries:
    """Regenerate the series of one figure of the paper.

    ``store`` points the underlying service at a persistent result store, so
    an interrupted figure run resumes from the completed points; ``execution``
    picks the fan-out strategy (``"process"`` uses every core for the
    simulator points).  An explicit ``service`` takes precedence over both.
    """
    definition = figure_definition(figure_id)
    suite = figure_suite(
        figure_id,
        repetitions=repetitions,
        base_seed=base_seed,
        duration_cv=duration_cv,
        num_reduces=num_reduces,
    )
    return run_suite_series(
        suite,
        definition.x_label,
        definition.x_values(),
        service=service,
        store=store,
        execution=execution,
    )
