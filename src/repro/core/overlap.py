"""Intra- and inter-job overlap factors (paper Section 4.2.3).

The queueing delay a class-``i`` task suffers from class-``j`` tasks is
proportional to how much the two classes actually execute concurrently
(Mak & Lundstrom).  We compute:

* ``alpha[i][j]`` (**intra-job**): the expected number of class-``j`` tasks of
  the *same job* executing concurrently with a class-``i`` task, normalised
  by the class-``j`` population — i.e. the fraction of the class-``j``
  population a running class-``i`` task competes with, averaged over the
  class-``i`` busy time.  Computed exactly from the timeline.
* ``beta[i][j]`` (**inter-job**): the same quantity for tasks of a *different*
  job.  Concurrent jobs submitted together execute the same timeline shifted
  by their queueing delays; lacking per-job timelines, we approximate the
  probability that a class-``j`` task of another job is active at a random
  instant of the workload by the class-``j`` utilisation of the timeline
  (busy time / makespan, capped at 1).  This is the classical
  "independent-phases" approximation.

:func:`compute_overlap_factors` sums the pairwise overlaps in a Python
double loop over timeline entries.  The solver uses the NumPy twin,
:meth:`~repro.core.fast_timeline.TimelinePlacement.overlap_factors`; this
loop is the reference the tests compare it against.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from ..queueing.mva_overlap import OverlapFactors
from .parameters import TaskClass
from .timeline import Timeline


def _pairwise_overlap_seconds(timeline: Timeline, class_i: TaskClass, class_j: TaskClass) -> float:
    """Total overlap seconds between class-i entries and class-j entries.

    For ``i == j`` the overlap of an entry with itself is excluded.
    """
    entries_i = timeline.entries_of_class(class_i)
    entries_j = timeline.entries_of_class(class_j)
    total = 0.0
    for entry_i in entries_i:
        for entry_j in entries_j:
            if class_i is class_j and entry_i.instance == entry_j.instance:
                continue
            total += entry_i.overlap_with(entry_j)
    return total


def compute_intra_job_overlaps(timeline: Timeline) -> np.ndarray:
    """Intra-job overlap matrix ``alpha`` computed from one job's timeline.

    ``alpha[i, j] = overlap_seconds(i, j) / (busy_time(i) * population(j))``
    where ``population(j)`` excludes the task itself when ``i == j``.  The
    value is the average *fraction of the class-j population* concurrently
    executing with a class-i task, and lies in ``[0, 1]``.
    """
    classes = TaskClass.ordered()
    alpha = np.zeros((len(classes), len(classes)))
    for row, class_i in enumerate(classes):
        busy_i = timeline.busy_time(class_i)
        if busy_i <= 0:
            continue
        for col, class_j in enumerate(classes):
            population_j = len(timeline.entries_of_class(class_j))
            if class_i is class_j:
                population_j -= 1
            if population_j <= 0:
                continue
            overlap_seconds = _pairwise_overlap_seconds(timeline, class_i, class_j)
            alpha[row, col] = overlap_seconds / (busy_i * population_j)
    return np.clip(alpha, 0.0, 1.0)


def compute_inter_job_overlaps(timeline: Timeline) -> np.ndarray:
    """Inter-job overlap matrix ``beta`` (independent-phases approximation).

    ``beta[i, j]`` is the probability that a given class-``j`` task of another
    job is executing at a random instant during a class-``i`` task of this
    job.  With statistically identical, concurrently executing jobs this is
    approximated by the per-task utilisation of class ``j`` on the timeline:
    ``busy_time(j) / (population(j) * makespan)`` — independent of ``i``.
    """
    classes = TaskClass.ordered()
    beta = np.zeros((len(classes), len(classes)))
    makespan = timeline.makespan
    if makespan <= 0:
        return beta
    for col, class_j in enumerate(classes):
        population_j = len(timeline.entries_of_class(class_j))
        if population_j == 0:
            continue
        utilisation = timeline.busy_time(class_j) / (population_j * makespan)
        beta[:, col] = utilisation
    return np.clip(beta, 0.0, 1.0)


def compute_overlap_factors(timeline: Timeline) -> OverlapFactors:
    """Bundle the intra- and inter-job matrices into :class:`OverlapFactors`.

    Raises
    ------
    ModelError
        If the timeline is empty (no overlap can be defined).
    """
    if not timeline.entries:
        raise ModelError("cannot compute overlap factors of an empty timeline")
    class_names = tuple(cls.value for cls in TaskClass.ordered())
    return OverlapFactors(
        class_names=class_names,
        intra_job=compute_intra_job_overlaps(timeline),
        inter_job=compute_inter_job_overlaps(timeline),
    )
