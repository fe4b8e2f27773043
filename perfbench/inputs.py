"""Seeded inputs of the three workloads.

The benchmark's ``--seed`` only ever reaches this module; the program sees
the scenarios it builds.  Every draw keeps a workload's cost stable across
seeds (comparisons pool runs made on different seeds), so the seed varies
the inputs' values, not how much work they are.
"""

from __future__ import annotations

import random

from repro.api import Scenario, ScenarioSuite
from repro.units import GiB, MiB

#: The seed whose solve-cold draw is the ROADMAP's wordcount baseline cases.
DEFAULT_SEED = 2017

#: Backends solve-cold times, in report order.
SOLVE_BACKENDS = ("mva-forkjoin", "mva-tripathi", "vianna", "simulator")
#: The analytic backends the ROADMAP wants faster than the simulator.
ANALYTIC_BACKENDS = SOLVE_BACKENDS[:3]

#: (label, nodes, input GiB, concurrent jobs): the ROADMAP's three scales.
SCALES = (("8n", 8, 4, 1), ("16n4j", 16, 16, 4), ("32n", 32, 64, 1))

#: The scale whose profile and duration CV the seed draws.  At 16 and 32
#: nodes, measured at the seed commit, the MVA backends' cost moves up to 8x
#: across profiles and Tripathi's ~8% per 0.01 of duration CV, so a draw
#: there would change how much work a pass is; those scales keep the
#: wordcount baseline (CV 0.3) and the seed draws only the simulator's seed.
DRAWN_SCALE = "8n"
CV_BAND = (0.2, 0.4)

#: Sweep-store grid axes (nodes x input GiB x 2 reduce counts, 2 backends).
SWEEP_NODES = range(2, 50)
SWEEP_GIB = range(1, 27)
SWEEP_REDUCES = (2, 4, 8, 16)
SWEEP_BACKENDS = ("aria", "herodotou")

#: Serve-mix: backends of the hot points, hot-set size, and the miss share.
HOT_BACKENDS = ("aria", "herodotou", "vianna", "mva-forkjoin")
HOT_SCENARIOS = 12
MISS_SHARE = 0.10
MISS_BACKEND = "mva-forkjoin"

PROFILES = ("wordcount", "terasort", "grep")


def solve_scenarios(seed: int, scales=SCALES) -> list[tuple[str, Scenario]]:
    """One cold scenario per scale, labelled by scale."""
    rng = random.Random(seed)
    scenarios = []
    for label, nodes, gib, jobs in scales:
        profile, cv = "wordcount", 0.3
        if seed == DEFAULT_SEED:
            scenario_seed = DEFAULT_SEED
        else:
            if label == DRAWN_SCALE:
                profile = rng.choice(PROFILES)
                cv = round(rng.uniform(*CV_BAND), 4)
            scenario_seed = rng.randrange(1, 1_000_000)
        scenarios.append(
            (
                label,
                Scenario(
                    workload=profile,
                    num_nodes=nodes,
                    input_size_bytes=gib * GiB,
                    num_jobs=jobs,
                    num_reduces=nodes,
                    duration_cv=cv,
                    seed=scenario_seed,
                    repetitions=1,
                ),
            )
        )
    return scenarios


def warmup_scenario() -> Scenario:
    """A small point outside every workload's measured set."""
    return Scenario(
        workload="wordcount",
        num_nodes=3,
        input_size_bytes=768 * MiB,
        num_reduces=3,
        duration_cv=0.25,
        seed=7,
        repetitions=1,
    )


def sweep_suite(seed: int, nodes=SWEEP_NODES, gib=SWEEP_GIB) -> ScenarioSuite:
    """The dense static-backend grid; the seed draws profile, CV and reduces."""
    rng = random.Random(seed)
    if seed == DEFAULT_SEED:
        profile, cv, reduces = "wordcount", 0.3, (4, 8)
    else:
        profile = rng.choice(PROFILES)
        cv = round(rng.uniform(*CV_BAND), 4)
        reduces = tuple(sorted(rng.sample(SWEEP_REDUCES, 2)))
    base = Scenario(workload=profile, duration_cv=cv, repetitions=1, seed=seed)
    scenarios = tuple(
        base.with_updates(num_nodes=n, input_size_bytes=g * GiB, num_reduces=r)
        for n in nodes
        for g in gib
        for r in reduces
    )
    return ScenarioSuite(name=f"perfbench-sweep-{seed}", scenarios=scenarios)


def _small_scenario(rng: random.Random) -> dict:
    nodes = rng.randint(2, 8)
    return Scenario(
        workload=rng.choice(PROFILES),
        num_nodes=nodes,
        input_size_bytes=128 * MiB * rng.randint(2, 16),
        num_reduces=nodes,
        duration_cv=round(rng.uniform(*CV_BAND), 9),
        seed=rng.randrange(1, 1_000_000),
        repetitions=1,
    ).to_dict()


class RequestStream:
    """One closed-loop client's requests: hot points, plus distinct misses.

    Each client draws from its own generator, so its sequence depends only
    on the seed and its index, however far it gets before the deadline.
    Miss scenarios draw a CV with nine decimals, so they never repeat.
    """

    def __init__(self, seed: int, client: int) -> None:
        self.hot = hot_points(seed)
        self._rng = random.Random(seed * 1009 + client + 1)

    def next(self) -> tuple[dict, str]:
        if self._rng.random() < MISS_SHARE:
            return _small_scenario(self._rng), MISS_BACKEND
        return self._rng.choice(self.hot)


def hot_points(seed: int) -> list[tuple[dict, str]]:
    """The serve-mix hot set: small scenarios x the hot backends."""
    rng = random.Random(seed)
    scenarios = [_small_scenario(rng) for _ in range(HOT_SCENARIOS)]
    return [(scenario, backend) for scenario in scenarios for backend in HOT_BACKENDS]
