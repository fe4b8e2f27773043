"""Store-aware sweep scheduling: evaluate only the missing grid points.

A parameter sweep is a :class:`~repro.api.scenario.ScenarioSuite` × a set of
backends.  With a persistent :class:`~repro.api.store.SqliteResultStore` attached
to the service, most of a re-run (or a resumed, previously interrupted run)
is already answered on disk; the :class:`SweepScheduler` makes that explicit:

* :meth:`SweepScheduler.plan` partitions the target grid into memory hits,
  store hits, and missing ``(scenario, backend)`` points — without
  evaluating anything (the store is bulk-probed with
  :meth:`~repro.api.store.SqliteResultStore.get_many`, one indexed
  ``SELECT`` per 500 points);
* :meth:`SweepScheduler.run` executes the plan through
  :meth:`~repro.api.service.PredictionService.evaluate_suite` — cached
  points replay from memory/store, missing points fan out per the service's
  execution mode with batch-capable backends dispatched in one
  ``predict_batch`` call — and reports what was actually evaluated.

Interrupting a store-backed sweep and re-running it therefore re-executes
only the remainder: every completed point was persisted when it finished.

:meth:`SweepScheduler.run_cooperative` extends the same resume contract to
*k concurrent workers* draining one grid against one shared store: each
worker claims points through the store's ``leases`` table
(:mod:`repro.api.store.leases`) before evaluating them, heartbeats its
claims while it works, and re-plans after each drained batch.  A crashed
worker's leases expire and its points are re-claimed by the survivors, so
the grid always completes — with zero duplicate evaluations among live
workers.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field

from ..exceptions import ValidationError
from .resilience import RetryPolicy
from .results import FailedResult, PredictionResult
from .scenario import ScenarioSuite
from .service import PredictionService, ServiceStats, SuiteResult
from .store.leases import LeaseManager

#: One sweep point: (scenario index in the suite, backend name).
SweepPoint = tuple[int, str]


@dataclass(frozen=True)
class SweepPlan:
    """Partition of a sweep grid by where each point's answer will come from."""

    suite: ScenarioSuite
    backends: tuple[str, ...]
    #: Points answered by the service's in-memory cache.
    memory_hits: tuple[SweepPoint, ...]
    #: Points answered by the persistent result store.
    store_hits: tuple[SweepPoint, ...]
    #: Points that must actually be evaluated.
    missing: tuple[SweepPoint, ...]
    #: Missing points currently claimed by a *live peer worker* (populated
    #: only when :meth:`SweepScheduler.plan` is given a lease manager); they
    #: are excluded from :attr:`missing` — a cooperative worker neither
    #: evaluates nor waits on a point a peer is already computing.
    leased: tuple[SweepPoint, ...] = field(default=())

    @property
    def total_points(self) -> int:
        """Number of (scenario, backend) points in the grid."""
        return len(self.suite.scenarios) * len(self.backends)

    @property
    def cached_points(self) -> int:
        """Points that will replay from memory or store."""
        return len(self.memory_hits) + len(self.store_hits)

    def describe(self) -> str:
        """One-line human-readable plan summary.

        Reports where every already-answered point comes from — memory hits
        and store hits separately, not just the missing-point count — so a
        resumed sweep's log shows how much the persistent store saved.
        Points leased to live peer workers are reported when a cooperative
        plan found any.
        """
        leased = f", {len(self.leased)} leased to peers" if self.leased else ""
        return (
            f"sweep {self.suite.name!r}: {self.total_points} points "
            f"({len(self.suite.scenarios)} scenarios x {len(self.backends)} backends), "
            f"{len(self.memory_hits)} memory hits, {len(self.store_hits)} store hits, "
            f"{len(self.missing)} to evaluate{leased}"
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one scheduled sweep run."""

    plan: SweepPlan
    result: SuiteResult
    #: Service counters accumulated by this run (after minus before).
    #: Exact for a service driven by one sweep at a time — the CLI and the
    #: experiment runner; a service shared by *concurrent* sweep runs
    #: interleaves counter updates between the two snapshots, so these
    #: deltas then include the other runs' work (use :attr:`plan` for the
    #: per-run intent in that case).
    stats: ServiceStats

    @property
    def evaluated_points(self) -> int:
        """Backend evaluations this run actually performed."""
        return self.stats.evaluations


@dataclass(frozen=True)
class CooperativeOutcome(SweepOutcome):
    """One worker's share of a cooperatively drained sweep.

    :attr:`SweepOutcome.result` holds the *complete* grid (replayed from the
    shared store after the drain), while the counters below describe what
    this worker itself did — summed across workers, ``evaluated`` equals the
    number of unique missing points when no worker crashed mid-claim.
    """

    worker_id: str = "?"
    #: Plan → claim → evaluate → release cycles this worker ran.
    rounds: int = 0
    #: Leases this worker won (including points that then failed).
    claimed: int = 0
    #: Points this worker successfully evaluated.
    evaluated: int = 0
    #: Rounds spent sleeping because live peers held every remaining point.
    waits: int = 0
    #: Points that failed terminally for this worker (not re-claimed by it).
    failed: int = 0
    #: Leases this worker lost to peer takeover (it stalled past the TTL).
    lost: int = 0

    def describe(self) -> str:
        """One-line summary of this worker's share of the sweep."""
        return (
            f"worker {self.worker_id!r}: {self.evaluated} evaluated of "
            f"{self.claimed} claimed over {self.rounds} round(s), "
            f"{self.waits} wait(s), {self.failed} failed, {self.lost} lease(s) lost"
        )


class SweepScheduler:
    """Plan and run sweeps against a (possibly store-backed) service."""

    def __init__(self, service: PredictionService) -> None:
        self._service = service

    @property
    def service(self) -> PredictionService:
        """The prediction service executing the sweeps."""
        return self._service

    def _resolve_backends(self, backends: Sequence[str] | None) -> tuple[str, ...]:
        return (
            tuple(backends) if backends is not None else tuple(self._service.backends())
        )

    def plan(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        leases: LeaseManager | None = None,
    ) -> SweepPlan:
        """Compute which points of ``suite`` × ``backends`` still need work.

        Purely a read: probes the service cache and bulk-probes the store,
        evaluates nothing, and leaves the service's hit counters untouched.
        Duplicate scenarios share one underlying point; every (scenario
        index, backend) pair is still reported so the plan's point counts
        match the grid the caller asked for.

        With ``leases`` (a cooperative worker's manager), missing points
        whose lease is currently held by a *live peer* move to
        :attr:`SweepPlan.leased` — advisory only; the atomic claim still
        happens through :meth:`~repro.api.store.leases.LeaseManager.try_claim`
        at evaluation time.
        """
        names = self._resolve_backends(backends)
        keys = [scenario.cache_key() for scenario in suite.scenarios]
        unique_points = list(
            dict.fromkeys((key, name) for key in keys for name in names)
        )
        sources = self._service.probe_points(unique_points)
        memory: list[SweepPoint] = []
        stored: list[SweepPoint] = []
        missing: list[SweepPoint] = []
        leased: list[SweepPoint] = []
        peer_held: dict[tuple[str, str], bool] = {}
        if leases is not None:
            now = time.time()
            for key, name in unique_points:
                if (key, name) in sources:
                    continue
                info = leases.read(self._service.point_token(key, name))
                peer_held[(key, name)] = (
                    info is not None
                    and not info.expired(now)
                    and info.worker != leases.worker_id
                )
        for index, key in enumerate(keys):
            for name in names:
                point = (index, name)
                source = sources.get((key, name))
                if source == "memory":
                    memory.append(point)
                elif source == "store":
                    stored.append(point)
                elif peer_held.get((key, name)):
                    leased.append(point)
                else:
                    missing.append(point)
        return SweepPlan(
            suite=suite,
            backends=names,
            memory_hits=tuple(memory),
            store_hits=tuple(stored),
            missing=tuple(missing),
            leased=tuple(leased),
        )

    def run(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        on_error: str | None = None,
        plan: SweepPlan | None = None,
    ) -> SweepOutcome:
        """Plan, then evaluate — completed points replay, the rest execute.

        Re-running after an interruption (with a store attached) resumes the
        sweep: the plan shrinks to the unfinished remainder and only those
        points are evaluated.  That resume contract also covers *failing*
        runs: every completed point is persisted the moment it finishes, so
        an exception escaping mid-run (``on_error="raise"``, the default)
        loses only the failing points.  ``on_error="skip"`` / ``"record"``
        instead finish the sweep with partial rows (see
        :meth:`~repro.api.service.PredictionService.evaluate_suite`).

        ``plan`` short-circuits the probe: a caller that already computed
        (and, say, printed) the plan passes it in, so what was announced is
        exactly what executes — no second store probe between the two.
        """
        if plan is None:
            plan = self.plan(suite, backends)
        before = self._service.stats()
        result = self._service.evaluate_suite(suite, plan.backends, on_error=on_error)
        after = self._service.stats()
        return SweepOutcome(plan=plan, result=result, stats=after.delta(before))

    def run_cooperative(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        *,
        worker_id: str,
        lease_ttl: float | None = None,
        on_error: str | None = None,
        poll_interval: float | None = None,
        claim_limit: int | None = None,
    ) -> "CooperativeOutcome":
        """Drain the grid cooperatively with every peer sharing the store.

        The worker loops *plan → claim → evaluate → release* until nothing
        is left: each round it re-plans against the shared store (points
        peers completed since the last round become store hits), atomically
        claims a batch of unanswered points through the lease namespace,
        evaluates exactly the points it won, and releases each claim only
        after the result is durably in the store.  A background heartbeat
        renews held claims, so one slow evaluation cannot silently expire
        its own lease; when every remaining point is leased to live peers
        the worker sleeps ``poll_interval`` (default ``lease_ttl / 10``) and
        re-plans — a *crashed* peer's claims expire within one TTL and are
        taken over, so the sweep always completes.

        ``claim_limit`` caps how many points one round may claim.  Without
        it the first worker to plan claims every unanswered point (claims
        are cheap row upserts, far faster than evaluations), which leaves
        late-starting peers nothing to do; with ``claim_limit=n`` each
        worker takes at most ``n`` points per round and re-plans, so a
        k-worker fabric load-balances at the cost of one extra plan per
        batch.

        Requires a store-backed service (the store carries both the results
        and the claim namespace).  Under ``on_error="skip"``/``"record"``
        a point that fails terminally never reaches the store; such points
        are remembered locally and not re-claimed, so a failing backend
        cannot livelock the loop.  The returned outcome replays the full
        grid (one final :meth:`~PredictionService.evaluate_suite`, all store
        hits) and reports this worker's share of the work.
        """
        if self._service.store is None:
            raise ValidationError(
                "cooperative sweeps require a store-backed service "
                "(the store carries the results and the claim namespace)"
            )
        leases = self._service.store.lease_manager(worker_id, ttl=lease_ttl)
        wait = poll_interval if poll_interval is not None else leases.ttl / 10.0
        if wait <= 0:
            raise ValidationError(f"poll_interval must be positive, got {wait}")
        if claim_limit is not None and claim_limit < 1:
            raise ValidationError(f"claim_limit must be at least 1, got {claim_limit}")
        before = self._service.stats()
        failed_locally: set[SweepPoint] = set()
        claimed = evaluated = released = waits = rounds = 0
        keys = [scenario.cache_key() for scenario in suite.scenarios]
        with leases.heartbeat():
            try:
                while True:
                    rounds += 1
                    plan = self.plan(suite, backends, leases=leases)
                    todo = [p for p in plan.missing if p not in failed_locally]
                    if not todo and not plan.leased:
                        break  # grid complete (or only locally-failed points left)
                    won: list[SweepPoint] = []
                    for index, name in todo:
                        if claim_limit is not None and len(won) >= claim_limit:
                            break
                        token = self._service.point_token(keys[index], name)
                        if not leases.try_claim(token):
                            continue
                        if (keys[index], name) in self._service.probe_points(
                            [(keys[index], name)]
                        ):
                            # A peer answered this point in the plan→claim
                            # window (it claimed, evaluated, persisted, and
                            # released while our plan was in flight).  Peers
                            # persist *before* releasing, so holding the
                            # lease makes this probe definitive: yield the
                            # point back instead of counting it as our work.
                            leases.release(token)
                            continue
                        won.append((index, name))
                    claimed += len(won)
                    if not won:
                        # Everything unanswered is leased to live peers:
                        # wait for them to finish (or their leases to
                        # expire) and re-plan.
                        waits += 1
                        time.sleep(wait)
                        continue
                    for index, name in won:
                        token = self._service.point_token(keys[index], name)
                        try:
                            outcome = self._service.evaluate_point(
                                suite.scenarios[index], name, on_error=on_error
                            )
                        finally:
                            # Success is durably in the store before this
                            # release (evaluate_point persists on completion);
                            # on failure the release lets a peer retry the
                            # point — this worker won't (failed_locally).
                            leases.release(token)
                            released += 1
                        if outcome is None or not outcome.ok:
                            failed_locally.add((index, name))
                        else:
                            evaluated += 1
            finally:
                leases.release_all()
        result = self._service.evaluate_suite(suite, plan.backends, on_error=on_error)
        after = self._service.stats()
        return CooperativeOutcome(
            plan=plan,
            result=result,
            stats=after.delta(before),
            worker_id=worker_id,
            rounds=rounds,
            claimed=claimed,
            evaluated=evaluated,
            waits=waits,
            failed=len(failed_locally),
            lost=len(leases.lost),
        )

    def iter_results(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        *,
        on_error: str | None = None,
        plan: SweepPlan | None = None,
        max_workers: int | None = None,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> Iterator[tuple[int, str, "PredictionResult | FailedResult | None"]]:
        """Stream the sweep: yield each point the moment its answer exists.

        Yields ``(scenario index, backend, result)`` tuples — first every
        already-answered point (memory/store hits replay instantly), then
        the missing points in *completion* order, evaluated concurrently on
        a private thread pool.  This is the serving layer's sweep path: an
        HTTP client sees points arrive incrementally instead of waiting for
        the whole grid.

        Points that fail terminally follow ``on_error`` exactly as
        :meth:`~repro.api.service.PredictionService.evaluate_point` does
        (``"skip"`` yields ``None``, ``"record"`` yields a
        :class:`~repro.api.results.FailedResult`, ``"raise"`` propagates).
        ``retry`` / ``timeout`` are per-call policy overrides.  Closing the
        generator early (a disconnected client) cancels the not-yet-started
        points and waits for in-flight ones — each of those still records to
        cache and store, so an abandoned sweep leaves the store consistent
        and a re-run resumes from what completed.
        """
        if plan is None:
            plan = self.plan(suite, backends)
        for index, name in (*plan.memory_hits, *plan.store_hits):
            yield (
                index,
                name,
                self._service.evaluate(
                    suite.scenarios[index], name, retry=retry, timeout=timeout
                ),
            )
        missing = list(plan.missing)
        if not missing:
            return
        workers = max_workers or min(len(missing), os.cpu_count() or 2)
        executor = ThreadPoolExecutor(max_workers=max(1, workers))
        try:
            futures = {
                executor.submit(
                    self._service.evaluate_point,
                    suite.scenarios[index],
                    name,
                    on_error=on_error,
                    retry=retry,
                    timeout=timeout,
                ): (index, name)
                for index, name in missing
            }
            for future in as_completed(futures):
                index, name = futures[future]
                yield index, name, future.result()
        finally:
            # On normal exhaustion this is a no-op; on early close or a
            # raising point it cancels the queued remainder and waits for
            # in-flight evaluations (which persist their results) to finish.
            executor.shutdown(wait=True, cancel_futures=True)
