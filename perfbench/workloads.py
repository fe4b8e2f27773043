"""The three workloads: what each times, checks and reports.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`.  An *op* is the unit a workload's ``ops_per_s`` and
``p50_ms`` are measured on; per-layer metrics are normalised per op.  Every
end-to-end time is taken with the context's :class:`~clock.Clock`, so it is
adjusted for the host's speed at the moment it was measured.

* ``solve-cold`` exists because ``repro.core``, ``repro.queueing`` and
  ``repro.hadoop`` do nearly all its work while the store, the daemon and the
  memory cache do none: model-stage (A2-A5) and simulator changes show here
  and nowhere else.  Op: one cold solve of one (scenario, backend) point;
  ``p50_ms`` is the median time of one pass over all of them.
* ``sweep-store`` exists because the model core does nothing in it: the
  cold pass is store writes plus batch kernels, a resume store open, plan
  and reads, so store, sweep and ``cache_key`` changes show and model
  changes predict no change.  Op: one grid point of a resume (a warm pass
  from a fresh service over the store one cold pass filled at the start of
  the run); ``p50_ms`` is the median resume time.  The cold pass is timed
  and checked too, but reported per layer only: it creates one file per
  point, and on the ext4 file system (no journal) of the host the
  benchmark was defined on, creating a file costs 0.06-0.9 ms depending on
  how many files anything deleted in the minutes before, so a metric
  timing cold pass plus resume spread 17% and 50% over two ten-run sets.
  For the same reason the run deletes no store before it ends.
* ``serve-mix`` exists because HTTP and the service's memory-hit path set
  its median while cold solves set its tail; the store is idle.  Op: one
  ``POST /predict`` from a single closed-loop client; ``ops_per_s`` and
  ``p50_ms`` are medians over 1 s segments of the completed-request rate
  and of the client latency.  Times are adjusted by round trips to a
  reference HTTP server (``echo.py``), with client, daemon and echo server
  pinned to one CPU so the probe times the CPU that does the work: over
  five runs the median latency spread 23% adjusted by the CPU probe (which
  does no socket or process-switch work) and 3% by the echo probe.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from clock import Clock, Timing
from echo import EchoProbe
from names import SERVICE_COUNTERS, layer_values
from spans import Recorder

from repro.api import PredictionService, Scenario, SweepScheduler
from repro.serve.loadgen import DaemonClient, percentile

#: Relative tolerance of the default-seed reference answers (the repo's
#: batch/fast-timeline equivalence tolerance).
REFERENCE_RTOL = 1e-9
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Serve-mix load runs in segments this long, with a host-speed probe between.
SEGMENT_S = 1.0
#: Closed-loop serve-mix clients.  One: with two, a memory hit waited for the
#: daemon's GIL behind the other client's cold solve about a third of the
#: time, so the median latency sat between two modes and moved by half
#: from run to run.
CLIENTS = 1
#: Echo round trip (``echo.py``) serve-mix times are adjusted against, seconds.
ECHO_REFERENCE_S = 0.00125
#: Memory hits replayed in-process for ``api.service.hit_us``.
HIT_REPLAY = 2000


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    reference: dict | None = None
    clock: Clock = field(default_factory=Clock)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics, and the workload's own figures (see ``names.py``).
    layers: dict[str, float] = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import(root: Path) -> None:
    """A fresh interpreter importing the program's API: set-up's import cost."""
    subprocess.run(
        [sys.executable, "-c", "import repro.api, repro.serve"],
        env=child_env(root),
        cwd=root,
        check=True,
        timeout=60,
    )


def repeat_until(budget: float, minimum: int, op) -> list:
    """Run ``op`` while the next run fits ``budget`` wall seconds; its results."""
    results: list = []
    walls: list[float] = []
    started = time.perf_counter()
    while len(results) < minimum or (
        time.perf_counter() - started + statistics.median(walls) <= budget
    ):
        results.append(op())
        walls.append(time.perf_counter() - started - sum(walls))
    return results


def op_span(recorder: Recorder | None, name: str):
    """A root span around one measured op when tracing, else nothing."""
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def run_traced(ctx: Context, op) -> tuple[Recorder, list[float]]:
    """The traced half of a run: ``op(recorder)`` under the layer shims."""
    recorder = Recorder()
    recorder.install()
    try:
        durations = repeat_until(ctx.seconds / 2, 1, lambda: op(recorder))
    finally:
        recorder.uninstall()
    return recorder, durations


def trace_summary(out: Outcome, spans: dict, ops: int, op_seconds: float,
                  overhead: float) -> None:
    """Per-layer values of a traced phase (``Recorder.export()``), plus the
    share of op time no layer span covers and the tracing overhead."""
    out.layers.update(layer_values(spans["summary"], ops))
    out.layers["trace.ops"] = ops
    out.layers["trace.uncovered_share"] = 1.0 - spans["covered_s"] / op_seconds
    out.layers["trace.overhead_share"] = overhead
    out.facts["missing_shims"] = spans["missing"]


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


# -- solve-cold ---------------------------------------------------------------


def solve_cold(ctx: Context) -> Outcome:
    scales = inputs.SCALES[:1] if ctx.tiny else inputs.SCALES
    points = [
        (label, scenario, backend)
        for label, scenario in inputs.solve_scenarios(ctx.seed, scales)
        for backend in inputs.SOLVE_BACKENDS
    ]
    reference = ctx.reference if ctx.seed == inputs.DEFAULT_SEED else None
    out = Outcome()

    setups = []
    for _ in range(1 if ctx.tiny else SETUP_REPEATS):
        with ctx.clock.timed() as setup:
            fresh_import(ctx.root)
            service = PredictionService(cache=False)
            for backend in inputs.SOLVE_BACKENDS:
                service.evaluate(inputs.warmup_scenario(), backend)
        setups.append(setup.seconds)

    times: dict[tuple[str, str], list[float]] = {}
    iterations = {backend: 0 for backend in inputs.ANALYTIC_BACKENDS}
    unconverged = {backend: 0 for backend in inputs.ANALYTIC_BACKENDS}

    def one_pass(recorder: Recorder | None = None) -> float:
        pass_seconds = 0.0
        for label, scenario, backend in points:
            out.attempted += 1
            with ctx.clock.timed() as solve:
                try:
                    with op_span(recorder, "bench.solve"):
                        result = service.evaluate(scenario, backend)
                except Exception as exc:  # every raised error is a failed op
                    print(f"solve-cold: {label}/{backend} raised {exc!r}", file=sys.stderr)
                    result = None
            pass_seconds += solve.seconds
            if recorder is None:
                times.setdefault((label, backend), []).append(solve.seconds)
            if result is None or not _check_solve(result, label, backend, reference):
                out.failed += 1
                continue
            if backend in iterations and recorder is not None:
                iterations[backend] += int(result.metadata.get("iterations", 0))
                unconverged[backend] += 0 if result.metadata.get("converged") else 1
        return pass_seconds

    untraced_budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    passes = repeat_until(untraced_budget, 1 if ctx.trace or ctx.tiny else 2, one_pass)
    per_scale = {key: statistics.median(values) for key, values in times.items()}
    out.metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(points) / sum(per_scale.values()),
        "p50_ms": statistics.median(passes) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    for backend in inputs.SOLVE_BACKENDS:
        out.layers[f"solve_s.{backend}"] = sum(
            seconds for (_, name), seconds in per_scale.items() if name == backend
        )
        for label, *_ in scales:
            out.layers[f"solve_s.{backend}.{label}"] = per_scale[(label, backend)]
    for backend in inputs.ANALYTIC_BACKENDS:
        for label, *_ in scales:
            out.layers[f"beats_simulator.{backend}.{label}"] = float(
                per_scale[(label, backend)] < per_scale[(label, "simulator")]
            )

    if ctx.trace:
        recorder, traced = run_traced(ctx, one_pass)
        ops = len(points) * len(traced)
        trace_summary(
            out, recorder.export(), ops, recorder.root_seconds(),
            statistics.median(traced) / statistics.median(passes) - 1.0,
        )
        solves = len(scales) * len(traced)
        for backend in inputs.ANALYTIC_BACKENDS:
            out.layers[f"core.mva_solver.iterations.{backend}"] = iterations[backend] / solves
            out.layers[f"core.mva_solver.unconverged.{backend}"] = unconverged[backend] / solves
    out.facts["passes"] = len(passes)
    return out


def _check_solve(result, label: str, backend: str, reference: dict | None) -> bool:
    """Finite positive total, converged MVA, and the default-seed reference."""
    if not getattr(result, "ok", False) or not _finite_positive(result.total_seconds):
        print(f"solve-cold: {label}/{backend} answered {result!r}", file=sys.stderr)
        return False
    if backend in inputs.ANALYTIC_BACKENDS and result.metadata.get("converged") is not True:
        print(f"solve-cold: {label}/{backend} did not converge", file=sys.stderr)
        return False
    if reference is not None:
        expected = reference[f"{label}/{backend}"]
        if abs(result.total_seconds - expected) > REFERENCE_RTOL * abs(expected):
            print(
                f"solve-cold: {label}/{backend} answered {result.total_seconds!r}, "
                f"reference {expected!r}",
                file=sys.stderr,
            )
            return False
    return True


def reference_answers(seed: int) -> dict[str, float]:
    """Totals of every solve-cold point at ``seed`` (to commit as the reference)."""
    service = PredictionService(cache=False)
    return {
        f"{label}/{backend}": service.evaluate(scenario, backend).total_seconds
        for label, scenario in inputs.solve_scenarios(seed)
        for backend in inputs.SOLVE_BACKENDS
    }


# -- sweep-store --------------------------------------------------------------


def _directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def sweep_store(ctx: Context) -> Outcome:
    if ctx.tiny:
        suite = inputs.sweep_suite(ctx.seed, nodes=range(2, 6), gib=range(1, 4))
    else:
        suite = inputs.sweep_suite(ctx.seed)
    backends = inputs.SWEEP_BACKENDS
    points = len(suite.scenarios) * len(backends)
    out = Outcome()

    setups = []
    warmup = inputs.sweep_suite(ctx.seed, nodes=range(2, 4), gib=range(1, 3))
    for repeat in range(1 if ctx.tiny else SETUP_REPEATS):
        path = ctx.work / f"setup-{repeat}"
        # Raw wall seconds: set-up is mostly a fresh interpreter's imports,
        # which the CPU probe does not track here (spread 27% adjusted over
        # ten runs); raw, its median stayed within 4% over three ten-run sets.
        started = time.perf_counter()
        fresh_import(ctx.root)
        service = PredictionService(backends=backends, store=path)
        SweepScheduler(service).run(warmup)
        setups.append(time.perf_counter() - started)

    counters = {name: 0 for name in SERVICE_COUNTERS}
    reference_series: dict[str, list[float]] = {}

    def one_pass(path: Path, phase: str, recorder: Recorder | None = None) -> Timing:
        with ctx.clock.timed() as sweep, op_span(recorder, f"bench.sweep.{phase}"):
            service = PredictionService(backends=backends, store=path)
            outcome = SweepScheduler(service).run(suite)
        out.attempted += points
        out.failed += _check_sweep(outcome, phase, backends, reference_series)
        if recorder is not None:
            for name in SERVICE_COUNTERS:
                counters[name] += getattr(outcome.stats, name)
        return sweep

    # One cold pass fills the store every timed resume reads; nothing is
    # deleted until the run ends (see the module docstring).
    store = ctx.work / "store"
    cold = one_pass(store, "cold")
    warms: list[Timing] = []

    def one_resume() -> float:
        warms.append(one_pass(store, "warm"))
        return warms[-1].seconds

    untraced_budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    resumes = repeat_until(untraced_budget, 1 if ctx.trace or ctx.tiny else 3, one_resume)
    warm = statistics.median(resumes)
    warm_raw = statistics.median(timing.raw for timing in warms)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": points / warm,
        "p50_ms": warm * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.layers["sweep_cold_points_per_s"] = points / cold.raw
    out.layers["sweep_warm_points_per_s"] = points / warm_raw
    out.layers["sweep.warm_share"] = warm_raw / (cold.raw + warm_raw)
    out.layers["api.store.bytes"] = _directory_bytes(store)

    if ctx.trace:
        cycle_paths = (ctx.work / f"traced-{index}" for index in itertools.count())
        traced_warms: list[float] = []

        def one_cycle(recorder: Recorder) -> float:
            path = next(cycle_paths)
            cold_raw = one_pass(path, "cold", recorder).raw
            traced_warms.append(one_pass(path, "warm", recorder).raw)
            return cold_raw + traced_warms[-1]

        recorder, traced = run_traced(ctx, one_cycle)
        ops = 2 * points * len(traced)
        # Overhead from resumes only: the cold pass's file creation varies
        # more between passes than tracing costs.
        trace_summary(
            out, recorder.export(), ops, recorder.root_seconds(),
            statistics.median(traced_warms) / warm_raw - 1.0,
        )
        for name in SERVICE_COUNTERS:
            out.layers[f"api.service.{name}"] = counters[name] / ops
    out.facts.update(resumes=len(resumes), points=points, cold_pass_s=cold.raw)
    return out


def _check_sweep(outcome, phase: str, backends, reference_series: dict) -> int:
    """Failed points of one pass: not finite, evaluated when warm, or drifted."""
    failed = 0
    if phase == "warm" and outcome.stats.evaluations:
        print(f"sweep-store: warm pass evaluated {outcome.stats.evaluations} points",
              file=sys.stderr)
        failed += outcome.stats.evaluations
    for backend in backends:
        series = outcome.result.series(backend)
        failed += sum(1 for value in series if not _finite_positive(value))
        expected = reference_series.setdefault(backend, series)
        if series != expected:
            drifted = sum(1 for a, b in zip(series, expected) if a != b)
            print(f"sweep-store: {phase} {backend} series differs at {drifted} points",
                  file=sys.stderr)
            failed += drifted
    return failed


def default_store_engine(work: Path) -> str:
    """The engine the default ``open_store`` picks on a fresh directory."""
    from repro.api import open_store

    path = work / "engine-probe"
    engine = open_store(path).format_name
    shutil.rmtree(path, ignore_errors=True)
    return engine


# -- serve-mix ----------------------------------------------------------------


class Daemon:
    """A ``repro serve --port 0`` child process."""

    def __init__(self, ctx: Context, name: str, traced: bool) -> None:
        self.log = ctx.work / f"{name}.log"
        self.summary = ctx.work / f"{name}-spans.json"
        if traced:
            launcher = Path(__file__).with_name("daemon.py")
            command = [sys.executable, str(launcher), str(self.summary)]
        else:
            command = [sys.executable, "-m", "repro"]
        command += ["serve", "--port", "0"]
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ctx.root, env=child_env(ctx.root),
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.port = self._wait_ready()
        self.client = DaemonClient("127.0.0.1", self.port, timeout=60.0)

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    return int(line.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"daemon did not start: {self.log.read_text(errors='replace')}")

    def warm_up(self) -> None:
        scenario = inputs.warmup_scenario().to_dict()
        for backend in inputs.HOT_BACKENDS:
            payload = {"scenario": scenario, "backend": backend}
            status, body = self.client.post_json("/predict", payload)
            if status != 200:
                raise RuntimeError(f"warm-up {backend} answered {status}: {body}")

    def service_stats(self) -> dict:
        status, body = self.client.get_json("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return body["service"]

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


@dataclass
class Traffic:
    """Client-side bookkeeping of one closed-loop phase."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: Per segment: completed requests per second and median latency (ms).
    segment_rates: list[float] = field(default_factory=list)
    segment_p50s: list[float] = field(default_factory=list)
    hit_ms: list[float] = field(default_factory=list)
    miss_ms: list[float] = field(default_factory=list)
    rejected: int = 0
    failed: int = 0
    #: First 200 answer per point key, and how many 200s each key got.
    answers: dict[str, tuple[dict, str, tuple]] = field(default_factory=dict)
    answered: dict[str, int] = field(default_factory=dict)
    mismatched: int = 0
    #: (scenario, backend) of every repeated request, in order (hit replay).
    repeats: list[tuple[dict, str]] = field(default_factory=list)
    #: First-seen answers, solver iterations and unconverged answers per
    #: analytic backend.
    solves: Counter = field(default_factory=Counter)
    iterations: Counter = field(default_factory=Counter)
    unconverged: Counter = field(default_factory=Counter)


def drive(daemon: Daemon, ctx: Context, budget: float, minimum: int) -> Traffic:
    """Closed loop: ``CLIENTS`` threads each send the next request on a reply.

    Load runs in segments of ``SEGMENT_S``; between segments the client
    waits while the clock probes the host, and a segment's latencies are
    scaled by its own speed factor.  The end-to-end figures are medians over
    segments, so a stall of the shared host that lasts a few seconds moves
    them no more than it moves one segment.
    """
    traffic = Traffic()
    streams = [inputs.RequestStream(ctx.seed, index) for index in range(CLIENTS)]
    seen: set[str] = set()
    started = time.perf_counter()
    while time.perf_counter() - started < budget or len(traffic.latencies) < minimum:
        segment: list[tuple[float, bool]] = []
        with ctx.clock.timed() as timing:
            _run_segment(daemon, streams, seen, traffic, segment)
        latencies = [latency * timing.factor for latency, _ in segment]
        for latency, (_, first) in zip(latencies, segment):
            (traffic.miss_ms if first else traffic.hit_ms).append(latency)
        traffic.latencies += latencies
        traffic.wall += timing.seconds
        if latencies:
            traffic.segment_rates.append(len(latencies) / timing.seconds)
            traffic.segment_p50s.append(statistics.median(latencies))
    return traffic


def _run_segment(daemon: Daemon, streams, seen: set, traffic: Traffic, segment: list) -> None:
    """One segment of closed-loop load; appends ``(latency ms, first seen)``."""
    lock = threading.Lock()
    errors: list[BaseException] = []
    deadline = time.perf_counter() + SEGMENT_S

    def client(stream: inputs.RequestStream) -> None:
        connection = DaemonClient("127.0.0.1", daemon.port, timeout=60.0)
        try:
            while time.perf_counter() < deadline:
                scenario, backend = stream.next()
                key = json.dumps([scenario, backend], sort_keys=True)
                with lock:
                    first = key not in seen
                    seen.add(key)
                sent = time.perf_counter()
                status, body = connection.post_json(
                    "/predict", {"scenario": scenario, "backend": backend}
                )
                elapsed_ms = (time.perf_counter() - sent) * 1000.0
                with lock:
                    segment.append((elapsed_ms, first))
                    _record_answer(traffic, key, scenario, backend, first, status, body)
        except BaseException as exc:
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(stream,)) for stream in streams]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError("serve-mix client crashed") from errors[0]


def _record_answer(traffic: Traffic, key: str, scenario: dict, backend: str, first: bool,
                   status: int, body: dict) -> None:
    """Client-side bookkeeping of one reply (caller holds the lock)."""
    if not first:
        traffic.repeats.append((scenario, backend))
    if status == 429:
        traffic.rejected += 1
        return
    result = body.get("result") if status == 200 else None
    if not result or result.get("failed"):
        traffic.failed += 1
        return
    answer = (result["total_seconds"], result["phases"])
    if key not in traffic.answers:
        traffic.answers[key] = (scenario, backend, answer)
        if backend in inputs.ANALYTIC_BACKENDS:
            metadata = result["metadata"]
            traffic.solves[backend] += 1
            traffic.iterations[backend] += int(metadata.get("iterations", 0))
            traffic.unconverged[backend] += not metadata.get("converged")
    elif traffic.answers[key][2] != answer:
        traffic.mismatched += 1
    traffic.answered[key] = traffic.answered.get(key, 0) + 1


def check_answers(
    traffic: Traffic, service: PredictionService | None = None
) -> tuple[int, PredictionService]:
    """200s whose answer differs from an in-process ``evaluate`` of the point."""
    service = service or PredictionService()
    failed = traffic.mismatched
    for key, (scenario, backend, answer) in traffic.answers.items():
        local = service.evaluate(Scenario.from_dict(scenario), backend)
        expected = json.loads(json.dumps([local.total_seconds, dict(local.phases)]))
        if (not _finite_positive(answer[0])) or [answer[0], answer[1]] != expected:
            print(f"serve-mix: {backend} answered {answer}, in-process {expected}",
                  file=sys.stderr)
            failed += traffic.answered[key]
    return failed, service


def hit_microseconds(ctx: Context, service: PredictionService, repeats: list) -> float:
    """Median in-process ``evaluate`` time of a memory hit, replaying the stream."""
    samples = []
    with ctx.clock.timed() as replay:
        for scenario, backend in repeats[:HIT_REPLAY]:
            point = Scenario.from_dict(scenario)
            started = time.perf_counter()
            service.evaluate(point, backend)
            samples.append((time.perf_counter() - started) * 1e6)
    return statistics.median(samples) * replay.factor if samples else 0.0


def serve_mix(ctx: Context) -> Outcome:
    # Client, daemon and echo server share one CPU, so the probe times the
    # CPU that does the work (see the module docstring).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    echo = EchoProbe(ctx.root, {"scenario": inputs.warmup_scenario().to_dict(), "backend": "aria"})
    try:
        ctx.clock = Clock(probe=echo.seconds, reference=ECHO_REFERENCE_S)
        return _serve_mix(ctx)
    finally:
        echo.stop()


def _serve_mix(ctx: Context) -> Outcome:
    minimum = 60 if ctx.tiny else 3000
    out = Outcome()
    setups = []
    daemon = None
    try:
        for repeat in range(1 if ctx.tiny else SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            with ctx.clock.timed() as setup:
                daemon = Daemon(ctx, f"daemon-{repeat}", traced=False)
                daemon.warm_up()
            setups.append(setup.seconds)
        before = daemon.service_stats()
        budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
        traffic = drive(daemon, ctx, budget, minimum // 2 if ctx.trace else minimum)
        after = daemon.service_stats()
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    requests = len(traffic.latencies)
    failed, service = check_answers(traffic)
    out.attempted = requests
    out.failed = traffic.rejected + traffic.failed + failed
    out.metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(traffic.segment_rates),
        "p50_ms": statistics.median(traffic.segment_p50s),
        "peak_rss_mb": rss,
    }
    hit_p50 = statistics.median(traffic.hit_ms) if traffic.hit_ms else 0.0
    out.layers.update({
        "serve_req_per_s": requests / traffic.wall,
        "serve_p50_ms": statistics.median(traffic.latencies),
        "serve_p99_ms": percentile(traffic.latencies, 99.0),
        "serve.samples": requests,
        "serve.hit_share": len(traffic.hit_ms) / requests,
        "serve.hit_p50_ms": hit_p50,
        "serve.miss_p50_ms": statistics.median(traffic.miss_ms) if traffic.miss_ms else 0.0,
        "serve.rejected": traffic.rejected,
    })
    out.facts["p99_samples_beyond"] = requests - math.ceil(0.99 * requests)
    out.facts["segment_p50_ms"] = [round(value, 4) for value in traffic.segment_p50s]

    if ctx.trace:
        hit_us = hit_microseconds(ctx, service, traffic.repeats)
        out.layers["api.service.hit_us"] = hit_us
        out.layers["serve.http_ms"] = hit_p50 - hit_us / 1000.0
        for name in SERVICE_COUNTERS:
            out.layers[f"api.service.{name}"] = (after[name] - before[name]) / requests
        for backend in inputs.ANALYTIC_BACKENDS:
            solves = max(traffic.solves[backend], 1)
            out.layers[f"core.mva_solver.iterations.{backend}"] = (
                traffic.iterations[backend] / solves
            )
            out.layers[f"core.mva_solver.unconverged.{backend}"] = (
                traffic.unconverged[backend] / solves
            )
        traced_daemon = Daemon(ctx, "daemon-traced", traced=True)
        try:
            traced_daemon.warm_up()
            traced = drive(traced_daemon, ctx, ctx.seconds / 2, minimum // 2)
        finally:
            traced_daemon.stop()
        spans = json.loads(traced_daemon.summary.read_text())
        ops = len(traced.latencies)
        # The daemon's warm-up requests ran under the shims too: a handful of
        # ops against thousands.
        trace_summary(
            out, spans, ops, sum(traced.latencies) / 1000.0,
            (traced.wall / ops) / (traffic.wall / requests) - 1.0,
        )
        out.attempted += ops
        traced_failed, _ = check_answers(traced, service)
        out.failed += traced.rejected + traced.failed + traced_failed
    return out


WORKLOADS = {
    "solve-cold": solve_cold,
    "sweep-store": sweep_store,
    "serve-mix": serve_mix,
}
