"""In-memory span recorder and the timing shims the traced run installs.

The benchmark never edits the program: a traced run replaces a fixed list of
public names (the functions and methods each layer calls across a module
boundary) with thin wrappers that record a span per call, then puts the
originals back.  Spans live in memory; nesting gives each span its self time
(its duration minus the part its child spans cover) and the whole table is
summarised once, after the measured work.

A target that no longer exists in the program (say, a later change deletes
the scalar timeline path) is reported with 0 calls instead of failing, so
the benchmark keeps running across such changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict

#: (module, attribute path inside it, span name, kind).  ``span`` records a
#: timed span per call; ``count`` only counts calls, for names hit so often
#: (simulator event-loop steps) that a span per call would distort the layer.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    # repro.core, at the names the modified-MVA solver calls (A2, A3, A5).
    ("repro.core.mva_solver", "build_timeline", "core.timeline.scalar", "span"),
    ("repro.core.mva_solver", "place_tasks", "core.timeline.fast", "span"),
    ("repro.core.mva_solver", "compute_overlap_factors", "core.overlap", "span"),
    ("repro.core.fast_timeline", "TimelinePlacement.overlap_factors", "core.overlap", "span"),
    ("repro.core.mva_solver", "build_precedence_tree", "core.precedence", "span"),
    ("repro.core.estimators", "ForkJoinEstimator.estimate", "core.estimators.forkjoin", "span"),
    ("repro.core.estimators", "TripathiEstimator.estimate", "core.estimators.tripathi", "span"),
    # repro.queueing: the overlap-weighted MVA (A4) and Tripathi's maximum.
    ("repro.core.mva_solver", "solve_mva_with_overlaps", "queueing.mva_overlap", "span"),
    ("repro.core.estimators", "maximum_of", "queueing.maximum_of", "span"),
    # repro.hadoop: the discrete-event simulator.
    ("repro.hadoop.simulator", "ClusterSimulator.run", "hadoop.simulator.run", "span"),
    ("repro.hadoop.engine", "ExecutionEngine.advance", "hadoop.engine.advance", "count"),
    ("repro.hadoop.rm", "ResourceManager.allocate", "hadoop.rm.allocate", "count"),
    # repro.api: scenario identity and model input, store, sweep, batch kernels.
    ("repro.api.scenario", "Scenario.cache_key", "api.scenario.cache_key", "span"),
    ("repro.api.scenario", "Scenario.model_input", "api.scenario.model_input", "span"),
    ("repro.api.service", "open_store", "api.store.open", "span"),
    ("repro.api.store.json_store", "ResultStore.get", "api.store.get", "span"),
    ("repro.api.store.json_store", "ResultStore.get_many", "api.store.get", "span"),
    ("repro.api.store.json_store", "ResultStore.put", "api.store.put", "span"),
    ("repro.api.store.json_store", "ResultStore.put_many", "api.store.put", "span"),
    ("repro.api.store.sqlite_store", "SqliteResultStore.get", "api.store.get", "span"),
    ("repro.api.store.sqlite_store", "SqliteResultStore.get_many", "api.store.get", "span"),
    ("repro.api.store.sqlite_store", "SqliteResultStore.put", "api.store.put", "span"),
    ("repro.api.store.sqlite_store", "SqliteResultStore.put_many", "api.store.put", "span"),
    ("repro.api.sweep", "SweepScheduler.plan", "api.sweep.plan", "span"),
    ("repro.api.backends", "AriaBackend.predict_batch", "api.backends.predict_batch.aria", "span"),
    (
        "repro.api.backends",
        "HerodotouBackend.predict_batch",
        "api.backends.predict_batch.herodotou",
        "span",
    ),
)

#: Span names the benchmark itself opens around one measured operation.
ROOT_PREFIX = "bench."


class Recorder:
    """Collects spans (per thread, nested) and call counts in memory."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent span or None, child seconds]`` per span.
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object, bool]] = []
        self._settled = False
        #: ``module:attribute`` of targets the program no longer has.
        self.missing: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, 0.0]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own op spans)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- shims ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; list the others in ``missing``."""
        missing = self.missing
        for module_name, path, name, kind in TARGETS:
            self.counts.setdefault(name, 0)
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}:{path}")
                continue
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}:{path}")
                continue
            own = attribute in vars(owner)
            saved = vars(owner).get(attribute)
            wrapper = (self._timed if kind == "span" else self._counted)(original, name)
            if isinstance(saved, staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(owner, attribute, wrapper)
            self._undo.append((owner, attribute, saved, own))

    def uninstall(self) -> None:
        """Put every wrapped name back as it was."""
        while self._undo:
            owner, attribute, original, own = self._undo.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- summary --------------------------------------------------------------

    def _settle(self) -> None:
        """Add each closed span's duration to its parent's child seconds, once."""
        if self._settled:
            return
        self._settled = True
        for span in self.spans:
            parent = span[3]
            if parent is not None and span[2] > 0.0:
                parent[4] += span[2] - span[1]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

        Inclusive time counts only outermost spans of a name (a ``put_many``
        that calls ``put`` is not counted twice); calls count every span.
        """
        self._settle()
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for name, count in self.counts.items():
            table[name]["calls"] += count
        for name, start, end, parent, child in self.spans:
            if end <= 0.0:
                continue
            row = table[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child
            ancestor = parent
            while ancestor is not None and ancestor[0] != name:
                ancestor = ancestor[3]
            if ancestor is None:
                row["s"] += end - start
        return dict(table)

    def covered_seconds(self) -> float:
        """Time inside layer spans, counting nested layer spans once."""
        covered = 0.0
        for name, start, end, parent, _child in self.spans:
            if name.startswith(ROOT_PREFIX) or end <= 0.0:
                continue
            if parent is None or parent[0].startswith(ROOT_PREFIX):
                covered += end - start
        return covered

    def export(self) -> dict:
        """The summary, covered time and missing targets, as JSON-ready data."""
        return {
            "summary": self.summary(),
            "covered_s": self.covered_seconds(),
            "missing": self.missing,
        }

    def root_seconds(self) -> float:
        """Total duration of the benchmark's own op spans."""
        return sum(
            end - start
            for name, start, end, parent, _child in self.spans
            if parent is None and name.startswith(ROOT_PREFIX) and end > 0.0
        )
