"""In-memory span tracer that wraps the program's public layer functions.

The benchmark never edits the program: :func:`patched` swaps a traced
wrapper onto each public method listed in :data:`TARGETS` for the
duration of the traced pass and restores the originals afterwards.

* Every wrapped call is a span: name, start, end, parent span and the
  benchmark operation id it ran under.  A span's *self time* is its
  duration minus the time its child spans cover, which matters because
  the environment methods nest (``step`` calls ``legal_actions``, which
  calls ``current_dnn`` and ``is_losing``).
* Generator functions (``search_steps``, ``plan_steps``) get one span
  per resume, so their time is the time spent inside the search, not
  the time the engine holds the suspended generator.
* Environment methods run ~10^5 times per decision; they are counted
  and timed into their parent's self-time accounting like every other
  span, but not kept as individual spans (a kept span per call would
  cost gigabytes per run).  Every other span is kept and written as
  Chrome trace-event JSON (``chrome://tracing``, Perfetto).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.environment import SchedulingEnv
from repro.core.mcts import MonteCarloTreeSearch
from repro.engine import SchedulingEngine
from repro.estimator.embedding import EmbeddingSpace
from repro.estimator.model import ThroughputEstimator
from repro.fleet.placement import FleetPlacer
from repro.frontdoor.cache import ShardedDecisionCache
from repro.nn.layers import Module
from repro.online import OnlineScheduler
from repro.resilience import TraceJournal

ENV_METHODS = ("step", "legal_actions", "is_terminal", "is_losing", "current_dnn")

#: (owner class, method, span name, kind): ``kind`` is ``call`` for a
#: kept span, ``agg`` for a counted-only span, ``gen`` for a generator
#: whose resumes are spans.
TARGETS = (
    *((SchedulingEnv, name, f"environment.{name}", "agg") for name in ENV_METHODS),
    (MonteCarloTreeSearch, "search_steps", "mcts.search_steps", "gen"),
    (EmbeddingSpace, "encode_batch", "embedding.encode_batch", "call"),
    (ThroughputEstimator, "predict_throughput_batch", "estimator.forward", "call"),
    (SchedulingEngine, "schedule_many", "engine.schedule_many", "call"),
    (SchedulingEngine, "replay_group", "engine.replay_group", "call"),
    (ShardedDecisionCache, "get", "cache.get", "call"),
    (ShardedDecisionCache, "put", "cache.put", "call"),
    (FleetPlacer, "place", "placement.place", "call"),
    (OnlineScheduler, "plan_steps", "online.plan_steps", "gen"),
    (TraceJournal, "append_group", "journal.append_group", "call"),
)

#: Spans whose first argument is a batch of (workload, mapping) pairs.
ROW_SPANS = ("embedding.encode_batch", "estimator.forward")


class Tracer:
    """Span stack, per-name aggregates and the kept-span list."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()  # repro: lint-ignore[RPR002] -- trace timestamps are host time by definition
        #: Open frames: [name, start, child_s, kept span index or -1].
        self._stack: List[list] = []
        #: Kept spans: [name, start, end, parent index, op id].
        self.spans: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        #: Extra exact counters (rows, results of searches, ...).
        self.counts: Dict[str, float] = {}
        self.op = -1
        self.mode_toggles = 0
        self._toggle_depth = 0
        self.search_results: List = []

    # -- spans ---------------------------------------------------------
    def enter(self, name: str, keep: bool) -> None:
        index = -1
        if keep:
            parent = -1
            for frame in reversed(self._stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append([name, self.clock(), 0.0, index])  # repro: lint-ignore[RPR002] -- span start, host time

    def exit(self) -> None:
        end = self.clock()  # repro: lint-ignore[RPR002] -- span end, host time
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    @contextmanager
    def operation(self, op_id: int, name: str = "op") -> Iterator[None]:
        """One benchmark operation: a root span every layer span nests in."""
        self.op = op_id
        self.enter(name, keep=True)
        try:
            yield
        finally:
            self.exit()

    # -- wrappers ------------------------------------------------------
    def wrap_call(self, fn: Callable, name: str, keep: bool) -> Callable:
        rows = name in ROW_SPANS

        def traced(*args, **kwargs):
            if rows:
                self.add(name + ".rows", len(args[1]))
            self.enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer._drive(fn(*args, **kwargs), name)

        return traced

    def _drive(self, generator, name: str):
        """Forward send/throw/close to ``generator``, one span per resume."""
        reply = None
        error: Optional[BaseException] = None
        while True:
            self.enter(name, keep=True)
            try:
                if error is None:
                    item = generator.send(reply)
                else:
                    pending, error = error, None
                    item = generator.throw(pending)
            except StopIteration as stop:
                self.exit()
                if name == "mcts.search_steps":
                    self.search_results.append(stop.value)
                return stop.value
            except BaseException:
                self.exit()
                raise
            self.exit()
            try:
                reply = yield item
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as raised:  # forwarded into the search
                error = raised

    def wrap_toggle(self, fn: Callable) -> Callable:
        """Count top-level ``Module.train``/``eval`` calls (not the recursion)."""

        def traced(module, *args, **kwargs):
            if self._toggle_depth == 0:
                self.mode_toggles += 1
            self._toggle_depth += 1
            try:
                return fn(module, *args, **kwargs)
            finally:
                self._toggle_depth -= 1

        return traced

    # -- export --------------------------------------------------------
    def chrome_trace(self) -> Dict:
        """Kept spans as Chrome trace-event JSON (complete ``X`` events)."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "op": op},
            }
            for index, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        aggregated = {
            name: {"calls": int(calls), "total_s": total, "self_s": own}
            for name, (calls, total, own) in sorted(self.totals.items())
        }
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"aggregates": aggregated, "counts": dict(self.counts)},
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


@contextmanager
def patched(tracer: Tracer) -> Iterator[Tracer]:
    """Install the traced wrappers on every target; always restore them."""
    originals: List[Tuple[type, str, Callable]] = []
    try:
        for owner, method, name, kind in TARGETS:
            original = owner.__dict__[method]
            originals.append((owner, method, original))
            if kind == "gen":
                wrapper = tracer.wrap_generator(original, name)
            else:
                wrapper = tracer.wrap_call(original, name, keep=kind == "call")
            setattr(owner, method, wrapper)
        for method in ("train", "eval"):
            original = Module.__dict__[method]
            originals.append((Module, method, original))
            setattr(Module, method, tracer.wrap_toggle(original))
        yield tracer
    finally:
        for owner, method, original in reversed(originals):
            setattr(owner, method, original)
