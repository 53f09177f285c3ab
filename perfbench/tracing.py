"""Spans, counters and the layer wrappers of the benchmark's traced runs.

The benchmark traces the program from the outside: it replaces a
layer's public functions with wrappers that record a span around each
call, so nothing under ``src/`` changes.  A span carries a name, a
start, an end, its parent span and a unit id (the parent's unit unless
given).  Spans stay in memory until the run ends.  A layer's *self*
time is a span's duration minus the time its child spans cover, so a
``run_to_convergence`` inside ``start`` is part of ``start`` and never
counted twice.

Layers and the calls wrapped (module names of ``src/repro``):

* ``experiments``: ``supervisor.run_unit`` (the unit root span),
  ``runner.build_network``, ``ParallelRunner.run_failure_comparison``
  (the campaign) and ``ResultLedger.put``.
* ``sim``: ``start`` and ``run_to_convergence`` of the BGP, R-BGP and
  STAMP networks; ``run_to_convergence`` calls made outside ``start``
  are the failure reconvergence.
* ``analysis``: the single-instant transient analyzer as the runner
  calls it.
* ``topology``: ``generate_internet_topology`` and ``shm.share_graph``.
* ``service``: ``CampaignJournal.append`` and the HTTP handler's
  ``do_GET``/``do_POST``.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional

RBGP_FAMILY = frozenset({"rbgp", "rbgp-norci"})


class Tracer:
    """In-memory span and counter store, safe to use from many threads.

    Only the process that created the tracer records, and only while
    ``enabled``.  A pool worker forked from a traced daemon inherits the
    wrappers, and possibly the lock held by another thread at the fork,
    so in any other process the wrappers pass straight through.
    """

    def __init__(self) -> None:
        self.enabled = True
        self._pid = os.getpid()
        #: One ``[name, start, end, parent index, unit]`` per span.
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _recording(self) -> bool:
        return self.enabled and os.getpid() == self._pid

    @contextlib.contextmanager
    def span(self, name: str, unit=None) -> Iterator[Optional[list]]:
        if not self._recording():
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if unit is None and parent is not None:
            unit = self.spans[parent][4]
        record = [name, 0.0, None, parent, unit]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def current(self) -> Optional[list]:
        """The innermost open span of the calling thread, if any."""
        if not self._recording():
            return None
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    def count(self, name: str, amount: int = 1) -> None:
        if not self._recording():
            return
        with self._lock:
            self.counters[name] += amount

    def times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[index]
        return out

    def dump(self) -> dict:
        return {"times": self.times(), "counters": dict(self.counters)}


def _protocol_of(tracer: Tracer, network) -> str:
    """Protocol of the unit running on this thread (R-BGP twins share a class)."""
    current = tracer.current()
    unit = current[4] if current is not None else None
    if isinstance(unit, tuple):
        return unit[-1]
    return type(network).__name__


def _updates(network) -> int:
    return network.stats.announcements + network.stats.withdrawals


def _wrap(tracer: Tracer, owner, attribute: str, span: str, after=None) -> None:
    """Record ``span`` around every call of ``owner.attribute``.

    ``after(args, result)``, if given, records the call's counters.
    """
    original = getattr(owner, attribute)

    def traced(*args, **kwargs):
        with tracer.span(span):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attribute, traced)


def install_layers(tracer: Tracer) -> None:
    """Wrap the experiments, sim, analysis and topology layers."""
    from repro.bgp.network import BGPNetwork
    from repro.experiments import parallel, runner, supervisor
    from repro.experiments.ledger import ResultLedger
    from repro.stamp.network import STAMPNetwork
    from repro.topology import generators, shm

    run_unit = supervisor.run_unit

    def traced_run_unit(graph, builder, kind, seed, instance, protocol):
        if protocol in RBGP_FAMILY:
            tracer.count("experiments.rbgp_units")
        with tracer.span("experiments.unit", (kind, seed, instance, protocol)):
            return run_unit(graph, builder, kind, seed, instance, protocol)

    supervisor.run_unit = traced_run_unit

    def campaign_counts(args, outcome):
        tracer.count("experiments.units_executed", outcome.executed)
        tracer.count("experiments.ledger_hits", outcome.ledger_hits)
        tracer.count(
            "sim.updates_event",
            sum(run.updates for runs in outcome.runs.values() for run in runs),
        )

    def scenario_counts(args, report):
        tracer.count("analysis.trace_changes", len(args[0].changes))

    _wrap(tracer, runner, "build_network", "experiments.build")
    _wrap(tracer, parallel.ParallelRunner, "run_failure_comparison",
          "experiments.campaign", campaign_counts)
    _wrap(tracer, ResultLedger, "put", "experiments.ledger_put",
          lambda args, result: tracer.count("experiments.ledger_puts"))
    _wrap(tracer, runner, "analyze_transient_problems", "analysis.scenario",
          scenario_counts)
    _wrap(tracer, generators, "generate_internet_topology", "topology.generate")
    _wrap(tracer, shm, "share_graph", "topology.share_graph")
    for cls in (BGPNetwork, STAMPNetwork):
        _wrap_network(tracer, cls)


def _wrap_network(tracer: Tracer, cls) -> None:
    start = cls.start
    run_to_convergence = cls.run_to_convergence

    def traced_start(self):
        protocol = _protocol_of(tracer, self)
        events = self.engine.events_processed
        updates = _updates(self)
        with tracer.span(f"sim.start.{protocol}"):
            result = start(self)
        tracer.count("sim.engine_events", self.engine.events_processed - events)
        tracer.count("sim.updates_initial", _updates(self) - updates)
        if protocol in RBGP_FAMILY:
            tracer.count("experiments.rbgp_starts")
        return result

    def traced_run_to_convergence(self):
        current = tracer.current()
        if current is not None and current[0].startswith("sim.start."):
            return run_to_convergence(self)
        protocol = _protocol_of(tracer, self)
        events = self.engine.events_processed
        with tracer.span(f"sim.reconverge.{protocol}"):
            result = run_to_convergence(self)
        tracer.count("sim.engine_events", self.engine.events_processed - events)
        return result

    cls.start = traced_start
    cls.run_to_convergence = traced_run_to_convergence


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the service layer: journal appends and HTTP handling.

    Call after :func:`install_layers`: the daemon imported the topology
    generator by name, so its reference is pointed at the wrapper here.
    """
    from repro.service import app
    from repro.service.journal import CampaignJournal
    from repro.topology import generators

    app.generate_internet_topology = generators.generate_internet_topology
    _wrap(tracer, CampaignJournal, "append", "service.journal_append",
          lambda args, result: tracer.count("service.journal_appends"))
    for method in ("do_GET", "do_POST"):
        _wrap(tracer, app.CampaignRequestHandler, method, "service.http",
              lambda args, result: tracer.count("service.requests"))
