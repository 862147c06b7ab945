"""The repair facade: ``RepairRequest`` in, ``RepairReport`` out.

This is the single entry point every driver routes through — the CLI
(``codephage transfer``), the experiment helpers (:mod:`repro.experiments`),
and the campaign workers (:func:`repro.experiments.execute_job`).  A
:class:`RepairSession` owns one configured transfer engine
(:class:`~repro.core.stages.TransferEngine`) and one shared
:class:`~repro.solver.equivalence.EquivalenceChecker`, so every request run
through the same session shares solver verdicts; batch drivers (sweeps over
several donors, campaign workers) construct one session and reuse it.

Thread-safety contract
----------------------

A :class:`RepairSession` is **not** thread-safe: ``run`` subscribes a
per-request :class:`~repro.core.events.EventLog` on the session's bus and
the solver checker mutates shared per-session state (learned clauses,
statistics), so two threads running requests through one session would
interleave event capture and corrupt solver accounting.  Concurrent
drivers — the :mod:`repro.service` daemon's worker threads — go through a
:class:`SessionPool` instead, which hands each thread exclusive use of one
warm session at a time while all pooled sessions still share the
process-wide compile cache, interned expression table, and (when
configured) one persistent solver-cache file, all of which *are*
thread-safe.
"""

from __future__ import annotations

import contextlib
import queue
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from ..apps import get_application
from ..apps.registry import Application, ErrorTarget
from ..core.events import EventBus, EventLog, Observer, PipelineEvent
from ..core.pipeline import CodePhageOptions, TransferMetrics, TransferOutcome
from ..core.stages import TransferEngine
from ..obs.metrics import MetricsEventObserver

ApplicationRef = Union[Application, str]


@dataclass
class RepairRequest:
    """One repair problem: a recipient error plus its seed and error inputs.

    ``recipient`` and ``donor``/``donors`` accept either registry names or
    :class:`Application` objects; ``target`` accepts a target id or an
    :class:`ErrorTarget`.  Pinning ``donor`` runs a single transfer; leaving
    it unset runs full donor selection (optionally restricted to
    ``donors``).  ``probe_inputs`` lists additional known
    error triggers (one per defect for multi-defect recipients); any probe
    still crashing a patched program counts as a residual error and drives
    another recursive repair round.
    """

    recipient: ApplicationRef
    target: Union[ErrorTarget, str]
    seed: bytes
    error_input: bytes
    format_name: Optional[str] = None
    donor: Optional[ApplicationRef] = None
    donors: Optional[Sequence[ApplicationRef]] = None
    probe_inputs: Sequence[bytes] = ()

    @classmethod
    def for_case(
        cls,
        case,
        donor: Optional[ApplicationRef] = None,
        donors: Optional[Sequence[ApplicationRef]] = None,
    ) -> "RepairRequest":
        """Build a request from any *case-like* object.

        ``case`` is duck-typed: anything with ``application()``, ``target()``,
        ``seed_input()``, ``error_input()``, and ``format_name`` — both the
        paper corpus (:class:`repro.experiments.ErrorCase`) and generated
        scenarios (:class:`repro.scenarios.ScenarioPair`) qualify, so every
        driver funnels through one construction path.  Cases may optionally
        expose ``probe_inputs()`` (multi-defect scenarios do) to declare one
        known trigger per defect.
        """
        probe_inputs: Sequence[bytes] = ()
        probes = getattr(case, "probe_inputs", None)
        if callable(probes):
            probe_inputs = tuple(probes())
        return cls(
            recipient=case.application(),
            target=case.target(),
            seed=case.seed_input(),
            error_input=case.error_input(),
            format_name=case.format_name,
            donor=donor,
            donors=donors,
            probe_inputs=probe_inputs,
        )


@dataclass
class RepairReport:
    """What one facade call produced: the outcome plus the event record."""

    outcome: TransferOutcome
    attempts: tuple[TransferOutcome, ...] = ()
    events: tuple[PipelineEvent, ...] = ()

    @property
    def success(self) -> bool:
        return self.outcome.success

    @property
    def patched_source(self) -> Optional[str]:
        return self.outcome.patched_source

    @property
    def metrics(self) -> TransferMetrics:
        return self.outcome.metrics


class RepairSession:
    """A configured pipeline: one options set, one shared solver checker.

    Observers passed at construction stay subscribed for the session's
    lifetime and see the events of every request; per-request event capture
    (for :attr:`RepairReport.events`) is handled internally.
    """

    def __init__(
        self,
        options: Optional[CodePhageOptions] = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        self.options = options or CodePhageOptions()
        self.events = EventBus()
        # Every session feeds the process-wide metrics registry; while the
        # registry is disabled (the default) the observer is a cheap no-op.
        self.events.subscribe(MetricsEventObserver())
        for observer in observers:
            self.events.subscribe(observer)
        self.engine = TransferEngine(options=self.options, events=self.events)
        self.checker = self.engine.checker

    def solver_statistics(self) -> dict:
        """The session's cumulative solver accounting.

        One dict with the query-level counters (queries, cache hits, batch
        dedupe) plus a ``backends`` sub-dict holding the SAT solver's
        counters under its name — the shape campaign reports aggregate.
        Requests run through this session share one checker, so these
        numbers span every request.
        """
        stats = self.checker.statistics
        batch = self.checker.query_batch
        return {
            "queries": stats.queries,
            "satisfiability_queries": stats.satisfiability_queries,
            "cache_hits": stats.cache_hits,
            "persistent_cache_hits": stats.persistent_cache_hits,
            "batch_hits": batch.hits,
            "batch_dedupe_rate": round(batch.dedupe_rate, 4),
            "expensive_queries": stats.solver_invocations,
            "backends": self.checker.sat_counters(),
        }

    # -- request API -------------------------------------------------------------------

    def run(self, request: RepairRequest) -> RepairReport:
        """Run one repair request through the transfer engine."""
        if request.donor is not None and request.donors is not None:
            raise ValueError(
                "pass either donor (pin one transfer) or donors (restrict the "
                "repair pool), not both"
            )
        recipient = self._application(request.recipient)
        target = (
            request.target
            if isinstance(request.target, ErrorTarget)
            else recipient.target(request.target)
        )
        log = self.events.subscribe(EventLog())
        try:
            if request.donor is not None:
                outcome = self.engine.transfer(
                    recipient,
                    target,
                    self._application(request.donor),
                    request.seed,
                    request.error_input,
                    request.format_name,
                    probe_inputs=request.probe_inputs,
                )
                attempts: tuple[TransferOutcome, ...] = (outcome,)
            else:
                donors = None
                if request.donors is not None:
                    donors = [self._application(donor) for donor in request.donors]
                result = self.engine.repair(
                    recipient,
                    target,
                    request.seed,
                    request.error_input,
                    request.format_name,
                    donors=donors,
                    probe_inputs=request.probe_inputs,
                )
                outcome, attempts = result.outcome, result.attempts
        finally:
            self.events.unsubscribe(log)
        return RepairReport(outcome=outcome, attempts=attempts, events=tuple(log.events))

    def run_case(
        self,
        case,
        donor: Optional[ApplicationRef] = None,
        donors: Optional[Sequence[ApplicationRef]] = None,
    ) -> RepairReport:
        """Run one case-like object (see :meth:`RepairRequest.for_case`)."""
        return self.run(RepairRequest.for_case(case, donor=donor, donors=donors))

    @staticmethod
    def _application(reference: ApplicationRef) -> Application:
        if isinstance(reference, Application):
            return reference
        return get_application(reference)


class SessionPool:
    """A fixed set of warm :class:`RepairSession`\\ s checked out one at a time.

    Sessions are built eagerly at construction (so the first request after
    daemon start pays no engine warm-up) and handed out through
    :meth:`checkout`, a context manager that blocks until a session is free
    and returns it to the pool on exit — including when the request raises.
    Exclusivity is the whole point: each session is single-threaded by
    contract (see the module docstring), so the pool is what makes the
    facade safe to drive from :class:`ThreadingHTTPServer` worker threads.

    All pooled sessions share one ``options`` object; callers whose request
    needs different options (per-request overrides) must build a dedicated
    session instead of checking one out.
    """

    def __init__(
        self,
        size: int,
        options: Optional[CodePhageOptions] = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.options = options or CodePhageOptions()
        self._idle: "queue.Queue[RepairSession]" = queue.Queue()
        self._sessions = tuple(
            RepairSession(options=self.options, observers=observers)
            for _ in range(size)
        )
        for session in self._sessions:
            self._idle.put(session)

    def idle_count(self) -> int:
        """How many sessions are currently checked in (approximate under load)."""
        return self._idle.qsize()

    @contextlib.contextmanager
    def checkout(self, timeout: Optional[float] = None) -> Iterator[RepairSession]:
        """Borrow one session exclusively; blocks until one is free.

        Raises :class:`queue.Empty` if ``timeout`` (seconds) elapses with no
        session available.  A session that raised inside the ``with`` body is
        still returned to the pool — the engine and checker are built to
        survive failed transfers, and recycling keeps the warm solver cache.
        """
        session = self._idle.get(timeout=timeout)
        try:
            yield session
        finally:
            self._idle.put(session)

    def solver_statistics(self) -> dict:
        """Pool-wide solver accounting: per-session counters summed.

        Gauge-like fields (``batch_dedupe_rate``) take the maximum instead.
        Reads the counters without checking sessions out, so numbers for a
        session mid-request may be slightly stale — fine for monitoring.
        """
        merged: dict = {}
        for session in self._sessions:
            stats = session.solver_statistics()
            backends = stats.pop("backends", {})
            for name, value in stats.items():
                if name == "batch_dedupe_rate":
                    merged[name] = max(merged.get(name, 0.0), value)
                else:
                    merged[name] = merged.get(name, 0) + value
            merged_backends = merged.setdefault("backends", {})
            for solver, counters in backends.items():
                slot = merged_backends.setdefault(solver, {})
                for name, value in counters.items():
                    slot[name] = slot.get(name, 0) + value
        return merged


def repair(
    request: RepairRequest,
    options: Optional[CodePhageOptions] = None,
    observers: Sequence[Observer] = (),
) -> RepairReport:
    """One-shot facade: build a session, run one request, return its report."""
    return RepairSession(options=options, observers=observers).run(request)
