"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer with
spans recorded by a :class:`SpanRecorder`.  Spans stay in memory, one list
per thread, and each process writes its own to ``<trace dir>/spans-<pid>.jsonl``
when it flushes: the benchmark process at the end of the run, a forked
campaign worker or node after every job (:class:`TracedRunner`), and the
service daemon when it exits (``serve_launcher.py``).  :func:`fold` reads
every file back and turns the spans that started inside the measured window
into the per-layer metrics of ``BENCHMARK.json``.

Timestamps are ``time.perf_counter()``, which on Linux is the system-wide
monotonic clock, so spans of different processes share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

#: The seven pipeline stages, in Figure 4 order (``core.stage.<name>_ms``).
STAGES = (
    "donor-selection",
    "check-discovery",
    "excision",
    "insertion",
    "rewrite",
    "patch-generation",
    "validation",
)

#: ``EquivalenceResult.method`` values counted as ``solver.equiv.<method>``.
EQUIV_METHODS = (
    "syntactic",
    "disjoint-fields",
    "width-mismatch",
    "sampling",
    "exhaustive",
    "sat",
    "sat-timeout",
)

LAYERS = (
    "api",
    "core",
    "lang",
    "discovery",
    "formats",
    "symbolic",
    "solver",
    "campaign",
    "scenarios",
    "dist",
)


class _ThreadSpans:
    """One thread's spans: ``[name, start, end, parent index, counters]`` lists."""

    __slots__ = ("spans", "stack", "active")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: set[str] = set()


class SpanRecorder:
    """In-memory spans and counters, per thread, flushed per process."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def call(self, name: str, fn: Callable, args, kwargs, after=None):
        """Run ``fn`` inside a span; a re-entrant call of ``name`` is not nested.

        ``after(counters, args, result)`` may fill a dict of counters that is
        stored with the span, so counts are read per measured window.
        """
        state = self._state()
        if name in state.active:
            return fn(*args, **kwargs)
        parent = state.stack[-1] if state.stack else -1
        span = [name, 0.0, 0.0, parent, None]
        state.stack.append(len(state.spans))
        state.spans.append(span)
        state.active.add(name)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            state.stack.pop()
            state.active.discard(name)
        if after is not None:
            counters: dict[str, float] = {}
            after(counters, args, result)
            span[4] = counters or None
        return result

    def reset_after_fork(self) -> None:
        """Drop what a forked child inherited: the parent records its own."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = []

    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        with self._lock:
            threads = [state.spans for state in self._threads if state.spans]
            for state in self._threads:
                state.spans = []
        if not threads:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"threads": threads}, separators=(",", ":")) + "\n")


class TracedRunner:
    """A campaign runner that records one span per job and flushes per job.

    Worker processes are forked from the traced benchmark process, so the
    wrappers are already installed in them; this runner only drops what the
    child inherited, wraps the job in a ``<plane>.job`` span, and writes the
    child's spans out before returning.
    """

    def __init__(self, recorder: SpanRecorder, runner: Callable, plane: str) -> None:
        self.recorder = recorder
        self.runner = runner
        self.plane = plane
        self._pid = os.getpid()

    def __call__(self, payload: dict, cache_path: Optional[str]) -> dict:
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.recorder.reset_after_fork()
        try:
            return self.recorder.call(
                f"{self.plane}.job", self.runner, (payload, cache_path), {}
            )
        finally:
            self.recorder.flush()


# -- wrappers --------------------------------------------------------------------------


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class _Patches:
    """Every attribute replaced by :func:`install`, for :meth:`undo`."""

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` wherever a ``repro`` module imported it by name."""
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def _wrap(recorder: SpanRecorder, name, fn: Callable, after=None) -> Callable:
    """Wrap ``fn`` in a span; ``name`` may be a callable over the call's args."""
    call = recorder.call

    if callable(name):
        name_of = name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name_of(args, kwargs), fn, args, kwargs, after)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs, after)

    return wrapper


class _TimedEnter:
    """A context manager whose ``__enter__`` (waiting for a session) is a span."""

    def __init__(self, recorder: SpanRecorder, name: str, manager) -> None:
        self.recorder = recorder
        self.name = name
        self.manager = manager

    def __enter__(self):
        return self.recorder.call(self.name, self.manager.__enter__, (), {})

    def __exit__(self, *exc_info):
        return self.manager.__exit__(*exc_info)


def _add(counters: dict, name: str, amount: float = 1) -> None:
    counters[name] = counters.get(name, 0) + amount


def _subclasses(cls) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns a function that undoes it."""
    # Submodules by full name: some packages re-export a function under the
    # module's own name (``repro.symbolic.simplify``).
    (
        facade, campaign_cache, scheduler, store, core_events, stages, diode, coordinator,
        fields, checker, parser, patcher, vm, lang_compile, corpus, bitblast, engine,
        equivalence, evaluate, simplify,
    ) = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "api.facade", "campaign.cache", "campaign.scheduler", "campaign.store",
            "core.events", "core.stages", "discovery.diode", "dist.coordinator",
            "formats.fields", "lang.checker", "lang.parser", "lang.patcher", "lang.vm",
            "lang.compile", "scenarios.corpus", "solver.bitblast", "solver.engine",
            "solver.equivalence", "symbolic.evaluate", "symbolic.simplify",
        )
    )

    patches = _Patches()

    def method(cls, attr: str, name, after=None) -> None:
        patches.set(cls, attr, _wrap(recorder, name, cls.__dict__[attr], after))

    def function(module, attr: str, name, after=None) -> None:
        original = getattr(module, attr)
        patches.function(original, _wrap(recorder, name, original, after))

    # api
    method(facade.RepairSession, "__init__", "api.session_build")
    checkout = facade.SessionPool.__dict__["checkout"]

    def timed_checkout(self, *args, **kwargs):
        return _TimedEnter(recorder, "api.pool_wait", checkout(self, *args, **kwargs))

    patches.set(facade.SessionPool, "checkout", timed_checkout)

    def after_run(counters: dict, args, report) -> None:
        for event in report.events:
            if isinstance(event, core_events.StageFinished):
                _add(counters, f"core.stage.{event.stage}_ms", event.elapsed_s * 1e3)
            elif isinstance(event, core_events.CandidateRejected):
                _add(counters, "core.candidates")
            elif isinstance(event, core_events.PatchValidated):
                _add(counters, "core.candidates")
                _add(counters, "core.validated")

    method(facade.RepairSession, "run", "api.run", after_run)

    # core: the stage graph behind the facade
    method(stages.TransferEngine, "transfer", "core.engine")
    method(stages.TransferEngine, "repair", "core.engine")

    # lang
    method(
        vm.VM,
        "run",
        lambda args, kwargs: (
            "lang.vm.symbolic" if args[0].config.track_symbolic else "lang.vm.concrete"
        ),
    )
    cache_info = lang_compile.compile_cache_info
    digest_of = lang_compile.program_digest

    digests: dict[int, tuple[object, str]] = {}  # id(program) -> (program, digest)

    def compile_name(args, kwargs) -> str:
        # A cache hit is a lookup; only a miss compiles.  Digests are kept per
        # program object (a DIODE rescan runs one program hundreds of times).
        program = args[0]
        entry = digests.get(id(program))
        if entry is None or entry[0] is not program:
            if len(digests) > 512:
                digests.clear()
            entry = digests[id(program)] = (program, digest_of(program))
        observed = args[1] if len(args) > 1 else kwargs.get("observed", False)
        key = (entry[1], "observed") if observed else entry[1]
        return "lang.compile_hit" if key in cache_info()["digests"] else "lang.compile"

    function(lang_compile, "compile_program", compile_name)
    function(parser, "parse_program", "lang.parse")
    function(checker, "check_program", "lang.check")
    function(patcher, "apply_patch", "lang.patch")

    # discovery
    def after_attack(counters: dict, args, finding) -> None:
        if finding is not None:
            _add(counters, "discovery.findings")

    method(diode.Diode, "attack_site", "discovery.attack_site", after_attack)

    # formats
    for cls in _subclasses(fields.FormatSpec):
        if "field_map" in cls.__dict__ and not getattr(
            cls.__dict__["field_map"], "__isabstractmethod__", False
        ):
            method(cls, "field_map", "formats.field_map")
    method(fields.FormatSpec, "with_values", "formats.with_values")

    # symbolic
    function(simplify, "simplify", "symbolic.simplify")
    function(evaluate, "evaluate", "symbolic.evaluate")

    # solver
    def after_equivalent(counters: dict, args, result) -> None:
        method_name = result.method if result.method in EQUIV_METHODS else "other"
        _add(counters, f"solver.equiv.{method_name}")
        if result.verdict is equivalence.Verdict.PROBABLY_EQUIVALENT:
            _add(counters, "solver.unproven_accepts")

    method(equivalence.EquivalenceChecker, "equivalent", "solver.equiv", after_equivalent)
    method(engine.ValidationEngine, "check_sat", "solver.sat")
    method(bitblast.BitBlaster, "blast", "solver.bitblast")

    def after_cache_get(counters: dict, args, payload) -> None:
        if payload is not None:
            _add(counters, "solver.persistent_hits")

    for cls in (campaign_cache.PersistentSolverCache, campaign_cache.ShardedSolverCache):
        method(cls, "get", "solver.persistent_get", after_cache_get)

    # campaign
    def after_campaign(counters: dict, args, report) -> None:
        _add(counters, "campaign.slots", max(1, args[0].options.jobs))

    method(scheduler.CampaignScheduler, "run", "campaign.run", after_campaign)

    def after_append(counters: dict, args, _result) -> None:
        if args[1].attempt > 1:
            _add(counters, "campaign.retries")

    method(store.RunStore, "append", "campaign.store_append", after_append)

    # scenarios
    function(corpus, "generate_corpus", "scenarios.generate")
    patches.set(
        corpus.ScenarioCorpus,
        "load",
        classmethod(
            _wrap(recorder, "scenarios.manifest_load", corpus.ScenarioCorpus.__dict__["load"].__func__)
        ),
    )

    # dist
    def after_dist(counters: dict, args, report) -> None:
        reported = report.metrics.get("counters") or {}
        _add(counters, "dist.slots", args[0].options.nodes)
        for name in ("dist.steals", "dist.cache_local_hits", "dist.cache_remote_hits"):
            _add(counters, name, reported.get(name, 0))

    method(coordinator.DistributedCoordinator, "run", "dist.run", after_dist)
    return patches.undo


# -- fold ------------------------------------------------------------------------------


def load_spans(trace_dir: str | Path) -> list[list]:
    """Every flushed thread's span list under ``trace_dir``."""
    threads: list[list] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    threads.extend(json.loads(line)["threads"])
    return threads


#: Per-layer metrics the service workload measures on its client side; the
#: other workloads report them as 0.
CLIENT_METRICS = (
    "service.submit_ms.p50",
    "service.run_ms.p50",
    "service.wait_ms.p50",
    "service.rejected",
)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if "_ms" in name:
        return "ms"
    if name.endswith(("_share", "_rate")) or "_per_" in name:
        return "ratio"
    return "count"


def _merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, non-overlapping union of ``intervals``."""
    merged: list[list[float]] = []
    for began, ended in sorted(intervals):
        if merged and began <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], ended)
        else:
            merged.append([began, ended])
    return [(began, ended) for began, ended in merged]


def _covered(merged: list[tuple[float, float]], began: float, ended: float) -> float:
    """How much of ``[began, ended]`` the merged intervals cover."""
    return sum(
        max(0.0, min(ended, stop) - max(began, first)) for first, stop in merged
    )


#: Spans folded as a mean per call over the whole run (set-up work).
SETUP_SPANS = ("api.session_build", "scenarios.generate", "scenarios.manifest_load")


def fold(threads: list[list], window: tuple[float, float], operations: int) -> dict:
    """Per-layer metrics from the spans that started inside ``window``.

    Times and counts are per completed operation (``operations``: repairs,
    jobs or requests in the window); shares and rates are ratios; the
    set-up spans in :data:`SETUP_SPANS` are a mean per call over the whole
    run, and ``campaign.run_ms``/``dist.run_ms`` a mean per campaign.  A
    layer's self time is its spans' time minus what their child spans (same
    process and thread) cover; ``<layer>.self_share`` is its part of the
    self time of all layers.
    """
    start, end = window
    # Jobs run in worker processes; a campaign's self time is the part of
    # its wall time during which no job of its plane was running.
    job_intervals = {
        plane: _merge(
            (began, ended)
            for spans in threads
            for name, began, ended, _parent, _counters in spans
            if name == f"{plane}.job"
        )
        for plane in ("campaign", "dist")
    }
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    setup_total: dict[str, float] = {}
    setup_calls: dict[str, int] = {}
    self_ms = dict.fromkeys(LAYERS, 0.0)
    counters: dict[str, float] = {}
    trial_runs = 0
    for spans in threads:
        child_ms = [0.0] * len(spans)
        for name, began, ended, parent, _counters in spans:
            if parent >= 0:
                child_ms[parent] += (ended - began) * 1e3
        for index, (name, began, ended, parent, span_counters) in enumerate(spans):
            duration = (ended - began) * 1e3
            if name in SETUP_SPANS:
                setup_total[name] = setup_total.get(name, 0.0) + duration
                setup_calls[name] = setup_calls.get(name, 0) + 1
            if not start <= began < end:
                continue
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            if name in ("campaign.run", "dist.run"):
                covered = _covered(job_intervals[layer], began, ended) * 1e3
                self_ms[layer] += duration - child_ms[index] - covered
            else:
                self_ms[layer] += duration - child_ms[index]
            if span_counters:
                for key, amount in span_counters.items():
                    counters[key] = counters.get(key, 0) + amount
            if name.startswith("lang.vm."):
                ancestor = parent
                while ancestor >= 0:
                    if spans[ancestor][0] == "discovery.attack_site":
                        trial_runs += 1
                        break
                    ancestor = spans[ancestor][3]

    ops = max(operations, 1)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_op(name: str) -> float:
        return total.get(name, 0.0) / ops

    def calls_per_op(name: str) -> float:
        return calls.get(name, 0) / ops

    def counter_per_op(name: str) -> float:
        return counters.get(name, 0) / ops

    def idle_share(plane: str) -> float:
        # 1 - busy / (slots x wall), over every campaign run in the window.
        capacity = sum(
            (ended - began) * 1e3 * (span_counters or {}).get(f"{plane}.slots", 1)
            for spans in threads
            for name, began, ended, _parent, span_counters in spans
            if name == f"{plane}.run" and start <= began < end
        )
        return 1.0 - ratio(total.get(f"{plane}.job", 0.0), capacity) if capacity else 0.0

    metrics: dict[str, float] = {
        "api.session_build_ms": ratio(
            setup_total.get("api.session_build", 0.0), setup_calls.get("api.session_build", 0)
        ),
        "api.pool_wait_ms": per_op("api.pool_wait"),
        "core.candidates_per_validated": ratio(
            counters.get("core.candidates", 0), counters.get("core.validated", 0)
        ),
        "lang.vm.concrete_runs": calls_per_op("lang.vm.concrete"),
        "lang.vm.concrete_ms": per_op("lang.vm.concrete"),
        "lang.vm.symbolic_runs": calls_per_op("lang.vm.symbolic"),
        "lang.vm.symbolic_ms": per_op("lang.vm.symbolic"),
        "lang.compiles": calls_per_op("lang.compile"),
        "lang.compile_ms": per_op("lang.compile"),
        "lang.compile_cache_hit_rate": ratio(
            calls.get("lang.compile_hit", 0),
            calls.get("lang.compile_hit", 0) + calls.get("lang.compile", 0),
        ),
        "lang.parse_ms": per_op("lang.parse"),
        "lang.check_ms": per_op("lang.check"),
        "lang.patch_ms": per_op("lang.patch"),
        "discovery.diode_ms": per_op("discovery.attack_site"),
        "discovery.diode_sites": calls_per_op("discovery.attack_site"),
        "discovery.trial_runs": trial_runs / ops,
        "discovery.findings_per_site": ratio(
            counters.get("discovery.findings", 0), calls.get("discovery.attack_site", 0)
        ),
        "formats.field_maps": calls_per_op("formats.field_map"),
        "formats.field_map_ms": per_op("formats.field_map"),
        "formats.with_values_ms": per_op("formats.with_values"),
        "symbolic.simplify_calls": calls_per_op("symbolic.simplify"),
        "symbolic.simplify_ms": per_op("symbolic.simplify"),
        "symbolic.evaluate_ms": per_op("symbolic.evaluate"),
        "solver.equiv_queries": calls_per_op("solver.equiv"),
        "solver.equiv_ms": per_op("solver.equiv"),
        "solver.unproven_accepts": counter_per_op("solver.unproven_accepts"),
        "solver.sat_queries": calls_per_op("solver.sat"),
        "solver.sat_ms": per_op("solver.sat"),
        "solver.bitblast_ms": per_op("solver.bitblast"),
        "solver.persistent_hit_rate": ratio(
            counters.get("solver.persistent_hits", 0), calls.get("solver.persistent_get", 0)
        ),
        "campaign.run_ms": ratio(total.get("campaign.run", 0.0), calls.get("campaign.run", 0)),
        "campaign.job_busy_ms": per_op("campaign.job"),
        "campaign.idle_share": idle_share("campaign"),
        "campaign.store_append_ms": per_op("campaign.store_append"),
        "campaign.retries": counters.get("campaign.retries", 0),
        "scenarios.generate_ms": ratio(
            setup_total.get("scenarios.generate", 0.0), setup_calls.get("scenarios.generate", 0)
        ),
        "scenarios.manifest_load_ms": ratio(
            setup_total.get("scenarios.manifest_load", 0.0),
            setup_calls.get("scenarios.manifest_load", 0),
        ),
        "dist.run_ms": ratio(total.get("dist.run", 0.0), calls.get("dist.run", 0)),
        "dist.idle_share": idle_share("dist"),
        "dist.steals": counter_per_op("dist.steals"),
        "dist.cache_local_share": ratio(
            counters.get("dist.cache_local_hits", 0),
            counters.get("dist.cache_local_hits", 0) + counters.get("dist.cache_remote_hits", 0),
        ),
    }
    for stage in STAGES:
        metrics[f"core.stage.{stage}_ms"] = counter_per_op(f"core.stage.{stage}_ms")
    for method_name in EQUIV_METHODS + ("other",):
        metrics[f"solver.equiv.{method_name}"] = counter_per_op(f"solver.equiv.{method_name}")
    self_total = sum(self_ms.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = ratio(self_ms[layer], self_total)
    metrics.update(dict.fromkeys(CLIENT_METRICS, 0.0))
    return metrics
