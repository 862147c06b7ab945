"""Command-line interface for the CP reproduction.

Subcommands::

    codephage list                       # applications and formats in the database
    codephage transfer CASE [--donor D] [--progress] [--policy P]
                                         # run one transfer (e.g. cwebp-jpegdec)
    codephage figure8 [--out FILE] [--jobs N] [--nodes N] [--resume]
                                         # regenerate the Figure 8 table
    codephage campaign [--cases ...] [--donors ...] [--strategies ...] [--jobs N]
                                         # run an arbitrary transfer campaign
                                         # (--nodes N: distributed over N
                                         # emulated worker nodes, repro.dist)
    codephage matrix [--seed N] [--pairs N] [--classes ...] [--formats ...]
                     [--hardness ...]    # generate a scenario corpus and run the
                                         # N-pairs x error-class transfer matrix
                                         # (--hardness adds adversarial dimensions
                                         # and reports a false-accept rate)
    codephage trace JOB_ID [--chrome]    # export a stored job's trace (spans)
    codephage bundle JOB_ID [--out F]    # export a repair evidence bundle
    codephage discover CASE              # re-discover the error input with DIODE/fuzzing

``figure8``, ``campaign``, and ``matrix`` all run through the campaign engine
(:mod:`repro.campaign`): jobs are scheduled over a worker pool, every attempt
is recorded in a resumable on-disk run store, and solver queries are shared
through a persistent cross-process cache.  ``matrix`` additionally generates
its corpus (:mod:`repro.scenarios`) from ``--seed`` — deterministically, so
job ids are stable and ``--resume`` works across invocations — and reports
per-error-class success rates.  ``--hardness`` extends the corpus beyond the
baseline diagonal (multi-defect recipients, cross-format donors, near-miss
donors, fuzzer-discovered triggers); near-miss jobs are *expected to fail*
validation, and the summary reports the false-accept rate (the share that
validated anyway — target 0.0).

Every subcommand routes repairs through the :mod:`repro.api` facade; this
module contains no stage-sequencing logic of its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .api import (
    POLICIES,
    ProgressPrinter,
    RepairRequest,
    RepairSession,
)
from .apps import all_applications, get_application
from .campaign import (
    CampaignPlan,
    CampaignScheduler,
    PlanError,
    RunStore,
    SchedulerOptions,
    StoreError,
    expand_plan,
    figure8_plan,
)
from .core.patch import PatchStrategy
from .experiments import ERROR_CASES, discover_error_input
from .formats import all_formats
from .formats.fields import FormatError
from .lang.trace import ErrorKind
from .obs import (
    BundleError,
    TraceObserver,
    Tracer,
    bundle_from_store,
    metrics as obs_metrics,
    trace_session,
    tracer_from_events,
    write_bundle,
)
from .scenarios import (
    HARDNESS_DIMENSIONS,
    CorpusConfig,
    ScenarioError,
    corpus_plan,
    generate_corpus,
    matrix_scheduler_kwargs,
    prepare_matrix_store,
)

DEFAULT_FIGURE8_STORE = "results/figure8-campaign"
DEFAULT_CAMPAIGN_STORE = "results/campaign"
DEFAULT_MATRIX_STORE = "results/matrix"


def _cmd_list(_: argparse.Namespace) -> int:
    print("Applications:")
    for app in all_applications():
        targets = ", ".join(t.target_id for t in app.targets) or "-"
        print(f"  {app.full_name:20s} role={app.role:9s} formats={','.join(app.formats):18s} targets={targets}")
    print("\nFormats:")
    for spec in all_formats():
        print(f"  {spec.name:6s} {spec.description}")
    print("\nError cases:")
    for case_id, case in ERROR_CASES.items():
        print(f"  {case_id:18s} {case.recipient:18s} {case.target_id:22s} donors={','.join(case.donors)}")
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    case = ERROR_CASES[args.case]
    donor_name = args.donor or case.donors[0]
    observers: list = [ProgressPrinter(verbose=args.verbose)] if args.progress else []
    if args.progress:
        # Live metric snapshot lines ride on the progress stream.
        obs_metrics.enable()
    tracer = None
    if args.trace:
        tracer = Tracer()
        observers.append(TraceObserver(tracer))
    session = RepairSession(observers=observers)
    request = RepairRequest(
        recipient=case.application(),
        target=case.target(),
        seed=case.seed_input(),
        error_input=case.error_input(),
        format_name=case.format_name,
        donor=get_application(donor_name),
        policy=args.policy,
    )
    if tracer is not None:
        with trace_session(tracer):
            report = session.run(request)
        trace_path = tracer.write(args.trace, chrome=args.chrome)
        print(f"trace: {len(tracer.spans)} spans -> {trace_path}", file=sys.stderr)
    else:
        report = session.run(request)
    outcome = report.outcome
    print(f"{case.recipient} <- {donor_name}: {'SUCCESS' if outcome.success else 'FAILED'}")
    for check in outcome.checks:
        print("  patch:", check.patch.render())
        print("  check size:", check.check_size, "| insertion points:", check.accounting)
    if not outcome.success:
        print("  reason:", outcome.failure_reason)
    if args.progress and outcome.metrics.stage_timings:
        breakdown = ", ".join(
            f"{stage} {elapsed * 1000.0:.1f}ms"
            for stage, elapsed in sorted(
                outcome.metrics.stage_timings.items(), key=lambda item: -item[1]
            )
        )
        print("  stage timings:", breakdown)
    if args.progress:
        solver = session.solver_statistics()
        for name, counters in sorted(solver["backends"].items()):
            if not counters.get("queries"):
                continue
            print(
                f"  solver {name}: {counters['queries']} queries, "
                f"{counters['conflicts']} conflicts, "
                f"{counters['learned_clauses']} learned, "
                f"{counters['time_s'] * 1000.0:.1f}ms"
            )
        print(
            f"  query batch: {solver['batch_hits']} hits "
            f"({solver['batch_dedupe_rate']:.0%} dedupe rate)"
        )
    return 0 if outcome.success else 1


def _run_campaign(
    plan: CampaignPlan,
    store_dir: str,
    *,
    jobs: int,
    resume: bool,
    timeout_s: float | None,
    retries: int,
    no_cache: bool,
    out: str | None,
    title: str,
    nodes: int = 0,
    store: RunStore | None = None,
    scheduler_kwargs=None,
    classify_record=None,
) -> int:
    """Shared driver for the ``figure8``, ``campaign``, and ``matrix`` subcommands.

    ``store`` may be passed pre-initialised (the matrix subcommand attaches
    to it earlier, before writing its corpus manifest); otherwise the plan
    is initialised here.  ``nodes > 0`` swaps the single-host scheduler for
    the coordinator/worker-node engine (:mod:`repro.dist`): jobs are placed
    on a consistent-hash ring over N emulated nodes and the solver cache
    becomes a partitioned key-space.
    """
    if store is None:
        store = RunStore(store_dir)
        try:
            store.initialise(plan, fresh=not resume)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    def on_result(job, result) -> None:
        if result.completed:
            record = result.record or {}
            status = "ok" if record.get("success") else "FAIL"
            print(
                f"[{status}] {record.get('recipient')} {record.get('target')} "
                f"<- {record.get('donor')} ({result.elapsed_s:.2f}s)"
            )
        else:
            print(f"[{result.status}] {job.describe()}: {result.error}")

    scheduler_kwargs = dict(scheduler_kwargs or {})
    if nodes > 0:
        from .dist import DistOptions, DistributedCoordinator

        engine = DistributedCoordinator(
            plan,
            store,
            DistOptions(
                nodes=nodes,
                timeout_s=timeout_s,
                retries=retries,
                use_persistent_cache=not no_cache,
            ),
            **scheduler_kwargs,
        )
    else:
        engine = CampaignScheduler(
            plan,
            store,
            SchedulerOptions(
                jobs=jobs,
                timeout_s=timeout_s,
                retries=retries,
                use_persistent_cache=not no_cache,
            ),
            **scheduler_kwargs,
        )
    report = engine.run(on_result=on_result)

    database = store.merge_into_database(plan)
    table = database.to_table(title=title)
    if classify_record is not None:
        rates = database.class_summary(classify_record)
        if rates:
            table += "\n\nSuccess by error class (all recorded runs):\n" + "\n".join(
                f"  {name:22s} {counters['successful']}/{counters['transfers']} "
                f"({counters['success_rate']:.0%})"
                for name, counters in sorted(rates.items())
            )
    # The run store keeps the machine-readable results; --out (or the store
    # itself) receives the rendered table.
    database.save(store.directory / "results.json")
    table_path = Path(out) if out else store.directory / "table.md"
    table_path.parent.mkdir(parents=True, exist_ok=True)
    table_path.write_text(table + "\n")

    print("\n" + table)
    print()
    print(report.summary())
    if report.completed == 0 and report.skipped == len(plan) and len(plan) > 0:
        print(
            "note: every job was already complete in the store — the table "
            "above is replayed from previous runs; pass --fresh to recompute"
        )
    print(f"store: {store.directory} (table: {table_path}, records: results.json)")
    return 1 if report.failed else 0


def _cmd_figure8(args: argparse.Namespace) -> int:
    return _run_campaign(
        figure8_plan(),
        args.store,
        jobs=args.jobs,
        resume=not args.fresh,
        timeout_s=args.timeout,
        retries=args.retries,
        no_cache=args.no_cache,
        out=args.out,
        title="Figure 8 (reproduction)",
        nodes=args.nodes,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        plan = expand_plan(
            cases=args.cases or None,
            donors=args.donors or None,
            strategies=args.strategies or None,
        )
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_campaign(
        plan,
        args.store,
        jobs=args.jobs,
        resume=not args.fresh,
        timeout_s=args.timeout,
        retries=args.retries,
        no_cache=args.no_cache,
        out=args.out,
        title=f"Campaign ({len(plan)} transfers)",
        nodes=args.nodes,
    )


def _cmd_matrix(args: argparse.Namespace) -> int:
    # Deduplicate repeated values: a shell-expanded list should narrow the
    # corpus, not inflate it (mirrors expand_plan's --cases treatment).
    kinds = (
        tuple(ErrorKind(value) for value in dict.fromkeys(args.classes))
        if args.classes
        else CorpusConfig().error_kinds
    )
    hardness = tuple(dict.fromkeys(args.hardness or ("baseline",)))
    if "all" in hardness:
        hardness = HARDNESS_DIMENSIONS
    try:
        corpus = generate_corpus(
            CorpusConfig(
                seed=args.seed,
                pairs_per_class=args.pairs,
                error_kinds=kinds,
                formats=tuple(dict.fromkeys(args.formats or ())),
                hardness=hardness,
            )
        )
        plan = corpus_plan(corpus, strategies=args.strategies or None)
        store, manifest_path = prepare_matrix_store(
            corpus, plan, args.store, resume=not args.fresh
        )
    except (ScenarioError, PlanError, FormatError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kind_of_recipient = corpus.kind_of_recipient()
    print(
        f"scenario corpus: {len(corpus)} generated pairs "
        f"({args.pairs} per class, seed {args.seed}, "
        f"hardness: {'+'.join(hardness)}) -> {len(plan)} transfers "
        f"(manifest: {manifest_path})"
    )
    return _run_campaign(
        plan,
        args.store,
        jobs=args.jobs,
        resume=not args.fresh,
        timeout_s=args.timeout,
        retries=args.retries,
        no_cache=args.no_cache,
        out=args.out,
        title=f"Scenario matrix (seed {args.seed}, {len(plan)} transfers)",
        nodes=args.nodes,
        store=store,
        scheduler_kwargs=matrix_scheduler_kwargs(corpus, manifest_path),
        classify_record=lambda record: kind_of_recipient.get(record.recipient),
    )


def _find_store(job_id: str, store_arg: str | None) -> RunStore | None:
    """The run store holding ``job_id`` (explicit ``--store``, or a default).

    Without ``--store``, every default store directory with a plan is
    searched for a plan containing the job.
    """
    if store_arg:
        return RunStore(store_arg)
    for candidate in (
        DEFAULT_FIGURE8_STORE,
        DEFAULT_CAMPAIGN_STORE,
        DEFAULT_MATRIX_STORE,
    ):
        store = RunStore(candidate)
        try:
            plan = store.load_plan()
        except StoreError:
            continue
        if any(job.job_id == job_id for job in plan.jobs):
            return store
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    store = _find_store(args.job_id, args.store)
    if store is None:
        print(
            f"error: no run store contains job {args.job_id!r}; pass --store",
            file=sys.stderr,
        )
        return 2
    events = store.load_event_dicts(args.job_id)
    if not events:
        print(
            f"error: store {store.directory} has no event stream for job "
            f"{args.job_id!r} (the job has not completed under this version)",
            file=sys.stderr,
        )
        return 1
    tracer = tracer_from_events(events)
    suffix = ".json" if args.chrome else ".jsonl"
    out = Path(args.out) if args.out else store.directory / "traces" / f"{args.job_id}{suffix}"
    tracer.write(out, chrome=args.chrome)
    print(f"trace: {len(tracer.spans)} spans ({len(events)} events) -> {out}")
    return 0


def _cmd_bundle(args: argparse.Namespace) -> int:
    store = _find_store(args.job_id, args.store)
    if store is None:
        print(
            f"error: no run store contains job {args.job_id!r}; pass --store",
            file=sys.stderr,
        )
        return 2
    try:
        bundle = bundle_from_store(store, args.job_id)
    except (BundleError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else store.directory / "bundles" / f"{args.job_id}.json"
    write_bundle(bundle, out)
    repair = bundle["repair"]
    print(
        f"bundle: {repair['recipient']} <- {repair['donor']} "
        f"({'success' if repair['success'] else 'failed'}, schema v"
        f"{bundle['schema_version']}, {len(bundle['events'])} events) -> {out}"
    )
    return 0


DEFAULT_SERVICE_STORE = "results/service"


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service pulls in the HTTP stack, which no other
    # subcommand needs.
    from .service import RepairDaemon, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        pool_size=args.pool_size,
        queue_limit=args.queue_limit,
        retries=args.retries,
        default_budget_s=args.budget,
        max_budget_s=args.max_budget,
        store_dir=args.store,
        stores_root=args.stores_root,
    )
    daemon = RepairDaemon(config)
    host, port = daemon.address
    print(
        f"codephage service on http://{host}:{port} "
        f"({config.workers} workers, {config.pool_size} warm sessions, "
        f"queue limit {config.queue_limit}, store {config.store_dir})"
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        daemon.stop()
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    error_input = discover_error_input(args.case)
    if error_input is None:
        print("no error-triggering input found")
        return 1
    print(f"discovered a {len(error_input)}-byte error-triggering input: {error_input.hex()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="codephage", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications, formats, and error cases")

    transfer = sub.add_parser("transfer", help="run one donor/recipient transfer")
    transfer.add_argument("case", choices=sorted(ERROR_CASES))
    transfer.add_argument("--donor", default=None)
    transfer.add_argument(
        "--progress",
        action="store_true",
        help="render the pipeline event stream (per-stage timings) to stderr",
    )
    transfer.add_argument(
        "--verbose",
        action="store_true",
        help="with --progress, also print every rejected candidate and why",
    )
    transfer.add_argument(
        "--policy",
        choices=sorted(POLICIES),
        default=None,
        help="search policy for the candidate/donor retry loops",
    )
    transfer.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record tracing spans (stages, donor attempts, solver queries, "
        "VM runs) and write them here",
    )
    transfer.add_argument(
        "--chrome",
        action="store_true",
        help="with --trace, write Chrome trace_event JSON instead of span JSONL",
    )

    def add_campaign_arguments(command: argparse.ArgumentParser, default_store: str) -> None:
        command.add_argument("--out", default=None, help="write the rendered table here")
        command.add_argument("--jobs", type=int, default=1, help="worker processes")
        command.add_argument(
            "--nodes",
            type=int,
            default=0,
            help="run distributed: N emulated worker nodes claim jobs off a "
            "consistent-hash ring with a partitioned solver cache "
            "(0 = single-host scheduler; see docs/DISTRIBUTED.md)",
        )
        command.add_argument("--store", default=default_store, help="run store directory")
        command.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="per-attempt timeout in seconds (a retried job may run longer overall)",
        )
        command.add_argument(
            "--retries",
            type=int,
            default=1,
            help="extra attempts after a crashed, timed-out, or errored attempt",
        )
        command.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the persistent cross-process solver cache",
        )
        # Campaigns resume by default: completed jobs in the store are
        # skipped, so re-running an interrupted command picks up where it
        # left off.  --fresh is the destructive opt-in.
        mode = command.add_mutually_exclusive_group()
        mode.add_argument(
            "--fresh",
            action="store_true",
            help="discard previous records instead of resuming (the solver cache is kept)",
        )
        mode.add_argument(
            "--resume",
            action="store_true",
            help="resume from the run store (the default; kept for explicitness)",
        )

    figure8 = sub.add_parser(
        "figure8", help="regenerate the Figure 8 table via the campaign engine"
    )
    add_campaign_arguments(figure8, DEFAULT_FIGURE8_STORE)

    campaign = sub.add_parser("campaign", help="run a transfer campaign")
    add_campaign_arguments(campaign, DEFAULT_CAMPAIGN_STORE)
    campaign.add_argument(
        "--cases", nargs="+", choices=sorted(ERROR_CASES), help="restrict to these cases"
    )
    campaign.add_argument("--donors", nargs="+", help="restrict to these donors")
    campaign.add_argument(
        "--strategies",
        nargs="+",
        choices=[strategy.value for strategy in PatchStrategy],
        help="patch strategies to cross with the cases",
    )

    matrix = sub.add_parser(
        "matrix",
        help="generate a scenario corpus and run its error-class transfer matrix",
    )
    add_campaign_arguments(matrix, DEFAULT_MATRIX_STORE)
    matrix.add_argument(
        "--seed", type=int, default=0, help="corpus generation seed (drives everything)"
    )
    matrix.add_argument(
        "--pairs", type=int, default=2, help="donor/recipient pairs per error class"
    )
    matrix.add_argument(
        "--classes",
        nargs="+",
        choices=sorted(kind.value for kind in ErrorKind),
        help="restrict to these error classes (default: every class)",
    )
    matrix.add_argument(
        "--formats",
        nargs="+",
        help="restrict generation to these input formats",
    )
    matrix.add_argument(
        "--strategies",
        nargs="+",
        choices=[strategy.value for strategy in PatchStrategy],
        help="patch strategies to cross with the generated pairs",
    )
    matrix.add_argument(
        "--hardness",
        nargs="+",
        choices=[*HARDNESS_DIMENSIONS, "all"],
        help=(
            "hardness dimensions to generate (default: baseline); "
            "'all' selects every dimension — adversarial pairs report a "
            "false-accept rate in the campaign summary"
        ),
    )

    trace = sub.add_parser(
        "trace", help="export the span trace of a completed campaign job"
    )
    trace.add_argument("job_id", help="job id (shown in plan.json / records.jsonl)")
    trace.add_argument(
        "--store", default=None, help="run store directory (default: search the defaults)"
    )
    trace.add_argument(
        "--out", default=None, help="output path (default: <store>/traces/<job-id>)"
    )
    trace.add_argument(
        "--chrome",
        action="store_true",
        help="write Chrome trace_event JSON instead of span JSONL",
    )

    bundle = sub.add_parser(
        "bundle", help="export the repair evidence bundle of a completed job"
    )
    bundle.add_argument("job_id", help="job id (shown in plan.json / records.jsonl)")
    bundle.add_argument(
        "--store", default=None, help="run store directory (default: search the defaults)"
    )
    bundle.add_argument(
        "--out", default=None, help="output path (default: <store>/bundles/<job-id>.json)"
    )

    discover = sub.add_parser("discover", help="re-discover an error input")
    discover.add_argument("case", choices=sorted(ERROR_CASES))

    serve = sub.add_parser(
        "serve", help="run the repair-as-a-service HTTP daemon (see docs/SERVICE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="repair worker threads"
    )
    serve.add_argument(
        "--pool-size", type=int, default=2, help="warm sessions in the pool"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="bounded job queue size (429 once full)",
    )
    serve.add_argument(
        "--retries", type=int, default=0, help="extra attempts per failing job"
    )
    serve.add_argument(
        "--budget", type=float, default=30.0, help="default per-job budget (seconds)"
    )
    serve.add_argument(
        "--max-budget",
        type=float,
        default=300.0,
        help="largest accepted per-job budget (seconds)",
    )
    serve.add_argument(
        "--store",
        default=DEFAULT_SERVICE_STORE,
        help="run store directory for service jobs",
    )
    serve.add_argument(
        "--stores-root",
        default="results",
        help="directory whose campaign stores /v1/stores exposes",
    )

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "transfer": _cmd_transfer,
        "figure8": _cmd_figure8,
        "campaign": _cmd_campaign,
        "matrix": _cmd_matrix,
        "trace": _cmd_trace,
        "bundle": _cmd_bundle,
        "discover": _cmd_discover,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
