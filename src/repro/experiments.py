"""The paper's evaluation: the 19 donor/recipient transfers of Figure 8.

Each :class:`ErrorCase` describes one error in a recipient application: the
input format, the seed-input field values, and the error-triggering field
values.  The error-triggering values reproduce what the paper's error
discovery produced — DIODE for the integer overflows, fuzzing for the
out-of-bounds accesses, and the CVE proof-of-concept for the divide-by-zero —
and :func:`discover_error_input` shows that the in-repo DIODE/fuzzer find
equivalent inputs from scratch.

``FIGURE8_ROWS`` lists every recipient/target/donor combination of the table.
The benchmark harness (``benchmarks/bench_figure8_table.py``) iterates over it
and regenerates the table's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .api import RepairRequest, RepairSession
from .apps import get_application
from .apps.registry import Application, ErrorTarget
from .core.pipeline import CodePhageOptions, TransferOutcome
from .discovery.diode import Diode, DiodeOptions
from .discovery.fuzzer import FieldFuzzer, FuzzerOptions
from .formats.registry import get_format
from .lang.trace import ErrorKind


@dataclass(frozen=True)
class ErrorCase:
    """One error in a recipient application, with its seed/error inputs."""

    case_id: str
    recipient: str
    target_id: str
    format_name: str
    seed_values: dict = field(default_factory=dict)
    error_values: dict = field(default_factory=dict)
    discovered_by: str = "diode"
    donors: tuple[str, ...] = ()

    def application(self) -> Application:
        return get_application(self.recipient)

    def target(self) -> ErrorTarget:
        return self.application().target(self.target_id)

    def seed_input(self) -> bytes:
        spec = get_format(self.format_name)
        return spec.build(self.seed_values) if self.seed_values else spec.build()

    def error_input(self) -> bytes:
        spec = get_format(self.format_name)
        base = self.seed_input()
        return spec.with_values(base, **self.error_values)


#: The ten errors of the evaluation (§4), keyed by a short case id.
ERROR_CASES: dict[str, ErrorCase] = {
    case.case_id: case
    for case in (
        ErrorCase(
            case_id="cwebp-jpegdec",
            recipient="cwebp",
            target_id="jpegdec.c:248",
            format_name="jpeg",
            error_values={
                "/start_frame/content/height": 62848,
                "/start_frame/content/width": 23200,
            },
            discovered_by="diode",
            donors=("feh", "mtpaint", "viewnior"),
        ),
        ErrorCase(
            case_id="dillo-png",
            recipient="dillo",
            target_id="png.c:203",
            format_name="png",
            error_values={"/ihdr/width": 65536, "/ihdr/height": 65536},
            discovered_by="diode",
            donors=("mtpaint", "feh", "viewnior"),
        ),
        ErrorCase(
            case_id="dillo-fltk",
            recipient="dillo",
            target_id="fltkimagebuf.cc:39",
            format_name="png",
            seed_values={"/ihdr/color_type": 6},
            error_values={
                "/ihdr/color_type": 6,
                "/ihdr/width": 46000,
                "/ihdr/height": 46000,
            },
            discovered_by="diode",
            donors=("mtpaint", "feh", "viewnior"),
        ),
        ErrorCase(
            case_id="display-xwindow",
            recipient="display",
            target_id="xwindow.c:5619",
            format_name="tiff",
            error_values={"/ifd/width": 40000, "/ifd/height": 40000},
            discovered_by="diode",
            donors=("viewnior", "feh"),
        ),
        ErrorCase(
            case_id="display-resize",
            recipient="display",
            target_id="display.c:4393",
            format_name="tiff",
            error_values={"/ifd/width": 33000, "/ifd/height": 33000},
            discovered_by="diode",
            donors=("viewnior", "feh"),
        ),
        ErrorCase(
            case_id="swfplay-rgb",
            recipient="swfplay",
            target_id="jpeg_rgb_decoder.c:253",
            format_name="swf",
            error_values={"/jpeg/width": 40000, "/jpeg/height": 30000},
            discovered_by="diode",
            donors=("gnash",),
        ),
        ErrorCase(
            case_id="swfplay-jpeg",
            recipient="swfplay",
            target_id="jpeg.c:192",
            format_name="swf",
            error_values={"/jpeg/width": 60000, "/jpeg/h_samp": 200, "/jpeg/v_samp": 200},
            discovered_by="diode",
            donors=("gnash",),
        ),
        ErrorCase(
            case_id="jasper-tiles",
            recipient="jasper",
            target_id="jpc_dec.c:492",
            format_name="jp2",
            error_values={"/sot/tileno": 4},
            discovered_by="fuzzing",
            donors=("openjpeg",),
        ),
        ErrorCase(
            case_id="gif2tiff-lzw",
            recipient="gif2tiff",
            target_id="gif2tiff.c:355",
            format_name="gif",
            error_values={"/image/code_size": 16},
            discovered_by="fuzzing",
            donors=("display-6.5.2-9",),
        ),
        ErrorCase(
            case_id="wireshark-dcp",
            recipient="wireshark-1.4.14",
            target_id="packet-dcp-etsi.c:258",
            format_name="dcp",
            error_values={"/dcp/plen": 0},
            discovered_by="cve",
            donors=("wireshark-1.8.6",),
        ),
    )
}


@dataclass(frozen=True)
class Figure8Row:
    """One row of Figure 8: an error case paired with one donor."""

    case_id: str
    donor: str

    @property
    def case(self) -> ErrorCase:
        return ERROR_CASES[self.case_id]


#: All 18 rows of Figure 8, in the paper's order.
FIGURE8_ROWS: tuple[Figure8Row, ...] = tuple(
    Figure8Row(case_id=case_id, donor=donor)
    for case_id in (
        "cwebp-jpegdec",
        "dillo-png",
        "dillo-fltk",
        "display-xwindow",
        "display-resize",
        "swfplay-rgb",
        "swfplay-jpeg",
        "jasper-tiles",
        "gif2tiff-lzw",
        "wireshark-dcp",
    )
    for donor in ERROR_CASES[case_id].donors
)


def run_row(
    row: Figure8Row,
    options: Optional[CodePhageOptions] = None,
    session: Optional[RepairSession] = None,
) -> TransferOutcome:
    """Run one Figure 8 row through the :mod:`repro.api` facade.

    Batch callers pass one pre-configured ``session`` for every row;
    standalone callers get a fresh session per row, built from ``options``.
    """
    if session is None:
        session = RepairSession(options=options)
    elif options is not None:
        raise ValueError(
            "pass either options or a session, not both: a given session "
            "runs under its own options"
        )
    report = session.run(
        RepairRequest.for_case(row.case, donor=get_application(row.donor))
    )
    return report.outcome


def execute_job_report(job, persistent_cache_path: Optional[str] = None):
    """Run one campaign job and return the full :class:`~repro.api.RepairReport`.

    The report carries the typed event stream alongside the outcome, which
    campaign workers serialize into their result payload so the run store can
    persist it (for ``codephage trace``/``bundle``).  ``job`` is duck-typed
    (``case_id``/``donor``/``build_options``) to keep this module free of a
    circular import on :mod:`repro.campaign`.
    """
    row = Figure8Row(case_id=job.case_id, donor=job.donor)
    session = RepairSession(options=job.build_options(persistent_cache_path))
    return session.run(
        RepairRequest.for_case(row.case, donor=get_application(row.donor))
    )


def execute_job(job, persistent_cache_path: Optional[str] = None) -> TransferOutcome:
    """Run one campaign job (a :class:`repro.campaign.plan.JobSpec`)."""
    return execute_job_report(job, persistent_cache_path=persistent_cache_path).outcome


def run_case_with_all_donors(
    case_id: str,
    options: Optional[CodePhageOptions] = None,
    session: Optional[RepairSession] = None,
) -> list[TransferOutcome]:
    """Run one error case against every donor listed for it.

    All donors run through one shared session — one solver checker, one
    cache, one incremental solver — exactly like a donor-selection repair's
    donor loop, so the per-donor solver/cache statistics are comparable
    across the two paths.  Each outcome's metrics carry the SAT solver's
    counter deltas (``solver_backend_stats``) and query-batch hits for its
    donor, the same fields campaign workers persist and
    :class:`~repro.campaign.scheduler.CampaignReport` aggregates; later
    donors benefit from earlier donors' learned clauses and deduped queries,
    which is visible in those deltas.
    """
    case = ERROR_CASES[case_id]
    session = session or RepairSession(options=options)
    return [
        run_row(Figure8Row(case_id=case_id, donor=donor), session=session)
        for donor in case.donors
    ]


def discover_error_input(case_id: str) -> Optional[bytes]:
    """Re-discover an error-triggering input with the in-repo tools.

    Integer-overflow cases use the DIODE reproduction; the out-of-bounds and
    divide-by-zero cases use the field fuzzer.  Returns the discovered input
    (or None if the search fails), demonstrating that the evaluation does not
    depend on the hand-specified error values.
    """
    case = ERROR_CASES[case_id]
    application = case.application()
    format_spec = get_format(case.format_name)
    seed = case.seed_input()
    target = case.target()

    if target.error_kind is ErrorKind.INTEGER_OVERFLOW:
        diode = Diode(application.program(), format_spec, options=DiodeOptions())
        findings = diode.discover(seed, site_function=target.site_function)
        return findings[0].error_input if findings else None

    fuzzer = FieldFuzzer(
        application.program(),
        format_spec,
        FuzzerOptions(iterations=400, stop_after=1),
    )
    findings = fuzzer.campaign(seed, application=application.full_name)
    return findings[0].error_input if findings else None
