"""Registry of donor and recipient applications.

Each application is a MicroC re-implementation of one of the paper's benchmark
programs: it reads the same (simplified) input format, performs the same
dimension/size computations, and contains the same error or the same
protective check, so that the CP pipeline observes the same dynamic behaviour
the paper describes (flipped branches, overflowing allocation sites,
divide-by-zero sites, data structures holding the relevant input fields).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from ..lang.checker import Program, compile_program
from ..lang.compile import evicting_new_artifacts
from ..lang.trace import ErrorKind


class AppError(Exception):
    """Raised for unknown applications or malformed registrations."""


@dataclass(frozen=True)
class ErrorTarget:
    """A known error location in a recipient application.

    ``target_id`` follows the paper's file:line convention (e.g.
    ``jpegdec.c:248``); ``site_function`` is the MicroC function containing the
    error site, used to match the detected error against the intended target.
    """

    target_id: str
    error_kind: ErrorKind
    site_function: str
    description: str = ""


@dataclass(frozen=True)
class Application:
    """A donor or recipient application."""

    name: str
    version: str
    source: str
    formats: tuple[str, ...]
    role: str  # "donor", "recipient", or "both"
    description: str = ""
    targets: tuple[ErrorTarget, ...] = ()
    library: str = ""  # underlying input-parsing library (for donor filtering, §4.1)

    @property
    def full_name(self) -> str:
        if self.name.endswith(self.version):
            return self.name
        return f"{self.name}-{self.version}"

    def program(self) -> Program:
        """The compiled (type-checked) program; cached per application."""
        return _compile_cached(self.name, self.version)

    def target(self, target_id: str) -> ErrorTarget:
        for target in self.targets:
            if target.target_id == target_id:
                return target
        raise AppError(f"application {self.full_name} has no target {target_id!r}")

    def reads_format(self, format_name: str) -> bool:
        return format_name in self.formats


_APPLICATIONS: dict[str, Application] = {}


@lru_cache(maxsize=None)
def _compile_cached(name: str, version: str) -> Program:
    application = get_application(name)
    return compile_program(application.source, name=application.full_name)


def register_application(application: Application) -> Application:
    if application.name in _APPLICATIONS:
        raise AppError(f"application {application.name!r} already registered")
    _APPLICATIONS[application.name] = application
    return application


def unregister_application(name: str) -> Application:
    """Remove one application and drop any cached compilation for it.

    The compile cache is keyed by name, so an unregister followed by a
    re-register under the same name (e.g. a regenerated scenario corpus)
    must not serve the previous registration's program.
    """
    try:
        application = _APPLICATIONS.pop(name)
    except KeyError:
        known = ", ".join(sorted(_APPLICATIONS))
        raise AppError(f"unknown application {name!r} (known: {known})") from None
    _compile_cached.cache_clear()
    return application


@contextmanager
def scoped_registration(*applications: Application) -> Iterator[tuple[Application, ...]]:
    """Register applications for the duration of a ``with`` block.

    Generated scenario corpora and synthetic test applications need to come
    and go without leaking duplicate-name ``AppError`` into later runs; this
    is the supported way to do that.  Registration is all-or-nothing: if one
    application clashes with an existing name, the ones registered so far
    are removed before the error propagates.

    The scope also takes its compiled artifacts with it: compiled VM
    artifacts, checked programs and parsed patch units first cached inside
    the block are evicted on exit
    (:func:`repro.lang.compile.evicting_new_artifacts`), so a long-lived
    campaign worker holds no more of them after a generated transfer than
    before it.  Entries that existed before the block stay.
    """
    registered: list[str] = []
    with evicting_new_artifacts():
        try:
            for application in applications:
                register_application(application)
                registered.append(application.name)
            yield applications
        finally:
            for name in reversed(registered):
                _APPLICATIONS.pop(name, None)
            if registered:
                _compile_cached.cache_clear()


def get_application(name: str) -> Application:
    try:
        return _APPLICATIONS[name]
    except KeyError:
        known = ", ".join(sorted(_APPLICATIONS))
        raise AppError(f"unknown application {name!r} (known: {known})") from None


def all_applications() -> list[Application]:
    return [app for _, app in sorted(_APPLICATIONS.items())]


def donors() -> list[Application]:
    return [app for app in all_applications() if app.role in ("donor", "both")]


def recipients() -> list[Application]:
    return [app for app in all_applications() if app.role in ("recipient", "both")]


def donors_for_format(format_name: str) -> list[Application]:
    """Donor applications able to read the given input format."""
    return [app for app in donors() if app.reads_format(format_name)]


def clear_registry() -> None:
    """Used by tests that register synthetic applications."""
    _APPLICATIONS.clear()
    _compile_cached.cache_clear()
