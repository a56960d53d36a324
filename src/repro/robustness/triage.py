"""Crash triage: bucket failures by exception fingerprint.

A fleet of chaos runs (or a ``--keep-going`` suite) produces many raw
failures; most are the *same* bug hit from different tasks.  The triage
pipeline collapses them: every crash is reduced to a **fingerprint** --
the exception type plus a stable stack signature built from the
function names of the frames inside this package.  Line numbers and
messages are deliberately excluded (addresses and counters vary run to
run; function names survive cosmetic edits), so two crashes with the
same fingerprint are the same bucket and one of them is enough to
debug.

This module is stdlib-only and imports nothing from the rest of the
package: both :mod:`repro.perf.runner` (cross-process failure reports)
and :mod:`repro.robustness.chaos` depend on it.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

#: Frames kept in a stack signature (innermost last).
MAX_FRAMES = 8

_PACKAGE_MARKER = f"{os.sep}repro{os.sep}"


def repro_frames(exc: BaseException) -> List[str]:
    """Function names of the traceback frames inside this package.

    Frames from the interpreter, pytest, or the standard library are
    noise for bucketing purposes and are dropped.
    """
    summary = traceback.extract_tb(exc.__traceback__)
    return [frame.name for frame in summary if _PACKAGE_MARKER in frame.filename]


def fingerprint_from_frames(exc_type: str, frames: Sequence[str]) -> str:
    """Build a fingerprint from a pre-extracted (picklable) stack.

    The suite runner's worker processes send ``(exc_type, frames)``
    across the pipe instead of exception objects; the parent calls this
    to get the same fingerprint :func:`crash_fingerprint` would.
    """
    return f"{exc_type}|" + ">".join(list(frames)[-MAX_FRAMES:])


def crash_fingerprint(exc: BaseException) -> str:
    """The triage fingerprint of one exception: type + stack signature."""
    return fingerprint_from_frames(type(exc).__name__, repro_frames(exc))


@dataclass(frozen=True)
class CrashRecord:
    """One observed crash, ready for bucketing."""

    task: str
    exc_type: str
    message: str
    fingerprint: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "task": self.task,
            "exc_type": self.exc_type,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


def record_crash(task: str, exc: BaseException) -> CrashRecord:
    """Capture ``exc`` (raised while running ``task``) as a record."""
    return CrashRecord(
        task=task,
        exc_type=type(exc).__name__,
        message=str(exc),
        fingerprint=crash_fingerprint(exc),
    )


@dataclass
class TriageReport:
    """Crash records grouped by fingerprint."""

    buckets: Dict[str, List[CrashRecord]] = field(default_factory=dict)

    def add(self, record: CrashRecord) -> None:
        self.buckets.setdefault(record.fingerprint, []).append(record)

    @property
    def total_crashes(self) -> int:
        return sum(len(records) for records in self.buckets.values())

    def counts(self) -> Dict[str, int]:
        """Bucket sizes, largest first (ties broken by fingerprint)."""
        return dict(
            sorted(
                ((fp, len(records)) for fp, records in self.buckets.items()),
                key=lambda item: (-item[1], item[0]),
            )
        )

    def exemplar(self, fingerprint: str) -> CrashRecord:
        """One representative crash of a bucket (the first observed)."""
        return self.buckets[fingerprint][0]

    def summary_lines(self) -> List[str]:
        lines = []
        for fingerprint, count in self.counts().items():
            record = self.exemplar(fingerprint)
            lines.append(
                f"{count:4d}x {record.exc_type}: {record.message}"
                f"  [{fingerprint}]  e.g. task {record.task}"
            )
        return lines

    def to_dict(self) -> Dict[str, List[Dict[str, str]]]:
        return {
            fingerprint: [record.to_dict() for record in records]
            for fingerprint, records in sorted(self.buckets.items())
        }


def triage(records: Iterable[CrashRecord]) -> TriageReport:
    """Bucket an iterable of crash records by fingerprint."""
    report = TriageReport()
    for record in records:
        report.add(record)
    return report
