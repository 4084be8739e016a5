"""Crash-safe journals and the durable writes behind them.

This module is the one place that knows how the toolchain makes a
ledger durable and how it reads one back.

Large cross-product studies must survive a crashed controller without
rerunning thousands of good runs, so every level of execution keeps an
append-only JSON-lines journal: one header line, then one line per
finished *unit*, each flushed *and fsynced* before the writer moves on
— the file is trustworthy up to the instant of a kill.  There are
three levels, one class each, differing only in their constants:

========================  ==============  ===========  ===============
journal                   file            header       unit
========================  ==============  ===========  ===============
:class:`RunJournal`       journal.jsonl   experiment   run
:class:`CampaignJournal`  journal.jsonl   campaign     experiment
:class:`StudyJournal`     study.jsonl     study        replication
========================  ==============  ===========  ===============

(the study journal has its own file name because a study directory
also *contains* campaign directories with journals of their own).

Reading is one fold for every writer, resumer, repairer and reader:
:func:`parse_jsonl` keeps the complete lines of the valid prefix, so a
final record without its newline — a writer killed mid-record — is
invisible everywhere, not just to resume.  :meth:`JsonlJournal.latest`
is the latest unit record per index (a resumed retry supersedes),
:meth:`~JsonlJournal.completed` the ok ones, and
:attr:`~JsonlJournal.completion` the completion marker.

:meth:`JsonlJournal.open` reopens a journal for appending and first
truncates a torn tail back to the valid prefix: without that, new
records would concatenate onto the partial line and corrupt the
boundary.  :meth:`~JsonlJournal.read` never truncates and never opens
for append.  :meth:`~JsonlJournal.truncate_before` cuts a journal in
place to a raw-byte record prefix (``pos study repair``), and
:func:`write_atomic` replaces a whole artifact through a temp file and
a rename.  Appends, truncations and atomic replacements are the only
durable writes the journals and the campaign and study artifacts make.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.errors import JournalError

__all__ = [
    "CampaignJournal",
    "JOURNAL_NAME",
    "JsonlJournal",
    "RunJournal",
    "STUDY_JOURNAL_NAME",
    "StudyJournal",
    "parse_jsonl",
    "write_atomic",
]

JOURNAL_NAME = "journal.jsonl"
STUDY_JOURNAL_NAME = "study.jsonl"


def parse_jsonl(
    raw: Iterable[bytes], stop: Optional[Callable[[dict], bool]] = None,
) -> Tuple[List[dict], int]:
    """The complete records of JSONL lines and where their valid prefix ends.

    ``raw`` yields lines with their newlines, as a file opened ``"rb"``
    does.  Blank lines are skipped.  The valid prefix ends at the
    unterminated tail (a record whose newline was never written), at
    the first line that does not decode or decodes to a non-object — a
    line after garbage only exists when a file was truncated and
    appended to, and resuming there would let it masquerade as a
    healthy history — and before the first record ``stop`` accepts.
    """
    records: List[dict] = []
    end = 0
    for line in raw:
        if not line.endswith(b"\n"):
            break
        body = line.strip()
        if body:
            try:
                record = json.loads(body.decode("utf-8"))
            except ValueError:
                break
            if not isinstance(record, dict) or (
                stop is not None and stop(record)
            ):
                break
            records.append(record)
        end += len(line)
    return records, end


def write_atomic(path: str, text: str) -> str:
    """Replace ``path`` with ``text``: temp file, fsync, rename.

    Readers see either the previous complete file or the new one, never
    a torn write.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


class JsonlJournal:
    """Append-only, fsync'd journal of one execution level.

    Subclasses set the level: the file ``NAME``, the ``HEADER`` event
    (also the owner noun of error messages), the ``UNIT`` event, the
    ``TOTAL`` header key, and ``UNITS``/``SOURCE`` for the message that
    refuses a resume with the wrong total.
    """

    NAME = JOURNAL_NAME
    HEADER = ""
    UNIT = ""
    TOTAL = ""
    UNITS = ""
    SOURCE = ""

    def __init__(self, path: str, entries: Optional[List[dict]] = None):
        self.path = path
        self.entries: List[dict] = list(entries or [])
        self._handle = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, directory: str, name: str, total: int):
        """Start a fresh journal in ``directory``: the header line only."""
        journal = cls(os.path.join(directory, cls.NAME))
        journal._handle = open(journal.path, "w", encoding="utf-8")
        journal._append({"event": cls.HEADER, "name": name, cls.TOTAL: total})
        return journal

    @classmethod
    def _parse(cls, directory: str) -> Tuple["JsonlJournal", int, int]:
        path = os.path.join(directory, cls.NAME)
        if not os.path.isfile(path):
            raise JournalError(f"no journal at {path}; nothing to resume")
        with open(path, "rb") as raw:
            entries, end = parse_jsonl(raw)
            size = os.fstat(raw.fileno()).st_size
        if not entries or entries[0].get("event") != cls.HEADER:
            raise JournalError(f"journal {path} has no {cls.HEADER} header")
        return cls(path, entries), end, size

    @classmethod
    def read(cls, directory: str):
        """The journal in ``directory``, read-only: no truncation, no append.

        Raises :class:`JournalError` when there is no journal or it has
        no header of this level — the checks :meth:`open` makes.
        """
        return cls._parse(directory)[0]

    @classmethod
    def open(cls, directory: str):
        """Load an existing journal for resumption, keeping it appendable.

        A torn tail (the writer died mid-record) is dropped rather than
        rejected — everything before it was fsynced — and the file is
        truncated to the valid prefix so the next append starts on a
        clean line boundary.
        """
        journal, end, size = cls._parse(directory)
        if end < size:
            os.truncate(journal.path, end)
        journal._handle = open(journal.path, "a", encoding="utf-8")
        return journal

    # -- writing -------------------------------------------------------------

    def _append(self, entry: dict) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.entries.append(entry)

    def _record_unit(self, index: int, ok: bool, **fields: Any) -> None:
        """Append one unit record; fields that are None are left out."""
        entry = {"event": self.UNIT, "index": index, "ok": ok}
        entry.update(
            (key, value) for key, value in fields.items() if value is not None
        )
        self._append(entry)

    def record_event(self, event: str, **fields: Any) -> None:
        entry = {"event": event}
        entry.update(fields)
        self._append(entry)

    def finish(self, ok: bool) -> None:
        """Append the completion marker unless this one is already there.

        Resuming an execution that already finished must leave the
        journal byte-identical — never stack a second completion.
        """
        if {"event": "complete", "ok": ok} not in self.entries:
            self.record_event("complete", ok=ok)

    def truncate_before(self, index: Optional[int]) -> None:
        """Cut the file in place to the raw-byte prefix before ``index``.

        Keeps every original line verbatim up to (excluding) the first
        unit record with an index at or above ``index`` — ``None`` keeps
        them all — and always excluding the completion marker, which
        must be re-earned by resume.  The cut is one truncation, fsynced:
        no window in which a kill leaves less than the prefix.
        """
        def stop(record: dict) -> bool:
            return record.get("event") == "complete" or (
                index is not None
                and record.get("event") == self.UNIT
                and int(record.get("index", -1)) >= index
            )

        with open(self.path, "r+b") as handle:
            self.entries, end = parse_jsonl(handle, stop)
            handle.truncate(end)
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------------

    @property
    def header(self) -> dict:
        return self.entries[0] if self.entries else {}

    def latest(self) -> Dict[int, dict]:
        """The latest unit record per index.

        A later record for the same index (a resumed retry of a failed
        unit) supersedes earlier ones.
        """
        latest: Dict[int, dict] = {}
        for entry in self.entries:
            if entry.get("event") == self.UNIT:
                latest[int(entry["index"])] = entry
        return latest

    def completed(self) -> Dict[int, dict]:
        """The latest unit record per index, for units that finished ok."""
        return {
            index: entry
            for index, entry in self.latest().items()
            if entry.get("ok", False)
        }

    @property
    def completion(self) -> Optional[dict]:
        """The last completion marker; None while the journal is unfinished."""
        for entry in reversed(self.entries):
            if entry.get("event") == "complete":
                return entry
        return None

    def validate_against(self, name: str, total: int) -> None:
        """Refuse to resume a journal written by a different execution."""
        header = self.header
        if header.get("name") != name:
            raise JournalError(
                f"journal belongs to {self.HEADER} {header.get('name')!r}, "
                f"not {name!r}"
            )
        if header.get(self.TOTAL) != total:
            raise JournalError(
                f"journal expects {header.get(self.TOTAL)} {self.UNITS}, "
                f"{self.SOURCE} {total} — refusing to resume"
            )


class RunJournal(JsonlJournal):
    """Append-only, fsync'd record of finished measurement runs."""

    HEADER = "experiment"
    UNIT = "run"
    TOTAL = "total_runs"
    UNITS = "runs"
    SOURCE = "the experiment defines"

    def record_run(
        self,
        index: int,
        loop_instance: Dict[str, Any],
        ok: bool,
        skipped: bool = False,
        retried: bool = False,
        error: Optional[str] = None,
        run_dir: Optional[str] = None,
    ) -> None:
        """Record one finished (or skipped) measurement run durably."""
        self._record_unit(
            index, ok, loop=dict(loop_instance),
            skipped=True if skipped else None,
            retried=True if retried else None,
            error=error, dir=run_dir,
        )


class CampaignJournal(JsonlJournal):
    """Append-only, fsync'd record of finished campaign experiments.

    Records land strictly in admission decision order through the
    reorder buffer, so the bytes are identical for any ``--jobs N``, and
    resume writes no markers of its own: after a crash and resume the
    journal is byte-identical to an uninterrupted one.
    """

    HEADER = "campaign"
    UNIT = "experiment"
    TOTAL = "total_experiments"
    UNITS = "experiments"
    SOURCE = "the plan admits"

    def record_experiment(
        self,
        index: int,
        name: str,
        user: str,
        ok: bool,
        result_dir: Optional[str] = None,
        runs_completed: int = 0,
        runs_failed: int = 0,
        error: Optional[str] = None,
    ) -> None:
        """Record one finished experiment durably."""
        self._record_unit(
            index, ok, name=name, user=user, runs_completed=runs_completed,
            runs_failed=runs_failed, dir=result_dir, error=error,
        )


class StudyJournal(JsonlJournal):
    """Append-only, fsync'd record of finished study replications.

    Replications execute in index order, so the journal is trivially
    ordered.
    """

    NAME = STUDY_JOURNAL_NAME
    HEADER = "study"
    UNIT = "replication"
    TOTAL = "total_replications"
    UNITS = "replications"
    SOURCE = "the spec defines"

    def record_replication(
        self,
        index: int,
        seed: int,
        ok: bool,
        result_dir: Optional[str] = None,
        experiments_completed: int = 0,
        experiments_failed: int = 0,
        error: Optional[str] = None,
    ) -> None:
        """Record one finished replication durably."""
        self._record_unit(
            index, ok, seed=seed,
            experiments_completed=experiments_completed,
            experiments_failed=experiments_failed,
            dir=result_dir, error=error,
        )
