"""One reader for experiment result trees.

The result folder is the only interface between running an experiment
and evaluating it.  :mod:`repro.telemetry.plane` and the run journal
write it; this module is the one place that reads it back.  Every
read-side tool — ``pos doctor``, ``pos diff``, ``pos report``,
``pos status``/``pos watch``, ``pos trace``, schema validation and
``pos study audit`` — goes through :class:`ExperimentTree`, so the
on-disk layout (file names, the run-directory fallback) is known here
and nowhere else.  Torn-tail handling and the latest-run and
completion folds are the journal's own (:mod:`repro.core.journal`),
shared with the writer and with resume.

A tree is lazy: building one reads only ``journal.jsonl``, to check
that the folder is an experiment tree at all.  Every other file is
parsed on first access.  A tree handed to several tools (study audit
runs the doctor and the schema check over the same cell) is built with
``memoize=True`` and keeps what it parsed, so each file is parsed once.
A tree read by one tool needs no memo: every tool reads each file once
anyway, and keeping a sweep's run snapshots alive until the tool
returns costs more garbage-collector time than the memo saves.
"""

from __future__ import annotations

import json
import os
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.core.errors import JournalError, PosError
from repro.core.journal import JOURNAL_NAME, RunJournal
from repro.telemetry.jsonl import read_jsonl_or_none
from repro.telemetry.plane import CACHE_NAME, TELEMETRY_NAME
from repro.testbed.health import HEALTH_NAME

__all__ = ["ArtifactFolder", "ExperimentTree", "find_artifact"]

#: ``cache.jsonl`` event -> :meth:`ArtifactFolder.cache_counts` key.
_CACHE_COUNTS = {
    "cache.hit": "hits",
    "cache.miss": "misses",
    "cache.store": "stores",
    "cache.corrupt": "corrupt",
}


def _load_json(path: str) -> Any:
    """Parsed ``path``; None if absent, the error if it does not parse."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        return None
    except ValueError as exc:
        return exc


def find_artifact(path: str, name: str) -> Optional[str]:
    """The file ``name`` at ``path`` or in the first folder below it.

    Folders are walked top-down in sorted order; the walk stops at the
    first hit.
    """
    for folder, subfolders, files in os.walk(path):
        if name in files:
            return os.path.join(folder, name)
        subfolders.sort()
    return None


class ArtifactFolder:
    """Lazily parsed artifact files below one folder.

    ``error`` is the exception class a tool reports with (its
    :class:`PosError` subclass).  A JSON file that does not parse — torn
    by a crashed writer — raises it, naming the file; a ``tolerant``
    reader (a live tailer racing the writer) reads it as not yet
    written instead.  ``memoize`` keeps every parsed file for a folder
    shared by several tools.
    """

    def __init__(
        self, path: str, error: Type[Exception] = PosError,
        tolerant: bool = False, memoize: bool = False,
    ):
        self.path = path
        self.error = error
        self.tolerant = tolerant
        self._memo: Optional[Dict[str, Any]] = {} if memoize else None

    def _read(self, name: str, reader: Callable[[str], Any]) -> Any:
        if self._memo is None:
            return reader(os.path.join(self.path, name))
        if name not in self._memo:
            self._memo[name] = reader(os.path.join(self.path, name))
        return self._memo[name]

    def json(self, name: str) -> Any:
        """The parsed JSON file ``name`` (folder-relative), None if absent."""
        value = self._read(name, _load_json)
        if isinstance(value, ValueError):
            if self.tolerant:
                return None
            raise self.error(
                f"{os.path.join(self.path, name)}: not valid JSON: {value}"
            )
        return value

    def jsonl(self, name: str) -> Optional[List[dict]]:
        """The complete records of sidecar ``name``, None if absent."""
        return self._read(name, read_jsonl_or_none)

    def cache_counts(self) -> Optional[Dict[str, int]]:
        """Run-cache event counts of ``cache.jsonl``; None if no cache."""
        events = self.jsonl(CACHE_NAME)
        if events is None:
            return None
        counts = dict.fromkeys(_CACHE_COUNTS.values(), 0)
        for event in events:
            key = _CACHE_COUNTS.get(event.get("event"))
            if key is not None:
                counts[key] += 1
        return counts


class ExperimentTree(ArtifactFolder):
    """One experiment result tree, checked on construction.

    Raises ``error`` when ``path`` is not a directory, carries no
    ``journal.jsonl``, or the journal has no experiment header.
    """

    def __init__(
        self, path: str, error: Type[Exception] = PosError,
        tolerant: bool = False, memoize: bool = False,
    ):
        super().__init__(path, error, tolerant, memoize)
        if not os.path.isdir(path):
            raise error(f"no such experiment directory: {path}")
        if not os.path.isfile(os.path.join(path, JOURNAL_NAME)):
            raise error(
                f"no journal.jsonl in {path} "
                f"(not an experiment result folder?)"
            )
        try:
            self.journal = RunJournal.read(path)
        except JournalError:
            raise error(
                f"journal.jsonl in {path} has no experiment header "
                f"(truncated or not written by this toolchain)"
            ) from None
        self.header = self.journal.header

    @cached_property
    def runs(self) -> Dict[int, dict]:
        """The latest journal entry per run index (a retry supersedes)."""
        return self.journal.latest()

    @cached_property
    def complete(self) -> bool:
        """Whether the journal carries a completion marker, ok or not."""
        return self.journal.completion is not None

    @property
    def telemetry(self) -> Optional[dict]:
        return self.json(TELEMETRY_NAME)

    @property
    def health(self) -> Optional[dict]:
        return self.json(HEALTH_NAME)

    def run_dir(self, index: int) -> str:
        """Run ``index``'s folder: the journalled ``dir``, else ``run-NNN``."""
        return self.runs[index].get("dir") or f"run-{index:03d}"

    def run_json(self, index: int, name: str) -> Optional[dict]:
        """Snapshot ``name`` of run ``index``, None if absent."""
        return self.json(os.path.join(self.run_dir(index), name))

    def run_snapshots(self, name: str) -> Iterator[Tuple[int, dict]]:
        """``(index, snapshot)`` for every run that has ``name``, in order."""
        for index in sorted(self.runs):
            snapshot = self.run_json(index, name)
            if snapshot is not None:
                yield index, snapshot
