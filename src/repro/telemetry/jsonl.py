"""One tolerant JSONL reader for every artifact tailer.

Every flushed-line artifact in the toolchain — the journals, the
evidence sidecars (``dispatch.jsonl``, ``cache.jsonl``,
``fleet-trace-wall.jsonl``), the admission log and the stitched fleet
trace — is written the same way: one JSON object per line, a single
flushed ``write()`` per record.  A reader may therefore observe at most
*one* incomplete line, and only at the very end of the file: the torn
tail of a record that a crashed (or still-running) writer never
finished.  A line counts only once its newline is written, so a final
record with a valid body but no newline is invisible here exactly as it
is to journal resume, which truncates it.  Interior corruption is not a
thing this format produces, so the reader stops at the first
undecodable line instead of skipping it — silently resuming after
garbage would let a truncated-and-appended file masquerade as a healthy
history.

The parse itself is :func:`repro.core.journal.parse_jsonl`, shared with
the journals' resume path so that no two readers disagree about what a
torn file says.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.core.journal import parse_jsonl

__all__ = ["read_jsonl", "read_jsonl_or_none"]


def read_jsonl(path: str) -> List[dict]:
    """All complete records of a JSONL artifact, dropping the torn tail.

    Blank lines are skipped; reading stops at the unterminated final
    line, at the first line that does not decode, and at the first
    line that decodes to a non-object.  Raises ``OSError`` when
    ``path`` cannot be opened — callers that treat a missing file as
    "no evidence" should use :func:`read_jsonl_or_none`.
    """
    with open(path, "rb") as handle:
        return parse_jsonl(handle)[0]


def read_jsonl_or_none(path: str) -> Optional[List[dict]]:
    """Like :func:`read_jsonl`, but ``None`` when the file is absent."""
    if not os.path.isfile(path):
        return None
    return read_jsonl(path)
