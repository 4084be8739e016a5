"""A final record without its newline reads the same everywhere.

A writer killed mid-record can leave a final line whose body is valid
JSON but whose newline was never written.  Resume (``open``) treats it
as torn and truncates it, so every reader must treat it as absent too
— otherwise ``pos study audit`` passes a tree that resume then
re-executes.  Parametrized over the three journal levels (run,
campaign, study) and over the two kinds of final record (a unit record
and the completion marker).
"""

from __future__ import annotations

import glob
import os
import shutil

import pytest

from repro.campaign import CampaignJournal, campaign_status
from repro.core.journal import JOURNAL_NAME, RunJournal
from repro.study import (
    STUDY_JOURNAL_NAME,
    StudyJournal,
    audit_study,
    load_study,
    run_study,
)
from repro.telemetry.artifacts import ExperimentTree
from repro.telemetry.jsonl import read_jsonl

SPEC_DOC = {
    "name": "torn-tail",
    "factors": {"rate": [1.0, 2.0]},
    "replications": 2,
    "seed": 3,
}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("torn-tail") / "study")
    assert run_study(load_study(SPEC_DOC), root, jobs=1).ok
    return root


def _run_dir(study):
    return sorted(glob.glob(os.path.join(
        study, "replications", "rep-001", "experiments", "*", "*", "*",
    )))[-1]


def _rep_dir(study):
    return os.path.join(study, "replications", "rep-001")


def _check_run(study, directory, kept, cut):
    tree = ExperimentTree(directory)
    assert tree.complete is False
    assert sorted(tree.runs) == sorted(
        int(e["index"]) for e in kept if e["event"] == "run"
    )


def _check_campaign(study, directory, kept, cut):
    experiments = [e for e in kept if e["event"] == "experiment"]
    status = campaign_status(directory)
    assert "[complete]" not in status
    assert f"finished: {len(experiments)}/" in status
    holes = audit_study(study)["holes"]
    assert [h["kind"] for h in holes] == ["incomplete-campaign"]
    assert holes[0]["replication"] == 1
    assert holes[0]["recorded"] == len(experiments)


def _check_study(study, directory, kept, cut):
    holes = audit_study(study)["holes"]
    expected = [{"kind": "incomplete-study"}]
    if cut == "unit":
        expected.append({"kind": "unjournaled-replication", "replication": 1})
    assert holes == expected


LEVELS = {
    "run": (RunJournal, JOURNAL_NAME, _run_dir, _check_run),
    "campaign": (CampaignJournal, JOURNAL_NAME, _rep_dir, _check_campaign),
    "study": (
        StudyJournal, STUDY_JOURNAL_NAME, lambda study: study, _check_study,
    ),
}


@pytest.mark.parametrize("cut", ["unit", "complete"])
@pytest.mark.parametrize("level", sorted(LEVELS))
def test_unterminated_final_record_is_invisible_and_truncated(
    baseline, tmp_path, level, cut
):
    journal_cls, name, locate, check = LEVELS[level]
    study = str(tmp_path / "study")
    shutil.copytree(baseline, study)
    directory = locate(study)
    path = os.path.join(directory, name)
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    # The final record is the completion marker; for a "unit" cut the
    # last unit record becomes final by dropping the marker.
    assert b'"event": "complete"' in lines[-1]
    final = len(lines) - (2 if cut == "unit" else 1)
    prefix = b"".join(lines[:final])
    with open(path, "wb") as handle:
        handle.write(prefix + lines[final].rstrip(b"\n"))

    kept = read_jsonl(path)
    assert len(kept) == final
    check(study, directory, kept, cut)
    assert journal_cls.read(directory).entries == kept

    journal = journal_cls.open(directory)
    journal.close()
    assert journal.entries == kept
    with open(path, "rb") as handle:
        assert handle.read() == prefix
