"""Targeted re-execution of audited holes (``pos study repair``).

Repair never re-implements execution.  It *normalizes* the damaged
tree into a state indistinguishable from a crash at the right instant,
then hands the tree to the ordinary resume machinery — whose
byte-identity across crash schedules is already proven one layer down:

* a damaged experiment (missing run, mismatched assignment, lost
  journal) is deleted outright, and its replication's campaign journal
  is truncated to the record prefix *before* that experiment — because
  campaign journal entries land strictly in execution-index order,
  that prefix is exactly what an interrupted campaign would have left;
* a damaged replication (missing directory, lost campaign journal) is
  wiped, and ``study.jsonl`` is truncated to the prefix before its
  replication record;
* truncations keep the original bytes verbatim (raw line prefix, no
  re-serialization), so the repaired journals are byte-identical to
  uninterrupted ones after resume re-appends the re-executed work.
  Each is :meth:`repro.core.journal.JsonlJournal.truncate_before`: one
  in-place, fsynced truncation with no rewrite window, so a repair
  killed mid-way leaves a journal that audit and resume still read —
  a later repair picks up from there.

Intact runs are never touched: resume adopts them from their journals
and trees, and only the normalized-away work re-executes.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional, Set

from repro.campaign.admission import plan_admission
from repro.campaign.workload import expected_result_dir
from repro.core.errors import StudyError
from repro.core.journal import (
    STUDY_JOURNAL_NAME,
    CampaignJournal,
    StudyJournal,
)
from repro.study.audit import audit_study
from repro.study.design import replication_campaign, replication_dir
from repro.study.runner import StudyResult, run_study
from repro.study.spec import STUDY_SPEC_NAME, load_study_file

__all__ = ["repair_study"]

#: Hole kinds that damage a single experiment inside a replication.
_EXPERIMENT_KINDS = {
    "missing-experiment",
    "missing-experiment-journal",
    "missing-run",
    "assignment-mismatch",
}

#: Hole kinds that damage a whole replication beyond experiment-level
#: normalization.
_REPLICATION_KINDS = {"missing-replication", "missing-campaign-journal"}

#: Hole kinds resume fixes with no normalization at all.
_RESUMABLE_KINDS = {
    "incomplete-study",
    "missing-aggregate",
    "stale-aggregate",
}


def _normalize(study_dir: str, holes: List[dict]) -> None:
    """Rewrite the damaged tree into a crash-equivalent resumable state."""
    spec = load_study_file(os.path.join(study_dir, STUDY_SPEC_NAME))
    wiped_reps: Set[int] = set()
    experiment_damage: Dict[int, Set[int]] = {}
    affected_reps: Set[int] = set()
    study_journal_damaged = False

    for hole in holes:
        kind = hole["kind"]
        replication = hole.get("replication")
        if kind in _REPLICATION_KINDS:
            wiped_reps.add(replication)
            affected_reps.add(replication)
        elif kind in _EXPERIMENT_KINDS:
            experiment_damage.setdefault(replication, set()).add(
                hole["experiment"]
            )
            affected_reps.add(replication)
        elif kind in ("incomplete-campaign", "unjournaled-replication"):
            affected_reps.add(replication)
        elif kind in ("missing-study-journal", "study-journal-mismatch"):
            study_journal_damaged = True
        elif kind not in _RESUMABLE_KINDS:
            raise StudyError(f"cannot repair unknown hole kind {kind!r}")

    for replication in sorted(wiped_reps):
        rep_dir = replication_dir(study_dir, replication)
        if os.path.isdir(rep_dir):
            shutil.rmtree(rep_dir)

    for replication in sorted(set(experiment_damage) - wiped_reps):
        rep_dir = replication_dir(study_dir, replication)
        campaign = replication_campaign(spec, replication)
        plan = plan_admission(campaign)
        damaged = experiment_damage[replication]
        for placement in plan.admitted:
            if placement.execution_index in damaged:
                experiment_dir = expected_result_dir(
                    rep_dir, campaign.base_epoch, placement
                )
                if os.path.isdir(experiment_dir):
                    shutil.rmtree(experiment_dir)
        CampaignJournal.read(rep_dir).truncate_before(min(damaged))

    journal_path = os.path.join(study_dir, STUDY_JOURNAL_NAME)
    if study_journal_damaged or not os.path.isfile(journal_path):
        # Rebuild a header-only journal: every intact replication is
        # re-adopted through its campaign journal on resume, so nothing
        # re-executes — only the study-level records are re-earned.
        StudyJournal.create(
            study_dir, spec.name, spec.replications
        ).close()
    else:
        # With only derived artifacts or the completion marker damaged,
        # dropping the marker makes resume re-run finalization.
        StudyJournal.read(study_dir).truncate_before(
            min(affected_reps) if affected_reps else None
        )


def repair_study(
    study_dir: str,
    jobs: Optional[int] = None,
    agents: Optional[int] = None,
) -> dict:
    """Audit, normalize, resume, and re-audit one study tree.

    Returns ``{"repaired": [holes…], "result": StudyResult, "audit":
    report}``; raises :class:`StudyError` if holes survive the repair.
    """
    study_dir = os.path.abspath(study_dir)
    before = audit_study(study_dir)
    result: Optional[StudyResult] = None
    if before["holes"]:
        _normalize(study_dir, before["holes"])
        result = run_study(
            os.path.join(study_dir, STUDY_SPEC_NAME),
            study_dir,
            jobs=jobs,
            agents=agents,
            resume=True,
        )
    after = audit_study(study_dir)
    if after["holes"]:
        kinds = ", ".join(sorted({h["kind"] for h in after["holes"]}))
        raise StudyError(
            f"repair left {len(after['holes'])} hole(s) behind: {kinds}"
        )
    return {
        "repaired": before["holes"],
        "result": result,
        "audit": after,
    }
