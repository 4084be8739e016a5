"""Study execution: expand, run N campaigns, journal, evaluate.

Replications execute strictly in index order; *within* each
replication the campaign scheduler parallelizes freely (``--jobs``,
``--agents``), so the study tree inherits the campaign plane's
byte-identity guarantee for any concurrency level — the study layer
itself introduces no new scheduling nondeterminism at all.

Resume replays ``study.jsonl``: replications recorded ok are adopted
outright; a replication with a campaign journal on disk resumes
through :func:`repro.campaign.scheduler.run_campaign` (a no-op on a
complete tree, rewriting the derived artifacts byte-identically);
anything else is wiped and re-run.  The statistical aggregate
(``study.json``) and the summary page are pure functions of the
artifact tree and are regenerated on every completion, so they can
never go stale on a tree the runner finished.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro.campaign.scheduler import run_campaign
from repro.core import yamlite
from repro.core.errors import StudyError
from repro.core.journal import JOURNAL_NAME, StudyJournal, write_atomic
from repro.study.design import derive_seed, replication_campaign, replication_dir
from repro.study.spec import STUDY_SPEC_NAME, StudySpec, load_study_file

__all__ = ["StudyResult", "run_study", "write_spec_file"]


@dataclass
class StudyResult:
    """What a finished study returns."""

    name: str
    path: str
    replications: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.get("ok") for entry in self.replications)

    @property
    def completed_replications(self) -> int:
        return sum(1 for entry in self.replications if entry.get("ok"))

    @property
    def failed_replications(self) -> int:
        return sum(1 for entry in self.replications if not entry.get("ok"))


def write_spec_file(study_dir: str, spec: StudySpec) -> str:
    """Write the canonical ``study.yml`` atomically.

    The canonical form is a pure function of the spec, so re-running a
    study over an existing tree rewrites identical bytes; the
    tmp-then-rename keeps a crash from ever leaving a torn spec behind
    (audit and repair both start from this file).
    """
    return write_atomic(
        os.path.join(study_dir, STUDY_SPEC_NAME),
        yamlite.dumps(spec.describe()),
    )


def run_study(
    study: Union[str, StudySpec],
    results_dir: str,
    jobs: Optional[int] = None,
    agents: Optional[int] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StudyResult:
    """Run (or resume) a replicated factorial study.

    ``jobs``/``agents`` are passed through to every replication's
    campaign execution and change nothing about the artifact bytes.
    """
    spec = load_study_file(study) if isinstance(study, str) else study
    spec.validate()
    study_dir = os.path.abspath(results_dir)
    os.makedirs(study_dir, exist_ok=True)

    spec_path = os.path.join(study_dir, STUDY_SPEC_NAME)
    if resume and os.path.isfile(spec_path):
        existing = load_study_file(spec_path)
        if existing.describe() != spec.describe():
            raise StudyError(
                f"study tree {study_dir} was expanded from a different "
                f"spec ({existing.name!r}); refusing to resume"
            )
    write_spec_file(study_dir, spec)

    if resume:
        journal = StudyJournal.open(study_dir)
        try:
            journal.validate_against(spec.name, spec.replications)
            journaled = journal.completed()
        except Exception:
            journal.close()
            raise
    else:
        journal = StudyJournal.create(study_dir, spec.name, spec.replications)
        journaled = {}

    result = StudyResult(name=spec.name, path=study_dir)
    try:
        for index in range(spec.replications):
            seed = derive_seed(spec.seed, index)
            rep_dir = replication_dir(study_dir, index)
            if index in journaled:
                entry = journaled[index]
                outcome = {
                    "index": index,
                    "seed": int(entry.get("seed", seed)),
                    "ok": True,
                    "dir": entry.get("dir"),
                    "experiments_completed": int(
                        entry.get("experiments_completed", 0)
                    ),
                    "experiments_failed": int(
                        entry.get("experiments_failed", 0)
                    ),
                    "adopted": True,
                }
            else:
                campaign = replication_campaign(spec, index)
                has_journal = os.path.isfile(
                    os.path.join(rep_dir, JOURNAL_NAME)
                )
                if resume and has_journal:
                    campaign_result = run_campaign(
                        campaign, rep_dir, jobs=jobs, agents=agents,
                        resume=True,
                    )
                else:
                    # A tree without a trustworthy campaign journal is
                    # wiped so a re-run can never duplicate directories.
                    if os.path.isdir(rep_dir):
                        shutil.rmtree(rep_dir)
                    campaign_result = run_campaign(
                        campaign, rep_dir, jobs=jobs, agents=agents,
                    )
                outcome = {
                    "index": index,
                    "seed": seed,
                    "ok": campaign_result.ok,
                    "dir": os.path.relpath(campaign_result.path, study_dir),
                    "experiments_completed":
                        campaign_result.completed_experiments,
                    "experiments_failed": campaign_result.failed_experiments,
                    "adopted": False,
                }
                journal.record_replication(
                    index,
                    seed,
                    ok=outcome["ok"],
                    result_dir=outcome["dir"],
                    experiments_completed=outcome["experiments_completed"],
                    experiments_failed=outcome["experiments_failed"],
                )
            result.replications.append(outcome)
            if progress is not None:
                progress(len(result.replications), spec.replications)
        journal.finish(result.ok)
    finally:
        journal.close()

    if result.ok:
        from repro.study.evaluate import evaluate_study, write_study_json

        write_study_json(study_dir, evaluate_study(study_dir, spec))
        from repro.publication.website import generate_study_page

        generate_study_page(study_dir)
    return result
