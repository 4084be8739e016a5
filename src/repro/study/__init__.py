"""Replicated factorial studies: one level above campaigns.

A *study* is the first-class object for "the same factorial design,
replicated N times with distinct seeds, then analyzed as one
statistical unit".  The package expands a study spec into N campaigns
(:mod:`repro.study.design`), executes them crash-safely
(:mod:`repro.study.runner` + the ``study.jsonl`` journal), folds the
resulting tree into per-factor main effects and cross-replication
consistency verdicts (:mod:`repro.study.evaluate`), and validates or
repairs whole result trees (:mod:`repro.study.audit`,
:mod:`repro.study.repair`).
"""

from repro.study.audit import audit_study, render_audit
from repro.study.design import (
    derive_seed,
    expand_cells,
    replication_campaign,
    replication_dir,
    synthetic_response,
)
from repro.study.evaluate import (
    STUDY_JSON_NAME,
    collect_measurements,
    evaluate_study,
    render_study,
    write_study_json,
)
from repro.core.journal import STUDY_JOURNAL_NAME, StudyJournal
from repro.study.repair import repair_study
from repro.study.runner import StudyResult, run_study
from repro.study.spec import (
    RESPONSE_VARIABLE,
    STUDY_SPEC_NAME,
    StudySpec,
    load_study,
    load_study_file,
)

__all__ = [
    "RESPONSE_VARIABLE",
    "STUDY_JOURNAL_NAME",
    "STUDY_JSON_NAME",
    "STUDY_SPEC_NAME",
    "StudyJournal",
    "StudyResult",
    "StudySpec",
    "audit_study",
    "collect_measurements",
    "derive_seed",
    "evaluate_study",
    "expand_cells",
    "load_study",
    "load_study_file",
    "render_audit",
    "render_study",
    "repair_study",
    "replication_campaign",
    "replication_dir",
    "run_study",
    "synthetic_response",
    "write_study_json",
]
