"""Statistical evaluation of a completed study tree (``study.json``).

The evaluation never trusts the runner's in-memory state: every
measurement is parsed back out of the captured artifacts (the
``commands.log`` a cell's measurement script produced, cross-checked
against the run's ``metadata.yml``), exactly as an external reader
would.  On top sit the two statistical planes the ISSUE asks for:

* **per-factor main effects** — every non-baseline level is paired
  against the factor's first level across all matching cells and
  replications, summarized by the seeded-bootstrap
  :func:`~repro.evaluation.tendencies.factorial_effects`;
* **cross-replication consistency** — every cell's N samples get a
  :func:`~repro.evaluation.replication.sample_consistency` verdict
  against the spec's tolerance.

The aggregate is a pure function of (tree, spec): serialized with
sorted keys and a pinned layout, byte-identical for any execution
schedule that produced the same tree.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional, Tuple

from repro.campaign.admission import plan_admission
from repro.campaign.workload import expected_result_dir
from repro.core import yamlite
from repro.core.errors import StudyError
from repro.core.journal import write_atomic
from repro.evaluation.replication import sample_consistency
from repro.evaluation.tendencies import factorial_effects
from repro.study.design import (
    derive_seed,
    expand_cells,
    replication_campaign,
    replication_dir,
)
from repro.study.spec import RESPONSE_VARIABLE, StudySpec

__all__ = [
    "STUDY_JSON_NAME",
    "cell_measurement",
    "collect_measurements",
    "evaluate_study",
    "write_study_json",
    "render_study",
]

#: File name of the statistical aggregate inside a study directory.
STUDY_JSON_NAME = "study.json"

_RESPONSE_RE = re.compile(
    re.escape(RESPONSE_VARIABLE) + r"=([0-9+\-.eE]+)"
)


def cell_measurement(experiment_dir: str) -> float:
    """Parse one cell's measured response from its captured logs.

    A cell experiment has exactly one measurement run; its role's
    ``commands.log`` carries the echoed assignment line including
    ``measured_mpps=<value>``.
    """
    run_dir = os.path.join(experiment_dir, "run-000")
    if not os.path.isdir(run_dir):
        raise StudyError(f"no run directory under {experiment_dir}")
    for name in sorted(os.listdir(run_dir)):
        log_path = os.path.join(run_dir, name, "commands.log")
        if not name.startswith("role-") or not os.path.isfile(log_path):
            continue
        with open(log_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("$"):
                    continue  # the command echoing itself, not its output
                match = _RESPONSE_RE.search(line)
                if match:
                    return float(match.group(1))
    raise StudyError(
        f"no {RESPONSE_VARIABLE} measurement in the logs of "
        f"{experiment_dir}"
    )


def _run_assignment(experiment_dir: str) -> Optional[dict]:
    """The loop instance ``metadata.yml`` recorded for the cell's run."""
    path = os.path.join(experiment_dir, "run-000", "metadata.yml")
    if not os.path.isfile(path):
        return None
    loaded = yamlite.load_file(path)
    if not isinstance(loaded, dict):
        return None
    loop = loaded.get("loop")
    return loop if isinstance(loop, dict) else None


def collect_measurements(
    study_dir: str, spec: StudySpec
) -> List[Tuple[Dict[str, object], int, float]]:
    """Every ``(assignment, replication, value)`` triple in the tree.

    Walks the deterministic expected layout (recomputed from the spec,
    never from runner state) and cross-checks each measurement's
    factor assignment against the run's persisted metadata.
    """
    cells = expand_cells(spec.factors)
    rows: List[Tuple[Dict[str, object], int, float]] = []
    for replication in range(spec.replications):
        campaign = replication_campaign(spec, replication)
        rep_dir = replication_dir(study_dir, replication)
        plan = plan_admission(campaign)
        for placement in plan.admitted:
            index = placement.spec.submit_index
            assignment = dict(cells[index])
            experiment_dir = expected_result_dir(
                rep_dir, campaign.base_epoch, placement
            )
            value = cell_measurement(experiment_dir)
            recorded = _run_assignment(experiment_dir)
            if recorded is not None:
                for factor, level in assignment.items():
                    if recorded.get(factor) != level:
                        raise StudyError(
                            f"replication {replication} cell {index}: "
                            f"metadata records {factor}="
                            f"{recorded.get(factor)!r}, the design expects "
                            f"{level!r}"
                        )
            rows.append((assignment, replication, value))
    return rows


def evaluate_study(study_dir: str, spec: StudySpec) -> dict:
    """Fold a complete study tree into the statistical aggregate."""
    rows = collect_measurements(study_dir, spec)
    cells = expand_cells(spec.factors)
    cell_index = {
        tuple(sorted(cell.items())): position
        for position, cell in enumerate(cells)
    }
    samples_by_cell: Dict[int, Dict[int, float]] = {}
    for assignment, replication, value in rows:
        position = cell_index[tuple(sorted(assignment.items()))]
        samples_by_cell.setdefault(position, {})[replication] = value
    cell_reports: List[dict] = []
    for position, cell in enumerate(cells):
        samples_map = samples_by_cell.get(position, {})
        samples = [
            samples_map[replication]
            for replication in sorted(samples_map)
        ]
        cell_reports.append({
            "assignment": dict(cell),
            "samples": samples,
            "consistency": sample_consistency(
                samples, tolerance=spec.tolerance
            ),
        })
    effects = factorial_effects(rows, spec.factors, seed=spec.seed)
    consistent = all(
        report["consistency"]["consistent"] for report in cell_reports
    )
    return {
        "study": spec.name,
        "design": {
            "factors": {
                factor: list(levels)
                for factor, levels in spec.factors.items()
            },
            "replications": spec.replications,
            "seed": spec.seed,
            "replication_seeds": [
                derive_seed(spec.seed, replication)
                for replication in range(spec.replications)
            ],
            "noise": spec.noise,
            "tolerance": spec.tolerance,
        },
        "cells": cell_reports,
        "effects": effects,
        "consistent": consistent,
        "verdict": "consistent" if consistent else "inconsistent",
    }


def write_study_json(study_dir: str, aggregate: dict) -> str:
    """Write the aggregate atomically with a pinned serialization."""
    return write_atomic(
        os.path.join(study_dir, STUDY_JSON_NAME),
        json.dumps(aggregate, sort_keys=True, indent=2) + "\n",
    )


def render_study(aggregate: dict) -> str:
    """Human-readable study summary for the CLI."""
    design = aggregate["design"]
    lines = [
        f"study: {aggregate['study']}",
        f"design: "
        + " x ".join(
            f"{factor}({len(levels)})"
            for factor, levels in design["factors"].items()
        )
        + f", {design['replications']} replication(s), "
          f"root seed {design['seed']}",
    ]
    lines.append("cells:")
    for report in aggregate["cells"]:
        assignment = " ".join(
            f"{factor}={report['assignment'][factor]}"
            for factor in sorted(report["assignment"])
        )
        consistency = report["consistency"]
        verdict = (
            "consistent" if consistency["consistent"] else "INCONSISTENT"
        )
        lines.append(
            f"  {assignment}: median {consistency['reference']:.4f} Mpps, "
            f"max deviation {consistency['max_deviation'] * 100:.2f}% "
            f"-> {verdict}"
        )
    lines.append("main effects (vs first level, HL estimate [95% CI]):")
    for factor in sorted(aggregate["effects"]):
        summary = aggregate["effects"][factor]
        for level in sorted(summary["levels"]):
            effect = summary["levels"][level]
            lines.append(
                f"  {factor}: {summary['baseline']} -> {level}: "
                f"{effect['hl_estimate']:+.4f} "
                f"[{effect['ci_low']:+.4f}, {effect['ci_high']:+.4f}] "
                f"(n={int(effect['n'])})"
            )
    lines.append(f"verdict: {aggregate['verdict']}")
    return "\n".join(lines) + "\n"
