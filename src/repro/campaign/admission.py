"""Deterministic campaign admission: priority, backfill, fairness.

Admission is a *pure function* of the campaign spec.  Experiments are
considered in priority order (larger first; the submit index breaks
ties), and each one is placed at the earliest virtual time at which

* every requested node is free for the whole window (all-or-nothing,
  half-open ``[start, end)`` — the calendar's rule),
* the user stays under the per-user fairness cap of concurrently
  planned experiments, and
* an optional deadline (latest allowed virtual end) is met; an
  experiment that cannot finish by its deadline is rejected with a
  recorded reason rather than silently delayed.

Scanning candidate start times in ascending order over the event points
of the partial plan is conservative backfill: a small low-priority
experiment slots into a calendar gap left by larger ones, but never
delays an experiment already placed.  Node selection for count-based
requests is first-fit over the *sorted* pool names, so the whole plan —
admission order, windows, node assignment — is byte-identical on every
machine and every run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.campaign.spec import CampaignSpec, ExperimentSpec
from repro.core.journal import write_atomic

__all__ = ["ADMISSION_NAME", "Placement", "Rejection", "AdmissionPlan", "plan_admission"]

ADMISSION_NAME = "admission.jsonl"


@dataclass
class Placement:
    """One admitted experiment: its window and assigned nodes."""

    spec: ExperimentSpec
    start: float
    end: float
    nodes: List[str]
    decision_index: int
    execution_index: int

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end and start < self.end

    def entry(self) -> dict:
        return {
            "event": "admit",
            "decision": self.decision_index,
            "execution": self.execution_index,
            "experiment": self.spec.name,
            "user": self.spec.user,
            "submit_index": self.spec.submit_index,
            "priority": self.spec.priority,
            "start": self.start,
            "end": self.end,
            "nodes": list(self.nodes),
        }


@dataclass
class Rejection:
    """One rejected experiment and why it could not be placed."""

    spec: ExperimentSpec
    reason: str
    decision_index: int

    def entry(self) -> dict:
        return {
            "event": "reject",
            "decision": self.decision_index,
            "experiment": self.spec.name,
            "user": self.spec.user,
            "submit_index": self.spec.submit_index,
            "priority": self.spec.priority,
            "reason": self.reason,
        }


@dataclass
class AdmissionPlan:
    """The full admission decision list, in decision order."""

    spec: CampaignSpec
    admitted: List[Placement] = field(default_factory=list)
    rejected: List[Rejection] = field(default_factory=list)

    def entries(self) -> List[dict]:
        """All decisions — admissions and rejections — in decision order."""
        decisions: List[Tuple[int, dict]] = [
            (placement.decision_index, placement.entry())
            for placement in self.admitted
        ]
        decisions.extend(
            (rejection.decision_index, rejection.entry())
            for rejection in self.rejected
        )
        return [entry for _, entry in sorted(decisions, key=lambda item: item[0])]

    def write(self, campaign_dir: str) -> str:
        """Write ``admission.jsonl``: one decision per line, fsynced.

        The write is atomic (:func:`repro.core.journal.write_atomic`): a
        crash mid-write can never leave a torn admission log behind — readers
        see either the previous complete plan or the new one.  The plan
        is a pure function of the spec, so a resume that recomputes and
        rewrites it produces identical bytes either way; atomicity
        protects the *observers* (``pos campaign status``, the health
        plane) that read the log while a campaign starts up.
        """
        return write_atomic(
            os.path.join(campaign_dir, ADMISSION_NAME),
            "".join(
                json.dumps(entry, sort_keys=True) + "\n"
                for entry in self.entries()
            ),
        )

    def dispatch_order(self) -> List[Placement]:
        """Placements in execution order: by window start, then decision."""
        return sorted(
            self.admitted, key=lambda p: (p.start, p.decision_index)
        )

    def predecessors(self, placement: Placement) -> List[Placement]:
        """Admitted experiments whose earlier window shares a node.

        The calendar guarantees per-node windows never overlap, so the
        windows of two placements sharing a node are totally ordered —
        dispatching an experiment strictly after its predecessors have
        released their nodes can never deadlock.
        """
        mine = set(placement.nodes)
        return [
            other
            for other in self.admitted
            if other is not placement
            and mine & set(other.nodes)
            and (other.start, other.decision_index)
            < (placement.start, placement.decision_index)
        ]


def _free_nodes_during(
    pool: List[str],
    busy: Dict[str, List[Placement]],
    start: float,
    end: float,
) -> List[str]:
    """Pool nodes (sorted) with no planned window overlapping [start, end)."""
    return [
        node
        for node in sorted(pool)
        if not any(p.overlaps(start, end) for p in busy.get(node, []))
    ]


def plan_admission(spec: CampaignSpec) -> AdmissionPlan:
    """Compute the deterministic admission plan for a campaign spec."""
    spec.validate()
    plan = AdmissionPlan(spec=spec)
    order = sorted(
        spec.experiments, key=lambda e: (-e.priority, e.submit_index)
    )
    busy: Dict[str, List[Placement]] = {}
    per_user: Dict[str, List[Placement]] = {}
    cap = spec.max_active_per_user
    for decision_index, experiment in enumerate(order):
        duration = experiment.duration
        # Candidate start times: the plan's event points.  Any feasible
        # start can be shifted left onto the previous event point while
        # staying feasible, so scanning these ascending finds the true
        # earliest placement (conservative backfill).
        points: Set[float] = {0.0}
        points.update(p.end for p in plan.admitted)
        placed: Optional[Placement] = None
        deadline_blocked = False
        for start in sorted(points):
            end = start + duration
            if experiment.deadline is not None and end > experiment.deadline:
                deadline_blocked = True
                break  # points ascend; later candidates only end later
            if cap is not None:
                active = sum(
                    1
                    for p in per_user.get(experiment.user, [])
                    if p.overlaps(start, end)
                )
                if active >= cap:
                    continue
            free = _free_nodes_during(spec.pool, busy, start, end)
            if isinstance(experiment.nodes, int):
                if len(free) < experiment.nodes:
                    continue
                nodes = free[: experiment.nodes]
            else:
                if any(node not in free for node in experiment.nodes):
                    continue
                nodes = sorted(experiment.nodes)
            placed = Placement(
                spec=experiment,
                start=start,
                end=end,
                nodes=nodes,
                decision_index=decision_index,
                execution_index=len(plan.admitted),
            )
            break
        if placed is None:
            if deadline_blocked:
                reason = (
                    f"cannot finish by deadline {experiment.deadline}: no "
                    f"feasible window ends in time"
                )
            else:
                reason = "no feasible window in the pool"
            plan.rejected.append(
                Rejection(
                    spec=experiment, reason=reason, decision_index=decision_index
                )
            )
            continue
        plan.admitted.append(placed)
        for node in placed.nodes:
            busy.setdefault(node, []).append(placed)
        per_user.setdefault(experiment.user, []).append(placed)
    return plan
