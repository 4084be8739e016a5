"""Multi-tenant experiment campaigns over one shared node pool.

pos is a multi-user testbed: "we use an integrated calendar to
temporally separate the experimental devices between users" (Sec. 4.4).
A *campaign* makes that contention real inside the reproduction: N
experiment specs — each with its own user, node requirements, priority
and deadline — are admitted through the calendar (all-or-nothing
booking, half-open intervals, priority + backfill + per-user fairness)
and executed concurrently against one simulated pool, with every
artifact byte-identical for any ``--jobs N`` and across crash+resume.
"""

from repro.campaign.admission import AdmissionPlan, plan_admission
from repro.core.journal import CampaignJournal
from repro.campaign.scheduler import CampaignResult, campaign_status, run_campaign
from repro.campaign.spec import (
    CampaignSpec,
    ExperimentSpec,
    load_campaign,
    load_campaign_file,
)

__all__ = [
    "AdmissionPlan",
    "CampaignJournal",
    "CampaignResult",
    "CampaignSpec",
    "ExperimentSpec",
    "campaign_status",
    "load_campaign",
    "load_campaign_file",
    "plan_admission",
    "run_campaign",
]
