"""Read-side of the distributed plane: summarize dispatch evidence.

``pos agents status <dir>`` digests the ``dispatch.jsonl`` evidence
sidecar of an experiment into a per-agent fleet report: incarnations,
runs delivered, deaths (and why), re-dispatches, quarantines.  The
sidecar is append-only across resumes, so the report covers the whole
history of the experiment, crashes included.
"""

from __future__ import annotations

from typing import Dict

from repro.core.errors import ExperimentError
from repro.telemetry.artifacts import find_artifact
from repro.telemetry.jsonl import read_jsonl
from repro.telemetry.plane import DISPATCH_NAME

__all__ = ["agents_status", "format_agents_status"]


def agents_status(path: str) -> dict:
    """Fold one experiment's dispatch evidence into a fleet summary."""
    log_path = find_artifact(path, DISPATCH_NAME)
    if log_path is None:
        raise ExperimentError(
            f"no {DISPATCH_NAME} under {path}; was the experiment run "
            f"with --agents (and POS_DISPATCH_LOG not 0)?"
        )
    agents: Dict[str, dict] = {}
    totals = {
        "events": 0,
        "results": 0,
        "duplicates_dropped": 0,
        "redispatched_runs": 0,
        "deaths": 0,
        "quarantined": 0,
        "completed": False,
    }

    def book(agent_id: str) -> dict:
        return agents.setdefault(agent_id, {
            "agent": agent_id,
            "spawns": 0,
            "generation": 0,
            "registered": False,
            "runs_delivered": 0,
            "runs_dispatched": 0,
            "redispatches": 0,
            "deaths": [],
            "quarantined": False,
        })

    # The sidecar is single-writer with one flushed write() per record,
    # so the only malformed line a reader can observe is a torn final
    # one (crashed controller, or a write in flight right now).  The
    # shared reader truncates there instead of raising — or, worse,
    # skipping interior lines and cooking the books.
    for record in read_jsonl(log_path):
        totals["events"] += 1
        event = record.get("event")
        agent_id = record.get("agent")
        entry = book(agent_id) if agent_id else None
        if event == "agent-spawn":
            entry["spawns"] += 1
            entry["generation"] = record.get("generation", 0)
        elif event == "register":
            entry["registered"] = True
            entry["generation"] = record.get("generation", 0)
        elif event == "dispatch":
            runs = record.get("runs", [])
            entry["runs_dispatched"] += len(runs)
            if record.get("reason") == "redispatch":
                # Orphaned work re-assigned after a death counts as
                # re-dispatch too, not just reconcile-driven resends.
                entry["redispatches"] += len(runs)
                totals["redispatched_runs"] += len(runs)
        elif event == "redispatch":
            entry["redispatches"] += len(record.get("runs", []))
            totals["redispatched_runs"] += len(record.get("runs", []))
        elif event == "result":
            entry["runs_delivered"] += 1
            totals["results"] += 1
        elif event == "duplicate-dropped":
            totals["duplicates_dropped"] += 1
        elif event == "agent-dead":
            entry["registered"] = False
            entry["deaths"].append(record.get("reason", "unknown"))
            totals["deaths"] += 1
        elif event == "quarantine":
            entry["quarantined"] = True
            totals["quarantined"] += 1
        elif event == "complete":
            totals["completed"] = True
            totals["redispatched_runs"] = record.get(
                "redispatched", totals["redispatched_runs"]
            )
    return {
        "path": log_path,
        "agents": [agents[agent_id] for agent_id in sorted(agents)],
        "totals": totals,
    }


def format_agents_status(status: dict) -> str:
    """Human-readable fleet report for the CLI."""
    lines = [f"dispatch evidence: {status['path']}"]
    header = (
        f"{'agent':<12} {'gen':>3} {'spawns':>6} {'done':>5} "
        f"{'redisp':>6} {'deaths':>6}  state"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in status["agents"]:
        if entry["quarantined"]:
            state = "quarantined"
        elif entry["registered"]:
            state = "registered"
        else:
            state = "gone"
        if entry["deaths"]:
            state += f" ({', '.join(entry['deaths'])})"
        lines.append(
            f"{entry['agent']:<12} {entry['generation']:>3} "
            f"{entry['spawns']:>6} {entry['runs_delivered']:>5} "
            f"{entry['redispatches']:>6} {len(entry['deaths']):>6}  {state}"
        )
    totals = status["totals"]
    lines.append(
        f"results {totals['results']} | duplicates dropped "
        f"{totals['duplicates_dropped']} | re-dispatched runs "
        f"{totals['redispatched_runs']} | deaths {totals['deaths']} | "
        f"quarantined {totals['quarantined']} | "
        f"{'complete' if totals['completed'] else 'incomplete'}"
    )
    return "\n".join(lines)
