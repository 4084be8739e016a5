"""Render per-run provenance from the published artifacts alone.

``pos report <experiment folder>`` needs no controller, no journal
replay machinery and no live testbed: everything it prints is
reconstructed from the files an execution left behind, read through
:class:`~repro.telemetry.artifacts.ExperimentTree` — the run journal,
the per-run telemetry snapshots, the experiment-wide aggregate and,
when a run cache was active, the cache evidence sidecar.  That is the
artifact-first contract of the telemetry plane: a reader of a
published result folder can retrace how the toolchain behaved
(attempts, faults, recovery, engine events, which netsim path ran,
which runs were replayed from the cache) without ever having run the
experiment.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.errors import PosError
from repro.telemetry.artifacts import ExperimentTree
from repro.telemetry.plane import CACHE_NAME

__all__ = ["load_report", "render_report"]


class ReportError(PosError):
    """The folder does not carry the artifacts a report needs."""


def _cache_summary(events: Optional[List[dict]]) -> Optional[Dict[str, Any]]:
    if events is None:
        return None
    runs: Dict[int, Dict[str, Any]] = {}
    for event in events:
        kind = event.get("event")
        run = event.get("run")
        if run is None or kind not in ("cache.hit", "cache.miss", "cache.store"):
            continue
        entry = runs.setdefault(int(run), {})
        if kind == "cache.store":
            entry["stored"] = True
        else:
            entry["event"] = kind
            entry["key"] = event.get("key")
    return {
        "hits": sum(1 for e in runs.values() if e.get("event") == "cache.hit"),
        "misses": sum(
            1 for e in runs.values() if e.get("event") == "cache.miss"
        ),
        "stores": sum(1 for e in runs.values() if e.get("stored")),
        "runs": runs,
    }


def _run_row(tree: ExperimentTree, index: int) -> Dict[str, Any]:
    entry = tree.runs[index]
    row: Dict[str, Any] = {
        "run": index,
        "loop": entry.get("loop", {}),
        "ok": bool(entry.get("ok", False)),
        "skipped": bool(entry.get("skipped", False)),
        "retried": bool(entry.get("retried", False)),
        "error": entry.get("error"),
    }
    snapshot = tree.run_json(index, "telemetry.json")
    if snapshot is None:
        return row
    counters = snapshot.get("metrics", {}).get("counters", {})
    row["attempts"] = sum(
        1 for span in snapshot.get("spans", [])
        if span.get("name") == "attempt"
    )
    row["faults"] = sum(
        value for name, value in counters.items()
        if name.startswith("faults.injected.")
    )
    row["engine_events"] = counters.get("engine.events", 0)
    row["fastpath_batches"] = counters.get("fastpath.batches", 0)
    row["latency_samples"] = counters.get("loadgen.latency_samples", 0)
    row["recovered"] = counters.get("runs.recovered", 0) > 0
    for span in snapshot.get("spans", []):
        if span.get("name") == "loadgen.job":
            row["path"] = span.get("attrs", {}).get("path")
            break
    for span in snapshot.get("spans", []):
        if span.get("name") == "run":
            row["duration_s"] = span.get("end", 0.0) - span.get("start", 0.0)
            break
    return row


def load_report(experiment_path: str) -> Dict[str, Any]:
    """Assemble the provenance report as plain data.

    Raises :class:`ReportError` with a one-line diagnostic for every
    malformed-folder shape — missing directory, missing or empty
    journal, a journal without the experiment header, a journal that
    records no measurement runs, or a torn JSON artifact — so ``pos report`` fails with
    an actionable message instead of a traceback.
    """
    tree = ExperimentTree(experiment_path, ReportError)
    if "name" not in tree.header:
        raise ReportError(
            f"experiment header in {experiment_path}/journal.jsonl "
            f"carries no experiment name"
        )
    if not tree.runs:
        raise ReportError(
            f"no measurement runs journalled in {experiment_path} "
            f"(execution crashed before the first run?)"
        )
    return {
        "experiment": tree.header.get("name"),
        "total_runs": tree.header.get("total_runs"),
        "complete": tree.complete,
        "runs": [_run_row(tree, index) for index in sorted(tree.runs)],
        "telemetry": tree.telemetry,
        "cache": _cache_summary(tree.jsonl(CACHE_NAME)),
    }


def _loop_text(loop: Dict[str, Any]) -> str:
    return " ".join(f"{key}={loop[key]}" for key in sorted(loop))


def render_report(experiment_path: str) -> str:
    """Render the per-run provenance table as text."""
    report = load_report(experiment_path)
    lines: List[str] = []
    lines.append(f"experiment: {report['experiment']}")
    state = "complete" if report["complete"] else "INCOMPLETE (resumable)"
    lines.append(
        f"runs: {len(report['runs'])}/{report['total_runs']} journalled, "
        f"execution {state}"
    )
    lines.append("")
    header = (
        f"{'run':>4} {'status':<9} {'att':>3} {'faults':>6} "
        f"{'events':>8} {'batches':>7} {'lat.smp':>7} {'path':<6} loop"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["runs"]:
        if row["skipped"]:
            status = "skipped"
        elif not row["ok"]:
            status = "FAILED"
        elif row.get("recovered") or row["retried"]:
            status = "recovered"
        else:
            status = "ok"
        lines.append(
            f"{row['run']:>4} {status:<9} {row.get('attempts', '-'):>3} "
            f"{row.get('faults', '-'):>6} {row.get('engine_events', '-'):>8} "
            f"{row.get('fastpath_batches', '-'):>7} "
            f"{row.get('latency_samples', '-'):>7} "
            f"{row.get('path') or '-':<6} {_loop_text(row['loop'])}"
        )
    cache = report.get("cache")
    if cache is not None:
        lines.append("")
        lines.append(
            f"run cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
            f"{cache['stores']} store(s)"
        )
        for run in sorted(cache["runs"]):
            entry = cache["runs"][run]
            kind = entry.get("event", "-")
            suffix = " stored" if entry.get("stored") else ""
            key = entry.get("key") or ""
            lines.append(f"  run {run}: {kind} key={key[:12]}{suffix}")
    telemetry = report.get("telemetry")
    if telemetry:
        lines.append("")
        lines.append("experiment-wide counters:")
        counters = telemetry.get("metrics", {}).get("counters", {})
        for name in sorted(counters):
            lines.append(f"  {name:<28} {counters[name]}")
        gauges = telemetry.get("metrics", {}).get("gauges", {})
        for name in sorted(gauges):
            lines.append(f"  {name:<28} {gauges[name]:g}")
    return "\n".join(lines) + "\n"
