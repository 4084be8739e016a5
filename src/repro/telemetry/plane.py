"""The experiment-level telemetry plane.

Owns every telemetry artifact of one experiment execution:

``controller.log``
    The legacy sequence-numbered workflow log, byte-compatible with
    pre-telemetry readers.  A resumed execution *appends*, continuing
    the crashed execution's sequence numbers — the evidence is never
    destroyed.
``trace.jsonl``
    One JSON record per completed span, written in completion order
    (children before parents), with globally unique sequence numbers
    assigned at span start — workflow spans live on a logical tick
    clock, run-scoped spans on the netsim virtual clock.  The file is
    *rewritten* by a resumed execution: adopted runs replay their
    buffers from ``run-NNN/telemetry.json``, so the finished trace is a
    pure function of the run set and stays byte-identical across any
    ``--jobs N`` and across crash + resume.
``run-NNN/telemetry.json``
    Per-run span/metric snapshot, written when the run is persisted
    (in run order, through the scheduler's reorder buffer).
``telemetry.json``
    The experiment-wide metric aggregate, written at finalization.
``trace-wall.jsonl``
    Opt-in sidecar (``POS_TELEMETRY_WALLCLOCK=1``) carrying wall-clock
    profile measurements; deliberately separate so the deterministic
    artifacts never embed wall time.
``dispatch.jsonl``
    Evidence sidecar of the distributed execution plane (``--agents``):
    agent spawns, registrations, leases, dispatches, deaths,
    re-dispatches, quarantines.  Deliberately quarantined from the
    determinism contract — which agent ran which run and how often it
    crashed depends on the placement and the crash schedule, while the
    merged artifacts must not — so determinism comparisons exclude it
    (``diff -r -x dispatch.jsonl``) or disable it (``POS_DISPATCH_LOG=0``).
    A resumed execution appends: crash evidence is never destroyed.
``fleet-trace.jsonl``
    The stitched causal DAG of the whole execution: one
    dispatch → run → persist span chain per delivered run, parented
    under a single ``fleet.experiment`` root, every record stamped with
    the execution's trace id.  Causal spans live on a monotone causal
    tick clock, run spans on the netsim virtual clock; records are
    emitted through the reorder-buffer delivery pipeline in strict run
    order, so the finished trace — like ``trace.jsonl`` — is a pure
    function of the run set: rewritten on resume and byte-identical for
    any ``--jobs``/``--agents``/transport/crash schedule.  Disabled
    wholesale with ``POS_FLEET_TRACE=0``.
``fleet-trace-wall.jsonl``
    Evidence sidecar quarantining the *real* timings of the distributed
    pump (transport-clock send/recv/deliver/death instants, per-run
    agent wall seconds), following the ``trace-wall.jsonl`` precedent:
    wall time never enters a deterministic artifact.  Shares the
    evidence gate of the other sidecars (``POS_DISPATCH_LOG=0``
    silences every sidecar at once) and is excluded from determinism
    comparisons exactly like ``dispatch.jsonl``.

Every record is flushed as written; phase boundaries additionally fsync
both the legacy log and the trace, matching the journal's durability —
a crashed controller loses no completed-span evidence the journal
already promised.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.core.envcache import EnvSwitch
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import LogicalClock, Span, strip_wall

__all__ = [
    "ExperimentTelemetry",
    "TRACE_NAME",
    "TELEMETRY_NAME",
    "RUN_TELEMETRY_NAME",
    "WALL_SIDECAR_NAME",
    "DISPATCH_NAME",
    "CACHE_NAME",
    "FLEET_TRACE_NAME",
    "FLEET_WALL_NAME",
    "EVIDENCE_SIDECARS",
    "enabled",
    "wallclock_enabled",
    "dispatch_enabled",
    "fleet_enabled",
]

TRACE_NAME = "trace.jsonl"
TELEMETRY_NAME = "telemetry.json"
WALL_SIDECAR_NAME = "trace-wall.jsonl"
RUN_TELEMETRY_NAME = "telemetry.json"
DISPATCH_NAME = "dispatch.jsonl"
CACHE_NAME = "cache.jsonl"
FLEET_TRACE_NAME = "fleet-trace.jsonl"
FLEET_WALL_NAME = "fleet-trace-wall.jsonl"

#: Every evidence sidecar quarantined from the byte-identity contract;
#: determinism comparisons between executions exclude exactly these.
EVIDENCE_SIDECARS = (DISPATCH_NAME, CACHE_NAME, FLEET_WALL_NAME)

_LEGACY_LINE = re.compile(r"^\[(\d+)\] ")


#: Whether telemetry collection is on (``POS_TELEMETRY`` != 0).
#: Resolved once per world (:mod:`repro.core.envcache`), not per run.
enabled = EnvSwitch("POS_TELEMETRY")

#: Whether wall-clock profiles go to the ``trace-wall.jsonl`` sidecar
#: (``POS_TELEMETRY_WALLCLOCK`` == 1; off by default).
wallclock_enabled = EnvSwitch("POS_TELEMETRY_WALLCLOCK", default="0", mode="one")

#: Whether the ``dispatch.jsonl`` evidence sidecar is written
#: (``POS_DISPATCH_LOG`` != 0; on by default).
dispatch_enabled = EnvSwitch("POS_DISPATCH_LOG")

#: Whether the causal fleet trace (``fleet-trace.jsonl`` and its wall
#: sidecar) is written (``POS_FLEET_TRACE`` != 0; on by default).
fleet_enabled = EnvSwitch("POS_FLEET_TRACE")


class _WorkflowLog:
    """The legacy sequence-numbered ``controller.log``, kept byte-compatible.

    A resumed execution appends and *continues* the sequence numbers of
    the crashed execution's log (the old implementation restarted at
    0001, corrupting the artifact's ordering guarantee).  Every event is
    flushed immediately; the crash-evidence bug of the buffered writer —
    trace lines lost while the journal had already fsync'd the run — is
    gone.
    """

    def __init__(self, experiment_path: str, append: bool = False):
        path = os.path.join(experiment_path, "controller.log")
        self._sequence = self._last_sequence(path) if append else 0
        self._handle = open(path, "a" if append else "w", encoding="utf-8")

    @staticmethod
    def _last_sequence(path: str) -> int:
        if not os.path.isfile(path):
            return 0
        last = 0
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                match = _LEGACY_LINE.match(line)
                if match is not None:
                    last = int(match.group(1))
        return last

    def event(self, message: str) -> None:
        self._sequence += 1
        self._handle.write(f"[{self._sequence:04d}] {message}\n")
        self._handle.flush()

    def flush(self, fsync: bool = False) -> None:
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


class _Sidecar:
    """A lazily opened, seq-numbered JSONL evidence sidecar.

    The file is created on the first record (an execution that never
    emits one leaves none), appended to by a resumed execution, and
    flushed per record.
    """

    def __init__(self, path: str, append: bool):
        self.path = path
        self._append = append
        self._handle = None
        self._seq = 0

    def write(self, event: str, fields: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(
                self.path, "a" if self._append else "w", encoding="utf-8"
            )
        self._seq += 1
        record = {"seq": self._seq, "event": event}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ExperimentTelemetry:
    """Spans, metrics and the legacy log for one experiment execution."""

    def __init__(self, experiment_path: str, resumed: bool = False):
        # Imported lazily: the testbed package must stay importable
        # without triggering the telemetry package (and vice versa).
        from repro.testbed.health import ExperimentHealth, health_enabled

        self.path = experiment_path
        self.enabled = enabled()
        #: The experiment-level health fold (``health.json``); carried
        #: by the telemetry plane so merge/adopt/finalize stay a single
        #: call site, but gated independently (``POS_HEALTH=0``).
        self.health = (
            ExperimentHealth(experiment_path) if health_enabled() else None
        )
        self._log = _WorkflowLog(experiment_path, append=resumed)
        self._trace = None
        self._wall = None
        self._dispatch = _Sidecar(
            os.path.join(experiment_path, DISPATCH_NAME), resumed
        )
        self._cache_log = _Sidecar(
            os.path.join(experiment_path, CACHE_NAME), resumed
        )
        self._fleet_on = self.enabled and fleet_enabled()
        self._fleet = None
        self._fleet_id: Optional[str] = None
        self._fleet_name: Optional[str] = None
        self._fleet_total = 0
        self._fleet_seq = 0
        self._fleet_tick = 0
        self._fleet_root_written = False
        self._fleet_wall = _Sidecar(
            os.path.join(experiment_path, FLEET_WALL_NAME), resumed
        )
        self._clock = LogicalClock()
        self._seq = 0
        self._stack: List[Span] = []
        self._spans_written = 0
        self.run_metrics = MetricsRegistry()
        self.experiment_metrics = MetricsRegistry()
        if self.enabled:
            # The trace is rewritten (not appended) on resume: adopted
            # runs replay their buffers, so the finished file is a pure
            # function of the run set — byte-identical to an
            # uninterrupted execution's.
            self._trace = open(
                os.path.join(experiment_path, TRACE_NAME), "w", encoding="utf-8"
            )
            if wallclock_enabled():
                self._wall = open(
                    os.path.join(experiment_path, WALL_SIDECAR_NAME),
                    "a" if resumed else "w",
                    encoding="utf-8",
                )

    # -- legacy log ----------------------------------------------------------

    def event(self, message: str) -> None:
        """Write one legacy ``controller.log`` line (flushed immediately)."""
        self._log.event(message)

    # -- distributed-execution evidence --------------------------------------

    def dispatch_event(self, event: str, **fields: Any) -> None:
        """Append one record to the ``dispatch.jsonl`` evidence sidecar.

        Lazily opened: experiments that never fan out to agents never
        create the file.  The sidecar is outside the determinism
        contract (see the module docstring), so records may carry
        placement- and crash-schedule-dependent detail freely.
        """
        if dispatch_enabled():
            self._dispatch.write(event, fields)

    # -- run-cache evidence ---------------------------------------------------

    def cache_event(self, event: str, **fields: Any) -> None:
        """Append one record to the ``cache.jsonl`` evidence sidecar.

        Same contract as :meth:`dispatch_event`: lazily opened (runs
        without a cache never create the file) and deliberately outside
        the byte-identity contract — whether a run was served from the
        cache is execution history, not run content, so a warm tree
        must stay ``diff -r -x cache.jsonl``-identical to a cold one.
        ``pos report`` folds these records into cache provenance.
        """
        if dispatch_enabled():
            self._cache_log.write(event, fields)

    # -- causal fleet trace ---------------------------------------------------

    def fleet_begin(self, experiment: str, total_runs: int) -> Optional[str]:
        """Open the stitched causal fleet trace for this execution.

        The trace id is a pure function of the experiment identity (so
        a resumed execution carries the same id as the crashed one),
        and the file is rewritten — not appended — on resume: per-run
        span chains are emitted through the reorder-buffer delivery
        pipeline in strict run order, so the finished DAG is a pure
        function of the run set and stays byte-identical across any
        executor and crash schedule.  Returns the trace id, or None
        when the plane is off.
        """
        if not self._fleet_on:
            return None
        identity = json.dumps(
            {"experiment": experiment, "runs": total_runs}, sort_keys=True
        )
        self._fleet_id = hashlib.sha256(
            identity.encode("utf-8")
        ).hexdigest()[:16]
        self._fleet_name = experiment
        self._fleet_total = total_runs
        self._fleet = open(
            os.path.join(self.path, FLEET_TRACE_NAME), "w", encoding="utf-8"
        )
        return self._fleet_id

    def fleet_context(self) -> Optional[str]:
        """The live trace id — what the dist plane stamps on Envelopes."""
        return self._fleet_id

    def fleet_wall_event(self, event: str, **fields: Any) -> None:
        """Append one record to the ``fleet-trace-wall.jsonl`` sidecar.

        Real transport-clock instants and agent wall seconds of the
        distributed pump, quarantined from the deterministic fleet
        trace exactly as ``trace-wall.jsonl`` quarantines profile wall
        time.  Shares the evidence gate of the other sidecars — with
        ``POS_DISPATCH_LOG=0`` an execution leaves *no* sidecar at all —
        and dies with the whole plane under ``POS_FLEET_TRACE=0``.
        """
        if self._fleet_on and dispatch_enabled():
            self._fleet_wall.write(event, fields)

    def _fleet_write(
        self,
        span: str,
        parent: Optional[str],
        name: str,
        start: float,
        end: float,
        clock: str,
        run: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self._fleet_seq += 1
        record = {
            "seq": self._fleet_seq,
            "trace": self._fleet_id,
            "span": span,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "clock": clock,
            "run": run,
            "attrs": attrs,
        }
        self._fleet.write(json.dumps(record, sort_keys=True) + "\n")
        self._fleet.flush()

    def _fleet_run(self, index: int, spans: List[dict]) -> None:
        """Emit one run's dispatch → run → persist chain, in run order.

        Called from the merge/adopt path — i.e. at reorder-buffer
        delivery time, which every executor reaches in strict run-index
        order — so the causal ticks are a pure function of the run
        index.  Attrs carry only run-set-pure facts (outcome of the
        run), never execution history like which agent ran it or
        whether the cache served it: that detail lives in the
        sidecars.
        """
        if self._fleet is None:
            return
        root = next(
            (
                span for span in spans
                if span.get("name") == "run" and span.get("parent") is None
            ),
            None,
        )
        attrs: Dict[str, Any] = {}
        if root is not None:
            source = root.get("attrs", {})
            attrs = {
                key: source[key]
                for key in ("ok", "attempts", "recovered", "faults")
                if key in source
            }
        tick = float(self._fleet_tick)
        self._fleet_tick += 2
        self._fleet_write(
            f"r{index}.dispatch", "root", "fleet.dispatch",
            tick, tick, "causal", index, {},
        )
        self._fleet_write(
            f"r{index}.run", f"r{index}.dispatch", "fleet.run",
            float(root.get("start", 0.0)) if root else 0.0,
            float(root.get("end", 0.0)) if root else 0.0,
            "sim", index, attrs,
        )
        self._fleet_write(
            f"r{index}.persist", f"r{index}.run", "fleet.persist",
            tick + 1.0, tick + 1.0, "causal", index, {},
        )

    def _fleet_root(self, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the ``fleet.experiment`` root, post-order (children first)."""
        if self._fleet is None or self._fleet_root_written:
            return
        attrs: Dict[str, Any] = {
            "experiment": self._fleet_name,
            "runs": self._fleet_total,
        }
        if extra:
            attrs.update(extra)
        self._fleet_write(
            "root", None, "fleet.experiment",
            0.0, float(self._fleet_tick), "causal", None, attrs,
        )
        self._fleet_root_written = True

    # -- workflow spans ------------------------------------------------------

    def begin_span(self, name: str, **attrs: Any) -> Span:
        """Open a workflow span on the logical tick clock."""
        parent = self._stack[-1].seq if self._stack else None
        span = Span(name, self._seq, parent, self._clock(), dict(attrs))
        self._seq += 1
        self._stack.append(span)
        return span

    def finish_span(self, span: Span) -> None:
        while self._stack:
            top = self._stack.pop()
            self._write_span(top.record(self._clock()), clock="ticks")
            if top is span:
                return
        raise ValueError(f"span {span.name!r} is not a live workflow span")

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.begin_span(name, **attrs)
        try:
            yield span
        finally:
            self.finish_span(span)

    # -- run buffers ---------------------------------------------------------

    def merge_run(
        self, index: int, payload: Optional[dict], run_dir_path: Optional[str],
        health: Optional[dict] = None,
    ) -> None:
        """Merge one executed run's buffer, in run order.

        Assigns global sequence numbers to the buffer's local ones,
        parents the run's root spans under the innermost live workflow
        span (the measurement phase), snapshots the buffer into
        ``run-NNN/telemetry.json``, and aggregates the metrics.  The
        run's health payload (if any) is snapshotted and folded the
        same way (``run-NNN/health.json``).
        """
        if self.health is not None:
            self.health.merge_run(index, health, run_dir_path)
        if not self.enabled or payload is None:
            return
        if run_dir_path is not None:
            snapshot = {
                "run": index,
                "spans": [strip_wall(span) for span in payload.get("spans", [])],
                "metrics": payload.get("metrics", {}),
            }
            with open(
                os.path.join(run_dir_path, RUN_TELEMETRY_NAME),
                "w", encoding="utf-8",
            ) as handle:
                handle.write(json.dumps(snapshot, sort_keys=True, indent=2))
                handle.write("\n")
        self._merge_buffer(payload)
        self._fleet_run(index, payload.get("spans", []))

    def adopt_run(self, index: int, run_dir_path: str) -> None:
        """Replay an adopted (journalled, resumed) run's buffer from disk.

        The snapshot file is left byte-untouched; only the trace and the
        aggregate are fed, exactly as if the run had executed here.
        """
        if self.health is not None:
            self.health.adopt_run(index, run_dir_path)
        if not self.enabled:
            return
        snapshot_path = os.path.join(run_dir_path, RUN_TELEMETRY_NAME)
        if not os.path.isfile(snapshot_path):
            return  # pre-telemetry artifact: nothing to replay
        with open(snapshot_path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        self._merge_buffer(
            {"spans": snapshot.get("spans", []),
             "metrics": snapshot.get("metrics", {})}
        )
        self._fleet_run(index, snapshot.get("spans", []))

    def _merge_buffer(self, payload: dict) -> None:
        spans = payload.get("spans", [])
        base = self._seq
        parent = self._stack[-1].seq if self._stack else None
        top = 0
        for span in spans:
            top = max(top, int(span["seq"]) + 1)
            entry = strip_wall(span)
            entry = dict(entry)
            entry["seq"] = base + int(span["seq"])
            entry["parent"] = (
                parent if span.get("parent") is None
                else base + int(span["parent"])
            )
            self._write_span(entry, clock="sim", wall=span.get("wall_s"))
        self._seq = base + top
        self.run_metrics.merge(payload.get("metrics", {}))

    # -- finalization --------------------------------------------------------

    def finalize(
        self,
        experiment: str,
        runs: Dict[str, int],
        journal_entries: Optional[int] = None,
        extra_gauges: Optional[Dict[str, float]] = None,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Write the experiment-wide ``telemetry.json`` aggregate
        (and, when the health plane is on, ``health.json``).

        ``provenance`` records the execution's reproducibility
        fingerprint (code epoch, platform, seed, …) so comparative
        tooling (``pos diff``) can attribute result deltas between two
        executions to an identified input change.  It must be a pure
        function of the experiment's inputs — never of the schedule —
        to preserve the byte-identity contract.
        """
        if self.health is not None:
            self.health.finalize(experiment)
        if not self.enabled:
            return
        for name, value in sorted(runs.items()):
            self.experiment_metrics.gauge(f"runs.{name}", value)
        if journal_entries is not None:
            self.experiment_metrics.gauge("journal.appends", journal_entries)
        for name, value in sorted((extra_gauges or {}).items()):
            self.experiment_metrics.gauge(name, value)
        aggregate = MetricsRegistry()
        aggregate.merge(self.run_metrics)
        aggregate.merge(self.experiment_metrics)
        payload = {
            "experiment": experiment,
            "metrics": aggregate.snapshot(),
            "runs": {name: runs[name] for name in sorted(runs)},
            "spans": self._spans_written + len(self._stack),
        }
        if provenance:
            payload["provenance"] = provenance
        with open(
            os.path.join(self.path, TELEMETRY_NAME), "w", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=2))
            handle.write("\n")
        self._fleet_root()

    # -- durability ----------------------------------------------------------

    def flush(self, fsync: bool = False) -> None:
        """Flush (and on phase boundaries fsync) log and trace."""
        self._log.flush(fsync=fsync)
        if self._trace is not None:
            self._trace.flush()
            if fsync:
                os.fsync(self._trace.fileno())
        if self._fleet is not None:
            self._fleet.flush()
            if fsync:
                os.fsync(self._fleet.fileno())

    def close(self) -> None:
        """Close all handles; dangling spans are recorded as evidence."""
        while self._stack:
            top = self._stack.pop()
            top.set(unfinished=True)
            self._write_span(top.record(self._clock()), clock="ticks")
        self._log.close()
        if self._trace is not None:
            self._trace.close()
            self._trace = None
        if self._wall is not None:
            self._wall.close()
            self._wall = None
        if self._fleet is not None:
            # A crash closes the trace with an unfinished root — crash
            # evidence in the torn file; resume rewrites it whole.
            self._fleet_root({"unfinished": True})
            self._fleet.close()
            self._fleet = None
        self._fleet_wall.close()
        self._dispatch.close()
        self._cache_log.close()

    # -- internals -----------------------------------------------------------

    def _write_span(
        self, entry: dict, clock: str, wall: Optional[float] = None,
    ) -> None:
        if self._trace is None:
            return
        wall = entry.pop("wall_s", wall)
        record = dict(entry)
        record["clock"] = clock
        self._trace.write(json.dumps(record, sort_keys=True) + "\n")
        self._trace.flush()
        self._spans_written += 1
        if self._wall is not None and wall is not None:
            self._wall.write(
                json.dumps(
                    {"name": entry["name"], "seq": entry["seq"], "wall_s": wall},
                    sort_keys=True,
                )
                + "\n"
            )
            self._wall.flush()
