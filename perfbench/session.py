"""One workload process of the benchmark; ``run.py`` starts it.

``setup`` mode times, in this fresh process, everything from before
``import repro`` to the end of the workload's zero-run call.

``measure`` mode repeats the workload until ``--seconds`` are used,
checks every repetition's output, and prints one JSON object (the last
line of standard output) with each repetition's figures.  With
``--trace 0`` each repetition runs under ``hostspeed.HostSpeedProbe``
and reports its median probe time.  With ``--trace 1`` repetitions
alternate untraced and traced, without the probe, so the tracing
overhead is measured against neighbours in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time

from hostspeed import HostSpeedProbe
from workloads import tree_stats, workloads

#: The environment switches every workload process must see at their
#: defaults: ``(module, attribute)`` of each cached switch.
SWITCHES = (
    ("repro.netsim.fastpath", "enabled"),
    ("repro.telemetry.plane", "enabled"),
    ("repro.telemetry.plane", "wallclock_enabled"),
    ("repro.telemetry.plane", "dispatch_enabled"),
    ("repro.telemetry.plane", "fleet_enabled"),
    ("repro.testbed.health", "health_enabled"),
    ("repro.cache", "cache_enabled"),
)

#: What the pinned environment resolves to when no switch is inherited.
DEFAULTS = {
    "POS_NETSIM_BATCH": True,
    "POS_TELEMETRY": True,
    "POS_TELEMETRY_WALLCLOCK": False,
    "POS_DISPATCH_LOG": True,
    "POS_FLEET_TRACE": True,
    "POS_HEALTH": True,
    "POS_RUN_CACHE": True,
    "jobs": 1,
    "agents": 0,
    "run_cache_dir": None,
}

#: Fewest repetitions per kind (untraced, traced) a measure run makes.
MIN_REPS = 3


def resolved_switches() -> dict:
    """Re-arm the cached switches and report what they resolve to."""
    from repro.cache import resolve_cache_dir
    from repro.core import envcache
    from repro.core.scheduler import resolve_jobs
    from repro.dist import resolve_agents

    envcache.refresh_all()
    values = {}
    for module, attr in SWITCHES:
        switch = getattr(importlib.import_module(module), attr)
        values[switch.var] = switch()
    values["jobs"] = resolve_jobs(None)
    values["agents"] = resolve_agents(None)
    values["run_cache_dir"] = resolve_cache_dir(None)
    return values


def setup(workload, seed: int, workdir: str) -> dict:
    start = time.perf_counter()
    workload.setup(tempfile.mkdtemp(dir=workdir), seed)
    return {"setup_s": time.perf_counter() - start}


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str,
            spans_path: str) -> dict:
    workload.prepare()
    switches = resolved_switches()
    if switches != DEFAULTS:
        return {"switches": switches, "reps": [], "error":
                f"environment switches not at their defaults: {switches}"}
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    reps = []
    reference = None
    peak_rss_mb = None
    kinds = 2 if trace else 1
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        traced = tracer is not None and len(reps) % 2 == 1
        root = tempfile.mkdtemp(dir=workdir)
        if traced:
            tracer.reset()
            tracer.install()
        probe = HostSpeedProbe() if tracer is None else None
        try:
            with probe or contextlib.nullcontext():
                outcome = workload.run(root, seed, reference)
        finally:
            if traced:
                tracer.uninstall()
        rep = {
            "traced": traced,
            "probe_s": probe.median_s() if probe else None,
            "experiment_s": outcome.experiment_s,
            "audit_s": outcome.audit_s,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
            "notes": outcome.notes,
        }
        if traced:
            rep["layers"] = tracer.layer_table()
            rep["counts"] = dict(tracer.counts)
            rep["tree"] = tree_stats(root)
            if spans_path:
                tracer.write_spans(spans_path, rep=len(reps))
        reps.append(rep)
        shutil.rmtree(root)
        if peak_rss_mb is None:
            # What one ``pos`` invocation, one repetition, needs at most.
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0
        if outcome.problems:
            break
        if reference is None:
            reference = outcome.fingerprint
        # Stop where the next repetition would end nearer past the
        # budget than this one ends before it.
        now = time.perf_counter()
        per_kind = len(reps) // kinds
        if per_kind >= MIN_REPS and (
            now - started + (now - rep_started) / 2 > seconds
        ):
            break
    return {
        "switches": switches,
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=list(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="append traced spans to this file")
    args = parser.parse_args(argv)
    workload = workloads()[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed, args.workdir)
    else:
        result = measure(
            workload, args.seed, args.seconds, bool(args.trace),
            args.workdir, args.spans,
        )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
