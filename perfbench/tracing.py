"""Per-layer wall-clock attribution for the benchmark's traced runs.

The traced run wraps one public function per layer boundary, from the
outside: nothing in ``repro`` knows it is being traced, and
:meth:`Tracer.uninstall` puts every original object back, so an
untraced run executes exactly the code a user runs.  No boundary is
per packet; the deepest ones are one simulator pump and one fsync.

Spans are kept in memory as ``[name, start, end, parent]`` and folded
into a per-layer table of call counts and *self* time (the span's
duration minus the time covered by its wrapped children).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: ``(layer name, module, attribute path)`` for every wrapped boundary.
#: One layer may cover several functions (``loadgen.report``).
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("netsim.fastpath", "repro.netsim.fastpath", "run_batched"),
    ("netsim.engine", "repro.netsim.engine", "Simulator.run"),
    ("loadgen.start", "repro.loadgen.moongen", "MoonGen.start"),
    ("loadgen.report", "repro.loadgen.moongen", "format_report"),
    ("loadgen.report", "repro.loadgen.moongen", "latency_histogram_csv"),
    ("evaluation.load", "repro.evaluation.loader", "load_experiment"),
    ("evaluation.plot", "repro.evaluation.plotter", "plot_experiment"),
    ("core.boot", "repro.core.scheduler", "boot_nodes"),
    ("core.setup_scripts", "repro.core.scheduler", "run_setup_phase"),
    ("core.controller", "repro.core.controller", "Controller.run"),
    ("core.execute_run", "repro.core.scheduler", "execute_run"),
    ("core.persist", "repro.core.scheduler", "persist_outcome"),
    ("core.journal", "repro.core.journal", "RunJournal.record_run"),
    ("telemetry.merge", "repro.telemetry.plane", "ExperimentTelemetry.merge_run"),
    ("telemetry.finalize", "repro.telemetry.plane", "ExperimentTelemetry.finalize"),
    ("telemetry.doctor", "repro.telemetry.doctor", "diagnose"),
    ("fsync", "os", "fsync"),
    ("campaign.run", "repro.campaign.scheduler", "run_campaign"),
    ("campaign.admission", "repro.campaign.admission", "plan_admission"),
    ("study.run", "repro.study.runner", "run_study"),
    ("study.evaluate", "repro.study.evaluate", "evaluate_study"),
    ("publication.study_page", "repro.publication.website", "generate_study_page"),
    ("study.audit", "repro.study.audit", "audit_study"),
    ("casestudy.run", "repro.casestudy.experiment", "run_case_study"),
)

#: Layer names in table order, each once.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))

#: Counters the probes below add to, besides the spans.
COUNTS: Tuple[str, ...] = (
    "netsim.engine.events",   # Simulator.events_processed, summed over pumps
    "netsim.fastpath.pkts",   # packets of jobs replayed by run_batched
    "netsim.sim_pkts",        # packets offered (sent) by every reported job
)


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _original(owner, attr):
    """The raw attribute: the plain function for a method, not a bound one."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Wraps the layer boundaries and records nested spans and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._replayed: Dict[int, object] = {}

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording one span named ``name`` per call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def reset(self) -> None:
        """Forget recorded spans and counts (between repetitions)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer inside an open span")
        self.spans.clear()
        self.counts.clear()
        self._replayed.clear()

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {"calls", "self_s"}`` for every layer in :data:`LAYERS`.

        Layers that recorded nothing still appear, with zero calls.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        table = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        for (name, start, end, _), covered in zip(self.spans, child_s):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered
        return table

    def write_spans(self, path: str, **tags) -> None:
        """Append the recorded spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(dict(
                    tags, id=index, name=name, start=start, end=end,
                    parent=parent,
                )) + "\n")

    # -- probes: counts measured at the boundaries ------------------------------

    def _probe(self, path: str, func: Callable) -> Callable:
        counts, replayed = self.counts, self._replayed
        if path == "Simulator.run":
            def pump(sim, *args, **kwargs):
                before = sim.events_processed
                try:
                    return func(sim, *args, **kwargs)
                finally:
                    counts["netsim.engine.events"] += (
                        sim.events_processed - before
                    )
            return functools.wraps(func)(pump)
        if path == "run_batched":
            def batched(moongen, job, spec):
                func(moongen, job, spec)
                replayed[id(job)] = job
            return functools.wraps(func)(batched)
        if path == "format_report":
            # The report is written once per job, after its run finished,
            # so the job's packet counts are final here on either path.
            def report(job, *args, **kwargs):
                counts["netsim.sim_pkts"] += job.tx_packets
                if replayed.pop(id(job), None) is job:
                    counts["netsim.fastpath.pkts"] += job.tx_packets
                return func(job, *args, **kwargs)
            return functools.wraps(func)(report)
        return func

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary wherever ``repro`` binds it.

        A function imported by name into another module
        (``from repro.campaign.admission import plan_admission``) is
        wrapped in that module too, so every caller is traced.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, path in BOUNDARIES:
            owner, attr = _resolve(module, path)
            original = _original(owner, attr)
            wrapper = self.wrap(name, self._probe(path, original))
            sites = [(owner, attr)]
            if not isinstance(owner, type):
                sites += [
                    (loaded, key)
                    for mod_name, loaded in sorted(sys.modules.items())
                    if mod_name.split(".")[0] == "repro" and loaded is not owner
                    for key, value in vars(loaded).items()
                    if value is original
                ]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        """Put every original object back, in reverse order."""
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    def installed_sites(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every patched binding."""
        return list(self._patches)


def boundary_originals() -> List[Tuple[object, str, object]]:
    """``(owner, attribute, object)`` for each boundary as currently bound."""
    result = []
    for _, module, path in BOUNDARIES:
        owner, attr = _resolve(module, path)
        result.append((owner, attr, _original(owner, attr)))
    return result
