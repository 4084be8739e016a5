"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import tracing  # noqa: E402
from hostspeed import REFERENCE_LOOP_S, HostSpeedProbe, normalise  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Study, Sweep, _pos_shape  # noqa: E402


class TickClock:
    """A clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_nested_children():
    tracer = Tracer(clock=TickClock())
    fastpath = tracer.wrap("netsim.fastpath", lambda: None)
    fsync = tracer.wrap("fsync", lambda: None)

    def start():
        fastpath()
        fastpath()

    def record():
        fsync()

    loadgen = tracer.wrap("loadgen.start", start)
    journal = tracer.wrap("core.journal", record)
    loadgen()
    journal()
    table = tracer.layer_table()
    # loadgen.start reads the clock at 1 and 6; its two children cover
    # 2-3 and 4-5, so 5 s of span leave 3 s of self time.
    assert table["loadgen.start"] == {"calls": 1, "self_s": 3.0}
    assert table["netsim.fastpath"] == {"calls": 2, "self_s": 2.0}
    # core.journal 7-10 around fsync 8-9.
    assert table["core.journal"] == {"calls": 1, "self_s": 2.0}
    assert table["fsync"] == {"calls": 1, "self_s": 1.0}
    assert table["study.run"] == {"calls": 0, "self_s": 0.0}
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert tracer.spans[parents["netsim.fastpath"]][0] == "loadgen.start"
    assert tracer.spans[parents["fsync"]][0] == "core.journal"


def _small_sweep():
    return Sweep("pos", keep_every=10, duration_s=0.01, default_seed=0,
                 shape=_pos_shape)


def test_traced_sweep_nests_real_boundaries_and_restores_them(tmp_path):
    before = tracing.boundary_originals()
    tracer = Tracer()
    tracer.install()
    sites = tracer.installed_sites()
    started = time.perf_counter()
    try:
        outcome = _small_sweep().run(str(tmp_path), seed=0)
    finally:
        tracer.uninstall()
    wall_s = time.perf_counter() - started
    assert outcome.problems == []

    # Every wrapped binding is the original object again.
    for site, key, original in sites:
        current = site.__dict__[key] if isinstance(site, type) else getattr(
            site, key
        )
        assert current is original, (site, key)
    assert [entry[2] for entry in tracing.boundary_originals()] == [
        entry[2] for entry in before
    ]
    # A function imported by name into another module is wrapped there too.
    assert any(
        getattr(site, "__name__", "") == "repro.campaign.scheduler"
        and key == "plan_admission"
        for site, key, _ in sites
    )

    spans = tracer.spans
    names = {name for name, _, _, _ in spans}
    assert {"netsim.fastpath", "loadgen.start", "core.journal", "fsync"} <= names
    for name, _, _, parent in spans:
        if name == "netsim.fastpath":
            assert spans[parent][0] == "loadgen.start"
    assert any(
        name == "fsync" and spans[parent][0] == "core.journal"
        for name, _, _, parent in spans
    )
    table = tracer.layer_table()
    runs = len(_small_sweep().rates) * 2
    assert table["netsim.fastpath"]["calls"] == runs
    assert table["core.journal"]["calls"] == runs
    assert tracer.counts["netsim.fastpath.pkts"] == tracer.counts[
        "netsim.sim_pkts"
    ] > 0
    span_total = sum(row["self_s"] for row in table.values())
    assert 0 < span_total <= wall_s


def _reload(sweep, path, reference):
    from repro.evaluation.loader import load_experiment
    from repro.telemetry.doctor import diagnose

    problems, _ = sweep.check(load_experiment(path), diagnose(path), reference)
    return problems


def test_sweep_check_rejects_doctored_trees(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    sweep = _small_sweep()
    outcome = sweep.run(str(tmp_path / "a"), seed=0)
    assert outcome.problems == []
    reference = outcome.fingerprint
    assert _reload(sweep, outcome.tree, reference) == []

    # One packet fewer on the RX summary line of the first run.
    log = os.path.join(outcome.tree, "run-000", "loadgen", "moongen.log")
    with open(log, encoding="utf-8") as handle:
        text = handle.read()
    doctored, count = re.subn(
        r"(RX: \S+ Mpps \(total )(\d+)",
        lambda match: f"{match.group(1)}{int(match.group(2)) - 1}",
        text,
    )
    assert count == 1
    with open(log, "w", encoding="utf-8") as handle:
        handle.write(doctored)
    assert any("differs" in p for p in _reload(sweep, outcome.tree, reference))

    again = sweep.run(str(tmp_path / "b"), seed=0, reference=reference)
    assert again.problems == []
    shutil.rmtree(os.path.join(again.tree, "run-001"))
    assert _reload(sweep, again.tree, reference)


def test_study_check_rejects_doctored_trees(tmp_path):
    from repro.study import audit_study

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    study = Study(factors=2, levels=2, replications=2, default_seed=42)
    outcome = study.run(str(tmp_path / "a"), seed=42)
    assert outcome.problems == []
    assert outcome.attempted == 8 and outcome.failed == 0
    again = study.run(str(tmp_path / "b"), seed=42, reference=outcome.fingerprint)
    assert again.problems == []

    study_json = os.path.join(again.tree, "study.json")
    with open(study_json, "a", encoding="utf-8") as handle:
        handle.write(" ")
    problems, _ = study.check(
        again.tree, audit_study(again.tree), outcome.fingerprint
    )
    assert any("differs" in p for p in problems)

    experiments = os.path.join(
        again.tree, "replications", "rep-001", "experiments"
    )
    victim = os.path.join(experiments, sorted(os.listdir(experiments))[0])
    shutil.rmtree(victim)
    problems, _ = study.check(again.tree, audit_study(again.tree))
    assert any(p.startswith("audit hole") for p in problems)


def test_seeded_inputs_repeat():
    study = Study(factors=2, levels=4, replications=8, default_seed=42)
    assert study.spec_text(7) == study.spec_text(7)
    assert study.spec_text(7) != study.spec_text(8)



def test_host_speed_probe_samples_then_disarms():
    with HostSpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert probe.median_s() > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # A host twice as slow as the reference halves the reported time.
    assert normalise(3.0, 2 * REFERENCE_LOOP_S) == 1.5
