"""Golden digests of what the artifact readers report.

``pos doctor``, ``pos report``, ``pos status``, ``pos trace`` and
``pos diff`` each fold one result tree into plain data. This test pins
the SHA-256 of that data, serialized as sorted-key JSON, for the two
serial sweeps of :mod:`tests.core.test_serial_golden` and for one
seeded agent-kill tree, recorded once in ``fixtures/reader_golden.json``.
A refactor of the read side must leave every digest where it is.

Paths differ per checkout, so the scratch root is replaced by ``<root>``
before hashing. To inspect a mismatch, regenerate the map in a scratch
file with ``python tests/core/test_reader_golden.py <out.json>`` and
diff it against the fixture; never overwrite the fixture to make this
pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

from repro.casestudy import run_case_study
from repro.faults.plan import FaultPlan, FaultSpec
from repro.telemetry.criticalpath import analyze
from repro.telemetry.diff import diff_experiments
from repro.telemetry.doctor import diagnose
from repro.telemetry.live import load_status
from repro.telemetry.report import load_report
from tests.core.test_serial_golden import CLOCK, SWEEPS

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "reader_golden.json")

CHAOS = FaultPlan([
    FaultSpec(kind="agent", operation="kill", node="agent-00", times=1),
])


def build_trees(workdir):
    """Tree name -> result path: the serial sweeps plus an agent-kill run."""
    trees = {}
    for platform, kwargs in SWEEPS.items():
        handle = run_case_study(
            platform, os.path.join(workdir, platform), duration_s=0.05,
            interval_s=0.02, clock=CLOCK, jobs=1, **kwargs,
        )
        trees[platform] = handle.result_path
    handle = run_case_study(
        "vpos", os.path.join(workdir, "chaos"), duration_s=0.2, max_runs=4,
        clock=CLOCK, agents=2, dist_fault_plan=CHAOS,
    )
    trees["chaos"] = handle.result_path
    return trees


def reader_outputs(tree):
    """Call name -> reader output for one tree, as plain data."""
    copy = tree + "-copy"
    shutil.copytree(tree, copy)
    return {
        "diagnose": diagnose(tree),
        "load_report": load_report(tree),
        "load_status": load_status(tree),
        "analyze_sim": analyze(tree, clock="sim"),
        "diff_copy": diff_experiments(tree, copy),
    }


def reader_digests(workdir):
    """``"<tree>/<call>"`` -> SHA-256 of the call's root-relative JSON."""
    digests = {}
    for name, tree in build_trees(workdir).items():
        for call, output in reader_outputs(tree).items():
            text = json.dumps(output, sort_keys=True).replace(workdir, "<root>")
            digests[f"{name}/{call}"] = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
    return digests


def test_reader_outputs_match_golden_digests(tmp_path):
    with open(FIXTURE, encoding="utf-8") as handle:
        golden = json.load(handle)
    actual = reader_digests(str(tmp_path))
    assert sorted(actual) == sorted(golden)
    changed = [key for key in sorted(actual) if actual[key] != golden[key]]
    assert changed == [], f"reader output differs for {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        result = reader_digests(workdir)
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
