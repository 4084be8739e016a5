"""The shared artifact reader: lazy, parse-once, one error per torn file.

Every read-side tool opens a result tree through
:class:`repro.telemetry.artifacts.ExperimentTree`. The contract under
test:

* a torn JSON aggregate (a writer killed mid-file) is one diagnostic
  in each tool's own error class, naming the file — never a raw
  ``JSONDecodeError`` — and study audit records it as findings instead
  of aborting; the live monitor reads it as not yet written;
* building a tree opens only ``journal.jsonl``;
* ``pos doctor`` opens exactly the files it always opened, once each;
* one audit pass parses each cell's aggregates and run snapshots once,
  although both the doctor and the schema check read them.
"""

from __future__ import annotations

import builtins
import os
import shutil
from collections import Counter

import pytest

from repro.casestudy import run_case_study
from repro.study import audit_study, load_study, run_study
from repro.telemetry.artifacts import ExperimentTree
from repro.telemetry.diff import DiffError, load_side
from repro.telemetry.doctor import DoctorError, diagnose
from repro.telemetry.live import load_status
from repro.telemetry.report import ReportError, load_report
from repro.telemetry.schema import SchemaError, validate_experiment
from tests.core.test_reader_golden import CHAOS
from tests.core.test_serial_golden import CLOCK

TOOLS = {
    "diagnose": (diagnose, DoctorError),
    "load_side": (load_side, DiffError),
    "load_report": (load_report, ReportError),
    "validate_experiment": (validate_experiment, SchemaError),
}

STUDY = {
    "name": "torn",
    "factors": {"rate": [1.0, 2.0]},
    "replications": 1,
    "seed": 3,
}


def vpos_tree(root, **overrides):
    params = dict(duration_s=0.05, max_runs=4, clock=CLOCK)
    params.update(overrides)
    return run_case_study("vpos", str(root), **params).result_path


@pytest.fixture(scope="module")
def clean_tree(tmp_path_factory):
    return vpos_tree(tmp_path_factory.mktemp("clean"))


@pytest.fixture(scope="module")
def chaos_tree(tmp_path_factory):
    return vpos_tree(
        tmp_path_factory.mktemp("chaos"), duration_s=0.2, agents=2,
        dist_fault_plan=CHAOS,
    )


@pytest.fixture(scope="module")
def study_tree(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("study") / "study")
    assert run_study(load_study(STUDY), root).ok
    return root


def cell_dirs(study_dir):
    """Every experiment result folder of a study tree, sorted."""
    found = []
    for dirpath, __, filenames in os.walk(study_dir):
        if "journal.jsonl" in filenames and "experiment.yml" in filenames:
            found.append(dirpath)
    return sorted(found)


def tear(path):
    """Cut a file in half, as a writer killed mid-write leaves it."""
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])


def record_opens(monkeypatch, root):
    """Count every ``open`` below ``root``, by root-relative path."""
    opened = Counter()
    real_open = builtins.open
    root = os.path.abspath(root)

    def spy(file, *args, **kwargs):
        if isinstance(file, str):
            path = os.path.abspath(file)
            if path.startswith(root + os.sep):
                opened[os.path.relpath(path, root)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return opened


@pytest.mark.parametrize("tool", [*TOOLS, "audit_study"])
def test_torn_aggregate_is_one_diagnostic(tool, request, tmp_path):
    if tool == "audit_study":
        study = str(tmp_path / "study")
        shutil.copytree(request.getfixturevalue("study_tree"), study)
        cell = cell_dirs(study)[0]
        tear(os.path.join(cell, "telemetry.json"))
        report = audit_study(study)
        torn = {
            finding["code"]: finding["message"]
            for finding in report["findings"]
            if "telemetry.json: not valid JSON" in finding["message"]
        }
        assert set(torn) == {"undiagnosable", "schema-violation"}
        return
    tree = str(tmp_path / "tree")
    shutil.copytree(request.getfixturevalue("clean_tree"), tree)
    tear(os.path.join(tree, "telemetry.json"))
    function, error = TOOLS[tool]
    with pytest.raises(error, match=r"telemetry\.json: not valid JSON"):
        function(tree)


def test_live_reads_a_torn_snapshot_as_not_yet_written(clean_tree, tmp_path):
    tree = str(tmp_path / "tree")
    shutil.copytree(clean_tree, tree)
    tear(os.path.join(tree, "telemetry.json"))
    tear(os.path.join(tree, "run-000", "telemetry.json"))
    tear(os.path.join(tree, "run-000", "health.json"))
    status = load_status(tree)
    assert status["done"] == 4 and status["complete"]


def test_building_a_tree_opens_only_the_journal(clean_tree, monkeypatch):
    opened = record_opens(monkeypatch, clean_tree)
    tree = ExperimentTree(clean_tree, memoize=True)
    assert opened == {"journal.jsonl": 1}
    assert tree.telemetry is tree.telemetry  # parsed once, on first access
    assert opened == {"journal.jsonl": 1, "telemetry.json": 1}


@pytest.mark.parametrize("name, extra", [
    ("clean_tree", []),
    ("chaos_tree", ["dispatch.jsonl", "fleet-trace.jsonl",
                    "fleet-trace-wall.jsonl"]),
])
def test_diagnose_opens_each_artifact_once(name, extra, request,
                                           monkeypatch):
    tree = request.getfixturevalue(name)
    opened = record_opens(monkeypatch, tree)
    diagnose(tree)
    expected = ["journal.jsonl", "telemetry.json", "health.json"] + [
        f"run-{index:03d}/telemetry.json" for index in range(4)
    ] + extra
    assert opened == Counter(expected)


def test_audit_parses_each_cell_artifact_once(study_tree, monkeypatch):
    opened = record_opens(monkeypatch, study_tree)
    report = audit_study(study_tree)
    assert report["complete"]
    cells = cell_dirs(study_tree)
    assert cells
    for cell in cells:
        relative = os.path.relpath(cell, study_tree)
        for name in ("telemetry.json", "health.json",
                     "run-000/telemetry.json"):
            assert opened[os.path.join(relative, name)] == 1, (cell, name)
