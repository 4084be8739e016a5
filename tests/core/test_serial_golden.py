"""Golden bytes of the serial result tree.

The executor-equivalence tests compare a ``--jobs``/``--agents`` tree
against a serial tree, which is a *relative* check: every executor
delivers its outcomes through the same sink, so a drift inside that sink
would move both sides at once and pass. This test pins the serial trees
of a small pos sweep and a small vpos sweep to a per-file SHA-256 map
recorded once in ``fixtures/serial_golden.json``.

To inspect a mismatch, regenerate the map in a scratch file with
``python tests/core/test_serial_golden.py <out.json>`` and diff it
against the fixture; never overwrite the fixture to make this pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from repro.casestudy import run_case_study

CLOCK = lambda: 1_600_000_000.0  # noqa: E731 - fixed wall clock => fixed tree paths

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "serial_golden.json")

SWEEPS = {
    "pos": dict(rates=[200_000, 400_000], sizes=(64, 1500), seed=0),
    "vpos": dict(rates=[100_000], sizes=(64, 1500), seed=7),
}


def tree_digest(root):
    """Relative path -> SHA-256 hex digest for every file under ``root``."""
    digests = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            digests[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return digests


def serial_digests(workdir):
    """The digest map of each pinned serial sweep, keyed by platform."""
    digests = {}
    for platform, kwargs in SWEEPS.items():
        root = os.path.join(workdir, platform)
        run_case_study(
            platform, root, duration_s=0.05, interval_s=0.02,
            clock=CLOCK, jobs=1, **kwargs,
        )
        digests[platform] = tree_digest(root)
    return digests


def test_serial_trees_match_golden_digests(tmp_path):
    with open(FIXTURE, encoding="utf-8") as handle:
        golden = json.load(handle)
    actual = serial_digests(str(tmp_path))
    for platform in SWEEPS:
        assert sorted(actual[platform]) == sorted(golden[platform]), platform
        changed = [
            rel for rel, digest in actual[platform].items()
            if golden[platform][rel] != digest
        ]
        assert changed == [], f"{platform}: bytes differ in {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        result = serial_digests(workdir)
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
