"""Benchmark of what a pos user waits for, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pos_sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seeds

Workloads (see ``workloads.py``): ``pos_sweep`` (Fig. 3a through
``run_case_study("pos")``), ``vpos_sweep`` (Fig. 3b, thinned) and
``factorial_study`` (``run_study`` then ``audit_study``).  All are
serial and closed-loop.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is host
wall time; ``experiment_s`` and ``audit_s`` are wall times rescaled by
the host's speed during each repetition (``hostspeed.py``).  On a
shared 2-vCPU VM the same Python ran up to 1.6x slower for minutes at
a time, which moved the raw figures of one commit by more than their
bounds from run to run.  The report also prints the raw wall times.

* ``setup_s`` — median over fresh processes of the time from before
  ``import repro`` to the end of the workload's zero-run call;
* ``experiment_s`` — median time until an evaluated result tree
  exists (sweeps: run, ``load_experiment``, ``plot_experiment``;
  study: ``run_study``, which evaluates and publishes);
* ``audit_s`` — median time of a read-path check of a finished tree
  (``pos doctor``'s ``diagnose`` on a sweep, ``pos study audit``'s
  ``audit_study`` on the study), over several passes on every
  repetition's tree;
* ``peak_rss_mb`` — peak resident memory of the workload process
  through its first repetition, which is one ``pos`` invocation.

Failed units (runs on a sweep, experiments on the study) are the
``failed`` count of the result line, against ``attempted``.

``--trace 1`` reports the per-layer table instead (``tracing.py``):
calls and self time per wrapped boundary, simulator and result-tree
counts, and ``trace.overhead_frac`` (traced over untraced
``experiment_s``, minus one).  Its spans are written to
``.perfbench/spans-<workload>.jsonl``.

Every repetition's output is checked (figure shapes, doctor findings,
audit holes, identical (tx, rx) table or ``study.json`` across
repetitions of one seed); a failed check prints ``"correct": false``
and exits 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workload processes run with every ``POS_*`` variable removed from the
environment, and write only under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from hostspeed import normalise
from tracing import COUNTS, LAYERS
from workloads import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Fresh processes timed per run for ``setup_s``, half before and half
#: after the measuring process, so they meet more than one phase of the
#: host's load.
SETUP_SAMPLES = 8

#: A run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("experiment_s", "s"),
    ("audit_s", "s"),
    ("peak_rss_mb", "MB"),
)

class BenchError(Exception):
    """The benchmark could not produce a result."""


def per_layer_units():
    """``(name, unit)`` of every per-layer metric, in report order."""
    units = []
    for layer in LAYERS:
        units += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    return units + [
        ("netsim.engine.events", "count"),
        ("netsim.engine.us_per_event", "us"),
        ("netsim.fastpath.pkt_share", "ratio"),
        ("netsim.sim_pkts", "count"),
        ("netsim.pkts_per_s", "1/s"),
        ("core.runs.failed", "count"),
        ("core.runs.retried", "count"),
        ("core.tree_bytes", "bytes"),
        ("trace.experiment_s", "s"),
        ("trace.unattributed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]


def child_env(workdir: str) -> dict:
    """The workload processes' environment: no inherited ``POS_*``
    switch, ``repro`` from the checkout, temp files in ``workdir``."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("POS_")
    }
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir
    return env


def run_session(args, env, deadline: float) -> dict:
    """Run one workload process; its last stdout line is its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a workload process started")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "session.py"), *args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out: {args}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"workload process failed (exit {proc.returncode}): {args}"
        )
    return json.loads(lines[-1])


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end(setup_samples, session) -> dict:
    """``name -> list of samples`` for the end-to-end metrics."""
    reps = session["reps"]
    return {
        "setup_s": setup_samples,
        "experiment_s": [
            normalise(rep["experiment_s"], rep["probe_s"]) for rep in reps
        ],
        "audit_s": [
            normalise(audit, rep["probe_s"])
            for rep in reps for audit in rep["audit_s"]
        ],
        "peak_rss_mb": [session["peak_rss_mb"]],
    }


def per_layer(session) -> dict:
    """``name -> list of samples`` (one per traced repetition)."""
    reps = session["reps"]
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep["experiment_s"] for rep in reps if not rep["traced"]]
    samples = {name: [] for name, _ in per_layer_units()}
    for rep in traced:
        layers, tree = rep["layers"], rep["tree"]
        counts = {name: rep["counts"].get(name, 0) for name in COUNTS}
        for layer in LAYERS:
            samples[f"{layer}.calls"].append(layers[layer]["calls"])
            samples[f"{layer}.self_s"].append(layers[layer]["self_s"])
        engine_s = layers["netsim.engine"]["self_s"]
        sim_s = engine_s + layers["netsim.fastpath"]["self_s"]
        events, pkts = counts["netsim.engine.events"], counts["netsim.sim_pkts"]
        top_s = (
            layers["casestudy.run"]["self_s"] + layers["study.run"]["self_s"]
        )
        samples["netsim.engine.events"].append(events)
        samples["netsim.engine.us_per_event"].append(
            engine_s / events * 1e6 if events else 0.0
        )
        samples["netsim.fastpath.pkt_share"].append(
            counts["netsim.fastpath.pkts"] / pkts if pkts else 0.0
        )
        samples["netsim.sim_pkts"].append(pkts)
        samples["netsim.pkts_per_s"].append(pkts / sim_s if sim_s else 0.0)
        samples["core.runs.failed"].append(tree["failed"])
        samples["core.runs.retried"].append(tree["retried"])
        samples["core.tree_bytes"].append(tree["bytes"])
        samples["trace.experiment_s"].append(rep["experiment_s"])
        samples["trace.unattributed_frac"].append(top_s / rep["experiment_s"])
    overhead = (
        statistics.median(samples["trace.experiment_s"])
        / statistics.median(plain) - 1.0
    )
    samples["trace.overhead_frac"] = [overhead]
    return samples


def bench(name: str, seed: int, seconds: float, trace: bool,
          workdir: str, deadline: float) -> dict:
    """Run one workload; returns the result line's fields plus a table."""
    env = child_env(workdir)
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    setup_samples = []
    setup_runs = 0 if trace else SETUP_SAMPLES

    def sample_setup(count):
        for _ in range(count):
            sample = run_session(["setup", *common], env, deadline)
            setup_samples.append(sample["setup_s"])

    sample_setup(setup_runs // 2)
    measure = ["measure", *common, "--seconds", str(seconds),
               "--trace", str(int(trace))]
    if trace:
        spans = os.path.join(OUT, f"spans-{name}.jsonl")
        if os.path.exists(spans):
            os.remove(spans)
        measure += ["--spans", spans]
    session = run_session(measure, env, deadline)
    sample_setup(setup_runs - setup_runs // 2)
    reps = session["reps"]
    problems = [problem for rep in reps for problem in rep["problems"]]
    if "error" in session:
        problems.append(session["error"])
    if problems:
        samples, units = {}, {}
    elif trace:
        samples, units = per_layer(session), dict(per_layer_units())
    else:
        samples, units = end_to_end(setup_samples, session), dict(END_TO_END)
    wall = None
    if samples and not trace:
        audits = [audit for rep in reps for audit in rep["audit_s"]]
        wall = (
            "   host wall time (not rescaled): experiment_s median "
            f"{statistics.median(rep['experiment_s'] for rep in reps):.6g} s,"
            f" audit_s median {statistics.median(audits):.6g} s; reference"
            " loop median "
            f"{statistics.median(rep['probe_s'] for rep in reps) * 1e6:.4g} us"
        )
    notes = Counter(note for rep in reps for note in rep["notes"])
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return {
        "workload": name,
        "seed": seed,
        "switches": session["switches"],
        "problems": problems,
        "notes": notes,
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "units": units,
        "wall": wall,
    }


def print_report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']})")
    switches = " ".join(
        f"{key}={value}" for key, value in sorted(result["switches"].items())
    )
    print(f"   resolved switches: {switches}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   failed_frac: {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted} units)")
    print(f"   {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'unit':>6} {'n':>3}")
    for metric, values in result["samples"].items():
        q1, median, q3 = quartiles(values)
        print(f"   {metric:<32} {median:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {result['units'][metric]:>6} {len(values):>3}")
    if result["wall"]:
        print(result["wall"])
    for note, count in sorted(result["notes"].items()):
        print(f"   note: {note} x{count} over {result['repetitions']} "
              f"repetitions")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def result_line(result: dict, prefix: str = "") -> dict:
    return {
        f"{prefix}{metric}": {
            "value": statistics.median(values),
            "unit": result["units"][metric],
        }
        for metric, values in result["samples"].items()
    }


def main(argv=None) -> int:
    known = workloads()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        choices=[*known, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 0 pos, 2 vpos, "
                             "42 study)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its workload process and
    # removes its work directory, through the exit path below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    names = list(known) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    results = []
    try:
        for name in names:
            seed = known[name].default_seed if args.seed is None else args.seed
            results.append(bench(
                name, seed, args.seconds, bool(args.trace), workdir, deadline,
            ))
            print_report(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not any(result["problems"] for result in results)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update(result_line(result, prefix))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
