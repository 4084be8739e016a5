"""The benchmark's workloads: what a pos user runs, and how it is checked.

Every workload is serial and closed-loop: one caller, each call starts
after the previous one returned, no ``--jobs``/``--agents`` fan-out.
The program receives only inputs generated here from the seed.

``repro`` is imported inside the methods, never at module level, so a
set-up sample can time the import itself.

* ``pos_sweep`` — Fig. 3a on the bare-metal model: nearly all of its
  time is the batched replay kernel (``fastpath.run_batched``).
* ``vpos_sweep`` — Fig. 3b on the virtual clone: the fast path never
  engages, so nearly all of its time is the event engine.
* ``factorial_study`` — a replicated factorial study of one-run cells
  plus its audit: no simulator at all, only per-experiment
  orchestration (controller, persist, journal, fsync, telemetry,
  campaign, study evaluation) and the read path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Packet sizes of both Fig. 3 sweeps.
SIZES: Tuple[int, int] = (64, 1500)

#: ``pos doctor`` passes per sweep repetition; one pass takes a few
#: milliseconds, so the median of several is reported (see ``run.py``).
DOCTOR_PASSES = 20

#: ``audit_study`` passes per study repetition.  A pass reads the whole
#: tree (about half a second); a few per repetition give the run's
#: median audit time enough samples.
AUDIT_PASSES = 3


@dataclass
class Outcome:
    """One repetition of a workload, as measured and as checked."""

    experiment_s: float
    #: Wall time of every read-path pass over the finished tree.
    audit_s: List[float]
    attempted: int
    failed: int
    #: What must repeat exactly for one seed: the per-run
    #: ``(index, pkt_sz, pkt_rate, tx, rx)`` rows, or the study.json digest.
    fingerprint: object
    #: Output-check failures; empty when the result is correct.
    problems: List[str] = field(default_factory=list)
    #: Warnings about the tree that do not make it wrong.
    notes: List[str] = field(default_factory=list)
    tree: str = ""


def timed_passes(check, tree: str, passes: int):
    """Run ``check(tree)`` ``passes`` times: ``(last result, wall time
    of each pass)``."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        result = check(tree)
        times.append(time.perf_counter() - start)
    return result, times


def tree_stats(root: str) -> Dict[str, int]:
    """Bytes in a result tree, and its failed and retried run records."""
    total = failed = retried = 0
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            total += os.path.getsize(path)
            if name != "journal.jsonl":
                continue
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    entry = json.loads(line)
                    if entry.get("event") == "run":
                        failed += not entry.get("ok", False)
                        retried += bool(entry.get("retried"))
    return {"bytes": total, "failed": failed, "retried": retried}


# ----------------------------------------------------------------------------
# Fig. 3 sweeps
# ----------------------------------------------------------------------------

def sweep_table(results) -> List[tuple]:
    """``(index, pkt_sz, pkt_rate, tx_packets, rx_packets)`` per run."""
    from repro.core.errors import ParseError

    rows = []
    for run in sorted(results.runs, key=lambda run: (run.index, run.attempt)):
        report = run.moongen()
        if report.tx_summary is None or report.rx_summary is None:
            raise ParseError(f"run {run.index}: no TX/RX summary line")
        rows.append((
            run.index, int(run.loop["pkt_sz"]), int(run.loop["pkt_rate"]),
            report.tx_summary.packets, report.rx_summary.packets,
        ))
    return rows


def _pos_shape(results) -> List[str]:
    """Fig. 3a: CPU ceiling near 1.75 Mpps for 64 B, line rate near
    0.822 Mpps for 1500 B (both within 5 %), linear below each."""
    problems = []
    for size, peak_mpps, linear_to in ((64, 1.75, 1.5), (1500, 0.822, 0.7)):
        series = [
            (run.loop["pkt_rate"] / 1e6, run.moongen().rx_mpps)
            for run in results.filter(pkt_sz=size)
        ]
        peak = max(rx for _, rx in series)
        if abs(peak - peak_mpps) > 0.05 * peak_mpps:
            problems.append(f"{size} B peak {peak} Mpps, expected ~{peak_mpps}")
        for offered, rx in series:
            if offered <= linear_to and abs(rx - offered) > 0.02 * offered:
                problems.append(
                    f"{size} B not linear at {offered} Mpps: rx {rx}"
                )
    return problems


def _vpos_shape(results) -> List[str]:
    """Fig. 3b: drop-free (rx within 3 % of offered) up to 0.03 Mpps,
    peak below 0.09 Mpps, for both sizes."""
    problems = []
    for size in SIZES:
        series = [
            (run.loop["pkt_rate"] / 1e6, run.moongen().rx_mpps)
            for run in results.filter(pkt_sz=size)
        ]
        for offered, rx in series:
            if offered <= 0.03 and abs(rx - offered) > 0.03 * offered:
                problems.append(f"{size} B dropped at {offered} Mpps: rx {rx}")
        peak = max(rx for _, rx in series)
        if peak >= 0.09:
            problems.append(f"{size} B VM ceiling blown: {peak} Mpps")
    return problems


class Sweep:
    """A Fig. 3 rate sweep through ``run_case_study``, then evaluated."""

    def __init__(self, platform: str, keep_every: int, duration_s: float,
                 default_seed: int, shape):
        self.platform = platform
        self.keep_every = keep_every
        self.duration_s = duration_s
        self.default_seed = default_seed
        self.shape = shape

    @property
    def rates(self) -> List[int]:
        """The platform's case-study rates, every ``keep_every``-th kept
        (and the last), as the Fig. 3 benches thin them."""
        from repro.casestudy import POS_RATES, VPOS_RATES

        rates = POS_RATES if self.platform == "pos" else VPOS_RATES
        thinned = list(rates[::self.keep_every])
        if rates[-1] not in thinned:
            thinned.append(rates[-1])
        return thinned

    @property
    def units(self) -> int:
        return len(self.rates) * len(SIZES)

    def _run(self, root: str, seed: int, max_runs: Optional[int] = None):
        from repro.casestudy import run_case_study

        return run_case_study(
            self.platform, root, rates=self.rates, sizes=SIZES,
            duration_s=self.duration_s, interval_s=0.01, seed=seed,
            max_runs=max_runs,
        )

    def setup(self, root: str, seed: int) -> None:
        """The zero-run call: environment, allocation, boot, setup scripts."""
        handle = self._run(root, seed, max_runs=0)
        if handle.aborted:
            raise RuntimeError(f"{self.platform} set-up aborted")

    def prepare(self) -> None:
        import repro.casestudy  # noqa: F401
        import repro.evaluation.loader  # noqa: F401
        import repro.evaluation.plotter  # noqa: F401
        import repro.telemetry.doctor  # noqa: F401

    def run(self, root: str, seed: int, reference=None) -> Outcome:
        from repro.evaluation.loader import load_experiment
        from repro.evaluation.plotter import plot_experiment
        from repro.telemetry.doctor import diagnose

        start = time.perf_counter()
        handle = self._run(root, seed)
        results = load_experiment(handle.result_path)
        plot_experiment(
            results, output_dir=os.path.join(root, "figures"),
            formats=("svg",),
        )
        evaluated = time.perf_counter()
        diagnosis, audits = timed_passes(
            diagnose, handle.result_path, DOCTOR_PASSES
        )
        problems, table = self.check(results, diagnosis, reference)
        notes = [
            f"doctor {finding['severity']}: {finding['code']}"
            for finding in diagnosis["findings"]
            if finding["severity"] != "critical"
        ]
        return Outcome(
            experiment_s=evaluated - start,
            audit_s=audits,
            attempted=self.units,
            failed=self.units - sum(1 for record in handle.runs if record.ok),
            fingerprint=table,
            problems=problems,
            notes=notes,
            tree=handle.result_path,
        )

    def check(self, results, diagnosis: dict, reference=None):
        """``(problems, table)`` for one evaluated sweep tree.

        ``reference`` is the (tx, rx) table of an earlier repetition with
        the same seed; the simulator is deterministic, so it must match.
        Critical doctor findings (incomplete tree, failed runs, wedged
        nodes) make a tree wrong; warnings are heuristics and do not.
        """
        problems = [
            f"doctor: {finding['code']}: {finding['message']}"
            for finding in diagnosis["findings"]
            if finding["severity"] == "critical"
        ]
        expected = sorted((size, rate) for size in SIZES for rate in self.rates)
        found = sorted(
            (int(run.loop["pkt_sz"]), int(run.loop["pkt_rate"]))
            for run in results.runs
        )
        if found != expected:
            return problems + [
                f"expected the {len(expected)} runs of the sweep, found "
                f"{len(found)}"
            ], None
        if not all(run.ok for run in results.runs):
            problems.append("a run reported failure")
        from repro.core.errors import PosError

        try:
            table = sweep_table(results)
            problems += self.shape(results)
        except PosError as exc:  # a doctored or torn MoonGen log
            return problems + [f"unreadable MoonGen report: {exc}"], None
        if reference is not None and table != reference:
            problems.append("(tx, rx) table differs from the first repetition")
        return problems, table


# ----------------------------------------------------------------------------
# Factorial study
# ----------------------------------------------------------------------------

class Study:
    """A replicated factorial study of one-run cells, run then audited."""

    def __init__(self, factors: int, levels: int, replications: int,
                 default_seed: int):
        self.factors = factors
        self.levels = levels
        self.replications = replications
        self.default_seed = default_seed
        self.units = levels ** factors * replications

    def spec_text(self, seed: int) -> str:
        """The study file a user would write, with seeded factor levels."""
        rng = random.Random(seed)
        lines = ["name: perfbench-study", "factors:"]
        for factor in range(self.factors):
            levels = sorted(rng.sample(range(1, 1000), self.levels))
            lines.append(f"  f{factor}: [{', '.join(map(str, levels))}]")
        lines += [
            f"replications: {self.replications}",
            f"seed: {seed}",
            "pool: [alpha, beta]",
            "duration: 10",
            "noise: 0.01",
            "tolerance: 0.05",
        ]
        return "\n".join(lines) + "\n"

    def _spec_file(self, root: str, seed: int) -> str:
        path = os.path.join(root, "study.yml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.spec_text(seed))
        return path

    def setup(self, root: str, seed: int) -> None:
        """Load the spec and plan admission of every replication."""
        path = self._spec_file(root, seed)
        from repro.campaign.admission import plan_admission
        from repro.study import load_study_file, replication_campaign

        spec = load_study_file(path)
        for replication in range(spec.replications):
            plan_admission(replication_campaign(spec, replication))

    def prepare(self) -> None:
        import repro.campaign.admission  # noqa: F401
        import repro.study  # noqa: F401

    def run(self, root: str, seed: int, reference=None) -> Outcome:
        from repro.study import audit_study, load_study_file, run_study

        path = self._spec_file(root, seed)
        tree = os.path.join(root, "study")
        start = time.perf_counter()
        result = run_study(load_study_file(path), tree)
        finished = time.perf_counter()
        report, audits = timed_passes(audit_study, tree, AUDIT_PASSES)
        problems, digest = self.check(tree, report, reference)
        if not result.ok:
            problems.append("run_study reported a failed replication")
        return Outcome(
            experiment_s=finished - start,
            audit_s=audits,
            attempted=self.units,
            failed=self.units - sum(
                entry["experiments_completed"]
                for entry in result.replications
            ),
            fingerprint=digest,
            problems=problems,
            tree=tree,
        )

    def check(self, tree: str, report: dict, reference=None):
        """``(problems, study.json digest)`` for one audited study tree.

        ``reference`` is the digest of an earlier repetition with the
        same seed; the study is deterministic, so it must match.
        """
        problems = [f"audit hole: {hole}" for hole in report["holes"]]
        try:
            with open(os.path.join(tree, "study.json"), "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError as exc:
            return problems + [f"no study.json: {exc}"], None
        if reference is not None and digest != reference:
            problems.append("study.json differs from the first repetition")
        return problems, digest


def workloads() -> Dict[str, object]:
    """Name -> workload, in the order ``--workload all`` runs them."""
    return {
        "pos_sweep": Sweep(
            "pos", keep_every=1, duration_s=0.06, default_seed=0,
            shape=_pos_shape,
        ),
        "vpos_sweep": Sweep(
            "vpos", keep_every=3, duration_s=0.03, default_seed=2,
            shape=_vpos_shape,
        ),
        "factorial_study": Study(
            factors=2, levels=4, replications=8, default_seed=42,
        ),
    }
