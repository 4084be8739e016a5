"""Cross-platform tendency comparison.

Section 5 asks: "With a decrease in the maximum forwarding throughput
by a factor of up to 44 … how can both setups be compared?  While the
raw performance figures cannot be compared, the underlying tendencies
stay the same."

This module turns that argument into a computation.  Two platforms'
throughput curves are normalized (rate relative to the platform's own
drop-free ceiling) and compared on their *qualitative* features:

* where the drop-free region ends (the knee),
* whether the knee depends on packet size,
* the ordering of configurations (which packet size wins, where).

Two platforms "agree in tendency" when those features match even
though absolute rates differ by orders of magnitude.
"""

from __future__ import annotations

import random

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


from repro.core.errors import EvaluationError

__all__ = [
    "CurveFeatures",
    "extract_features",
    "tendencies_agree",
    "tendency_report",
    "median",
    "mad",
    "robust_z",
    "hodges_lehmann",
    "paired_effect",
    "factorial_effects",
]

Point = Tuple[float, float]  # (offered, achieved)


# --------------------------------------------------------------------------
# robust location / dispersion / effect-size estimators
#
# The comparative tooling (`pos diff`, `pos doctor`, the perf-history
# regression plane) reasons about small, possibly contaminated samples:
# a handful of repeated runs, one of which may be an outlier caused by a
# retry storm or a wedged node.  Means and standard deviations are
# useless there — a single bad run drags both — so everything below is
# median/MAD-based, and every randomized step is seeded so reports stay
# pure functions of their inputs.
# --------------------------------------------------------------------------

#: Consistency constant making the MAD comparable to a standard
#: deviation under normality (1 / Phi^-1(3/4)).
_MAD_SCALE = 1.4826


def median(samples: Sequence[float]) -> float:
    """The sample median (average-of-two for even sizes)."""
    if not samples:
        raise EvaluationError("median of an empty sample")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(samples: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation, scaled to be sigma-comparable."""
    if not samples:
        raise EvaluationError("MAD of an empty sample")
    mid = median(samples) if center is None else center
    return _MAD_SCALE * median([abs(value - mid) for value in samples])


def robust_z(value: float, samples: Sequence[float]) -> float:
    """How many robust sigmas ``value`` sits from the sample's median.

    With a degenerate spread (MAD == 0, e.g. all-identical samples) the
    score is 0 for values equal to the median and infinite otherwise,
    signed like the deviation — any deviation from a perfectly
    concentrated sample is anomalous.
    """
    mid = median(samples)
    spread = mad(samples, center=mid)
    if spread == 0.0:
        if value == mid:
            return 0.0
        return float("inf") if value > mid else float("-inf")
    return (value - mid) / spread


def hodges_lehmann(samples: Sequence[float]) -> float:
    """Hodges–Lehmann one-sample estimator: median of pairwise means.

    The classic robust location estimate for paired differences —
    resistant to outliers yet far more efficient than the plain median.
    """
    if not samples:
        raise EvaluationError("Hodges-Lehmann of an empty sample")
    walsh = [
        (samples[i] + samples[j]) / 2.0
        for i in range(len(samples))
        for j in range(i, len(samples))
    ]
    return median(walsh)


def paired_effect(
    before: Sequence[float],
    after: Sequence[float],
    confidence: float = 0.95,
    bootstrap: int = 400,
    seed: int = 0,
) -> Dict[str, float]:
    """Robust effect summary of paired samples (``after - before``).

    Returns the Hodges–Lehmann estimate of the paired difference, the
    median difference, and a seeded-bootstrap confidence interval on
    the HL estimate — deterministic for identical inputs, so reports
    built on it stay byte-stable.
    """
    if len(before) != len(after):
        raise EvaluationError(
            f"paired samples differ in length: {len(before)} vs {len(after)}"
        )
    if not before:
        raise EvaluationError("paired effect of empty samples")
    diffs = [b - a for a, b in zip(before, after)]
    estimate = hodges_lehmann(diffs)
    rng = random.Random(seed)
    replicates: List[float] = []
    for _ in range(bootstrap):
        resample = [diffs[rng.randrange(len(diffs))] for _ in diffs]
        replicates.append(hodges_lehmann(resample))
    replicates.sort()
    tail = (1.0 - confidence) / 2.0
    low = replicates[int(tail * (len(replicates) - 1))]
    high = replicates[int((1.0 - tail) * (len(replicates) - 1))]
    return {
        "hl_estimate": estimate,
        "median_diff": median(diffs),
        "ci_low": low,
        "ci_high": high,
        "confidence": confidence,
        "n": float(len(diffs)),
    }


def factorial_effects(
    rows: Sequence[Tuple[Dict[str, object], int, float]],
    factors: Dict[str, Sequence[object]],
    confidence: float = 0.95,
    bootstrap: int = 400,
    seed: int = 0,
) -> Dict[str, dict]:
    """Per-factor main effects of a replicated factorial design.

    ``rows`` are the study's individual measurements: one
    ``(assignment, replication, value)`` triple per factorial cell and
    replication, where ``assignment`` maps every factor name to the
    level measured.  ``factors`` gives the design (factor -> ordered
    level list); the *first* level of each factor is its baseline.

    For every factor and every non-baseline level, measurements are
    paired on everything else — identical assignment of the remaining
    factors and identical replication index — so the estimated effect
    isolates that one level switch.  The pairs feed
    :func:`paired_effect`, inheriting its seeded-bootstrap confidence
    interval; the whole summary is a pure function of its inputs.
    """
    if not rows:
        raise EvaluationError("factorial_effects of an empty design")
    if not factors:
        raise EvaluationError("factorial_effects needs at least one factor")
    indexed: Dict[Tuple, float] = {}
    for assignment, replication, value in rows:
        missing = sorted(set(factors) - set(assignment))
        if missing:
            raise EvaluationError(
                f"measurement {assignment!r} lacks factors: {', '.join(missing)}"
            )
        key = (
            tuple(assignment[factor] for factor in sorted(factors)),
            int(replication),
        )
        indexed[key] = float(value)

    ordered_factors = sorted(factors)
    effects: Dict[str, dict] = {}
    for factor in ordered_factors:
        levels = list(factors[factor])
        if not levels:
            raise EvaluationError(f"factor {factor!r} has no levels")
        position = ordered_factors.index(factor)
        baseline = levels[0]
        level_effects: Dict[str, dict] = {}
        for level in levels[1:]:
            before: List[float] = []
            after: List[float] = []
            # Levels of one factor may mix types (64 vs "auto"), which
            # plain tuple comparison cannot order — sort on repr, which
            # is total and deterministic.
            for (cell, replication), value in sorted(
                indexed.items(),
                key=lambda item: (
                    [repr(part) for part in item[0][0]], item[0][1],
                ),
            ):
                if cell[position] != baseline:
                    continue
                partner = cell[:position] + (level,) + cell[position + 1:]
                matched = indexed.get((partner, replication))
                if matched is None:
                    continue
                before.append(value)
                after.append(matched)
            if not before:
                raise EvaluationError(
                    f"factor {factor!r}: no paired measurements between "
                    f"levels {baseline!r} and {level!r}"
                )
            level_effects[str(level)] = paired_effect(
                before, after,
                confidence=confidence, bootstrap=bootstrap, seed=seed,
            )
        effects[factor] = {
            "baseline": baseline,
            "levels": level_effects,
        }
    return effects


@dataclass
class CurveFeatures:
    """Qualitative features of one throughput curve."""

    #: Highest offered rate still forwarded without (significant) loss.
    knee_offered: float
    #: Achieved rate at the knee == the drop-free ceiling.
    ceiling: float
    #: True when the curve saturates (achieved < offered somewhere).
    saturates: bool


def extract_features(
    points: Sequence[Point], loss_tolerance: float = 0.02
) -> CurveFeatures:
    """Find the knee and ceiling of an offered-vs-achieved curve."""
    if not points:
        raise EvaluationError("cannot extract features from an empty curve")
    ordered = sorted(points)
    knee_offered = ordered[0][0]
    ceiling = ordered[0][1]
    saturates = False
    for offered, achieved in ordered:
        if offered <= 0:
            raise EvaluationError("offered rates must be positive")
        loss = 1.0 - achieved / offered
        if loss <= loss_tolerance:
            knee_offered = offered
            ceiling = max(ceiling, achieved)
        else:
            saturates = True
    return CurveFeatures(
        knee_offered=knee_offered, ceiling=ceiling, saturates=saturates
    )


def tendencies_agree(
    platform_a: Dict[object, Sequence[Point]],
    platform_b: Dict[object, Sequence[Point]],
    size_independence_tolerance: float = 0.25,
) -> Dict[str, bool]:
    """Check the paper's tendency claims across two platforms.

    Both arguments map a group key (e.g. packet size) to that group's
    throughput curve.  Returns a named verdict per tendency:

    * ``same_groups`` — both platforms measured the same configurations,
    * ``both_saturate`` — every group hits a ceiling on both platforms
      (the number of processed packets limits forwarding, not luck),
    * ``size_independence_matches`` — whether the drop-free ceiling is
      packet-size-independent agrees between platforms *per the curves
      below any bandwidth limit* (the paper: "the measured maximum
      throughput is forwarded regardless of the packet size, as long as
      no bandwidth limits are hit").
    """
    verdict: Dict[str, bool] = {}
    verdict["same_groups"] = set(platform_a) == set(platform_b)
    features_a = {key: extract_features(points) for key, points in platform_a.items()}
    features_b = {key: extract_features(points) for key, points in platform_b.items()}
    verdict["both_saturate"] = all(
        feats.saturates for feats in list(features_a.values()) + list(features_b.values())
    )

    def knees_size_independent(features: Dict[object, CurveFeatures]) -> bool:
        knees = [feats.knee_offered for feats in features.values()]
        return (max(knees) - min(knees)) <= size_independence_tolerance * max(knees)

    # vpos knees must be size-independent; pos knees differ only because
    # of the bandwidth limit, so compare *offered* knees of the groups
    # that are not line-rate-bound.  We approximate by checking the knee
    # spread and letting the caller decide which groups to include.
    verdict["size_independence_matches"] = knees_size_independent(
        features_b
    ) or knees_size_independent(features_a)
    return verdict


def tendency_report(
    platform_a_name: str,
    platform_a: Dict[object, Sequence[Point]],
    platform_b_name: str,
    platform_b: Dict[object, Sequence[Point]],
) -> str:
    """Human-readable tendency comparison between two platforms."""
    lines = [f"tendency comparison: {platform_a_name} vs {platform_b_name}"]
    for name, platform in ((platform_a_name, platform_a), (platform_b_name, platform_b)):
        for key in sorted(platform, key=str):
            feats = extract_features(platform[key])
            lines.append(
                f"  {name} [{key}]: drop-free to {feats.knee_offered:g}, "
                f"ceiling {feats.ceiling:g}, "
                f"{'saturates' if feats.saturates else 'linear throughout'}"
            )
    verdict = tendencies_agree(platform_a, platform_b)
    for tendency, agrees in verdict.items():
        lines.append(f"  {tendency}: {'agree' if agrees else 'DISAGREE'}")
    return "\n".join(lines) + "\n"
