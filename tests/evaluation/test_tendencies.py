"""Tests for the cross-platform tendency comparison."""

from __future__ import annotations

import pytest

from repro.core.errors import EvaluationError
from repro.evaluation.tendencies import (
    extract_features,
    factorial_effects,
    paired_effect,
    robust_z,
    tendencies_agree,
    tendency_report,
)


def saturating_curve(ceiling, rates):
    return [(rate, min(rate, ceiling)) for rate in rates]


class TestExtractFeatures:
    def test_linear_curve_never_saturates(self):
        feats = extract_features([(1, 1), (2, 2), (3, 3)])
        assert not feats.saturates
        assert feats.knee_offered == 3
        assert feats.ceiling == 3

    def test_knee_and_ceiling_of_saturating_curve(self):
        feats = extract_features(saturating_curve(2.0, [1, 2, 3, 4]))
        assert feats.saturates
        assert feats.knee_offered == 2
        assert feats.ceiling == 2.0

    def test_loss_tolerance(self):
        # 2% loss counts as drop-free with default tolerance.
        feats = extract_features([(1.0, 0.99), (2.0, 1.0)])
        assert feats.knee_offered == 1.0
        assert feats.saturates  # the 2.0 point lost half

    def test_empty_curve_rejected(self):
        with pytest.raises(EvaluationError):
            extract_features([])

    def test_non_positive_offered_rejected(self):
        with pytest.raises(EvaluationError):
            extract_features([(0.0, 0.0)])


class TestTendenciesAgree:
    def paper_like_curves(self):
        """pos and vpos shapes: 44x apart, same tendencies."""
        rates_pos = [0.5, 1.0, 1.5, 2.0]
        pos = {
            64: saturating_curve(1.75, rates_pos),
            1500: saturating_curve(0.82, rates_pos),
        }
        rates_vpos = [0.01, 0.02, 0.04, 0.1, 0.3]
        vpos = {
            64: saturating_curve(0.040, rates_vpos),
            # "regardless of the packet size": the 1500 B ceiling sits
            # within the loss tolerance of the 64 B one.
            1500: saturating_curve(0.0396, rates_vpos),
        }
        return pos, vpos

    def test_paper_shapes_agree(self):
        pos, vpos = self.paper_like_curves()
        verdict = tendencies_agree(pos, vpos)
        assert verdict["same_groups"]
        assert verdict["both_saturate"]
        assert verdict["size_independence_matches"]

    def test_group_mismatch_detected(self):
        pos, vpos = self.paper_like_curves()
        del vpos[1500]
        assert not tendencies_agree(pos, vpos)["same_groups"]

    def test_non_saturating_platform_detected(self):
        pos, vpos = self.paper_like_curves()
        vpos[64] = [(0.01, 0.01), (0.02, 0.02)]  # never stressed
        assert not tendencies_agree(pos, vpos)["both_saturate"]

    def test_report_renders(self):
        pos, vpos = self.paper_like_curves()
        report = tendency_report("pos", pos, "vpos", vpos)
        assert "pos [64]" in report
        assert "agree" in report
        assert "DISAGREE" not in report


class TestPairedEffect:
    def test_direction_is_after_minus_before(self):
        effect = paired_effect([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert effect["hl_estimate"] > 0
        assert effect["median_diff"] == 2.0
        assert effect["n"] == 3.0

    def test_single_pair_degenerates_to_the_difference(self):
        """With n=1 every bootstrap resample is the same one diff, so
        the interval collapses onto the point estimate."""
        effect = paired_effect([1.0], [3.5])
        assert effect["hl_estimate"] == 2.5
        assert effect["median_diff"] == 2.5
        assert effect["ci_low"] == 2.5
        assert effect["ci_high"] == 2.5
        assert effect["n"] == 1.0

    def test_all_tied_differences_give_a_degenerate_interval(self):
        """Identical diffs leave the bootstrap nothing to vary: the CI
        is exact, not merely narrow."""
        effect = paired_effect([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0])
        assert effect["hl_estimate"] == 1.0
        assert effect["ci_low"] == 1.0
        assert effect["ci_high"] == 1.0

    def test_deterministic_for_identical_inputs(self):
        before = [1.0, 1.2, 0.9, 1.1, 1.05]
        after = [1.3, 1.6, 1.1, 1.5, 1.25]
        assert paired_effect(before, after) == paired_effect(before, after)
        # ... and the interval brackets the estimate.
        effect = paired_effect(before, after)
        assert effect["ci_low"] <= effect["hl_estimate"] <= effect["ci_high"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            paired_effect([1.0, 2.0], [1.0])

    def test_empty_samples_rejected(self):
        with pytest.raises(EvaluationError):
            paired_effect([], [])


class TestFactorialEffects:
    FACTORS = {"rate": [1, 2], "size": [64, 128]}

    def rows(self, replications=2):
        """Additive synthetic design: +5 for rate=2, +2 for size=128."""
        built = []
        for replication in range(replications):
            for rate in self.FACTORS["rate"]:
                for size in self.FACTORS["size"]:
                    value = 10.0 + 5.0 * (rate == 2) + 2.0 * (size == 128)
                    built.append(
                        ({"rate": rate, "size": size}, replication, value)
                    )
        return built

    def test_recovers_known_additive_effects(self):
        effects = factorial_effects(self.rows(), self.FACTORS)
        assert set(effects) == {"rate", "size"}
        assert effects["rate"]["baseline"] == 1
        rate_effect = effects["rate"]["levels"]["2"]
        assert rate_effect["hl_estimate"] == 5.0
        assert rate_effect["ci_low"] == rate_effect["ci_high"] == 5.0
        # 2 pairings (one per size level) x 2 replications.
        assert rate_effect["n"] == 4.0
        size_effect = effects["size"]["levels"]["128"]
        assert size_effect["hl_estimate"] == 2.0

    def test_deterministic_across_calls(self):
        assert factorial_effects(self.rows(), self.FACTORS) == \
            factorial_effects(self.rows(), self.FACTORS)

    def test_mixed_type_levels_are_supported(self):
        """Levels like 64 vs "auto" cannot be ordered by ``<`` — the
        pairing must not rely on cross-type comparison."""
        factors = {"mode": [64, "auto"]}
        rows = [
            ({"mode": 64}, 0, 1.0),
            ({"mode": "auto"}, 0, 3.0),
        ]
        effects = factorial_effects(rows, factors)
        assert effects["mode"]["levels"]["auto"]["hl_estimate"] == 2.0

    def test_empty_rows_rejected(self):
        with pytest.raises(EvaluationError):
            factorial_effects([], self.FACTORS)

    def test_empty_factors_rejected(self):
        with pytest.raises(EvaluationError):
            factorial_effects(self.rows(), {})

    def test_measurement_lacking_a_factor_rejected(self):
        rows = [({"rate": 1}, 0, 1.0)]
        with pytest.raises(EvaluationError, match="lacks factors"):
            factorial_effects(rows, self.FACTORS)

    def test_factor_without_levels_rejected(self):
        rows = [({"rate": 1, "size": 64}, 0, 1.0)]
        with pytest.raises(EvaluationError, match="no levels"):
            factorial_effects(rows, {"rate": [1], "size": []})

    def test_unpairable_levels_rejected(self):
        """A level present in the design but absent from the data has
        no paired measurements — that is an error, not a silent skip."""
        rows = [
            ({"rate": 1, "size": 64}, 0, 1.0),
            ({"rate": 1, "size": 128}, 0, 2.0),
        ]
        with pytest.raises(EvaluationError, match="no paired measurements"):
            factorial_effects(rows, self.FACTORS)


class TestAgainstRealRuns:
    def test_measured_platforms_agree_in_tendency(self, tmp_path):
        """The Sec. 5 argument on actual measured data."""
        from repro.casestudy import run_case_study
        from repro.evaluation.loader import load_experiment

        def curves(platform, rates, duration):
            handle = run_case_study(
                platform, str(tmp_path / platform), rates=rates,
                sizes=(64, 1500), duration_s=duration, interval_s=duration / 2,
                seed=6,
            )
            results = load_experiment(handle.result_path)
            by_size = {}
            for size in (64, 1500):
                by_size[size] = [
                    (run.loop["pkt_rate"] / 1e6, run.moongen().rx_mpps)
                    for run in results.filter(pkt_sz=size)
                ]
            return by_size

        pos = curves("pos", [500_000, 1_000_000, 2_000_000], 0.03)
        vpos = curves("vpos", [10_000, 30_000, 200_000], 0.15)
        verdict = tendencies_agree(pos, vpos)
        assert all(verdict.values()), verdict


class TestRobustZ:
    def test_equal_to_a_concentrated_sample_is_zero(self):
        assert robust_z(1.0, [1.0, 1.0, 1.0, 1.0]) == 0.0

    def test_above_a_concentrated_sample_is_plus_infinity(self):
        assert robust_z(2.0, [1.0, 1.0, 1.0, 2.0]) == float("inf")

    def test_below_a_concentrated_sample_is_minus_infinity(self):
        assert robust_z(0.5, [0.5, 1.0, 1.0, 1.0]) == float("-inf")

    def test_ordinary_sample_scales_by_the_mad(self):
        # median 3, absolute deviations [2, 1, 0, 1, 2] -> MAD 1 * 1.4826
        assert robust_z(5.0, [1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
            2.0 / 1.4826
        )
