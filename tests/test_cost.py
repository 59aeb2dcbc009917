"""Tests for the latency cost model: closed-form predictions against
the bundled reference profile and round-trips through the fitter."""

import numpy as np
import pytest

from preselect.cost import (
    REFERENCE_PROFILE,
    CostProfile,
    FitResult,
    TimingRecord,
    measure,
    per_class_cost,
    predict_time,
)


class TestPredictTime:
    def test_reference_full_loop(self):
        # backbone + fusion + rpn + head totals over the 20-class loop.
        t = predict_time(REFERENCE_PROFILE, 20, 20, use_filter=False)
        assert t == pytest.approx(0.733, abs=1e-9)

    def test_reference_minor_loop_near_published(self):
        t = predict_time(REFERENCE_PROFILE, 20, 10, use_filter=True)
        assert abs(t - 0.392) / 0.392 < 0.10

    def test_reference_speedup_bracket(self):
        full = predict_time(REFERENCE_PROFILE, 20, 20, False)
        minor = predict_time(REFERENCE_PROFILE, 20, 10, True)
        assert 0.50 < minor / full < 0.60

    def test_filter_with_all_selected_costs_more(self):
        """Scoring every class and then keeping them all is strictly
        slower than skipping the filter."""
        full = predict_time(REFERENCE_PROFILE, 20, 20, False)
        filtered = predict_time(REFERENCE_PROFILE, 20, 20, True)
        assert filtered == pytest.approx(full + 20 * REFERENCE_PROFILE.t_tpf_per_class)

    def test_linear_in_selected_count(self):
        times = [predict_time(REFERENCE_PROFILE, 20, n, True) for n in range(1, 21)]
        diffs = np.diff(times)
        np.testing.assert_allclose(diffs, per_class_cost(REFERENCE_PROFILE),
                                   rtol=1e-9)

    def test_hand_computed_profile(self):
        p = CostProfile(t_backbone=1.0, t_fusion=2.0, t_rpn=3.0, t_head=5.0,
                        t_tpf_per_class=0.1, n_ref=10)
        assert per_class_cost(p) == pytest.approx(1.0)
        assert predict_time(p, 10, 10, False) == pytest.approx(11.0)
        assert predict_time(p, 10, 4, True) == pytest.approx(1.0 + 1.0 + 4.0)

    def test_rejects_overselection(self):
        with pytest.raises(ValueError):
            predict_time(REFERENCE_PROFILE, 10, 11, True)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            CostProfile(-0.1, 0, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            CostProfile(0, 0, 0, 0, 0, 0)


class TestMeasure:
    @staticmethod
    def _synthetic_records(backbone, heavy_per_class, tpf_per_class,
                           pairs, n_candidates=20):
        """Noise-free records following the model exactly."""
        records = []
        for n_sel in pairs:
            records.append(TimingRecord(
                n_candidates=n_candidates,
                n_selected=n_sel,
                scoring_seconds=tpf_per_class * n_candidates,
                fusion_seconds=0.4 * heavy_per_class * n_sel,
                detect_seconds=0.6 * heavy_per_class * n_sel,
                setup_seconds=backbone,
            ))
        return records

    def test_exact_recovery_from_two_points(self):
        records = self._synthetic_records(0.01, 0.03, 0.002, [20, 10])
        fit = measure(records, n_ref=20)
        assert isinstance(fit, FitResult)
        assert per_class_cost(fit.profile) == pytest.approx(0.03, rel=1e-6)
        assert fit.profile.t_tpf_per_class == pytest.approx(0.002, rel=1e-6)
        assert fit.profile.t_backbone == pytest.approx(0.01, rel=1e-4)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)

    def test_prediction_round_trip(self):
        """predict_time under the fitted profile reproduces the inputs."""
        records = self._synthetic_records(0.02, 0.05, 0.001, [20, 15, 10, 5])
        fit = measure(records, n_ref=20)
        for r in records:
            total = (r.setup_seconds + r.scoring_seconds + r.fusion_seconds +
                     r.detect_seconds)
            assert predict_time(fit.profile, 20, r.n_selected, True) == \
                pytest.approx(total, rel=1e-6)

    def test_noise_reported_as_residual(self):
        rng = np.random.default_rng(0)
        records = []
        for r in self._synthetic_records(0.01, 0.03, 0.002, [20, 15, 10, 5, 2]):
            records.append(TimingRecord(
                r.n_candidates, r.n_selected,
                r.scoring_seconds,
                r.fusion_seconds + rng.uniform(0, 0.005),
                r.detect_seconds,
                r.setup_seconds,
            ))
        fit = measure(records, n_ref=20)
        assert fit.residual > 0.0
        assert per_class_cost(fit.profile) == pytest.approx(0.03, rel=0.2)

    def test_rejects_single_record(self):
        records = self._synthetic_records(0.01, 0.03, 0.002, [10])
        with pytest.raises(ValueError):
            measure(records, n_ref=20)

    def test_rejects_constant_selection(self):
        records = self._synthetic_records(0.01, 0.03, 0.002, [10, 10, 10])
        with pytest.raises(ValueError):
            measure(records, n_ref=20)

    def test_fusion_detect_split_preserved(self):
        records = self._synthetic_records(0.0, 0.1, 0.001, [20, 10])
        fit = measure(records, n_ref=20)
        total = fit.profile.t_fusion + fit.profile.t_rpn + fit.profile.t_head
        assert fit.profile.t_fusion == pytest.approx(0.4 * total, rel=1e-6)

    def test_constant_fusion_has_no_per_class_cost(self):
        """Fusion time that does not grow with the selection is a per-query
        cost: it goes to the backbone term, and only detect gets a slope."""
        records = [TimingRecord(n_candidates=20, n_selected=n, scoring_seconds=0.04,
                                fusion_seconds=0.004, detect_seconds=0.003 * n,
                                setup_seconds=0.01)
                   for n in (20, 15, 10, 5)]
        fit = measure(records, n_ref=20)
        assert fit.profile.t_fusion == pytest.approx(0.0, abs=1e-12)
        assert fit.profile.t_head == pytest.approx(0.003 * 20, rel=1e-9)
        assert fit.profile.t_backbone == pytest.approx(0.014, rel=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

